"""Shared desk-scale circuit fixtures.

Everything here stays at n <= 2, depth <= 2 so any test can afford dense
linear algebra as its oracle.
"""

import os

import numpy as np
import pytest

from clockless.circuit import layered
from clockless.limits import set_blas_threads

# The tests run under the same BLAS thread policy as the command line.
set_blas_threads()


class Forks(list):
    """The pids of the workers ``limits.fork_map`` forked, in fork order."""

    def reaped(self) -> bool:
        """Whether every worker is gone: ``waitpid`` finds no such child.
        (``multiprocessing.active_children`` cannot see a raw fork.)"""
        for pid in self:
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                continue
            return False
        return True


@pytest.fixture
def pin_cpus(monkeypatch):
    """``pin_cpus(count)`` lets ``limits.fork_map`` see ``count`` CPUs and
    returns the ``Forks`` it records each worker's pid in."""

    def pin(count):
        forks, fork = Forks(), os.fork

        def recorded_fork():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
        monkeypatch.setattr(os, "fork", recorded_fork)
        return forks

    return pin


@pytest.fixture
def identity1():
    """One wire, one identity layer, the wire is an ancilla."""
    return layered(1, 1, [[("I", (0,))]])


@pytest.fixture
def hadamard1():
    return layered(1, 1, [[("H", (0,))]])


@pytest.fixture
def bell_circuit():
    """Two ancilla wires, H then CNOT: prepares a Bell pair from |00>."""
    return layered(2, 2, [[("H", (1,))], [("CNOT", (1, 0))]])


@pytest.fixture
def hcnot():
    """H then CNOT with one data wire; the clock-encoding fixture."""
    return layered(2, 1, [[("H", (0,))], [("CNOT", (0, 1))]])


@pytest.fixture
def rng():
    return np.random.default_rng(7)

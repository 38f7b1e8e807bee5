"""The one memory budget (estimates, refusals, messages), BLAS threads and
the fork map."""

import logging
import os
import signal
import time
import tracemalloc

import numpy as np
import pytest

from clockless import limits
from clockless.circuit import layered
from clockless.fk import require_simulable
from clockless.hamiltonian import SparseOperator
from clockless.limits import (
    MEMORY_BUDGET,
    ResourceError,
    dense_bytes,
    fork_map,
    require,
    set_blas_threads,
    vector_bytes,
)
from clockless.spectral import ConvergenceError, ground_certificate


def test_require_accepts_at_budget_and_refuses_one_byte_over():
    require("an exact fit", 12, MEMORY_BUDGET)
    with pytest.raises(ResourceError):
        require("one byte over", 12, MEMORY_BUDGET + 1)


def test_resource_error_is_a_value_error():
    assert issubclass(ResourceError, ValueError)
    with pytest.raises(ValueError):
        require("anything", 30, MEMORY_BUDGET * 4)


def test_message_names_operation_qubits_and_gib():
    with pytest.raises(ResourceError) as err:
        require("a dense thing", 13, dense_bytes(13))
    text = str(err.value)
    assert "a dense thing" in text
    assert "13 qubits" in text
    assert "about 1 GiB" in text and "0.25 GiB" in text


def test_estimates():
    assert dense_bytes(12) == MEMORY_BUDGET
    assert vector_bytes(20, 20) == 20 * 16 * 2**20


def test_dense_oracles_refuse_twelve_qubits_without_allocating():
    # one 12-qubit matrix is the whole budget; the ground certificate's
    # dense fallback holds several, and is refused before the sparse factor
    op = SparseOperator(12, ())
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match="factorization on 12"):
            ground_certificate(op, np.zeros(op.dim), 1e-10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_library_refusal_is_a_resource_error():
    wide = layered(25, 0, [[("H", (w,)) for w in range(25)]])
    with pytest.raises(ResourceError, match="simulating a circuit on 25 qubits"):
        require_simulable(wide)


def _no_search():
    pytest.fail("the BLAS library was searched for")


def test_blas_threads_honour_openblas_num_threads(monkeypatch, caplog):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.setattr(limits, "_numpy_openblas", _no_search)
    with caplog.at_level(logging.INFO, logger="clockless.limits"):
        assert set_blas_threads() == {}
    assert "OPENBLAS_NUM_THREADS is set" in caplog.text


def test_blas_threads_without_the_library_do_nothing(monkeypatch, caplog):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.setattr(limits, "_numpy_openblas", lambda: None)
    with caplog.at_level(logging.INFO, logger="clockless.limits"):
        assert set_blas_threads() == {}
    assert "not found" in caplog.text


def test_blas_threads_second_call_is_harmless(monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    if limits._numpy_openblas() is None:
        pytest.skip("numpy is not linked against its own OpenBLAS here")
    assert set_blas_threads() == {"numpy": 1}
    assert set_blas_threads() == {"numpy": 1}


@pytest.mark.parametrize(
    "cpus, items, record",
    [
        (1, [-3, 1, -2], "items=3 workers=1 in-process"),
        (2, [-3, 1, -2], "items=3 workers=2 forked"),
        (2, [-3], "items=1 workers=1 in-process"),
        (8, [-3, 1, -2], "items=3 workers=3 forked"),
        # more indices than the task pipe queues at once (1,024)
        (2, list(range(-1500, 1500)), "items=3000 workers=2 forked"),
    ],
    ids=[
        "one-cpu", "two-cpus", "one-item", "more-cpus-than-items",
        "more-items-than-queued",
    ],
)
def test_fork_map_keeps_item_order_and_logs_its_pool(
    pin_cpus, caplog, cpus, items, record
):
    forks = pin_cpus(cpus)
    with caplog.at_level(logging.INFO, logger="clockless.limits"):
        assert fork_map(abs, items) == [abs(i) for i in items]
    assert [r.getMessage() for r in caplog.records] == [f"fork_map: {record}"]
    workers = min(cpus, len(items))
    assert len(forks) == (workers if workers > 1 else 0)
    assert forks.reaped()


def _stuck(budget):
    if budget:
        raise ConvergenceError("no convergence", budget)
    return budget


def test_fork_map_brings_back_a_worker_convergence_error(pin_cpus):
    # an exception whose args do not rebuild it cannot come back by pickle;
    # ConvergenceError's do, so it arrives whole. One item fails, so which
    # error comes first does not depend on which worker ends first.
    forks = pin_cpus(2)
    with pytest.raises(ConvergenceError) as err:
        fork_map(_stuck, [0, 5])
    assert str(err.value) == "no convergence (after 5 operator applications)"
    assert err.value.iterations == 5
    assert len(forks) == 2 and forks.reaped()


def test_fork_map_drains_results_past_the_pipe_buffer(pin_cpus):
    # each result is larger than a pipe holds (64 KiB): a caller that waited
    # on one worker while the other blocked on a full pipe would hang, so
    # an alarm interrupts the call if it does
    forks = pin_cpus(2)
    handler = signal.signal(signal.SIGALRM, _interrupt)
    signal.alarm(60)
    try:
        results = fork_map(lambda n: np.full(n, n, np.int64), [2**15, 2**16])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)
    assert [r.nbytes for r in results] == [2**18, 2**19]
    assert all((r == r.size).all() for r in results)
    assert len(forks) == 2 and forks.reaped()


def test_fork_map_takes_a_function_and_items_that_do_not_pickle(pin_cpus):
    forks = pin_cpus(2)
    offset = 10
    items = [lambda: 1, lambda: 2, lambda: 3]
    assert fork_map(lambda make: make() + offset, items) == [11, 12, 13]
    assert len(forks) == 2 and forks.reaped()


def _open_fds() -> list[str]:
    return sorted(os.listdir("/proc/self/fd"))


def test_fork_map_kills_the_other_workers_after_an_error(pin_cpus):
    # one worker sleeps far past the other's error; the error comes back
    # as soon as it is raised, with the sleeper killed and reaped and
    # every pipe closed
    forks = pin_cpus(2)
    fds, start = _open_fds(), time.monotonic()
    with pytest.raises(ZeroDivisionError):
        fork_map(lambda s: time.sleep(s) if s else 1 / s, [60, 0])
    assert time.monotonic() - start < 30
    assert len(forks) == 2 and forks.reaped()
    assert _open_fds() == fds


def _die_on_one(item):
    if item == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return item


def test_fork_map_names_the_signal_that_killed_a_worker(pin_cpus):
    forks = pin_cpus(2)
    fds = _open_fds()
    with pytest.raises(RuntimeError, match=r"fork_map worker \d+ was killed by SIGKILL"):
        fork_map(_die_on_one, [0, 1, 2, 3])
    assert len(forks) == 2 and forks.reaped()
    assert _open_fds() == fds


def test_fork_map_reports_an_exception_that_does_not_pickle(pin_cpus):
    class Local(Exception):
        pass

    def fail(item):
        if item:
            raise Local(f"item {item} failed")
        return item

    forks = pin_cpus(2)
    with pytest.raises(RuntimeError, match=r"\.Local: item 1 failed$"):
        fork_map(fail, [0, 1])
    assert len(forks) == 2 and forks.reaped()


class _Interrupted(Exception):
    pass


def _interrupt(signum, frame):
    raise _Interrupted


def test_fork_map_reaps_every_worker_when_the_caller_is_interrupted(pin_cpus):
    # the workers sleep far past the alarm; the interrupt reaches the
    # caller while it waits on them, and the call kills and reaps both
    forks = pin_cpus(2)
    fds = _open_fds()
    handler = signal.signal(signal.SIGALRM, _interrupt)
    signal.setitimer(signal.ITIMER_REAL, 0.5)
    try:
        with pytest.raises(_Interrupted):
            fork_map(time.sleep, [60, 60])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
    assert len(forks) == 2 and forks.reaped()
    assert _open_fds() == fds

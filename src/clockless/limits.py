"""One memory budget for every operation that grows with the grid.

An n-wire, depth-D circuit lives on n x (2D+1) qubits, so dense matrices,
sparse exports, Krylov bases and enumerations are exponential in the grid.
Each such operation estimates its largest arrays with the helpers below and
calls ``require`` before allocating them; an estimate past ``MEMORY_BUDGET``
raises ``ResourceError``, which the CLI reports as exit 2.

``MEMORY_BUDGET`` is 2^28 bytes (256 MiB), one dense complex matrix on 12
qubits.  The exact-diagonalization oracles count the copies they hold
(``spectral``), so they stop at 11 qubits, and a dense solve still fits on
a desk machine.

The module also owns how this process uses its cores: ``set_blas_threads``
sets numpy's BLAS threads, and ``fork_map`` runs independent work items in
forked worker processes, one per CPU this process may use.
"""

from __future__ import annotations

import ctypes
import logging
import os

import numpy  # noqa: F401  (loads the OpenBLAS that set_blas_threads finds)

__all__ = [
    "MEMORY_BUDGET", "SCAN_POINT_CAP", "ResourceError",
    "coo_bytes", "dense_bytes", "enumeration_bytes", "fork_map", "require",
    "set_blas_threads", "vector_bytes",
]

_log = logging.getLogger(__name__)

MEMORY_BUDGET = 2**28

# Grid points one scan may request: a count, not bytes.
SCAN_POINT_CAP = 512

# Python bookkeeping of one enumerated entry beside its vector (about 520 B
# measured with tracemalloc on exhaustive expansions).
_ENTRY_OVERHEAD = 512


class ResourceError(ValueError):
    """An operation whose memory estimate exceeds ``MEMORY_BUDGET``, or
    whose size exceeds the count cap above."""


def require(what: str, num_qubits: int, nbytes: int) -> None:
    """Refuse ``what`` on ``num_qubits`` qubits if ``nbytes`` is over budget."""
    if nbytes > MEMORY_BUDGET:
        raise ResourceError(
            f"{what} on {num_qubits} qubits would take about "
            f"{nbytes / 2**30:.3g} GiB, beyond the memory budget of "
            f"{MEMORY_BUDGET / 2**30:g} GiB"
        )


def dense_bytes(num_qubits: int) -> int:
    """One dense complex 2^N x 2^N matrix."""
    return 16 << (2 * num_qubits)


def vector_bytes(num_qubits: int, count: int = 1) -> int:
    """``count`` complex vectors of length 2^N."""
    return (16 * count) << num_qubits


def coo_bytes(nonzeros: int) -> int:
    """A sparse build, three 32 B copies (two int64 indices, a complex value)
    of each entry: an upper bound, as ``to_sparse`` holds one set of
    coordinates while scipy compresses them (60 B per entry at its peak on
    the 14-qubit C14 parent, by tracemalloc)."""
    return 96 * nonzeros


def enumeration_bytes(count: int, num_qubits: int) -> int:
    """``count`` enumerated entries, each holding a vector on ``num_qubits``."""
    return count * (_ENTRY_OVERHEAD + vector_bytes(num_qubits))


def _numpy_openblas() -> str | None:
    """Path of numpy's own OpenBLAS among this process's loaded libraries."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps})
    except OSError:
        return None
    return next((p for p in paths if "numpy.libs/libscipy_openblas64_" in p), None)


def set_blas_threads() -> dict[str, int]:
    """Give numpy's OpenBLAS one thread and leave scipy's at its default.

    The two pools contend for the cores: on 2 cores ``soundness`` took
    5.9-6.1 s with both at their default, 4.2-4.3 s with numpy's at one
    thread. scipy's keeps its threads for the dense ``eigh`` of
    ``spectral.parent_spectrum``. The small numpy eigensolves of the
    soundness suites (``jordan_angles``, ``geometric_bound``) run on numpy's
    one thread, which the forked suite workers inherit. An explicit
    ``OPENBLAS_NUM_THREADS`` wins.
    Returns the counts set, by library, or {} (and a log line) when
    nothing was set. Safe to call again.
    """
    if "OPENBLAS_NUM_THREADS" in os.environ:
        _log.info("OPENBLAS_NUM_THREADS is set; BLAS threads left as they are")
        return {}
    path = _numpy_openblas()
    if path is None:
        _log.info("numpy's OpenBLAS not found; BLAS threads left as they are")
        return {}
    lib = ctypes.CDLL(path)
    lib.scipy_openblas_set_num_threads64_(1)
    return {"numpy": lib.scipy_openblas_get_num_threads64_()}


def fork_map(fn, items) -> list:
    """``[fn(item) for item in items]``, run in forked worker processes.

    One worker per CPU this process may use, at most one per item; with one
    worker the items run here, one after the other, and no pool is made.
    Results come back in item order. ``fn``, the items and the results
    cross a pipe by pickle, so ``fn`` is a module-level function or a
    ``functools.partial`` of one. No worker outlives the call: a worker's
    exception is raised here, with its type and message, after the pool has
    shut down. Logs one INFO record per call: the item count, the worker
    count, and whether the items ran here or forked.
    """
    items = list(items)
    workers = max(1, min(len(items), len(os.sched_getaffinity(0))))
    where = "in-process" if workers == 1 else "forked"
    _log.info("fork_map: items=%d workers=%d %s", len(items), workers, where)
    if workers == 1:
        return [fn(item) for item in items]
    # Imported here: at module import the pool would add about 0.5 MB to the
    # peak RSS of every command. Forked, not spawned: a spawned worker would
    # import numpy and scipy again (about 0.7 s), and no thread of this
    # package runs at this point.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork")
    )
    try:
        futures = [pool.submit(fn, item) for item in items]
        return [f.result() for f in futures]
    finally:
        pool.shutdown(cancel_futures=True)

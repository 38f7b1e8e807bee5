"""One memory budget for every operation that grows with the grid.

An n-wire, depth-D circuit lives on n x (2D+1) qubits, so dense matrices,
sparse exports, Krylov bases and enumerations are exponential in the grid.
Each such operation estimates its largest arrays with the helpers below and
calls ``require`` before allocating them; an estimate past ``MEMORY_BUDGET``
raises ``ResourceError``, which the CLI reports as exit 2.

An estimate bounds the peak that one ``require``-guarded operation
allocates beyond its inputs, as ``tracemalloc`` measures it, up to a few
KiB of interpreter bookkeeping; it does not bound the process's peak,
which also holds whatever the caller keeps. Tests measure that peak
against the estimate for ``peps.build_peps``, ``peps.expansion``, the
rotated-block extraction of ``rotation`` (``_conjugated_block``),
``spectral.low_spectrum``, ``fk.accept_probability``,
``hamiltonian.assemble`` and ``soundness.extract_decomposition``.

``MEMORY_BUDGET`` is 2^28 bytes (256 MiB), one dense complex matrix on 12
qubits.  The exact-diagonalization oracles count the copies they hold
(``spectral``), so they stop at 11 qubits, and a dense solve still fits on
a desk machine.

The module also owns how this process uses its cores: ``set_blas_threads``
sets numpy's BLAS threads, and ``fork_map`` runs independent work items in
worker processes made by ``os.fork``, one per CPU this process may use,
which inherit the work and send only their results back by pipe.
"""

from __future__ import annotations

import ctypes
import logging
import os
import pickle
import select
import selectors
import signal
import struct
import traceback

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

# fork_map's wire format: a task is one item index, a frame one pickle
# behind its length. At most one PIPE_BUF of indices waits in the task pipe.
_INDEX = struct.Struct("<I")
_LENGTH = struct.Struct("<Q")
_QUEUED = select.PIPE_BUF // _INDEX.size
_PROTOCOL = pickle.HIGHEST_PROTOCOL
_CHUNK = 2**16

# Python bookkeeping of one enumerated entry beside its vector, rounded up:
# its tuple, tag words, float and array header hold 233-305 B (tracemalloc,
# soundness.extract_decomposition's 1,024 and 8,192 entries on bell and C14
# with every location faulted).
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
    """A sparse build: ``to_sparse`` holds one set of coordinates (two int64
    indices and a complex value, 32 B) while scipy compresses them, and
    peaks at 60.1 B per entry on the 14-qubit C14 parent (795,648 entries,
    by tracemalloc); 64 B also covers the fixed costs of small operators
    (63.7 B per entry at 1,280 entries)."""
    return 64 * nonzeros


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
    worker the items run here, one after the other, and nothing forks.
    Each worker is an ``os.fork`` of this process, so it inherits ``fn`` and
    the items as they are and neither needs to pickle. The workers claim
    item indices from one shared task pipe, so a slow item holds up no
    other, and each sends its results back by pickle on a pipe of its own,
    which this process drains as they arrive; the results come back in item
    order. A worker's exception is raised here with its type and message (a
    ``RuntimeError`` naming both when it does not survive pickling), and a
    worker's death as a ``RuntimeError`` naming its signal or exit status;
    either way the other workers are killed first. No worker or pipe
    outlives the call, on any path. Logs one INFO record per call: the item
    count, the worker count, and whether the items ran here or forked.
    """
    items = list(items)
    workers = max(1, min(len(items), len(os.sched_getaffinity(0))))
    where = "in-process" if workers == 1 else "forked"
    _log.info("fork_map: items=%d workers=%d %s", len(items), workers, where)
    if workers == 1:
        return [fn(item) for item in items]
    # Forked, not spawned: a spawned worker would import numpy and scipy
    # again (about 0.7 s), and no thread of this package runs at this point.
    tasks_r, tasks_w = os.pipe()
    owned = {tasks_r, tasks_w}  # every pipe end this call has open
    live: dict[int, int] = {}  # result pipe -> pid of its unreaped worker
    results: dict[int, object] = {}
    queued = 0

    def close(fd: int) -> None:
        os.close(fd)
        owned.discard(fd)

    def queue(count: int) -> None:
        # The pipe never holds more than _QUEUED indices, so this write is
        # atomic and never blocks; the workers stop at its end.
        nonlocal queued
        stop = min(len(items), queued + count)
        os.write(tasks_w, b"".join(map(_INDEX.pack, range(queued, stop))))
        queued = stop
        if queued == len(items):
            close(tasks_w)

    try:
        queue(_QUEUED)
        for _ in range(workers):
            out_r, out_w = os.pipe()
            owned.update((out_r, out_w))
            pid = os.fork()
            if pid == 0:
                _work(fn, items, tasks_r, out_w, owned - {tasks_r, out_w})
            live[out_r] = pid
            close(out_w)
        with selectors.DefaultSelector() as selector:
            for fd in live:
                selector.register(fd, selectors.EVENT_READ, bytearray())
            while live:
                for key, _ in selector.select():
                    chunk = os.read(key.fd, _CHUNK)
                    if not chunk:
                        selector.unregister(key.fd)
                        _, status = os.waitpid(live[key.fd], 0)
                        _check_exit(live.pop(key.fd), status)
                        close(key.fd)
                        continue
                    key.data.extend(chunk)
                    for index, ok, value in _frames(key.data):
                        if not ok:
                            exc, trace = value
                            worker = RuntimeError(f"in a fork_map worker:\n{trace}")
                            raise exc from worker
                        results[index] = value
                        if queued < len(items):
                            queue(1)
        if len(results) < len(items):
            raise RuntimeError(
                f"fork_map workers exited with {len(items) - len(results)} "
                "items unanswered"
            )
        return [results[i] for i in range(len(items))]
    finally:
        for pid in live.values():
            os.kill(pid, signal.SIGKILL)  # an exited, unreaped worker ignores it
            os.waitpid(pid, 0)
        for fd in list(owned):
            close(fd)


def _work(fn, items, tasks: int, out: int, inherited) -> None:
    """A forked worker: close the ``inherited`` pipe ends, claim item
    indices from ``tasks`` until it ends and send one frame per item on
    ``out``, stopping after the first exception. Never returns."""
    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        while record := os.read(tasks, _INDEX.size):
            (index,) = _INDEX.unpack(record)
            try:
                frame = pickle.dumps((index, True, fn(items[index])), _PROTOCOL)
            except Exception as e:
                _send(out, _error_frame(index, e))
                break
            _send(out, frame)
        code = 0
    finally:
        os._exit(code)


def _error_frame(index: int, exc: Exception) -> bytes:
    """The frame of ``exc``, raised on item ``index``, and the worker's
    traceback; ``exc`` becomes a ``RuntimeError`` naming its type and
    message if it does not come back from pickle."""
    trace = traceback.format_exc()
    try:
        frame = pickle.dumps((index, False, (exc, trace)), _PROTOCOL)
        pickle.loads(frame)
    except Exception:
        error = RuntimeError(f"{type(exc).__qualname__}: {exc}")
        frame = pickle.dumps((index, False, (error, trace)), _PROTOCOL)
    return frame


def _send(fd: int, frame: bytes) -> None:
    data = memoryview(_LENGTH.pack(len(frame)) + frame)
    while data:
        data = data[os.write(fd, data):]


def _frames(buffer: bytearray):
    """Take each whole frame off the front of ``buffer``, unpickled."""
    while len(buffer) >= _LENGTH.size:
        end = _LENGTH.size + _LENGTH.unpack_from(buffer)[0]
        if len(buffer) < end:
            return
        frame = pickle.loads(buffer[_LENGTH.size : end])
        del buffer[:end]
        yield frame


def _check_exit(pid: int, status: int) -> None:
    """Raise if the worker ``pid`` did not exit cleanly."""
    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        raise RuntimeError(
            f"fork_map worker {pid} was killed by {signal.Signals(-code).name}"
        )
    if code > 0:
        raise RuntimeError(f"fork_map worker {pid} exited with status {code}")

"""Span tracer that wraps public clockless functions from the outside.

The tracer lives entirely in the benchmark: it replaces each function
named in ``WRAPPED`` by a wrapper that records one span per call (name,
start, end, parent span, thread) and restores the originals afterwards.
A name that other modules bound with ``from .x import f`` is replaced in
every clockless module that holds it, and methods are patched on their
class. Spans stay in memory until the run ends.

Worker threads start with no open span of their own; their spans are
attributed to the innermost open span listed in ``ADOPTING`` (the
soundness thread pool runs inside ``run_suite``).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import os
import sys
import threading
import time
from collections import defaultdict
from typing import NamedTuple

PACKAGE = "clockless"

# Layer (clockless module) -> wrapped functions; "Class.method" patches
# the method on its class.
WRAPPED = {
    "linalg": ("apply_matrix", "partial_trace", "product_state"),
    "hamiltonian": (
        "SparseOperator.apply", "term_energy", "energy", "parent_spec",
    ),
    "spectral": (
        "low_spectrum", "dense_spectrum", "jordan_angles", "geometric_bound",
    ),
    "rotation": (
        "rotate_term", "RotationUnitary.apply", "clifford_partners",
        "clifford_form", "project_qubits", "locality_residual",
    ),
    "peps": (
        "build_peps", "expansion", "reassemble_expansion", "output_marginal",
    ),
    "circuit": ("degree_reduce", "apply_circuit"),
    "fk": (
        "build_modified_fk", "history_state", "ClockHamiltonian.energies",
        "ClockHamiltonian.violations",
    ),
    "soundness": (
        "run_suite", "low_energy_probe", "build_combinatorial_state",
        "extract_decomposition", "high_weight_mass",
    ),
    "io": (
        "read_circuit_json", "write_state_bin", "write_term_manifest",
        "write_spectral_report", "write_csv",
    ),
}

ADOPTING = frozenset({"soundness.run_suite"})

# Metrics derived from the spans beyond .calls/.self_s:
# name -> (unit, better, meaning).
DERIVED = {
    "linalg.apply_matrix.bytes": (
        "B", "lower", "computed, not measured: 32 B x 2^N x batch per call",
    ),
    "linalg.apply_matrix.gbps": (
        "GB/s", "higher", "computed bytes / apply_matrix span time",
    ),
    "spectral.low_spectrum.matvecs": (
        "count", "lower", "SparseOperator.apply calls under low_spectrum",
    ),
    "soundness.run_suite.busy_ratio": (
        "ratio", "higher", "child span time / run_suite wall (parallelism)",
    ),
    "io.bytes_written": ("B", "lower", "size of the files io.write_* wrote"),
}


class Span(NamedTuple):
    sid: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: int
    nbytes: int  # computed bytes moved or written; 0 where not measured


def _matrix_bytes(args, kwargs) -> int:
    """Computed traffic of one apply_matrix call: read and write 2^N x batch complex128."""
    state = kwargs["state"] if "state" in kwargs else args[0]
    num_qubits = kwargs["num_qubits"] if "num_qubits" in kwargs else args[3]
    batch = state.shape[1] if getattr(state, "ndim", 1) == 2 else 1
    return 32 * 2**num_qubits * batch


def _file_bytes(args, kwargs) -> int:
    path = kwargs["path"] if "path" in kwargs else args[0]
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


_MEASURES = {
    "linalg.apply_matrix": _matrix_bytes,
    "io.write_state_bin": _file_bytes,
    "io.write_term_manifest": _file_bytes,
    "io.write_spectral_report": _file_bytes,
    "io.write_csv": _file_bytes,
}


def wrapped_names() -> list[str]:
    return [f"{mod}.{attr}" for mod, attrs in WRAPPED.items() for attr in attrs]


class Tracer:
    """Records spans of wrapped calls while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._adopter: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so each call records a span called ``name``."""
        measure = _MEASURES.get(name)
        adopts = name in ADOPTING

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._adopter
            sid = next(self._ids)
            stack.append(sid)
            if adopts:
                outer, self._adopter = self._adopter, sid
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if adopts:
                    self._adopter = outer
                nbytes = measure(args, kwargs) if measure else 0
                self.spans.append(
                    Span(sid, parent, name, start, end, threading.get_ident(), nbytes)
                )

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every function in ``WRAPPED``, rebinding imported aliases."""
        modules = {
            mod: importlib.import_module(f"{PACKAGE}.{mod}") for mod in WRAPPED
        }
        loaded = [
            m for key, m in sys.modules.items()
            if m is not None
            and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for mod, attrs in WRAPPED.items():
            for attr in attrs:
                name = f"{mod}.{attr}"
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(modules[mod], cls_name)
                    self._set(cls, method, self.wrap(name, cls.__dict__[method]))
                    continue
                original = getattr(modules[mod], attr)
                wrapper = self.wrap(name, original)
                for module in loaded:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by child spans."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.sid] = (s.end - s.start) - covered
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics from one traced run, by name.

    Every wrapped function reports ``.calls`` and ``.self_s``, zero when
    the workload never called it, so each run carries the same names.
    """
    own = self_times(spans)
    by_id = {s.sid: s for s in spans}
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for s in spans:
        calls[s.name] += 1
        self_s[s.name] += own[s.sid]
    metrics: dict[str, float] = {}
    for name in wrapped_names():
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = self_s[name]

    matrix = [s for s in spans if s.name == "linalg.apply_matrix"]
    moved = sum(s.nbytes for s in matrix)
    busy = sum(s.end - s.start for s in matrix)
    metrics["linalg.apply_matrix.bytes"] = moved
    metrics["linalg.apply_matrix.gbps"] = moved / busy / 1e9 if busy else 0.0

    def under(s: Span, name: str) -> bool:
        while s.parent is not None:
            s = by_id[s.parent]
            if s.name == name:
                return True
        return False

    metrics["spectral.low_spectrum.matvecs"] = sum(
        1 for s in spans
        if s.name == "hamiltonian.SparseOperator.apply"
        and under(s, "spectral.low_spectrum")
    )
    suites = {s.sid: s for s in spans if s.name == "soundness.run_suite"}
    wall = sum(s.end - s.start for s in suites.values())
    child_time = sum(s.end - s.start for s in spans if s.parent in suites)
    metrics["soundness.run_suite.busy_ratio"] = child_time / wall if wall else 0.0
    metrics["io.bytes_written"] = sum(
        s.nbytes for s in spans if s.name.startswith("io.write_")
    )
    return metrics


def write_spans(spans: list[Span], path: str) -> None:
    """Write spans as tab-separated rows, one per call, start order."""
    with open(path, "w") as f:
        f.write("sid\tparent\tname\tstart\tend\tthread\tnbytes\n")
        for s in sorted(spans, key=lambda s: s.start):
            f.write(
                f"{s.sid}\t{'' if s.parent is None else s.parent}\t{s.name}\t"
                f"{s.start:.9f}\t{s.end:.9f}\t{s.thread}\t{s.nbytes}\n"
            )

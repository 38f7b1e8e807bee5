"""Self-tests for the benchmark's span tracer and metric catalogue."""

import json
import os
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import child  # noqa: E402
import run  # noqa: E402
from clockless import hamiltonian, soundness  # noqa: E402
from clockless.circuit import layered  # noqa: E402
from clockless.peps import build_peps  # noqa: E402
from tracer import WRAPPED, Span, Tracer, layer_metrics, self_times  # noqa: E402


def _bindings() -> dict:
    """Every attribute of every clockless module and class, by identity."""
    out = {}
    for key, module in list(sys.modules.items()):
        if module is None or not key.startswith("clockless"):
            continue
        for attr, value in vars(module).items():
            out[(key, attr)] = value
            if isinstance(value, type) and value.__module__ == key:
                for name, member in vars(value).items():
                    out[(key, f"{attr}.{name}")] = member
    return out


def _assert_restored(before: dict) -> None:
    after = _bindings()
    changed = [k for k, v in before.items() if after.get(k) is not v]
    assert changed == []


def test_self_time_subtracts_union_of_children():
    spans = [
        Span(1, None, "root", 0.0, 10.0, 0, 0),
        Span(2, 1, "a", 1.0, 3.0, 0, 0),
        Span(3, 1, "b", 2.0, 5.0, 1, 0),  # overlaps a on another thread
        Span(4, 1, "c", 8.0, 9.0, 0, 0),
        Span(5, 3, "d", 2.5, 4.5, 1, 0),
    ]
    own = self_times(spans)
    assert own[1] == 10.0 - 4.0 - 1.0
    assert own[2] == 2.0
    assert own[3] == 3.0 - 2.0
    assert own[5] == 2.0


def test_from_import_binding_is_rebound():
    c = layered(1, 1, [[("H", (0,))]])
    spec = hamiltonian.parent_spec(c, (0.5,))
    state = build_peps(c, (0.5,))
    term = spec.terms[0]
    tracer = Tracer()
    with tracer.installed():
        hamiltonian.term_energy(term, state.amplitudes, spec.layout.num_qubits)
    outer = [s for s in tracer.spans if s.name == "hamiltonian.term_energy"]
    inner = [s for s in tracer.spans if s.name == "linalg.apply_matrix"]
    assert len(outer) == 1 and len(inner) == 1
    assert inner[0].parent == outer[0].sid
    metrics = layer_metrics(tracer.spans)
    assert metrics["linalg.apply_matrix.calls"] == 1
    assert metrics["linalg.apply_matrix.bytes"] == 32 * 2 ** spec.layout.num_qubits


def test_worker_thread_spans_land_under_run_suite():
    tracer = Tracer()
    with tracer.installed():
        soundness.run_suite("geometric", instances=6, seed=0, max_workers=2)
    (suite,) = [s for s in tracer.spans if s.name == "soundness.run_suite"]
    bounds = [s for s in tracer.spans if s.name == "spectral.geometric_bound"]
    assert len(bounds) == 6
    assert all(s.parent == suite.sid for s in bounds)
    assert {s.thread for s in bounds} - {threading.get_ident()}
    ratio = layer_metrics(tracer.spans)["soundness.run_suite.busy_ratio"]
    assert 0.0 < ratio <= 2.0 + 1e-9


def test_untraced_and_traced_runs_leave_originals(tmp_path):
    import clockless.cli  # noqa: F401  (load every module before the snapshot)

    before = _bindings()
    circuit = tmp_path / "c.json"
    circuit.write_text(json.dumps(
        {"version": 1, "n": 1, "a": 1, "layers": [[{"gate": "H", "wires": [0]}]]}
    ))
    for extra in ([], ["--trace", str(tmp_path / "spans.tsv")]):
        result = tmp_path / "result.json"
        argv = [str(result), repr(time.monotonic()), *extra, "--",
                "build", "--circuit", str(circuit), "--out", str(tmp_path / "out")]
        assert child.main(argv) == 0
        _assert_restored(before)
        data = json.loads(result.read_text())
        assert data["exit_code"] == 0 and data["run_s"] > 0
        assert ("layers" in data) == bool(extra)
    assert data["layers"]["peps.build_peps.calls"] == 1
    assert data["layers"]["io.bytes_written"] > 0


def test_catalogue_matches_metrics_and_benchmark_json():
    spans = [Span(1, None, "linalg.apply_matrix", 0.0, 1.0, 0, 32)]
    traced = set(layer_metrics(spans))
    catalogue = set(run.per_layer_catalogue())
    assert traced <= catalogue
    assert catalogue - traced == {"cli.cpu_s", "cli.cpu_util", "tracing.overhead_s"}
    assert len(catalogue) <= 128
    assert {m.split(".")[0] for m in catalogue} >= set(WRAPPED)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        assert json.load(f) == run.benchmark_json()


def test_wrapper_returns_result_and_records_on_error():
    tracer = Tracer()

    def boom(x):
        raise ValueError(x)

    wrapped = tracer.wrap("t.boom", boom)
    assert tracer.wrap("t.id", lambda x: x)(np.float64(2.0)) == 2.0
    with pytest.raises(ValueError):
        wrapped(1)
    assert [s.name for s in tracer.spans] == ["t.id", "t.boom"]

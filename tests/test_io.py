"""File formats: binary vectors, CSV, JSON schemas, Matrix Market."""

import csv
import io as stdio
import json

import numpy as np
import pytest
import scipy.io
from hypothesis import given, settings
from hypothesis import strategies as st

from clockless.circuit import gate, layered
from clockless.hamiltonian import assemble, parent_spec
from clockless.io import (
    SchemaError,
    atomic_write_text,
    circuit_from_json,
    circuit_to_json,
    csv_text,
    fault_from_json,
    fmt_float,
    json_text,
    jsonable,
    read_json,
    spectral_report_dict,
    suite_rows,
    term_manifest,
    write_matrix_market,
    write_state_bin,
)
from clockless.soundness import run_suite
from clockless.peps import build_peps
from clockless.spectral import parent_spectrum
from oracles import read_state_bin


def test_fmt_float_17_digits():
    assert fmt_float(1.0 / 3.0) == "0.33333333333333331"
    assert fmt_float(0.5) == "0.5"


def test_state_bin_round_trip(tmp_path, rng):
    vec = rng.normal(size=8) + 1j * rng.normal(size=8)
    path = tmp_path / "v.bin"
    write_state_bin(path, vec)
    back = read_state_bin(path)
    assert np.array_equal(back, vec.astype(np.complex128))
    # interleaved little-endian float64 pairs
    raw = np.fromfile(path, dtype="<f8")
    assert raw.size == 16
    assert np.isclose(raw[0], vec[0].real) and np.isclose(raw[1], vec[0].imag)


def test_state_bin_rejects_odd_payload(tmp_path):
    path = tmp_path / "bad.bin"
    np.array([1.0, 2.0, 3.0], dtype="<f8").tofile(path)
    with pytest.raises(SchemaError):
        read_state_bin(path)


def test_csv_text_quoting():
    text = csv_text(("a", "b"), [(True, 'x,"y"'), (None, 1.5)])
    rows = list(csv.reader(stdio.StringIO(text)))
    assert rows[0] == ["a", "b"]
    assert rows[1] == ["true", 'x,"y"']
    assert rows[2] == ["", "1.5"]


def test_jsonable_coverage():
    out = jsonable(
        {
            "arr": np.arange(3),
            "z": 1 + 2j,
            "nan": float("nan"),
            "set": {3, 1, 2},
            "b": np.bool_(True),
        }
    )
    assert out["arr"] == [0, 1, 2]
    assert out["z"] == [1.0, 2.0]
    assert out["nan"] is None
    assert out["set"] == [1, 2, 3]
    assert out["b"] is True
    json.dumps(out)  # must be plain JSON


def test_json_text_is_sorted_and_newline_terminated():
    text = json_text({"b": 1, "a": 2})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')


def test_read_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n"key": }\n')
    with pytest.raises(SchemaError) as err:
        read_json(path)
    assert "line 2" in str(err.value)


def test_atomic_write_replaces_whole_file(tmp_path):
    path = tmp_path / "x.txt"
    atomic_write_text(path, "first")
    atomic_write_text(path, "second")
    assert path.read_text() == "second"
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".partial")]
    assert leftovers == []


def gates(c):
    """Every gate of a circuit, layer by layer."""
    return [g for layer in c.layers for g in layer]


def test_circuit_json_round_trip(hcnot):
    doc = circuit_to_json(hcnot)
    assert doc["version"] == 1
    back = circuit_from_json(doc)
    assert back.n == hcnot.n and back.a == hcnot.a
    assert [g.name for g in gates(back)] == [g.name for g in gates(hcnot)]


def test_circuit_json_custom_unitary_round_trip():
    mat = np.array([[1.0, 0.0], [0.0, 1j]])
    c = layered(1, 0, [[(mat, (0,))]])
    back = circuit_from_json(circuit_to_json(c))
    (g,) = gates(back)
    assert np.allclose(g.unitary, mat)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from(["I", "X", "Z", "H", "S", "T"]), min_size=1, max_size=4))
def test_circuit_json_round_trip_property(names):
    c = layered(2, 1, [[(name, (i % 2,))] for i, name in enumerate(names)])
    back = circuit_from_json(circuit_to_json(c))
    assert [g.name for g in gates(back)] == [g.name for g in gates(c)]
    for mine, theirs in zip(gates(c), gates(back)):
        assert np.allclose(mine.unitary, theirs.unitary)


@pytest.mark.parametrize("doc,needle", [
    ({"n": 1, "a": 0, "layers": []}, "version"),
    ({"version": 2, "n": 1, "a": 0, "layers": []}, "version"),
    ({"version": 1, "n": 1, "a": 0, "layers": [], "extra": 1}, "extra"),
    ({"version": 1, "a": 0, "layers": []}, "n"),
    ({"version": 1, "n": 1, "a": 0,
      "layers": [[{"gate": "H", "unitary": [], "wires": [0]}]]},
     "layers[0][0]"),
    ({"version": 1, "n": 1, "a": 0, "layers": [[{"wires": [0]}]]},
     "layers[0][0]"),
    ({"version": 1, "n": 1, "a": 0,
      "layers": [[{"gate": "H", "wires": [3]}]]}, "wires"),
])
def test_circuit_json_schema_errors(doc, needle):
    with pytest.raises(SchemaError) as err:
        circuit_from_json(doc)
    assert needle in str(err.value)


def test_fault_from_json():
    fault = fault_from_json({"inputs": [0], "layers": [[], [0, 1]]})
    assert fault.inputs == frozenset({0})
    assert fault.layers == (frozenset(), frozenset({0, 1}))
    # both fields are optional; unknown fields and bad types are not
    assert fault_from_json({"inputs": [0]}).layers == ()
    with pytest.raises(SchemaError):
        fault_from_json({"inputs": [0], "layers": [[]], "spurious": True})
    with pytest.raises(SchemaError):
        fault_from_json({"inputs": "0"})
    with pytest.raises(SchemaError):
        fault_from_json({"layers": [[-1]]})


def test_term_manifest_grid_terms(identity1):
    spec = parent_spec(identity1, 0.5)
    entries = term_manifest(spec.terms)
    assert len(entries) == 2
    for entry in entries:
        assert set(entry) == {"kind", "support", "grid_location", "norm"}
    assert entries[0]["kind"] == "input"
    assert entries[0]["grid_location"] == {"layer": 1, "wires": [0]}
    assert entries[0]["norm"] > 0.0


def test_term_manifest_clock_terms(hcnot):
    from clockless.circuit import degree_reduce
    from clockless.fk import build_modified_fk

    ham = build_modified_fk(degree_reduce(hcnot))
    entries = term_manifest(ham.terms)
    assert len(entries) == 11
    assert all("step" in e["grid_location"] for e in entries)


def test_matrix_market_round_trip(tmp_path, identity1, rng):
    op = assemble(parent_spec(identity1, 0.5))
    path = tmp_path / "h.mtx"
    write_matrix_market(path, op)
    head = path.read_text().splitlines()[0]
    assert "complex" in head and "hermitian" in head
    back = scipy.io.mmread(path)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    assert np.allclose(back @ v, op.apply(v), atol=1e-12)


def test_spectral_report_dict(identity1):
    report = parent_spectrum(
        parent_spec(identity1, 0.5), build_peps(identity1, 0.5), k=2
    )
    doc = spectral_report_dict(report)
    assert doc["method"] == "dense"
    assert doc["ground_dim"] == 1 and doc["ground_resolved"] is True
    assert "eigenvectors" not in doc
    json.dumps(doc)


def test_suite_rows_parse_as_csv():
    result = run_suite("union_bound", instances=3, seed=2)
    rows = suite_rows(result)
    text = csv_text(
        ("suite", "index", "lhs", "rhs", "slack", "holds", "parameters"), rows
    )
    parsed = list(csv.reader(stdio.StringIO(text)))
    assert len(parsed) == 4
    assert all(len(r) == 7 for r in parsed)
    # the parameters column is compact JSON, commas and all
    params = json.loads(parsed[1][6])
    assert isinstance(params, dict)

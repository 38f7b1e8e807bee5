"""Layered circuits, their totality invariant, and the wire-degree reduction."""

import numpy as np
import pytest

from clockless.circuit import (
    Gate,
    LayeredCircuit,
    NAMED_GATES,
    nontrivial_gates,
    apply_circuit,
    apply_layer,
    block_wire,
    degree_reduce,
    gate,
    input_state,
    layered,
    resolve_witness,
)
from clockless.cli import main
from clockless.io import json_text
from clockless.linalg import basis_state, product_state, random_state
from oracles import circuit_unitary


def test_named_gate_set():
    for name in ("I", "X", "Z", "H", "S", "T", "CNOT", "CZ", "SWAP", "CCZ"):
        assert name in NAMED_GATES
    with pytest.raises(ValueError):
        gate("TOFFOLI3", (0, 1, 2))


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate((0, 0), np.eye(4))
    with pytest.raises(ValueError):
        Gate((0,), np.array([[1.0, 0.0], [0.0, 1.1]]))  # not unitary
    with pytest.raises(ValueError):
        Gate((0,), np.eye(4))  # arity/shape mismatch
    g = gate("I", (3,))
    assert g.is_trivial
    assert not gate("H", (0,)).is_trivial
    # identity matrix under a different name is still trivial
    assert Gate((2,), np.eye(2), name=None).is_trivial
    # both checks are computed once per gate and cached
    h = gate("H", (0,))
    assert h.is_clifford and not h.is_trivial
    assert {"is_trivial", "is_clifford"} <= vars(h).keys()


def test_layered_pads_identities():
    # the layer's own gates first, then one identity per uncovered wire in
    # ascending wire order
    c = layered(4, 0, [[("CNOT", (3, 1))], [("H", (2,)), ("X", (0,))]])
    first = [(g.name, g.wires) for g in c.layers[0]]
    assert first == [("CNOT", (3, 1)), ("I", (0,)), ("I", (2,))]
    second = [(g.name, g.wires) for g in c.layers[1]]
    assert second == [("H", (2,)), ("X", (0,)), ("I", (1,)), ("I", (3,))]


@pytest.mark.parametrize(
    "layer, message",
    [
        (
            (gate("H", (0,)), gate("X", (0,))),
            "layer 0, wires (0,): wire 0 covered by two gates in one layer",
        ),
        (
            (gate("I", (1,)), gate("CNOT", (0, 1))),
            "layer 0, wires (0, 1): wire 1 covered by two gates in one layer",
        ),
        ((gate("H", (5,)),), "layer 0, wires (5,): wire 5 outside 0..1"),
        ((gate("CZ", (0, -1)),), "layer 0, wires (0, -1): wire -1 outside 0..1"),
    ],
    ids=["overlap", "overlap-two-wire-gate", "out-of-range", "negative"],
)
def test_construction_refuses_overlap_and_range(layer, message):
    with pytest.raises(ValueError) as info:
        LayeredCircuit(2, 2, (layer,))
    assert str(info.value) == message
    # a later layer is named by its own index
    with pytest.raises(ValueError, match="^layer 1, "):
        LayeredCircuit(2, 2, ((gate("H", (0,)),), layer))


def test_apply_circuit_matches_unitary(bell_circuit, rng):
    u = circuit_unitary(bell_circuit)
    v = (rng.normal(size=4) + 1j * rng.normal(size=4))
    v /= np.linalg.norm(v)
    assert np.allclose(apply_circuit(bell_circuit, v), u @ v)
    # the Bell circuit sends |00> to (|00> + |11>)/sqrt(2)
    out = apply_circuit(bell_circuit, basis_state(0, 2))
    assert np.allclose(out, np.array([1, 0, 0, 1]) / np.sqrt(2))


def test_apply_layer_composes(hcnot):
    u = np.eye(4)
    for i in range(hcnot.depth):
        u = apply_layer(hcnot, i, u)
    assert np.allclose(u, circuit_unitary(hcnot))
    with pytest.raises(IndexError):
        apply_layer(hcnot, 2, u)


def test_nontrivial_gate_order():
    c = layered(2, 0, [[("H", (1,)), ("X", (0,))], [("CNOT", (0, 1))]])
    names = [g.name for g in nontrivial_gates(c)]
    # within a layer, smallest wire first
    assert names == ["X", "H", "CNOT"]


def test_degree_reduce_fixture(hcnot):
    r = degree_reduce(hcnot)
    assert (r.n, r.a) == (4, 3)
    steps = [(g.name, g.wires) for g in nontrivial_gates(r)]
    assert steps == [
        ("H", (0,)),
        ("SWAP", (0, 1)),
        ("SWAP", (3, 2)),
        ("CNOT", (1, 2)),
    ]
    # the whole point: no wire meets more than 3 nontrivial gates
    per_wire = {w: 0 for w in range(r.n)}
    for g in nontrivial_gates(r):
        for w in g.wires:
            per_wire[w] += 1
    assert max(per_wire.values()) <= 3


def test_degree_reduce_noop_for_single_gate(hadamard1):
    assert degree_reduce(hadamard1) is hadamard1


def test_degree_reduce_preserves_computation(hcnot, rng):
    r = degree_reduce(hcnot)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    zero = basis_state(0, 1)
    # input enters on block 1 (original wire 0 -> label 0, wire 1 -> label 3)
    vin = product_state([(psi, (3, 0)), (zero, (1,)), (zero, (2,))], 4)
    out = apply_circuit(r, vin)
    expected_pair = apply_circuit(hcnot, psi)
    # result lands on block 2 (labels 1 and 2), blocks behind it hold |0>
    expected = product_state(
        [(expected_pair, (2, 1)), (zero, (0,)), (zero, (3,))], 4
    )
    assert np.allclose(out, expected, atol=1e-12)


def test_block_wire_labels():
    # n=2, a=1, two blocks: ancillas first, block-1 witness wires last
    assert block_wire(1, 0, 2, 1, 2) == 0
    assert block_wire(1, 1, 2, 1, 2) == 3
    assert block_wire(2, 0, 2, 1, 2) == 1
    assert block_wire(2, 1, 2, 1, 2) == 2
    with pytest.raises(ValueError):
        block_wire(3, 0, 2, 1, 2)


def test_overlapping_circuit_file_exits_2_at_layers(tmp_path, capsys):
    path = tmp_path / "overlap.json"
    path.write_text(json_text({
        "version": 1, "n": 2, "a": 2,
        "layers": [[{"gate": "H", "wires": [0]}, {"gate": "X", "wires": [0]}]],
    }))
    out = tmp_path / "out"
    assert main(["build", "--circuit", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: layer 0, wires (0,): wire 0 covered by two gates in one layer "
        "(at layers)\n"
    )
    assert not out.exists()


def test_rebuilding_from_layers_keeps_gate_order(hcnot):
    c = layered(3, 1, [[("H", (2,))], [("CNOT", (2, 0))], []])
    for circuit in (c, hcnot):
        # gates compare by identity: the same gate objects in the same order
        again = LayeredCircuit(circuit.n, circuit.a, circuit.layers)
        assert again.layers == circuit.layers


def test_input_state_matches_loop_reference(rng):
    c = layered(3, 1, [[("I", (w,)) for w in range(3)]])
    xi = random_state(2, rng)
    ref = np.zeros(8, dtype=np.complex128)
    for x in range(4):
        ref[x << c.a] = xi[x]
    assert np.array_equal(input_state(c, xi), ref)
    assert np.array_equal(input_state(c), basis_state(0, 3))
    with pytest.raises(ValueError, match="unit norm"):
        resolve_witness(c, 2 * xi)
    with pytest.raises(ValueError, match="dimension"):
        resolve_witness(c, basis_state(0, 3))


def test_named_gates_share_their_checked_matrix():
    # a named gate carries the one matrix checked at import; a matrix passed
    # in under a known name is still checked
    for name, mat in NAMED_GATES.items():
        k = len(mat).bit_length() - 1
        assert gate(name, range(k)).unitary is mat
        assert not mat.flags.writeable
    with pytest.raises(ValueError, match="not unitary"):
        Gate((0,), np.diag([1.0, 1.1]), name="I")
    with pytest.raises(ValueError, match="does not match 1 wires"):
        gate("CNOT", (0,))


@pytest.mark.parametrize("angle", [1e-6, 1e-9])
def test_near_identity_phase_gate_is_not_trivial(angle):
    # diag(1, e^{i angle}) passed the old allclose test (rtol 1e-5) at 1e-6,
    # so fk dropped it from its steps and the rotation skipped it
    from clockless.fk import build_modified_fk
    from clockless.rotation import RotationUnitary

    phase = np.diag([1.0, np.exp(1j * angle)])
    c = layered(1, 0, [[(phase, (0,))]])
    g = c.layers[0][0]
    assert not g.is_trivial
    assert nontrivial_gates(c) == [g]
    assert build_modified_fk(c).steps == (g,)
    v = random_state(3, np.random.default_rng(0))
    skipped = RotationUnitary(layered(1, 0, [[("I", (0,))]])).apply(v)
    assert np.abs(RotationUnitary(c).apply(v) - skipped).max() > angle / 100
    for trivial in (gate("I", (0,)), Gate((0,), np.eye(2)), Gate((0, 1), np.eye(4))):
        assert trivial.is_trivial

"""Rotated-frame closed forms for the grid Hamiltonian terms."""

from functools import reduce

import numpy as np
import pytest

from clockless import rotation
from clockless.circuit import gate, layered
from clockless.hamiltonian import input_term, parent_spec, propagation_term
from clockless.linalg import apply_matrix, bit_placement, embed_operator
from clockless.pauli import (
    bell_state,
    lambda_matrix,
    phi0,
    q_matrix,
    tag_words,
    word_matrix,
)
from clockless.peps import GridLayout
from clockless.rotation import (
    RotationUnitary,
    clifford_form,
    clifford_partners,
    last_layer_form,
    locality_residual,
    project_qubits,
    projected_bulk_form,
    projected_gap_check,
    rotate_term,
    teleport_coefficient,
    teleport_input,
    teleported_input_term,
)


def bulk_fixture(name, wires):
    """Two-wire depth-2 grid hosting one gate in the bulk (layer 1)."""
    return layered(2, 2, [[(name, wires)], [("I", (0,)), ("I", (1,))]])


def test_last_layer_form_matches_rotation(identity1):
    for delta in (0.2, 0.5):
        spec = parent_spec(identity1, delta)
        term = spec.terms[1]
        rotated = rotate_term(term, identity1)
        # the rotation drops the output leg of a last-layer term
        assert rotated.support == term.support[:2]
        residual = np.linalg.norm(rotated.block - last_layer_form(1, delta), 2)
        assert residual < 1e-10


@pytest.mark.parametrize("delta", [0.2, 0.5])
def test_last_layer_form_spectrum(delta):
    mat = last_layer_form(1, delta)
    eigs = np.sort(np.linalg.eigvalsh(mat))
    # one zero mode, the middle level at (1+3 delta^2)/4, two at 1
    expected = [0.0, (1.0 + 3.0 * delta**2) / 4.0, 1.0, 1.0]
    assert np.allclose(eigs, expected, atol=1e-12)
    # ground state is phi0
    v = phi0(delta)
    assert np.linalg.norm(mat @ v) < 1e-12


@pytest.mark.parametrize("name,wires", [
    ("H", (0,)),
    ("CNOT", (0, 1)),
    ("CNOT", (1, 0)),
    ("CZ", (0, 1)),
])
def test_clifford_bulk_closed_form(name, wires):
    c = bulk_fixture(name, wires)
    layout = GridLayout(2, 2)
    g = gate(name, wires)
    for delta in (0.2, 0.5):
        term = propagation_term(g, 1, delta, layout)
        rotated = rotate_term(term, c)
        residual = np.linalg.norm(
            rotated.block - clifford_form(g, delta, delta), 2
        )
        assert residual < 1e-10


def test_clifford_form_unequal_deltas():
    c = bulk_fixture("CNOT", (1, 0))
    layout = GridLayout(2, 2)
    g = gate("CNOT", (1, 0))
    term = propagation_term(g, 1, (0.3, 0.7), layout)
    rotated = rotate_term(term, c)
    residual = np.linalg.norm(rotated.block - clifford_form(g, 0.3, 0.7), 2)
    assert residual < 1e-10


def test_clifford_partners_cover_normalizer():
    g = gate("CNOT", (1, 0))
    pairs = clifford_partners(g)
    # 4^k row labels on each of (left, right), 4^k partners per row label
    rows = {}
    for row, col, phase in pairs:
        rows.setdefault(row, set()).add(col)
        assert abs(abs(phase) - 1.0) < 1e-12
    assert len(rows) == 4**4
    assert all(len(v) == 4**2 for v in rows.values())
    h = gate("T", (0,))
    with pytest.raises(ValueError, match="does not normalize the Pauli group"):
        clifford_partners(h)


def partners_loop_reference(g):
    """clifford_partners written as the plain scalar search over words."""
    k = g.arity
    u = g.unitary
    out = []
    for s_row in tag_words(k):
        for s_col in tag_words(k):
            conj = u.conj().T @ word_matrix(s_row) @ word_matrix(s_col) @ u
            for t_row in tag_words(k):
                mat = conj.T @ word_matrix(t_row)
                for t_col in tag_words(k):
                    mu = np.trace(word_matrix(t_col).T @ mat) / 2**k
                    if abs(abs(mu) - 1.0) < 1e-9:
                        break
                assert np.allclose(mat, mu * word_matrix(t_col))
                out.append(((t_row, s_row), (t_col, s_col), complex(mu)))
    return out


Y_MATRIX = np.array([[0.0, -1j], [1j, 0.0]])


@pytest.mark.parametrize("name,wires", [
    ("I", (0,)),
    ("X", (0,)),
    (Y_MATRIX, (0,)),
    ("Z", (0,)),
    ("H", (0,)),
    ("S", (0,)),
    ("CNOT", (0, 1)),
    ("CNOT", (1, 0)),
    ("CZ", (0, 1)),
    ("SWAP", (0, 1)),
])
def test_clifford_partners_match_loop_reference(name, wires):
    g = gate(name, wires)
    got = clifford_partners(g)
    want = partners_loop_reference(g)
    assert [(row, col) for row, col, _ in got] == [
        (row, col) for row, col, _ in want
    ]
    phases = np.array([mu for *_, mu in got])
    expected = np.array([mu for *_, mu in want])
    assert np.max(np.abs(phases - expected)) < 1e-12


def bulk_bell_vector_reference(left, right, wires):
    """One Bell product vector in bulk bit order, kron by kron."""
    order = sorted(range(len(wires)), key=lambda p: wires[p])
    factors = [
        np.kron(bell_state(right[p]), bell_state(left[p])) for p in order
    ]
    return reduce(np.kron, list(reversed(factors)))


@pytest.mark.parametrize("name,wires", [
    ("H", (0,)), ("S", (0,)), ("CNOT", (0, 1)), ("CNOT", (1, 0)),
])
def test_clifford_form_matches_outer_product_reference(name, wires):
    g = gate(name, wires)
    k = g.arity
    dl, dr = 0.3, 0.7
    hole = np.zeros((16**k, 16**k), dtype=np.complex128)
    for row, col, _ in clifford_partners(g):
        hole += np.outer(
            bulk_bell_vector_reference(*row, g.wires),
            bulk_bell_vector_reference(*col, g.wires).conj(),
        )
    per_wire = np.kron(lambda_matrix(dr), lambda_matrix(dl))
    dress = reduce(np.kron, [per_wire] * k)
    want = dress @ (np.eye(16**k) - hole / 4**k) @ dress
    assert np.max(np.abs(clifford_form(g, dl, dr) - want)) < 1e-13


def conjugated_block_loop_reference(term, circuit, support, samples=50, seed=0):
    """The rotated block and leakage residual, one column at a time."""
    rot = RotationUnitary(circuit)
    n = rot.num_qubits
    place = bit_placement(support)
    term_wires = tuple(reversed(term.support))

    def rotated(vec):
        w = apply_matrix(rot.apply(vec), term.block, term_wires, n)
        return rot.apply(w, adjoint=True)

    block = np.zeros((place.size, place.size), dtype=np.complex128)
    for i in range(place.size):
        vec = np.zeros(2**n, dtype=np.complex128)
        vec[place[i]] = 1.0
        block[:, i] = rotated(vec)[place]
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        r = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        r /= np.linalg.norm(r)
        rhs = apply_matrix(r, block, tuple(reversed(support)), n)
        worst = max(worst, float(np.linalg.norm(rotated(r) - rhs)))
    return block, worst


def widened(block, support, full):
    """A block on ``support`` as the operator it is on the superset ``full``."""
    pos = [full.index(q) for q in support]
    return embed_operator(block, tuple(reversed(pos)), len(full))


BATCH_FIXTURES = {
    "cnot_bulk": layered(2, 2, [[("CNOT", (1, 0))], [("I", (0,)), ("I", (1,))]]),
    "t_bulk": layered(2, 2, [[("T", (0,)), ("I", (1,))], [("CZ", (0, 1))]]),
}


@pytest.mark.parametrize("name", sorted(BATCH_FIXTURES))
def test_batched_extraction_matches_column_loop(name):
    c = BATCH_FIXTURES[name]
    spec = parent_spec(c, (0.3, 0.6))
    layout = spec.layout
    for term in spec.terms:
        if term.kind != "propagation" or term.layer != 1:
            continue
        rows = {q // layout.columns for q in term.support}
        full = tuple(sorted(
            set(term.support) | {layout.output_qubit(r) for r in rows}
        ))
        block, residual = conjugated_block_loop_reference(term, c, full)
        assert residual < 1e-12
        rotated = rotate_term(term, c)
        assert set(rotated.support) <= set(full)
        got = widened(rotated.block, rotated.support, full)
        assert np.max(np.abs(got - block)) < 1e-13
        _, own = conjugated_block_loop_reference(term, c, term.support)
        assert abs(locality_residual(term, c) - own) < 1e-13


def test_chunked_extraction_matches_unchunked(monkeypatch):
    c = BATCH_FIXTURES["t_bulk"]
    term = propagation_term(gate("T", (0,)), 1, 0.5, GridLayout(2, 2))
    whole = rotate_term(term, c)
    whole_residual = locality_residual(term, c)
    calls = []
    apply = RotationUnitary.apply

    def counting(self, vec, adjoint=False):
        calls.append(vec.shape[1])
        return apply(self, vec, adjoint=adjoint)

    # 20 columns of the 10-qubit grid per chunk: 52 chunks for the 2^10
    # extraction columns and 3 for the 50 random states
    monkeypatch.setattr(rotation, "_BATCH_BYTES", 20 * 16 * 2**10)
    monkeypatch.setattr(RotationUnitary, "apply", counting)
    chunked = rotate_term(term, c)
    assert len(calls) >= 6 and max(calls) == 20
    calls.clear()
    chunked_residual = locality_residual(term, c)
    # one chunk for the 2^4 columns of the term's own support, three for
    # the random states, each a forward and an adjoint rotation
    assert len(calls) == 2 * (1 + 3)
    assert chunked.support == whole.support
    assert np.max(np.abs(chunked.block - whole.block)) < 1e-13
    assert abs(chunked_residual - whole_residual) < 1e-13


def test_projected_bulk_form(identity1):
    c = bulk_fixture("CNOT", (0, 1))
    layout = GridLayout(2, 2)
    g = gate("CNOT", (0, 1))
    delta = 0.5
    term = propagation_term(g, 1, delta, layout)
    rotated = rotate_term(term, c)
    # project both right pairs onto their single-pair ground state
    right = layout.site_qubits(2, 0) + layout.site_qubits(2, 1)
    local = np.kron(phi0(delta), phi0(delta))
    reduced, rest = project_qubits(rotated.block, rotated.support, right, local)
    assert rest == layout.site_qubits(1, 0) + layout.site_qubits(1, 1)
    residual = np.linalg.norm(reduced - projected_bulk_form(2, delta, delta), 2)
    assert residual < 1e-10


@pytest.mark.parametrize("delta", [0.2, 0.3, 0.5, 0.7, 1.0])
def test_projected_gap_k1_exact(delta):
    gap, floor, holds = projected_gap_check(1, delta)
    assert np.isclose(gap, delta**2, atol=1e-12)
    assert np.isclose(floor, 15.0 * delta**8)
    assert holds == (delta**2 >= 15.0 * delta**8 - 1e-15)


def test_projected_gap_k2_flag():
    # the 15 delta^8 floor is a diagnostic: it holds at small delta and
    # fails by delta = 0.5
    _, _, holds_03 = projected_gap_check(2, 0.3)
    assert holds_03
    gap, floor, holds_05 = projected_gap_check(2, 0.5)
    assert not holds_05
    assert gap < floor


def test_teleport_coefficient_values():
    assert np.isclose(teleport_coefficient(0.5), 4.0 / 7.0)
    assert np.isclose(teleport_coefficient(1.0), 1.0)
    for delta in (0.2, 0.5):
        assert np.isclose(
            teleport_coefficient(delta),
            4.0 * delta**2 / (1.0 + 3.0 * delta**2),
        )


def test_teleported_input_term(identity1):
    layout = GridLayout(1, 1)
    for delta in (0.2, 0.5):
        term = input_term(0, delta, layout)
        funneled = teleported_input_term(term, delta)
        assert funneled.kind == "input"
        # coefficient sits in the block: top-left entry is
        # teleport_coefficient * <0| (1 - |0><0|) |0> = 0, and the |1><1|
        # weight is the coefficient itself
        assert np.isclose(
            funneled.block[1, 1].real, teleport_coefficient(delta), atol=1e-10
        )
    with pytest.raises(ValueError):
        teleported_input_term(term, 0.9)  # wrong delta must not verify


def test_teleport_input_measures_attenuation():
    layout = GridLayout(1, 1)
    for delta in (0.2, 0.5, 0.8):
        term = input_term(0, delta, layout)
        funneled, attenuation, deviation = teleport_input(term, delta)
        assert abs(attenuation - teleport_coefficient(delta)) < 1e-13
        assert deviation < 1e-13
        same = teleported_input_term(term, delta)
        assert np.array_equal(funneled.block, same.block)


def test_t_gate_rotation_spreads():
    c = layered(2, 2, [[("T", (0,)), ("I", (1,))], [("CZ", (0, 1))]])
    layout = GridLayout(2, 2)
    t_term = propagation_term(gate("T", (0,)), 1, 0.5, layout)
    residual = locality_residual(t_term, c)
    assert residual > 1e-3
    # frozen for regression; value measured from the dense rotation
    assert np.isclose(residual, 0.24135225711125646, atol=1e-12)
    h_term = propagation_term(gate("H", (0,)), 1, 0.5, layout)
    c2 = bulk_fixture("H", (0,))
    assert locality_residual(h_term, c2) < 1e-12


def test_rotate_term_rejects_leaky_support():
    c = layered(2, 2, [[("T", (0,)), ("I", (1,))], [("CZ", (0, 1))]])
    layout = GridLayout(2, 2)
    t_term = propagation_term(gate("T", (0,)), 1, 0.5, layout)
    with pytest.raises(ValueError):
        rotate_term(t_term, c, extraction_support=t_term.support)


def test_project_qubits_shape_check():
    mat = np.eye(4)
    with pytest.raises(ValueError):
        project_qubits(mat, (0, 1), (1,), np.ones(4))


def test_input_term_undressing_identity():
    # q_matrix conjugation inside teleported_input_term must recover the
    # bare |1><1| check: verify through the public path with both deltas
    layout = GridLayout(1, 1)
    term = input_term(0, 0.4, layout)
    funneled = teleported_input_term(term, 0.4)
    bare = np.diag([0.0, 1.0])
    assert np.allclose(
        funneled.block, teleport_coefficient(0.4) * bare, atol=1e-10
    )

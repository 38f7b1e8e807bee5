"""Rotated-frame closed forms for the grid Hamiltonian terms."""

import itertools
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from clockless import rotation
from clockless.circuit import NAMED_GATES, gate, layered
from clockless.hamiltonian import (
    DressedTerm, input_term, parent_spec, propagation_term,
)
from clockless.limits import dense_bytes
from clockless.linalg import apply_matrix, bit_placement
from clockless.pauli import (
    bell_basis_matrix,
    lambda_matrix,
    phi0,
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
)
from clockless.verify import named_fixtures, verify_checks
from oracles import (
    SCALED_BELL_BASIS, bell_state, dense_clifford_form, trim_trivial_qubits,
    wire_cone,
)


def bulk_fixture(name, wires):
    """Two-wire depth-2 grid hosting one gate in the bulk (layer 1)."""
    return layered(2, 2, [[(name, wires)], [("I", (0,)), ("I", (1,))]])


def test_rotation_adjoint_undoes_apply(rng):
    # T and a random matrix gate are not symmetric, so a missing conjugate
    # or transpose in the precomputed adjoint factors shows here.
    u = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    c = layered(2, 1, [[("T", (1,))], [(u, (0, 1))]])
    rot = RotationUnitary(c)
    n = rot.num_qubits
    vec = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    assert np.allclose(rot.apply(rot.apply(vec), adjoint=True), vec, atol=1e-12)
    assert np.allclose(rot.apply(rot.apply(vec, adjoint=True)), vec, atol=1e-12)
    # every rotation shares the one read-only site correction
    corrections = [mat for mat, _ in rot._ops if mat.shape == (8, 8)]
    assert corrections and all(m is rotation._SITE_CORRECTION for m in corrections)
    assert not rotation._SITE_CORRECTION.flags.writeable


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


def partner_entries(g):
    """``clifford_partners`` as ((left row word, right row word), (left
    column word, right column word)) pairings over s_row, then s_col, then
    t_row, each in ``tag_words`` order."""
    t_col = clifford_partners(g)
    words = tag_words(g.arity)
    return [
        ((words[t], words[r]), (words[t_col[r, c, t]], words[c]))
        for r, c, t in np.ndindex(t_col.shape)
    ]


def test_clifford_partners_cover_normalizer():
    g = gate("CNOT", (1, 0))
    assert clifford_partners(g).shape == (16, 16, 16)
    # 4^k row labels on each of (left, right), 4^k partners per row label
    rows = {}
    for row, col in partner_entries(g):
        rows.setdefault(row, set()).add(col)
    assert len(rows) == 4**4
    assert all(len(v) == 4**2 for v in rows.values())
    h = gate("T", (0,))
    with pytest.raises(ValueError, match="does not normalize the Pauli group"):
        clifford_partners(h)


def partners_loop_reference(g):
    """clifford_partners written as the plain scalar search over words:
    the one word t_col that the product is a unit phase times."""
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
                out.append(((t_row, s_row), (t_col, s_col)))
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
    assert partner_entries(g) == partners_loop_reference(g)


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
    for row, col in partner_entries(g):
        hole += np.outer(
            bulk_bell_vector_reference(*row, g.wires),
            bulk_bell_vector_reference(*col, g.wires).conj(),
        )
    per_wire = np.kron(lambda_matrix(dr), lambda_matrix(dl))
    dress = reduce(np.kron, [per_wire] * k)
    want = dress @ (np.eye(16**k) - hole / 4**k) @ dress
    assert np.max(np.abs(clifford_form(g, dl, dr) - want)) < 1e-13


def wire_orders(name):
    """Every order of a named gate's wires over 0..k-1."""
    k = len(NAMED_GATES[name]).bit_length() - 1
    return list(itertools.permutations(range(k)))


CLIFFORD_GATES = [
    (name, wires)
    for name in NAMED_GATES
    for wires in wire_orders(name)
    if gate(name, wires).is_clifford
]


def test_the_oracle_bell_basis_is_the_package_one():
    assert np.max(np.abs(SCALED_BELL_BASIS / np.sqrt(2) - bell_basis_matrix())) < 1e-15


@pytest.mark.parametrize("name,wires", CLIFFORD_GATES)
def test_clifford_form_matches_the_dense_oracle(name, wires):
    g = gate(name, wires)
    for dl, dr in [(0.5, 0.5), (0.3, 0.7), (0.2, 0.9), (0.9, 0.2)]:
        got = clifford_form(g, dl, dr)
        assert np.max(np.abs(got - dense_clifford_form(g, dl, dr))) < 1e-15


@pytest.mark.parametrize("name,wires", [("T", (0,)), ("CCZ", (0, 1, 2))])
def test_clifford_form_refuses_a_non_normalizing_gate(name, wires):
    with pytest.raises(ValueError, match="does not normalize the Pauli group"):
        clifford_form(gate(name, wires), 0.5, 0.5)


def test_clifford_form_of_cnot_holds_no_dense_bell_product():
    # the 256 x 256 form itself is 0.5 MiB of float64; a dense Bell product
    # basis and its products with the pairing (5.2 MiB traced) stay unbuilt
    g = gate("CNOT", (1, 0))
    clifford_form(g, 0.3, 0.7)  # word tables and caches built outside the trace
    tracemalloc.start()
    try:
        clifford_form(g, 0.3, 0.7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def conjugated_block_loop_reference(term, circuit, support, samples=50, seed=0):
    """The rotated block and leakage residual, one column at a time, with
    the full grid's rotation.

    The random states are drawn on the wire cone of ``support`` and lifted
    onto the grid with every other qubit at 0, where the rotated term acts
    as the identity; a cone too small to hold the rotated term shows as
    leakage off it."""
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
    cone = bit_placement(wire_cone(circuit, support).qubits)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        r = rng.normal(size=cone.size) + 1j * rng.normal(size=cone.size)
        lifted = np.zeros(2**n, dtype=np.complex128)
        lifted[cone] = r / np.linalg.norm(r)
        rhs = apply_matrix(lifted, block, tuple(reversed(support)), n)
        worst = max(worst, float(np.linalg.norm(rotated(lifted) - rhs)))
    return block, worst


def rows_support(term, layout):
    """The term's support widened by the output qubits of its rows."""
    rows = {q // layout.columns for q in term.support}
    return tuple(sorted(set(term.support) | {layout.output_qubit(r) for r in rows}))


BATCH_FIXTURES = {
    "cnot_bulk": layered(2, 2, [[("CNOT", (1, 0))], [("I", (0,)), ("I", (1,))]]),
    "t_bulk": layered(2, 2, [[("T", (0,)), ("I", (1,))], [("CZ", (0, 1))]]),
}


@pytest.mark.parametrize("name", sorted(BATCH_FIXTURES))
def test_batched_extraction_matches_column_loop(name):
    # each bulk term on its support widened by its rows' output qubits, on
    # which even the spreading T term acts within rounding
    c = BATCH_FIXTURES[name]
    spec = parent_spec(c, (0.3, 0.6))
    for term in spec.terms:
        if term.kind != "propagation" or term.layer != 1:
            continue
        full = rows_support(term, spec.layout)
        want, want_residual = conjugated_block_loop_reference(term, c, full)
        assert want_residual < 1e-12
        block, residual = rotation._conjugated_block(term, wire_cone(c, full), full)
        assert np.max(np.abs(block - want)) < 1e-13
        assert abs(residual - want_residual) < 1e-13
        _, own = conjugated_block_loop_reference(term, c, term.support)
        assert abs(locality_residual(term, c) - own) < 1e-13


def test_factored_blocks_match_column_loop():
    # every propagation and input term of the verify fixtures at a
    # non-uniform schedule, on its support widened by its rows' outputs:
    # the superset support that teleport_input extracts on, where the hole
    # can have more columns than the block
    wider = 0
    for name, c in named_fixtures():
        spec = parent_spec(c, (0.3, 0.6)[: c.depth])
        for term in spec.terms:
            if term.kind not in ("propagation", "input"):
                continue
            support = rows_support(term, spec.layout)
            cone = wire_cone(c, support)
            factor_columns = term.kernel_factor.shape[1] << (
                cone.num_qubits - term.locality
            )
            wider += factor_columns > 2 ** len(support)
            block, residual = rotation._conjugated_block(term, cone, support)
            want, want_residual = conjugated_block_loop_reference(term, c, support)
            assert np.abs(block - want).max() <= 1e-13, (name, str(term))
            assert abs(residual - want_residual) <= 1e-13, (name, str(term))
    assert wider


def _localized(c, term):
    """Whether the rotated term stays on its own support: a last-layer
    term, or a bulk term of a Pauli-normalizing gate."""
    gates = {
        (layer, tuple(g.wires)): g
        for layer, gates in enumerate(c.layers, start=1)
        for g in gates
    }
    return term.kind == "propagation" and (
        term.layer == c.depth or gates[(term.layer, term.wires)].is_clifford
    )


def test_cone_extraction_matches_the_full_grid():
    # every input and propagation term of the verify fixtures at a
    # non-uniform schedule, extracted on its own support's light cone,
    # against the column loop over the full grid's rotation
    sizes, localized = [], 0
    for name, c in named_fixtures():
        spec = parent_spec(c, (0.3, 0.6)[: c.depth])
        for term in spec.terms:
            cone = wire_cone(c, term.support)
            sizes.append(cone.num_qubits)
            block, residual = rotation._conjugated_block(term, cone, term.support)
            want, want_residual = conjugated_block_loop_reference(
                term, c, term.support
            )
            assert np.abs(block - want).max() <= 1e-13, (name, str(term))
            assert abs(residual - want_residual) <= 1e-13, (name, str(term))
            if _localized(c, term):
                assert residual < 1e-12, (name, str(term))
                localized += 1
    # the cones of the 13 rotated terms on 10-qubit grids: 8 of 5 qubits,
    # 2 of 8 and 3 of the whole grid; each input term's cone is 3 qubits,
    # as are both 3-qubit grids
    assert sorted(sizes) == [3] * 12 + [5] * 8 + [8] * 2 + [10] * 3
    assert localized == 14


def test_a_cone_short_of_one_factor_is_refused(monkeypatch):
    # with the innermost factor of every cone dropped, the one next to the
    # term in U† T U and the first the walk keeps, each localized term's
    # rotation is not its block on its pairs and the identity on the rest
    # of the cone, so the leakage check refuses it
    cone = rotation._cone

    def short(kept, reach):
        return cone(kept[1:], reach)

    checked = 0
    for name, c in named_fixtures():
        spec = parent_spec(c, (0.3, 0.6)[: c.depth])
        for term in spec.terms:
            if not _localized(c, term):
                continue
            with monkeypatch.context() as patch:
                patch.setattr(rotation, "_cone", short)
                with pytest.raises(ValueError, match="leakage"):
                    rotate_term(term, c)
            checked += 1
    assert checked == 14


# The pinned 14-qubit circuit of perfbench/inputs/c14.json, and the 18-qubit
# c18: C14 with one more layer, a CNOT from wire 1 to wire 0.
C14_LAYERS = [
    [("H", (0,)), ("T", (1,))], [("CNOT", (0, 1))], [("S", (0,)), ("H", (1,))]
]
C14 = layered(2, 1, C14_LAYERS)
C18 = layered(2, 1, C14_LAYERS + [[("CNOT", (1, 0))]])
WALK_SCHEDULE = (0.3, 0.6, 0.45, 0.7)


def pair_qubits(term):
    """The qubits of the pairs ``term`` dresses, ascending."""
    return tuple(sorted(q for pair, _ in term.pairs for q in pair))


def _walked(term, c, patch):
    """``rotate_term(term, c)`` and the light-cone size and support of each
    extraction it made."""
    cones = []
    extract = rotation._conjugated_block

    def recording(term, cone, support):
        cones.append((cone.num_qubits, tuple(support)))
        return extract(term, cone, support)

    patch.setattr(rotation, "_conjugated_block", recording)
    return rotate_term(term, c), cones


def test_the_walk_lands_on_the_wire_cone_block(monkeypatch):
    # every localized term of the verify fixtures and of C14 at a non-uniform
    # schedule: the walk stops in one extraction, on a cone no wider than
    # the wire cone, with the support and, within 1e-13, the block that the
    # wire cone's extraction on the term's support trims to
    checked = 0
    for name, c in named_fixtures() + [("C14", C14)]:
        spec = parent_spec(c, WALK_SCHEDULE[: c.depth])
        for term in spec.terms:
            if not _localized(c, term):
                continue
            want, residual = conjugated_block_loop_reference(term, c, term.support)
            assert residual < 1e-12, (name, str(term))
            want, want_support = trim_trivial_qubits(want, term.support)
            with monkeypatch.context() as patch:
                got, cones = _walked(term, c, patch)
            assert len(cones) == 1, (name, str(term))
            assert cones[0][0] <= wire_cone(c, term.support).num_qubits
            assert got.support == want_support, (name, str(term))
            assert np.abs(got.block - want).max() <= 1e-13, (name, str(term))
            checked += 1
    # the 14 of the fixtures, then C14's H, CNOT, S and H
    assert checked == 18


def test_decided_cones_are_pinned(monkeypatch):
    # the cone each localized term's walk stops on, in term order: last-layer
    # terms stop at their own layer's corrections, bulk terms of
    # Pauli-normalizing gates at the next layer in; each is extracted once,
    # on its sorted pair qubits
    cones = {}
    for name, c in named_fixtures() + [("C14", C14), ("c18", C18)]:
        spec = parent_spec(c, WALK_SCHEDULE[: c.depth])
        for term in spec.terms:
            if _localized(c, term):
                with monkeypatch.context() as patch:
                    _, walked = _walked(term, c, patch)
                assert [s for _, s in walked] == [pair_qubits(term)], (name, str(term))
                cones.setdefault(name, []).extend(n for n, _ in walked)
    assert cones == {
        "identity1": [3],
        "hadamard": [3],
        "identity2": [5, 5, 3, 3],
        "bell": [5, 5, 6],
        "cnot_bulk": [10, 3, 3],
        "t_bulk": [5, 6],
        "C14": [5, 10, 3, 3],
        "c18": [5, 10, 5, 5, 6],
    }


# The wider circuits of the verify --circuit runs: c22 is c18 with a fifth
# layer, c21w3 has three wires, w2t4 has T in layer 4 of 5, and w1t9 has T
# in layer 9 of 10 on one wire; a CCZ alone is a last-layer term on 9 qubits.
WIDE_CIRCUITS = {
    "c22": layered(2, 1, C14_LAYERS + [[("CNOT", (1, 0))], [("T", (0,)), ("H", (1,))]]),
    "c21w3": layered(3, 1, [
        [("H", (0,)), ("T", (1,)), ("H", (2,))],
        [("CNOT", (0, 1)), ("S", (2,))],
        [("T", (0,)), ("CNOT", (2, 1))],
    ]),
    "w2t4": layered(2, 1, [
        [("CNOT", (0, 1))], [("H", (0,)), ("S", (1,))], [("CNOT", (0, 1))],
        [("T", (0,)), ("H", (1,))], [("CNOT", (0, 1))],
    ]),
    "w1t9": layered(1, 0, [[("H", (0,))]] * 8 + [[("T", (0,))], [("H", (0,))]]),
    "ccz": layered(3, 0, [[("CCZ", (0, 1, 2))]]),
}


def random_circuit(rng):
    """1-3 wires, depth 1-4, each layer filled with named gates on random
    disjoint wires."""
    n = int(rng.integers(1, 4))
    layers = []
    for _ in range(int(rng.integers(1, 5))):
        free, layer = [int(w) for w in rng.permutation(n)], []
        while free:
            k = int(rng.integers(1, len(free) + 1))
            names = [g for g in NAMED_GATES if len(NAMED_GATES[g]) == 2**k]
            layer.append((names[rng.integers(len(names))], tuple(free[:k])))
            free = free[k:]
        layers.append(layer)
    return layered(n, int(rng.integers(0, n + 1)), layers)


def test_every_first_stop_pushes_fewer_columns_than_its_block():
    # walks only: every gate term's first stop holds its m pair qubits and
    # its k wires' output qubits, so the r·2^(N-kv) columns of its kernel
    # factor pushed through the cone are 2^(m-k), fewer than the 2^m basis
    # columns of its block on its pairs
    rng = np.random.default_rng(5)
    circuits = named_fixtures() + [("C14", C14), ("c18", C18)]
    circuits += list(WIDE_CIRCUITS.items())
    circuits += [(f"random {i}", random_circuit(rng)) for i in range(40)]
    checked = 0
    for name, c in circuits:
        rot = RotationUnitary(c)
        for term in parent_spec(c, 0.5).terms:
            if term.kind == "input":
                continue
            cone, _ = rot.walk(term.support)
            m, k = len(pair_qubits(term)), len(term.wires)
            assert cone.num_qubits == m + k, (name, str(term))
            hole = term.basis.shape[1] << (cone.num_qubits - len(term.inner))
            assert hole == 2 ** (m - k), (name, str(term))
            checked += 1
    # 59 gate terms of the named circuits and 162 of the random draws
    assert checked == 221


# One wire whose T terms stop nowhere else in the circuits above: a
# non-Pauli-normalizing bulk gate past layer 1, whose first stop is short of
# its wire cone, and one in the last layer.
T_TAIL = layered(1, 1, [[("I", (0,))], [("T", (0,))], [("T", (0,))]])


def test_the_budget_checks_the_cone_verify_extracts_on(monkeypatch, pin_cpus):
    # each gate term of the verify fixtures, C14, c18 and T_TAIL: the cone
    # that require_cones budgets is the cone of the one extraction verify
    # makes for the term, its first stop. One CPU keeps each case in this
    # process.
    pin_cpus(1)
    checked = 0
    circuits = [("C14", C14), ("c18", C18), ("t_tail", T_TAIL)]
    for name, c in named_fixtures() + circuits:
        budgeted, made = [], []
        with monkeypatch.context() as patch:
            patch.setattr(
                rotation, "_require_extraction",
                lambda term, m, cone: budgeted.append(cone.num_qubits),
            )
            rotation.require_cones(c)
        extract = rotation._conjugated_block

        def recording(term, cone, support):
            if term.kind != "input":
                made.append(((term.layer, term.wires), cone.num_qubits))
            return extract(term, cone, support)

        with monkeypatch.context() as patch:
            patch.setattr(rotation, "_conjugated_block", recording)
            verify_checks([(name, c)], (0.3,), 1e-10)
        gate_terms = [
            (term.layer, term.wires)
            for term in parent_spec(c, 1.0).terms
            if term.kind != "input"
        ]
        assert list(zip(gate_terms, budgeted)) == made, name
        checked += len(budgeted)
    # 15 gate terms in the fixtures, 5 in C14, 6 in c18 and 3 in T_TAIL
    assert checked == 29
    # the middle T of T_TAIL is sampled on its 5-qubit first stop, not on
    # its 7-qubit wire cone
    assert budgeted == [5, 5, 3]
    assert wire_cone(T_TAIL, parent_spec(T_TAIL, 1.0).terms[2].support).num_qubits == 7


def test_a_term_the_walk_leaves_on_the_output_is_refused(monkeypatch):
    # |1><1| on the output qubit of a two-layer identity wire, dressed on the
    # last pair: the last layer's correction keeps it on the output qubit,
    # off its pair, so its one extraction, on its pair on the walk's first
    # stop, is refused for leakage
    c = layered(1, 1, [[("I", (0,))]] * 2)
    term = DressedTerm("input", 2, (0,), (((2, 3), 0.5),), (4,), [[1.0], [0.0]])
    with monkeypatch.context() as patch:
        supports = _counting_extractions(patch)
        with pytest.raises(ValueError, match=r"not supported on \(2, 3\): leakage"):
            rotate_term(term, c)
    assert supports == [(2, 3)]
    _, unwalked = RotationUnitary(c).walk(term.support)
    assert unwalked == {0, 1, 4}


def test_a_term_whose_pairs_the_walk_leaves_is_refused(monkeypatch):
    # |1><1| on the output qubit of a three-layer identity wire, dressed on
    # the first pair: the walk stops before layer 2, which would widen the
    # cone, so layer 1's correction, which acts on the pair, is unwalked and
    # the term is refused before it is extracted
    c = layered(1, 1, [[("I", (0,))]] * 3)
    term = DressedTerm("input", 1, (0,), (((0, 1), 0.5),), (6,), [[1.0], [0.0]])
    with monkeypatch.context() as patch:
        supports = _counting_extractions(patch)
        with pytest.raises(ValueError, match=r"unwalked factors act on \[0, 1\]"):
            rotate_term(term, c)
    assert supports == []
    _, unwalked = RotationUnitary(c).walk(term.support)
    assert unwalked == {0, 1, 2, 3, 6}


def test_a_leaky_term_is_refused_at_its_stop(monkeypatch):
    # a T term in the middle of three layers spreads onto the output column:
    # it fails the leakage check on the walk's first stop, before layer 1
    c = layered(1, 1, [[("I", (0,))], [("T", (0,))], [("I", (0,))]])
    term = propagation_term(gate("T", (0,)), 2, 0.5, GridLayout(1, 3))
    with monkeypatch.context() as patch:
        supports = _counting_extractions(patch)
        with pytest.raises(ValueError, match="leakage"):
            rotate_term(term, c)
    assert supports == [term.support]


def test_extraction_holds_about_one_block():
    # the CNOT bulk term rotates onto its own 8 qubits, so no 2^10 x 2^10
    # block of the 10-qubit grid is built: the 2^8 x 2^8 block, its hole and
    # the leakage check stay below half of one
    c = BATCH_FIXTURES["cnot_bulk"]
    term = propagation_term(gate("CNOT", (1, 0)), 1, 0.5, GridLayout(2, 2))
    term.block
    rotation._check_states(10)
    tracemalloc.start()
    try:
        rotated = rotate_term(term, c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rotated.locality == 8
    assert peak < dense_bytes(10) / 2


@pytest.mark.parametrize("name", ["cnot_bulk", "ccz_last_layer"])
def test_extraction_peak_stays_within_its_estimate(monkeypatch, name):
    # what _conjugated_block allocates beyond its inputs, with the check
    # states drawn inside, does not exceed what _require_extraction charges:
    # cnot_bulk's CNOT bulk term on its 10-qubit cone, and a CCZ last-layer
    # term, 9 qubits on a 9-qubit cone
    if name == "cnot_bulk":
        c = BATCH_FIXTURES["cnot_bulk"]
        term = propagation_term(gate("CNOT", (1, 0)), 1, 0.5, GridLayout(2, 2))
    else:
        c = layered(3, 0, [[("CCZ", (0, 1, 2))]])
        term = propagation_term(gate("CCZ", (0, 1, 2)), 1, 0.5, GridLayout(3, 1))
    cone, _ = RotationUnitary(c).walk(term.support)
    assert (cone.num_qubits, term.locality) == {
        "cnot_bulk": (10, 8), "ccz_last_layer": (9, 9)
    }[name]
    estimates = []
    monkeypatch.setattr(
        rotation, "require", lambda what, n, nbytes: estimates.append(nbytes)
    )
    term.block, term.kernel_factor
    rotation._check_states.cache_clear()
    tracemalloc.start()
    try:
        rotation._conjugated_block(term, cone, term.support)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    (estimate,) = estimates
    assert peak <= estimate


def test_check_states_are_drawn_once():
    states = rotation._check_states(4)
    assert rotation._check_states(4) is states
    assert not states.flags.writeable
    assert states.shape == (16, 50)
    rng = np.random.default_rng(0)
    for j in range(50):
        r = rng.normal(size=16) + 1j * rng.normal(size=16)
        assert np.array_equal(states[:, j], r / np.linalg.norm(r))


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
        funneled, _, deviation = teleport_input(term, delta)
        assert funneled.kind == "input" and deviation < 1e-13
        # coefficient sits in the block: top-left entry is
        # teleport_coefficient * <0| (1 - |0><0|) |0> = 0, and the |1><1|
        # weight is the coefficient itself
        assert np.isclose(
            funneled.block[1, 1].real, teleport_coefficient(delta), atol=1e-10
        )
    with pytest.raises(ValueError, match="dressed at 0.9"):
        teleport_input(term, 0.9)  # wrong delta must not verify


def test_teleport_input_measures_attenuation():
    layout = GridLayout(1, 1)
    for delta in (0.2, 0.5, 0.8):
        term = input_term(0, delta, layout)
        funneled, attenuation, deviation = teleport_input(term, delta)
        assert abs(attenuation - teleport_coefficient(delta)) < 1e-13
        assert deviation < 1e-13


def test_t_gate_rotation_spreads():
    c = layered(2, 2, [[("T", (0,)), ("I", (1,))], [("CZ", (0, 1))]])
    layout = GridLayout(2, 2)
    t_term = propagation_term(gate("T", (0,)), 1, 0.5, layout)
    residual = locality_residual(t_term, c)
    assert residual > 1e-3
    # frozen for regression; value measured from the dense column-loop
    # rotation with its 50 states on the term's 5-qubit light cone
    assert np.isclose(residual, 0.3198564130167615, atol=1e-12)
    h_term = propagation_term(gate("H", (0,)), 1, 0.5, layout)
    c2 = bulk_fixture("H", (0,))
    assert locality_residual(h_term, c2) < 1e-12


def _counting_extractions(patch):
    """Record the support of every ``_conjugated_block`` call."""
    supports = []
    extract = rotation._conjugated_block

    def counting(term, cone, support):
        supports.append(tuple(support))
        return extract(term, cone, support)

    patch.setattr(rotation, "_conjugated_block", counting)
    return supports


def test_rotate_term_rejects_leaky_support(monkeypatch):
    # t_bulk's T term spreads onto the output column, so its one extraction,
    # on its own support, leaks past the tolerance and is refused
    c = BATCH_FIXTURES["t_bulk"]
    t_term = propagation_term(gate("T", (0,)), 1, 0.5, GridLayout(2, 2))
    supports = _counting_extractions(monkeypatch)
    with pytest.raises(ValueError, match="leakage"):
        rotate_term(t_term, c)
    assert supports == [t_term.support]


def _widened_reference(term, c):
    """The rotated term extracted on its support widened by its rows'
    output qubits, then trimmed."""
    support = rows_support(term, GridLayout(c.n, c.depth))
    block, residual = rotation._conjugated_block(term, wire_cone(c, support), support)
    assert residual < 1e-9
    return trim_trivial_qubits(block, support)


def test_localized_terms_rotate_on_their_own_support(monkeypatch):
    # every last-layer term and every Pauli-normalizing bulk term of the
    # verify fixtures rotates onto its own pairs, extracted once there, and
    # lands on the widened-then-trimmed block
    checked = 0
    for name, c in named_fixtures():
        spec = parent_spec(c, (0.3, 0.6)[: c.depth])
        for term in spec.terms:
            if not _localized(c, term):
                continue
            want, want_support = _widened_reference(term, c)
            with monkeypatch.context() as patch:
                supports = _counting_extractions(patch)
                got = rotate_term(term, c)
            assert supports == [pair_qubits(term)], (name, str(term))
            assert got.support == want_support, (name, str(term))
            assert np.abs(got.block - want).max() <= 1e-13, (name, str(term))
            checked += 1
    # 8 last-layer terms and the 6 bulk H, CNOT and I terms
    assert checked == 14


def test_project_qubits_shape_check():
    mat = np.eye(4)
    with pytest.raises(ValueError):
        project_qubits(mat, (0, 1), (1,), np.ones(4))


def test_input_term_undressing_identity():
    # the teleported check is the bare |1><1| attenuated by the
    # coefficient, through the public path
    layout = GridLayout(1, 1)
    term = input_term(0, 0.4, layout)
    funneled, _, _ = teleport_input(term, 0.4)
    bare = np.diag([0.0, 1.0])
    assert np.allclose(
        funneled.block, teleport_coefficient(0.4) * bare, atol=1e-10
    )

"""Parent Hamiltonian terms: frustration, spectra, and assembly."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from clockless import hamiltonian
from clockless.circuit import Gate, degree_reduce, gate, layered
from clockless.fk import build_modified_fk
from clockless.hamiltonian import (
    DressedTerm,
    HamiltonianSpec,
    LocalTerm,
    SparseOperator,
    assemble,
    energy,
    input_term,
    parent_spec,
    propagation_term,
    term_energy,
)
from clockless.linalg import (
    apply_matrix,
    basis_state,
    bit_placement,
    random_projector,
    random_state,
    random_unitary,
)
from clockless.pauli import lambda_matrix, word_matrix
from clockless.peps import GridLayout, build_peps, choi_factor
from clockless.rotation import rotate_term, teleport_input
from clockless.spectral import dense_spectrum
from clockless.verify import named_fixtures
from oracles import embed_operator, is_psd


def _output_term(row: int, layout: GridLayout) -> DressedTerm:
    """A bare |0><0| on one output-column qubit: no pairs, ``K`` = |1>."""
    qubit = layout.output_qubit(row)
    return DressedTerm("output", layout.depth, (row,), (), (qubit,), [[0.0], [1.0]])


def _checked_input(delta, layout, check):
    """An input term on wires (0, 1) that penalizes leaving the range of the
    projector ``check``: ``K`` spans the range of ``I - check``."""
    vals, vecs = np.linalg.eigh(np.eye(len(check)) - check)
    pairs = [(layout.site_qubits(1, w), delta) for w in (0, 1)]
    inputs = [layout.input_qubit(w) for w in (0, 1)]
    return DressedTerm("input", 1, (0, 1), pairs, inputs, vecs[:, vals > 0.5])


def test_term_validation():
    with pytest.raises(ValueError):
        LocalTerm("mystery", (0,), np.eye(2), 1, (0,))
    with pytest.raises(ValueError):
        LocalTerm("output", (1, 0), np.eye(4), 1, (0,))
    with pytest.raises(ValueError):
        LocalTerm("output", (0,), np.array([[0.0, 1.0], [0.0, 0.0]]), 1, (0,))
    # a non-finite block is not Hermitian: the eigensolvers and factors of
    # spectral take the terms as checked here
    for bad in (np.nan, np.inf):
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match="Hermitian"):
                LocalTerm("output", (0,), np.diag([bad, 1.0]), 1, (0,))
    t = _output_term(0, GridLayout(1, 1))
    assert t.locality == 1
    assert "output" in str(t)


def test_propagation_term_is_psd_and_local(hcnot):
    layout = GridLayout(2, 2)
    g = gate("CNOT", (0, 1))
    t = propagation_term(g, 1, 0.5, layout)
    assert t.kind == "propagation"
    assert is_psd(t.block, tol=1e-10)
    # bulk two-wire gate touches both rows' pairs at layers 1 and 2
    assert t.support == (0, 1, 2, 3, 5, 6, 7, 8)
    last = propagation_term(g, 2, 0.5, layout)
    assert last.support == (2, 3, 4, 7, 8, 9)
    with pytest.raises(ValueError):
        propagation_term(g, 3, 0.5, layout)


def test_input_term_defaults():
    layout = GridLayout(1, 1)
    t = input_term(0, 0.5, layout)
    assert t.kind == "input" and t.wires == (0,)
    assert t.support == (0, 1) and t.inner == (0,)
    assert t.basis.tolist() == [[1.0], [0.0]]
    assert is_psd(t.block)


def test_parent_spec_identity_example(identity1):
    spec = parent_spec(identity1, 0.5)
    assert spec.layout.num_qubits == 3
    assert len(spec.terms) == 2
    assert [t.kind for t in spec.terms] == ["input", "propagation"]


def test_parent_spec_term_order(bell_circuit):
    spec = parent_spec(bell_circuit, 0.5)
    kinds = [t.kind for t in spec.terms]
    assert kinds == ["input", "input", "propagation", "propagation",
                     "propagation"]
    layers = [t.layer for t in spec.terms if t.kind == "propagation"]
    assert layers == [1, 1, 2]


def test_frustration_freeness(bell_circuit):
    for delta in (0.2, 0.8):
        spec = parent_spec(bell_circuit, delta)
        state = build_peps(bell_circuit, delta)
        report = energy(spec, state.amplitudes)
        assert report.total < 1e-12
        assert max(report.per_term) < 1e-12


def test_ground_space_and_gap(identity1):
    spec = parent_spec(identity1, 0.5)
    dense = assemble(spec).to_sparse().toarray()
    eigs = dense_spectrum(dense, vectors=1).lowest_eigenvalues
    assert abs(eigs[0]) < 1e-12 < eigs[1]
    # frozen from this construction at delta = 1/2 (dense oracle)
    assert abs(eigs[1] - eigs[0] - 0.2805992406584801) < 1e-12
    state = build_peps(identity1, 0.5)
    ground = scipy.linalg.eigh(dense)[1][:, 0]
    fid = abs(np.vdot(ground, state.amplitudes)) ** 2
    assert fid >= 1.0 - 1e-12


def test_gap_is_one_at_unit_delta(identity1):
    spec = parent_spec(identity1, 1.0)
    eigs = dense_spectrum(assemble(spec).to_sparse().toarray(), vectors=1).lowest_eigenvalues
    assert abs(eigs[1] - eigs[0] - 1.0) < 1e-12


def test_sparse_operator_agrees_with_dense(bell_circuit, rng):
    spec = parent_spec(bell_circuit, 0.3)
    op = assemble(spec)
    dense = op.to_sparse().toarray()
    v = rng.normal(size=dense.shape[0]) + 1j * rng.normal(size=dense.shape[0])
    assert np.allclose(op.apply(v), dense @ v, atol=1e-10)
    sp = op.to_sparse()
    assert np.allclose(sp @ v, dense @ v, atol=1e-10)


@pytest.mark.parametrize("name", ["t_bulk", "cnot_bulk", "ccz_last"])
def test_assemble_builds_every_block_within_its_estimate(monkeypatch, name):
    # two matrices per term and three more of the largest bound what the
    # blocks and their construction hold: 0.82 of the estimate on t_bulk
    # (6 qubits), 0.64 on cnot_bulk (8) and 0.61 on a CCZ last-layer term
    # (9), with 4 KiB of slack for bookkeeping
    fixtures = dict(named_fixtures())
    fixtures["ccz_last"] = layered(3, 1, [[("CCZ", (0, 1, 2))]])
    spec = parent_spec(fixtures[name], 0.5)
    estimates = []
    monkeypatch.setattr(
        hamiltonian, "require", lambda what, n, nbytes: estimates.append(nbytes)
    )
    tracemalloc.start()
    try:
        assemble(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    (estimate,) = estimates
    assert peak <= estimate + 4096
    # every block is built and cached, so no later apply builds one
    assert all("block" in vars(t) for t in spec.terms)


def concatenated_csr_reference(op):
    """``to_sparse`` as the per-term coordinate pieces, joined, compressed."""
    rows, cols, vals = [], [], []
    for t in op.terms:
        free = [q for q in range(op.num_qubits) if q not in set(t.support)]
        loc_place, free_place = bit_placement(t.support), bit_placement(free)
        i_loc, j_loc = np.nonzero(t.block)
        v = t.block[i_loc, j_loc]
        rows.append((loc_place[i_loc][:, None] + free_place[None, :]).ravel())
        cols.append((loc_place[j_loc][:, None] + free_place[None, :]).ravel())
        vals.append(np.broadcast_to(v[:, None], (v.size, free_place.size)).ravel())
    return scipy.sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(op.dim, op.dim),
    ).tocsr()


def test_to_sparse_matches_the_concatenated_build(hcnot):
    # every verify fixture's parent at a non-uniform schedule, its rotated
    # dense terms and a clock Hamiltonian: the same CSR, array for array
    ops = []
    for _, c in named_fixtures():
        spec = parent_spec(c, (0.3, 0.6)[: c.depth])
        ops.append(assemble(spec))
        rotated = tuple(t for t in spec.terms if t.kind == "input") + tuple(
            rotate_term(t, c) for t in spec.terms
            if t.kind == "propagation" and t.layer == c.depth
        )
        ops.append(SparseOperator(spec.layout.num_qubits, rotated))
    ops.append(build_modified_fk(hcnot).operator())
    for op in ops:
        got, want = op.to_sparse(), concatenated_csr_reference(op)
        for name in ("indptr", "indices", "data"):
            assert getattr(got, name).dtype == getattr(want, name).dtype
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_term_energy_matches_expectation(identity1, rng):
    spec = parent_spec(identity1, 0.5)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    v /= np.linalg.norm(v)
    total = sum(term_energy(t, v, 3) for t in spec.terms)
    dense = assemble(spec).to_sparse().toarray()
    assert np.isclose(total, np.vdot(v, dense @ v).real, atol=1e-10)


def test_term_energy_rejects_bad_vectors_and_wires():
    term = input_term(0, 0.5, GridLayout(1, 1))
    with pytest.raises(ValueError, match="does not fit a vector of shape"):
        term_energy(term, np.ones(3), 2)
    # A dense term's block acts through apply_matrix, which checks the
    # vector's length and the wires' range; terms cannot be built with a
    # repeated support, and the contraction still refuses repeated wires.
    block = np.diag([1.0, 0.0])
    with pytest.raises(ValueError, match="state length"):
        apply_matrix(np.ones(3), block, (1,), 2)
    with pytest.raises(ValueError, match="out of range"):
        apply_matrix(basis_state(0, 3), block, (5,), 3)
    with pytest.raises(ValueError, match="distinct"):
        apply_matrix(basis_state(0, 3), np.eye(4), (1, 1), 3)


def test_spec_rejects_oversized_terms():
    layout = GridLayout(1, 1)
    stray = LocalTerm("output", (5,), np.diag([1.0, 0.0]), 1, (0,))
    with pytest.raises(ValueError):
        HamiltonianSpec(layout, (stray,))


def _embed(op, qubits, support):
    return embed_operator(op, [support.index(q) for q in qubits], len(support))


def _dense_dressing(proj, pairs, support):
    """The former dressing: one dense embedding per pair, two dense products."""
    dress = np.eye(2 ** len(support), dtype=np.complex128)
    for (lo, hi), delta in pairs:
        dress = dress @ _embed(lambda_matrix(delta), (hi, lo), support)
    block = dress @ proj @ dress
    return 0.5 * (block + block.conj().T)


DRESSING_DELTAS = [0.1, 0.5, 1.0, (0.3, 0.8)]


@pytest.mark.parametrize("deltas", DRESSING_DELTAS, ids=str)
def test_propagation_dressing_matches_dense_products(deltas):
    layout = GridLayout(2, 2)
    schedule = (deltas,) * 2 if np.isscalar(deltas) else deltas
    haar = Gate((1, 0), random_unitary(4, np.random.default_rng(3)), "haar")
    for g in (gate("H", (1,)), gate("CNOT", (0, 1)), haar):
        for layer in (1, 2):
            term = propagation_term(g, layer, schedule, layout)
            pairs = [
                (layout.site_qubits(l, w), schedule[l - 1])
                for l in range(layer, min(layer + 1, layout.depth) + 1)
                for w in g.wires
            ]
            vec, vec_qubits = choi_factor(g, layer, layout)
            proj = np.eye(2**term.locality) - _embed(
                np.outer(vec, vec.conj()), vec_qubits, term.support
            )
            oracle = _dense_dressing(proj, pairs, term.support)
            assert np.max(np.abs(term.block - oracle)) <= 1e-14


@pytest.mark.parametrize("delta", [0.1, 0.5, 1.0, 0.3], ids=str)
def test_input_and_stabilizer_dressing_match_dense_products(delta):
    layout = GridLayout(2, 1)
    pairs = [(layout.site_qubits(1, w), delta) for w in (0, 1)]
    support = tuple(sorted(q for pair, _ in pairs for q in pair))
    inputs = [layout.input_qubit(w) for w in (0, 1)]
    check = random_projector(4, 2, np.random.default_rng(5))
    term = _checked_input(delta, layout, check)
    oracle = _dense_dressing(_embed(check, inputs, support), pairs, support)
    assert np.max(np.abs(term.block - oracle)) <= 1e-14
    # a stabilizer check: the -1 eigenspace of a Pauli involution
    word = -word_matrix(("X", "Z"))
    stab = _checked_input(delta, layout, 0.5 * (np.eye(4) - word))
    proj = 0.5 * (np.eye(2 ** len(support)) - _embed(word, inputs, support))
    oracle = _dense_dressing(proj, pairs, support)
    assert np.max(np.abs(stab.block - oracle)) <= 1e-14


def test_sparse_apply_is_bitwise_the_copy_loop(bell_circuit):
    spec = parent_spec(bell_circuit, 0.4)
    outputs = tuple(_output_term(row, spec.layout) for row in (0, 1))
    op = assemble(HamiltonianSpec(spec.layout, spec.terms + outputs))
    vec = random_state(op.num_qubits, np.random.default_rng(11))
    old = np.zeros(op.dim, dtype=np.complex128)
    for t in op.terms:
        old += apply_matrix(vec, t.block, tuple(reversed(t.support)), op.num_qubits)
    assert op.apply(vec).tobytes() == old.tobytes()


def _every_kind(layout, schedule, rng):
    """Terms of every kind and shape on a 2-wire grid at a delta schedule."""
    haar = Gate((1, 0), random_unitary(4, rng), "haar")
    terms = [
        propagation_term(g, layer, schedule, layout)
        for g in (gate("H", (1,)), gate("CNOT", (0, 1)), haar)
        for layer in range(1, layout.depth + 1)
    ]
    terms.append(input_term(0, schedule[0], layout))
    check = random_projector(4, 2, rng)
    terms.append(_checked_input(schedule[0], layout, check))
    terms.append(_output_term(1, layout))
    return terms


@pytest.mark.parametrize("deltas", DRESSING_DELTAS, ids=str)
def test_factored_energy_matches_block_expectation(deltas):
    layout = GridLayout(2, 2)
    schedule = (deltas,) * 2 if np.isscalar(deltas) else deltas
    rng = np.random.default_rng(23)
    n = layout.num_qubits
    terms = _every_kind(layout, schedule, rng)
    assert {t.kind for t in terms} == {"propagation", "input", "output"}
    assert {t.locality for t in terms} == {1, 2, 3, 4, 6, 8}
    for term in terms:
        wires = tuple(reversed(term.support))
        for _ in range(3):
            v = random_state(n, rng)
            reference = np.vdot(v, apply_matrix(v, term.block, wires, n)).real
            assert abs(term_energy(term, v, n) - reference) <= 1e-13


def test_output_block_is_exact_and_blocks_are_cached():
    layout = GridLayout(2, 1)
    out = _output_term(0, layout)
    assert out.block.tolist() == [[1.0, 0.0], [0.0, 0.0]]
    term = propagation_term(gate("CNOT", (0, 1)), 1, 0.5, layout)
    assert term.block is term.block
    assert not term.block.flags.writeable


def test_dressed_term_rejects_bad_factors():
    one = np.array([[0.0], [1.0]])
    with pytest.raises(ValueError, match="unknown term kind"):
        DressedTerm("mystery", 1, (0,), (), (3,), one)
    with pytest.raises(ValueError, match="orthonormal"):
        DressedTerm("output", 1, (0,), (), (3,), 2 * one)
    for bad in (np.nan, np.inf):
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match="orthonormal"):
                DressedTerm("output", 1, (0,), (), (3,), [[bad], [1.0]])
    with pytest.raises(ValueError, match="does not match"):
        DressedTerm("output", 1, (0,), (), (3, 4), one)
    with pytest.raises(ValueError, match="pairs"):
        DressedTerm("input", 1, (0,), [((0, 2), 0.5)], (0,), one)
    with pytest.raises(ValueError, match="pairs"):
        DressedTerm("input", 1, (0,), [((0, 1), 0.5), ((1, 2), 0.5)], (0,), one)
    term = DressedTerm("input", 1, (0,), [((4, 5), 0.5)], (4,), one)
    assert term.support == (4, 5)


def test_parent_energy_forms_no_term_block():
    # A bulk CNOT term covers 8 qubits: its block alone would be 1 MiB.
    c = layered(2, 1, [[("CNOT", (0, 1))], [("H", (0,)), ("T", (1,))]])
    state = build_peps(c, 0.5)
    energy(parent_spec(c, 0.5), state.amplitudes)
    tracemalloc.start()
    try:
        spec = parent_spec(c, 0.5)
        report = energy(spec, state.amplitudes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert max(t.locality for t in spec.terms) == 8
    assert report.total < 1e-12
    assert peak < 256 * 1024


def _grid_terms(c):
    """The parent's terms plus, built here, a two-wire input term with a
    random projector check and a bare output term per row."""
    spec = parent_spec(c, 0.4)
    check = random_projector(4, 2, np.random.default_rng(7))
    extra = (_checked_input(0.4, spec.layout, check),)
    extra += tuple(_output_term(row, spec.layout) for row in (0, 1))
    return spec.terms + extra, spec.layout.num_qubits


def _rotated_terms(c):
    terms, n = _grid_terms(c)
    return [rotate_term(t, c) for t in terms if t.kind == "propagation"], n


def _teleported_terms(c):
    terms, _ = _grid_terms(c)
    funneled, _, _ = teleport_input(terms[0], 0.4)
    return [funneled], GridLayout(len(funneled.wires), 1).num_qubits


def _clock_terms(c):
    ham = build_modified_fk(degree_reduce(c))
    return ham.terms, ham.num_qubits


# Every producer of terms, with the kinds it makes and whether they name
# circuit wires (clock terms do not).
TERM_PRODUCERS = {
    "parent_spec": (
        _grid_terms, {"input", "propagation", "output"}, True
    ),
    "rotate_term": (_rotated_terms, {"propagation"}, True),
    "teleport_input": (_teleported_terms, {"input"}, True),
    "build_modified_fk": (
        _clock_terms, {"input", "propagation", "clock", "output"}, False
    ),
}


@pytest.mark.parametrize("producer", sorted(TERM_PRODUCERS))
def test_every_term_offers_the_protocol(producer, hcnot):
    build, kinds, named = TERM_PRODUCERS[producer]
    terms, n = build(hcnot)
    rng = np.random.default_rng(31)
    assert {t.kind for t in terms} == kinds
    for term in terms:
        assert isinstance(term.layer, int) and term.layer >= 1
        assert isinstance(term.wires, tuple) and bool(term.wires) == named
        assert term.support == tuple(sorted(set(term.support)))
        assert term.locality == len(term.support) and term.support[-1] < n
        assert term.block.shape == (2**term.locality,) * 2
        assert not term.block.flags.writeable
        wires = tuple(reversed(term.support))
        for _ in range(3):
            v = random_state(n, rng)
            reference = np.vdot(v, apply_matrix(v, term.block, wires, n)).real
            if isinstance(term, DressedTerm):
                got = term_energy(term, v, n)
            else:  # a dense term's energy is read off a vector's entries
                got = term.sparse_energy(np.arange(v.size), v, n)
            assert abs(got - reference) <= 1e-13

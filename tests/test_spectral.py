"""Eigensolvers, the gap bookkeeping, and projector inequalities."""

import dataclasses
import logging

import numpy as np
import pytest
import scipy.sparse
from scipy.sparse.linalg import LinearOperator

from clockless.circuit import layered
from clockless import spectral
from clockless.cli import main
from clockless.hamiltonian import (
    HamiltonianSpec, LocalTerm, SparseOperator, assemble, parent_spec,
)
from clockless.io import write_circuit_json
from clockless.linalg import embed_operator, random_projector, random_state
from clockless.pauli import pauli_matrix
from clockless.peps import build_peps
from clockless.spectral import (
    GROUND_CUTOFF,
    ConvergenceError,
    dense_spectrum,
    detectability_check,
    gap_vs_bound,
    geometric_bound,
    ground_state,
    jordan_angles,
    low_spectrum,
    parent_spectrum,
    union_bound_check,
)
from clockless.verify import named_fixtures

P0 = np.diag([1.0, 0.0])
P1 = np.diag([0.0, 1.0])


def test_dense_spectrum_on_diagonal():
    op = np.diag([0.0, 0.0, 0.3, 1.0])
    report = dense_spectrum(op, vectors=2)
    assert report.method == "dense"
    assert report.ground_dim == 2
    assert np.isclose(report.gap, 0.3)
    assert report.eigenvectors.shape == (4, 2)
    assert np.allclose(report.lowest_eigenvalues[:2], [0.0, 0.0], atol=1e-12)


def test_gap_invisible_when_all_ground():
    # every returned eigenvalue at zero: no excited level in view
    report = dense_spectrum(np.zeros((4, 4)))
    assert np.isnan(report.gap)


def test_low_spectrum_matches_dense(identity1):
    op = assemble(parent_spec(identity1, 0.5))
    dense = dense_spectrum(op)
    low = low_spectrum(op, k=4, seed=3)
    assert low.method == "iterative"
    assert np.allclose(
        low.lowest_eigenvalues[:4], dense.lowest_eigenvalues[:4], atol=1e-8
    )
    assert low.ground_dim == dense.ground_dim == 1
    assert abs(low.gap - dense.gap) < 1e-8
    assert max(low.residuals) < 1e-8


def test_low_spectrum_deterministic(identity1):
    op = assemble(parent_spec(identity1, 0.3))
    a = low_spectrum(op, k=3, seed=9)
    b = low_spectrum(op, k=3, seed=9)
    assert np.array_equal(a.lowest_eigenvalues, b.lowest_eigenvalues)


def test_low_spectrum_input_forms_agree():
    # 6 qubits, a doubly degenerate zero-energy ground space
    op = assemble(parent_spec(layered(2, 1, [[("CNOT", (0, 1))]]), 0.4))
    dense = dense_spectrum(op).lowest_eigenvalues[:4]
    for form in (op, op.to_sparse(), op.dense()):
        report = low_spectrum(form, k=4, seed=2)
        assert np.allclose(report.lowest_eigenvalues, dense, atol=1e-10)
        assert report.ground_dim == 2


def test_low_spectrum_finds_exact_zero():
    # scipy's ARPACK drops a Ritz value of exactly 0.0 unless it is shifted
    report = low_spectrum(np.diag(np.arange(64.0)), k=4)
    assert np.allclose(report.lowest_eigenvalues, [0.0, 1.0, 2.0, 3.0], atol=1e-10)
    assert report.ground_dim == 1 and report.ground_resolved


def test_low_spectrum_flags_unresolved_ground():
    report = low_spectrum(np.diag(np.r_[0.0, 0.0, np.arange(1.0, 63.0)]), k=2)
    assert report.ground_dim == 2
    assert not report.ground_resolved and np.isnan(report.gap)


def test_low_spectrum_rejects_k_before_solving():
    def refuse(v):
        raise AssertionError("the operator was applied")

    op = LinearOperator((8, 8), matvec=refuse, dtype=complex)
    for k in (0, 7, 8):
        with pytest.raises(ValueError):
            low_spectrum(op, k=k)


def test_low_spectrum_budget_exhausted(hcnot):
    op = assemble(parent_spec(hcnot, 0.5))
    with pytest.raises(ConvergenceError) as err:
        low_spectrum(op, k=4, max_iter=1)
    assert err.value.iterations >= 1


# Lowest six eigenvalues of the parent of the circuit below at delta 0.5
# (14 grid qubits): a doubly degenerate ground space under two doubly
# degenerate excited levels.
C14_LOWEST = [
    -1.1416597369608145e-14,
    -1.9409872310173644e-15,
    0.04204917382750499,
    0.04204917382751365,
    0.0464300458332436,
    0.04643004583325062,
]


def test_low_spectrum_keeps_degenerate_copies():
    c = layered(2, 1, [
        [("H", (0,)), ("T", (1,))],
        [("CNOT", (0, 1))],
        [("S", (0,)), ("H", (1,))],
    ])
    # The start vector of seed 10 once lost the second copy of both
    # excited levels and reported 0.0601 and 0.0615 in their place.
    report = low_spectrum(assemble(parent_spec(c, 0.5)), k=6, tol=1e-9, seed=10)
    assert report.ground_dim == 2
    assert np.allclose(report.lowest_eigenvalues, C14_LOWEST, atol=1e-8)


def test_gap_vs_bound_identity(identity1):
    gap, product = gap_vs_bound(identity1, 0.5)
    assert gap > 0.0
    # one layer of 2-local terms: the weight product is delta^8
    assert np.isclose(product, 0.5**8)
    assert gap >= product


def test_gap_monotone_in_delta(identity1):
    gaps = [gap_vs_bound(identity1, d)[0] for d in (0.2, 0.35, 0.5, 0.65, 0.8)]
    assert all(b > a for a, b in zip(gaps, gaps[1:]))
    assert abs(gaps[2] - 0.2805992406584801) < 1e-12


def test_detectability_check_commuting_family(rng):
    # disjoint-wire projectors commute; g can be anything positive
    q1 = embed_operator(P1, (0,), 2)
    q2 = embed_operator(P1, (1,), 2)
    state = random_state(2, rng)
    lhs, rhs, holds = detectability_check([q1, q2], 1.0, state)
    assert holds
    assert lhs <= rhs + 1e-12


def test_union_bound_check(rng):
    q1 = embed_operator(P0, (0,), 2)
    q2 = embed_operator(P0, (1,), 2)
    state = random_state(2, rng)
    lhs, rhs, holds = union_bound_check([q1, q2], state)
    assert holds
    # on an exact ground state the sweep keeps everything
    ground = np.zeros(4, dtype=complex)
    ground[3] = 1.0
    lhs, rhs, holds = union_bound_check([q1, q2], ground)
    assert np.isclose(lhs, 1.0) and holds


def test_jordan_angles_known_pair():
    theta = 0.3
    c, s = np.cos(theta), np.sin(theta)
    p1 = np.array([[1.0, 0.0], [0.0, 0.0]])
    v = np.array([c, s])
    p2 = np.outer(v, v)
    dec = jordan_angles(p1, p2)
    assert np.isclose(dec.cosines.max(), c, atol=1e-12)
    assert dec.max_residual < 1e-10
    assert np.allclose(dec.reconstruct("left"), p1, atol=1e-10)
    assert np.allclose(dec.reconstruct("right"), p2, atol=1e-10)


def test_jordan_blocks_invariant(rng):
    p1 = random_projector(8, 3, rng)
    p2 = random_projector(8, 4, rng)
    dec = jordan_angles(p1, p2)
    assert dec.max_residual < 1e-9
    assert np.allclose(dec.reconstruct("left"), p1, atol=1e-9)
    assert all(b.dim in (1, 2) for b in dec.blocks)


def test_geometric_bound_angle_pair():
    theta = 0.4
    c, s = np.cos(theta), np.sin(theta)
    a = np.eye(2) - np.array([[1.0, 0.0], [0.0, 0.0]])
    v = np.array([c, s])
    b = np.eye(2) - np.outer(v, v)
    out = geometric_bound(a, b)
    assert out.holds
    assert out.min_eig >= out.bound - 1e-12
    assert np.isclose(out.gamma, 1.0)
    with pytest.raises(ValueError):
        geometric_bound(a, np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_geometric_bound_nested_kernels():
    # kernel of A contains kernel of B: theta degenerates to zero
    a = np.diag([0.0, 0.0, 1.0])
    b = np.diag([0.0, 1.0, 1.0])
    out = geometric_bound(a, b)
    assert out.theta == 0.0
    assert out.bound == 0.0
    assert out.holds


@pytest.mark.parametrize("name,layers", [
    ("cnot_bulk", [[("CNOT", (1, 0))], [("I", (0,)), ("I", (1,))]]),
    ("t_bulk", [[("T", (0,)), ("I", (1,))], [("CZ", (0, 1))]]),
    ("identity2", [[("I", (0,)), ("I", (1,))]] * 2),
])
def test_dense_spectrum_lowest_matches_full(name, layers):
    # ground_state (inertia count, inverse iteration) against the full
    # dense spectrum; t_bulk is complex, the other two are factored as real
    c = layered(2, 2, layers)
    for delta in (0.2, 0.5):
        op = assemble(parent_spec(c, delta))
        full = dense_spectrum(op)
        part = ground_state(op)
        assert part.vector.shape == (op.dim,)
        assert np.iscomplexobj(part.vector) == (name == "t_bulk")
        assert abs(part.energy - full.lowest_eigenvalues[0]) < 1e-12
        assert part.ground_dim == full.ground_dim == 1
        assert part.residual <= 1e-12 and part.solves <= 3
        assert full.ground_resolved
        overlap = np.vdot(part.vector, full.eigenvectors[:, 0])
        assert abs(abs(overlap) - 1.0) < 1e-10


def test_dense_spectrum_lowest_flags_degenerate_ground(hcnot):
    # one data wire (a < n): the ground space holds one state per witness
    op = assemble(parent_spec(hcnot, 0.5))
    full = dense_spectrum(op)
    assert full.ground_dim == 2 and full.ground_resolved
    part = ground_state(op)
    assert part.ground_dim == 2 and part.vector is None
    assert np.isnan(part.energy) and np.isnan(part.residual) and part.solves == 0
    lifted = ground_state(op.dense() + np.eye(op.dim))
    assert lifted.ground_dim == 0 and lifted.vector is None
    with pytest.raises(ValueError):
        ground_state(op.dense()[:, 1:])


def _hermitian_with(eigs, rng, complex_):
    dim = len(eigs)
    z = rng.standard_normal((dim, dim))
    if complex_:
        z = z + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(z)
    mat = (q * eigs) @ q.conj().T
    return (mat + mat.conj().T) / 2, q


@pytest.mark.parametrize("complex_", [False, True])
def test_ground_state_counts_random_spectra_exactly(rng, complex_):
    # eigenvalues on both sides of the cutoff, two within 1e-10 of it; a
    # single level below it (k = 1) is the vector test's case
    below = [-2.0, -1e-3, 0.0, 1e-12, GROUND_CUTOFF - 1e-10]
    above = [GROUND_CUTOFF + 1e-10, 1e-6, 0.3, 1.0, 4.0]
    for k in (0, 2, 3, 4, 5):
        eigs = np.r_[below[:k], above, np.linspace(1.5, 3.0, 20)]
        mat, _ = _hermitian_with(eigs, rng, complex_)
        found = ground_state(mat)
        assert found.ground_dim == k and found.vector is None


@pytest.mark.parametrize("complex_", [False, True])
def test_ground_state_vector_of_a_random_spectrum(rng, complex_):
    # a frustration-free-like spectrum: one near-zero level under a gap
    eigs = np.r_[1e-13, np.linspace(1e-3, 2.0, 31)]
    mat, q = _hermitian_with(eigs, rng, complex_)
    found = ground_state(mat)
    assert found.ground_dim == 1 and found.residual <= 1e-12
    assert abs(found.energy - 1e-13) < 1e-12
    assert abs(abs(np.vdot(found.vector, q[:, 0])) - 1.0) < 1e-10


def test_ground_state_counts_two_by_two_pivots():
    # a zero diagonal forces Bunch-Kaufman into 2x2 pivots: each block
    # [[0, s], [s*, 0]] holds one eigenvalue -|s| below the cutoff
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert ground_state(np.kron(np.eye(2), swap)).ground_dim == 2
    blocks = np.kron(np.diag([1.0, 2.0, 3.0]), [[0.0, 1j], [-1j, 0.0]])
    perm = np.random.default_rng(5).permutation(6)
    assert ground_state(blocks[np.ix_(perm, perm)]).ground_dim == 3
    lifted = np.kron(np.eye(4), swap) + 2.0 * np.eye(8)
    assert ground_state(lifted).ground_dim == 0


def test_ground_state_refuses_a_level_just_above_the_cutoff(rng):
    # 1.01e-9 sits 100 times nearer the shift than the ground level 0, so
    # inverse iteration settles on its vector, which lies above the cutoff
    eigs = np.r_[0.0, GROUND_CUTOFF + 1e-11, np.linspace(1.0, 2.0, 14)]
    mat, _ = _hermitian_with(eigs, rng, False)
    with pytest.raises(ConvergenceError):
        ground_state(mat)


def test_ground_state_rejects_non_hermitian():
    with pytest.raises(ValueError, match="not Hermitian"):
        ground_state(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize(
    "solver", [ground_state, dense_spectrum], ids=["ground", "dense"]
)
@pytest.mark.parametrize(
    "form", [np.asarray, scipy.sparse.csr_matrix], ids=["array", "csr"]
)
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_entries_are_rejected(bad, form, solver):
    # a non-finite entry is bad input, not an empty ground space
    with pytest.raises(ValueError, match="non-finite"):
        solver(form(np.diag([bad, 1.0, 2.0, 3.0])))


def _sparse_and_dense_ground(op, caplog):
    """ground_state on the sparse factor and on the dense Bunch–Kaufman
    oracle; the sparse one must not have fallen back."""
    with caplog.at_level(logging.INFO, logger="clockless.spectral"):
        sparse = ground_state(op)
    assert [r for r in caplog.records if r.name == "clockless.spectral"] == []
    return sparse, ground_state(op.dense())


def _assert_same_ground(sparse, dense):
    assert sparse.ground_dim == dense.ground_dim
    if sparse.ground_dim != 1:
        assert sparse.vector is None and dense.vector is None
        assert np.isnan(sparse.energy) and sparse.solves == 0
        return
    assert abs(sparse.energy - dense.energy) <= 1e-12
    assert 1.0 - abs(np.vdot(sparse.vector, dense.vector)) ** 2 <= 1e-12
    assert sparse.residual <= 1e-12


@pytest.mark.parametrize(
    "name", [name for name, c in named_fixtures() if c.a == c.n]
)
def test_sparse_ground_matches_bunch_kaufman(name, caplog):
    # verify's ground_fidelity parents: one ground state each
    c = dict(named_fixtures())[name]
    for delta in (0.2, 0.5, 0.8):
        sparse, dense = _sparse_and_dense_ground(
            assemble(parent_spec(c, delta)), caplog
        )
        assert sparse.ground_dim == 1
        _assert_same_ground(sparse, dense)


def test_sparse_ground_matches_bunch_kaufman_near_the_cutoff(hcnot, caplog):
    # cnot_bulk's first excited level falls as delta^8 through the cutoff:
    # below it at 0.03 and 0.04, 1.3e-9 above it at 0.05 (inverse iteration
    # runs out of solves), well above it at 0.07; hcnot has two ground states
    c = dict(named_fixtures())["cnot_bulk"]
    for delta, count in ((0.03, 4), (0.04, 4), (0.07, 1)):
        sparse, dense = _sparse_and_dense_ground(
            assemble(parent_spec(c, delta)), caplog
        )
        assert sparse.ground_dim == count
        _assert_same_ground(sparse, dense)
    op = assemble(parent_spec(c, 0.05))
    for packaging in (op, op.dense()):
        with pytest.raises(ConvergenceError):
            ground_state(packaging)
    sparse, dense = _sparse_and_dense_ground(
        assemble(parent_spec(hcnot, 0.5)), caplog
    )
    assert sparse.ground_dim == 2
    _assert_same_ground(sparse, dense)


@pytest.mark.parametrize("block,qubits,count,reason", [
    # X has a zero diagonal, so the unpivoted factor of X - cutoff·I pivots
    # on -cutoff and grows like 1/GROUND_CUTOFF
    (pauli_matrix("X"), 2, 2, "backward error bound"),
    # a diagonal equal to the cutoff leaves zeros on the shifted diagonal,
    # and SuperLU has to pivot on an off-diagonal entry
    ([[GROUND_CUTOFF, 1.0], [1.0, GROUND_CUTOFF]], 2, 2, "off the diagonal"),
    # a level exactly at the cutoff on its own: a zero column
    (np.diag([GROUND_CUTOFF, 1.0]), 1, 0, "exactly singular"),
    # complex, one level below the cutoff and the next far above it, so
    # inverse iteration runs on the fallback factor; SuperLU's order takes
    # the zero diagonal entry first and grows as for X
    ([[1.0, 0.1j], [-0.1j, 0.0]], 1, 1, "backward error bound"),
])
def test_sparse_ground_falls_back_to_bunch_kaufman(
    block, qubits, count, reason, caplog
):
    term = LocalTerm("input", (0,), block, 1)
    op = SparseOperator(qubits, (term,))
    with caplog.at_level(logging.INFO, logger="clockless.spectral"):
        sparse = ground_state(op)
    records = [r for r in caplog.records if r.name == "clockless.spectral"]
    assert len(records) == 1 and reason in records[0].getMessage()
    assert sparse.ground_dim == count
    _assert_same_ground(sparse, ground_state(op.dense()))
    if count == 1:
        assert abs(sparse.energy - (1.0 - np.sqrt(1.04)) / 2) <= 1e-12


def test_sparse_operator_is_checked_before_densifying():
    # the check reads the CSR matrix, then hands on that matrix bit for bit:
    # to the sparse factor for ground_state, densified for dense_spectrum
    op = assemble(parent_spec(layered(1, 1, [[("H", (0,))]]), 0.4))
    from_op, from_csr = ground_state(op), ground_state(op.to_sparse())
    assert np.array_equal(from_op.vector, from_csr.vector)
    assert from_op.energy == from_csr.energy
    spectra = dense_spectrum(op), dense_spectrum(op.dense())
    assert np.array_equal(*(r.lowest_eigenvalues for r in spectra))
    # a skew part relative to the largest entry: 2e-12 passes, 2e-9 fails
    for skew, ok in ((1e-12, True), (1e-9, False)):
        tilted = op.to_sparse() * (1 + skew * 1j)
        if ok:
            dense_spectrum(tilted)
        else:
            with pytest.raises(ValueError, match="not Hermitian"):
                ground_state(tilted)


def test_parent_spectrum_ground_columns_are_orthonormal(tmp_path):
    # one data wire: a doubly degenerate ground space on 6 qubits, spanned
    # by the grid states at the two witness basis states
    c = layered(2, 1, [[("CNOT", (0, 1))]])
    report = parent_spectrum(parent_spec(c, 0.5), build_peps(c, 0.5), k=4)
    assert report.ground_dim == 2 and report.ground_resolved
    basis = report.eigenvectors[:, :2]
    assert np.abs(basis.conj().T @ basis - np.eye(2)).max() < 1e-12
    assert report.residuals[:2].max() < 1e-12
    assert basis[:, 0].tobytes() == build_peps(c, 0.5).amplitudes.tobytes()
    # build writes that column as ground.bin, byte for byte its state.bin
    circuit = tmp_path / "cnot.json"
    write_circuit_json(circuit, c)
    out = tmp_path / "out"
    assert main(["build", "--circuit", str(circuit), "--out", str(out)]) == 0
    assert (out / "ground.bin").read_bytes() == (out / "state.bin").read_bytes()


def test_parent_spectrum_flags_a_kernel_wider_than_the_grid_states():
    # without its input term the parent also annihilates the grid states
    # of a flipped ancilla: the two grid states no longer span the kernel
    c = layered(2, 1, [[("CNOT", (0, 1))]])
    spec = parent_spec(c, 0.8)
    inputs_dropped = HamiltonianSpec(
        spec.layout, tuple(t for t in spec.terms if t.kind != "input")
    )
    report = parent_spectrum(inputs_dropped, build_peps(c, 0.8), k=4)
    assert report.ground_dim == 2
    assert not report.ground_resolved and np.isnan(report.gap)


@pytest.mark.parametrize("delta", [0.5, 0.8])
@pytest.mark.parametrize("dense_qubits", [2, 10])
@pytest.mark.parametrize("raised", [False, True])
def test_parent_spectrum_floor_keeps_a_rounded_zero_unresolved(
    monkeypatch, delta, dense_qubits, raised
):
    # the wider kernel of the parent above, on both solver paths, with the
    # excited residual patched to 0: its lowest deflated level is a zero
    # that rounding put within 1e-15 of 0, and the floor of 64·ε·σ keeps
    # it unresolved; raised to 4·ε·σ it still is, where the bare residual
    # comparison certified it
    c = layered(2, 1, [[("CNOT", (0, 1))]])
    spec = parent_spec(c, delta)
    inputs_dropped = HamiltonianSpec(
        spec.layout, tuple(t for t in spec.terms if t.kind != "input")
    )
    sigma = sum(float(np.linalg.norm(t.block)) for t in inputs_dropped.terms)
    level = 4 * np.finfo(float).eps * sigma if raised else 1e-15
    monkeypatch.setattr(spectral, "DENSE_QUBITS", dense_qubits)
    for name in ("dense_spectrum", "low_spectrum"):
        solve = getattr(spectral, name)

        def patched(*args, solve=solve, **kwargs):
            report = solve(*args, **kwargs)
            eigs = np.array(report.lowest_eigenvalues)
            if raised:
                eigs[0] = level
            return dataclasses.replace(
                report, lowest_eigenvalues=eigs,
                residuals=np.zeros_like(report.residuals),
            )

        monkeypatch.setattr(spectral, name, patched)
    report = parent_spectrum(inputs_dropped, build_peps(c, delta), k=4)
    assert abs(report.lowest_eigenvalues[2]) <= level
    assert not report.ground_resolved and np.isnan(report.gap)

"""Eigensolvers, the gap bookkeeping, and projector inequalities."""

import dataclasses
import logging
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse.linalg import LinearOperator, aslinearoperator

from clockless.circuit import layered
from clockless import spectral
from clockless.cli import main
from clockless.hamiltonian import (
    HamiltonianSpec, LocalTerm, SparseOperator, assemble, parent_spec,
)
from clockless.io import write_circuit_json
from clockless.linalg import basis_state, random_projector, random_state
from clockless.pauli import pauli_matrix
from clockless.peps import build_peps
from clockless.spectral import (
    ConvergenceError,
    dense_spectrum,
    detectability_check,
    gap_vs_bound,
    geometric_bound,
    ground_certificate,
    jordan_angles,
    low_spectrum,
    parent_spectrum,
    union_bound_check,
)
from clockless.verify import named_fixtures
from oracles import embed_operator

P0 = np.diag([1.0, 0.0])
P1 = np.diag([0.0, 1.0])


def _linear(op):
    """A parent operator as the LinearOperator low_spectrum takes."""
    return aslinearoperator(op.to_sparse())


def test_dense_spectrum_on_diagonal():
    op = np.diag([0.0, 0.0, 0.3, 1.0])
    report = dense_spectrum(op, vectors=2)
    assert report.method == "dense"
    assert report.residuals.shape == (2,)
    assert np.allclose(report.lowest_eigenvalues, [0.0, 0.0, 0.3, 1.0], atol=1e-12)
    assert report.residuals.max() < 1e-12


def test_gap_invisible_when_all_ground():
    # a solver reports levels only: it claims no ground space and no gap,
    # which only parent_spectrum certifies
    report = dense_spectrum(np.zeros((4, 4)), vectors=1)
    assert report.ground_dim == 0 and not report.ground_resolved
    assert np.isnan(report.gap)


def test_low_spectrum_matches_dense(identity1):
    op = assemble(parent_spec(identity1, 0.5))
    dense = dense_spectrum(op.to_sparse().toarray(), vectors=4)
    low = low_spectrum(_linear(op), k=4, seed=3)
    assert low.method == "iterative"
    assert np.allclose(
        low.lowest_eigenvalues[:4], dense.lowest_eigenvalues[:4], atol=1e-8
    )
    assert max(low.residuals) < 1e-8


def test_low_spectrum_deterministic(identity1):
    op = _linear(assemble(parent_spec(identity1, 0.3)))
    a = low_spectrum(op, k=3, seed=9)
    b = low_spectrum(op, k=3, seed=9)
    assert np.array_equal(a.lowest_eigenvalues, b.lowest_eigenvalues)


def test_low_spectrum_input_forms_agree():
    # 6 qubits, a doubly degenerate zero-energy ground space, applied as a
    # sparse matrix, a dense one and the matrix-free term sum
    op = assemble(parent_spec(layered(2, 1, [[("CNOT", (0, 1))]]), 0.4))
    dense = dense_spectrum(op.to_sparse().toarray(), vectors=1).lowest_eigenvalues[:4]
    matrix_free = LinearOperator((op.dim,) * 2, op.apply, dtype=complex)
    for form in (_linear(op), aslinearoperator(op.to_sparse().toarray()), matrix_free):
        report = low_spectrum(form, k=4, seed=2)
        assert np.allclose(report.lowest_eigenvalues, dense, atol=1e-10)


def test_low_spectrum_finds_exact_zero():
    # scipy's ARPACK drops a Ritz value of exactly 0.0 unless it is shifted
    report = low_spectrum(aslinearoperator(np.diag(np.arange(64.0))), k=4)
    assert np.allclose(report.lowest_eigenvalues, [0.0, 1.0, 2.0, 3.0], atol=1e-10)


def test_low_spectrum_rejects_k_before_solving():
    def refuse(v):
        raise AssertionError("the operator was applied")

    op = LinearOperator((8, 8), matvec=refuse, dtype=complex)
    for k in (0, 7, 8):
        with pytest.raises(ValueError):
            low_spectrum(op, k=k)


def test_low_spectrum_budget_exhausted(hcnot):
    op = _linear(assemble(parent_spec(hcnot, 0.5)))
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
    op = _linear(assemble(parent_spec(c, 0.5)))
    report = low_spectrum(op, k=6, tol=1e-9, seed=10)
    assert np.allclose(report.lowest_eigenvalues, C14_LOWEST, atol=1e-8)


@pytest.mark.parametrize("k", [1, 4])
def test_low_spectrum_stays_within_its_estimate(monkeypatch, k):
    # what ARPACK holds beside the operator, on the 14-qubit C14 parent
    # applied as parent_spectrum applies it, its term blocks built by the
    # ground energies before: 28.1 vectors at k = 1 and 29.1 at k = 4
    c = layered(2, 1, [
        [("H", (0,)), ("T", (1,))],
        [("CNOT", (0, 1))],
        [("S", (0,)), ("H", (1,))],
    ])
    operator = assemble(parent_spec(c, 0.5))
    operator.apply(np.ones(operator.dim))
    op = LinearOperator((operator.dim,) * 2, operator.apply, dtype=np.complex128)
    estimates = []
    monkeypatch.setattr(
        spectral, "require", lambda what, n, nbytes: estimates.append(nbytes)
    )
    tracemalloc.start()
    try:
        low_spectrum(op, k=k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    (estimate,) = estimates
    assert peak <= estimate


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
    lhs, rhs = detectability_check([q1, q2], 1.0, state)
    assert lhs <= rhs + 1e-12


def test_union_bound_check(rng):
    q1 = embed_operator(P0, (0,), 2)
    q2 = embed_operator(P0, (1,), 2)
    state = random_state(2, rng)
    lhs, rhs = union_bound_check([q1, q2], state)
    assert lhs >= rhs - 1e-12
    # on an exact ground state the sweep keeps everything
    ground = np.zeros(4, dtype=complex)
    ground[3] = 1.0
    lhs, rhs = union_bound_check([q1, q2], ground)
    assert np.isclose(lhs, 1.0) and lhs >= rhs - 1e-12


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
    assert all(b.basis.shape[1] in (1, 2) for b in dec.blocks)


def test_geometric_bound_angle_pair():
    theta = 0.4
    c, s = np.cos(theta), np.sin(theta)
    a = np.eye(2) - np.array([[1.0, 0.0], [0.0, 0.0]])
    v = np.array([c, s])
    b = np.eye(2) - np.outer(v, v)
    out = geometric_bound(a, b)
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
    assert out.min_eig >= out.bound - 1e-12


# The default verify tolerance, and the old absolute ground cutoff, a shift
# above cnot_bulk's first excited level at delta 0.03 and 0.04.
TOL = 1e-10
TAU = 1e-9


def _shift(op, q, tol=TOL):
    """e0, r and ground_certificate's shift τ for the unit vector ``q``."""
    hq = op.apply(q)
    e0 = float(np.vdot(q, hq).real)
    r = float(np.linalg.norm(hq - e0 * q))
    return e0, r, e0 + r + 2 * r / math.sqrt(tol)


def _angle(u, v) -> float:
    """sin of the angle between two unit vectors."""
    return math.sqrt(max(0.0, 1.0 - abs(np.vdot(u, v)) ** 2))


@pytest.mark.parametrize("name,layers", [
    ("cnot_bulk", [[("CNOT", (1, 0))], [("I", (0,)), ("I", (1,))]]),
    ("t_bulk", [[("T", (0,)), ("I", (1,))], [("CZ", (0, 1))]]),
    ("identity2", [[("I", (0,)), ("I", (1,))]] * 2),
])
def test_dense_spectrum_lowest_matches_full(name, layers):
    # ground_certificate's bound on the grid state's angle against the
    # full dense spectrum's ground vector; t_bulk is complex, the other two
    # are factored as real
    c = layered(2, 2, layers)
    for delta in (0.2, 0.5):
        op = assemble(parent_spec(c, delta))
        q = build_peps(c, delta).amplitudes
        eigs, vectors = scipy.linalg.eigh(op.to_sparse().toarray())
        bound = ground_certificate(op, q, TOL)
        assert _angle(vectors[:, 0], q) <= bound
        assert bound**2 <= TOL / 2
        assert eigs[1] > _shift(op, q)[2]


def test_dense_spectrum_lowest_flags_degenerate_ground(hcnot):
    # one data wire (a < n): the ground space holds one state per witness,
    # so the count at the shift is 2 and the certificate refuses
    op = assemble(parent_spec(hcnot, 0.5))
    full = dense_spectrum(op.to_sparse().toarray(), vectors=1)
    assert np.abs(full.lowest_eigenvalues[:2]).max() < 1e-12
    assert full.lowest_eigenvalues[2] > 1e-3
    assert np.isnan(ground_certificate(op, build_peps(hcnot, 0.5).amplitudes, TOL))


def _hermitian_with(eigs, rng, complex_):
    dim = len(eigs)
    z = rng.standard_normal((dim, dim))
    if complex_:
        z = z + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(z)
    mat = (q * eigs) @ q.conj().T
    return (mat + mat.conj().T) / 2, q


def _operator(mat) -> SparseOperator:
    """A dense Hermitian matrix as a one-term operator."""
    qubits = (len(mat) - 1).bit_length()
    return SparseOperator(qubits, (LocalTerm("input", tuple(range(qubits)), mat, 1),))


def _count(mat, tau=TAU) -> int:
    """Eigenvalues of ``mat`` below ``tau`` by the Bunch–Kaufman factor."""
    return spectral._bunch_kaufman(np.asfortranarray(mat - tau * np.eye(len(mat))))[0]


@pytest.mark.parametrize("complex_", [False, True])
def test_ground_state_counts_random_spectra_exactly(rng, complex_):
    # eigenvalues on both sides of the shift, two within 1e-10 of it
    below = [-2.0, -1e-3, 0.0, 1e-12, TAU - 1e-10]
    above = [TAU + 1e-10, 1e-6, 0.3, 1.0, 4.0]
    for k in (0, 1, 2, 3, 4, 5):
        eigs = np.r_[below[:k], above, np.linspace(1.5, 3.0, 20)]
        mat, _ = _hermitian_with(eigs, rng, complex_)
        assert _count(mat) == k


@pytest.mark.parametrize("complex_", [False, True])
def test_ground_state_vector_of_a_random_spectrum(rng, complex_):
    # a frustration-free-like spectrum, one near-zero level under a gap:
    # the bound holds for a vector tilted off the ground vector by phi, and
    # for the ground vector itself reaches the tolerance
    eigs = np.r_[1e-13, np.linspace(1e-3, 2.0, 31)]
    mat, vecs = _hermitian_with(eigs, rng, complex_)
    op = _operator(mat)
    for phi, tol in ((0.0, TOL), (1e-7, TOL), (1e-4, 1e-2)):
        q = math.cos(phi) * vecs[:, 0] + math.sin(phi) * vecs[:, 1]
        bound = ground_certificate(op, q, tol)
        assert math.sin(phi) <= bound and bound**2 <= tol
    assert np.isnan(ground_certificate(op, q, TOL))


def test_ground_state_counts_two_by_two_pivots():
    # a zero diagonal forces Bunch-Kaufman into 2x2 pivots: each block
    # [[0, s], [s*, 0]] holds one eigenvalue -|s| below the shift
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert _count(np.kron(np.eye(2), swap)) == 2
    blocks = np.kron(np.diag([1.0, 2.0, 3.0]), [[0.0, 1j], [-1j, 0.0]])
    perm = np.random.default_rng(5).permutation(6)
    assert _count(blocks[np.ix_(perm, perm)]) == 3
    assert _count(np.kron(np.eye(4), swap) + 2.0 * np.eye(8)) == 0


def test_ground_certificate_refuses_a_level_below_its_shift(rng):
    # a level 1e-11 above the ground one lies below the shift (2e-11 or
    # more), so the count is 2 and there is no bound, whatever the vector
    eigs = np.r_[0.0, 1e-11, np.linspace(1.0, 2.0, 14)]
    mat, vecs = _hermitian_with(eigs, rng, False)
    op = _operator(mat)
    assert _shift(op, vecs[:, 0])[2] > 1e-11
    assert np.isnan(ground_certificate(op, vecs[:, 0], TOL))


def _sparse_and_dense_counts(op, tau, caplog):
    """The count and backward error bound at ``tau`` of the sparse factor
    and of the dense Bunch–Kaufman one; the sparse one must not have fallen
    back."""
    with caplog.at_level(logging.INFO, logger="clockless.spectral"):
        sparse = spectral._inertia(op.to_sparse(), tau, 1e-11)
    assert [r for r in caplog.records if r.name == "clockless.spectral"] == []
    dense = spectral._bunch_kaufman(
        np.asfortranarray(op.to_sparse().toarray() - tau * np.eye(op.dim))
    )
    return sparse, dense


@pytest.mark.parametrize(
    "name", [name for name, c in named_fixtures() if c.a == c.n]
)
def test_sparse_ground_matches_bunch_kaufman(name, caplog):
    # verify's ground_fidelity parents at ground_certificate's shift: one
    # level below it on both factors, exact within 2e-12 (sparse) and 4e-12
    c = dict(named_fixtures())[name]
    for delta in (0.2, 0.5, 0.8):
        op = assemble(parent_spec(c, delta))
        tau = _shift(op, build_peps(c, delta).amplitudes)[2]
        (count, b), (dense_count, dense_b) = _sparse_and_dense_counts(
            op, tau, caplog
        )
        assert count == dense_count == 1
        assert b <= 2e-12 and dense_b <= 4e-12


def test_sparse_ground_matches_bunch_kaufman_near_the_cutoff(hcnot, caplog):
    # at the old cutoff, 1e-9: cnot_bulk's first excited level falls as
    # delta^8 through it, below at 0.03 and 0.04 and 1.3e-9 above at 0.05;
    # hcnot has two ground states
    c = dict(named_fixtures())["cnot_bulk"]
    for delta, want in ((0.03, 4), (0.04, 4), (0.05, 1), (0.07, 1)):
        op = assemble(parent_spec(c, delta))
        (count, _), (dense_count, _) = _sparse_and_dense_counts(op, TAU, caplog)
        assert count == dense_count == want
    op = assemble(parent_spec(hcnot, 0.5))
    (count, _), (dense_count, _) = _sparse_and_dense_counts(op, TAU, caplog)
    assert count == dense_count == 2


@pytest.mark.parametrize("block,qubits,count,reason", [
    # X has a zero diagonal, so the unpivoted factor of X - τ·I pivots on
    # -τ and grows like 1/τ
    (pauli_matrix("X"), 2, 2, "backward error bound"),
    # a diagonal equal to τ leaves zeros on the shifted diagonal, and
    # SuperLU has to pivot on an off-diagonal entry
    ([[TAU, 1.0], [1.0, TAU]], 2, 2, "off the diagonal"),
    # a level exactly at τ on its own: a zero column
    (np.diag([TAU, 1.0]), 1, 0, "exactly singular"),
    # complex, one level below τ and the next far above it; SuperLU's order
    # takes the zero diagonal entry first and grows as for X
    ([[1.0, 0.1j], [-0.1j, 0.0]], 1, 1, "backward error bound"),
])
def test_sparse_ground_falls_back_to_bunch_kaufman(
    block, qubits, count, reason, caplog
):
    op = SparseOperator(qubits, (LocalTerm("input", (0,), block, 1),))
    with caplog.at_level(logging.INFO, logger="clockless.spectral"):
        found, b = spectral._inertia(op.to_sparse(), TAU, 1e-11)
    records = [r for r in caplog.records if r.name == "clockless.spectral"]
    assert len(records) == 1 and reason in records[0].getMessage()
    assert found == count == _count(op.to_sparse().toarray())
    assert b <= 1e-14


def test_parent_spectrum_ground_columns_are_orthonormal(tmp_path):
    # one data wire: a doubly degenerate ground space on 6 qubits, spanned
    # by the grid states at the two witness basis states, which lie in the
    # span of the two lowest orthonormal columns of the dense eigenbasis
    c = layered(2, 1, [[("CNOT", (0, 1))]])
    spec = parent_spec(c, 0.5)
    report = parent_spectrum(spec, build_peps(c, 0.5), k=4)
    assert report.ground_dim == 2 and report.ground_resolved
    assert report.residuals[:2].max() < 1e-12
    _, vectors = scipy.linalg.eigh(assemble(spec).to_sparse().toarray())
    basis = vectors[:, :2]
    assert np.abs(basis.conj().T @ basis - np.eye(2)).max() < 1e-12
    for j in range(2):
        q = build_peps(c, 0.5, basis_state(j, 1)).amplitudes
        assert np.linalg.norm(q - basis @ (basis.conj().T @ q)) < 1e-12
    # build writes the grid state as ground.bin, byte for byte its state.bin
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

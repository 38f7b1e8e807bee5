"""Eigensolvers, the gap bookkeeping, and projector inequalities."""

import numpy as np
import pytest

from clockless.circuit import layered
from clockless.hamiltonian import assemble, parent_spec
from clockless.linalg import embed_operator, random_projector, random_state
from clockless.spectral import (
    assemble_total_with_gap,
    dense_spectrum,
    detectability_check,
    gap_vs_bound,
    geometric_bound,
    jordan_angles,
    low_spectrum,
    union_bound_check,
)

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


def test_assemble_total_with_gap(identity1):
    spec, report = assemble_total_with_gap(identity1, 0.5)
    assert spec.out_scale == report.gap
    assert spec.terms[-1].kind == "output"


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
])
def test_dense_spectrum_lowest_matches_full(name, layers):
    c = layered(2, 2, layers)
    for delta in (0.2, 0.5):
        op = assemble(parent_spec(c, delta))
        full = dense_spectrum(op)
        part = dense_spectrum(op, vectors=1, lowest=2)
        assert part.lowest_eigenvalues.shape == (2,)
        assert np.allclose(
            part.lowest_eigenvalues, full.lowest_eigenvalues[:2], atol=1e-12
        )
        assert part.ground_dim == full.ground_dim == 1
        assert abs(part.gap - full.gap) < 1e-12
        assert part.ground_resolved and full.ground_resolved
        overlap = np.vdot(part.eigenvectors[:, 0], full.eigenvectors[:, 0])
        assert abs(abs(overlap) - 1.0) < 1e-10


def test_dense_spectrum_lowest_flags_degenerate_ground(hcnot):
    # one data wire (a < n): the ground space holds one state per witness
    op = assemble(parent_spec(hcnot, 0.5))
    full = dense_spectrum(op)
    assert full.ground_dim == 2 and full.ground_resolved
    part = dense_spectrum(op, lowest=2)
    assert not part.ground_resolved
    assert part.ground_dim == 2 and np.isnan(part.gap)
    wider = dense_spectrum(op, lowest=3)
    assert wider.ground_resolved and wider.ground_dim == 2
    assert abs(wider.gap - full.gap) < 1e-12
    with pytest.raises(ValueError):
        dense_spectrum(op, lowest=0)

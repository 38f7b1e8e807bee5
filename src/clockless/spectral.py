"""Eigensolvers and subspace-angle diagnostics for grid Hamiltonians.

Two solver entry points share one result type.  ``dense_spectrum`` is the
oracle: a full Hermitian eigendecomposition, feasible up to twelve qubits,
against which everything else in the package is checked.  ``low_spectrum``
is a thick-restart Lanczos iteration that reaches the sizes the dense path
cannot.  Both report eigenvalues in ascending order, the dimension of the
zero-energy ground space, and the gap above it.

The rest of the module measures how the ground spaces of term families sit
relative to each other.  ``detectability_check`` and ``union_bound_check``
test the two standard inequalities for products of (one minus) projectors
applied to a state.  ``jordan_angles`` decomposes a pair of projectors into
the one- and two-dimensional invariant blocks guaranteed by Jordan's lemma,
and ``geometric_bound`` checks the angle-based lower bound on the smallest
nonzero eigenvalue of a sum of two positive semidefinite operators.
``gap_vs_bound`` ties the measured gap of a parent Hamiltonian to the
per-layer product of injectivity weights that governs it.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.sparse.linalg import LinearOperator

from .circuit import LayeredCircuit
from .hamiltonian import (
    HamiltonianSpec,
    SparseOperator,
    assemble,
    parent_spec,
    with_output,
)
from .linalg import DENSE_QUBIT_CAP
from .peps import resolve_deltas

__all__ = [
    "GROUND_CUTOFF",
    "ConvergenceError",
    "SpectralReport",
    "dense_spectrum",
    "low_spectrum",
    "gap_vs_bound",
    "assemble_total_with_gap",
    "detectability_check",
    "union_bound_check",
    "JordanBlock",
    "JordanDecomposition",
    "jordan_angles",
    "GeometricBound",
    "geometric_bound",
]

_log = logging.getLogger(__name__)

# Eigenvalues below this absolute cutoff count as ground states.  The
# frustration-free constructions here have exact zero modes polluted only
# by roundoff (1e-13 and below at desk scale), while the smallest gaps we
# probe are several orders larger, so one fixed cutoff separates them.
GROUND_CUTOFF = 1e-9

# The Krylov basis never grows past this many columns before a restart.
_SUBSPACE_CAP = 250

_BREAKDOWN = 1e-13


class ConvergenceError(RuntimeError):
    """Raised when the iterative solver runs out of budget.

    Carries the number of operator applications spent, so a caller can
    tell a hopeless tolerance from a budget set too low.
    """

    def __init__(self, message: str, iterations: int):
        super().__init__(f"{message} (after {iterations} operator applications)")
        self.iterations = iterations


@dataclass(frozen=True)
class SpectralReport:
    """Lowest eigenpairs of a Hermitian operator, with quality metadata.

    ``lowest_eigenvalues`` is ascending; ``ground_dim`` counts entries
    below ``GROUND_CUTOFF``; ``gap`` is the first eigenvalue above the
    ground space minus the lowest one, or NaN when every reported value
    is a ground state and the gap is therefore not visible.  One residual
    norm ``‖Hv - λv‖`` is stored per retained eigenvector column.
    ``ground_resolved`` is False when a partial spectrum lies wholly in
    the ground space, so ``ground_dim`` is only a lower bound.
    """

    lowest_eigenvalues: np.ndarray
    ground_dim: int
    gap: float
    residuals: np.ndarray
    method: str
    eigenvectors: np.ndarray
    ground_resolved: bool = True

    def __post_init__(self) -> None:
        eigs = np.asarray(self.lowest_eigenvalues, dtype=np.float64)
        if eigs.ndim != 1 or eigs.size == 0:
            raise ValueError("need a nonempty 1-d eigenvalue array")
        if np.any(np.diff(eigs) < -1e-12):
            raise ValueError("eigenvalues must be ascending")
        if not 0 <= self.ground_dim <= eigs.size:
            raise ValueError(f"ground_dim {self.ground_dim} out of range")
        if self.method not in ("dense", "iterative"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.eigenvectors.shape[1] != len(self.residuals):
            raise ValueError("one residual per retained eigenvector column")
        for arr in (eigs, self.residuals, self.eigenvectors):
            arr.flags.writeable = False
        object.__setattr__(self, "lowest_eigenvalues", eigs)


def _ground_dim(eigs: np.ndarray) -> int:
    return int(np.count_nonzero(eigs < GROUND_CUTOFF))


def _gap(eigs: np.ndarray, ground: int) -> float:
    if ground >= eigs.size:
        return float("nan")
    return float(eigs[ground] - eigs[0])


def _as_matvec(op) -> tuple[Callable[[np.ndarray], np.ndarray], int]:
    """View an operator as (matvec, dimension), whatever its packaging."""
    if isinstance(op, SparseOperator):
        return op.apply, 2**op.num_qubits
    if isinstance(op, np.ndarray):
        if op.ndim != 2 or op.shape[0] != op.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {op.shape}")
        return (lambda v: op @ v), op.shape[0]
    if scipy.sparse.issparse(op) or isinstance(op, LinearOperator):
        if op.shape[0] != op.shape[1]:
            raise ValueError(f"expected a square operator, got shape {op.shape}")
        return (lambda v: op @ v), op.shape[0]
    raise TypeError(f"cannot interpret {type(op).__name__} as a linear operator")


def _require_dense_dim(dim: int) -> None:
    if dim > 2**DENSE_QUBIT_CAP:
        raise ValueError(
            f"dimension {dim} exceeds the dense cap {2**DENSE_QUBIT_CAP}"
        )


def _as_dense(op) -> np.ndarray:
    if isinstance(op, SparseOperator):
        return op.dense()
    if scipy.sparse.issparse(op):
        _require_dense_dim(op.shape[0])
        return op.toarray()
    if isinstance(op, np.ndarray):
        if op.ndim != 2 or op.shape[0] != op.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {op.shape}")
        _require_dense_dim(op.shape[0])
        return op
    raise TypeError(f"cannot materialize {type(op).__name__} as a dense matrix")


def dense_spectrum(
    op, vectors: int | None = None, lowest: int | None = None
) -> SpectralReport:
    """Hermitian eigendecomposition; the oracle for everything else.

    All eigenvalues are reported, or the ``lowest`` smallest ones only.
    Eigenvector columns are retained for the lowest few pairs only: enough
    to span the ground space plus one, or eight, whichever is larger; pass
    ``vectors`` to override.  If all ``lowest`` values are ground states,
    ``ground_resolved`` is False and the gap NaN.
    """
    mat = np.asarray(_as_dense(op))
    dim = mat.shape[0]
    scale = max(1.0, float(np.abs(mat).max()))
    if np.abs(mat - mat.conj().T).max() > 1e-10 * scale:
        raise ValueError("operator is not Hermitian")
    if lowest is None:
        eigs, basis = scipy.linalg.eigh(mat)
    else:
        # A real matrix stored as complex diagonalizes ~4x faster as real.
        if np.iscomplexobj(mat) and not mat.imag.any():
            mat = mat.real
        top = min(lowest, dim) - 1
        eigs, basis = scipy.linalg.eigh(mat, subset_by_index=[0, top])
    ground = _ground_dim(eigs)
    keep = min(eigs.size, max(ground + 1, 8) if vectors is None else max(vectors, 1))
    kept = np.ascontiguousarray(basis[:, :keep])
    residuals = np.linalg.norm(mat @ kept - kept * eigs[:keep], axis=0)
    return SpectralReport(
        lowest_eigenvalues=eigs,
        ground_dim=ground,
        gap=_gap(eigs, ground),
        residuals=residuals,
        method="dense",
        eigenvectors=kept,
        ground_resolved=ground < eigs.size or eigs.size == dim,
    )


def _orthogonalize_twice(
    w: np.ndarray, basis: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Two passes of classical Gram-Schmidt against the whole basis.

    Returns the purged vector and the combined projection coefficients.
    One pass leaves O(eps·cond) residue; the second pass brings the new
    direction back to working precision, which is what keeps the Lanczos
    recurrence trustworthy without selective reorthogonalization logic.
    """
    coeff = basis.conj().T @ w
    w = w - basis @ coeff
    extra = basis.conj().T @ w
    w = w - basis @ extra
    return w, coeff + extra


def low_spectrum(
    op,
    k: int = 6,
    tol: float = 1e-10,
    max_iter: int = 5000,
    seed: int = 0,
) -> SpectralReport:
    """Lowest ``k`` eigenpairs by thick-restart Lanczos iteration.

    The Krylov basis is grown with full (two-pass) reorthogonalization
    until it hits the subspace cap, then compressed onto the best Ritz
    vectors and the iteration continues.  The starting vector comes from
    a seeded generator, so a fixed seed reproduces the iterate sequence
    exactly.  Raises ``ConvergenceError``, with the number of operator
    applications spent, if the residuals have not reached ``tol`` within
    ``max_iter`` applications.
    """
    matvec, dim = _as_matvec(op)
    cap = min(_SUBSPACE_CAP, dim)
    if not 1 <= k <= cap - 2 and k != dim:
        raise ValueError(f"k={k} must lie in 1..{cap - 2} (subspace cap {cap})")
    if max_iter < 1:
        raise ValueError("max_iter must be positive")

    rng = np.random.default_rng(seed)
    start = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    basis = np.zeros((dim, cap), dtype=np.complex128)
    # Projected operator on the current basis.  Off-tridiagonal entries
    # are kept as computed: after a restart the leading block is diagonal
    # and the residual column couples to every retained Ritz vector.
    projected = np.zeros((cap, cap), dtype=np.complex128)
    basis[:, 0] = start / np.linalg.norm(start)
    size = 1
    spent = 0
    tail: tuple[float, np.ndarray] | None = None

    while True:
        # Grow the basis, expanding every column including the last, so the
        # dangling residual in ``tail`` is always orthogonal to the basis.
        spanned = False
        while spent < max_iter:
            j = size - 1
            w = matvec(basis[:, j])
            spent += 1
            w, column = _orthogonalize_twice(w, basis[:, :size])
            projected[:size, j] = column
            projected[j, :size] = column.conj()
            beta = float(np.linalg.norm(w))
            if beta < _BREAKDOWN:
                # Invariant subspace found; continue from a fresh direction
                # so eigenvectors missed by the start vector stay reachable.
                fresh = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
                fresh, _ = _orthogonalize_twice(fresh, basis[:, :size])
                norm = float(np.linalg.norm(fresh))
                if norm < _BREAKDOWN:
                    tail = (0.0, basis[:, j])
                    spanned = True
                    break
                w = fresh / norm
                beta = 0.0
            else:
                w = w / beta
            tail = (beta, w)
            if size == cap:
                break
            basis[:, size] = w
            projected[size, j] = beta
            projected[j, size] = beta
            size += 1
        exhausted = spent >= max_iter and not spanned

        block = projected[:size, :size]
        theta, ritz = np.linalg.eigh((block + block.conj().T) / 2.0)
        want = min(k, size)
        if tail is not None and tail[0] > 0.0:
            estimates = tail[0] * np.abs(ritz[size - 1, :want])
        else:
            estimates = np.zeros(want)
        converged = size >= min(k, dim) and float(estimates.max()) <= tol / 2
        exact = size == dim

        if converged or exact or exhausted:
            want = min(k, size)
            vectors = basis[:, :size] @ ritz[:, :want]
            eigs = theta[:want].copy()
            residuals = np.empty(want)
            for i in range(want):
                residuals[i] = np.linalg.norm(matvec(vectors[:, i]) - eigs[i] * vectors[:, i])
            if float(residuals.max()) > max(tol, 1e-12):
                if not (converged or exact):
                    raise ConvergenceError(
                        f"lowest {k} eigenpairs did not reach tolerance {tol:g}; "
                        f"best residual {residuals.max():.3e}",
                        spent,
                    )
                raise ConvergenceError(
                    f"residual check failed at {residuals.max():.3e} > {tol:g}",
                    spent,
                )
            ground = _ground_dim(eigs)
            return SpectralReport(
                lowest_eigenvalues=eigs,
                ground_dim=ground,
                gap=_gap(eigs, ground),
                residuals=residuals,
                method="iterative",
                eigenvectors=vectors,
            )

        # Thick restart: compress onto the lowest Ritz vectors, then seed
        # the next cycle with the dangling residual direction.
        keep = max(k, min(max(2 * k, k + 8), cap - 2))
        compressed = basis[:, :size] @ ritz[:, :keep]
        basis[:, :keep] = compressed
        beta, residual_vec = tail
        basis[:, keep] = residual_vec
        projected[:, :] = 0.0
        projected[:keep, :keep] = np.diag(theta[:keep])
        size = keep + 1
        tail = None


def _solver_report(operator: SparseOperator, ground_hint: int, seed: int) -> SpectralReport:
    """Dense below the cap, iterative above, asking for room past the hint."""
    dim = 2**operator.num_qubits
    if dim <= 2**DENSE_QUBIT_CAP:
        return dense_spectrum(operator)
    k = min(ground_hint + 4, dim, _SUBSPACE_CAP - 2)
    return low_spectrum(operator, k=k, seed=seed)


def _layer_localities(c: LayeredCircuit) -> tuple[int, ...]:
    return tuple(max(g.arity for g in layer) for layer in c.layers)


def gap_vs_bound(
    c: LayeredCircuit,
    deltas,
    k_locality: Sequence[int] | None = None,
    include_input: bool = True,
    seed: int = 0,
) -> tuple[float, float]:
    """Measured gap of the parent Hamiltonian next to its weight product.

    Returns ``(gap, product)`` where the product multiplies, over layers,
    the layer's injectivity weight raised to eight times its locality.
    The theory promises gap ≥ product over a polynomial factor that it
    does not pin down, so only positivity is enforced here; the measured
    ratio is logged for inspection.  The gap is taken above the full
    degenerate ground space, which has dimension 2^(n-a) when a < n.
    """
    schedule = resolve_deltas(deltas, c.depth)
    localities = tuple(k_locality) if k_locality is not None else _layer_localities(c)
    if len(localities) != c.depth:
        raise ValueError(
            f"got {len(localities)} locality entries for depth {c.depth}"
        )
    spec = parent_spec(c, schedule, include_input=include_input)
    ground_hint = 2 ** (c.n - c.a) if include_input else 2**c.n
    report = _solver_report(assemble(spec), ground_hint, seed)
    gap = report.gap
    if not gap > 0.0:
        raise ArithmeticError(f"parent Hamiltonian gap {gap!r} is not positive")
    product = float(
        np.prod([schedule[i] ** (8 * localities[i]) for i in range(c.depth)])
    )
    _log.info(
        "gap %.6e, weight product %.6e, ratio %.6e", gap, product, gap / product
    )
    return gap, product


def assemble_total_with_gap(
    c: LayeredCircuit,
    deltas,
    rows: Sequence[int] = (0,),
    stabilizer_checks=(),
    include_input: bool = True,
    seed: int = 0,
) -> tuple[HamiltonianSpec, SpectralReport]:
    """Full Hamiltonian with output penalties scaled by the measured gap.

    Builds the parent spec, measures its gap, then appends output terms
    on the given rows with that gap as their scale factor.  Returns the
    scaled spec together with the parent's spectral report, so callers
    can see the scale that was applied and its provenance.
    """
    parent = parent_spec(
        c, deltas, stabilizer_checks=stabilizer_checks, include_input=include_input
    )
    ground_hint = 2 ** (c.n - c.a) if include_input else 2**c.n
    report = _solver_report(assemble(parent), ground_hint, seed)
    if not report.gap > 0.0:
        raise ArithmeticError(
            f"parent Hamiltonian gap {report.gap!r} is not positive; "
            "cannot scale the output penalty"
        )
    return with_output(parent, rows, out_scale=report.gap), report


def _require_projector(p: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    p = np.asarray(p)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError(f"projector must be square, got shape {p.shape}")
    if np.abs(p - p.conj().T).max() > tol:
        raise ValueError("projector must be Hermitian")
    if np.abs(p @ p - p).max() > tol:
        raise ValueError(f"matrix is not idempotent within {tol:g}")
    return p


def _sweep(projectors, state: np.ndarray) -> np.ndarray:
    """Apply (1 - Q) for each projector, in the order given."""
    phi = np.asarray(state, dtype=np.complex128).copy()
    for q in projectors:
        phi = phi - q @ phi
    return phi


def detectability_check(
    projectors, g: float, state: np.ndarray
) -> tuple[float, float, bool]:
    """Detectability bound for a family of overlapping projectors.

    With φ the state after applying (1 - Q_i) in list order, and e_φ the
    energy of normalized φ under ΣQ_i, checks

        ‖φ‖² ≤ 1 / (e_φ / g² + 1)

    where ``g`` bounds how many other family members each projector fails
    to commute with.  Returns (lhs, rhs, holds).
    """
    checked = [_require_projector(q) for q in projectors]
    if g <= 0:
        raise ValueError(f"overlap degree g must be positive, got {g}")
    phi = _sweep(checked, state)
    lhs = float(np.linalg.norm(phi) ** 2)
    if lhs < 1e-30:
        return 0.0, 1.0, True
    unit = phi / math.sqrt(lhs)
    energy = sum(float(np.real(unit.conj() @ (q @ unit))) for q in checked)
    rhs = 1.0 / (energy / g**2 + 1.0)
    return lhs, rhs, bool(lhs <= rhs + 1e-12)


def union_bound_check(projectors, state: np.ndarray) -> tuple[float, float, bool]:
    """Union bound: the sweep retains all weight the energy does not claim.

    With φ as in ``detectability_check`` and H = ΣQ_i, checks

        ‖φ‖² ≥ 1 - 4⟨ψ|H|ψ⟩.

    Returns (lhs, rhs, holds).
    """
    checked = [_require_projector(q) for q in projectors]
    psi = np.asarray(state, dtype=np.complex128)
    phi = _sweep(checked, psi)
    lhs = float(np.linalg.norm(phi) ** 2)
    energy = sum(float(np.real(psi.conj() @ (q @ psi))) for q in checked)
    rhs = 1.0 - 4.0 * energy
    return lhs, rhs, bool(lhs >= rhs - 1e-12)


@dataclass(frozen=True)
class JordanBlock:
    """One invariant block shared by a pair of projectors.

    ``basis`` holds one or two orthonormal columns; ``left`` and ``right``
    are the two projectors compressed onto that basis.
    """

    basis: np.ndarray
    left: np.ndarray
    right: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True)
class JordanDecomposition:
    """Principal angles and the invariant blocks that realize them.

    ``cosines`` are the singular values of the overlap between the two
    ranges, descending; ``angles`` are their arccosines.  The blocks are
    mutually orthogonal, each invariant under both projectors, and cover
    both ranges completely; directions annihilated by both projectors are
    omitted since they contribute nothing.  ``max_residual`` is the worst
    invariance defect ‖P·B - B·(local P)‖ over all blocks and both sides.
    """

    cosines: np.ndarray
    angles: np.ndarray
    blocks: tuple[JordanBlock, ...]
    max_residual: float

    def reconstruct(self, side: str) -> np.ndarray:
        """Rebuild a projector by summing its compressed blocks."""
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        dim = self.blocks[0].basis.shape[0] if self.blocks else 0
        total = np.zeros((dim, dim), dtype=np.complex128)
        for b in self.blocks:
            local = b.left if side == "left" else b.right
            total += b.basis @ local @ b.basis.conj().T
        return total


def _range_basis(p: np.ndarray) -> np.ndarray:
    eigs, vecs = scipy.linalg.eigh(p)
    return np.ascontiguousarray(vecs[:, eigs > 0.5])


# Below this residual, a principal pair is treated as a shared direction
# (a one-dimensional block) rather than a genuine two-dimensional tilt.
_PARALLEL_TOL = 1e-12


def jordan_angles(p1: np.ndarray, p2: np.ndarray) -> JordanDecomposition:
    """Decompose two projectors into jointly invariant blocks of dim ≤ 2.

    The singular value decomposition of the overlap between the ranges
    yields principal vector pairs; each pair with partial overlap spans a
    two-dimensional invariant block, fully aligned pairs give shared
    one-dimensional blocks, and range directions invisible to the other
    projector (including any rank surplus on either side) give the rest.
    """
    first = _require_projector(np.asarray(p1, dtype=np.complex128), tol=1e-10)
    second = _require_projector(np.asarray(p2, dtype=np.complex128), tol=1e-10)
    if first.shape != second.shape:
        raise ValueError("projectors must act on the same space")
    _require_dense_dim(first.shape[0])
    x = _range_basis(first)
    y = _range_basis(second)
    r1, r2 = x.shape[1], y.shape[1]
    blocks: list[JordanBlock] = []
    if min(r1, r2) > 0:
        u_rot, sigma, v_rot_h = np.linalg.svd(x.conj().T @ y, full_matrices=True)
        lefts = x @ u_rot
        rights = y @ v_rot_h.conj().T
        cosines = np.clip(sigma, 0.0, 1.0)
        for i in range(min(r1, r2)):
            u = lefts[:, i]
            w = rights[:, i]
            overlap = complex(u.conj() @ w)
            perp = w - overlap * u
            spread = float(np.linalg.norm(perp))
            if spread <= _PARALLEL_TOL:
                blocks.append(
                    JordanBlock(
                        basis=u[:, None],
                        left=np.array([[1.0 + 0j]]),
                        right=np.array([[1.0 + 0j]]),
                    )
                )
                continue
            v = perp / spread
            coords = np.array([overlap, spread], dtype=np.complex128)
            blocks.append(
                JordanBlock(
                    basis=np.column_stack([u, v]),
                    left=np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.complex128),
                    right=np.outer(coords, coords.conj()),
                )
            )
        surplus_left = lefts[:, min(r1, r2) :]
        surplus_right = rights[:, min(r1, r2) :]
    else:
        cosines = np.zeros(0)
        surplus_left = x
        surplus_right = y
    one = np.array([[1.0 + 0j]])
    zero = np.array([[0.0 + 0j]])
    for i in range(surplus_left.shape[1]):
        blocks.append(JordanBlock(basis=surplus_left[:, i : i + 1], left=one, right=zero))
    for i in range(surplus_right.shape[1]):
        blocks.append(JordanBlock(basis=surplus_right[:, i : i + 1], left=zero, right=one))
    worst = 0.0
    for b in blocks:
        worst = max(worst, float(np.linalg.norm(first @ b.basis - b.basis @ b.left)))
        worst = max(worst, float(np.linalg.norm(second @ b.basis - b.basis @ b.right)))
    return JordanDecomposition(
        cosines=cosines,
        angles=np.arccos(cosines),
        blocks=tuple(blocks),
        max_residual=worst,
    )


class GeometricBound(NamedTuple):
    gamma: float
    theta: float
    bound: float
    min_eig: float
    holds: bool


def _kernel_basis(mat: np.ndarray) -> tuple[np.ndarray, float]:
    """Null-space basis and smallest nonzero eigenvalue of a PSD matrix."""
    eigs, vecs = scipy.linalg.eigh(mat)
    if eigs[0] < -1e-8 * max(1.0, abs(eigs[-1])):
        raise ValueError(f"operator is not positive semidefinite (λmin={eigs[0]:.3e})")
    null = vecs[:, eigs < GROUND_CUTOFF]
    positive = eigs[eigs >= GROUND_CUTOFF]
    smallest = float(positive[0]) if positive.size else 0.0
    return np.ascontiguousarray(null), smallest


def _deflate_common(basis: np.ndarray, common: np.ndarray) -> np.ndarray:
    """Orthonormal basis for the part of ``basis`` outside ``common``."""
    if common.shape[1] == 0:
        return basis
    residue = basis - common @ (common.conj().T @ basis)
    q, r = np.linalg.qr(residue)
    keep = np.abs(np.diag(r)) > 1e-9
    return np.ascontiguousarray(q[:, keep])


def geometric_bound(a: np.ndarray, b: np.ndarray) -> GeometricBound:
    """Angle-based lower bound on the smallest nonzero eigenvalue of A + B.

    With γ the smaller of the two least nonzero eigenvalues and θ the
    angle between the null spaces (measured after splitting off their
    intersection, on which A + B vanishes identically), checks

        λ_min(A + B) ≥ γ(1 - cos θ)

    where λ_min skips the shared null space.  When one null space sits
    inside the other, nothing remains after the split; θ is then zero
    and the bound degenerates to the trivial statement λ_min ≥ 0.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("A and B must be square matrices of the same shape")
    _require_dense_dim(a.shape[0])
    for m in (a, b):
        if np.abs(m - m.conj().T).max() > 1e-10 * max(1.0, float(np.abs(m).max())):
            raise ValueError("operator is not Hermitian")
    null_a, least_a = _kernel_basis(a)
    null_b, least_b = _kernel_basis(b)
    positives = [v for v in (least_a, least_b) if v > 0.0]
    gamma = min(positives) if len(positives) == 2 else 0.0

    shared_dim = 0
    cos_theta = 0.0
    if null_a.shape[1] and null_b.shape[1]:
        overlap = null_a.conj().T @ null_b
        u_rot, sigma, _ = np.linalg.svd(overlap, full_matrices=False)
        shared = sigma > 1.0 - 1e-12
        shared_dim = int(np.count_nonzero(shared))
        common = np.ascontiguousarray((null_a @ u_rot)[:, shared])
        rest_a = _deflate_common(null_a, common)
        rest_b = _deflate_common(null_b, common)
        if rest_a.shape[1] and rest_b.shape[1]:
            remainder = np.linalg.svd(
                rest_a.conj().T @ rest_b, compute_uv=False
            )
            cos_theta = float(np.clip(remainder[0], 0.0, 1.0))
        else:
            # One null space exhausted by the intersection: no angle left.
            cos_theta = 1.0

    eigs = scipy.linalg.eigvalsh(a + b)
    min_eig = float(eigs[shared_dim]) if shared_dim < eigs.size else 0.0
    bound = gamma * (1.0 - cos_theta)
    theta = float(np.arccos(np.clip(cos_theta, 0.0, 1.0)))
    return GeometricBound(
        gamma=gamma,
        theta=theta,
        bound=bound,
        min_eig=min_eig,
        holds=bool(min_eig >= bound - 1e-12),
    )

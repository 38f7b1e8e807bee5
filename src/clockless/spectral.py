"""Eigensolvers, the ground-space certificates, and subspace-angle diagnostics.

A parent Hamiltonian's ground space is never searched for: it is the span
of the grid states it is built from (the injective-PEPS parent theorem;
Pérez-García, Verstraete, Wolf and Cirac, arXiv:0707.2260), and each
entry point certifies that claim with no eigenvalue cutoff.

* ``parent_spectrum``, behind ``build``, ``scan`` and ``gap_vs_bound``,
  takes the levels above the grid states from the lowest eigenvalues of
  the operator with those states lifted out of the way: by
  ``dense_spectrum``, a full Hermitian eigendecomposition and the oracle
  of the tests, up to ``DENSE_QUBITS`` qubits, and by ``low_spectrum``,
  ARPACK's implicitly restarted iteration over matrix-free operator
  applications, past that.
* ``ground_certificate``, behind ``verify``'s ground row, bounds the angle
  between one grid state and the ground vector by Davis–Kahan, from one
  Sylvester inertia count on an LDL† factor of the shifted parent.

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
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh, splu

from .circuit import LayeredCircuit
from .hamiltonian import HamiltonianSpec, SparseOperator, assemble, parent_spec
from .limits import dense_bytes, require, vector_bytes
from .linalg import basis_state, require_projector
from .peps import PepsState, build_peps, resolve_deltas

__all__ = [
    "DENSE_QUBITS",
    "ConvergenceError",
    "SpectralReport",
    "dense_spectrum",
    "ground_certificate",
    "low_spectrum",
    "parent_spectrum",
    "gap_vs_bound",
    "detectability_check",
    "union_bound_check",
    "JordanBlock",
    "JordanDecomposition",
    "jordan_angles",
    "GeometricBound",
    "geometric_bound",
]

_log = logging.getLogger(__name__)


class ConvergenceError(RuntimeError):
    """Raised when the iterative solver runs out of budget.

    Carries the number of operator applications spent, so a caller can
    tell a hopeless tolerance from a budget set too low. Its ``args`` are
    the constructor's, so it survives the pickle that brings a worker's
    exception back through ``limits.fork_map``.
    """

    def __init__(self, message: str, iterations: int):
        super().__init__(message, iterations)
        self.iterations = iterations

    def __str__(self) -> str:
        message, iterations = self.args
        return f"{message} (after {iterations} operator applications)"


@dataclass(frozen=True)
class SpectralReport:
    """Lowest eigenvalues of a Hermitian operator, with quality metadata.

    ``lowest_eigenvalues`` is ascending, with one residual norm ``‖Hv -
    λv‖`` per eigenvector the solver checked, lowest first.
    ``dense_spectrum`` and ``low_spectrum`` report levels only and claim no
    ground space: ``ground_dim`` 0, ``gap`` NaN and ``ground_resolved``
    False.  ``parent_spectrum`` fills the three in: ``ground_dim`` counts
    the grid states that span the parent's ground space, ``ground_resolved``
    says whether the level above them is certified apart from them, and
    ``gap`` is that level minus the lowest one, or NaN when it is not
    resolved.
    """

    lowest_eigenvalues: np.ndarray
    residuals: np.ndarray
    method: str
    ground_dim: int = 0
    gap: float = float("nan")
    ground_resolved: bool = False

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
        for arr in (eigs, self.residuals):
            arr.flags.writeable = False
        object.__setattr__(self, "lowest_eigenvalues", eigs)


# Dense complex 2^N x 2^N matrices each dense path holds at its peak, rounded
# up; measured on 10-qubit parents (tracemalloc / growth of peak RSS):
# dense_spectrum's matrix, eigh's copy and the eigenvectors, 3.0-3.1 /
# 3.3-3.5; the Bunch–Kaufman fallback of ground_certificate, its matrix
# factored in place and scipy's unpacked L and D, 3.1 complex and 1.6 real
# (tracemalloc).  11 qubits fit the budget and 12 do not.  The sparse factor
# holds far less but is refused at the same size: it falls back to the
# dense one, and its fill grows faster than the matrix (95 M entries at 14
# qubits).
_SPECTRUM_COPIES = 4
_GROUND_COPIES = 4


def _as_dense(op) -> np.ndarray:
    """The square array ``op``, refused when it is over the memory budget."""
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {op.shape}")
    qubits = (op.shape[0] - 1).bit_length()
    require("a dense eigendecomposition", qubits, dense_bytes(qubits))
    return op


def dense_spectrum(mat: np.ndarray, vectors: int) -> SpectralReport:
    """Every eigenvalue of the Hermitian array ``mat``, by ``scipy.linalg.eigh``;
    the oracle for everything else.  The residuals of the lowest ``vectors``
    eigenvectors are reported."""
    eigs, basis = scipy.linalg.eigh(mat)
    kept = np.ascontiguousarray(basis[:, :vectors])
    residuals = np.linalg.norm(mat @ kept - kept * eigs[: kept.shape[1]], axis=0)
    return SpectralReport(
        lowest_eigenvalues=eigs, residuals=residuals, method="dense"
    )


def _rounding_bound(*factors) -> float:
    """γ_n ‖F₁⋯F_k‖₂ of nonnegative n x n factors, γ_n = (nε/2) / (1 - nε/2),
    by ‖M‖₂ ≤ sqrt(‖M‖₁‖M‖∞): two chains of matrix-vector products."""
    dim = factors[0].shape[0]
    rows = cols = np.ones(dim)
    for f in reversed(factors):
        rows = f @ rows
    for f in factors:
        cols = f.T @ cols
    nu = dim * np.finfo(np.float64).eps / 2
    return nu / (1 - nu) * math.sqrt(float(rows.max()) * float(cols.max()))


def _bunch_kaufman(shifted: np.ndarray) -> tuple[int, float]:
    """Negative eigenvalues of the dense Hermitian ``shifted``, and the
    backward error bound of the factor they are counted on.

    LAPACK's Bunch–Kaufman ``?sytrf``/``?hetrf`` (through
    ``scipy.linalg.ldl``, in place) factors it as L D L†, D block diagonal
    with 1x1 and 2x2 blocks; D is tridiagonal, so its negative eigenvalues
    come from ``eigvalsh_tridiagonal`` on its diagonal and the moduli of its
    subdiagonal.  The computed factors are exact for a matrix within
    p(n)u(|A| + |L||D||L†|) of A entrywise (Higham, *Accuracy and Stability
    of Numerical Algorithms*, Thm 11.3), with |A| ≤ |L||D||L†| to first
    order; p(n)u is taken as γ_n.
    """
    low, d, _ = scipy.linalg.ldl(shifted, overwrite_a=True, check_finite=False)
    del shifted  # its memory holds LAPACK's packed factor, no longer needed
    diag, sub = d.diagonal().real.copy(), np.abs(d.diagonal(-1))
    del d
    count = int(np.count_nonzero(scipy.linalg.eigvalsh_tridiagonal(diag, sub) < 0))
    low = np.abs(low)
    tri = scipy.sparse.diags([sub, np.abs(diag), sub], [-1, 0, 1], format="csr")
    return count, 2 * _rounding_bound(low, tri, low.T)


def _inertia(
    h: scipy.sparse.csr_matrix, tau: float, limit: float
) -> tuple[int, float]:
    """Eigenvalues of the sparse Hermitian ``h`` below ``tau``, counted on an
    LDL† factor of ``h - tau·I``, and b: the factor is exact for a matrix
    within b of ``h - tau·I`` in the 2-norm.

    SuperLU (``scipy.sparse.linalg.splu``) factors it in a minimum-degree
    order of ``H + Hᵀ`` with diagonal pivots only, so that ``U = D L†`` and D
    is U's diagonal; by Sylvester's law of inertia D has as many negative
    entries as ``h - tau·I`` has negative eigenvalues (Golub & Van Loan,
    *Matrix Computations*, §4.4).  A factor without pivoting has no
    stability guarantee on an indefinite matrix, so it is used only when
    SuperLU kept the row order equal to the column order, no pivot is zero
    and b = γ_n ‖|L||U|‖ (Higham, Thm 9.3) is at most ``limit``.  Otherwise,
    with a log record naming the reason, ``_bunch_kaufman`` counts on the
    dense matrix.
    """
    shifted = (h - tau * scipy.sparse.identity(h.shape[0])).tocsc()
    try:
        lu = splu(
            shifted,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as e:  # a structurally or exactly singular column
        reason = f"SuperLU stopped ({e})"
    else:
        pivots = lu.U.diagonal()
        if not np.array_equal(lu.perm_r, lu.perm_c):
            reason = "SuperLU pivoted off the diagonal"
        elif not pivots.all():
            reason = "a pivot is zero"
        else:
            b = _rounding_bound(abs(lu.L), abs(lu.U))
            if b <= limit:
                return int(np.count_nonzero(pivots.real < 0)), b
            reason = f"its backward error bound {b:.3g} exceeds {limit:.3g}"
    _log.info(
        "sparse LDL† of H - %.3g·I not trusted: %s; counting on a dense "
        "Bunch–Kaufman factor",
        tau, reason,
    )
    return _bunch_kaufman(shifted.toarray(order="F"))


# A zero level of H + σQQ† (norm ≤ 2σ, σ the sum of the terms' Frobenius
# norms) can come out a few ε·σ high; 64·ε·σ covers that at 1/180 of
# cnot_bulk's smallest margin (1.2e4·ε·σ, δ = 0.03).
_FLOOR_EPS = 64 * np.finfo(float).eps


def ground_certificate(op: SparseOperator, q: np.ndarray, tol: float) -> float:
    """A bound on sin θ, θ the angle between the unit vector ``q`` and the
    ground vector of ``op``, or NaN when ``op``'s ground is not certified
    unique; ``tol`` is the sin² the bound should reach.

    With e0 = q†Hq and r = ‖Hq - e0·q‖, one inertia count at τ = e0 + r +
    2r/√tol (``_inertia``) decides.  A count of one, on a factor exact
    within b, proves the second eigenvalue λ1 ≥ τ - b (Weyl), and then the
    Davis–Kahan sin θ theorem bounds sin θ ≤ r / (τ - b - e0 - r) (Davis and
    Kahan, SIAM J. Numer. Anal. 7, 1 (1970)).  The sparse factor is trusted
    up to b = r/√tol, half of τ's margin over e0 + r, which keeps sin² θ ≤
    tol; on verify's parents b is 2e-15 to 2e-12 and the margin 1.7e-11 to
    5.2e-11.  Any other count, as when a level lies between the ground one
    and τ, gives NaN: no cutoff stands in for the certificate.  A residual
    of exactly 0, as at delta = 1 where q can be an exact floating-point
    eigenvector, would leave τ no margin; there ``parent_spectrum``'s
    rounding floor 64·ε·σ, σ the sum of the terms' Frobenius norms, stands
    in for r in τ's margin and the trust limit, and the bound is 0.  A
    residual below the floor but not 0 (9.8e-32 for identity2 at delta =
    1) can leave a margin that the factor's error b swallows although the
    count is 1; then the count is made once more with the floor standing
    in for r.  Refused over the memory budget of the dense fallback before
    anything is built.
    """
    qubits = op.num_qubits
    copies = _GROUND_COPIES * dense_bytes(qubits)
    require("a ground-state factorization", qubits, copies)
    hq = op.apply(q)
    e0 = float(np.vdot(q, hq).real)
    r = float(np.linalg.norm(hq - e0 * q))
    h = op.to_sparse()
    h = h.real.astype(np.float64) if not h.data.imag.any() else h
    floor = _FLOOR_EPS * sum(float(np.linalg.norm(t.block)) for t in op.terms)

    def count_at(scale: float) -> tuple[int, float]:
        limit = scale / math.sqrt(tol)
        tau = e0 + r + 2 * limit
        count, b = _inertia(h, tau, limit)
        return count, tau - b - e0 - r

    count, margin = count_at(r or floor)
    if count == 1 and not margin > 0 and 0 < r < floor:
        count, margin = count_at(floor)
    if count != 1 or not margin > 0:
        return float("nan")
    return r / margin


def low_spectrum(
    op: LinearOperator,
    k: int = 6,
    tol: float = 1e-10,
    max_iter: int = 5000,
    seed: int = 0,
) -> SpectralReport:
    """Lowest ``k`` eigenpairs of ``op`` by ARPACK (``scipy.sparse.linalg.eigsh``).

    ARPACK's implicitly restarted iteration only applies the operator to
    vectors and keeps max(2k+1, 20) of them.  The complex starting vector
    comes from a seeded generator, so a fixed seed reproduces the result
    exactly.  ``tol`` is ARPACK's relative Ritz-residual tolerance, and
    every returned pair is then checked to have ``‖Hv - λv‖ ≤ max(tol,
    1e-12)``.  ``max_iter`` is ARPACK's budget of implicit restarts.  ``k``
    must lie in 1..dim-2, ARPACK's limit, and a basis over the memory
    budget is refused before it is allocated.  Raises ``ConvergenceError``,
    with the number of operator applications spent, when the budget runs
    out or the residual check fails.  Like any single-vector Krylov method
    it finds further copies of a degenerate level only through rounding;
    ``dense_spectrum`` is the oracle to check it against.
    """
    dim = op.shape[0]
    if not 1 <= k <= dim - 2:
        raise ValueError(f"k={k} must lie in 1..{dim - 2} for dimension {dim}")
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    qubits = (dim - 1).bit_length()
    # Beside its ncv Lanczos vectors ARPACK holds its three work vectors,
    # its residual, the start vector and the shifted matvec's three
    # temporaries while it iterates, or the k + 1 Ritz vectors while it
    # extracts, and a (3ncv + 5)·ncv work array (tracemalloc on the 14-qubit
    # C14 parent: 28.1 vectors at k = 1, 29.1 at k = 4).
    ncv = max(2 * k + 1, 20)
    nbytes = vector_bytes(qubits, ncv + max(k, 3) + 6) + 16 * (3 * ncv + 5) * ncv
    require("an ARPACK basis", qubits, nbytes)

    spent = 0

    def matvec(v: np.ndarray) -> np.ndarray:
        nonlocal spent
        spent += 1
        return op.matvec(v)

    rng = np.random.default_rng(seed)
    start = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    # ARPACK in scipy 1.17 silently drops a Ritz value of exactly 0.0, as
    # the zero modes of a projector sum can be.  A tiny seeded shift moves
    # them off zero; ARPACK's test is relative to |λ - shift|, and a shift
    # near 1 loosened it enough to lose copies of a degenerate level (seeds
    # 3, 7 and 10 of the 14-qubit C14 parent at delta 0.5).
    shift = 1e-6 * (1.0 + rng.random())
    shifted = LinearOperator(
        op.shape, matvec=lambda v: matvec(v) - shift * v, dtype=np.complex128
    )
    try:
        eigs, vectors = eigsh(
            shifted, k=k, which="SA", v0=start, tol=tol, maxiter=max_iter
        )
    except ArpackNoConvergence as e:
        raise ConvergenceError(
            f"lowest {k} eigenpairs did not reach tolerance {tol:g} "
            f"within {max_iter} restarts",
            spent,
        ) from e
    order = np.argsort(eigs)
    eigs = eigs[order] + shift
    vectors = np.ascontiguousarray(vectors[:, order])
    residuals = np.array(
        [np.linalg.norm(matvec(v) - e * v) for e, v in zip(eigs, vectors.T)]
    )
    if float(residuals.max()) > max(tol, 1e-12):
        raise ConvergenceError(
            f"residual check failed at {residuals.max():.3e} > {tol:g}", spent
        )
    return SpectralReport(
        lowest_eigenvalues=eigs, residuals=residuals, method="iterative"
    )


# Largest operator, in qubits, that the dense oracles handle. From eleven
# qubits on the iterative solver finds the same lowest eigenvalues many
# times faster: on two vCPUs, 0.1-0.3 s against 4.3-4.9 s for a full
# diagonalization at eleven qubits.
DENSE_QUBITS = 10


def parent_spectrum(
    spec: HamiltonianSpec,
    state: PepsState,
    k: int = 1,
    tol: float = 1e-10,
    max_iter: int = 5000,
    seed: int = 0,
) -> SpectralReport:
    """The ground space and lowest excited levels of ``state``'s parent ``spec``.

    ``state`` is the honest grid state at the all-zeros witness.  The parent
    is frustration-free, and the grid states over the g = 2^(n-a) witness
    basis states span its ground space (the injective-PEPS parent theorem;
    Pérez-García, Verstraete, Wolf and Cirac, arXiv:0707.2260).  Modified
    Gram–Schmidt makes them the columns q of Q, ``state`` first and
    unchanged; their Rayleigh quotients are the ground energies, and
    r = max ‖Hq - (q†Hq)q‖.  The excited levels, max(k - g, 1) with k at
    most 2^N, are the lowest eigenvalues of H + σQQ†, σ the sum of the terms'
    Frobenius norms (≥ ‖H‖): by ``dense_spectrum`` up to ``DENSE_QUBITS``, by
    ``low_spectrum`` with ``tol``, ``max_iter`` and ``seed`` past that.  The
    ground space is resolved when the lowest excited level less its
    residual exceeds r plus a rounding floor of 64·ε·σ; otherwise the gap
    is NaN.  The basis and a dense matrix are refused over the memory
    budget before they are built.
    """
    c, qubits = state.circuit, spec.layout.num_qubits
    free = c.n - c.a
    if state.fault is not None or not np.array_equal(state.xi, basis_state(0, free)):
        raise ValueError("need the honest grid state at the all-zeros witness")
    g = 2**free
    require("the witness basis", qubits, vector_bytes(qubits, g))
    basis = [state.amplitudes] + [
        np.array(build_peps(c, state.delta_per_layer, basis_state(j, free)).amplitudes)
        for j in range(1, g)
    ]
    for j in range(1, g):
        for q in basis[:j]:
            basis[j] -= np.vdot(q, basis[j]) * q
        basis[j] /= np.linalg.norm(basis[j])
    operator = assemble(spec)
    energies, ground_residuals = [], []
    for q in basis:
        hq = operator.apply(q)
        energies.append(float(np.vdot(q, hq).real))
        ground_residuals.append(float(np.linalg.norm(hq - energies[-1] * q)))
    sigma = sum(float(np.linalg.norm(t.block)) for t in spec.terms)
    m = max(min(k, operator.dim) - g, 1)
    if qubits <= DENSE_QUBITS:
        copies = _SPECTRUM_COPIES * dense_bytes(qubits)
        require("a dense eigendecomposition", qubits, copies)
        mat = operator.to_sparse().toarray()
        for q in basis:
            mat += np.outer(sigma * q, q.conj())
        excited = dense_spectrum(mat, vectors=m)
    else:
        def deflated(v: np.ndarray) -> np.ndarray:
            return operator.apply(v) + sigma * sum(np.vdot(q, v) * q for q in basis)

        excited = low_spectrum(
            LinearOperator((operator.dim,) * 2, deflated, dtype=np.complex128),
            k=m, tol=tol, max_iter=max_iter, seed=seed,
        )
    levels = excited.lowest_eigenvalues[:m]
    floor = max(ground_residuals) + _FLOOR_EPS * sigma
    resolved = bool(levels[0] - excited.residuals[0] > floor)
    eigs = np.concatenate([energies, levels])
    return SpectralReport(
        lowest_eigenvalues=eigs,
        ground_dim=g,
        gap=float(eigs[g] - eigs[0]) if resolved else float("nan"),
        residuals=np.concatenate([ground_residuals, excited.residuals]),
        method=excited.method,
        ground_resolved=resolved,
    )


def gap_vs_bound(c: LayeredCircuit, deltas, seed: int = 0) -> tuple[float, float]:
    """Measured gap of the parent Hamiltonian next to its weight product.

    Returns ``(gap, product)`` where the product multiplies, over layers,
    the layer's injectivity weight raised to eight times its locality, the
    largest gate arity in the layer.  The theory promises gap ≥ product
    over a polynomial factor that it does not pin down, so the measured
    ratio is only logged for inspection.  The gap is taken above the full
    degenerate ground space, which has dimension 2^(n-a) when a < n, and
    is NaN when ``parent_spectrum`` does not resolve that space.
    """
    schedule = resolve_deltas(deltas, c.depth)
    spec, state = parent_spec(c, schedule), build_peps(c, schedule)
    gap = parent_spectrum(spec, state, seed=seed).gap
    arity = [max(g.arity for g in layer) for layer in c.layers]
    product = float(np.prod([d ** (8 * k) for d, k in zip(schedule, arity)]))
    _log.info(
        "gap %.6e, weight product %.6e, ratio %.6e", gap, product, gap / product
    )
    return gap, product


def _sweep(projectors, state: np.ndarray) -> np.ndarray:
    """Apply (1 - Q) for each projector, in the order given."""
    phi = np.asarray(state, dtype=np.complex128).copy()
    for q in projectors:
        phi = phi - q @ phi
    return phi


def detectability_check(
    projectors, g: float, state: np.ndarray
) -> tuple[float, float]:
    """Detectability bound for a family of overlapping projectors.

    With φ the state after applying (1 - Q_i) in list order, and e_φ the
    energy of normalized φ under ΣQ_i, checks

        ‖φ‖² ≤ 1 / (e_φ / g² + 1)

    where ``g`` bounds how many other family members each projector fails
    to commute with.  Returns (lhs, rhs).
    """
    checked = [require_projector(q) for q in projectors]
    if g <= 0:
        raise ValueError(f"overlap degree g must be positive, got {g}")
    phi = _sweep(checked, state)
    lhs = float(np.linalg.norm(phi) ** 2)
    if lhs < 1e-30:
        return 0.0, 1.0
    unit = phi / math.sqrt(lhs)
    energy = sum(float(np.real(unit.conj() @ (q @ unit))) for q in checked)
    return lhs, 1.0 / (energy / g**2 + 1.0)


def union_bound_check(projectors, state: np.ndarray) -> tuple[float, float]:
    """Union bound: the sweep retains all weight the energy does not claim.

    With φ as in ``detectability_check`` and H = ΣQ_i, checks

        ‖φ‖² ≥ 1 - 4⟨ψ|H|ψ⟩.

    Returns (lhs, rhs).
    """
    checked = [require_projector(q) for q in projectors]
    psi = np.asarray(state, dtype=np.complex128)
    phi = _sweep(checked, psi)
    lhs = float(np.linalg.norm(phi) ** 2)
    energy = sum(float(np.real(psi.conj() @ (q @ psi))) for q in checked)
    return lhs, 1.0 - 4.0 * energy


@dataclass(frozen=True)
class JordanBlock:
    """One invariant block shared by a pair of projectors.

    ``basis`` holds one or two orthonormal columns; ``left`` and ``right``
    are the two projectors compressed onto that basis.
    """

    basis: np.ndarray
    left: np.ndarray
    right: np.ndarray


@dataclass(frozen=True)
class JordanDecomposition:
    """Principal angles and the invariant blocks that realize them.

    ``cosines`` are the singular values of the overlap between the two
    ranges, descending.  The blocks are mutually orthogonal, each invariant
    under both projectors, and cover both ranges completely; directions
    annihilated by both projectors are omitted since they contribute
    nothing.  ``max_residual`` is the worst invariance defect
    ‖P·B - B·(local P)‖ over all blocks and both sides.
    """

    cosines: np.ndarray
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


# The small (at most 32 x 32) eigensolves below use numpy's one-thread LAPACK,
# not scipy's pool: on 2 vCPUs, 200 jordan instances took 0.17 s against
# 0.21 s, 200 geometric ones 0.046 s against 0.071 s.
def _range_basis(p: np.ndarray) -> np.ndarray:
    eigs, vecs = np.linalg.eigh(p)
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
    first = require_projector(_as_dense(np.asarray(p1, dtype=np.complex128)), 1e-10)
    second = require_projector(_as_dense(np.asarray(p2, dtype=np.complex128)), 1e-10)
    if first.shape != second.shape:
        raise ValueError("projectors must act on the same space")
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
        blocks=tuple(blocks),
        max_residual=worst,
    )


class GeometricBound(NamedTuple):
    gamma: float
    theta: float
    bound: float
    min_eig: float


# Eigenvalues below this count as a kernel direction in ``geometric_bound``.
_KERNEL_CUTOFF = 1e-9


def _kernel_basis(mat: np.ndarray) -> tuple[np.ndarray, float]:
    """Null-space basis and smallest nonzero eigenvalue of a PSD matrix."""
    eigs, vecs = np.linalg.eigh(mat)
    if eigs[0] < -1e-8 * max(1.0, abs(eigs[-1])):
        raise ValueError(f"operator is not positive semidefinite (λmin={eigs[0]:.3e})")
    null = vecs[:, eigs < _KERNEL_CUTOFF]
    positive = eigs[eigs >= _KERNEL_CUTOFF]
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
    a = _as_dense(np.asarray(a, dtype=np.complex128))
    b = _as_dense(np.asarray(b, dtype=np.complex128))
    if a.shape != b.shape:
        raise ValueError("A and B must be square matrices of the same shape")
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

    eigs = np.linalg.eigvalsh(a + b)
    min_eig = float(eigs[shared_dim]) if shared_dim < eigs.size else 0.0
    bound = gamma * (1.0 - cos_theta)
    theta = float(np.arccos(np.clip(cos_theta, 0.0, 1.0)))
    return GeometricBound(
        gamma=gamma,
        theta=theta,
        bound=bound,
        min_eig=min_eig,
    )

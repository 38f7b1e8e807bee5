"""Eigensolvers and subspace-angle diagnostics for grid Hamiltonians.

There are two eigensolvers.  ``dense_spectrum`` is the oracle: a full
Hermitian eigendecomposition, against which everything else in the package
is checked.  ``low_spectrum`` wraps ARPACK's implicitly restarted iteration
(``scipy.sparse.linalg.eigsh``) over matrix-free operator applications, and
reaches the sizes the dense path cannot.  Both report eigenvalues in
ascending order, the dimension of the zero-energy ground space, and the gap
above it, and both refuse a run over the memory budget before they
allocate.  ``parent_spectrum`` is the entry point of ``build``, ``scan``
and ``gap_vs_bound``.  It takes a parent Hamiltonian's ground space from
the grid states it is built from, and the levels above it from the lowest
eigenvalues of the operator with those states lifted out of the way: dense
up to ``DENSE_QUBITS`` qubits, iterative past that.  ``ground_state`` is the
inertia oracle for a ground-state check: one LDL† factor of
``H - GROUND_CUTOFF·I``, sparse where that can be trusted (3-13 ms at 10
qubits on 2 vCPUs, against 30-160 ms dense), counts the eigenvalues below
the cutoff, and inverse iteration on it gives a unique ground vector.

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
from scipy.sparse.linalg import (
    ArpackNoConvergence,
    LinearOperator,
    SuperLU,
    aslinearoperator,
    eigsh,
    splu,
)

from .circuit import LayeredCircuit
from .hamiltonian import (
    HamiltonianSpec,
    SparseOperator,
    assemble,
    parent_spec,
)
from .limits import dense_bytes, require, vector_bytes
from .linalg import basis_state, require_projector
from .peps import PepsState, build_peps, resolve_deltas

__all__ = [
    "DENSE_QUBITS",
    "GROUND_CUTOFF",
    "ConvergenceError",
    "GroundState",
    "SpectralReport",
    "dense_spectrum",
    "ground_state",
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

# Eigenvalues below this absolute cutoff count as ground states in the two
# oracles and ``ground_state``; ``parent_spectrum`` has no cutoff.
GROUND_CUTOFF = 1e-9


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
    """Lowest eigenpairs of a Hermitian operator, with quality metadata.

    ``lowest_eigenvalues`` is ascending; ``ground_dim`` counts entries
    below ``GROUND_CUTOFF``, or in ``parent_spectrum`` the grid states that
    span the ground space.  ``gap`` is the first eigenvalue above the
    ground space minus the lowest one, or NaN when it is not visible.  One
    residual norm ``‖Hv - λv‖`` is stored per retained eigenvector column.
    ``ground_resolved`` is False when the ground space is not told apart
    from the levels above: every value lies below the cutoff, or a parent's
    ground space is not certified (see ``parent_spectrum``).
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


# Dense complex 2^N x 2^N matrices each dense path holds at its peak, rounded
# up; measured on 10-qubit parents (tracemalloc / growth of peak RSS):
# dense_spectrum's matrix, eigh's copy and the eigenvectors, 3.0-3.1 /
# 3.3-3.5; ground_state's Bunch–Kaufman shifted matrix and factor, 2.1 / 2.2
# complex and 1.6 / 1.8 real.  11 qubits fit the budget and 12 do not.  The
# sparse path of ground_state holds far less but is refused at the same size:
# it falls back to the dense one, and its fill grows faster than the matrix
# (95 M entries at 14 qubits).
_SPECTRUM_COPIES = 4
_GROUND_COPIES = 3

# Rows per slab of the Hermitian check of a dense matrix.
_CHECK_ROWS = 64


def _require_square(op, what: str, copies: int) -> None:
    """Refuse a matrix ``op`` that is not square, or of which ``copies``
    dense matrices are over budget."""
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {op.shape}")
    qubits = (op.shape[0] - 1).bit_length()
    require(what, qubits, copies * dense_bytes(qubits))


def _as_dense(
    op, what: str = "a dense eigendecomposition", copies: int = 1
) -> np.ndarray:
    """The square array ``op``, refused as ``_require_square`` does."""
    if not isinstance(op, np.ndarray):
        raise TypeError(f"cannot materialize {type(op).__name__} as a dense matrix")
    _require_square(op, what, copies)
    return op


def _finite(top: float) -> float:
    """``top``, the largest entry of a matrix, refused when not finite."""
    if not math.isfinite(top):
        raise ValueError("operator has a non-finite entry")
    return top


def _sparse_hermitian(
    op, what: str, copies: int
) -> tuple[scipy.sparse.csr_matrix, float]:
    """The CSR matrix of a ``SparseOperator`` or scipy sparse ``op`` and its
    largest entry (at least 1), checked finite and Hermitian within 1e-10 of
    that scale.  Refused before it is built when ``copies`` dense matrices of
    its size are over budget."""
    if isinstance(op, SparseOperator):
        require(what, op.num_qubits, copies * dense_bytes(op.num_qubits))
        sparse = op.to_sparse()
    else:
        _require_square(op, what, copies)
        sparse = scipy.sparse.csr_matrix(op)
    scale = max(1.0, _finite(float(abs(sparse).max())))
    if float(abs(sparse - sparse.conj().T).max()) > 1e-10 * scale:
        raise ValueError("operator is not Hermitian")
    return sparse, scale


def _hermitian(op, what: str, copies: int) -> tuple[np.ndarray, float]:
    """The dense matrix of ``op`` and its largest entry (at least 1), checked
    finite and Hermitian within 1e-10 of that scale.  A sparse input is
    checked by ``_sparse_hermitian`` and then densified; a dense one one slab
    of rows at a time, with no full-size temporaries beside the matrix."""
    if isinstance(op, SparseOperator) or scipy.sparse.issparse(op):
        sparse, scale = _sparse_hermitian(op, what, copies)
        return sparse.toarray(), scale
    mat = _as_dense(op, what, copies)
    scale = skew = 0.0
    for lo in range(0, mat.shape[0], _CHECK_ROWS):
        rows = mat[lo : lo + _CHECK_ROWS]
        scale = max(scale, _finite(float(np.abs(rows).max())))
        cols = mat[:, lo : lo + _CHECK_ROWS].conj().T
        skew = max(skew, float(np.abs(rows - cols).max()))
    scale = max(1.0, scale)
    if skew > 1e-10 * scale:
        raise ValueError("operator is not Hermitian")
    return mat, scale


def dense_spectrum(op, vectors: int | None = None) -> SpectralReport:
    """Hermitian eigendecomposition; the oracle for everything else.

    All eigenvalues are reported.  Eigenvector columns are retained for the
    lowest few pairs only: enough to span the ground space plus one, or
    eight, whichever is larger; pass ``vectors`` to override.
    """
    mat, _ = _hermitian(op, "a dense eigendecomposition", _SPECTRUM_COPIES)
    eigs, basis = scipy.linalg.eigh(mat)
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
    )


class GroundState(NamedTuple):
    """Inertia count below ``GROUND_CUTOFF`` and the ground vector it implies.

    ``ground_dim`` is the number of eigenvalues below the cutoff, exact.
    When it is 1, ``vector`` is the unit ground vector, ``energy`` its
    Rayleigh quotient, ``residual`` ``‖Hx - (x†Hx)x‖`` and ``solves`` the
    inverse-iteration steps spent; otherwise ``vector`` is None, the two
    floats NaN and ``solves`` 0.
    """

    ground_dim: int
    vector: np.ndarray | None
    energy: float
    residual: float
    solves: int


def _negative_pivots(factor: np.ndarray, pivots: np.ndarray) -> int:
    """Negative eigenvalues of the block-diagonal D of a lower Bunch–Kaufman
    factor (LAPACK ``?sytrf``/``?hetrf`` storage): a 2x2 block, marked by two
    equal negative pivot entries, holds one negative eigenvalue when its
    determinant is negative and two when it is positive with a negative
    diagonal."""
    diag = factor.diagonal().real.tolist()
    sub = factor.diagonal(-1).tolist()
    piv = pivots.tolist()
    count = k = 0
    while k < len(diag):
        if piv[k] > 0:
            count += diag[k] < 0
            k += 1
            continue
        a, c = diag[k], diag[k + 1]
        det = a * c - abs(sub[k]) ** 2
        if det < 0:
            count += 1
        elif det > 0:
            count += 2 * (a < 0)
        else:
            count += a + c < 0
        k += 2
    return count


# Inverse iteration in ground_state: residual tolerance relative to the
# largest entry, step budget and start-vector seed.  On verify's parents the
# residual reaches 3e-16 to 6e-15 after 2 steps.
_GROUND_TOL = 1e-12
_GROUND_SOLVES = 10
_GROUND_SEED = 0

# The sparse factor has no pivoting to bound its rounding, so its count is
# taken only when the computed factors are exact for a matrix within this
# distance of H - GROUND_CUTOFF·I.  By Weyl's inequality an eigenvalue can
# then land on the wrong side of the cutoff only from within 1% of the
# cutoff; the levels that decide verify's counts (zero modes of 1e-13 and
# below, and cnot_bulk's first excited level, 3.9e-10 to 2.3e-9 at delta
# 0.04-0.05) lie well outside that band.  On verify's parents the bound is
# 1.9e-15 to 1.9e-12, five times below the limit or more; a zero diagonal,
# whose unpivoted factor grows like 1/GROUND_CUTOFF, puts it near 1e-7.
_SPARSE_BACKWARD_ERROR = 1e-2 * GROUND_CUTOFF


def _inverse_iteration(solve, shifted, real: bool, scale: float) -> GroundState:
    """The unique ground vector of ``shifted + GROUND_CUTOFF·I`` by inverse
    iteration with ``solve``, a solver for ``shifted``, from a seeded start."""
    dim = shifted.shape[0]
    rng = np.random.default_rng(_GROUND_SEED)
    x = rng.standard_normal(dim)
    if not real:
        x = x + 1j * rng.standard_normal(dim)
    tol = _GROUND_TOL * scale
    for solves in range(1, _GROUND_SOLVES + 1):
        x = solve(x)
        x /= np.linalg.norm(x)
        hx = shifted @ x
        rayleigh = float(np.vdot(x, hx).real)
        residual = float(np.linalg.norm(hx - rayleigh * x))
        # An eigenvalue just above the cutoff can sit nearer the shift than
        # the ground one; its vector has a positive shifted Rayleigh quotient.
        if residual <= tol and rayleigh < 0:
            return GroundState(1, x, rayleigh + GROUND_CUTOFF, residual, solves)
    raise ConvergenceError(
        f"inverse iteration did not reach residual {tol:g} below the cutoff "
        f"within {_GROUND_SOLVES} solves",
        _GROUND_SOLVES,
    )


def _bunch_kaufman_ground(mat: np.ndarray, scale: float) -> GroundState:
    """``ground_state`` of a dense Hermitian ``mat`` on LAPACK's Bunch–Kaufman
    factor of ``mat - GROUND_CUTOFF·I``."""
    real = not np.iscomplexobj(mat) or not mat.imag.any()
    # The shifted matrix stays for the residuals; the factor gets its own
    # copy, in the column order LAPACK overwrites in place.
    if real:
        shifted = np.array(mat.real, dtype=np.float64)
        names = ("sytrf", "sytrf_lwork", "sytrs")
    else:
        shifted = np.array(mat, dtype=np.complex128)
        names = ("hetrf", "hetrf_lwork", "hetrs")
    del mat
    dim = shifted.shape[0]
    shifted.flat[:: dim + 1] -= GROUND_CUTOFF
    trf, trf_lwork, trs = scipy.linalg.get_lapack_funcs(names, (shifted,))
    work, _ = trf_lwork(dim, lower=1)
    factor, pivots, info = trf(
        np.asfortranarray(shifted), lower=1, lwork=int(work.real), overwrite_a=1
    )
    count = _negative_pivots(factor, pivots)
    if count != 1:
        nan = float("nan")
        return GroundState(count, None, nan, nan, 0)
    if info > 0:
        raise np.linalg.LinAlgError(f"H - {GROUND_CUTOFF:g}·I is singular")
    return _inverse_iteration(
        lambda x: trs(factor, pivots, x, lower=1, overwrite_b=1)[0],
        shifted, real, scale,
    )


def _sparse_factor(shifted) -> tuple[SuperLU | None, str]:
    """SuperLU's factor of the sparse Hermitian ``shifted`` in a symmetric
    order and without pivoting, or None and the reason it cannot be trusted
    as an LDL† factor."""
    try:
        lu = splu(
            shifted.tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as e:  # a structurally or exactly singular column
        return None, f"SuperLU stopped ({e})"
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None, "SuperLU pivoted off the diagonal"
    if not lu.U.diagonal().all():
        return None, "a pivot is zero"
    # Computed factors satisfy LU = A + E with |E| <= γ_n |L||U| (Higham,
    # *Accuracy and Stability of Numerical Algorithms*, Thm 9.3), and
    # ‖E‖₂ <= sqrt(‖E‖₁‖E‖∞); both norms of |L||U| are two matvecs each.
    dim = shifted.shape[0]
    nu = dim * np.finfo(np.float64).eps / 2  # γ_n = nu / (1 - nu)
    low, up, ones = abs(lu.L), abs(lu.U), np.ones(dim)
    rows = float((low @ (up @ ones)).max())
    cols = float((up.T @ (low.T @ ones)).max())
    bound = nu / (1 - nu) * math.sqrt(rows * cols)
    if not bound <= _SPARSE_BACKWARD_ERROR:
        return None, (
            f"its backward error bound {bound:.3g} exceeds "
            f"{_SPARSE_BACKWARD_ERROR:g}"
        )
    return lu, ""


def ground_state(op) -> GroundState:
    """Ground-space dimension by Sylvester inertia, and the unique ground vector.

    ``op`` is checked Hermitian as in ``dense_spectrum``, and refused over
    the same memory budget whatever its packaging; a matrix with no
    imaginary part is factored as real.  A factor ``H - GROUND_CUTOFF·I =
    L D L†`` has, by Sylvester's law of inertia, exactly as many negative
    entries in D as H has eigenvalues below the cutoff (Golub & Van Loan,
    *Matrix Computations*, §4.4).

    A ``SparseOperator`` or scipy sparse matrix is factored on its sparse
    matrix by SuperLU (``scipy.sparse.linalg.splu``), in a minimum-degree
    order of ``H + Hᵀ`` with diagonal pivots only, so that ``U = D L†`` and
    D is U's diagonal.  A factor without pivoting has no stability guarantee
    on an indefinite matrix, so its count is used only when SuperLU kept the
    row order equal to the column order, no pivot is zero, and the rounding
    bound γ_n ‖|L||U|‖ stays below 1% of the cutoff.  Otherwise, with a log
    record naming the reason, and for any dense input, LAPACK's
    Bunch–Kaufman ``?sytrf`` (real) or ``?hetrf`` (complex) factors the
    dense matrix, and ``_negative_pivots`` counts D's negative eigenvalues.

    When the count is one, inverse iteration on the same factor, from a
    seeded random start, runs until ``‖Hx - (x†Hx)x‖`` is at most 1e-12
    times the largest entry of H (at least 1) and ``x†Hx`` lies below the
    cutoff.  Raises ``ConvergenceError`` when ten steps do not get there
    (as when an eigenvalue above the cutoff lies nearer to it than the
    ground one), and ``numpy.linalg.LinAlgError`` when the dense factor is
    singular.
    """
    what = "a ground-state factorization"
    if not (isinstance(op, SparseOperator) or scipy.sparse.issparse(op)):
        return _bunch_kaufman_ground(*_hermitian(op, what, _GROUND_COPIES))
    sparse, scale = _sparse_hermitian(op, what, _GROUND_COPIES)
    real = not np.iscomplexobj(sparse) or not sparse.data.imag.any()
    sparse = sparse.real.astype(np.float64) if real else sparse.astype(np.complex128)
    dim = sparse.shape[0]
    shifted = (sparse - GROUND_CUTOFF * scipy.sparse.identity(dim)).tocsr()
    lu, reason = _sparse_factor(shifted)
    if lu is None:
        _log.info(
            "sparse LDL† of H - %g·I not trusted: %s; counting on a dense "
            "Bunch–Kaufman factor",
            GROUND_CUTOFF, reason,
        )
        return _bunch_kaufman_ground(sparse.toarray(), scale)
    count = int(np.count_nonzero(lu.U.diagonal().real < 0))
    if count != 1:
        nan = float("nan")
        return GroundState(count, None, nan, nan, 0)
    return _inverse_iteration(lu.solve, shifted, real, scale)


def _as_linear_operator(op) -> LinearOperator:
    """View an operator as a scipy ``LinearOperator``, whatever its packaging."""
    if isinstance(op, SparseOperator):
        return op.as_linear_operator()
    if not (
        isinstance(op, (np.ndarray, LinearOperator)) or scipy.sparse.issparse(op)
    ):
        raise TypeError(f"cannot interpret {type(op).__name__} as a linear operator")
    if len(op.shape) != 2 or op.shape[0] != op.shape[1]:
        raise ValueError(f"expected a square operator, got shape {op.shape}")
    return aslinearoperator(op)


def low_spectrum(
    op,
    k: int = 6,
    tol: float = 1e-10,
    max_iter: int = 5000,
    seed: int = 0,
) -> SpectralReport:
    """Lowest ``k`` eigenpairs by ARPACK, through ``scipy.sparse.linalg.eigsh``.

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
    base = _as_linear_operator(op)
    dim = base.shape[0]
    if not 1 <= k <= dim - 2:
        raise ValueError(f"k={k} must lie in 1..{dim - 2} for dimension {dim}")
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    qubits = (dim - 1).bit_length()
    require("an ARPACK basis", qubits, vector_bytes(qubits, max(2 * k + 1, 20)))

    spent = 0

    def matvec(v: np.ndarray) -> np.ndarray:
        nonlocal spent
        spent += 1
        return base.matvec(v)

    rng = np.random.default_rng(seed)
    start = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    # ARPACK in scipy 1.17 silently drops a Ritz value of exactly 0.0, as
    # the zero modes of a projector sum can be.  A tiny seeded shift moves
    # them off zero; ARPACK's test is relative to |λ - shift|, and a shift
    # near 1 loosened it enough to lose copies of a degenerate level (seeds
    # 3, 7 and 10 of the 14-qubit C14 parent at delta 0.5).
    shift = 1e-6 * (1.0 + rng.random())
    shifted = LinearOperator(
        base.shape, matvec=lambda v: matvec(v) - shift * v, dtype=np.complex128
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
    ground = _ground_dim(eigs)
    residuals = np.array(
        [np.linalg.norm(matvec(v) - e * v) for e, v in zip(eigs, vectors.T)]
    )
    if float(residuals.max()) > max(tol, 1e-12):
        raise ConvergenceError(
            f"residual check failed at {residuals.max():.3e} > {tol:g}", spent
        )
    return SpectralReport(
        lowest_eigenvalues=eigs,
        ground_dim=ground,
        gap=_gap(eigs, ground),
        residuals=residuals,
        method="iterative",
        eigenvectors=vectors,
        ground_resolved=ground < eigs.size,
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
    # A zero level of H + σQQ† (norm ≤ 2σ) can come out a few ε·σ high; 64·ε·σ
    # covers that at 1/180 of cnot_bulk's smallest margin (1.2e4·ε·σ, δ = 0.03).
    floor = max(ground_residuals) + 64 * np.finfo(float).eps * sigma
    resolved = bool(levels[0] - excited.residuals[0] > floor)
    eigs = np.concatenate([energies, levels])
    return SpectralReport(
        lowest_eigenvalues=eigs,
        ground_dim=g,
        gap=_gap(eigs, g) if resolved else float("nan"),
        residuals=np.concatenate([ground_residuals, excited.residuals]),
        method=excited.method,
        eigenvectors=np.column_stack([*basis, excited.eigenvectors]),
        ground_resolved=resolved,
    )


def gap_vs_bound(c: LayeredCircuit, deltas, seed: int = 0) -> tuple[float, float]:
    """Measured gap of the parent Hamiltonian next to its weight product.

    Returns ``(gap, product)`` where the product multiplies, over layers,
    the layer's injectivity weight raised to eight times its locality, the
    largest gate arity in the layer.  The theory promises gap ≥ product
    over a polynomial factor that it does not pin down, so only positivity
    is enforced here; the measured ratio is logged for inspection.  The gap
    is taken above the full degenerate ground space, which has dimension
    2^(n-a) when a < n.
    """
    schedule = resolve_deltas(deltas, c.depth)
    spec, state = parent_spec(c, schedule), build_peps(c, schedule)
    gap = parent_spectrum(spec, state, seed=seed).gap
    if not gap > 0.0:
        raise ArithmeticError(f"parent Hamiltonian gap {gap!r} is not positive")
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
) -> tuple[float, float, bool]:
    """Detectability bound for a family of overlapping projectors.

    With φ the state after applying (1 - Q_i) in list order, and e_φ the
    energy of normalized φ under ΣQ_i, checks

        ‖φ‖² ≤ 1 / (e_φ / g² + 1)

    where ``g`` bounds how many other family members each projector fails
    to commute with.  Returns (lhs, rhs, holds).
    """
    checked = [require_projector(q) for q in projectors]
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
    checked = [require_projector(q) for q in projectors]
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
    eigs, vecs = np.linalg.eigh(mat)
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
        holds=bool(min_eig >= bound - 1e-12),
    )

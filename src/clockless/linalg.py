"""Dense state-vector helpers shared across the package.

Conventions, fixed once and used everywhere: a state over N qubits is a numpy
vector of length 2**N with qubit 0 as the least significant bit of the
amplitude index. Operator matrices list their wires most-significant-first,
so ``apply_matrix(psi, CNOT, (0, 1), 2)`` has wire 0 as the control. Nothing
in this module knows about grids, circuits, or Hamiltonians.

``apply_matrix`` is a streamed contraction. It views the (2,)*N + (batch,)
tensor with the operator's wires as the leading axes, fixes just enough of
the most significant free axes that each piece holds at most
``_PIECE_AMPS`` amplitudes, copies each piece contiguously, contracts it
with the operator and writes it into one output buffer; nothing else of
size 2**N is allocated. A state that fits in one piece is copied once and
contracted with one matmul, exactly as a plain moveaxis/reshape contraction
does. ``sparse_expectation`` is the quadratic form <v|op|v> of a vector
given only by its nonzero entries; it never touches the other 2**N
amplitudes.

All functions are pure; inputs are never mutated.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence

import numpy as np

__all__ = [
    "apply_maps",
    "apply_matrix",
    "basis_state",
    "bit_placement",
    "is_hermitian",
    "is_projector",
    "is_unitary",
    "overlap",
    "partial_trace",
    "product_state",
    "random_projector",
    "random_state",
    "random_unitary",
    "require_projector",
    "sparse_expectation",
    "trace_distance",
    "trace_norm",
]

# Amplitudes per piece of the streamed contraction (1 MiB of complex128).
# Large enough that the fixed cost of one matmul call and the Python around
# it stays small next to the piece's copy; every block up to 8 qubits that
# ``apply_maps`` dresses (2^16 amplitudes) stays a single piece.
_PIECE_AMPS = 2**16


def basis_state(index: int, num_qubits: int) -> np.ndarray:
    """Computational basis vector |index> over ``num_qubits`` qubits."""
    if not 0 <= index < 2**num_qubits:
        raise ValueError(f"basis index {index} out of range for {num_qubits} qubits")
    vec = np.zeros(2**num_qubits, dtype=np.complex128)
    vec[index] = 1.0
    return vec


def bit_placement(positions: Sequence[int]) -> np.ndarray:
    """Indices of all bit patterns over the listed bit positions.

    Entry ``i`` spreads the bits of the local index ``i`` (bit ``b`` of ``i``
    goes to global bit ``positions[b]``) and is zero everywhere else. Useful
    for embedding small blocks into larger registers without reshapes.
    """
    local = np.arange(2 ** len(positions), dtype=np.int64)
    out = np.zeros_like(local)
    for b, q in enumerate(positions):
        out += ((local >> b) & 1) << q
    return out


def _check_wires(wires: Sequence[int], num_qubits: int) -> None:
    if len(set(wires)) != len(wires):
        raise ValueError(f"wires must be distinct, got {tuple(wires)}")
    for w in wires:
        if not 0 <= w < num_qubits:
            raise ValueError(f"wire {w} out of range for {num_qubits} qubits")


def _check_operator(
    state: np.ndarray, op: np.ndarray, wires: Sequence[int], num_qubits: int
) -> np.ndarray:
    op = np.asarray(op, dtype=np.complex128)
    k = len(wires)
    if op.shape != (2**k, 2**k):
        raise ValueError(f"operator shape {op.shape} does not match {k} wires")
    _check_wires(wires, num_qubits)
    if state.shape[0] != 2**num_qubits:
        raise ValueError(
            f"state length {state.shape[0]} does not match {num_qubits} qubits"
        )
    return op


def _support_order(wires: Sequence[int], num_qubits: int) -> list[int]:
    """Axis order of a (2,)*N + (batch,) tensor that puts the wires first.

    Axis j of the tensor is qubit N-1-j. The wires' axes come first in wire
    order, then the free axes, most significant qubit first, then the batch
    axis.
    """
    axes = [num_qubits - 1 - w for w in wires]
    taken = set(axes)
    return axes + [j for j in range(num_qubits + 1) if j not in taken]


def _support_first(work: np.ndarray, order: Sequence[int]) -> np.ndarray:
    """View of a (2**N, batch) array as a tensor in ``_support_order``."""
    return work.reshape((2,) * (len(order) - 1) + (work.shape[1],)).transpose(order)


def _piece_tails(view: np.ndarray, k: int) -> list[tuple[int, ...]]:
    """Values of the leading free axes that split a support-first view.

    As few leading free axes are fixed as bring a piece down to
    ``_PIECE_AMPS`` amplitudes, or all of them when even that is not
    enough; one empty tail means the view is a single piece.
    """
    fixed = 0
    while fixed < view.ndim - 1 - k and view.size >> fixed > _PIECE_AMPS:
        fixed += 1
    return list(itertools.product((0, 1), repeat=fixed))


def apply_matrix(
    state: np.ndarray,
    op: np.ndarray,
    wires: Sequence[int],
    num_qubits: int,
) -> np.ndarray:
    """Apply a k-qubit operator to selected wires of a state vector.

    ``state`` has shape ``(2**num_qubits,)`` or ``(2**num_qubits, batch)``;
    the batch axis, when present, is carried through untouched (this is how
    dense embeddings are produced in one shot). ``wires`` are listed
    most-significant-first with respect to the operator's index convention.
    """
    op = _check_operator(state, op, wires, num_qubits)
    batched = state.ndim == 2
    work = np.asarray(state if batched else state[:, None], dtype=np.complex128)
    k = len(wires)
    order = _support_order(wires, num_qubits)
    view = _support_first(work, order)
    if work.size <= _PIECE_AMPS:  # one piece, without the piece loop
        applied = op @ np.ascontiguousarray(view).reshape(2**k, -1)
        out = np.empty(work.shape, dtype=np.complex128)
        _support_first(out, order)[...] = applied.reshape(view.shape)
        return out if batched else out[:, 0]
    head = (slice(None),) * k
    out = None
    for tail in _piece_tails(view, k):
        # Copied even when the piece is a strided view already: BLAS
        # runs far slower on rows that sit a power of two apart.
        applied = op @ np.ascontiguousarray(view[head + tail]).reshape(2**k, -1)
        if out is None:
            # Allocated once the first piece's copy is freed, so a state of
            # one piece holds input, product and output, no fourth buffer.
            out = np.empty(work.shape, dtype=np.complex128)
            target = _support_first(out, order)
        dest = target[head + tail]
        dest[...] = applied.reshape(dest.shape)
    return out if batched else out[:, 0]


def sparse_expectation(
    indices: np.ndarray,
    amps: np.ndarray,
    op: np.ndarray,
    wires: Sequence[int],
    num_qubits: int,
) -> complex:
    """Quadratic form <v|op|v> of the vector v whose only nonzero entries are
    ``amps``; no normalization is applied.

    ``indices`` are the distinct positions of ``amps`` in the 2**N vector,
    as ``np.flatnonzero`` returns them; wires follow ``apply_matrix``. Each
    index splits into its bits off the wires (the group key) and its local
    index on them. The amplitudes of a group fill one row of a
    (groups x 2**k) matrix M, and the form is ``vdot(M, M @ op.T)``. M is
    filled ``_PIECE_AMPS`` amplitudes' worth of groups at a time, so the
    workspace is O(nnz) whatever k. Cost: O(nnz * (log nnz + 2**k)) for nnz
    nonzeros, independent of N.
    """
    op = np.asarray(op, dtype=np.complex128)
    k = len(wires)
    if op.shape != (2**k, 2**k):
        raise ValueError(f"operator shape {op.shape} does not match {k} wires")
    _check_wires(wires, num_qubits)
    indices = np.asarray(indices, dtype=np.int64)
    amps = np.asarray(amps, dtype=np.complex128)
    if indices.ndim != 1 or amps.ndim != 1:
        raise ValueError(
            f"indices and amplitudes must be 1-D, got shapes {indices.shape} "
            f"and {amps.shape}"
        )
    if indices.size != amps.size:
        raise ValueError(
            f"{indices.size} indices do not match {amps.size} amplitudes"
        )
    ordered = np.sort(indices)
    if ordered.size and (ordered[0] < 0 or int(ordered[-1]) >> num_qubits):
        raise ValueError(f"an index is out of range for {num_qubits} qubits")
    if (ordered[1:] == ordered[:-1]).any():
        raise ValueError("indices must be distinct")
    local = np.zeros_like(indices)
    mask = 0
    # Wire a is bit k-1-a of a local index, as in ``apply_matrix``.
    for a, w in enumerate(wires):
        local |= ((indices >> w) & 1) << (k - 1 - a)
        mask |= 1 << w
    keys, group = np.unique(indices & ~mask, return_inverse=True)
    # Groups per chunk of M; past one chunk the entries are sorted by group
    # and cut where a chunk ends. One chunk keeps its form bit for bit.
    per = max(1, _PIECE_AMPS >> k)
    cuts = [0, indices.size]
    if keys.size > per:
        order = np.argsort(group, kind="stable")
        group, local, amps = group[order], local[order], amps[order]
        cuts[1:1] = np.searchsorted(group, range(per, keys.size, per)).tolist()
    total = None
    for start, lo, hi in zip(range(0, keys.size + 1, per), cuts, cuts[1:]):
        rows = np.zeros((min(per, keys.size - start), 2**k), dtype=np.complex128)
        rows[group[lo:hi] - start, local[lo:hi]] = amps[lo:hi]
        part = np.vdot(rows, rows @ op.T)
        total = part if total is None else total + part
    return complex(total)


def apply_maps(
    block: np.ndarray,
    maps: Iterable[tuple[np.ndarray, Sequence[int]]],
    num_qubits: int,
    both_sides: bool = True,
) -> np.ndarray:
    """``L @ block @ L.T`` for L the product of small ``(matrix, wires)`` maps.

    Wires follow ``apply_matrix``; the first map acts first. Each map acts on
    the rows of the 2**N x 2**N block, then through the transpose on its
    columns, so L is never formed: a k-qubit map costs about 2**(k+1) * 4**N
    multiply-adds where one dense product costs 8**N. ``both_sides=False``
    returns ``L @ block``. For real symmetric maps ``L.T`` is ``L``.
    """
    maps = list(maps)

    def on_rows(mat_in: np.ndarray) -> np.ndarray:
        for mat, wires in maps:
            mat_in = apply_matrix(mat_in, mat, wires, num_qubits)
        return mat_in

    out = on_rows(np.asarray(block, dtype=np.complex128))
    return on_rows(out.T).T if both_sides else out


def product_state(
    factors: Iterable[tuple[np.ndarray, Sequence[int]]], num_qubits: int
) -> np.ndarray:
    """Assemble a tensor product of factors living on disjoint qubit sets.

    Each factor is ``(vector, qubits)`` with the qubits listed
    most-significant-first for that factor's own index convention. The qubit
    sets must partition ``range(num_qubits)`` exactly.
    """
    order: list[int] = []
    tensor = np.ones((), dtype=np.complex128)
    for vec, qubits in factors:
        vec = np.asarray(vec, dtype=np.complex128)
        k = len(qubits)
        if vec.shape != (2**k,):
            raise ValueError(
                f"factor on {k} qubits must have length {2**k}, got {vec.shape}"
            )
        tensor = np.multiply.outer(tensor, vec.reshape((2,) * k))
        order.extend(qubits)
    if sorted(order) != list(range(num_qubits)):
        raise ValueError("factor qubit sets must partition the qubit range")
    pos = {q: i for i, q in enumerate(order)}
    perm = [pos[num_qubits - 1 - j] for j in range(num_qubits)]
    return tensor.transpose(perm).reshape(-1)


def partial_trace(
    state: np.ndarray, keep: Sequence[int], num_qubits: int
) -> np.ndarray:
    """Reduced density matrix of a pure state on the ``keep`` qubits.

    The returned matrix indexes ``keep[0]`` as its most significant bit,
    matching the wire convention of apply_matrix.
    """
    keep = list(keep)
    _check_wires(keep, num_qubits)
    psi = np.asarray(state, dtype=np.complex128).reshape((2,) * num_qubits)
    keep_axes = [num_qubits - 1 - q for q in keep]
    traced = [ax for ax in range(num_qubits) if ax not in keep_axes]
    rho = np.tensordot(psi, psi.conj(), axes=(traced, traced))
    remaining = sorted(keep_axes)
    perm = [remaining.index(ax) for ax in keep_axes]
    k = len(keep)
    rho = rho.transpose(perm + [p + k for p in perm])
    return rho.reshape(2**k, 2**k)


def overlap(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>| for two state vectors (phase-insensitive)."""
    return float(abs(np.vdot(a, b)))


def random_state(num_qubits: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unit vector over ``num_qubits`` qubits."""
    dim = 2**num_qubits
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vec / np.linalg.norm(vec)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary, QR of a complex Gaussian with phase fixing."""
    z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_projector(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Random rank-``rank`` orthogonal projector on a ``dim``-dim space."""
    if not 0 <= rank <= dim:
        raise ValueError(f"rank {rank} out of range for dimension {dim}")
    u = random_unitary(dim, rng)[:, :rank]
    return u @ u.conj().T


def is_hermitian(m: np.ndarray, tol: float = 1e-12) -> bool:
    return bool(np.max(np.abs(m - m.conj().T)) <= tol)


def is_unitary(m: np.ndarray, tol: float = 1e-12) -> bool:
    eye = np.eye(m.shape[0])
    return bool(np.max(np.abs(m.conj().T @ m - eye)) <= tol)


def is_projector(m: np.ndarray, tol: float = 1e-12) -> bool:
    return is_hermitian(m, tol) and bool(np.max(np.abs(m @ m - m)) <= tol)


def require_projector(m, tol: float = 1e-12, what: str = "matrix") -> np.ndarray:
    """``m`` as an array; ValueError unless it is a square matrix that
    ``is_projector`` accepts within ``tol``."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not is_projector(m, tol):
        raise ValueError(f"{what} of shape {m.shape} is not a projector within {tol:g}")
    return m


def trace_norm(m: np.ndarray) -> float:
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    return 0.5 * trace_norm(rho - sigma)

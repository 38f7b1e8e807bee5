"""Local Hamiltonian whose frustration-free ground space is the grid state.

Every term is a dressed projector ``L P L`` where ``P`` projects onto the
violation of one local consistency condition of the grid state and ``L`` is a
tensor product of single-pair maps ``lambda_matrix(delta)`` that undo the
injective deformation on the shifted pairs in the projector's neighborhood.
Because each ``L`` is invertible, a state is annihilated by the dressed term
exactly when the undeformed state is annihilated by ``P``, so the common
kernel of all terms is the image of the deformation applied to the common
kernel of the bare projectors.

Each ``P`` is ``I - K K† ⊗ I`` for an orthonormal ``K`` on a few inner
qubits, and a ``DressedTerm`` keeps only these factors: the (pair, delta)
list, the inner qubits and ``K``. Its energy needs no 2^k x 2^k block:
``<v|L P L|v> = ‖Lv‖² - ‖(K† ⊗ I) Lv‖²``, one ``apply_matrix`` per pair and
one contraction of ``K†`` onto the inner qubits. Its block, for the matvec,
the sparse export and the rotated frame, is built on first use in closed
form, ``L² - W W†`` with ``W = L (K ⊗ I)``: ``L²`` is a Kronecker product of
the pairs' ``Λ(δ)²`` (``squared_dressing``) and ``W`` (``kernel_factor``)
one ``apply_maps`` on a 2^k x r·2^(k-kv) matrix. The rotated frame reuses
both factors.

Every term offers one protocol: ``kind``, ``support``, ``locality``,
``block``, ``layer`` and ``wires``. It has two implementations, each with
the energy its callers read: the factored ``DressedTerm`` of the grid,
whose ``energy(vec, num_qubits)`` needs no block, and the dense
``LocalTerm``, which the rotated terms of ``rotation`` and the clock terms
of ``fk`` use; ``fk`` reads a clock term's energy with ``sparse_energy``,
off the nonzero entries of a clock state.

Term blocks are stored dense over their support only. The support is kept as
a strictly ascending tuple of grid qubit indices and bit ``i`` of a block's
row/column index is the qubit ``support[i]``. To act on the full register a
block is therefore applied with wire list ``reversed(support)`` (wire lists
are most-significant-first everywhere in this package).

Kinds of term, with their ``K``:

* ``propagation``: forces one gate's step; ``K`` is its Choi vector. Bulk
  terms (layer < depth) act on the 2k shifted pairs straddling a k-wire gate,
  4k qubits. Last-layer terms have no right pairs and act on the k left pairs
  plus the k bare output qubits, 3k qubits.
* ``input``: penalizes one ancilla wire leaving |0>: ``P`` = |1><1| on its
  input qubit, so ``K`` = |0>, dressed on the wire's first-column pair.
* ``output``: only in ``fk``'s unary-clock encoding, a dense term that
  penalizes the output wire reading 0 at the last clock step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Sequence

import numpy as np
import scipy.sparse

from .circuit import Gate, LayeredCircuit
from .limits import coo_bytes, dense_bytes, require
from .linalg import (
    apply_maps,
    apply_matrix,
    bit_placement,
    is_hermitian,
    sparse_expectation,
)
from .pauli import lambda_matrix
from .peps import GridLayout, PepsState, choi_factor, resolve_deltas

__all__ = [
    "LocalTerm",
    "DressedTerm",
    "HamiltonianSpec",
    "SparseOperator",
    "EnergyReport",
    "propagation_term",
    "input_term",
    "parent_spec",
    "assemble",
    "term_energy",
    "energy",
]

# Dense matrices on a term's support that building its block holds beyond
# the block and its kernel factor: ``L²``, ``W W†`` and their difference,
# then the Hermitian check's and the symmetrization's copies (tracemalloc:
# 3.02 on a 6-qubit CNOT last-layer term, 2.13 on an 8-qubit CNOT bulk term
# and 2.03 on a 9-qubit CCZ one, where numpy reuses large temporaries).
_BLOCK_COPIES = 3

# Grid kinds, then the kinds only ``fk``'s unary-clock encoding uses.
_KINDS = ("propagation", "input", "output", "clock")


def _real_energy(val: complex) -> float:
    if abs(val.imag) > 1e-9 * max(1.0, abs(val)):
        raise ValueError(f"term energy came out non-real: {val}")
    return val.real


@dataclass(frozen=True)
class LocalTerm:
    """A Hermitian block stored dense over a strictly ascending support.

    Bit ``i`` of the block's row/column index is qubit ``support[i]``. The
    block is checked Hermitian within 1e-10, symmetrized, and frozen.
    ``layer`` is the 1-based grid layer the term belongs to (1 for input
    terms) and ``wires`` the circuit wires it touches; a term of ``fk``
    keeps its time step in ``layer`` and has no wires. Both are bookkeeping
    only.
    """

    kind: str
    support: tuple[int, ...]
    block: np.ndarray
    layer: int
    wires: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown term kind {self.kind!r}")
        support = tuple(int(q) for q in self.support)
        if list(support) != sorted(set(support)):
            raise ValueError(f"support must be strictly ascending, got {support}")
        block = np.asarray(self.block, dtype=np.complex128)
        dim = 2 ** len(support)
        if block.shape != (dim, dim):
            raise ValueError(
                f"block shape {block.shape} does not match support of "
                f"{len(support)} qubits"
            )
        if not is_hermitian(block, tol=1e-10):
            raise ValueError("term block must be Hermitian")
        block = 0.5 * (block + block.conj().T)
        block.flags.writeable = False
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "block", block)
        object.__setattr__(self, "wires", tuple(int(w) for w in self.wires))

    @property
    def locality(self) -> int:
        return len(self.support)

    def __str__(self) -> str:
        return f"{self.kind}[layer {self.layer}, wires {self.wires}]"

    def sparse_energy(
        self, indices: np.ndarray, amps: np.ndarray, num_qubits: int
    ) -> float:
        """The quadratic form <v|h|v> of the block, unnormalized, for the
        vector v whose only nonzero entries are ``amps``.

        ``indices`` are their distinct positions; see ``sparse_expectation``
        for the cost, which does not grow with ``num_qubits``.
        """
        return _real_energy(
            sparse_expectation(
                indices, amps, self.block, tuple(reversed(self.support)), num_qubits
            )
        )


@dataclass(frozen=True, eq=False)
class DressedTerm:
    """One dressed projector ``L (I - K K† ⊗ I) L`` kept as its factors.

    ``pairs`` lists disjoint ``((q, q + 1), delta)`` pairs that ``L``
    dresses, ``inner`` the qubits ``K`` acts on (most significant first) and
    ``basis`` is ``K``, orthonormal within 1e-10, which makes ``L P L``
    Hermitian. ``kind``, ``layer`` and ``wires`` are as in ``LocalTerm``;
    the support is the pair and inner qubits.
    """

    kind: str
    layer: int
    wires: tuple[int, ...]
    pairs: tuple[tuple[tuple[int, int], float], ...]
    inner: tuple[int, ...]
    basis: np.ndarray
    support: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        pairs = tuple(((int(lo), int(hi)), float(d)) for (lo, hi), d in self.pairs)
        paired = [q for pair, _ in pairs for q in pair]
        inner = tuple(int(q) for q in self.inner)
        basis = np.array(self.basis, dtype=np.complex128)
        if self.kind not in _KINDS:
            raise ValueError(f"unknown term kind {self.kind!r}")
        if any(hi != lo + 1 for (lo, hi), _ in pairs) or len(set(paired)) < len(paired):
            raise ValueError(f"pairs must be disjoint (q, q + 1) pairs, got {pairs}")
        if len(set(inner)) < len(inner):
            raise ValueError(f"repeated inner qubits: {inner}")
        if basis.ndim != 2 or basis.shape[0] != 2 ** len(inner):
            raise ValueError(f"basis shape {basis.shape} does not match inner {inner}")
        gram = basis.conj().T @ basis - np.eye(basis.shape[1])
        if not np.abs(gram).max(initial=0.0) <= 1e-10:  # NaN fails too
            raise ValueError("basis columns must be orthonormal")
        basis.flags.writeable = False
        values = (tuple(int(w) for w in self.wires), pairs, inner, basis)
        for name, value in zip(("wires", "pairs", "inner", "basis"), values):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "support", tuple(sorted(set(paired) | set(inner))))

    locality = LocalTerm.locality
    __str__ = LocalTerm.__str__

    @cached_property
    def _maps(self) -> list[tuple[np.ndarray, tuple[int, int]]]:
        """Each pair's ``Λ(δ)`` on its grid qubits, the higher one first."""
        return [(lambda_matrix(d), (hi, lo)) for (lo, hi), d in self.pairs]

    def energy(self, vec: np.ndarray, num_qubits: int) -> float:
        """``‖Lv‖² - ‖(K† ⊗ I) Lv‖²``; no normalization, no block."""
        lv = np.asarray(vec, dtype=np.complex128)
        if lv.shape != (2**num_qubits,) or max(self.support, default=0) >= num_qubits:
            raise ValueError(f"{self} does not fit a vector of shape {lv.shape}")
        for lam, wires in self._maps:
            lv = apply_matrix(lv, lam, wires, num_qubits)
        axes = [num_qubits - 1 - q for q in self.inner]
        inner_first = np.moveaxis(lv.reshape((2,) * num_qubits), axes, range(len(axes)))
        kept = self.basis.conj().T @ inner_first.reshape(len(self.basis), -1)
        return float(np.vdot(lv, lv).real - np.vdot(kept, kept).real)

    def squared_dressing(self, support: Sequence[int] | None = None) -> np.ndarray:
        """``L²`` on ``support``, a sorted support that holds the term's
        pairs (by default the term's own): a Kronecker product of each pair's
        ``Λ(δ)²`` on its two adjacent bits and the identity elsewhere."""
        support = self.support if support is None else tuple(support)
        bits = {q: i for i, q in enumerate(support)}
        squares = {bits[hi]: lam @ lam for lam, (hi, _) in self._maps}
        factors, bit = [], len(support) - 1
        while bit >= 0:  # np.kron's first factor takes the top bits
            factors.append(squares.get(bit, np.eye(2)))
            bit -= 2 if bit in squares else 1
        return reduce(np.kron, factors)

    @cached_property
    def kernel_factor(self) -> np.ndarray:
        """``W = L (K ⊗ I)`` over the support, 2^k x r·2^(k-kv), built once.

        Row bit ``i`` is qubit ``support[i]``; column ``j·r + c`` holds
        ``K``'s column c with the other bits at index j. Its
        columns span ``L`` applied to the kernel of ``P``, so the block is
        ``L² - W W†``.
        """
        k = self.locality
        bits = {q: i for i, q in enumerate(self.support)}
        inner = [bits[q] for q in self.inner]
        rest = [b for b in range(k) if b not in inner]
        rows = bit_placement(inner[::-1])[:, None] + bit_placement(rest)
        lifted = np.zeros((2**k, rows.shape[1], self.basis.shape[1]), np.complex128)
        lifted[rows, np.arange(rows.shape[1])] = self.basis[:, None, :]
        maps = [(lam, (bits[hi], bits[lo])) for lam, (hi, lo) in self._maps]
        w = apply_maps(lifted.reshape(2**k, -1), maps, k, both_sides=False)
        w.flags.writeable = False
        return w

    @cached_property
    def block(self) -> np.ndarray:
        """``L² - W W†`` over the support (see ``kernel_factor``); built once."""
        w = self.kernel_factor
        closed = self.squared_dressing() - w @ w.conj().T
        return LocalTerm(self.kind, self.support, closed, self.layer).block


def propagation_term(g: Gate, layer: int, deltas, layout: GridLayout) -> DressedTerm:
    """Dressed projector forcing one gate's step of the grid state."""
    schedule = resolve_deltas(deltas, layout.depth)
    if not 1 <= layer <= layout.depth:
        raise ValueError(f"layer {layer} out of range 1..{layout.depth}")
    last = layer == layout.depth
    left = [(layout.site_qubits(layer, w), schedule[layer - 1]) for w in g.wires]
    right = (
        []
        if last
        else [(layout.site_qubits(layer + 1, w), schedule[layer]) for w in g.wires]
    )
    vec, qubits = choi_factor(g, layer, layout)
    pairs = left + right
    return DressedTerm("propagation", layer, g.wires, pairs, qubits, vec[:, None])


def input_term(wire: int, delta: float, layout: GridLayout) -> DressedTerm:
    """Dressed penalty for ancilla ``wire`` leaving |0>: the check |1><1| on
    its input qubit, dressed on the wire's first-column pair."""
    pair = (layout.site_qubits(1, wire), float(delta))
    inner = (layout.input_qubit(wire),)
    return DressedTerm("input", 1, (wire,), (pair,), inner, [[1.0], [0.0]])


@dataclass(frozen=True)
class HamiltonianSpec:
    """An ordered list of terms over one grid."""

    layout: GridLayout
    terms: tuple[DressedTerm, ...]

    def __post_init__(self) -> None:
        terms = tuple(self.terms)
        for t in terms:
            if t.support and t.support[-1] >= self.layout.num_qubits:
                raise ValueError(
                    f"term {t} exceeds the {self.layout.num_qubits}-qubit grid"
                )
        object.__setattr__(self, "terms", terms)


def parent_spec(c: LayeredCircuit, deltas) -> HamiltonianSpec:
    """All input and propagation terms of a circuit's grid.

    Term order is: input terms by ancilla wire, then propagation terms layer
    by layer in gate order.
    """
    if c.depth < 1:
        raise ValueError("grid needs at least one layer")
    layout = GridLayout(c.n, c.depth)
    schedule = resolve_deltas(deltas, c.depth)
    terms = [input_term(w, schedule[0], layout) for w in range(c.a)]
    for layer_idx, layer in enumerate(c.layers, start=1):
        for g in layer:
            terms.append(propagation_term(g, layer_idx, schedule, layout))
    return HamiltonianSpec(layout, tuple(terms))


@dataclass(frozen=True)
class SparseOperator:
    """Sum of embedded term blocks, applied term by term without assembly.

    ``apply`` is the primary interface and works at any size; ``to_sparse``
    materializes the operator once ``require_sparse`` finds it within the
    memory budget.
    """

    num_qubits: int
    terms: tuple[LocalTerm | DressedTerm, ...]

    @property
    def dim(self) -> int:
        return 2**self.num_qubits

    def apply(self, vec: np.ndarray) -> np.ndarray:
        vec = np.asarray(vec, dtype=np.complex128)
        if vec.shape != (self.dim,):
            raise ValueError(f"vector shape {vec.shape} does not match {self.dim}")
        out = np.zeros(self.dim, dtype=np.complex128)
        for t in self.terms:
            out += apply_matrix(
                vec, t.block, tuple(reversed(t.support)), self.num_qubits
            )
        return out

    def require_sparse(self) -> int:
        """The number of entries ``to_sparse`` stores; raises ``ResourceError``
        when they do not fit the memory budget."""
        nonzeros = sum(
            np.count_nonzero(t.block) << (self.num_qubits - len(t.support))
            for t in self.terms
        )
        require("a sparse matrix", self.num_qubits, coo_bytes(nonzeros))
        return nonzeros

    def to_sparse(self) -> scipy.sparse.csr_matrix:
        """The operator as CSR, built from one set of coordinates that each
        term writes in place, term by term."""
        size = self.require_sparse()
        rows = np.empty(size, np.int64)
        cols = np.empty(size, np.int64)
        vals = np.empty(size, np.complex128)
        end = 0
        for t in self.terms:
            loc = set(t.support)
            free = [q for q in range(self.num_qubits) if q not in loc]
            loc_place = bit_placement(t.support)
            free_place = bit_placement(free)
            i_loc, j_loc = np.nonzero(t.block)
            start, end = end, end + i_loc.size * free_place.size
            shape = (i_loc.size, free_place.size)
            for out, local in ((rows, i_loc), (cols, j_loc)):
                np.add(loc_place[local][:, None], free_place,
                       out=out[start:end].reshape(shape))
            vals[start:end].reshape(shape)[...] = t.block[i_loc, j_loc][:, None]
        mat = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(self.dim, self.dim))
        return mat.tocsr()


def assemble(spec: HamiltonianSpec) -> SparseOperator:
    """Bundle a spec's terms into a term-wise applicable operator, every
    term's dense block built and cached here.

    The blocks are refused first if they overrun the memory budget: two
    dense matrices per term on its support, its block and its cached
    ``kernel_factor`` (never wider), plus the copies that building the
    largest block holds (``_BLOCK_COPIES``).
    """
    sizes = [dense_bytes(t.locality) for t in spec.terms]
    nbytes = 2 * sum(sizes) + _BLOCK_COPIES * max(sizes)
    require("the term blocks", spec.layout.num_qubits, nbytes)
    for t in spec.terms:
        t.block  # noqa: B018  (built and cached now, under the estimate)
    return SparseOperator(spec.layout.num_qubits, spec.terms)


@dataclass(frozen=True)
class EnergyReport:
    """Total and per-term energies of one state, with violated term indices.

    A term is violated when its energy exceeds the tolerance.
    """

    total: float
    per_term: tuple[float, ...]
    violations: tuple[int, ...]


def term_energy(term: DressedTerm, vec: np.ndarray, num_qubits: int) -> float:
    """<v|h|v> of one term by its own ``energy``, unnormalized."""
    return term.energy(vec, num_qubits)


def energy(spec: HamiltonianSpec, state, tol: float = 1e-9) -> EnergyReport:
    """Evaluate every term on a normalized state.

    ``state`` may be a PepsState or a flat amplitude vector; it must be unit
    norm (use ``term_energy`` directly for unnormalized diagnostics).
    """
    vec = state.amplitudes if isinstance(state, PepsState) else state
    vec = np.asarray(vec, dtype=np.complex128)
    norm = np.linalg.norm(vec)
    if abs(norm - 1.0) > 1e-8:
        raise ValueError(f"energy expects a unit-norm state, got norm {norm}")
    n = spec.layout.num_qubits
    per = tuple(term_energy(t, vec, n) for t in spec.terms)
    total = float(sum(per))
    violations = tuple(i for i, e in enumerate(per) if e > tol)
    return EnergyReport(total, per, violations)

"""Local Hamiltonian whose frustration-free ground space is the grid state.

Every term is a dressed projector ``L P L`` where ``P`` projects onto the
violation of one local consistency condition of the grid state and ``L`` is a
tensor product of single-pair maps ``lambda_matrix(delta)`` that undo the
injective deformation on the shifted pairs in the projector's neighborhood.
Because each ``L`` is invertible, a state is annihilated by the dressed term
exactly when the undeformed state is annihilated by ``P``, so the common
kernel of all terms is the image of the deformation applied to the common
kernel of the bare projectors.

Dressing is local: ``linalg.apply_maps`` puts each 4x4 pair map on the rows
and columns of ``P``'s block, so no dense 2^k x 2^k ``L`` is ever formed.

Term blocks are stored dense over their support only. The support is kept as
a strictly ascending tuple of grid qubit indices and bit ``i`` of a block's
row/column index is the qubit ``support[i]``. To act on the full register a
block is therefore applied with wire list ``reversed(support)`` (wire lists
are most-significant-first everywhere in this package).

Kinds of term:

* ``propagation``: forces one gate's step. Bulk terms (layer < depth) act on
  the 2k shifted pairs straddling a k-wire gate, 4k qubits. Last-layer terms
  have no right pairs and act on the k left pairs plus the k bare output
  qubits, 3k qubits.
* ``input``: penalizes input wires outside a reference projector (by default,
  ancillas away from zero), dressed on the first-column pairs.
* ``stabilizer``: penalizes the -1 eigenspace of a Hermitian involution built
  from Pauli tags on input wires, dressed the same way.
* ``output``: a bare single-qubit penalty on an output-column qubit; the only
  undressed kind, and the only kind the assembly scale multiplies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .circuit import Gate, LayeredCircuit
from .limits import coo_bytes, dense_bytes, require
from .linalg import (
    apply_maps,
    apply_matrix,
    bit_placement,
    embed_operator,
    expectation,
    is_hermitian,
    is_projector,
)
from .pauli import PAULI_TAGS, PauliWord, lambda_matrix, word_matrix
from .peps import GridLayout, PepsState, choi_factor, resolve_deltas

__all__ = [
    "LocalTerm",
    "HamiltonianTerm",
    "HamiltonianSpec",
    "SparseOperator",
    "EnergyReport",
    "propagation_term",
    "input_term",
    "stabilizer_terms",
    "output_term",
    "parent_spec",
    "with_output",
    "assemble",
    "term_energy",
    "energy",
]

_KINDS = ("propagation", "input", "stabilizer", "output")


@dataclass(frozen=True)
class LocalTerm:
    """A Hermitian block stored dense over a strictly ascending support.

    Bit ``i`` of the block's row/column index is qubit ``support[i]``. The
    block is checked Hermitian within 1e-10, symmetrized, and frozen.
    Subclasses check ``kind`` and add their own bookkeeping fields.
    """

    kind: str
    support: tuple[int, ...]
    block: np.ndarray

    def __post_init__(self) -> None:
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

    @property
    def locality(self) -> int:
        return len(self.support)


@dataclass(frozen=True)
class HamiltonianTerm(LocalTerm):
    """One dressed projector of the grid Hamiltonian.

    ``layer`` is the 1-based grid layer the term belongs to (1 for input and
    stabilizer terms, the last layer for output terms) and ``wires`` the
    circuit wires it touches; both are bookkeeping only.
    """

    layer: int
    wires: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown term kind {self.kind!r}")
        super().__post_init__()
        object.__setattr__(self, "wires", tuple(int(w) for w in self.wires))

    def __str__(self) -> str:
        return f"{self.kind}[layer {self.layer}, wires {self.wires}]"


def _local(qubits: Sequence[int], support: tuple[int, ...]) -> tuple[int, ...]:
    """Support-local wires of grid qubits, in the order given."""
    return tuple(support.index(q) for q in qubits)


def _dress(proj: np.ndarray, pairs, support: tuple[int, ...]) -> np.ndarray:
    """``L proj L`` for L the lambda maps of a (pair, delta) list."""
    maps = [(lambda_matrix(d), _local((hi, lo), support)) for (lo, hi), d in pairs]
    return apply_maps(proj, maps, len(support))


def propagation_term(
    g: Gate, layer: int, deltas, layout: GridLayout
) -> HamiltonianTerm:
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
    vec, vec_qubits = choi_factor(g, layer, layout)
    support = tuple(
        sorted({q for pair, _ in left + right for q in pair} | set(vec_qubits))
    )
    k = len(support)
    proj = np.eye(2**k) - embed_operator(
        np.outer(vec, vec.conj()), _local(vec_qubits, support), k
    )
    return HamiltonianTerm(
        "propagation", support, _dress(proj, left + right, support), layer, g.wires
    )


def input_term(
    wire, delta: float, layout: GridLayout, check: np.ndarray | None = None
) -> HamiltonianTerm:
    """Dressed penalty for input wires leaving a reference projector's image.

    ``wire`` is a single circuit wire or a tuple of them; ``check`` is a
    projector on those wires (wire order most-significant-first) whose
    *complement* is penalized. It defaults to the projector onto everything
    but the all-zeros state, which for one wire is just |1><1|.
    """
    wires = (wire,) if isinstance(wire, (int, np.integer)) else tuple(wire)
    if len(set(wires)) != len(wires):
        raise ValueError(f"repeated wires in input term: {wires}")
    k = len(wires)
    if check is None:
        check = np.eye(2**k)
        check[0, 0] = 0.0
    check = np.asarray(check, dtype=np.complex128)
    if check.shape != (2**k, 2**k):
        raise ValueError(
            f"check shape {check.shape} does not match {k} wire(s)"
        )
    if not is_projector(check):
        raise ValueError("input check must be an orthogonal projector")
    pairs = [(layout.site_qubits(1, w), float(delta)) for w in wires]
    support = tuple(sorted(q for pair, _ in pairs for q in pair))
    inputs = _local([layout.input_qubit(w) for w in wires], support)
    proj = embed_operator(check, inputs, len(support))
    return HamiltonianTerm("input", support, _dress(proj, pairs, support), 1, wires)


def _parse_check(check, n: int) -> tuple[float, tuple[str, ...]]:
    sign = 1.0
    if isinstance(check, str):
        text = check.strip()
        if text.startswith("-"):
            sign = -1.0
            text = text[1:]
        tags = tuple(text.split("."))
    elif isinstance(check, PauliWord):
        tags = check.entries
    else:
        tags = tuple(check)
    for tag in tags:
        if tag not in PAULI_TAGS:
            raise ValueError(f"unknown Pauli tag {tag!r} in check")
    if len(tags) != n:
        raise ValueError(f"check has {len(tags)} tags for {n} input wires")
    return sign, tags


def stabilizer_terms(checks, delta: float, layout: GridLayout) -> list[HamiltonianTerm]:
    """Dressed penalties for the -1 eigenspaces of Pauli-word involutions.

    Each check is a dot-separated tag string ("X.Z.Z.X.I"), optionally with
    a leading "-", a PauliWord, or a plain tag sequence, one tag per input
    wire. The signed word must square to the identity and be Hermitian; an
    odd number of XZ factors makes it anti-Hermitian and is rejected.
    """
    terms = []
    for check in checks:
        sign, tags = _parse_check(check, layout.n)
        wires = tuple(w for w, tag in enumerate(tags) if tag != "I")
        if not wires:
            raise ValueError("identity check constrains nothing")
        word = sign * word_matrix(tuple(tags[w] for w in wires))
        if not np.allclose(word, word.conj().T, atol=1e-12):
            raise ValueError(
                f"check {'.'.join(tags)} is not Hermitian (odd XZ count?)"
            )
        if not np.allclose(word @ word, np.eye(word.shape[0]), atol=1e-12):
            raise ValueError(f"check {'.'.join(tags)} does not square to one")
        pairs = [(layout.site_qubits(1, w), float(delta)) for w in wires]
        support = tuple(sorted(q for pair, _ in pairs for q in pair))
        inputs = _local([layout.input_qubit(w) for w in wires], support)
        k = len(support)
        proj = 0.5 * (np.eye(2**k) - embed_operator(word, inputs, k))
        block = _dress(proj, pairs, support)
        terms.append(HamiltonianTerm("stabilizer", support, block, 1, wires))
    return terms


def output_term(row: int, layout: GridLayout) -> HamiltonianTerm:
    """Bare single-qubit |0><0| penalty on an output-column qubit."""
    support = (layout.output_qubit(row),)
    block = np.diag([1.0, 0.0])
    return HamiltonianTerm("output", support, block, layout.depth, (row,))


@dataclass(frozen=True)
class HamiltonianSpec:
    """An ordered list of terms over one grid, plus the output-term scale.

    ``out_scale`` multiplies output terms only, at assembly and in total
    energies; ``None`` means 1. Per-term energies are always unscaled.
    """

    layout: GridLayout
    terms: tuple[HamiltonianTerm, ...]
    out_scale: float | None = None

    def __post_init__(self) -> None:
        terms = tuple(self.terms)
        for t in terms:
            if t.support and t.support[-1] >= self.layout.num_qubits:
                raise ValueError(
                    f"term {t} exceeds the {self.layout.num_qubits}-qubit grid"
                )
        object.__setattr__(self, "terms", terms)

    @property
    def num_terms(self) -> int:
        return len(self.terms)

    def scales(self) -> tuple[float, ...]:
        c = 1.0 if self.out_scale is None else float(self.out_scale)
        return tuple(c if t.kind == "output" else 1.0 for t in self.terms)


def parent_spec(
    c: LayeredCircuit,
    deltas,
    stabilizer_checks=(),
    include_input: bool = True,
) -> HamiltonianSpec:
    """All input, stabilizer, and propagation terms of a circuit's grid.

    Term order is: input terms by ancilla wire, stabilizer terms in the
    given order, then propagation terms layer by layer in gate order. Output
    terms are not included; see ``with_output``.
    """
    if c.depth < 1:
        raise ValueError("grid needs at least one layer")
    layout = GridLayout(c.n, c.depth)
    schedule = resolve_deltas(deltas, c.depth)
    terms: list[HamiltonianTerm] = []
    if include_input:
        for w in range(c.a):
            terms.append(input_term(w, schedule[0], layout))
    terms.extend(stabilizer_terms(stabilizer_checks, schedule[0], layout))
    for layer_idx, layer in enumerate(c.layers, start=1):
        for g in layer:
            terms.append(propagation_term(g, layer_idx, schedule, layout))
    return HamiltonianSpec(layout, tuple(terms))


def with_output(
    spec: HamiltonianSpec, rows: Sequence[int], out_scale: float | None = None
) -> HamiltonianSpec:
    """Append bare output penalties on the given rows and set their scale."""
    extra = tuple(output_term(row, spec.layout) for row in rows)
    return HamiltonianSpec(spec.layout, spec.terms + extra, out_scale)


@dataclass(frozen=True)
class SparseOperator:
    """Sum of embedded term blocks, applied term by term without assembly.

    ``apply`` is the primary interface and works at any size; ``to_sparse``
    and ``dense`` materialize the operator once ``require_sparse`` and
    ``require_dense`` find it within the memory budget.
    """

    num_qubits: int
    terms: tuple[HamiltonianTerm, ...]
    scales: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.terms) != len(self.scales):
            raise ValueError("one scale per term required")

    @property
    def dim(self) -> int:
        return 2**self.num_qubits

    def apply(self, vec: np.ndarray) -> np.ndarray:
        vec = np.asarray(vec, dtype=np.complex128)
        if vec.shape != (self.dim,):
            raise ValueError(f"vector shape {vec.shape} does not match {self.dim}")
        out = np.zeros(self.dim, dtype=np.complex128)
        for t, s in zip(self.terms, self.scales):
            part = apply_matrix(
                vec, t.block, tuple(reversed(t.support)), self.num_qubits
            )
            if s != 1.0:
                part *= s
            out += part
            del part  # freed before the next term's result is allocated
        return out

    def as_linear_operator(self) -> scipy.sparse.linalg.LinearOperator:
        return scipy.sparse.linalg.LinearOperator(
            (self.dim, self.dim), matvec=self.apply, dtype=np.complex128
        )

    def require_sparse(self) -> None:
        nonzeros = sum(
            np.count_nonzero(t.block) << (self.num_qubits - len(t.support))
            for t in self.terms
        )
        require("a sparse matrix", self.num_qubits, coo_bytes(nonzeros))

    def require_dense(self) -> None:
        require("a dense matrix", self.num_qubits, dense_bytes(self.num_qubits))

    def to_sparse(self) -> scipy.sparse.csr_matrix:
        self.require_sparse()
        rows, cols, vals = [], [], []
        for t, s in zip(self.terms, self.scales):
            loc = set(t.support)
            free = [q for q in range(self.num_qubits) if q not in loc]
            loc_place = bit_placement(t.support)
            free_place = bit_placement(free)
            i_loc, j_loc = np.nonzero(t.block)
            v = s * t.block[i_loc, j_loc]
            gi = (loc_place[i_loc][:, None] + free_place[None, :]).ravel()
            gj = (loc_place[j_loc][:, None] + free_place[None, :]).ravel()
            vv = np.broadcast_to(v[:, None], (v.size, free_place.size)).ravel()
            rows.append(gi)
            cols.append(gj)
            vals.append(vv)
        mat = scipy.sparse.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.dim, self.dim),
        )
        return mat.tocsr()

    def dense(self) -> np.ndarray:
        self.require_dense()
        return self.to_sparse().toarray()


def assemble(spec: HamiltonianSpec) -> SparseOperator:
    """Bundle a spec's terms into a term-wise applicable operator."""
    return SparseOperator(spec.layout.num_qubits, spec.terms, spec.scales())


@dataclass(frozen=True)
class EnergyReport:
    """Total and per-term energies of one state, with violated term indices.

    ``per_term`` entries are unscaled; ``total`` folds the output scale in.
    A term is violated when its unscaled energy exceeds the tolerance.
    """

    total: float
    per_term: tuple[float, ...]
    density: float
    violations: tuple[int, ...]
    tolerance: float


def term_energy(term: HamiltonianTerm, vec: np.ndarray, num_qubits: int) -> float:
    """Quadratic form <v|h|v> of one term; no normalization is applied."""
    val = expectation(vec, term.block, tuple(reversed(term.support)), num_qubits)
    if abs(val.imag) > 1e-9 * max(1.0, abs(val)):
        raise ValueError(f"term energy came out non-real: {val}")
    return val.real


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
    total = float(sum(s * e for s, e in zip(spec.scales(), per)))
    violations = tuple(i for i, e in enumerate(per) if e > tol)
    density = total / len(per) if per else 0.0
    return EnergyReport(total, per, density, violations, tol)

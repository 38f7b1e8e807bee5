"""Layered circuits, validation, and the two structural transforms.

A LayeredCircuit is a sequence of layers of gates on n wires; the first a
wires are ancillas initialized to |0>, the remaining n - a carry the witness.
Valid circuits are total: every wire is covered in every layer, with identity
gates materialized explicitly (the Hamiltonian construction places one
propagation term per gate per layer, idle wires included).

Gate matrices index their wires most-significant-first: for CNOT on wires
(c, t), wire c is the control. Wire 0 is the least significant bit of every
state vector, as in linalg.

The helpers every downstream construction shares live here: ``require_valid``
(raise on any ``validate`` diagnostic), ``resolve_witness`` and
``input_state`` (the witness and the input column |0^a> (x) |xi>), and
``nontrivial_gates`` (the serialized non-identity gates).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DENSE_QUBIT_CAP, apply_matrix, basis_state, is_unitary
from .pauli import word_decompose, word_stack

__all__ = [
    "Gate",
    "LayerOperator",
    "LayeredCircuit",
    "NAMED_GATES",
    "Violation",
    "apply_circuit",
    "block_wire",
    "circuit_unitary",
    "degree_reduce",
    "gate",
    "input_state",
    "layer_unitary",
    "layered",
    "nontrivial_gates",
    "pad_identities",
    "parallel_repeat",
    "parallel_wire",
    "require_valid",
    "resolve_witness",
    "validate",
]

NAMED_GATES: dict[str, np.ndarray] = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]], dtype=float),
    "Z": np.diag([1.0, -1.0]),
    "H": np.array([[1, 1], [1, -1]], dtype=float) / np.sqrt(2),
    "S": np.diag([1.0, 1.0j]),
    "T": np.diag([1.0, np.exp(1.0j * np.pi / 4)]),
    "CNOT": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float
    ),
    "CZ": np.diag([1.0, 1.0, 1.0, -1.0]),
    "SWAP": np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=float
    ),
    "CCZ": np.diag([1.0] * 7 + [-1.0]),
}

# Controlled flips in the shallow verifiers act on up to 5 data qubits plus
# one ancilla, so gates up to arity 6 are representable.
_MAX_ARITY = 6


@dataclass(frozen=True, eq=False)
class Gate:
    """One gate: an explicit unitary on an ordered tuple of wires."""

    wires: tuple[int, ...]
    unitary: np.ndarray
    name: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "wires", tuple(int(w) for w in self.wires))
        u = np.asarray(self.unitary, dtype=np.complex128)
        k = len(self.wires)
        if not 1 <= k <= _MAX_ARITY:
            raise ValueError(f"gate arity must be 1..{_MAX_ARITY}, got {k}")
        if len(set(self.wires)) != k:
            raise ValueError(f"gate wires must be distinct, got {self.wires}")
        if u.shape != (2**k, 2**k):
            raise ValueError(f"unitary shape {u.shape} does not match {k} wires")
        if not is_unitary(u, tol=1e-12):
            raise ValueError("gate matrix is not unitary within 1e-12")
        u.flags.writeable = False
        object.__setattr__(self, "unitary", u)

    @property
    def arity(self) -> int:
        return len(self.wires)

    @property
    def is_trivial(self) -> bool:
        """True when the matrix is the identity (explicit padding gates)."""
        return bool(np.allclose(self.unitary, np.eye(2**self.arity), atol=1e-12))

    @property
    def is_clifford(self) -> bool:
        """Whether conjugation maps every Pauli word to a Pauli word up to phase."""
        return _clifford_check(self)

    def __repr__(self) -> str:
        label = self.name or f"U{2**self.arity}"
        return f"Gate({label}, wires={self.wires})"


def gate(name_or_matrix, wires) -> Gate:
    """Build a gate from a named shorthand or an explicit matrix."""
    if isinstance(name_or_matrix, str):
        try:
            mat = NAMED_GATES[name_or_matrix]
        except KeyError:
            raise ValueError(
                f"unknown gate name {name_or_matrix!r}; "
                f"known: {sorted(NAMED_GATES)}"
            )
        return Gate(tuple(wires), mat, name=name_or_matrix)
    return Gate(tuple(wires), np.asarray(name_or_matrix))


def _clifford_check(g: Gate) -> bool:
    # It suffices to conjugate the single-site X and Z generators, which
    # sit at index tag * 4^(k-1-pos) of the word stack (X = 1, Z = 3).
    k = g.arity
    picks = [t * 4 ** (k - 1 - pos) for pos in range(k) for t in (1, 3)]
    conj = g.unitary @ word_stack(k)[picks] @ g.unitary.conj().T
    return bool(np.all(word_decompose(conj, k)[1] >= 0))


@dataclass(frozen=True)
class LayeredCircuit:
    """Gates arranged in layers on n wires, the first a of them ancillas."""

    n: int
    a: int
    layers: tuple[tuple[Gate, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need at least one wire, got n={self.n}")
        if not 0 <= self.a <= self.n:
            raise ValueError(f"ancilla count {self.a} out of range for n={self.n}")
        object.__setattr__(
            self, "layers", tuple(tuple(layer) for layer in self.layers)
        )

    @property
    def depth(self) -> int:
        return len(self.layers)

    def gates(self):
        for layer in self.layers:
            yield from layer


def layered(n: int, a: int, layer_specs, pad: bool = True) -> LayeredCircuit:
    """Convenience builder: each layer is a list of (name_or_matrix, wires).

    With pad=True (the default), uncovered wires get explicit identity gates
    so the result satisfies the totality invariant.
    """
    layers = []
    for spec in layer_specs:
        layers.append(tuple(gate(item, wires) for item, wires in spec))
    c = LayeredCircuit(n, a, tuple(layers))
    return pad_identities(c) if pad else c


def pad_identities(c: LayeredCircuit) -> LayeredCircuit:
    """Insert explicit 1-qubit identity gates on every uncovered wire."""
    layers = []
    for layer in c.layers:
        covered = {w for g in layer for w in g.wires}
        padding = tuple(
            gate("I", (w,)) for w in range(c.n) if w not in covered
        )
        layers.append(tuple(layer) + padding)
    return LayeredCircuit(c.n, c.a, tuple(layers))


@dataclass(frozen=True)
class Violation:
    layer: int
    wires: tuple[int, ...]
    message: str

    def __str__(self) -> str:
        return f"layer {self.layer}, wires {self.wires}: {self.message}"


def validate(c: LayeredCircuit) -> list[Violation]:
    """Diagnose the two structural invariants; empty list means valid.

    Checks, per layer: gate supports pairwise disjoint, every wire covered,
    and every wire index within range. Diagnostics are the return value, not
    exceptions, so invalid circuits can be inspected.
    """
    problems: list[Violation] = []
    for idx, layer in enumerate(c.layers):
        seen: dict[int, Gate] = {}
        for g in layer:
            for w in g.wires:
                if w >= c.n or w < 0:
                    problems.append(
                        Violation(idx, g.wires, f"wire {w} outside 0..{c.n - 1}")
                    )
                elif w in seen:
                    problems.append(
                        Violation(
                            idx,
                            tuple(sorted(set(seen[w].wires) | set(g.wires))),
                            f"wire {w} covered by two gates in one layer",
                        )
                    )
                else:
                    seen[w] = g
        uncovered = tuple(w for w in range(c.n) if w not in seen)
        if uncovered:
            problems.append(
                Violation(idx, uncovered, "wires not covered by any gate")
            )
    return problems


def require_valid(c: LayeredCircuit) -> None:
    """Raise ValueError listing every ``validate`` diagnostic, if any."""
    problems = validate(c)
    if problems:
        listing = "; ".join(str(p) for p in problems)
        raise ValueError(f"invalid circuit: {listing}")


def resolve_witness(c: LayeredCircuit, xi=None) -> np.ndarray:
    """The witness on wires a..n-1 (bit 0 of its index is wire a).

    ``None`` means the all-zeros state; anything else must have dimension
    2^(n-a) and unit norm within 1e-12.
    """
    free = c.n - c.a
    if xi is None:
        return basis_state(0, free)
    out = np.asarray(xi, dtype=np.complex128)
    if out.shape != (2**free,):
        raise ValueError(
            f"witness must have dimension 2^{free} = {2**free}, got {out.shape}"
        )
    if abs(np.linalg.norm(out) - 1.0) > 1e-12:
        raise ValueError("witness state must be unit norm")
    return out


def input_state(c: LayeredCircuit, xi=None) -> np.ndarray:
    """|0^a> (x) |xi> over the n wires, bit j of the index = wire j."""
    xi = resolve_witness(c, xi)
    vec = np.zeros(2**c.n, dtype=np.complex128)
    vec[np.arange(xi.size) << c.a] = xi
    return vec


class LayerOperator:
    """Matrix-free action of one layer's tensor product of gates."""

    def __init__(self, num_wires: int, gates: tuple[Gate, ...]):
        self.num_wires = num_wires
        self.gates = gates
        self.dim = 2**num_wires

    def apply(self, state: np.ndarray, adjoint: bool = False) -> np.ndarray:
        out = state
        for g in self.gates:
            mat = g.unitary.conj().T if adjoint else g.unitary
            out = apply_matrix(out, mat, g.wires, self.num_wires)
        return out

    def dense(self) -> np.ndarray:
        if self.num_wires > DENSE_QUBIT_CAP:
            raise ValueError(
                f"dense layer matrix on {self.num_wires} wires refused"
            )
        return self.apply(np.eye(self.dim, dtype=np.complex128))


def layer_unitary(c: LayeredCircuit, index: int) -> LayerOperator:
    """The unitary of layer ``index`` as a matrix-free operator."""
    if not 0 <= index < c.depth:
        raise IndexError(f"layer {index} out of range for depth {c.depth}")
    return LayerOperator(c.n, c.layers[index])


def apply_circuit(c: LayeredCircuit, state: np.ndarray) -> np.ndarray:
    """Apply every layer in order to a state on the circuit's wires."""
    out = state
    for idx in range(c.depth):
        out = layer_unitary(c, idx).apply(out)
    return out


def circuit_unitary(c: LayeredCircuit) -> np.ndarray:
    if c.n > DENSE_QUBIT_CAP:
        raise ValueError(f"dense circuit matrix on {c.n} wires refused")
    return apply_circuit(c, np.eye(2**c.n, dtype=np.complex128))


def nontrivial_gates(c: LayeredCircuit) -> list[Gate]:
    """The circuit's non-identity gates, serialized layer by layer.

    Within one layer, gates are ordered by their smallest wire, which makes
    downstream constructions (time steps of the clock Hamiltonian, blocks of
    the wire expansion) reproducible.
    """
    out = []
    for layer in c.layers:
        for g in sorted(layer, key=lambda g: min(g.wires)):
            if not g.is_trivial:
                out.append(g)
    return out


def block_wire(block: int, wire: int, n: int, a: int, num_blocks: int) -> int:
    """Wire label of (block, original wire) in a degree-reduced circuit.

    Blocks are 1-based. Labels are arranged so that all ancillas come first:
    block-1 ancillas keep labels 0..a-1, blocks 2..num_blocks follow, and the
    block-1 witness wires sit at the very end. This keeps the "first a wires
    are ancillas" convention intact after expansion.
    """
    if not 1 <= block <= num_blocks:
        raise ValueError(f"block {block} out of range 1..{num_blocks}")
    if not 0 <= wire < n:
        raise ValueError(f"wire {wire} out of range for n={n}")
    total_ancillas = n * num_blocks - (n - a)
    if block == 1:
        return wire if wire < a else total_ancillas + (wire - a)
    return a + (block - 2) * n + wire


def degree_reduce(c: LayeredCircuit) -> LayeredCircuit:
    """Expand the circuit so every wire meets at most 3 nontrivial gates.

    One block of n fresh wires is allocated per nontrivial gate; gate t acts
    on block t, and a round of n SWAPs moves the computation from block t to
    block t+1. The input enters on block 1 and the result appears on the
    last block. Circuits with at most one nontrivial gate already satisfy
    the degree bound and are returned unchanged.
    """
    require_valid(c)
    gates = nontrivial_gates(c)
    num_blocks = len(gates)
    if num_blocks <= 1:
        return c
    n, a = c.n, c.a
    total = n * num_blocks
    total_ancillas = total - (n - a)

    def label(block: int, wire: int) -> int:
        return block_wire(block, wire, n, a, num_blocks)

    layers = []
    for t, g in enumerate(gates, start=1):
        moved = Gate(tuple(label(t, w) for w in g.wires), g.unitary, name=g.name)
        layers.append((moved,))
        if t < num_blocks:
            swaps = tuple(
                gate("SWAP", (label(t, j), label(t + 1, j))) for j in range(n)
            )
            layers.append(swaps)
    out = LayeredCircuit(total, total_ancillas, tuple(layers))
    return pad_identities(out)


def parallel_wire(copy: int, wire: int, n: int, a: int, copies: int) -> int:
    """Wire label of (copy, original wire) after parallel repetition.

    Ancillas of all copies are packed first (copy-major), witness wires after
    them, again copy-major, preserving the first-a'-wires-are-ancillas rule.
    """
    if not 0 <= copy < copies:
        raise ValueError(f"copy {copy} out of range for {copies} copies")
    if not 0 <= wire < n:
        raise ValueError(f"wire {wire} out of range for n={n}")
    if wire < a:
        return copy * a + wire
    return copies * a + copy * (n - a) + (wire - a)


def parallel_repeat(c: LayeredCircuit, k: int) -> LayeredCircuit:
    """k disjoint side-by-side copies of the circuit, no inter-copy gates."""
    require_valid(c)
    if k < 1:
        raise ValueError(f"need at least one copy, got k={k}")
    if k == 1:
        return c
    layers = []
    for layer in c.layers:
        new_layer = []
        for copy in range(k):
            for g in layer:
                new_layer.append(
                    Gate(
                        tuple(parallel_wire(copy, w, c.n, c.a, k) for w in g.wires),
                        g.unitary,
                        name=g.name,
                    )
                )
        layers.append(tuple(new_layer))
    return LayeredCircuit(k * c.n, k * c.a, tuple(layers))

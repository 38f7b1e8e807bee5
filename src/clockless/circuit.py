"""Layered circuits and degree reduction.

A LayeredCircuit is a sequence of layers of gates on n wires; the first a
wires are ancillas initialized to |0>, the remaining n - a carry the witness.
Every circuit is total by construction: every wire is covered exactly once in
every layer, with identity gates materialized explicitly (the Hamiltonian
construction places one propagation term per gate per layer, idle wires
included).

Gate matrices index their wires most-significant-first: for CNOT on wires
(c, t), wire c is the control. Wire 0 is the least significant bit of every
state vector, as in linalg.

The helpers every downstream construction shares live here:
``resolve_witness`` and ``input_state`` (the witness and the input column
|0^a> (x) |xi>), and ``nontrivial_gates`` (the serialized non-identity
gates).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import apply_matrix, basis_state, is_unitary
from .pauli import word_decompose, word_stack

__all__ = [
    "Gate",
    "LayeredCircuit",
    "MAX_ARITY",
    "NAMED_GATES",
    "apply_circuit",
    "apply_layer",
    "block_wire",
    "degree_reduce",
    "gate",
    "input_state",
    "layered",
    "nontrivial_gates",
    "resolve_witness",
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
MAX_ARITY = 6


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
        if not 1 <= k <= MAX_ARITY:
            raise ValueError(f"gate arity must be 1..{MAX_ARITY}, got {k}")
        if len(set(self.wires)) != k:
            raise ValueError(f"gate wires must be distinct, got {self.wires}")
        if u.shape != (2**k, 2**k):
            raise ValueError(f"unitary shape {u.shape} does not match {k} wires")
        if u is not NAMED_GATES.get(self.name) and not is_unitary(u, tol=1e-12):
            raise ValueError("gate matrix is not unitary within 1e-12")
        u.flags.writeable = False
        object.__setattr__(self, "unitary", u)

    @property
    def arity(self) -> int:
        return len(self.wires)

    @cached_property
    def is_trivial(self) -> bool:
        """True when the matrix is within 1e-12 of the identity in every entry."""
        return bool(np.abs(self.unitary - np.eye(2**self.arity)).max() <= 1e-12)

    @cached_property
    def is_clifford(self) -> bool:
        """Whether conjugation maps every Pauli word to a Pauli word up to phase."""
        return _clifford_check(self)

    def __repr__(self) -> str:
        label = self.name or f"U{2**self.arity}"
        return f"Gate({label}, wires={self.wires})"


# The matrices above as read-only complex arrays, each checked once here as a
# gate; a gate built on one of these arrays skips the check.
NAMED_GATES = {
    n: Gate(range(len(m).bit_length() - 1), m).unitary for n, m in NAMED_GATES.items()
}


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
    """Gates arranged in layers on n wires, the first a of them ancillas.

    Every layer covers every wire exactly once: a gate on a wire outside
    0..n-1, or two gates on one wire in one layer, raise ValueError, and
    each wire a layer leaves uncovered gets an identity gate, appended after
    the layer's own gates in ascending wire order.
    """

    n: int
    a: int
    layers: tuple[tuple[Gate, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need at least one wire, got n={self.n}")
        if not 0 <= self.a <= self.n:
            raise ValueError(f"ancilla count {self.a} out of range for n={self.n}")
        layers = (self._total(i, tuple(layer)) for i, layer in enumerate(self.layers))
        object.__setattr__(self, "layers", tuple(layers))

    def _total(self, idx: int, layer: tuple[Gate, ...]) -> tuple[Gate, ...]:
        """The layer's gates, then an identity on each wire they leave uncovered."""
        seen: dict[int, Gate] = {}
        for g in layer:
            for w in g.wires:
                if not 0 <= w < self.n:
                    wires, problem = g.wires, f"wire {w} outside 0..{self.n - 1}"
                elif w in seen:
                    wires = tuple(sorted(set(seen[w].wires) | set(g.wires)))
                    problem = f"wire {w} covered by two gates in one layer"
                else:
                    seen[w] = g
                    continue
                raise ValueError(f"layer {idx}, wires {wires}: {problem}")
        return layer + tuple(gate("I", (w,)) for w in range(self.n) if w not in seen)

    @property
    def depth(self) -> int:
        return len(self.layers)


def layered(n: int, a: int, layer_specs) -> LayeredCircuit:
    """Convenience builder: each layer is a list of (name_or_matrix, wires)."""
    layers = (tuple(gate(item, wires) for item, wires in spec) for spec in layer_specs)
    return LayeredCircuit(n, a, tuple(layers))


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


def apply_layer(c: LayeredCircuit, index: int, state: np.ndarray) -> np.ndarray:
    """Apply the gates of layer ``index``, matrix-free, to a state on the
    circuit's wires, or to a batch of states as its columns."""
    if not 0 <= index < c.depth:
        raise IndexError(f"layer {index} out of range for depth {c.depth}")
    for g in c.layers[index]:
        state = apply_matrix(state, g.unitary, g.wires, c.n)
    return state


def apply_circuit(c: LayeredCircuit, state: np.ndarray) -> np.ndarray:
    """Apply every layer in order to a state on the circuit's wires."""
    for idx in range(c.depth):
        state = apply_layer(c, idx, state)
    return state


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
    return LayeredCircuit(total, total_ancillas, tuple(layers))

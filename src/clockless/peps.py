"""The injective grid state: construction, expansion and output marginal.

Geometry: a circuit with n wires and D layers lives on an n x (2D+1) grid of
qubits, row-major, qubit_index(row, col) = row*(2D+1) + col, with qubit 0 the
least significant amplitude bit. Column 0 holds the input |0^a> (x) |xi>.
Layer l (1-based) contributes one Choi state per gate on columns (2l-1, 2l)
and one perturbed pair per row on columns (2l-2, 2l-1); the perturbation Q
at injectivity delta_l is applied on those shifted pairs. Column 2D is the
output column and belongs to no pair.

The central identity: the built state is proportional to

    sum over Pauli words P of  prod_l delta_l^{|P_l|} |B_P> (x) W_D P_D ... W_1 P_1 |0^a, xi>

with |B_P> the Bell pattern on the shifted pairs and the error factors acting
on the output register before each layer. A word P is a tag tuple, one tag
per site in ``GridLayout.sites()`` order. The sum factors layer by layer:
``expansion`` sweeps the register through the circuit, one Pauli kick per tag
at each site, into a table with one row per word in ``pauli.tag_words``
order (coefficient times output state), and ``reassemble_expansion``
contracts that table back onto the grid, a construction independent of
``build_peps``. The Bell-frame coefficient sum
sum_P prod delta^(2|P|) is 4^(n D) times the squared l2 norm of the
unnormalized state (each Bell contraction contributes a factor 1/2 per site).

Every grid state, honest or faulted, is built by ``build_peps`` from the
located factors of ``grid_factors``; a faulted ("combinatorial") state swaps
the factors at a set of those locations for payloads. Two helpers
carry the grid's ingredients for every module that reads a grid state:
``choi_vector`` is the Choi state of one gate matrix, and
``apply_pair_maps`` sweeps one 4x4 map per layer over all shifted pairs (Q to
deform, Lambda to undo it, the Bell basis change to read tags off).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import (
    LayeredCircuit,
    apply_layer,
    input_state,
    resolve_witness,
)
from .limits import require, vector_bytes
from .linalg import (
    apply_maps, apply_matrix, basis_state, partial_trace, product_state,
)
from .pauli import PAULI_TAGS, bell_basis_matrix, pauli_matrix, q_matrix

__all__ = [
    "GridLayout",
    "PepsState",
    "apply_pair_maps",
    "build_peps",
    "choi_factor",
    "choi_vector",
    "depolarizing_reference_marginal",
    "expansion",
    "grid_factors",
    "output_marginal",
    "reassemble_expansion",
    "resolve_deltas",
]


@dataclass(frozen=True)
class GridLayout:
    """Row/column bookkeeping for the n x (2D+1) grid."""

    n: int
    depth: int

    @property
    def columns(self) -> int:
        return 2 * self.depth + 1

    @property
    def num_qubits(self) -> int:
        return self.n * self.columns

    def qubit_index(self, row: int, col: int) -> int:
        if not 0 <= row < self.n:
            raise ValueError(f"row {row} out of range for n={self.n}")
        if not 0 <= col < self.columns:
            raise ValueError(f"column {col} out of range for {self.columns} columns")
        return row * self.columns + col

    def input_qubit(self, row: int) -> int:
        return self.qubit_index(row, 0)

    def output_qubit(self, row: int) -> int:
        return self.qubit_index(row, 2 * self.depth)

    def site_qubits(self, layer: int, row: int) -> tuple[int, int]:
        """(lower, higher) qubit of the shifted pair at (layer, row)."""
        lo = self.qubit_index(row, 2 * layer - 2)
        return (lo, lo + 1)

    def sites(self) -> list[tuple[int, int]]:
        """All (layer, row) pairs in flat site order."""
        return [
            (layer, row)
            for layer in range(1, self.depth + 1)
            for row in range(self.n)
        ]

    def choi_qubits(self, layer: int, wire: int) -> tuple[int, int]:
        """(input-side, output-side) qubit of a gate leg at (layer, wire)."""
        lo = self.qubit_index(wire, 2 * layer - 1)
        return (lo, lo + 1)


@dataclass(frozen=True)
class PepsState:
    """A unit state vector on the grid plus the metadata needed to reason
    about it; ``build_peps`` makes one. ``fault`` is None for the honest
    state and, for a faulted one, the set of ``grid_factors`` locations
    whose factors were replaced."""

    layout: GridLayout
    amplitudes: np.ndarray
    circuit: LayeredCircuit
    xi: np.ndarray
    delta_per_layer: tuple[float, ...]
    fault: frozenset[tuple] | None = None

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (2**self.layout.num_qubits,):
            raise ValueError(
                f"amplitude vector length {amps.shape} does not match "
                f"{self.layout.num_qubits} qubits"
            )
        if abs(np.linalg.norm(amps) - 1.0) > 1e-12:
            raise ValueError("grid state norm is off by > 1e-12")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)


def resolve_deltas(deltas, depth: int) -> tuple[float, ...]:
    """Broadcast a scalar delta, or validate a per-layer schedule."""
    if np.isscalar(deltas):
        schedule = (float(deltas),) * depth
    else:
        schedule = tuple(float(d) for d in deltas)
        if len(schedule) != depth:
            raise ValueError(
                f"delta schedule has {len(schedule)} entries for depth {depth}"
            )
    for d in schedule:
        if not 0.0 < d <= 1.0:
            raise ValueError(f"delta must lie in (0, 1], got {d}")
    return schedule


def choi_vector(u: np.ndarray) -> np.ndarray:
    """Choi state (I (x) U)|B_I>^(x k) of a 2^k x 2^k matrix, unit norm.

    The output-side bits are the most significant: entry (y, x) of ``u``
    is amplitude y * 2^k + x.
    """
    u = np.asarray(u, dtype=np.complex128)
    return u.reshape(-1) / np.sqrt(float(u.shape[0]))


def choi_factor(g, layer: int, layout: GridLayout) -> tuple[np.ndarray, list[int]]:
    """Choi state (I (x) U)|B_I>^(x k) of one gate, with its qubit list.

    Index layout of the returned vector: the k output-side bits first
    (most significant, ordered like the gate's wires) then the k input-side
    bits in the same wire order.
    """
    vec = choi_vector(g.unitary)
    qubits = [layout.choi_qubits(layer, w)[1] for w in g.wires] + [
        layout.choi_qubits(layer, w)[0] for w in g.wires
    ]
    return vec, qubits


def apply_pair_maps(amps: np.ndarray, layout: GridLayout, per_layer) -> np.ndarray:
    """Apply ``per_layer[l - 1]`` to every shifted pair of layer l.

    Pairs are swept in flat site order, each 4x4 map acting in the Bell
    pair convention of ``pauli`` (the higher qubit most significant).
    """
    for layer, row in layout.sites():
        lo, hi = layout.site_qubits(layer, row)
        amps = apply_matrix(
            amps, per_layer[layer - 1], (hi, lo), layout.num_qubits
        )
    return amps


def grid_factors(c: LayeredCircuit, layout: GridLayout, xi=None, payloads=None):
    """The factors of the grid state of ``c``, as (location, vector, qubits).

    In order: the witness ``xi`` on wires a..n-1 (location None, absent
    when every wire is an ancilla), |0> at each ancilla input w
    (``("input", w)``), then the Choi state of each gate in layer order
    (``("gate", layer, wires)``, laid out as ``choi_factor``). ``payloads``
    maps a location to the vector that replaces its factor; a location the
    circuit does not have raises ValueError.
    """
    payloads = payloads or {}
    factors = []
    if c.a < c.n:
        witness = [layout.input_qubit(row) for row in reversed(range(c.a, c.n))]
        factors.append((None, resolve_witness(c, xi), witness))
    for wire in range(c.a):
        loc = ("input", wire)
        factors.append(
            (loc, payloads.get(loc, basis_state(0, 1)), [layout.input_qubit(wire)])
        )
    for layer_idx, layer in enumerate(c.layers, start=1):
        for g in layer:
            loc = ("gate", layer_idx, g.wires)
            vec, qubits = choi_factor(g, layer_idx, layout)
            factors.append((loc, payloads.get(loc, vec), qubits))
    stray = payloads.keys() - {loc for loc, _, _ in factors}
    if stray:
        raise ValueError(
            f"payloads for locations the circuit lacks: {sorted(stray, key=str)}"
        )
    return factors


def build_peps(c: LayeredCircuit, deltas, xi=None, payloads=None) -> PepsState:
    """The normalized grid state of ``c`` at the schedule ``deltas``.

    The factors of ``grid_factors`` (input column and one Choi state per
    gate), with Q(delta_l) applied at every shifted pair of layer l.
    ``xi`` is the witness on wires a..n-1 (bit 0 of its index is wire a);
    it defaults to the all-zeros state. With ``payloads`` (location ->
    vector, possibly empty) the state is faulted at exactly those
    locations and records their set as its ``fault``.
    """
    xi = resolve_witness(c, xi)
    schedule = resolve_deltas(deltas, c.depth)
    layout = GridLayout(c.n, c.depth)
    # At most four grid vectors at once (tracemalloc: 4.0 at 14 qubits, 3.8
    # at 18, 3.1 at 21): a pair map's input, its contiguous copy, the
    # product and the output.
    require("the grid state", layout.num_qubits, vector_bytes(layout.num_qubits, 4))
    factors = grid_factors(c, layout, xi, payloads)
    amps = product_state(
        [(vec, qubits) for _, vec, qubits in factors], layout.num_qubits
    )
    amps = apply_pair_maps(amps, layout, [q_matrix(d) for d in schedule])
    amps = amps / float(np.linalg.norm(amps))
    fault = None if payloads is None else frozenset(payloads)
    return PepsState(layout, amps, c, xi, schedule, fault)


def expansion(c: LayeredCircuit, xi, deltas) -> np.ndarray:
    """The full 4^(nD) Pauli-word expansion of the grid state, as one table.

    Row w is word ``tag_words(n * D)[w]``, sites in
    ``GridLayout.sites()`` order: its coefficient prod_l delta_l^(weight of
    the word at layer l) times its unit output-register state on the n
    circuit wires.

    The sum factors layer by layer, so the table is swept: from the input
    state, each (layer, row) stacks it with delta_l P_t applied on ``row``,
    t = X, XZ, Z, as a new fastest word axis (``tag_words`` is C order), and
    each gate of the layer then moves every word at once; the words are
    gate teleportation's Pauli frame. The table holds one grid vector, and
    is returned as the transposed view of the sweep's (2^n, 4^(nD)) array.
    """
    schedule = resolve_deltas(deltas, c.depth)
    # At most four grid vectors at once: the table, and apply_matrix's
    # output, contiguous copy and product. Each row's kicks and each gate's
    # input are freed once the next table is bound (tracemalloc: 3.0 on C14
    # and c18, 3.5 on c22 and on a 3-wire 21-qubit circuit).
    nq = GridLayout(c.n, c.depth).num_qubits
    require("the Pauli expansion", nq, vector_bytes(nq, 4))
    table = input_state(c, xi)[:, None]
    for layer, delta in enumerate(schedule):
        for row in range(c.n):
            table = np.stack(
                [table] + [
                    apply_matrix(table, delta * pauli_matrix(tag), (row,), c.n)
                    for tag in PAULI_TAGS[1:]
                ],
                axis=-1,
            ).reshape(2**c.n, -1)
        for g in c.layers[layer]:
            table = apply_matrix(table, g.unitary, g.wires, c.n)
    return table.T


def reassemble_expansion(c: LayeredCircuit, terms: np.ndarray) -> np.ndarray:
    """Rebuild sum_P |B_P> (x) (row P of ``terms``) on the grid
    (unnormalized) from the table of ``expansion``.

    The rows, in ``tag_words`` order, are a grid vector in the tag basis:
    one transpose scatters each site's tag onto its pair, read as the
    pair's (high, low) qubits, and each row's output state onto the output
    column, and ``apply_pair_maps`` turns every tag into its Bell state.
    """
    layout = GridLayout(c.n, c.depth)
    qubits = [q for site in layout.sites() for q in layout.site_qubits(*site)[::-1]]
    qubits += [layout.output_qubit(row) for row in reversed(range(c.n))]
    pos = {q: i for i, q in enumerate(qubits)}
    num_qubits = layout.num_qubits
    perm = [pos[num_qubits - 1 - j] for j in range(num_qubits)]
    # Unbound, so the scattered copy is freed after the first pair map.
    return apply_pair_maps(
        terms.reshape((2,) * num_qubits).transpose(perm).reshape(-1),
        layout, [bell_basis_matrix()] * c.depth,
    )


def output_marginal(s: PepsState) -> np.ndarray:
    """Output-column density matrix with bit j of the index = wire j."""
    qubits = [s.layout.output_qubit(row) for row in reversed(range(s.layout.n))]
    rho = partial_trace(s.amplitudes, qubits, s.layout.num_qubits)
    return rho / np.trace(rho).real


def depolarizing_reference_marginal(c: LayeredCircuit, xi, deltas) -> np.ndarray:
    """Channel-composition oracle for the output marginal of any circuit.

    Per layer, first applies on each wire the channel that leaves the state
    alone with probability 1-3p and applies one of X, XZ, Z with
    probability p each, p = delta_l^2/(1+3 delta_l^2), then the layer's
    unitary.
    """
    vec = input_state(c, xi)
    schedule = resolve_deltas(deltas, c.depth)
    rho = np.outer(vec, vec.conj())
    for index, delta in enumerate(schedule):
        p = delta**2 / (1.0 + 3.0 * delta**2)
        for wire in range(c.n):
            kicked = np.zeros_like(rho)
            for tag in ("X", "XZ", "Z"):
                # the tags are real, so P rho P^T is P rho P^dagger
                kicked += apply_maps(rho, [(pauli_matrix(tag), (wire,))], c.n)
            rho = (1.0 - 3.0 * p) * rho + p * kicked
        rho = apply_layer(c, index, apply_layer(c, index, rho).conj().T).conj().T
    return rho

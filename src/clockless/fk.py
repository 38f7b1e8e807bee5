"""Unary-clock satisfiability encoding and two shallow verifier circuits.

The first half turns a serialized circuit into a local Hamiltonian over a
unary clock register plus the data wires, keeping every qubit inside a
small constant number of terms. Its terms are dense ``LocalTerm``s of
kind input, propagation, clock or output; each keeps its 1-based time step
in ``layer`` and has no wires. The history and broken-pattern states are
``ClockState``s: their nonzero entries, at most (T+1) * 2^n_data of them,
never a 2^N vector. Term energies are read off those entries; only the
verifier check, up to ``DENSE_QUBITS`` qubits, expands a state into a 2^N
vector, and it applies terms to that vector, never a 2^N x 2^N matrix. The
second half builds measurement-based verifiers for such term families: a
constant-depth circuit that flips one ancilla per violated term, and a
log-depth consistency checker that swap tests a chain of claimed
intermediate states.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .circuit import (
    MAX_ARITY,
    Gate,
    LayeredCircuit,
    NAMED_GATES,
    apply_circuit,
    input_state,
    nontrivial_gates,
)
from .hamiltonian import LocalTerm, SparseOperator
from .limits import ResourceError, require, vector_bytes
from .linalg import apply_maps, apply_matrix, product_state, require_projector
from .spectral import DENSE_QUBITS

_IDENTITY_STEP = Gate(wires=(0,), unitary=np.eye(2), name="I")

# Wires a single wire may meet before the clock-qubit degree budget breaks.
_MAX_WIRE_GATES = 3

# Clock-state indices are int64, and 2^N itself must fit as a range bound.
_INDEX_QUBITS = 62

# Data-register vectors ``history_state`` holds at once (the current run, a
# scaled copy and ``apply_matrix``'s copies: 4.0 measured with tracemalloc
# on 15 data qubits), and bytes per history entry: its 24 B index and
# amplitude plus the integer work of ``sparse_expectation``, 72-77 B an
# entry measured on 10^5 and 10^6 entries of a 23-qubit encoding.
_DATA_VECTORS = 4
_ENTRY_BYTES = 128


class ClockState(NamedTuple):
    """A state on the clock and data registers, kept as its nonzero entries.

    ``indices`` are the ascending, distinct int64 positions of
    ``amplitudes`` in the 2^N vector, as ``np.flatnonzero`` returns them;
    every other amplitude is zero.
    """

    indices: np.ndarray
    amplitudes: np.ndarray
    num_qubits: int

    def dense(self) -> np.ndarray:
        """The full 2^N vector, refused past the memory budget."""
        require("a dense clock state", self.num_qubits, vector_bytes(self.num_qubits))
        out = np.zeros(2**self.num_qubits, dtype=np.complex128)
        out[self.indices] = self.amplitudes
        return out


def _embedded_product(factors, support: tuple[int, ...]) -> np.ndarray:
    """Product of small (matrix, qubits MSB first) factors over ``support``."""
    index = {q: i for i, q in enumerate(support)}
    local = [(mat, tuple(index[q] for q in qubits)) for mat, qubits in factors]
    return apply_maps(np.eye(2 ** len(support)), local, len(support), both_sides=False)


def _ketbra(bits_row: str, bits_col: str) -> np.ndarray:
    """|row><col| over len(bits) qubits, bit strings read MSB first."""
    dim = 2 ** len(bits_row)
    out = np.zeros((dim, dim), dtype=np.complex128)
    out[int(bits_row, 2), int(bits_col, 2)] = 1.0
    return out


@dataclass(frozen=True)
class ClockHamiltonian:
    """All terms of one unary-clock encoding, plus its register geometry.

    Data wires keep their circuit indices 0..num_data-1; the clock qubit
    of step t sits at num_data + t - 1. ``steps`` lists the serialized
    gates, one per time step.
    """

    circuit: LayeredCircuit
    steps: tuple[Gate, ...]
    num_data: int
    num_steps: int
    terms: tuple[LocalTerm, ...]

    @property
    def num_qubits(self) -> int:
        return self.num_data + self.num_steps

    def degree_table(self) -> dict[int, int]:
        """How many terms act on each qubit (zero entries included)."""
        table = {q: 0 for q in range(self.num_qubits)}
        for term in self.terms:
            for q in term.support:
                table[q] += 1
        return table

    def operator(self) -> SparseOperator:
        """Term-wise applicable form, for spectra and energies."""
        return SparseOperator(self.num_qubits, self.terms)

    def energies(self, state: ClockState) -> tuple[float, ...]:
        """Unnormalized energy of every term, in term order.

        Every term is evaluated on the state's nonzero entries alone, in
        O(nnz * (log nnz + 2^k)) per k-local term, with nothing of size 2^N.
        """
        n = self.num_qubits
        if state.num_qubits != n:
            raise ValueError(
                f"state on {state.num_qubits} qubits does not match {n} qubits"
            )
        return tuple(
            term.sparse_energy(state.indices, state.amplitudes, n)
            for term in self.terms
        )

    def violations(
        self, energies: Sequence[float], tol: float = 1e-9
    ) -> tuple[int, ...]:
        """Indices of terms with energy above ``tol``, given ``energies(state)``
        of a unit state."""
        return tuple(i for i, e in enumerate(energies) if e > tol)


def _first_touch_steps(
    steps: tuple[Gate, ...], wires: int
) -> dict[int, int]:
    """First 1-based step touching each wire; untouched wires map to 1."""
    first = {w: 1 for w in range(wires)}
    seen: set[int] = set()
    for t, g in enumerate(steps, start=1):
        for w in g.wires:
            if w not in seen:
                first[w] = t
                seen.add(w)
    return first


def build_modified_fk(c: LayeredCircuit) -> ClockHamiltonian:
    """Unary-clock Hamiltonian of a degree-reduced circuit.

    Serializes the non-identity gates layer by layer into time steps (a
    circuit with none gets a single explicit identity step) and emits four
    kinds of terms:

    * propagation, one per step, tying the clock transition to the gate;
      interior steps watch three clock qubits, the first and last steps
      two, a single-step encoding just one;
    * clock, one per adjacent qubit pair from step 2 on, penalizing the
      01 pattern that breaks unary order;
    * input, one per step that first touches ancilla wires, penalizing any
      1 among those wires while the clock still sits before that step;
    * output, penalizing a 0 on wire 0, the output wire, once the clock has
      passed the last step.

    Inputs must come out of ``degree_reduce`` (or already satisfy its
    guarantee): any wire meeting more than three non-identity gates is
    rejected, as are gates on more than two wires, since either would push
    a qubit past the intended term budget.
    """
    steps = tuple(nontrivial_gates(c))
    meets: dict[int, int] = {}
    for g in steps:
        if g.arity > 2:
            raise ValueError(
                f"gate on wires {g.wires} acts on {g.arity} wires; the "
                "clock encoding handles one- and two-wire gates"
            )
        for w in g.wires:
            meets[w] = meets.get(w, 0) + 1
    crowded = {w: k for w, k in meets.items() if k > _MAX_WIRE_GATES}
    if crowded:
        worst = max(crowded, key=crowded.get)
        raise ValueError(
            f"wire {worst} meets {crowded[worst]} non-identity gates, more "
            f"than the degree-reduced cap of {_MAX_WIRE_GATES}; run "
            "degree_reduce first"
        )
    if not steps:
        steps = (_IDENTITY_STEP,)

    num_data = c.n
    num_steps = len(steps)
    cq = lambda t: num_data + t - 1  # noqa: E731

    one = np.array([[0.0, 0.0], [0.0, 1.0]])
    zero = np.array([[1.0, 0.0], [0.0, 0.0]])
    terms: list[LocalTerm] = []

    first_touch = _first_touch_steps(steps, num_data)
    by_step: dict[int, list[int]] = {}
    for wire in range(c.a):
        by_step.setdefault(first_touch[wire], []).append(wire)
    for t in sorted(by_step):
        wires = tuple(sorted(by_step[t]))
        # Wires first met by the same gate share one clock window, so a
        # single term covers them; splitting it would lift that window's
        # clock qubits past the seven-term budget.
        nonzero = np.eye(2 ** len(wires))
        nonzero[0, 0] = 0.0
        if t == 1:
            clock = (zero, (cq(1),))
        else:
            clock = (_ketbra("10", "10"), (cq(t - 1), cq(t)))
        support = (*wires, *clock[1])
        block = _embedded_product([clock, (nonzero, wires)], support)
        terms.append(LocalTerm("input", support, block, t))

    for t, g in enumerate(steps, start=1):
        u = g.unitary
        ud = u.conj().T
        # The step watches clock qubits t-1, t, t+1 where they exist and
        # moves their pattern from 100 to 110 (edge bits dropped).
        lead = "1" if t > 1 else ""
        trail = "0" if t < num_steps else ""
        before, after = lead + "0" + trail, lead + "1" + trail
        window = range(max(t - 1, 1), min(t + 1, num_steps) + 1)
        clocks = tuple(cq(s) for s in window)
        support = tuple(sorted((*g.wires, *clocks)))
        stay = _ketbra(before, before) + _ketbra(after, after)
        hop = sum(
            _embedded_product([(_ketbra(a, b), clocks), (m, g.wires)], support)
            for a, b, m in ((after, before, u), (before, after, ud))
        )
        block = 0.5 * _embedded_product([(stay, clocks)], support) - 0.5 * hop
        terms.append(LocalTerm("propagation", support, block, t))

    for t in range(2, num_steps + 1):
        support = (cq(t - 1), cq(t))
        block = _embedded_product([(_ketbra("01", "01"), support)], support)
        terms.append(LocalTerm("clock", support, block, t))

    support = (0, cq(num_steps))
    block = _embedded_product([(one, (cq(num_steps),)), (zero, (0,))], support)
    terms.append(LocalTerm("output", support, block, num_steps))

    return ClockHamiltonian(
        circuit=c,
        steps=steps,
        num_data=num_data,
        num_steps=num_steps,
        terms=tuple(terms),
    )


def require_clock_states(ham: ClockHamiltonian) -> None:
    """Refuse ``ham`` if its clock states overrun memory or int64 indices.

    The estimate counts the data-register vectors ``history_state`` runs
    the circuit on and the most entries the history state can have, one
    data vector per clock time: (T+1) * 2^n_data.
    """
    n, entries = ham.num_data, (ham.num_steps + 1) << ham.num_data
    require(
        "the history state",
        ham.num_qubits,
        vector_bytes(n, _DATA_VECTORS) + entries * _ENTRY_BYTES,
    )
    if ham.num_qubits > _INDEX_QUBITS:
        raise ResourceError(
            f"clock states on {ham.num_qubits} qubits need indices past int64; "
            f"at most {_INDEX_QUBITS} qubits"
        )


def history_state(ham: ClockHamiltonian, xi=None) -> ClockState:
    """The uniform superposition of clock times with their partial runs.

    Entry t of the sum pairs the unary pattern 1^t 0^(T-t) on the clock
    register with the input state pushed through the first t steps. The
    result is normalized and annihilates every propagation, clock, and
    input term of ``ham``; only output terms can see it. It is built row by
    row: clock pattern 2^t - 1 holds the data vector after t steps divided
    by sqrt(T+1), of which only the nonzero entries are kept.
    """
    require_clock_states(ham)
    n = ham.num_data
    norm = math.sqrt(ham.num_steps + 1.0)
    data = input_state(ham.circuit, xi)
    indices, amps = [], []
    for t in range(ham.num_steps + 1):
        if t:
            g = ham.steps[t - 1]
            data = apply_matrix(data, g.unitary, g.wires, n)
        row = data / norm
        at = np.flatnonzero(row)
        indices.append(at + ((2**t - 1) << n))
        amps.append(row[at])
    return ClockState(np.concatenate(indices), np.concatenate(amps), ham.num_qubits)


def invalid_clock_state(ham: ClockHamiltonian) -> ClockState:
    """|0100...> on the clock register with all-zero data.

    The second clock qubit is set, the first is not: a pattern no unary
    count produces. Exactly two terms of the Hamiltonian notice it.
    """
    if ham.num_steps < 2:
        raise ValueError("the broken pattern needs at least two clock qubits")
    # Clock bit 1 (the clock qubit of step 2) set, every data bit clear.
    return ClockState(
        np.array([1 << (ham.num_data + 1)], dtype=np.int64),
        np.ones(1, dtype=np.complex128),
        ham.num_qubits,
    )


@dataclass(frozen=True)
class MeasurementPlan:
    """Which wires a verifier measures and what counts as acceptance.

    ``wires[i]`` must read ``accept_bits[i]`` for the run to accept;
    ``postprocess`` spells out the classical stage in words.
    """

    wires: tuple[int, ...]
    accept_bits: tuple[int, ...]
    postprocess: str

    def __post_init__(self) -> None:
        if len(self.wires) != len(self.accept_bits):
            raise ValueError("one accept bit per measured wire")
        if any(b not in (0, 1) for b in self.accept_bits):
            raise ValueError("accept bits must be 0 or 1")


def require_simulable(c: LayeredCircuit) -> None:
    """Refuse ``c`` if the vectors ``accept_probability`` holds overrun memory:
    the input state, which its caller holds until the circuit has run, a
    layer's input and output, and ``apply_matrix``'s copy and product of a
    piece (tracemalloc: 4.0 vectors up to 16 qubits, 4.5 at 17)."""
    require("simulating a circuit", c.n, vector_bytes(c.n, 5))


def accept_probability(
    c: LayeredCircuit, plan: MeasurementPlan, xi=None
) -> float:
    """Probability that running ``c`` on |0^a>|xi> satisfies the plan."""
    vec = apply_circuit(c, input_state(c, xi))
    probs = np.abs(vec) ** 2
    idx = np.arange(probs.size)
    keep = np.ones(probs.size, dtype=bool)
    for wire, bit in zip(plan.wires, plan.accept_bits):
        keep &= ((idx >> wire) & 1) == bit
    return float(probs[keep].sum())


def greedy_groups(terms) -> list[tuple[int, ...]]:
    """First-fit partition of term indices into groups of disjoint supports."""
    groups: list[list[int]] = []
    occupied: list[set[int]] = []
    for i, term in enumerate(terms):
        support = set(term.support)
        for g, used in zip(groups, occupied):
            if not (support & used):
                g.append(i)
                used |= support
                break
        else:
            groups.append([i])
            occupied.append(set(support))
    return [tuple(g) for g in groups]


def build_dl_verifier(terms) -> tuple[LayeredCircuit, MeasurementPlan]:
    """Constant-depth satisfiability extractor for a family of projectors.

    ``terms`` is a sequence of objects with ``support`` and projector
    ``block`` attributes. The circuit holds one fresh ancilla per term and
    one layer per group of ``greedy_groups(terms)``, whose members act on
    pairwise disjoint qubits: layer by layer, a controlled flip writes each
    term's value onto its ancilla. Accepting means every ancilla reads
    zero, and the acceptance probability equals the squared norm of the
    group-ordered product of complements (``dl_product``) applied to the
    witness.

    Ancillas occupy wires 0..m-1 (one per term, in term order); the data
    register follows.
    """
    terms = list(terms)
    if not terms:
        raise ValueError("need at least one term")
    m = len(terms)
    data = 1 + max(q for t in terms for q in t.support)
    layers = []
    for group in greedy_groups(terms):
        gates = []
        for i in group:
            h = require_projector(terms[i].block, 1e-10, f"term {i}")
            dim = h.shape[0]
            flip = np.kron(np.eye(dim) - h, np.eye(2)) + np.kron(
                h, NAMED_GATES["X"]
            )
            wires = tuple(m + q for q in reversed(terms[i].support)) + (i,)
            gates.append(Gate(wires=wires, unitary=flip, name=None))
        layers.append(tuple(gates))
    circuit = LayeredCircuit(n=m + data, a=m, layers=tuple(layers))
    plan = MeasurementPlan(
        wires=tuple(range(m)),
        accept_bits=(0,) * m,
        postprocess=(
            "measure every flip ancilla; OR the bits in a balanced "
            "logarithmic-depth classical tree and accept on all zeros"
        ),
    )
    return circuit, plan


def dl_product(terms, grouping, vec: np.ndarray) -> np.ndarray:
    """The group-ordered product of term complements applied to ``vec``,
    first group first: each term's ``I - h`` in turn, one ``apply_matrix``
    on the vector each, so no 2^N x 2^N matrix is formed."""
    vec = np.array(vec, dtype=np.complex128)
    num_qubits = vec.size.bit_length() - 1
    for group in grouping:
        for i in group:
            term = terms[i]
            wires = tuple(reversed(term.support))
            vec -= apply_matrix(vec, term.block, wires, num_qubits)
    return vec


def clock_report(ham: ClockHamiltonian, tol: float = 1e-12) -> dict:
    """The ``fk_report.json`` body of one clock Hamiltonian.

    Term energies of the history state (every non-output term must be
    zero); past one clock qubit, the terms a broken unary pattern violates.
    Up to ``DENSE_QUBITS`` qubits, the constant-depth verifier's accept
    probability on the history state against the squared norm of the group
    product of complements applied to it (``dl_product``). That section is
    left out when a term is too wide for its controlled flip, a gate of at
    most ``MAX_ARITY`` wires: an input term covers every ancilla the first
    step leaves untouched.
    """
    hist = history_state(ham)
    energies = ham.energies(hist)
    report = {
        "num_data": ham.num_data,
        "num_steps": ham.num_steps,
        "num_qubits": ham.num_qubits,
        "terms": len(ham.terms),
        "max_degree": max(ham.degree_table().values()),
        "history_energy_max_nonoutput": max(
            e for t, e in zip(ham.terms, energies) if t.kind != "output"
        ),
        "history_energy_total": float(sum(energies)),
    }
    if ham.num_steps >= 2:
        bad_energies = ham.energies(invalid_clock_state(ham))
        violations = ham.violations(tol=max(tol, 1e-12), energies=bad_energies)
        report["invalid_pattern"] = {
            "violated_terms": list(violations),
            "kinds": [ham.terms[i].kind for i in violations],
            "energies": [float(bad_energies[i]) for i in violations],
        }
    flips_fit = all(t.locality < MAX_ARITY for t in ham.terms)
    if ham.num_qubits <= DENSE_QUBITS and flips_fit:
        grouping = greedy_groups(ham.terms)
        verifier, plan = build_dl_verifier(ham.terms)
        vec = hist.dense()
        accept = accept_probability(verifier, plan, vec)
        product = dl_product(ham.terms, grouping, vec)
        predicted = float(np.linalg.norm(product) ** 2)
        report["dl_verifier"] = {
            "groups": len(grouping),
            "ancillas": verifier.a,
            "accept_on_history": accept,
            "product_norm_sq": predicted,
            "identity_deviation": abs(accept - predicted),
        }
    return report


_CSWAP = np.kron(np.diag([1.0, 0.0]), np.eye(4)) + np.kron(
    np.diag([0.0, 1.0]), np.eye(4)[[0, 2, 1, 3]]
)


def build_swap_test_verifier(
    c: LayeredCircuit,
) -> tuple[LayeredCircuit, MeasurementPlan]:
    """Log-depth consistency checker over a chain of claimed run states.

    The witness supplies 2T registers of the circuit's width: the input
    state, two copies of the state after each of the first T-1 steps, and
    the final state. One test layer compares the duplicate copies, then
    each step's gate is applied to one copy, and a second test layer
    compares every pushed state with the next claimed one. Each register
    comparison is an ancilla-controlled swap test (Hadamard, per-qubit
    controlled swaps, Hadamard); accepting means every test ancilla reads
    zero and the final register's output wire, wire 0, reads one.
    Controlled swaps of one test share their ancilla and run in sequence;
    everything else is parallel, so the depth grows with the register
    width, not with T.
    """
    steps = tuple(nontrivial_gates(c)) or (_IDENTITY_STEP,)
    big_t = len(steps)
    w = c.n
    ancillas = 2 * big_t - 1
    reg = lambda r, j: ancillas + r * w + j  # noqa: E731

    h_gate = NAMED_GATES["H"]
    layers: list[list[Gate]] = []

    def swap_stage(pairs, first_ancilla):
        if not pairs:
            return
        used = [first_ancilla + k for k in range(len(pairs))]
        layers.append([Gate((q,), h_gate, "H") for q in used])
        for j in range(w):
            layers.append(
                [
                    Gate(
                        (used[k], reg(r, j), reg(s, j)),
                        _CSWAP,
                        "CSWAP",
                    )
                    for k, (r, s) in enumerate(pairs)
                ]
            )
        layers.append([Gate((q,), h_gate, "H") for q in used])

    swap_stage([(2 * t - 1, 2 * t) for t in range(1, big_t)], 0)

    gate_layer = [
        Gate(tuple(reg(0, j) for j in steps[0].wires), steps[0].unitary, steps[0].name)
    ]
    for t in range(1, big_t):
        g = steps[t]
        gate_layer.append(
            Gate(tuple(reg(2 * t, j) for j in g.wires), g.unitary, g.name)
        )
    layers.append(gate_layer)

    second = [(0, 1)] + [(2 * t, 2 * t + 1) for t in range(1, big_t)]
    swap_stage(second, big_t - 1)

    circuit = LayeredCircuit(
        n=ancillas + 2 * big_t * w, a=ancillas, layers=tuple(layers)
    )
    plan = MeasurementPlan(
        wires=tuple(range(ancillas)) + (reg(2 * big_t - 1, 0),),
        accept_bits=(0,) * ancillas + (1,),
        postprocess=(
            "measure the test ancillas and the final register's output "
            "wire; AND the checks in a balanced logarithmic-depth "
            "classical tree (every ancilla zero, output one)"
        ),
    )
    return circuit, plan


def swap_test_witness(c: LayeredCircuit, xi=None) -> np.ndarray:
    """The honest witness for ``build_swap_test_verifier``.

    Register 0 holds the circuit input, registers 2t-1 and 2t both hold
    the state after step t, and the last register holds the final state.
    """
    steps = tuple(nontrivial_gates(c)) or (_IDENTITY_STEP,)
    big_t = len(steps)
    w = c.n
    states = [input_state(c, xi)]
    for g in steps:
        states.append(apply_matrix(states[-1], g.unitary, g.wires, w))
    registers = [states[0]]
    for t in range(1, big_t):
        registers.extend([states[t], states[t]])
    registers.append(states[big_t])
    factors = [
        (vec, list(range(r * w + w - 1, r * w - 1, -1)))
        for r, vec in enumerate(registers)
    ]
    return product_state(factors, 2 * big_t * w)


def swap_test_report(
    c: LayeredCircuit, verifier: LayeredCircuit, plan: MeasurementPlan
) -> dict:
    """Completeness of a swap-test verifier for ``c``.

    Its accept probability on the honest witness against the probability
    that ``c`` itself reads 1 on wire 0.
    """
    honest = accept_probability(verifier, plan, swap_test_witness(c))
    original = accept_probability(
        c, MeasurementPlan((0,), (1,), "accept when wire 0 reads 1")
    )
    return {
        "verifier_qubits": verifier.n,
        "test_ancillas": verifier.a,
        "layers": len(verifier.layers),
        "honest_accept": honest,
        "original_accept": original,
        "completeness_deviation": abs(honest - original),
    }

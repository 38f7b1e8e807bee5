"""Fault-pattern states, error extraction, and randomized inequality suites.

Low-energy grid states factor into a frame of satisfied local checks plus
arbitrary payloads at a small set of faulted locations. A fault file
declares them as a ``FaultPattern``; ``fault_locations`` is the one check
of a pattern against its circuit, and past it a fault is the set of its
``peps.grid_factors`` locations: the keys of the payloads that
``peps.build_peps`` takes, and the ``fault`` of the ``PepsState`` it
builds. This module recovers the error decomposition hiding inside such a
state, measures the weight distribution of the Bell frame, and packages
the inequality lemmas behind the soundness analysis into replayable
randomized suites. ``low_energy_probe`` checks those lemmas on a noisy grid
state; its report computes a value only when asked, so a suite row pays for
one record.

``run_suites`` runs the suites through ``limits.fork_map``, in forked
worker processes, one per CPU, each suite whole in one worker that sends
back only its ``SuiteResult``. Every instance draws from its own generator,
so the records do not depend on where a suite ran.
"""

from __future__ import annotations

import functools
import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .circuit import Gate, LayeredCircuit, layered
from .hamiltonian import energy, input_term, parent_spec, propagation_term, term_energy
from .limits import enumeration_bytes, fork_map, require, vector_bytes
from .linalg import (
    overlap,
    partial_trace,
    product_state,
    random_projector,
    random_state,
    random_unitary,
)
from .pauli import (
    bell_basis_matrix,
    lambda_matrix,
    phi0,
    q_matrix,
    tag_words,
    word_matrix,
)
from .peps import (
    GridLayout,
    PepsState,
    apply_pair_maps,
    build_peps,
    grid_factors,
    resolve_deltas,
)
from .rotation import RotationUnitary
from .spectral import (
    detectability_check,
    geometric_bound,
    jordan_angles,
    union_bound_check,
)


@dataclass(frozen=True)
class FaultPattern:
    """Which locations of a circuit the adversary corrupts, as a fault file
    declares them; ``fault_locations`` checks it against the circuit.

    ``inputs`` lists wires whose initialization is faulted; only ancilla
    wires qualify, since witness wires carry no initialization check.
    ``layers`` holds one wire set per circuit layer; a gate is faulted when
    its wires appear there, and each layer set must cover whole gates.
    """

    inputs: frozenset[int]
    layers: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "inputs", frozenset(int(w) for w in self.inputs)
        )
        object.__setattr__(
            self,
            "layers",
            tuple(frozenset(int(w) for w in s) for s in self.layers),
        )


class FaultMismatch(ValueError):
    """A fault pattern that does not fit its circuit."""

    def __str__(self) -> str:
        return f"fault pattern does not fit the circuit: {super().__str__()}"


def fault_locations(c: LayeredCircuit, fault: FaultPattern) -> list[tuple]:
    """The ``grid_factors`` locations of a fault pattern, in their order:
    ``("input", w)`` for ascending wires, then ``("gate", layer, wires)``
    layer by layer. Raises FaultMismatch when the pattern does not fit the
    circuit; past this check a fault is the set of its locations.
    """
    if len(fault.layers) != c.depth:
        raise FaultMismatch(
            f"fault pattern has {len(fault.layers)} layers, circuit has "
            f"{c.depth}"
        )
    for w in fault.inputs:
        if not 0 <= w < c.a:
            raise FaultMismatch(
                f"faulted input wire {w} is not an ancilla wire (a = {c.a})"
            )
    locations: list[tuple] = [("input", w) for w in sorted(fault.inputs)]
    for layer_idx, (layer, wires) in enumerate(
        zip(c.layers, fault.layers), start=1
    ):
        covered: set[int] = set()
        for g in layer:
            hit = set(g.wires) & wires
            if not hit:
                continue
            if set(g.wires) - wires:
                raise FaultMismatch(
                    f"layer {layer_idx} fault set {sorted(wires)} covers "
                    f"gate wires {g.wires} only partially"
                )
            locations.append(("gate", layer_idx, g.wires))
            covered |= set(g.wires)
        stray = wires - covered
        if stray:
            raise FaultMismatch(
                f"layer {layer_idx} fault set names wires {sorted(stray)} "
                "that no gate touches"
            )
    return locations


def _shifted(word: tuple[str, ...], factor: np.ndarray) -> np.ndarray:
    """A ``grid_factors`` vector with the Pauli ``word`` applied on its
    output side, the most significant bits."""
    return (word_matrix(word) @ factor.reshape(2 ** len(word), -1)).reshape(-1)


def canonical_payloads(c: LayeredCircuit, fault: FaultPattern) -> dict:
    """Violating payloads for every location of a fault pattern, keyed by
    location as ``build_combinatorial_state`` takes them: each factor
    shifted by X on every output leg, so |1> at a faulted input and the
    Choi state shifted by X on each output leg at a faulted gate. Raises
    FaultMismatch when the pattern does not fit the circuit.
    """
    locations = set(fault_locations(c, fault))
    return {
        loc: _shifted(("X",) * (1 if loc[0] == "input" else len(loc[2])), vec)
        for loc, vec, _ in grid_factors(c, GridLayout(c.n, c.depth))
        if loc in locations
    }


def _unit(vec, dim: int, what: str) -> np.ndarray:
    out = np.asarray(vec, dtype=np.complex128)
    if out.shape != (dim,):
        raise ValueError(
            f"{what} must have dimension {dim}, got shape {out.shape}"
        )
    norm = np.linalg.norm(out)
    if norm < 1e-12:
        raise ValueError(f"{what} is numerically zero")
    return out / norm


def build_combinatorial_state(
    c: LayeredCircuit, deltas, payloads: dict, *, xi=None
) -> PepsState:
    """The grid state of ``c`` faulted exactly at the locations of
    ``payloads``.

    ``payloads`` maps ``grid_factors`` locations to the vectors that
    replace their factors: a single-qubit vector at ``("input", w)``, a
    4^k-dimensional one at ``("gate", layer, wires)`` in the index
    convention of ``choi_factor`` (output side bits most significant).
    Every other location carries its usual factor. Payloads are normalized
    here, so only their direction matters; the witness ``xi`` must already
    be a unit vector. The state is built by ``build_peps``, which refuses a
    location the circuit lacks.
    """
    unit = {}
    for loc, vec in payloads.items():
        dim = 2 if loc[0] == "input" else 4 ** len(loc[2])
        unit[loc] = _unit(vec, dim, f"payload at {loc}")
    return build_peps(c, deltas, xi, unit)


def violated_locations(state: PepsState, tol: float = 1e-9) -> set[tuple]:
    """Locations whose Hamiltonian terms the state actually violates: an
    input term's wire, a propagation term's gate."""
    spec = parent_spec(state.circuit, state.delta_per_layer)
    report = energy(spec, state.amplitudes, tol)
    return {
        ("input", t.wires[0]) if t.kind == "input" else ("gate", t.layer, t.wires)
        for t in (spec.terms[i] for i in report.violations)
    }


def _contract_factors(
    vec: np.ndarray,
    factors,
    num_qubits: int,
) -> np.ndarray:
    """Partial inner products: contract each <factor| onto its qubits.

    Factors use the (vector, MSB-first qubit list) convention of
    ``product_state``. The residual keeps the remaining qubits in
    descending index order, so its flat form indexes the highest surviving
    qubit as the most significant bit.
    """
    psi = np.asarray(vec, dtype=np.complex128)
    axis_qubits = list(range(num_qubits - 1, -1, -1))
    for fac, qubits in factors:
        # np.tensordot's transpose, reshape and dot without its overhead: same bits
        order = [axis_qubits.index(q) for q in qubits]
        order += [i for i, q in enumerate(axis_qubits) if q not in qubits]
        bra = np.asarray(fac, dtype=np.complex128).conj().reshape(1, -1)
        psi = psi.reshape((2,) * len(axis_qubits)).transpose(order)
        psi = np.dot(bra, psi.reshape(bra.size, -1))
        axis_qubits = [axis_qubits[i] for i in order[len(qubits):]]
    return psi.reshape(-1)


def _fault_frame(c: LayeredCircuit, fault: frozenset[tuple], layout: GridLayout):
    """Satisfied factors, witness qubits and per-fault error bases, from
    one pass over ``grid_factors``.

    Returns (frame, witness, slots, groups). The frame holds the entries
    of ``grid_factors`` at locations outside the set ``fault``, witness
    aside: |0> at every unfaulted ancilla input and the Choi state at every
    unfaulted gate. ``witness`` lists the witness qubits. ``groups`` holds
    one orthonormal error basis of (word, vector, qubits) entries per
    faulted location, in ``grid_factors`` order: {|0>, |1>} tagged I, X at
    inputs, at gates the Choi states shifted by each Pauli word on the
    output legs. ``slots`` names the error positions those words cover.
    """
    frame, witness, slots, groups = [], [], [], []
    for loc, vec, qubits in grid_factors(c, layout):
        if loc is None:
            witness = qubits
        elif loc not in fault:
            frame.append((vec, qubits))
        elif loc[0] == "input":
            slots.append(loc)
            groups.append([(w, _shifted(w, vec), qubits) for w in (("I",), ("X",))])
        else:
            slots.extend(("gate", loc[1], w) for w in loc[2])
            groups.append(
                [(w, _shifted(w, vec), qubits) for w in tag_words(len(loc[2]))]
            )
    return frame, witness, slots, groups


@dataclass(frozen=True)
class AdversarialDecomposition:
    """Error expansion of a fault-pattern state after undressing the pairs.

    ``slots`` names the error positions, one tag per slot: the faulted
    input wires in ascending order (tags I or X only, flipping the
    initialized bit), then each faulted gate's wires in layer order.
    ``entries`` pairs each Pauli word over those slots, a tuple of tags,
    with a nonnegative coefficient and the residual witness-register state
    it multiplies; the squared coefficients sum to one. ``fault`` is the
    state's set of faulted locations.
    """

    slots: tuple[tuple, ...]
    entries: tuple[tuple[tuple[str, ...], float, np.ndarray], ...]
    fault: frozenset[tuple]
    circuit: LayeredCircuit
    delta_per_layer: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def coefficient_norm_sq(self) -> float:
        return sum(c**2 for _, c, _ in self.entries)


def extract_decomposition(
    state: PepsState, tol: float = 1e-12
) -> AdversarialDecomposition:
    """Read off the error words a fault-pattern state hides at its faults.

    Inverts the pair maps (applies the complementary diagonal at every
    site and renormalizes), then contracts the frame of satisfied factors
    together with an orthonormal error basis at each faulted location:
    {|0>, |1>} at inputs, the Pauli-shifted Choi states at gates. What
    survives each contraction is the residual witness state, whose norm is
    the coefficient. Words with coefficient at or below ``tol`` are
    dropped. Raises ValueError on a state without a fault pattern (an
    honest ``build_peps`` state), and when the state does not factor over
    its pattern; ResourceError when the entries would exceed the memory
    budget.
    """
    c, layout, fault = state.circuit, state.layout, state.fault
    if fault is None:
        raise ValueError(
            "the state has no fault pattern; build it with "
            "build_combinatorial_state"
        )
    frame, _, slots, groups = _fault_frame(c, fault, layout)

    # Each entry keeps a residual on the qubits that no bra contracts, and
    # each error basis holds a word per entry. The pair-map sweep that
    # undresses the amplitudes holds 3 grid vectors at its peak: the
    # previous sweep's vector, apply_matrix's copy and product.
    bras = frame + [g[0][1:] for g in groups]
    kept = layout.num_qubits - sum(len(q) for _, q in bras)
    nbytes = enumeration_bytes(math.prod(len(g) for g in groups), kept)
    nbytes += sum(enumeration_bytes(len(g), len(g[0][2])) for g in groups)
    nbytes += vector_bytes(layout.num_qubits, 3)
    require("an error-basis enumeration", layout.num_qubits, nbytes)

    schedule = state.delta_per_layer
    amps = apply_pair_maps(
        state.amplitudes, layout, [lambda_matrix(d) for d in schedule]
    )
    amps = amps / np.linalg.norm(amps)
    entries = []
    total = 0.0
    for combo in itertools.product(*groups):
        bras = frame + [(vec, qubits) for _, vec, qubits in combo]
        residual = _contract_factors(amps, bras, layout.num_qubits)
        coeff = float(np.linalg.norm(residual))
        total += coeff**2
        if coeff > tol:
            tags = tuple(t for word, _, _ in combo for t in word)
            entries.append((tags, coeff, residual / coeff))
    if abs(total - 1.0) > 1e-8:
        raise ValueError(
            "state does not factor over the declared fault pattern "
            f"(recovered coefficient mass {total})"
        )
    return AdversarialDecomposition(
        tuple(slots), tuple(entries), fault, c, schedule
    )


def reassemble_decomposition(decomp: AdversarialDecomposition) -> np.ndarray:
    """Rebuild the normalized fault-pattern state from its decomposition."""
    c = decomp.circuit
    layout = GridLayout(c.n, c.depth)
    frame, witness_qubits, _, bases = _fault_frame(c, decomp.fault, layout)
    groups = [{word: (vec, qubits) for word, vec, qubits in b} for b in bases]
    widths = [len(b[0][0]) for b in bases]

    amps = np.zeros(2**layout.num_qubits, dtype=np.complex128)
    for tags, coeff, xi in decomp.entries:
        factors = list(frame)
        pos = 0
        for width, table in zip(widths, groups):
            factors.append(table[tags[pos : pos + width]])
            pos += width
        scale = coeff
        if witness_qubits:
            factors.append((xi, witness_qubits))
        else:
            scale = coeff * complex(xi[0])
        amps = amps + scale * product_state(factors, layout.num_qubits)

    amps = apply_pair_maps(
        amps, layout, [q_matrix(d) for d in decomp.delta_per_layer]
    )
    return amps / np.linalg.norm(amps)


def binomial_tail(rates, threshold: int) -> float:
    """P[X >= threshold] for a sum of independent Bernoulli variables.

    Exact, by convolving the per-site distributions; with equal rates this
    is the plain binomial tail.
    """
    dist = np.array([1.0])
    for r in rates:
        r = float(r)
        if not 0.0 <= r <= 1.0:
            raise ValueError(f"rate must lie in [0, 1], got {r}")
        dist = np.convolve(dist, [1.0 - r, r])
    if threshold <= 0:
        return 1.0
    if threshold >= dist.size:
        return 0.0
    return float(dist[threshold:].sum())


def site_rate(delta: float) -> float:
    """Non-identity Bell tag probability of one pair, 3 delta^2/(1+3 delta^2)."""
    return 3.0 * delta**2 / (1.0 + 3.0 * delta**2)


def high_weight_mass(state, threshold: int) -> tuple[float, float]:
    """Bell-frame mass at tag weight >= ``threshold``.

    Every pair is rotated into the Bell basis; the weight of an index
    counts the sites whose Bell tag is not I. Accepts any normalized grid
    state carrying its schedule (a PepsState, faulted or not). Also returns
    the exact independent-site reference tail: fault-free states match it
    to float precision because their per-site tag marginals are independent
    with non-identity rate ``site_rate(delta)``, whatever the circuit and
    the witness.
    """
    layout, schedule = state.layout, state.delta_per_layer
    b_dag = bell_basis_matrix().conj().T
    rotated = apply_pair_maps(state.amplitudes, layout, [b_dag] * layout.depth)
    idx = np.arange(rotated.size)
    weights = np.zeros(rotated.size, dtype=np.int64)
    sites = list(layout.sites())
    for layer, row in sites:
        lo, _ = layout.site_qubits(layer, row)
        weights += (((idx >> lo) & 3) != 0).astype(np.int64)
    probs = np.abs(rotated) ** 2
    mass = float(probs[weights >= threshold].sum())
    reference = binomial_tail(
        [site_rate(schedule[layer - 1]) for layer, _ in sites], threshold
    )
    return mass, reference


def fault_experiment(
    c: LayeredCircuit, deltas, fault: FaultPattern, tol: float = 1e-9,
    epsilon: float = 0.25,
) -> dict:
    """The fault report of ``soundness --fault-file``.

    Builds the state of ``c`` faulted exactly at ``fault`` with canonical
    payloads, and compares the terms it violates with the declared
    locations. Round-trips it through its error decomposition. Compares
    the fault-free state's Bell-frame mass at tag weight >= ``epsilon``
    times the number of sites with the independent-site tail. Raises
    FaultMismatch when the pattern does not fit the circuit.
    """
    state = build_combinatorial_state(c, deltas, canonical_payloads(c, fault))
    violated = violated_locations(state, tol=max(tol, 1e-15))
    decomposition = extract_decomposition(state)
    rebuilt = reassemble_decomposition(decomposition)
    threshold = max(1, round(epsilon * c.n * c.depth))
    mass, reference = high_weight_mass(build_peps(c, deltas), threshold)
    return {
        "declared_locations": sorted(str(loc) for loc in state.fault),
        "violated_locations": sorted(str(loc) for loc in violated),
        "locations_match": violated == state.fault,
        "coefficients": len(decomposition),
        "coefficient_norm_sq": decomposition.coefficient_norm_sq,
        "roundtrip_fidelity": overlap(rebuilt, state.amplitudes) ** 2,
        "high_weight_threshold": threshold,
        "high_weight_mass": mass,
        "binomial_tail": reference,
        "tail_match": bool(abs(mass - reference) < 1e-10),
    }


def overlap_ceiling(delta: float) -> float:
    """1 - delta^6/2: the claimed largest overlap of two single-wire bulk
    ground spaces whose checks differ by a single-qubit phase flip,
    meaningful for delta below one quarter."""
    return 1.0 - delta**6 / 2.0


class LowEnergyReport:
    """Soundness handles of one state (see ``low_energy_probe``), each
    computed when first asked and kept; ``record`` evaluates one lemma.
    """

    def __init__(self, c: LayeredCircuit, schedule, vector: np.ndarray):
        self.circuit, self.schedule, self.vector = c, schedule, vector
        self.layout = GridLayout(c.n, c.depth)
        self._kept: dict = {}

    def _keep(self, key, compute):
        if key not in self._kept:
            self._kept[key] = compute()
        return self._kept[key]

    @functools.cached_property
    def rotated(self) -> np.ndarray:
        """The state in the product frame: ``RotationUnitary``'s adjoint."""
        return RotationUnitary(self.circuit).apply(self.vector, adjoint=True)

    def _energy(self, layer: int, g: Gate | None = None, wire: int = 0) -> float:
        """Energy of ``g``'s propagation term at ``layer``, or without a
        gate of ``wire``'s input term; no other term is built."""
        return self._keep(("energy", layer, g, wire), lambda: term_energy(
            input_term(wire, self.schedule[0], self.layout) if g is None
            else propagation_term(g, layer, self.schedule, self.layout),
            self.vector, self.layout.num_qubits,
        ))

    def _overlap(self, *sites) -> float:
        """Squared overlap of the rotated state with the product of pair
        ground states on ``sites``."""
        def compute():
            factors = []
            for layer, row in sites:
                lo, hi = self.layout.site_qubits(layer, row)
                factors.append((phi0(self.schedule[layer - 1]), [hi, lo]))
            residual = _contract_factors(self.rotated, factors, self.layout.num_qubits)
            return float(np.linalg.norm(residual) ** 2)
        return self._keep(sites, compute)

    def _zero_weight(self, wire: int) -> float:
        return self._keep(wire, lambda: float(np.real(partial_trace(
            self.rotated, (self.layout.output_qubit(wire),), self.layout.num_qubits
        )[0, 0])))

    # One method per lemma, named after it: (hypothesis, lhs, rhs) at a location.
    def _last_column(self, g: Gate) -> tuple:
        depth, alpha = self.circuit.depth, self._energy(self.circuit.depth, g)
        return {"alpha": alpha}, self._overlap((depth, g.wires[0])), 1.0 - 4.0 * alpha

    def _bulk_forwarding(self, layer: int, g: Gate) -> tuple:
        alpha, d = self._energy(layer, g), self.schedule[layer - 1]
        right = [(layer + 1, w) for w in g.wires]
        eta = 1.0 - self._overlap(*right)
        lhs = self._overlap(*[(layer, w) for w in g.wires], *right)
        return {"eta": eta, "alpha": alpha}, lhs, 1.0 - eta / d**8 - alpha / d**16

    def _input_teleport(self, wire: int) -> tuple:
        alpha = self._energy(1, wire=wire)
        eta = 1.0 - self._overlap((1, wire))
        rhs = 1.0 - (eta + alpha) / self.schedule[0] ** 2
        return {"eta": eta, "alpha": alpha}, self._zero_weight(wire), rhs

    @functools.cached_property
    def _lemmas(self) -> dict:
        """(name, location) -> arguments of the lemma's method, for each
        lemma whose stated shape the circuit meets, in record order."""
        c, schedule = self.circuit, self.schedule
        out = {
            ("last_column", ("row", g.wires[0])): (g,)
            for g in c.layers[-1] if g.arity == 1 and g.is_trivial
        }
        out.update(
            (("bulk_forwarding", ("gate", layer, g.wires)), (layer, g))
            for layer in range(1, c.depth)
            if abs(schedule[layer - 1] - schedule[layer]) <= 1e-12
            for g in c.layers[layer - 1] if g.arity == 2
        )
        out.update((("input_teleport", ("wire", w)), (w,)) for w in range(c.a))
        return out

    def record(self, name: str, location: tuple) -> tuple[dict, float, float]:
        """The ``name`` lemma at ``location`` as (hypothesis values, lhs,
        rhs), from only the values it reads; it holds when lhs >= rhs, and
        the hypothesis values are measured from the state, never assumed.
        ValueError outside the lemma's stated shape."""
        if (name, location) not in self._lemmas:
            raise ValueError(f"no {name} record at {location}")
        return getattr(self, f"_{name}")(*self._lemmas[name, location])


def low_energy_probe(c: LayeredCircuit, deltas, vec) -> LowEnergyReport:
    """The soundness handles of a unit-norm grid vector, as a
    ``LowEnergyReport``.

    Only the norm is checked here. Each value a record reads is computed
    when first asked for and kept: the state rotated into the product
    frame, a per-site overlap with the single-pair ground state, a
    per-ancilla output-column zero weight, a term energy. Each applicable
    inequality is evaluated with its hypothesis values measured from the
    same state:

    * last column: a trivially gated last-layer row with term energy a has
      final-site overlap at least 1 - 4a;
    * bulk forwarding, for two-wire gates below the last layer at uniform
      neighbouring deltas: right-layer overlap deficit e and term energy a
      give four-site overlap at least 1 - e/delta^8 - a/delta^16;
    * input teleportation, per ancilla wire: first-layer overlap deficit e
      and input-term energy a give output zero weight at least
      1 - (e + a)/delta^2.

    Rows or gates outside a lemma's stated shape are skipped, not forced.
    """
    vec = np.asarray(vec, dtype=np.complex128)
    if abs(np.linalg.norm(vec) - 1.0) > 1e-8:
        raise ValueError(f"expected a unit-norm state, got norm {np.linalg.norm(vec)}")
    return LowEnergyReport(c, resolve_deltas(deltas, c.depth), vec)


@dataclass(frozen=True)
class InstanceRecord:
    """One suite instance: parameters, both sides, oriented slack.

    Nonnegative slack means the inequality held; ``holds`` allows a float
    cushion of 1e-12.
    """

    suite: str
    index: int
    parameters: dict
    lhs: float
    rhs: float
    slack: float
    holds: bool


@dataclass(frozen=True)
class SuiteResult:
    """All records of one suite run plus what is needed to replay it."""

    suite: str
    seed: int
    records: tuple[InstanceRecord, ...]

    @property
    def failures(self) -> tuple[InstanceRecord, ...]:
        return tuple(r for r in self.records if not r.holds)

    def manifest(self) -> dict:
        """Replay recipe: suite name, seed, count, and failure indices."""
        return {
            "suite": self.suite,
            "seed": self.seed,
            "instances": len(self.records),
            "failures": [r.index for r in self.failures],
        }


def _record(suite, index, parameters, lhs, rhs, slack) -> InstanceRecord:
    return InstanceRecord(
        suite=suite,
        index=index,
        parameters=parameters,
        lhs=float(lhs),
        rhs=float(rhs),
        slack=float(slack),
        holds=bool(slack >= -1e-12),
    )


def _noncommuting_degree(projectors) -> int:
    # |pq - qp| and |qp - pq| agree bit for bit, so each pair is compared once
    counts = [0] * len(projectors)
    for i, j in itertools.combinations(range(len(projectors)), 2):
        p, q = projectors[i], projectors[j]
        if np.abs(p @ q - q @ p).max() > 1e-10:
            counts[i] += 1
            counts[j] += 1
    return max(*counts, 1)


def _random_projector_family(rng):
    num_qubits = int(rng.integers(3, 6))
    dim = 2**num_qubits
    count = int(rng.integers(2, 6))
    projectors = [
        random_projector(dim, int(rng.integers(1, dim)), rng)
        for _ in range(count)
    ]
    state = random_state(num_qubits, rng)
    return dim, projectors, state


def _detectability_instance(suite, index, rng) -> InstanceRecord:
    dim, projectors, state = _random_projector_family(rng)
    g = _noncommuting_degree(projectors)
    lhs, rhs = detectability_check(projectors, g, state)
    params = {"dim": dim, "terms": len(projectors), "g": g}
    return _record(suite, index, params, lhs, rhs, rhs - lhs)


def _union_bound_instance(suite, index, rng) -> InstanceRecord:
    dim, projectors, state = _random_projector_family(rng)
    lhs, rhs = union_bound_check(projectors, state)
    params = {"dim": dim, "terms": len(projectors)}
    return _record(suite, index, params, lhs, rhs, lhs - rhs)


def _random_psd_with_kernel(dim, rng) -> tuple[np.ndarray, int]:
    kernel = int(rng.integers(1, dim // 2 + 1))
    eigs = np.concatenate(
        [np.zeros(kernel), rng.uniform(0.2, 2.0, size=dim - kernel)]
    )
    v = random_unitary(dim, rng)
    return (v * eigs) @ v.conj().T, kernel


def _geometric_instance(suite, index, rng) -> InstanceRecord:
    dim = 2 ** int(rng.integers(2, 5))
    a, ka = _random_psd_with_kernel(dim, rng)
    b, kb = _random_psd_with_kernel(dim, rng)
    gb = geometric_bound(a, b)
    params = {
        "dim": dim,
        "kernel_a": ka,
        "kernel_b": kb,
        "gamma": gb.gamma,
        "theta": gb.theta,
    }
    return _record(suite, index, params, gb.min_eig, gb.bound, gb.min_eig - gb.bound)


def _jordan_instance(suite, index, rng) -> InstanceRecord:
    dim = int(rng.integers(8, 33))
    p1 = random_projector(dim, int(rng.integers(1, dim)), rng)
    p2 = random_projector(dim, int(rng.integers(1, dim)), rng)
    dec = jordan_angles(p1, p2)
    residual = dec.max_residual
    for side, target in (("left", p1), ("right", p2)):
        residual = max(
            residual, float(np.abs(dec.reconstruct(side) - target).max())
        )
    params = {"dim": dim, "blocks": len(dec.blocks)}
    tol = 1e-9
    return _record(suite, index, params, residual, tol, tol - residual)


_ONE_QUBIT_POOL = ("I", "H", "T", "S", "X", "Z")
_TWO_QUBIT_POOL = ("CNOT", "CZ", "SWAP")


def _random_layer(n, rng):
    if n >= 2 and rng.random() < 0.5:
        name = _TWO_QUBIT_POOL[int(rng.integers(len(_TWO_QUBIT_POOL)))]
        return [(name, (0, 1))]
    return [
        (_ONE_QUBIT_POOL[int(rng.integers(len(_ONE_QUBIT_POOL)))], (w,))
        for w in range(n)
    ]


def _noisy_probe(c, delta, rng) -> tuple[LowEnergyReport, float]:
    """``low_energy_probe`` of a ground vector of the unpenalized spec plus a
    random push, and the size of that push."""
    xi = random_state(c.n - c.a, rng) if c.a < c.n else None
    ground = build_peps(c, delta, xi=xi)
    epsilon = float(10.0 ** rng.uniform(-6.0, -0.5))
    push = random_state(c.n * (2 * c.depth + 1), rng)
    vec = ground.amplitudes + epsilon * push
    return low_energy_probe(c, delta, vec / np.linalg.norm(vec)), epsilon


def _lemma_row(suite, index, probe, name, location, **params) -> InstanceRecord:
    """The suite row of the probe's ``name`` record at ``location``, with
    the record's hypothesis values among the parameters."""
    hypothesis, lhs, rhs = probe.record(name, location)
    return _record(suite, index, params | hypothesis, lhs, rhs, lhs - rhs)


def _last_column_instance(suite, index, rng) -> InstanceRecord:
    n = int(rng.integers(1, 3))
    depth = int(rng.integers(1, 3))
    a = int(rng.integers(0, n + 1))
    delta = float(rng.uniform(0.3, 0.95))
    specs = [_random_layer(n, rng) for _ in range(depth - 1)]
    specs.append([("I", (w,)) for w in range(n)])
    probe, epsilon = _noisy_probe(layered(n, a, specs), delta, rng)
    row = int(rng.integers(n))
    return _lemma_row(
        suite, index, probe, "last_column", ("row", row),
        n=n, a=a, depth=depth, delta=delta, epsilon=epsilon, row=row,
    )


def _bulk_forwarding_instance(suite, index, rng) -> InstanceRecord:
    a = int(rng.integers(0, 3))
    delta = float(rng.uniform(0.5, 0.95))
    if rng.random() < 0.5:
        gate_label = _TWO_QUBIT_POOL[int(rng.integers(len(_TWO_QUBIT_POOL)))]
        first = [(gate_label, (0, 1))]
    else:
        first = [(random_unitary(4, rng), (0, 1))]
        gate_label = "haar"
    c = layered(2, a, [first, [("I", (0,)), ("I", (1,))]])
    probe, epsilon = _noisy_probe(c, delta, rng)
    return _lemma_row(
        suite, index, probe, "bulk_forwarding", ("gate", 1, (0, 1)),
        a=a, delta=delta, epsilon=epsilon, gate=gate_label,
    )


def _input_teleport_instance(suite, index, rng) -> InstanceRecord:
    n = int(rng.integers(1, 3))
    depth = int(rng.integers(1, 3))
    a = int(rng.integers(1, n + 1))
    delta = float(rng.uniform(0.3, 0.95))
    specs = [_random_layer(n, rng) for _ in range(depth)]
    probe, epsilon = _noisy_probe(layered(n, a, specs), delta, rng)
    wire = int(rng.integers(a))
    return _lemma_row(
        suite, index, probe, "input_teleport", ("wire", wire),
        n=n, a=a, depth=depth, delta=delta, epsilon=epsilon, wire=wire,
    )


_SUITES = {
    "detectability": (1, _detectability_instance),
    "union_bound": (2, _union_bound_instance),
    "geometric": (3, _geometric_instance),
    "jordan": (4, _jordan_instance),
    "robust_last_column": (5, _last_column_instance),
    "robust_bulk_forwarding": (6, _bulk_forwarding_instance),
    "robust_input_teleport": (7, _input_teleport_instance),
}

SUITE_NAMES = tuple(_SUITES)


def _require_suite(name: str) -> None:
    if name not in _SUITES:
        raise ValueError(
            f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}"
        )


def require_suites(names) -> None:
    """Refuse an unknown suite name, or one named more than once."""
    seen = set()
    for name in names:
        _require_suite(name)
        if name in seen:
            raise ValueError(f"suite {name!r} named more than once")
        seen.add(name)


def run_suite(
    name: str, instances: int = 200, seed: int = 0, max_workers: int = 1
) -> SuiteResult:
    """Run one named inequality suite over seeded random instances.

    Instance ``i`` derives its generator from (seed, suite salt, i), so
    any single row can be replayed in isolation, and the records come back
    in index order. The commands reach it through ``run_suites``, which
    runs each suite whole in one forked worker, its instances one after the
    other. ``max_workers`` above 1 spreads the instances over that many
    threads instead; these small GIL-bound calls gain nothing from it, and
    only the benchmark's tracer test sets it, to check the spans of worker
    threads.
    """
    _require_suite(name)
    one = functools.partial(replay_instance, name, seed)
    if max_workers <= 1 or instances <= 1:
        records = [one(i) for i in range(instances)]
    else:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            records = list(pool.map(one, range(instances)))
    return SuiteResult(name, seed, tuple(records))


def run_suites(names, instances: int, seed: int) -> list[SuiteResult]:
    """``run_suite(name, instances, seed)`` for each name, in order.

    The suites run through ``limits.fork_map``: each suite whole in a forked
    worker, one per CPU and at most one per suite, or here, one after the
    other, with one worker. An unknown or repeated name is refused before
    any worker starts.
    """
    require_suites(names)
    return fork_map(lambda name: run_suite(name, instances, seed), names)


def replay_instance(name: str, seed: int, index: int) -> InstanceRecord:
    """Recompute one suite row from its manifest coordinates."""
    salt, fn = _SUITES[name]
    rng = np.random.default_rng((seed, salt, index))
    return fn(name, index, rng)

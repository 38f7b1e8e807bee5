"""The closed-form identity suite behind ``verify``, and one ``scan`` row.

``verify_checks`` builds each fixture's grid state and parent Hamiltonian
per delta and measures one ``Check`` row per identity, each against an
independent oracle:

* ``frustration_freeness``: the largest term energy of the grid state,
  against 0.
* ``ground_fidelity`` (only when every wire is an ancilla): a certified
  lower bound on the overlap of the grid state with the parent's ground
  state, against 1.  The parent theorem makes the grid state q of the
  Hamiltonian's own schedule its ground state; ``ground_certificate``
  bounds the angle between q and the true ground vector by Davis–Kahan,
  from one inertia count of the shifted parent, and the angle between q
  and the grid state adds to it (q is the grid state itself unless
  ``--inject-delta`` doctors the Hamiltonian).  A ground state that the
  count does not show unique, at the tolerance's shift or at the accuracy
  floor's, fails with NaN.
* ``expansion_reassembly``: overlap of the grid state with its Pauli-word
  expansion summed back onto the grid, against 1.
* ``depolarizing_marginal``: trace distance of the output marginal from
  the depolarizing-channel composition, against 0.
* ``teleported_input[w]``: attenuation of ancilla w's |1><1| check funneled
  through its pair onto the output column (``teleport_input``, on the
  one-wire teleport grid, extracted once per delta), against
  ``teleport_coefficient``; NaN when the input term is not dressed at the
  delta of the grid state's first layer.
* ``last_layer[g]``: the rotated last-layer block, against
  ``last_layer_form``. ``rotate_term`` extracts it on the first stop of the
  rotation's walk from the output side (``RotationUnitary.walk``), the last
  layer's factors, where it loses its output legs.
* ``clifford_bulk[g]``: the rotated bulk block of a Pauli-normalizing gate,
  against ``clifford_form``; extracted on the walk's first stop, the
  factors down to the gate's own layer.
* ``projected_bulk[g]``: that block with its right pairs projected onto
  their ground state, against ``projected_bulk_form``.
* ``nonlocality_diagnostic[g]``: for any other bulk gate, the leakage
  ``locality_residual`` onto the output column, which must exceed 1e-3: the
  worst over random states of the first stop, the cone the other rotated
  rows are extracted on, where the leakage does not fall with the gate's
  layer.

The last-layer, Clifford and projected rows measure the spectral norm of
the Hermitian difference between the rotated block and its closed form.  A
deviation within the tolerance passes; one within ``_ACCURACY_FLOOR``, the
accuracy the closed forms are computed to, lands in the "tolerance" class;
anything larger fails.

The (fixture, delta) cases share nothing, so they run apart: the calling
process budgets the stop each term is extracted on (``require_cones``) and
resolves every schedule first, then ``limits.fork_map`` runs the cases in
forked workers, one per CPU, which inherit the cases, build every closed
form they check against and send back only their rows; the rows keep their
fixture-major, then delta, order.  A single case, as in ``verify
--circuit``, runs in the calling process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import LayeredCircuit, layered
from .hamiltonian import HamiltonianSpec, assemble, energy, parent_spec
from .io import fmt_float
from .limits import fork_map
from .linalg import overlap, trace_distance
from .peps import (
    build_peps,
    depolarizing_reference_marginal,
    expansion,
    output_marginal,
    reassemble_expansion,
    resolve_deltas,
)
from .rotation import (
    clifford_form,
    last_layer_form,
    locality_residual,
    pair_ground,
    project_qubits,
    projected_bulk_form,
    projected_gap_check,
    require_cones,
    rotate_term,
    teleport_coefficient,
    teleport_input,
)
from .soundness import overlap_ceiling
from .spectral import gap_vs_bound, ground_certificate

__all__ = [
    "Check",
    "SCAN_HEADER",
    "check_status",
    "ground_fidelity_check",
    "named_fixtures",
    "scan_row",
    "verify_checks",
]

# Residual the closed-form suite is accurate to; a requested tolerance
# below this can fail without indicting the construction itself.
_ACCURACY_FLOOR = 1e-9

SCAN_HEADER = (
    "delta_schedule",
    "gap",
    "weight_product",
    "teleport_coefficient",
    "pair_overlap_bound",
    "projected_gap",
    "projected_floor",
    "projected_floor_holds",
)


@dataclass(frozen=True)
class Check:
    """One verify row: a measured deviation against its tolerance."""

    name: str
    circuit: str
    delta: float
    value: float
    reference: float
    deviation: float
    status: str


def check_status(deviation: float, tol: float) -> str:
    """The class of a deviation: "pass", "tolerance" or "fail"."""
    if deviation <= tol:
        return "pass"
    if deviation <= _ACCURACY_FLOOR:
        return "tolerance"
    return "fail"


def _zero_check(
    name: str, circuit: str, delta: float, deviation: float, tol: float
) -> Check:
    """A row whose measured value is its own deviation from zero."""
    return Check(
        name, circuit, delta, deviation, 0.0, deviation,
        check_status(deviation, tol),
    )


def named_fixtures() -> list[tuple[str, LayeredCircuit]]:
    """The built-in verify circuits, by name."""
    return [
        ("identity1", layered(1, 1, [[("I", (0,))]])),
        ("hadamard", layered(1, 1, [[("H", (0,))]])),
        ("identity2", layered(2, 2, [[("I", (0,)), ("I", (1,))]] * 2)),
        (
            "bell",
            layered(2, 2, [[("H", (1,)), ("I", (0,))], [("CNOT", (1, 0))]]),
        ),
        (
            "cnot_bulk",
            layered(2, 2, [[("CNOT", (1, 0))], [("I", (0,)), ("I", (1,))]]),
        ),
        (
            "t_bulk",
            layered(2, 2, [[("T", (0,)), ("I", (1,))], [("CZ", (0, 1))]]),
        ),
    ]


def _wire_tag(gate, term) -> str:
    label = gate.name or "u"
    return label + "@" + "-".join(str(w) for w in term.wires)


def ground_fidelity_check(
    name: str, delta: float, spec: HamiltonianSpec, grid, state, tol: float
) -> Check:
    """A lower bound on |<v|state>|^2, v the ground vector of ``spec``'s
    parent and ``grid`` the grid state of ``spec``'s schedule; NaN when the
    ground state is not certified unique.

    With sin θ1 ≤ s1 from ``ground_certificate`` (at ``tol``, then at
    ``_ACCURACY_FLOOR``) and sin θ2 = s2 the angle between ``grid`` and
    ``state``, the angle between v and ``state`` is at most θ1 + θ2, so the
    deviation 1 - |<v|state>|^2 is at most (s1 + s2)^2.
    """
    op, q = assemble(spec), grid.amplitudes
    s1 = ground_certificate(op, q, tol)
    if math.isnan(s1) and tol < _ACCURACY_FLOOR:
        s1 = ground_certificate(op, q, _ACCURACY_FLOOR)
    if math.isnan(s1):
        nan = float("nan")
        return Check("ground_fidelity", name, delta, nan, 1.0, nan, "fail")
    s2 = 0.0
    if grid is not state:
        s2 = math.sqrt(max(0.0, 1.0 - overlap(q, state.amplitudes) ** 2))
    deviation = min(1.0, (s1 + s2) ** 2)
    return Check(
        "ground_fidelity", name, delta, 1.0 - deviation, 1.0, deviation,
        check_status(deviation, max(tol, 1e-12)),
    )


def _norm_deviation(block: np.ndarray, closed: np.ndarray) -> float:
    """The spectral norm of ``block - closed``, two Hermitian matrices: the
    largest eigenvalue magnitude of the difference, found for less than its
    singular values cost."""
    eigs = np.linalg.eigvalsh(block - closed)
    return float(max(-eigs[0], eigs[-1]))


def _rotated_checks(
    name: str,
    c: LayeredCircuit,
    spec: HamiltonianSpec,
    schedule,
    tol: float,
) -> list[Check]:
    checks: list[Check] = []
    depth = c.depth
    gates = {
        (g_layer, tuple(g.wires)): g
        for g_layer, layer in enumerate(c.layers, start=1)
        for g in layer
    }
    for term in spec.terms:
        if term.kind == "input":
            try:
                _, value, deviation = teleport_input(term, schedule[0])
            except ValueError:
                value = deviation = float("nan")
            reference = teleport_coefficient(schedule[0])
            checks.append(Check(
                f"teleported_input[w{term.wires[0]}]", name, schedule[0],
                value, reference, deviation, check_status(deviation, tol),
            ))
            continue
        gate = gates[(term.layer, term.wires)]
        k = gate.arity
        tag = _wire_tag(gate, term)
        if term.layer == depth:
            rotated = rotate_term(term, c)
            closed = last_layer_form(k, schedule[depth - 1])
            checks.append(_zero_check(
                f"last_layer[{tag}]", name, schedule[depth - 1],
                _norm_deviation(rotated.block, closed), tol,
            ))
            continue
        dl, dr = schedule[term.layer - 1], schedule[term.layer]
        if gate.is_clifford:
            rotated = rotate_term(term, c)
            closed = clifford_form(gate, dl, dr)
            checks.append(_zero_check(
                f"clifford_bulk[{tag}]", name, dl,
                _norm_deviation(rotated.block, closed), tol,
            ))
            qubits, ground = pair_ground(
                spec.layout, term.layer + 1, sorted(term.wires), dr
            )
            reduced, _ = project_qubits(
                rotated.block, rotated.support, qubits, ground
            )
            closed = projected_bulk_form(k, dl, dr)
            checks.append(_zero_check(
                f"projected_bulk[{tag}]", name, dl,
                _norm_deviation(reduced, closed), tol,
            ))
        else:
            residual = float(locality_residual(term, c))
            checks.append(Check(
                f"nonlocality_diagnostic[{tag}]", name, dl,
                residual, 1e-3, residual, "pass" if residual > 1e-3 else "fail",
            ))
    return checks


def _case_checks(case, tol: float) -> list[Check]:
    """The rows of one (fixture, delta) case: ``(name, c, delta, (schedule,
    spec_schedule))``. Every closed form is built here, by the case that
    checks against it."""
    name, c, delta, (schedule, spec_schedule) = case
    state = build_peps(c, schedule)
    spec = parent_spec(c, spec_schedule)
    report = energy(spec, state)
    worst = max(report.per_term)
    checks = [_zero_check("frustration_freeness", name, delta, worst, tol)]
    if c.a == c.n:
        grid = state if spec_schedule == schedule else build_peps(c, spec_schedule)
        checks.append(ground_fidelity_check(name, delta, spec, grid, state, tol))
    rebuilt = reassemble_expansion(c, expansion(c, None, schedule))
    fid = overlap(rebuilt / np.linalg.norm(rebuilt), state.amplitudes) ** 2
    del rebuilt  # one grid vector fewer through the rows below
    checks.append(Check(
        "expansion_reassembly", name, delta, fid, 1.0, 1.0 - fid,
        check_status(1.0 - fid, max(tol, 1e-12)),
    ))
    marginal = output_marginal(state)
    reference = depolarizing_reference_marginal(c, None, schedule)
    deviation = float(trace_distance(marginal, reference))
    checks.append(_zero_check(
        "depolarizing_marginal", name, delta, deviation, tol
    ))
    checks.extend(_rotated_checks(name, c, spec, schedule, tol))
    return checks


def verify_checks(
    fixtures: list[tuple[str, LayeredCircuit]],
    deltas,
    tol: float,
    schedules=None,
) -> list[Check]:
    """All verify rows for each named circuit at each uniform delta.

    ``schedules(circuit, delta)`` returns the per-layer schedule of the
    grid state and the one of its checked Hamiltonian, which a negative
    control may doctor; by default both are the uniform delta.  Before the
    first case runs, this process budgets the stop each gate term is
    extracted on (``require_cones``) and resolves every case's schedules,
    so a bad input is refused before any worker starts.
    The (fixture, delta) cases then run through ``limits.fork_map``, in
    forked workers that inherit them or, with one CPU or one case, here;
    each case builds its own closed forms, and the rows come back by
    pickle, fixture-major, then by delta.
    """
    for _, c in fixtures:
        require_cones(c)
    cases = []
    for name, c in fixtures:
        for delta in deltas:
            if schedules is None:
                pair = (resolve_deltas(delta, c.depth),) * 2
            else:
                pair = schedules(c, delta)
            cases.append((name, c, delta, pair))
    rows = fork_map(lambda case: _case_checks(case, tol), cases)
    return [check for case_rows in rows for check in case_rows]


def scan_row(c: LayeredCircuit, schedule, delta: float, seed: int = 0) -> tuple:
    """One ``scan.csv`` row (see ``SCAN_HEADER``) at a per-layer schedule.

    The measured parent gap next to the theory's weight product, then the
    single-wire closed forms at the uniform ``delta``.
    """
    gap, product = gap_vs_bound(c, schedule, seed=seed)
    pgap, floor, holds = projected_gap_check(1, delta)
    return (
        ";".join(fmt_float(v) for v in schedule),
        gap,
        product,
        teleport_coefficient(delta),
        overlap_ceiling(delta),
        pgap,
        floor,
        holds,
    )

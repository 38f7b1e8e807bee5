"""Batch front end: build, verify, scan, and experiment commands.

Every run is driven by one RunConfig assembled from defaults, an optional
config file, and command-line flags, in rising precedence. The effective
config is echoed to the output directory next to the artifacts, so a run
is reproducible from that file alone. Exit codes: 0 success, 1 a check
failed, 2 bad input.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field, fields, replace
from functools import reduce

import numpy as np

from . import io as cio
from .circuit import (
    LayeredCircuit,
    apply_circuit,
    degree_reduce,
    input_state,
    layered,
    pad_identities,
)
from .hamiltonian import (
    HamiltonianSpec,
    assemble,
    energy,
    parent_spec,
)
from .fk import (
    accept_probability,
    build_dl_verifier,
    build_modified_fk,
    build_swap_test_verifier,
    dl_product,
    history_state,
    invalid_clock_state,
    swap_test_witness,
)
from .linalg import DENSE_QUBIT_CAP, SPARSE_QUBIT_CAP, trace_distance
from .pauli import phi0
from .peps import (
    GridLayout,
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
    project_qubits,
    projected_bulk_form,
    projected_gap_check,
    rotate_term,
    teleport_coefficient,
    teleport_input,
)
from .soundness import (
    SUITE_NAMES,
    build_combinatorial_state,
    canonical_payloads,
    extract_decomposition,
    fault_locations,
    high_weight_mass,
    reassemble_decomposition,
    run_suite,
    violated_locations,
)
from .spectral import dense_spectrum, gap_vs_bound, low_spectrum

# Residual the closed-form suite is accurate to; a requested tolerance
# below this can fail without indicting the construction itself.
_ACCURACY_FLOOR = 1e-9

_SCAN_POINT_CAP = 512
_VERIFIER_QUBIT_CAP = 22


class InputError(Exception):
    """Bad user input detected past argument parsing; maps to exit 2."""


@dataclass(frozen=True)
class RunConfig:
    """Everything one run depends on; serializable, seed included."""

    command: str
    circuit: str | None = None
    delta: float = 0.5
    delta_layers: dict[int, float] = field(default_factory=dict)
    delta_grid: tuple[float, ...] | None = None
    seed: int = 0
    out: str = "out"
    tolerance: float = 1e-10
    solver: str = "auto"
    eigenvalues: int = 6
    solver_tol: float = 1e-9
    max_iter: int = 5000
    alpha: float = 1e-3
    epsilon: float = 0.25
    fault_file: str | None = None
    instances: int = 200
    suites: tuple[str, ...] | None = None
    mtx: bool = False
    inject_delta: dict[int, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, dict):
                value = {str(k): v for k, v in value.items()}
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict, base: "RunConfig") -> "RunConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise cio.SchemaError(
                f"unknown config field {sorted(unknown)[0]!r}",
                sorted(unknown)[0],
            )
        updates = dict(data)
        for key in ("delta_layers", "inject_delta"):
            if key in updates:
                try:
                    updates[key] = {
                        int(k): float(v) for k, v in updates[key].items()
                    }
                except (TypeError, ValueError, AttributeError) as e:
                    raise cio.SchemaError(str(e), key) from e
        for key in ("delta_grid", "suites"):
            if key in updates and updates[key] is not None:
                updates[key] = tuple(updates[key])
        return replace(base, **updates)


def _parse_assignments(pairs, what: str) -> dict[int, float]:
    out: dict[int, float] = {}
    for pair in pairs or []:
        try:
            left, right = pair.split("=", 1)
            layer = int(left)
            value = float(right)
        except ValueError:
            raise InputError(
                f"{what} expects LAYER=VALUE, got {pair!r}"
            ) from None
        if layer < 1:
            raise InputError(f"{what} layers are 1-based, got {layer}")
        out[layer] = value
    return out


def _parse_grid(text: str | None) -> tuple[float, ...] | None:
    if text is None:
        return None
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise InputError(
            f"--delta-grid expects comma-separated numbers, got {text!r}"
        ) from None


def parse_args(argv) -> RunConfig:
    parser = argparse.ArgumentParser(
        prog="clockless",
        description=(
            "Build and interrogate clock-free circuit Hamiltonians on "
            "injective tensor-network grids."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file (flags win)")
    common.add_argument("--circuit", help="circuit JSON file")
    common.add_argument("--delta", type=float, help="uniform injectivity weight")
    common.add_argument(
        "--delta-layer",
        action="append",
        metavar="L=V",
        help="per-layer weight override, 1-based; repeatable",
    )
    common.add_argument("--seed", type=int, help="boxed randomness seed")
    common.add_argument("--out", help="output directory")
    common.add_argument("--tolerance", type=float, help="check tolerance")
    solver = common.add_mutually_exclusive_group()
    solver.add_argument(
        "--dense", action="store_const", const="dense", dest="solver",
        help="force dense diagonalization",
    )
    solver.add_argument(
        "--iterative", action="store_const", const="iterative", dest="solver",
        help="force the iterative eigensolver",
    )
    common.add_argument("--alpha", type=float, help="per-term energy budget")
    common.add_argument("--fault-file", help="fault pattern JSON file")
    common.set_defaults(solver=None)

    sub = parser.add_subparsers(dest="command", required=True)
    build = sub.add_parser("build", parents=[common], help="build artifacts")
    build.add_argument(
        "--mtx", action="store_true", default=None,
        help="also export the Hamiltonian in Matrix Market form",
    )
    verify = sub.add_parser(
        "verify", parents=[common], help="closed-form identity suite"
    )
    verify.add_argument(
        "--inject-delta",
        action="append",
        metavar="L=V",
        help=(
            "negative control: doctor the checked Hamiltonian's weight at "
            "one layer so frustration-freeness must fail"
        ),
    )
    scan = sub.add_parser("scan", parents=[common], help="weight sweeps")
    scan.add_argument(
        "--delta-grid", metavar="V1,V2,...",
        help="grid of uniform weights, one CSV row per value",
    )
    soundness = sub.add_parser(
        "soundness", parents=[common], help="inequality suites and faults"
    )
    soundness.add_argument(
        "--suites", metavar="NAME,...",
        help=f"comma list from {', '.join(SUITE_NAMES)}; default all",
    )
    soundness.add_argument(
        "--instances", type=int, help="instances per suite (default 200)"
    )
    fk = sub.add_parser(
        "fk", parents=[common], help="unary-clock encoding report"
    )
    fk.add_argument(
        "--mtx", action="store_true", default=None,
        help="also export the clock Hamiltonian in Matrix Market form",
    )
    sub.add_parser(
        "swapqma", parents=[common], help="swap-test verifier report"
    )

    args = parser.parse_args(argv)
    cfg = RunConfig(command=args.command)
    if args.config:
        data = cio.read_json(args.config)
        if not isinstance(data, dict):
            raise cio.SchemaError("config file must hold an object")
        data.pop("command", None)
        cfg = RunConfig.from_dict(data, cfg)

    updates = {}
    for name in ("circuit", "delta", "seed", "out", "tolerance", "alpha"):
        value = getattr(args, name)
        if value is not None:
            updates[name] = value
    if args.solver is not None:
        updates["solver"] = args.solver
    if args.fault_file is not None:
        updates["fault_file"] = args.fault_file
    if args.delta_layer:
        updates["delta_layers"] = _parse_assignments(
            args.delta_layer, "--delta-layer"
        )
    if getattr(args, "mtx", None):
        updates["mtx"] = True
    if getattr(args, "inject_delta", None):
        updates["inject_delta"] = _parse_assignments(
            args.inject_delta, "--inject-delta"
        )
    if getattr(args, "delta_grid", None) is not None:
        updates["delta_grid"] = _parse_grid(args.delta_grid)
    if getattr(args, "suites", None) is not None:
        names = tuple(s for s in args.suites.split(",") if s)
        updates["suites"] = names
    if getattr(args, "instances", None) is not None:
        updates["instances"] = args.instances
    return replace(cfg, **updates)


def _echo_config(cfg: RunConfig) -> None:
    cio.write_json(os.path.join(cfg.out, "config.json"), cfg.to_dict())


def _load_circuit(cfg: RunConfig) -> LayeredCircuit:
    if cfg.circuit is None:
        raise InputError("this command needs --circuit")
    return cio.read_circuit_json(cfg.circuit)


def _schedule(cfg: RunConfig, depth: int) -> tuple[float, ...]:
    values = [cfg.delta] * depth
    for layer, value in sorted(cfg.delta_layers.items()):
        if not 1 <= layer <= depth:
            raise InputError(
                f"--delta-layer {layer} outside this circuit's 1..{depth}"
            )
        values[layer - 1] = value
    return resolve_deltas(values, depth)


def _solver_choice(cfg: RunConfig, num_qubits: int) -> str:
    if cfg.solver != "auto":
        return cfg.solver
    return "dense" if num_qubits <= 10 else "iterative"


def _require_sparse_export(num_qubits: int) -> None:
    """Refuse --mtx up front, before any artifact is written."""
    if num_qubits > SPARSE_QUBIT_CAP:
        raise InputError(
            f"--mtx would export a sparse matrix on {num_qubits} qubits, "
            f"beyond the cap of {SPARSE_QUBIT_CAP}; drop --mtx"
        )


# --------------------------------------------------------------------------
# build


def cmd_build(cfg: RunConfig) -> int:
    c = _load_circuit(cfg)
    schedule = _schedule(cfg, c.depth)
    if cfg.mtx:
        _require_sparse_export(GridLayout(c.n, c.depth).num_qubits)
    state = build_peps(c, schedule)
    spec = parent_spec(c, schedule)
    _echo_config(cfg)
    cio.write_state_bin(os.path.join(cfg.out, "state.bin"), state.amplitudes)
    cio.write_term_manifest(os.path.join(cfg.out, "terms.json"), spec.terms)
    operator = assemble(spec)
    if cfg.mtx:
        cio.write_matrix_market(
            os.path.join(cfg.out, "hamiltonian.mtx"), operator
        )
    method = _solver_choice(cfg, spec.layout.num_qubits)
    if method == "dense":
        spectral = dense_spectrum(operator, vectors=cfg.eigenvalues)
    else:
        spectral = low_spectrum(
            operator,
            k=cfg.eigenvalues,
            tol=cfg.solver_tol,
            max_iter=cfg.max_iter,
            seed=cfg.seed,
        )
    cio.write_spectral_report(
        os.path.join(cfg.out, "spectral.json"), spectral
    )
    cio.write_state_bin(
        os.path.join(cfg.out, "ground.bin"), spectral.eigenvectors[:, 0]
    )
    report = energy(spec, state, tol=max(cfg.tolerance, 1e-15))
    cio.write_json(
        os.path.join(cfg.out, "build_report.json"),
        {
            "num_qubits": spec.layout.num_qubits,
            "terms": len(spec.terms),
            "delta_schedule": list(schedule),
            "total_energy": report.total,
            "max_term_energy": max(report.per_term),
            "solver": spectral.method,
            "ground_dim": spectral.ground_dim,
            "gap": spectral.gap,
        },
    )
    print(f"built {spec.layout.num_qubits}-qubit state, {len(spec.terms)} terms")
    print(f"artifacts in {cfg.out}")
    return 0


# --------------------------------------------------------------------------
# verify


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


def _status(deviation: float, tol: float) -> str:
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
        name, circuit, delta, deviation, 0.0, deviation, _status(deviation, tol)
    )


def _named_fixtures() -> list[tuple[str, LayeredCircuit]]:
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


def _right_pair_state(term, layout, delta_next: float):
    rows = sorted(term.wires)
    qubits = tuple(
        q for w in rows for q in layout.site_qubits(term.layer + 1, w)
    )
    ground = reduce(np.kron, [phi0(delta_next)] * len(rows))
    return qubits, ground


def _wire_tag(gate, term) -> str:
    label = gate.name or "u"
    return label + "@" + "-".join(str(w) for w in term.wires)


def _fidelity_check(check: str, name: str, delta: float, vec, state, tol) -> Check:
    """A row scoring the overlap |<vec|state>|^2 of two unit vectors."""
    fid = float(abs(np.vdot(vec, state.amplitudes)) ** 2)
    deviation = 1.0 - fid
    return Check(
        check, name, delta, fid, 1.0, deviation,
        _status(deviation, max(tol, 1e-12)),
    )


def _ground_fidelity_check(
    name: str, delta: float, spec: HamiltonianSpec, state, tol: float
) -> Check:
    """Grid-state overlap with the parent's ground state; NaN if not unique."""
    dense = dense_spectrum(assemble(spec), vectors=1, lowest=2)
    if not dense.ground_resolved:
        nan = float("nan")
        return Check("ground_fidelity", name, delta, nan, 1.0, nan, "fail")
    return _fidelity_check(
        "ground_fidelity", name, delta, dense.eigenvectors[:, 0], state, tol
    )


def _rotated_checks(
    name: str, c: LayeredCircuit, spec: HamiltonianSpec, schedule, tol: float
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
                _, value, deviation = teleport_input(
                    term, schedule[0], tol=_ACCURACY_FLOOR
                )
            except ValueError:
                value = deviation = float("nan")
            reference = teleport_coefficient(schedule[0]) ** len(term.wires)
            checks.append(Check(
                f"teleported_input[w{term.wires[0]}]", name, schedule[0],
                value, reference, deviation, _status(deviation, tol),
            ))
            continue
        if term.kind != "propagation":
            continue
        gate = gates[(term.layer, term.wires)]
        k = gate.arity
        tag = _wire_tag(gate, term)
        if term.layer == depth:
            rotated = rotate_term(term, c)
            closed = last_layer_form(k, schedule[depth - 1])
            checks.append(_zero_check(
                f"last_layer[{tag}]", name, schedule[depth - 1],
                float(np.linalg.norm(rotated.block - closed, 2)), tol,
            ))
            continue
        dl, dr = schedule[term.layer - 1], schedule[term.layer]
        if gate.is_clifford:
            rotated = rotate_term(term, c)
            closed = clifford_form(gate, dl, dr)
            checks.append(_zero_check(
                f"clifford_bulk[{tag}]", name, dl,
                float(np.linalg.norm(rotated.block - closed, 2)), tol,
            ))
            qubits, ground = _right_pair_state(rotated, spec.layout, dr)
            reduced, _ = project_qubits(
                rotated.block, rotated.support, qubits, ground
            )
            closed = projected_bulk_form(k, dl, dr)
            checks.append(_zero_check(
                f"projected_bulk[{tag}]", name, dl,
                float(np.linalg.norm(reduced - closed, 2)), tol,
            ))
        else:
            residual = float(locality_residual(term, c))
            checks.append(Check(
                f"nonlocality_diagnostic[{tag}]", name, dl,
                residual, 1e-3, residual, "pass" if residual > 1e-3 else "fail",
            ))
    return checks


def verify_checks(
    cfg: RunConfig,
    fixtures: list[tuple[str, LayeredCircuit]] | None = None,
    deltas: tuple[float, ...] | None = None,
) -> list[Check]:
    """All verify rows for the fixture set (or the configured circuit)."""
    if fixtures is None:
        if cfg.circuit is not None:
            fixtures = [(os.path.basename(cfg.circuit), _load_circuit(cfg))]
        else:
            fixtures = _named_fixtures()
    if deltas is None:
        deltas = (0.2, 0.5, 0.8) if cfg.circuit is None else (cfg.delta,)
    tol = cfg.tolerance
    checks: list[Check] = []
    for name, c in fixtures:
        for delta in deltas:
            schedule = _schedule(replace(cfg, delta=delta), c.depth)
            state = build_peps(c, schedule)
            spec_schedule = list(schedule)
            for layer, value in sorted(cfg.inject_delta.items()):
                if not 1 <= layer <= c.depth:
                    raise InputError(
                        f"--inject-delta {layer} outside 1..{c.depth}"
                    )
                spec_schedule[layer - 1] = value
            spec = parent_spec(c, tuple(spec_schedule))
            report = energy(spec, state, tol=max(tol, 1e-15))
            worst = max(report.per_term)
            checks.append(
                _zero_check("frustration_freeness", name, delta, worst, tol)
            )
            if c.a == c.n:
                checks.append(
                    _ground_fidelity_check(name, delta, spec, state, tol)
                )
            rebuilt = reassemble_expansion(c, expansion(c, None, schedule))
            checks.append(_fidelity_check(
                "expansion_reassembly", name, delta,
                rebuilt / np.linalg.norm(rebuilt), state, tol,
            ))
            if all(g.is_trivial for layer in c.layers for g in layer):
                marginal = output_marginal(state)
                reference = depolarizing_reference_marginal(c, None, schedule)
                deviation = float(trace_distance(marginal, reference))
                checks.append(_zero_check(
                    "depolarizing_marginal", name, delta, deviation, tol
                ))
            checks.extend(_rotated_checks(name, c, spec, schedule, tol))
    return checks


def cmd_verify(cfg: RunConfig) -> int:
    checks = verify_checks(cfg)
    _echo_config(cfg)
    header = (
        "check", "circuit", "delta", "value", "reference", "deviation",
        "status",
    )
    rows = [
        (
            ch.name, ch.circuit, ch.delta, ch.value, ch.reference,
            ch.deviation, ch.status,
        )
        for ch in checks
    ]
    cio.write_csv(os.path.join(cfg.out, "verify.csv"), header, rows)
    bad = [ch for ch in checks if ch.status != "pass"]
    passed = len(checks) - len(bad)
    print(f"{passed}/{len(checks)} checks passed; report in {cfg.out}/verify.csv")
    if bad:
        first = bad[0]
        print(
            f"first failing check: {first.name} on {first.circuit} at "
            f"delta={first.delta:g} ({first.status}, deviation "
            f"{first.deviation:.3e})",
            file=sys.stderr,
        )
        return 1
    return 0


# --------------------------------------------------------------------------
# scan


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


def cmd_scan(cfg: RunConfig) -> int:
    if cfg.circuit is not None:
        c = _load_circuit(cfg)
    else:
        c = layered(1, 1, [[("I", (0,))]])
    grid = cfg.delta_grid if cfg.delta_grid is not None else (cfg.delta,)
    num_qubits = c.n * (2 * c.depth + 1)
    if len(grid) > _SCAN_POINT_CAP:
        raise InputError(
            f"grid of {len(grid)} points exceeds the cap of "
            f"{_SCAN_POINT_CAP}; split the sweep"
        )
    if num_qubits > DENSE_QUBIT_CAP:
        estimate = 16.0 * 4.0**num_qubits / 2**30
        raise InputError(
            f"scan would diagonalize {len(grid)} operators on "
            f"{num_qubits} qubits (~{estimate:.1f} GiB dense each); "
            f"the cap is {DENSE_QUBIT_CAP} qubits"
        )
    rows = []
    for delta in grid:
        schedule = _schedule(replace(cfg, delta=delta), c.depth)
        gap, product = gap_vs_bound(c, schedule, seed=cfg.seed)
        pgap, floor, holds = projected_gap_check(1, delta)
        rows.append(
            (
                ";".join(cio.fmt_float(v) for v in schedule),
                gap,
                product,
                teleport_coefficient(delta),
                1.0 - delta**6 / 2.0,
                pgap,
                floor,
                holds,
            )
        )
    _echo_config(cfg)
    cio.write_csv(os.path.join(cfg.out, "scan.csv"), SCAN_HEADER, rows)
    print(f"{len(rows)} grid points in {cfg.out}/scan.csv")
    return 0


# --------------------------------------------------------------------------
# soundness


def _fault_experiment(cfg: RunConfig) -> dict:
    if cfg.circuit is not None:
        c = _load_circuit(cfg)
    else:
        c = layered(2, 2, [[("H", (1,)), ("I", (0,))], [("CNOT", (1, 0))]])
    c = pad_identities(c)
    schedule = _schedule(cfg, c.depth)
    fault = cio.read_fault_json(cfg.fault_file)
    try:
        inputs, gates = canonical_payloads(c, fault)
        state = build_combinatorial_state(
            c, schedule, fault, input_payloads=inputs, gate_payloads=gates
        )
    except ValueError as e:
        raise InputError(f"fault pattern does not fit the circuit: {e}") from e
    declared = fault_locations(c, fault)
    violated = violated_locations(state, tol=max(cfg.tolerance, 1e-15))
    decomposition = extract_decomposition(state)
    rebuilt = reassemble_decomposition(decomposition)
    fidelity = float(abs(np.vdot(rebuilt, state.amplitudes)) ** 2)
    clean = build_peps(c, schedule)
    sites = c.n * c.depth
    threshold = max(1, round(cfg.epsilon * sites))
    mass, reference = high_weight_mass(clean, threshold)
    report = {
        "declared_locations": sorted(str(loc) for loc in declared),
        "violated_locations": sorted(str(loc) for loc in violated),
        "locations_match": violated == declared,
        "coefficients": len(decomposition),
        "coefficient_norm_sq": decomposition.coefficient_norm_sq,
        "roundtrip_fidelity": fidelity,
        "high_weight_threshold": threshold,
        "high_weight_mass": mass,
        "binomial_tail": reference,
        "tail_match": bool(abs(mass - reference) < 1e-10),
    }
    return report


def cmd_soundness(cfg: RunConfig) -> int:
    names = cfg.suites if cfg.suites is not None else SUITE_NAMES
    for name in names:
        if name not in SUITE_NAMES:
            raise InputError(
                f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}"
            )
    _echo_config(cfg)
    results = []
    failures = 0
    for name in names:
        result = run_suite(name, instances=cfg.instances, seed=cfg.seed)
        results.append(result)
        failures += len(result.failures)
        cio.write_suite_csv(
            os.path.join(cfg.out, f"suite_{name}.csv"), result
        )
        print(
            f"{name}: {len(result.records)} instances, "
            f"{len(result.failures)} violations"
        )
    cio.write_suite_manifest(os.path.join(cfg.out, "suites.json"), results)
    fault_ok = True
    if cfg.fault_file is not None:
        report = _fault_experiment(cfg)
        cio.write_json(os.path.join(cfg.out, "fault_report.json"), report)
        fault_ok = (
            report["locations_match"]
            and report["roundtrip_fidelity"] >= 1 - 1e-12
            and report["tail_match"]
        )
        print(
            f"fault experiment: locations_match={report['locations_match']}, "
            f"roundtrip_fidelity={report['roundtrip_fidelity']:.15f}"
        )
    if failures or not fault_ok:
        print(
            f"soundness failures: {failures} suite instances"
            + ("" if fault_ok else " and the fault experiment"),
            file=sys.stderr,
        )
        return 1
    return 0


# --------------------------------------------------------------------------
# fk


def _greedy_groups(terms) -> list[tuple[int, ...]]:
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


def cmd_fk(cfg: RunConfig) -> int:
    c = _load_circuit(cfg)
    reduced = degree_reduce(c)
    ham = build_modified_fk(reduced)
    if cfg.mtx:
        _require_sparse_export(ham.num_qubits)
    _echo_config(cfg)
    cio.write_term_manifest(
        os.path.join(cfg.out, "clock_terms.json"), ham.terms
    )
    table = ham.degree_table()
    cio.write_csv(
        os.path.join(cfg.out, "degree_table.csv"),
        ("qubit", "terms"),
        sorted(table.items()),
    )
    if cfg.mtx:
        cio.write_matrix_market(
            os.path.join(cfg.out, "clock_hamiltonian.mtx"), ham.operator()
        )
    hist = history_state(ham)
    energies = ham.energies(hist)
    offenders = max(
        e
        for t, e in zip(ham.terms, energies)
        if t.kind in ("propagation", "clock", "input")
    )
    report = {
        "num_data": ham.num_data,
        "num_steps": ham.num_steps,
        "num_qubits": ham.num_qubits,
        "terms": len(ham.terms),
        "max_degree": max(table.values()),
        "history_energy_max_nonoutput": offenders,
        "history_energy_total": float(sum(energies)),
    }
    if ham.num_steps >= 2:
        bad = invalid_clock_state(ham)
        violations = ham.violations(bad, tol=max(cfg.tolerance, 1e-12))
        report["invalid_pattern"] = {
            "violated_terms": list(violations),
            "kinds": [ham.terms[i].kind for i in violations],
            "energies": [float(ham.energies(bad)[i]) for i in violations],
        }
    if ham.num_qubits <= 10:
        grouping = _greedy_groups(ham.terms)
        verifier, plan = build_dl_verifier(ham.terms, grouping)
        accept = accept_probability(verifier, plan, hist)
        product = dl_product(ham.terms, grouping, ham.num_qubits)
        predicted = float(np.linalg.norm(product @ hist) ** 2)
        report["dl_verifier"] = {
            "groups": len(grouping),
            "ancillas": verifier.a,
            "accept_on_history": accept,
            "product_norm_sq": predicted,
            "identity_deviation": abs(accept - predicted),
        }
    cio.write_json(os.path.join(cfg.out, "fk_report.json"), report)
    print(
        f"clock encoding: {ham.num_qubits} qubits, {len(ham.terms)} terms, "
        f"max degree {report['max_degree']}"
    )
    return 0


# --------------------------------------------------------------------------
# swapqma


def cmd_swapqma(cfg: RunConfig) -> int:
    c = _load_circuit(cfg)
    verifier, plan = build_swap_test_verifier(c)
    if verifier.n > _VERIFIER_QUBIT_CAP:
        raise InputError(
            f"the verifier needs {verifier.n} qubits, beyond the "
            f"simulable cap of {_VERIFIER_QUBIT_CAP}"
        )
    _echo_config(cfg)
    cio.write_circuit_json(
        os.path.join(cfg.out, "verifier_circuit.json"), verifier
    )
    cio.write_json(
        os.path.join(cfg.out, "verifier_plan.json"),
        {
            "wires": list(plan.wires),
            "accept_bits": list(plan.accept_bits),
            "postprocess": plan.postprocess,
        },
    )
    witness = swap_test_witness(c)
    honest = accept_probability(verifier, plan, witness)
    direct = apply_circuit(c, input_state(c))
    probs = np.abs(direct) ** 2
    idx = np.arange(probs.size)
    original = float(probs[((idx >> 0) & 1) == 1].sum())
    report = {
        "verifier_qubits": verifier.n,
        "test_ancillas": verifier.a,
        "layers": len(verifier.layers),
        "honest_accept": honest,
        "original_accept": original,
        "completeness_deviation": abs(honest - original),
    }
    cio.write_json(os.path.join(cfg.out, "swap_report.json"), report)
    print(
        f"swap verifier: {verifier.n} qubits, honest accept "
        f"{honest:.12f} vs original {original:.12f}"
    )
    return 0


_COMMANDS = {
    "build": cmd_build,
    "verify": cmd_verify,
    "scan": cmd_scan,
    "soundness": cmd_soundness,
    "fk": cmd_fk,
    "swapqma": cmd_swapqma,
}


def main(argv=None) -> int:
    try:
        cfg = parse_args(argv)
        return _COMMANDS[cfg.command](cfg)
    except (InputError, cio.SchemaError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

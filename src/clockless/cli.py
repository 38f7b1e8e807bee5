"""Command-line front end: parse, echo, call the library, write, print.

Every run is driven by one RunConfig assembled from defaults, an optional
config file, and command-line flags, in rising precedence. Each command
loads its inputs, refuses bad or oversized runs before writing anything,
echoes the effective config to the output directory (so a run is
reproducible from that file alone), hands the work to one library call,
then writes the artifacts and prints a summary. The checks and the
eigensolvers live in ``verify``, ``soundness``, ``fk`` and ``spectral``.
Exit codes: 0 success, 1 a check failed, 2 bad input, a run refused by the
memory budget or a size cap, or an eigensolver that ran out of budget
(``ConvergenceError``).
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from dataclasses import dataclass, field, fields, replace
from functools import partial
from operator import attrgetter

from . import io as cio
from .circuit import LayeredCircuit, degree_reduce
from .fk import (
    build_modified_fk,
    build_swap_test_verifier,
    clock_report,
    require_clock_states,
    require_simulable,
    swap_test_report,
)
from .hamiltonian import assemble, energy, parent_spec
from .limits import SCAN_POINT_CAP, ResourceError, set_blas_threads
from .peps import build_peps, resolve_deltas
from .soundness import (
    SUITE_NAMES, FaultMismatch, fault_experiment, require_suites, run_suites,
)
from .spectral import ConvergenceError, parent_spectrum
from .verify import SCAN_HEADER, Check, named_fixtures, scan_row, verify_checks


class InputError(Exception):
    """Bad user input detected past argument parsing; maps to exit 2."""


# The weights verify checks its built-in fixtures at; it takes no --delta.
_FIXTURE_DELTAS = (0.2, 0.5, 0.8)

# One verify.csv row: a plain tuple of a Check's fields, in field order
# (``dataclasses.astuple`` would deep-copy every cell).
_CHECK_FIELDS = attrgetter(*(f.name for f in fields(Check)))


@dataclass(frozen=True)
class RunConfig:
    """Everything one run depends on; serializable, seed included."""

    command: str
    circuit: str | None = None
    delta: float | None = None  # 0.5 once merged, unless verify has no circuit
    delta_layers: dict[int, float] = field(default_factory=dict)
    delta_grid: tuple[float, ...] | None = None
    seed: int = 0
    out: str = "out"
    tolerance: float = 1e-10
    eigenvalues: int = 6
    solver_tol: float = 1e-9
    max_iter: int = 5000
    epsilon: float = 0.25
    fault_file: str | None = None
    instances: int = 200
    suites: tuple[str, ...] | None = None
    mtx: bool = False
    inject_delta: dict[int, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return cio.jsonable(self)

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
                try:
                    updates[key] = tuple(updates[key])
                except TypeError as e:
                    raise cio.SchemaError(str(e), key) from e
        return replace(base, **updates)


def _check_values(cfg: RunConfig) -> None:
    """Refuse a merged config whose counts or tolerances no command can run
    with, naming the field."""
    least_counts = {"seed": 0, "eigenvalues": 1, "max_iter": 1, "instances": 1}
    for name, least in least_counts.items():
        value = getattr(cfg, name)
        if type(value) is not int or value < least:
            raise cio.SchemaError(
                f"{name} must be an integer of at least {least}, got {value!r}", name
            )
    for name in ("tolerance", "solver_tol", "epsilon"):
        value = getattr(cfg, name)
        if type(value) not in (int, float) or not math.isfinite(value):
            raise cio.SchemaError(
                f"{name} must be a finite number, got {value!r}", name
            )
    if cfg.tolerance <= 0:
        raise cio.SchemaError(
            f"tolerance must be positive, got {cfg.tolerance!r}", "tolerance"
        )


def _parse_assignments(pairs, what: str) -> dict[int, float]:
    out: dict[int, float] = {}
    for pair in pairs or []:
        try:
            left, right = pair.split("=", 1)
            layer, value = int(left), float(right)
        except ValueError:
            raise InputError(f"{what} expects LAYER=VALUE, got {pair!r}") from None
        if layer < 1:
            raise InputError(f"{what} layers are 1-based, got {layer}")
        if layer in out:
            raise InputError(f"{what} names layer {layer} more than once")
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


# A token that starts a negative number, exponent form included. argparse's
# own pattern (Python 3.11) misses "-1e-10" and takes it for an option.
_NEGATIVE_VALUE = re.compile(r"-\.?\d")


def _attach_negative_values(argv) -> list[str]:
    """``--flag -1e-10`` as ``--flag=-1e-10``, so that a negative value
    reaches the config check instead of leaving its flag without one."""
    out: list[str] = []
    for token in argv:
        flag = out[-1] if out else ""
        if (
            flag.startswith("--") and flag != "--" and "=" not in flag
            and _NEGATIVE_VALUE.match(token)
        ):
            out[-1] = f"{flag}={token}"
        else:
            out.append(token)
    return out


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
        "--delta-layer", action="append", metavar="L=V",
        help="per-layer weight override, 1-based; repeatable",
    )
    common.add_argument("--seed", type=int, help="boxed randomness seed")
    common.add_argument("--out", help="output directory")
    common.add_argument("--tolerance", type=float, help="check tolerance")
    common.add_argument("--fault-file", help="fault pattern JSON file")

    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str):
        return sub.add_parser(name, parents=[common], help=summary)

    build = command("build", "build artifacts")
    build.add_argument(
        "--mtx", action="store_true", default=None,
        help="also export the Hamiltonian in Matrix Market form",
    )
    verify = command("verify", "closed-form identity suite")
    verify.add_argument(
        "--inject-delta", action="append", metavar="L=V",
        help=(
            "negative control: doctor the checked Hamiltonian's weight at "
            "one layer so frustration-freeness must fail"
        ),
    )
    scan = command("scan", "weight sweeps")
    scan.add_argument(
        "--delta-grid", metavar="V1,V2,...",
        help="grid of uniform weights, one CSV row per value",
    )
    soundness = command("soundness", "inequality suites and faults")
    soundness.add_argument(
        "--suites", metavar="NAME,...",
        help=f"comma list from {', '.join(SUITE_NAMES)}; default all",
    )
    soundness.add_argument(
        "--instances", type=int, help="instances per suite (default 200)"
    )
    fk = command("fk", "unary-clock encoding report")
    fk.add_argument(
        "--mtx", action="store_true", default=None,
        help="also export the clock Hamiltonian in Matrix Market form",
    )
    command("swapqma", "swap-test verifier report")

    args = parser.parse_args(
        _attach_negative_values(sys.argv[1:] if argv is None else argv)
    )
    cfg = RunConfig(command=args.command)
    if args.config:
        data = cio.read_json(args.config)
        if not isinstance(data, dict):
            raise cio.SchemaError("config file must hold an object")
        data.pop("command", None)
        cfg = RunConfig.from_dict(data, cfg)

    updates = {}
    for name in (
        "circuit", "delta", "seed", "out", "tolerance", "fault_file",
        "instances", "mtx",
    ):
        value = getattr(args, name, None)
        if value is not None:
            updates[name] = value
    assignments = {"delta_layer": "delta_layers", "inject_delta": "inject_delta"}
    for flag, name in assignments.items():
        if getattr(args, flag, None):
            updates[name] = _parse_assignments(
                getattr(args, flag), "--" + flag.replace("_", "-")
            )
    if getattr(args, "delta_grid", None) is not None:
        updates["delta_grid"] = _parse_grid(args.delta_grid)
    if getattr(args, "suites", None) is not None:
        updates["suites"] = tuple(s for s in args.suites.split(",") if s)
    cfg = replace(cfg, **updates)
    if cfg.command == "verify" and cfg.circuit is None:
        for flag, given in (
            ("--delta", cfg.delta is not None),
            ("--delta-layer", bool(cfg.delta_layers)),
        ):
            if given:
                raise InputError(
                    f"verify takes {flag} only with --circuit; its fixtures "
                    f"run at {', '.join(map(str, _FIXTURE_DELTAS))}"
                )
    elif cfg.delta is None:
        cfg = replace(cfg, delta=0.5)
    _check_values(cfg)
    return cfg


def _echo_config(cfg: RunConfig) -> None:
    cio.write_json(os.path.join(cfg.out, "config.json"), cfg.to_dict())


def _load_circuit(cfg: RunConfig, default: str | None = None) -> LayeredCircuit:
    """The --circuit file, else the named verify fixture ``default``."""
    if cfg.circuit is not None:
        return cio.read_circuit_json(cfg.circuit)
    if default is None:
        raise InputError("this command needs --circuit")
    return dict(named_fixtures())[default]


def _load_grid_circuit(cfg: RunConfig, default: str | None = None) -> LayeredCircuit:
    """``_load_circuit`` for a command that builds the circuit's grid, which
    needs at least one layer; ``fk`` and ``swapqma`` take a circuit of none."""
    c = _load_circuit(cfg, default)
    if c.depth < 1:
        raise InputError("grid needs at least one layer")
    return c


def _override(values, overrides: dict[int, float], flag: str) -> tuple[float, ...]:
    """A schedule with per-layer overrides, layers and values checked."""
    values, depth = list(values), len(values)
    for layer, value in sorted(overrides.items()):
        if not 1 <= layer <= depth:
            raise InputError(f"{flag} {layer} outside this circuit's 1..{depth}")
        values[layer - 1] = value
    try:
        return resolve_deltas(values, depth)
    except ValueError as e:
        raise InputError(str(e)) from None


def _schedule(cfg: RunConfig, depth: int) -> tuple[float, ...]:
    return _override([cfg.delta] * depth, cfg.delta_layers, "--delta-layer")


def cmd_build(cfg: RunConfig) -> int:
    c = _load_grid_circuit(cfg)
    schedule = _schedule(cfg, c.depth)
    spec = parent_spec(c, schedule)
    operator = assemble(spec)
    # An oversized export or solve is refused before anything is written.
    if cfg.mtx:
        operator.require_sparse()
    state = build_peps(c, schedule)
    spectral = parent_spectrum(
        spec, state, k=cfg.eigenvalues, tol=cfg.solver_tol,
        max_iter=cfg.max_iter, seed=cfg.seed,
    )
    _echo_config(cfg)
    cio.write_state_bin(os.path.join(cfg.out, "state.bin"), state.amplitudes)
    cio.write_term_manifest(os.path.join(cfg.out, "terms.json"), spec.terms)
    if cfg.mtx:
        cio.write_matrix_market(os.path.join(cfg.out, "hamiltonian.mtx"), operator)
    cio.write_spectral_report(os.path.join(cfg.out, "spectral.json"), spectral)
    # The parent's first ground vector is the grid state itself.
    cio.write_state_bin(os.path.join(cfg.out, "ground.bin"), state.amplitudes)
    report = energy(spec, state)
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


def _verify_schedules(cfg: RunConfig, c: LayeredCircuit, delta: float):
    """State and Hamiltonian schedules of one verify case; --inject-delta
    doctors the second."""
    schedule = _schedule(replace(cfg, delta=delta), c.depth)
    return schedule, _override(schedule, cfg.inject_delta, "--inject-delta")


def cmd_verify(cfg: RunConfig) -> int:
    if cfg.circuit is None:
        fixtures, deltas = named_fixtures(), _FIXTURE_DELTAS
    else:
        fixtures = [(os.path.basename(cfg.circuit), _load_grid_circuit(cfg))]
        deltas = (cfg.delta,)
    checks = verify_checks(
        fixtures, deltas, cfg.tolerance, partial(_verify_schedules, cfg)
    )
    _echo_config(cfg)
    cio.write_csv(
        os.path.join(cfg.out, "verify.csv"),
        ("check", "circuit", "delta", "value", "reference", "deviation", "status"),
        map(_CHECK_FIELDS, checks),
    )
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


def cmd_scan(cfg: RunConfig) -> int:
    c = _load_grid_circuit(cfg, default="identity1")
    grid = cfg.delta_grid if cfg.delta_grid is not None else (cfg.delta,)
    if len(grid) > SCAN_POINT_CAP:
        raise InputError(
            f"grid of {len(grid)} points exceeds the cap of "
            f"{SCAN_POINT_CAP}; split the sweep"
        )
    # Check every grid point before solving the first.
    schedules = [_schedule(replace(cfg, delta=d), c.depth) for d in grid]
    rows = [scan_row(c, s, d, cfg.seed) for s, d in zip(schedules, grid)]
    _echo_config(cfg)
    cio.write_csv(os.path.join(cfg.out, "scan.csv"), SCAN_HEADER, rows)
    print(f"{len(rows)} grid points in {cfg.out}/scan.csv")
    return 0


def _fault_report(cfg: RunConfig) -> dict:
    c = _load_grid_circuit(cfg, default="bell")
    schedule = _schedule(cfg, c.depth)
    fault = cio.read_fault_json(cfg.fault_file)
    return fault_experiment(
        c, schedule, fault, tol=cfg.tolerance, epsilon=cfg.epsilon
    )


def cmd_soundness(cfg: RunConfig) -> int:
    names = cfg.suites if cfg.suites is not None else SUITE_NAMES
    try:
        require_suites(names)
    except ValueError as e:
        raise InputError(str(e)) from None
    # A bad fault file is refused before any suite runs or file is written.
    report = None if cfg.fault_file is None else _fault_report(cfg)
    _echo_config(cfg)
    results = run_suites(names, cfg.instances, cfg.seed)
    failures = 0
    for result in results:
        failures += len(result.failures)
        cio.write_suite_csv(os.path.join(cfg.out, f"suite_{result.suite}.csv"), result)
        print(
            f"{result.suite}: {len(result.records)} instances, "
            f"{len(result.failures)} violations"
        )
    cio.write_suite_manifest(os.path.join(cfg.out, "suites.json"), results)
    fault_ok = True
    if report is not None:
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


def cmd_fk(cfg: RunConfig) -> int:
    c = degree_reduce(_load_circuit(cfg))
    try:
        ham = build_modified_fk(c)
    except ValueError as e:  # a gate on more than two wires
        raise InputError(str(e)) from None
    require_clock_states(ham)
    if cfg.mtx:
        ham.operator().require_sparse()
    _echo_config(cfg)
    cio.write_term_manifest(os.path.join(cfg.out, "clock_terms.json"), ham.terms)
    cio.write_csv(
        os.path.join(cfg.out, "degree_table.csv"),
        ("qubit", "terms"),
        sorted(ham.degree_table().items()),
    )
    if cfg.mtx:
        cio.write_matrix_market(
            os.path.join(cfg.out, "clock_hamiltonian.mtx"), ham.operator()
        )
    report = clock_report(ham, cfg.tolerance)
    cio.write_json(os.path.join(cfg.out, "fk_report.json"), report)
    print(
        f"clock encoding: {ham.num_qubits} qubits, {len(ham.terms)} terms, "
        f"max degree {report['max_degree']}"
    )
    return 0


def cmd_swapqma(cfg: RunConfig) -> int:
    c = _load_circuit(cfg)
    verifier, plan = build_swap_test_verifier(c)
    require_simulable(verifier)
    _echo_config(cfg)
    cio.write_circuit_json(os.path.join(cfg.out, "verifier_circuit.json"), verifier)
    cio.write_json(os.path.join(cfg.out, "verifier_plan.json"), plan)
    report = swap_test_report(c, verifier, plan)
    cio.write_json(os.path.join(cfg.out, "swap_report.json"), report)
    print(
        f"swap verifier: {verifier.n} qubits, honest accept "
        f"{report['honest_accept']:.12f} vs original "
        f"{report['original_accept']:.12f}"
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
    set_blas_threads()
    try:
        cfg = parse_args(argv)
        return _COMMANDS[cfg.command](cfg)
    except (
        InputError, ResourceError, ConvergenceError, FaultMismatch,
        cio.SchemaError, FileNotFoundError,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

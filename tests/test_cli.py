"""Command-line entry points: config plumbing, artifacts, exit codes."""

import csv
import json
import os

import numpy as np
import pytest

from clockless.circuit import NAMED_GATES, layered
from clockless.cli import (
    InputError,
    RunConfig,
    _ground_fidelity_check,
    _parse_assignments,
    _parse_grid,
    _schedule,
    _solver_choice,
    _status,
    main,
    parse_args,
    verify_checks,
)
from clockless.hamiltonian import parent_spec
from clockless.io import SchemaError, json_text, read_json, read_state_bin
from clockless.peps import build_peps
from clockless.rotation import teleport_coefficient, teleport_input


@pytest.fixture
def identity_json(tmp_path):
    path = tmp_path / "id1.json"
    path.write_text(json_text({
        "version": 1, "n": 1, "a": 1,
        "layers": [[{"gate": "I", "wires": [0]}]],
    }))
    return str(path)


@pytest.fixture
def hcnot_json(tmp_path):
    path = tmp_path / "hcnot.json"
    path.write_text(json_text({
        "version": 1, "n": 2, "a": 1,
        "layers": [
            [{"gate": "H", "wires": [0]}],
            [{"gate": "CNOT", "wires": [0, 1]}],
        ],
    }))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_parse_args_defaults():
    cfg = parse_args(["scan"])
    assert cfg.command == "scan"
    assert cfg.delta == 0.5
    assert cfg.seed == 0
    assert cfg.out == "out"
    assert cfg.solver == "auto"


def test_parse_args_flags_and_layers():
    cfg = parse_args([
        "build", "--circuit", "c.json", "--delta", "0.3",
        "--delta-layer", "2=0.7", "--seed", "5", "--out", "d",
        "--dense", "--mtx",
    ])
    assert cfg.command == "build"
    assert cfg.delta == 0.3
    assert cfg.delta_layers == {2: 0.7}
    assert cfg.solver == "dense"
    assert cfg.mtx is True


def test_config_file_precedence(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json_text({"delta": 0.25, "seed": 9, "out": "from_file"}))
    cfg = parse_args(["scan", "--config", str(config), "--seed", "11"])
    # flags beat the file, the file beats defaults
    assert cfg.seed == 11
    assert cfg.delta == 0.25
    assert cfg.out == "from_file"


def test_runconfig_round_trip():
    cfg = parse_args(["verify", "--inject-delta", "1=0.9", "--tolerance", "1e-12"])
    base = RunConfig(command="verify")
    back = RunConfig.from_dict(cfg.to_dict(), base)
    assert back == cfg
    with pytest.raises(SchemaError):
        RunConfig.from_dict({"command": "scan", "bogus": 1}, base)


def test_parse_assignment_errors():
    assert _parse_assignments(["1=0.5", "3=0.25"], "delta") == {1: 0.5, 3: 0.25}
    with pytest.raises(InputError):
        _parse_assignments(["1:0.5"], "delta")
    with pytest.raises(InputError):
        _parse_assignments(["x=0.5"], "delta")
    assert _parse_grid("0.1,0.2") == (0.1, 0.2)
    assert _parse_grid("") == ()
    assert _parse_grid(None) is None


def test_schedule_overrides():
    cfg = parse_args(["build", "--delta", "0.4", "--delta-layer", "2=0.8"])
    assert _schedule(cfg, 3) == (0.4, 0.8, 0.4)
    with pytest.raises(InputError):
        _schedule(cfg, 1)  # layer 2 does not exist


def test_solver_choice():
    auto = parse_args(["build"])
    assert _solver_choice(auto, 10) == "dense"
    assert _solver_choice(auto, 11) == "iterative"
    forced = parse_args(["build", "--iterative"])
    assert _solver_choice(forced, 3) == "iterative"


def test_status_classes():
    assert _status(1e-12, 1e-10) == "pass"
    assert _status(5e-10, 1e-10) == "tolerance"
    assert _status(1e-3, 1e-10) == "fail"


def test_build_identity_artifacts(tmp_path, identity_json, capsys):
    out = str(tmp_path / "out")
    code = main(["build", "--circuit", identity_json, "--out", out])
    assert code == 0
    assert "built 3-qubit state, 2 terms" in capsys.readouterr().out
    state = read_state_bin(os.path.join(out, "state.bin"))
    assert state.shape == (8,)
    assert np.isclose(np.linalg.norm(state), 1.0)
    terms = read_json(os.path.join(out, "terms.json"))
    assert [t["kind"] for t in terms] == ["input", "propagation"]
    report = read_json(os.path.join(out, "build_report.json"))
    assert report["ground_dim"] == 1
    assert abs(report["gap"] - 0.2805992406584801) < 1e-12
    assert report["max_term_energy"] < 1e-12
    ground = read_state_bin(os.path.join(out, "ground.bin"))
    assert abs(abs(np.vdot(ground, state)) - 1.0) < 1e-10
    assert not os.path.exists(os.path.join(out, "hamiltonian.mtx"))


def test_build_deterministic_bytes(tmp_path, identity_json):
    out = str(tmp_path / "out")
    main(["build", "--circuit", identity_json, "--out", out, "--seed", "4"])
    first = {
        name: open(os.path.join(out, name), "rb").read()
        for name in os.listdir(out)
    }
    main(["build", "--circuit", identity_json, "--out", out, "--seed", "4"])
    second = {
        name: open(os.path.join(out, name), "rb").read()
        for name in os.listdir(out)
    }
    assert first == second


def test_build_mtx_flag(tmp_path, identity_json):
    out = str(tmp_path / "out")
    assert main(["build", "--circuit", identity_json, "--out", out, "--mtx"]) == 0
    assert os.path.exists(os.path.join(out, "hamiltonian.mtx"))


@pytest.mark.parametrize("command", ["build", "fk"])
def test_mtx_beyond_sparse_cap_exits_2_without_outputs(tmp_path, capsys, command):
    # four non-identity gates on two wires: an 18-qubit grid for build and,
    # after degree reduction, 8 data plus 10 clock qubits for fk
    circuit = tmp_path / "deep.json"
    circuit.write_text(json_text({
        "version": 1, "n": 2, "a": 1,
        "layers": [
            [{"gate": "H", "wires": [0]}],
            [{"gate": "H", "wires": [1]}],
            [{"gate": "CNOT", "wires": [0, 1]}],
            [{"gate": "H", "wires": [0]}],
        ],
    }))
    out = tmp_path / "out"
    code = main([command, "--circuit", str(circuit), "--out", str(out), "--mtx"])
    assert code == 2
    assert "18 qubits" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_build_schema_error_exits_2_without_outputs(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n"version": 1, "n": 1, "a": 0, "layers": [[{"wires": [0]}]]}\n')
    out = str(tmp_path / "out")
    code = main(["build", "--circuit", str(bad), "--out", out])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "layers[0][0]" in err
    assert not os.path.exists(out)


def test_build_invalid_json_reports_position(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n"version": ]\n')
    code = main(["build", "--circuit", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "line 2" in capsys.readouterr().err


def test_missing_circuit_flag_is_an_input_error(tmp_path, capsys):
    code = main(["build", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "circuit" in capsys.readouterr().err


def test_scan_default_single_point(tmp_path, identity_json):
    out = str(tmp_path / "out")
    assert main(["scan", "--circuit", identity_json, "--out", out]) == 0
    rows = read_csv(os.path.join(out, "scan.csv"))
    assert rows[0][0] == "delta_schedule"
    assert len(rows) == 2
    record = dict(zip(rows[0], rows[1]))
    assert record["delta_schedule"] == "0.5"
    assert abs(float(record["gap"]) - 0.2805992406584801) < 1e-12
    assert abs(float(record["weight_product"]) - 0.5**8) < 1e-15
    assert abs(float(record["teleport_coefficient"]) - 4.0 / 7.0) < 1e-15
    assert abs(float(record["pair_overlap_bound"]) - (1.0 - 0.5**6 / 2.0)) < 1e-15
    assert abs(float(record["projected_gap"]) - 0.25) < 1e-12
    assert record["projected_floor_holds"] == "true"


def test_scan_gap_monotone_over_grid(tmp_path, identity_json):
    out = str(tmp_path / "out")
    code = main([
        "scan", "--circuit", identity_json, "--out", out,
        "--delta-grid", "0.2,0.35,0.5,0.65,0.8",
    ])
    assert code == 0
    rows = read_csv(os.path.join(out, "scan.csv"))
    gaps = [float(r[1]) for r in rows[1:]]
    assert len(gaps) == 5
    assert all(b > a for a, b in zip(gaps, gaps[1:]))


def test_scan_empty_grid_writes_header_only(tmp_path, identity_json):
    out = str(tmp_path / "out")
    assert main([
        "scan", "--circuit", identity_json, "--out", out, "--delta-grid", "",
    ]) == 0
    rows = read_csv(os.path.join(out, "scan.csv"))
    assert len(rows) == 1


def test_scan_refuses_oversized_grid(tmp_path, capsys):
    big = tmp_path / "big.json"
    layer = [{"gate": "I", "wires": [w]} for w in range(4)]
    big.write_text(json_text({
        "version": 1, "n": 4, "a": 4, "layers": [layer, layer],
    }))
    out = str(tmp_path / "out")
    code = main(["scan", "--circuit", str(big), "--out", out])
    assert code == 2
    err = capsys.readouterr().err
    assert "20 qubits" in err and "GiB" in err
    assert not os.path.exists(os.path.join(out, "scan.csv"))


def test_verify_full_suite_passes(tmp_path, capsys):
    out = str(tmp_path / "out")
    code = main(["verify", "--out", out])
    assert code == 0
    rows = read_csv(os.path.join(out, "verify.csv"))
    assert rows[0] == [
        "check", "circuit", "delta", "value", "reference", "deviation",
        "status",
    ]
    assert len(rows) == 154  # header + 153 checks
    statuses = {r[6] for r in rows[1:]}
    assert statuses == {"pass"}
    assert "153/153 checks passed" in capsys.readouterr().out


def test_verify_injected_delta_fails_frustration(tmp_path, capsys):
    out = str(tmp_path / "out")
    code = main(["verify", "--out", out, "--inject-delta", "1=0.9"])
    assert code == 1
    captured = capsys.readouterr()
    assert "first failing check: frustration_freeness" in captured.err
    rows = read_csv(os.path.join(out, "verify.csv"))
    failing = [r for r in rows[1:] if r[6] == "fail"]
    assert failing
    assert all(r[0] == "frustration_freeness" for r in failing[:1])


def test_verify_tolerance_class_is_not_a_correctness_failure():
    cfg = RunConfig(command="verify", tolerance=1e-15)
    checks = verify_checks(cfg, deltas=(0.5,))
    statuses = {c.status for c in checks}
    # with the tolerance cranked below float accuracy some checks land in
    # the tolerance class, but none may actually fail
    assert "fail" not in statuses
    assert "tolerance" in statuses


def test_verify_teleported_rows_report_measured_deviation(identity1):
    checks = verify_checks(
        RunConfig(command="verify"), fixtures=[("id1", identity1)],
        deltas=(0.5,),
    )
    (row,) = [ch for ch in checks if ch.name.startswith("teleported_input")]
    spec = parent_spec(identity1, 0.5)
    (term,) = [t for t in spec.terms if t.kind == "input"]
    _, attenuation, deviation = teleport_input(term, 0.5, tol=1e-9)
    assert row.value == attenuation and row.deviation == deviation
    assert row.reference == teleport_coefficient(0.5)
    assert abs(row.value - row.reference) < 1e-13 and row.status == "pass"


def test_ground_fidelity_fails_on_degenerate_ground(hcnot, identity1):
    # hcnot has a data wire, so its ground space is two-dimensional
    spec = parent_spec(hcnot, 0.5)
    state = build_peps(hcnot, (0.5, 0.5))
    row = _ground_fidelity_check("hcnot", 0.5, spec, state, 1e-10)
    assert row.status == "fail"
    assert np.isnan(row.value) and np.isnan(row.deviation)
    spec = parent_spec(identity1, 0.5)
    state = build_peps(identity1, (0.5,))
    row = _ground_fidelity_check("id1", 0.5, spec, state, 1e-10)
    assert row.status == "pass" and abs(row.value - 1.0) < 1e-12


def test_verify_picks_clifford_form_by_action_not_name():
    # CNOT handed over as a bare matrix is still a Pauli normalizer
    cnot = np.array(NAMED_GATES["CNOT"])
    c = layered(2, 2, [[(cnot, (1, 0))], [("I", (0,)), ("I", (1,))]])
    checks = verify_checks(
        RunConfig(command="verify"), fixtures=[("cnot_matrix", c)], deltas=(0.5,)
    )
    names = {ch.name for ch in checks}
    assert "clifford_bulk[u@1-0]" in names
    assert not any(n.startswith("nonlocality_diagnostic") for n in names)
    assert [ch.name for ch in checks if ch.status != "pass"] == []


def test_soundness_single_suite(tmp_path, capsys):
    out = str(tmp_path / "out")
    code = main([
        "soundness", "--out", out, "--suites", "union_bound",
        "--instances", "5",
    ])
    assert code == 0
    rows = read_csv(os.path.join(out, "suite_union_bound.csv"))
    assert len(rows) == 6
    manifest = read_json(os.path.join(out, "suites.json"))
    assert manifest["suites"][0]["suite"] == "union_bound"
    assert manifest["suites"][0]["failures"] == []


def test_soundness_unknown_suite(tmp_path, capsys):
    code = main(["soundness", "--suites", "nonsense", "--out", str(tmp_path)])
    assert code == 2
    assert "unknown suite" in capsys.readouterr().err


def test_soundness_fault_experiment(tmp_path, capsys):
    fault = tmp_path / "fault.json"
    fault.write_text(json_text({"inputs": [0], "layers": [[], [0, 1]]}))
    out = str(tmp_path / "out")
    code = main([
        "soundness", "--out", out, "--suites", "union_bound",
        "--instances", "3", "--fault-file", str(fault),
    ])
    assert code == 0
    report = read_json(os.path.join(out, "fault_report.json"))
    assert report["locations_match"] is True
    assert report["roundtrip_fidelity"] >= 1 - 1e-12
    assert report["tail_match"] is True
    assert len(report["declared_locations"]) == 2


def test_soundness_partial_fault_is_an_input_error(tmp_path, capsys):
    # layer 2 of the default circuit is a CNOT on wires (1, 0); naming
    # only wire 0 covers that gate partially
    fault = tmp_path / "fault.json"
    fault.write_text(json_text({"inputs": [], "layers": [[], [0]]}))
    code = main([
        "soundness", "--out", str(tmp_path / "out"), "--suites",
        "union_bound", "--instances", "1", "--fault-file", str(fault),
    ])
    assert code == 2
    assert "fault pattern does not fit the circuit" in capsys.readouterr().err


def test_fk_command(tmp_path, hcnot_json, capsys):
    out = str(tmp_path / "out")
    code = main(["fk", "--circuit", hcnot_json, "--out", out])
    assert code == 0
    assert "max degree 7" in capsys.readouterr().out
    report = read_json(os.path.join(out, "fk_report.json"))
    assert report["max_degree"] == 7
    assert report["num_steps"] == 4
    assert report["terms"] == 11
    assert report["history_energy_max_nonoutput"] < 1e-10
    assert sorted(report["invalid_pattern"]["kinds"]) == ["clock", "propagation"]
    assert sorted(report["invalid_pattern"]["energies"]) == [0.5, 1.0]
    assert report["dl_verifier"]["identity_deviation"] < 1e-12
    assert np.isclose(report["dl_verifier"]["accept_on_history"], 0.8)
    table = read_csv(os.path.join(out, "degree_table.csv"))
    assert table[0] == ["qubit", "terms"]
    degrees = {int(r[0]): int(r[1]) for r in table[1:]}
    assert degrees == {0: 4, 1: 3, 2: 3, 3: 1, 4: 5, 5: 7, 6: 6, 7: 4}


def test_swapqma_command(tmp_path, hcnot_json, capsys):
    out = str(tmp_path / "out")
    code = main(["swapqma", "--circuit", hcnot_json, "--out", out])
    assert code == 0
    report = read_json(os.path.join(out, "swap_report.json"))
    assert report["completeness_deviation"] < 1e-9
    assert np.isclose(report["honest_accept"], 0.5, atol=1e-9)
    plan = read_json(os.path.join(out, "verifier_plan.json"))
    assert plan["accept_bits"][-1] == 1
    assert set(plan["accept_bits"][:-1]) <= {0}


def test_config_echo_written(tmp_path, identity_json):
    out = str(tmp_path / "out")
    main(["build", "--circuit", identity_json, "--out", out, "--delta", "0.8"])
    echoed = read_json(os.path.join(out, "config.json"))
    assert echoed["delta"] == 0.8
    assert echoed["command"] == "build"

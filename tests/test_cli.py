"""Command-line entry points: config plumbing, artifacts, exit codes."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from clockless import limits, spectral, verify
from clockless.cli import (
    InputError,
    RunConfig,
    _parse_assignments,
    _parse_grid,
    _schedule,
    main,
    parse_args,
)
from clockless.hamiltonian import assemble, parent_spec
from clockless.io import (
    SchemaError, json_text, read_circuit_json, read_json,
)
from clockless.soundness import SUITE_NAMES
from oracles import read_state_bin


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
    assert "solver" not in cfg.to_dict()


def test_parse_args_flags_and_layers():
    cfg = parse_args([
        "build", "--circuit", "c.json", "--delta", "0.3",
        "--delta-layer", "2=0.7", "--seed", "5", "--out", "d", "--mtx",
    ])
    assert cfg.command == "build"
    assert cfg.delta == 0.3
    assert cfg.delta_layers == {2: 0.7}
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


@pytest.mark.parametrize("flag", ["--delta-layer", "--inject-delta"])
def test_layer_given_twice_exits_2_without_outputs(tmp_path, hcnot_json, capsys, flag):
    out = tmp_path / "out"
    code = main([
        "verify", "--circuit", hcnot_json, flag, "1=0.3", flag, "1=0.4",
        "--out", str(out),
    ])
    assert code == 2
    assert f"{flag} names layer 1 more than once" in capsys.readouterr().err
    assert not out.exists()


def test_schedule_overrides():
    cfg = parse_args(["build", "--delta", "0.4", "--delta-layer", "2=0.8"])
    assert _schedule(cfg, 3) == (0.4, 0.8, 0.4)
    with pytest.raises(InputError):
        _schedule(cfg, 1)  # layer 2 does not exist


def test_solver_choice(tmp_path, identity_json, monkeypatch):
    # dense up to DENSE_QUBITS, iterative past it, the same gap either way
    def build(name):
        out = str(tmp_path / name)
        assert main(["build", "--circuit", identity_json, "--out", out]) == 0
        return read_json(os.path.join(out, "build_report.json"))

    monkeypatch.setattr(spectral, "DENSE_QUBITS", 3)  # identity1 has 3 qubits
    dense = build("dense")
    monkeypatch.setattr(spectral, "DENSE_QUBITS", 2)
    iterative = build("iterative")
    assert (dense["solver"], iterative["solver"]) == ("dense", "iterative")
    assert abs(dense["gap"] - iterative["gap"]) < 1e-12


def test_unknown_solver_in_config_exits_2(tmp_path, identity_json, capsys):
    # the size of the grid picks the eigensolver; a config cannot
    config = tmp_path / "run.json"
    config.write_text(json_text({"solver": "dense"}))
    out = tmp_path / "out"
    code = main([
        "build", "--config", str(config), "--circuit", identity_json,
        "--out", str(out),
    ])
    assert code == 2
    assert "unknown config field 'solver'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--iterative", "--dense"])
def test_solver_flags_are_refused(tmp_path, flag):
    out = tmp_path / "out"
    for command in ("build", "verify", "scan", "soundness", "fk", "swapqma"):
        with pytest.raises(SystemExit) as exit_info:
            main([command, flag, "--out", str(out)])
        assert exit_info.value.code == 2
    assert not out.exists()


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


@pytest.mark.parametrize(
    "command,qubits", [("build", 18), ("fk", 23)], ids=["build", "fk"]
)
def test_mtx_beyond_sparse_cap_exits_2_without_outputs(
    tmp_path, capsys, command, qubits
):
    # five non-identity gates on two wires: an 18-qubit grid for build and,
    # after degree reduction, a 23-qubit clock Hamiltonian for fk; at 64 B
    # per stored entry both are refused, build's 4.3 and fk's 27 times over
    circuit = tmp_path / "deep.json"
    circuit.write_text(json_text({
        "version": 1, "n": 2, "a": 1,
        "layers": [
            [{"gate": "H", "wires": [0]}],
            [{"gate": "H", "wires": [1]}],
            [{"gate": "CNOT", "wires": [0, 1]}],
            [{"gate": "H", "wires": [0]}, {"gate": "H", "wires": [1]}],
        ],
    }))
    out = tmp_path / "out"
    code = main([command, "--circuit", str(circuit), "--out", str(out), "--mtx"])
    assert code == 2
    assert f"{qubits} qubits" in capsys.readouterr().err
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


@pytest.fixture
def empty_json(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json_text({"version": 1, "n": 2, "a": 1, "layers": []}))
    return str(path)


@pytest.mark.parametrize("command", [
    ["build"], ["verify"], ["scan"], ["soundness", "--fault-file", "{fault}"],
])
def test_grid_commands_refuse_a_circuit_of_no_layers(
    tmp_path, capsys, empty_json, command
):
    fault = tmp_path / "fault.json"
    fault.write_text(json_text({"inputs": [], "layers": []}))
    out = tmp_path / "out"
    argv = [arg.format(fault=fault) for arg in command]
    code = main(argv + ["--circuit", empty_json, "--out", str(out)])
    assert code == 2
    assert "error: grid needs at least one layer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["fk", "swapqma"])
def test_gridless_commands_take_a_circuit_of_no_layers(tmp_path, empty_json, command):
    assert main([command, "--circuit", empty_json, "--out", str(tmp_path)]) == 0


def test_fk_refuses_a_three_wire_gate_without_outputs(tmp_path, capsys):
    circuit = tmp_path / "ccz.json"
    circuit.write_text(json_text({
        "version": 1, "n": 3, "a": 1,
        "layers": [[{"gate": "CCZ", "wires": [0, 1, 2]}]],
    }))
    out = tmp_path / "out"
    assert main(["fk", "--circuit", str(circuit), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error: gate on wires (0, 1, 2) acts on 3 wires" in err
    assert not out.exists()


@pytest.mark.parametrize("n, a, first, verified", [
    (5, 5, {"gate": "H", "wires": [0]}, False),
    (9, 5, {"gate": "CZ", "wires": [0, 1]}, False),
    (4, 4, {"gate": "H", "wires": [0]}, True),
], ids=["h5", "cz9", "h4"])
def test_fk_leaves_out_a_verifier_whose_flips_are_too_wide(
    tmp_path, n, a, first, verified
):
    # the ancillas first met at step 1 share one input term with its clock
    # qubit: with five of them the term's controlled flip would act on 7
    # wires, past the 6 a gate may have; with four it acts on 6
    circuit = tmp_path / "wide_input.json"
    circuit.write_text(json_text({"version": 1, "n": n, "a": a, "layers": [[first]]}))
    out = tmp_path / "out"
    assert main(["fk", "--circuit", str(circuit), "--out", str(out)]) == 0
    report = read_json(out / "fk_report.json")
    assert report["history_energy_max_nonoutput"] <= 1e-10
    assert ("dl_verifier" in report) == verified


def test_build_refuses_term_blocks_over_budget_without_outputs(tmp_path, capsys):
    # a bulk CCZ term acts on 12 qubits, so its block alone is 256 MiB: it is
    # refused before the grid state or any file is made
    circuit = tmp_path / "ccz_bulk.json"
    circuit.write_text(json_text({"version": 1, "n": 3, "a": 3, "layers": [
        [{"gate": "CCZ", "wires": [0, 1, 2]}],
        [{"gate": "I", "wires": [w]} for w in range(3)],
    ]}))
    out = tmp_path / "out"
    assert main(["build", "--circuit", str(circuit), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "the term blocks on 15 qubits would take about 1.25 GiB" in err
    assert not out.exists() or not any(out.iterdir())


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
    assert len(rows) == 166  # header + 165 checks
    statuses = {r[6] for r in rows[1:]}
    assert statuses == {"pass"}
    assert "165/165 checks passed" in capsys.readouterr().out


def test_verify_refuses_a_bad_injected_layer_before_forking(
    tmp_path, capsys, pin_cpus
):
    # identity1, the first fixture, has depth 1: the schedules of every case
    # are resolved before the cases fork, so no worker starts
    forks = pin_cpus(2)
    out = tmp_path / "out"
    code = main(["verify", "--inject-delta", "2=0.3", "--out", str(out)])
    assert code == 2
    assert "--inject-delta 2 outside this circuit's 1..1" in capsys.readouterr().err
    assert not out.exists() and forks == []


def test_verify_zero_tolerance_exits_2_before_forking(tmp_path, capsys, pin_cpus):
    # a tolerance of 0 once reached math.sqrt(tol) in a worker's ground
    # certificate and ended in a ZeroDivisionError traceback
    forks = pin_cpus(2)
    out = tmp_path / "out"
    code = main(["verify", "--tolerance", "0", "--out", str(out)])
    assert code == 2
    assert "tolerance must be positive, got 0.0 (at tolerance)" in capsys.readouterr().err
    assert not out.exists() and forks == []


NEGATIVE_DELTA = "delta must lie in (0, 1], got -0.001"


@pytest.mark.parametrize(
    "args,message",
    [
        (["verify", "--tolerance", "-1e-10"], "tolerance must be positive, got -1e-10"),
        (["verify", "--circuit", "ID", "--delta", "-1e-3"], NEGATIVE_DELTA),
        (["scan", "--circuit", "ID", "--delta-grid", "-1e-3,0.5"], NEGATIVE_DELTA),
    ],
    ids=["tolerance", "delta", "delta-grid"],
)
def test_negative_exponent_values_reach_the_value_checks(
    tmp_path, capsys, identity_json, args, message
):
    # argparse took "-1e-10" for an option and exited with "expected one
    # argument" before any value check ran
    out = tmp_path / "out"
    args = [identity_json if a == "ID" else a for a in args]
    assert main(args + ["--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


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
    # every ground row fails: the doctored parent's ground state is the grid
    # state of its own schedule, and the certificate adds their angle
    ground = [r for r in rows[1:] if r[0] == "ground_fidelity"]
    assert len(ground) == 18 and {r[6] for r in ground} == {"fail"}
    assert abs(float(ground[0][3]) - 0.6173407515) < 1e-9


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


def test_soundness_keeps_the_order_given(tmp_path, capsys, pin_cpus):
    # the suites run in forked workers, yet the summary lines, the CSVs and
    # suites.json follow --suites, and no worker outlives the command
    forks = pin_cpus(2)
    names = ["jordan", "union_bound", "detectability"]
    out = tmp_path / "out"
    code = main([
        "soundness", "--out", str(out), "--suites", ",".join(names),
        "--instances", "4",
    ])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{name}: 4 instances, 0 violations" for name in names
    ]
    manifest = read_json(out / "suites.json")
    assert [s["suite"] for s in manifest["suites"]] == names
    assert all(len(read_csv(out / f"suite_{name}.csv")) == 5 for name in names)
    assert len(forks) == 2 and forks.reaped()


def test_soundness_unknown_suite(tmp_path, capsys):
    code = main(["soundness", "--suites", "nonsense", "--out", str(tmp_path)])
    assert code == 2
    assert "unknown suite" in capsys.readouterr().err


def test_soundness_repeated_suite_exits_2_without_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    code = main([
        "soundness", "--suites", "union_bound,union_bound", "--instances", "1",
        "--out", str(out),
    ])
    assert code == 2
    assert "suite 'union_bound' named more than once" in capsys.readouterr().err
    assert not out.exists()


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
    out = tmp_path / "out"
    code = main([
        "soundness", "--out", str(out), "--suites",
        "union_bound", "--instances", "1", "--fault-file", str(fault),
    ])
    assert code == 2
    assert "fault pattern does not fit the circuit" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_soundness_missing_fault_file_exits_2_without_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    code = main([
        "soundness", "--out", str(out), "--suites", "union_bound",
        "--instances", "1", "--fault-file", str(tmp_path / "absent.json"),
    ])
    assert code == 2
    assert "absent.json" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "args",
    [
        ["build", "--delta", "1.5"],
        ["scan", "--delta-grid", "0.5,0"],
        ["verify", "--delta", "1.5"],
        ["verify", "--inject-delta", "1=1.5"],
        [
            "soundness", "--delta", "2", "--fault-file", "FAULT",
            "--suites", "union_bound", "--instances", "1",
        ],
    ],
    ids=["build", "scan", "verify", "verify-inject", "soundness"],
)
def test_delta_out_of_range_exits_2_without_outputs(
    tmp_path, capsys, identity_json, args
):
    fault = tmp_path / "fault.json"
    fault.write_text(json_text({"inputs": [], "layers": [[]]}))
    args = [str(fault) if a == "FAULT" else a for a in args]
    out = tmp_path / "out"
    code = main(args + ["--circuit", identity_json, "--out", str(out)])
    assert code == 2
    assert "delta must lie in (0, 1]" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "config, flags, field",
    [
        ({"eigenvalues": 0}, [], "eigenvalues"),
        ({"max_iter": 0}, [], "max_iter"),
        ({"seed": 1.5}, [], "seed"),
        ({"epsilon": "x"}, [], "epsilon"),
        ({"epsilon": float("nan")}, [], "epsilon"),
        ({"suites": 3}, [], "suites"),
        ({}, ["--instances", "-3"], "instances"),
        ({"tolerance": 0}, [], "tolerance"),
        ({}, ["--tolerance=-1e-10"], "tolerance"),
    ],
    ids=["eigenvalues", "max_iter", "seed", "epsilon", "epsilon-nan", "suites",
         "instances", "tolerance-zero", "tolerance-negative"],
)
def test_malformed_config_value_exits_2_without_outputs(
    tmp_path, capsys, config, flags, field
):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    code = main([
        "soundness", "--config", str(path), "--suites", "union_bound",
        "--out", str(out), *flags,
    ])
    assert code == 2
    assert f"(at {field})" in capsys.readouterr().err
    assert not out.exists()


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


# Three wires, one gate each past the first two layers: 3 layers give a
# 32-qubit clock encoding (15 data qubits), 7 give 60 (27), 9 give 74 (33).
WIDE_LAYERS = [
    [("H", [0]), ("CNOT", [1, 2])], [("CNOT", [0, 1]), ("T", [2])], [("H", [2])],
    [("CNOT", [2, 0])], [("S", [1])], [("H", [0])], [("CNOT", [1, 2])],
    [("T", [0])], [("H", [1])],
]


def wide_json(tmp_path, depth):
    path = tmp_path / f"wide{depth}.json"
    path.write_text(json_text({
        "version": 1, "n": 3, "a": 1,
        "layers": [
            [{"gate": g, "wires": w} for g, w in layer]
            for layer in WIDE_LAYERS[:depth]
        ],
    }))
    return str(path)


def test_fk_on_32_qubits(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["fk", "--circuit", wide_json(tmp_path, 3), "--out", out]) == 0
    assert "32 qubits, 47 terms" in capsys.readouterr().out
    report = read_json(os.path.join(out, "fk_report.json"))
    assert report["history_energy_max_nonoutput"] <= 1e-10
    assert sorted(report["invalid_pattern"]["kinds"]) == ["clock", "propagation"]


@pytest.mark.parametrize("depth, qubits", [(7, 60), (9, 74)])
def test_fk_beyond_budget_exits_2_without_outputs(tmp_path, capsys, depth, qubits):
    out = tmp_path / "out"
    code = main(["fk", "--circuit", wide_json(tmp_path, depth), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"history state on {qubits} qubits" in err
    assert "GiB" in err and "memory budget" in err
    assert not out.exists() or not any(out.iterdir())


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("name", ["c14", "hcnot"])
def test_fk_report_bytes_are_pinned(tmp_path, hcnot_json, name):
    # fk_report.json as the dense-vector clock states wrote it: energies
    # must not drift by a bit
    if name == "c14":
        circuit = tmp_path / "c14.json"
        circuit.write_text(json_text(C14))
    else:
        circuit = hcnot_json
    out = tmp_path / "out"
    assert main(["fk", "--circuit", str(circuit), "--out", str(out)]) == 0
    pinned = (DATA / f"fk_report_{name}.json").read_bytes()
    assert (out / "fk_report.json").read_bytes() == pinned


def test_soundness_artifacts_are_pinned(tmp_path):
    # fault_report.json, suites.json and all seven suites, from the
    # benchmark's soundness run at seed 1 and 40 instances: the high-weight
    # mass, the random circuits and every lemma record stay put
    fault = tmp_path / "fault.json"
    fault.write_text(json_text({"inputs": [0], "layers": [[], [0, 1]]}))
    out = tmp_path / "out"
    assert main([
        "soundness", "--fault-file", str(fault), "--seed", "1",
        "--instances", "40", "--out", str(out),
    ]) == 0
    suites = [f"suite_{name}.csv" for name in SUITE_NAMES]
    for name in ["fault_report.json", "suites.json", *suites]:
        pinned = (DATA / f"soundness_{name}").read_bytes()
        assert (out / name).read_bytes() == pinned


def test_verify_rows_are_pinned(tmp_path):
    # the default verify.csv byte for byte: no row's value or deviation may
    # drift by a bit
    out = tmp_path / "out"
    assert main(["verify", "--out", str(out)]) == 0
    pinned = (DATA / "verify_default.csv").read_bytes()
    assert (out / "verify.csv").read_bytes() == pinned


def test_scan_rows_are_pinned(tmp_path):
    # scan.csv of a complex circuit as the per-term scaled operator wrote it:
    # every column but the gap byte for byte, the gap within 1e-13
    circuit = tmp_path / "ht_cnot.json"
    circuit.write_text(json_text({
        "version": 1, "n": 2, "a": 1,
        "layers": [
            [{"gate": "H", "wires": [0]}, {"gate": "T", "wires": [1]}],
            [{"gate": "CNOT", "wires": [0, 1]}],
        ],
    }))
    out = tmp_path / "out"
    argv = ["scan", "--circuit", str(circuit), "--delta-grid", "0.3,0.7"]
    assert main(argv + ["--out", str(out)]) == 0
    rows = read_csv(out / "scan.csv")
    pinned = read_csv(DATA / "scan_ht_cnot.csv")
    assert rows[0] == pinned[0] and len(rows) == len(pinned)
    gap = pinned[0].index("gap")
    for row, want in zip(rows[1:], pinned[1:]):
        assert row[:gap] + row[gap + 1:] == want[:gap] + want[gap + 1:]
        assert abs(float(row[gap]) - float(want[gap])) <= 1e-13, (row, want)


def test_build_artifacts_are_pinned(tmp_path):
    # the dense path on cnot_bulk at delta 0.5: spectrum, report and terms
    circuit = tmp_path / "cnot_bulk.json"
    circuit.write_text(json_text({
        "version": 1, "n": 2, "a": 2,
        "layers": [
            [{"gate": "CNOT", "wires": [1, 0]}],
            [{"gate": "I", "wires": [0]}, {"gate": "I", "wires": [1]}],
        ],
    }))
    out = tmp_path / "out"
    argv = ["build", "--circuit", str(circuit), "--delta", "0.5", "--out", str(out)]
    assert main(argv) == 0
    for name in ("spectral", "build_report", "terms"):
        pinned = (DATA / f"build_cnot_bulk_{name}.json").read_bytes()
        assert (out / f"{name}.json").read_bytes() == pinned


def test_swapqma_artifacts_are_pinned(tmp_path, hcnot_json):
    out = tmp_path / "out"
    assert main(["swapqma", "--circuit", hcnot_json, "--out", str(out)]) == 0
    for name in ("verifier_circuit", "verifier_plan", "swap_report"):
        pinned = (DATA / f"swapqma_hcnot_{name}.json").read_bytes()
        assert (out / f"{name}.json").read_bytes() == pinned


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


# The pinned 14-qubit circuit of perfbench/inputs/c14.json.
C14 = {
    "version": 1, "n": 2, "a": 1,
    "layers": [
        [{"gate": "H", "wires": [0]}, {"gate": "T", "wires": [1]}],
        [{"gate": "CNOT", "wires": [0, 1]}],
        [{"gate": "S", "wires": [0]}, {"gate": "H", "wires": [1]}],
    ],
}


def test_dense_build_beyond_budget_exits_2_without_outputs(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(spectral, "DENSE_QUBITS", 14)
    circuit = tmp_path / "c14.json"
    circuit.write_text(json_text(C14))
    out = tmp_path / "out"
    code = main(["build", "--circuit", str(circuit), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "14 qubits" in err and "GiB" in err and "memory budget" in err
    assert not out.exists()


def test_dense_build_counts_the_copies_it_holds(tmp_path, capsys, monkeypatch):
    # 12 grid qubits: one dense matrix fits the budget, the four that the
    # eigendecomposition holds do not
    monkeypatch.setattr(spectral, "DENSE_QUBITS", 12)
    circuit = tmp_path / "c12.json"
    circuit.write_text(json_text({
        "version": 1, "n": 4, "a": 4,
        "layers": [[{"gate": "H", "wires": [0]}]
                   + [{"gate": "I", "wires": [w]} for w in (1, 2, 3)]],
    }))
    out = tmp_path / "out"
    code = main(["build", "--circuit", str(circuit), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "dense eigendecomposition on 12 qubits" in err and "1 GiB" in err
    assert not out.exists()


def test_iterative_build_beyond_budget_exits_2_without_outputs(
    tmp_path, capsys, monkeypatch
):
    # 30 ARPACK vectors on 14 qubits are 7.5 MiB; the grid state is 1 MiB,
    # and the term blocks with what building them holds about 5 MiB.
    monkeypatch.setattr(limits, "MEMORY_BUDGET", 6 * 2**20)
    circuit = tmp_path / "c14.json"
    circuit.write_text(json_text(C14))
    out = tmp_path / "out"
    code = main(["build", "--circuit", str(circuit), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "ARPACK basis on 14 qubits" in err and "memory budget" in err
    assert not out.exists() or not any(out.iterdir())


def test_soundness_fault_file_beyond_budget_exits_2_without_outputs(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(limits, "MEMORY_BUDGET", 1000)
    circuit = tmp_path / "c14.json"
    circuit.write_text(json_text(C14))
    fault = tmp_path / "fault.json"
    fault.write_text(json_text({"inputs": [0], "layers": [[], [0, 1], []]}))
    out = tmp_path / "out"
    code = main([
        "soundness", "--circuit", str(circuit), "--fault-file", str(fault),
        "--suites", "union_bound", "--instances", "1", "--out", str(out),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "grid state on 14 qubits" in err and "memory budget" in err
    assert not out.exists() or not any(out.iterdir())


def test_build_out_of_solver_budget_exits_2_without_outputs(
    tmp_path, hcnot_json, capsys, monkeypatch
):
    monkeypatch.setattr(spectral, "DENSE_QUBITS", 9)  # hcnot has 10 qubits
    config = tmp_path / "run.json"
    config.write_text(json_text({"max_iter": 1}))
    out = tmp_path / "out"
    code = main([
        "build", "--config", str(config), "--circuit", hcnot_json,
        "--out", str(out),
    ])
    assert code == 2
    assert "did not reach tolerance" in capsys.readouterr().err
    assert not out.exists()


def test_verify_beyond_budget_exits_2_without_outputs(tmp_path, capsys):
    # a = n asks for the dense ground-state check, here on 14 qubits
    circuit = tmp_path / "wide.json"
    circuit.write_text(json_text({
        "version": 1, "n": 2, "a": 2,
        "layers": [
            [{"gate": "H", "wires": [0]}, {"gate": "I", "wires": [1]}],
            [{"gate": "CNOT", "wires": [0, 1]}],
            [{"gate": "I", "wires": [0]}, {"gate": "I", "wires": [1]}],
        ],
    }))
    out = tmp_path / "out"
    code = main(["verify", "--circuit", str(circuit), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "14 qubits" in err and "GiB" in err
    assert not out.exists()


CNOT_BULK = {
    "version": 1, "n": 2, "a": 2,
    "layers": [
        [{"gate": "CNOT", "wires": [1, 0]}],
        [{"gate": "I", "wires": [0]}, {"gate": "I", "wires": [1]}],
    ],
}


def test_verify_unresolved_ground_state_is_a_failed_row(
    tmp_path, capsys, monkeypatch
):
    # cnot_bulk at delta 0.03 has its first excited level at 3.93e-11: a
    # count forced to the shift 1e-9 sees four levels below it, at the
    # tolerance's try and at the accuracy floor's, and the row says so
    # instead of ending the run in a traceback
    inertia, counts = spectral._inertia, []

    def forced(h, tau, limit):
        count, b = inertia(h, 1e-9, limit)
        counts.append(count)
        return count, b

    monkeypatch.setattr(spectral, "_inertia", forced)
    circuit = tmp_path / "cnot_bulk.json"
    circuit.write_text(json_text(CNOT_BULK))
    out = tmp_path / "out"
    code = main([
        "verify", "--circuit", str(circuit), "--delta", "0.03", "--out", str(out),
    ])
    assert code == 1 and counts == [4, 4]
    assert "first failing check: ground_fidelity" in capsys.readouterr().err
    rows = read_csv(out / "verify.csv")[1:]
    assert len(rows) == 10
    bad = [row for row in rows if row[-1] != "pass"]
    assert bad == [
        ["ground_fidelity", "cnot_bulk.json", "0.029999999999999999", "nan",
         "1", "nan", "fail"],
    ]


@pytest.mark.parametrize("delta", [0.03, 0.04, 0.05, 0.07])
def test_verify_certifies_the_ground_of_cnot_bulk(tmp_path, capsys, delta):
    # first excited levels of 3.9e-11 to 3.3e-8: an absolute ground cutoff
    # of 1e-9 once counted 4 ground states at 0.03 and 0.04 and left
    # inverse iteration short of solves at 0.05 (three NaN rows), and its
    # 2.4e-10 error at 0.07 made a "tolerance" row
    circuit = tmp_path / "cnot_bulk.json"
    circuit.write_text(json_text(CNOT_BULK))
    out = tmp_path / "out"
    argv = ["verify", "--circuit", str(circuit), "--delta", str(delta)]
    assert main(argv + ["--out", str(out)]) == 0
    rows = read_csv(out / "verify.csv")[1:]
    assert len(rows) == 10 and {row[-1] for row in rows} == {"pass"}
    (ground,) = [row for row in rows if row[0] == "ground_fidelity"]
    assert 0.0 < float(ground[5]) <= 1e-10


@pytest.mark.parametrize("delta", [0.03, 0.04, 0.05, 0.07])
def test_build_finds_the_small_gap_of_cnot_bulk(tmp_path, delta):
    # gaps of 3.9e-11 to 3.3e-8, around the old absolute ground cutoff of
    # 1e-9 that counted 4 ground states at delta 0.03 and 0.04
    circuit = tmp_path / "cnot_bulk.json"
    circuit.write_text(json_text(CNOT_BULK))
    out = tmp_path / "out"
    argv = ["build", "--circuit", str(circuit), "--delta", str(delta)]
    assert main(argv + ["--out", str(out)]) == 0
    report = read_json(out / "build_report.json")
    spec = parent_spec(read_circuit_json(circuit), delta)
    eigs = np.linalg.eigvalsh(assemble(spec).to_sparse().toarray())
    assert report["ground_dim"] == 1
    assert abs(report["gap"] - (eigs[1] - eigs[0])) <= 1e-13


def test_scan_writes_a_nan_gap_where_the_ground_is_unresolved(tmp_path):
    # at delta 0.01 no eigensolve resolves cnot_bulk's ground space: the
    # scan row reads a NaN gap, as build's report reads null, and the sweep
    # ends with exit 0 instead of a traceback
    circuit = tmp_path / "cnot_bulk.json"
    circuit.write_text(json_text(CNOT_BULK))
    argv = ["--circuit", str(circuit)]
    out = tmp_path / "scan"
    assert main(["scan", *argv, "--delta-grid", "0.01", "--out", str(out)]) == 0
    assert read_csv(out / "scan.csv")[1] == [
        "0.01;0.01", "nan", "1.0000000000000006e-48",
        "0.00039988003598920329", "0.99999999999949996",
        "0.00010000000000000007", "1.5000000000000003e-15", "true",
    ]
    built = tmp_path / "build"
    assert main(["build", *argv, "--delta", "0.01", "--out", str(built)]) == 0
    assert read_json(built / "build_report.json")["gap"] is None


def test_iterative_build_keeps_both_ground_states(tmp_path, monkeypatch):
    # one data wire: two grid states span the ground space on 6 qubits,
    # where ARPACK's Ritz vectors once held only one of them
    circuit = tmp_path / "cnot.json"
    circuit.write_text(json_text({
        "version": 1, "n": 2, "a": 1,
        "layers": [[{"gate": "CNOT", "wires": [0, 1]}]],
    }))

    def build(name, seed):
        out = tmp_path / name
        argv = ["build", "--circuit", str(circuit), "--delta", "0.8"]
        assert main(argv + ["--seed", str(seed), "--out", str(out)]) == 0
        return read_json(out / "build_report.json")

    dense = build("dense", 0)
    monkeypatch.setattr(spectral, "DENSE_QUBITS", 2)
    for seed in range(3):
        report = build(f"iterative{seed}", seed)
        assert (report["solver"], report["ground_dim"]) == ("iterative", 2)
        assert abs(report["gap"] - dense["gap"]) <= 1e-12


def test_witness_basis_beyond_budget_exits_2_without_outputs(
    tmp_path, capsys, monkeypatch
):
    # three data wires on 9 qubits: 8 grid states of 8 KiB each take 64 KiB,
    # where the grid state itself needs 32 KiB
    monkeypatch.setattr(limits, "MEMORY_BUDGET", 48 * 2**10)
    layer = [{"gate": "I", "wires": [w]} for w in range(3)]
    circuit = tmp_path / "free.json"
    circuit.write_text(json_text({"version": 1, "n": 3, "a": 0, "layers": [layer]}))
    out = tmp_path / "out"
    code = main(["build", "--circuit", str(circuit), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "witness basis on 9 qubits" in err and "GiB" in err
    assert not out.exists()


def _one_wire_json(path, gates) -> str:
    """A one-wire, a = 0 circuit of one gate per layer, written to ``path``."""
    path.write_text(json_text({
        "version": 1, "n": 1, "a": 0,
        "layers": [[{"gate": g, "wires": [0]}] for g in gates],
    }))
    return str(path)


def test_verify_runs_an_expansion_past_six_sites(tmp_path):
    # 7 sites on 15 qubits: a cap of 4^6 Pauli words once refused this run
    gates = ["H", "T", "H", "S", "H", "S", "H"]
    circuit = _one_wire_json(tmp_path / "seven.json", gates)
    out = tmp_path / "out"
    assert main(["verify", "--circuit", circuit, "--out", str(out)]) == 0
    rows = read_csv(out / "verify.csv")[1:]
    assert len(rows) == 15 and {r[6] for r in rows} == {"pass"}
    assert [r[0] for r in rows[:2]] == ["frustration_freeness", "expansion_reassembly"]


@pytest.mark.parametrize("depth", [9, 10], ids=["19q", "21q"])
def test_verify_runs_a_long_wire_on_the_cones_its_terms_stop_on(tmp_path, depth):
    # 19 and 21 qubits: each H term stops on a cone of 3 or 5 qubits, so the
    # run fits the memory budget, although the wire cones of the last terms
    # span the whole grid and their check states alone would outgrow it
    circuit = _one_wire_json(tmp_path / "long.json", ["H"] * depth)
    out = tmp_path / "out"
    assert main(["verify", "--circuit", circuit, "--out", str(out)]) == 0
    rows = read_csv(out / "verify.csv")[1:]
    # the three state rows, one last-layer row and two rows per bulk H
    assert len(rows) == 2 * depth + 2 and {r[6] for r in rows} == {"pass"}


def test_verify_refuses_an_oversized_light_cone_before_any_case(
    tmp_path, capsys, monkeypatch
):
    # the CCZ bulk term's first stop is its 15-qubit wire cone, and its
    # block on 12 qubits alone outgrows the memory budget
    cases = []
    monkeypatch.setattr(verify, "_case_checks", lambda case, tol: cases.append(case))
    layers = [
        [{"gate": "CCZ", "wires": [0, 1, 2]}],
        [{"gate": "I", "wires": [w]} for w in range(3)],
    ]
    circuit = tmp_path / "wide.json"
    circuit.write_text(json_text({"version": 1, "n": 3, "a": 0, "layers": layers}))
    out = tmp_path / "out"
    assert main(["verify", "--circuit", str(circuit), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "rotated-block extraction on 15 qubits" in err
    assert "about 1.52 GiB" in err
    assert cases == [] and not out.exists()


def test_verify_samples_a_deep_t_term_on_its_first_stop(tmp_path):
    # 21 qubits: the T term on layer 9 is sampled on its 5-qubit first stop,
    # not on its wire cone, which spans the whole grid (1.88 GiB of check
    # states and buffers)
    circuit = _one_wire_json(tmp_path / "w1t9.json", ["H"] * 8 + ["T", "H"])
    out = tmp_path / "out"
    assert main(["verify", "--circuit", circuit, "--out", str(out)]) == 0
    rows = read_csv(out / "verify.csv")[1:]
    assert len(rows) == 21 and {r[6] for r in rows} == {"pass"}
    # the three state rows, two rows per bulk H, then the T and the last H
    assert [r[0] for r in rows[3:]] == (
        ["clifford_bulk[H@0]", "projected_bulk[H@0]"] * 8
        + ["nonlocality_diagnostic[T@0]", "last_layer[H@0]"]
    )


@pytest.mark.parametrize(
    "flag,given,setting",
    [
        ("--delta", ["--delta", "0.3"], None),
        ("--delta", None, {"delta": 0.3}),
        ("--delta-layer", ["--delta-layer", "1=0.3"], None),
        ("--delta-layer", None, {"delta_layers": {"1": 0.3}}),
    ],
    ids=["flag", "config", "layer-flag", "layer-config"],
)
def test_verify_refuses_a_delta_without_a_circuit(
    tmp_path, capsys, flag, given, setting
):
    # the fixtures run at their own three deltas, so a --delta would be
    # ignored, and a --delta-layer would run a schedule that the state rows
    # do not report; the echo of a plain run names neither and replays as
    # it ran
    config = tmp_path / "run.json"
    config.write_text(json_text(setting))
    args = given or ["--config", str(config)]
    out = tmp_path / "out"
    assert main(["verify", *args, "--out", str(out)]) == 2
    assert f"verify takes {flag} only with --circuit" in capsys.readouterr().err
    assert not out.exists()
    plain = parse_args(["verify"])
    config.write_text(json_text(plain.to_dict()))
    assert plain.delta is None and plain.delta_layers == {}
    assert parse_args(["verify", "--config", str(config)]) == plain


def test_commands_without_mtx_leave_scipy_io_unloaded(tmp_path, identity_json):
    # only the Matrix Market writer needs scipy.io, which costs every
    # command about 1 MB of peak RSS at import
    script = (
        "import sys\n"
        "from clockless.cli import main\n"
        f"assert main(['verify', '--out', {str(tmp_path / 'v')!r}]) == 0\n"
        f"assert main(['fk', '--circuit', {identity_json!r}, "
        f"'--out', {str(tmp_path / 'f')!r}]) == 0\n"
        "print('scipy.io' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "False"


def test_scan_past_dense_size_matches_build_gap(tmp_path):
    circuit = tmp_path / "c14.json"
    circuit.write_text(json_text(C14))
    scanned, built = tmp_path / "scan", tmp_path / "build"
    assert main([
        "scan", "--circuit", str(circuit), "--delta-grid", "0.5",
        "--out", str(scanned),
    ]) == 0
    assert main(["build", "--circuit", str(circuit), "--out", str(built)]) == 0
    rows = read_csv(scanned / "scan.csv")
    gap = float(dict(zip(rows[0], rows[1]))["gap"])
    report = read_json(built / "build_report.json")
    assert report["solver"] == "iterative"
    assert abs(gap - report["gap"]) < 1e-9


def test_swapqma_beyond_budget_exits_2_without_outputs(tmp_path, capsys):
    # six steps on one wire: 11 test ancillas and 12 registers, 23 qubits
    circuit = tmp_path / "long.json"
    circuit.write_text(json_text({
        "version": 1, "n": 1, "a": 1,
        "layers": [[{"gate": "H", "wires": [0]}]] * 6,
    }))
    out = tmp_path / "out"
    assert main(["swapqma", "--circuit", str(circuit), "--out", str(out)]) == 2
    assert "23 qubits" in capsys.readouterr().err
    assert not out.exists()


def test_verify_c18_rows_are_pinned(tmp_path):
    # verify --circuit on c18, C14 with a fourth layer CNOT(1, 0) on 18
    # qubits, byte for byte: the rotated rows past the 10-qubit fixtures
    circuit = tmp_path / "c18.json"
    circuit.write_text(json_text({
        **C14, "layers": C14["layers"] + [[{"gate": "CNOT", "wires": [1, 0]}]],
    }))
    out = tmp_path / "out"
    assert main(["verify", "--circuit", str(circuit), "--out", str(out)]) == 0
    pinned = (DATA / "verify_c18.csv").read_bytes()
    assert (out / "verify.csv").read_bytes() == pinned

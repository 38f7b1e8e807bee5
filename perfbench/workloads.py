"""The four benchmark workloads: CLI arguments, correctness checks, layer map.

Each workload is one ``clockless`` command on pinned inputs from
``inputs/``; the benchmark seed becomes the command's ``--seed``. A check
reads the artifacts the command wrote and returns (attempted, failed).
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
INPUTS = os.path.join(HERE, "inputs")
C14 = os.path.join(INPUTS, "c14.json")
FAULT = os.path.join(INPUTS, "fault.json")
BUILD_REFERENCE = os.path.join(INPUTS, "build14_reference.json")

VERIFY_ROWS = 153
SOUNDNESS_INSTANCES = 200 * 7


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    args: tuple[str, ...]  # CLI arguments before --seed and --out
    expected: int  # checks attempted; all count as failed if the command fails
    check: Callable[[str], tuple[int, int]]


def _read_json(out: str, name: str):
    with open(os.path.join(out, name)) as f:
        return json.load(f)


def _check_verify(out: str) -> tuple[int, int]:
    with open(os.path.join(out, "verify.csv"), newline="") as f:
        rows = list(csv.DictReader(f))
    failed = sum(row["status"] != "pass" for row in rows)
    missing = max(0, VERIFY_ROWS - len(rows))
    return len(rows) + missing, failed + missing


def _check_build(out: str) -> tuple[int, int]:
    report = _read_json(out, "build_report.json")
    spectral = _read_json(out, "spectral.json")
    solver_tol = _read_json(out, "config.json")["solver_tol"]
    with open(BUILD_REFERENCE) as f:
        reference = json.load(f)["lowest_eigenvalues"]
    eigs = spectral["lowest_eigenvalues"]
    checks = [
        report["ground_dim"] == 2,
        report["total_energy"] <= 1e-10,
        all(r <= solver_tol for r in spectral["residuals"]),
        len(eigs) == len(reference)
        and all(abs(a - b) <= 1e-8 for a, b in zip(eigs, reference)),
    ]
    return len(checks), checks.count(False)


def _check_fk(out: str) -> tuple[int, int]:
    report = _read_json(out, "fk_report.json")
    checks = [
        report["history_energy_max_nonoutput"] <= 1e-10,
        bool(report.get("invalid_pattern", {}).get("violated_terms")),
    ]
    return len(checks), checks.count(False)


def _check_soundness(out: str) -> tuple[int, int]:
    suites = _read_json(out, "suites.json")["suites"]
    fault = _read_json(out, "fault_report.json")
    instances = sum(s["instances"] for s in suites)
    violations = sum(len(s["failures"]) for s in suites)
    fault_checks = [
        fault["locations_match"],
        fault["tail_match"],
        fault["roundtrip_fidelity"] >= 1 - 1e-12,
    ]
    return instances + len(fault_checks), violations + fault_checks.count(False)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-fixtures",
            "verify on the built-in fixtures: rotation kernels and 10-qubit "
            "dense_spectrum, many small apply_matrix calls, no iterative solver",
            ("verify",),
            VERIFY_ROWS,
            _check_verify,
        ),
        Workload(
            "build-14q",
            "build on pinned circuit C14 (14 grid qubits, degenerate ground "
            "space): iterative low_spectrum and SparseOperator.apply dominate",
            ("build", "--circuit", C14),
            4,
            _check_build,
        ),
        Workload(
            "fk-23q",
            "fk on pinned circuit C14: 23-qubit clock Hamiltonian, memory-bound "
            "apply_matrix/term_energy on 128 MB vectors, no eigensolver",
            ("fk", "--circuit", C14),
            2,
            _check_fk,
        ),
        Workload(
            "soundness-suites",
            "soundness, 200 instances x 7 suites plus a fault file: ~1400 "
            "small calls through the thread pool, per-call overhead dominates",
            ("soundness", "--fault-file", FAULT),
            SOUNDNESS_INSTANCES + 3,
            _check_soundness,
        ),
    )
}

# Workloads listed in BENCHMARK.json. build-14q stays runnable but is left
# out: at this commit low_spectrum misses a copy of a degenerate eigenvalue
# for some start-vector seeds (seed 3 and 10 among 1..10), so its
# lowest-eigenvalue check fails and its run time halves on those seeds.
GATED = ("verify-fixtures", "fk-23q", "soundness-suites")

# Layer -> (end-to-end metrics it should move, workloads it shows on).
LAYER_MAP = {
    "linalg": (
        ("run_s", "peak_rss_mb"),
        "fk-23q (heavy); soundness-suites, verify-fixtures (per-call overhead)",
    ),
    "hamiltonian": (
        ("run_s",), "build-14q (matvec); fk-23q (term_energy)",
    ),
    "spectral": (
        ("run_s", "peak_rss_mb"),
        "build-14q (low_spectrum); verify-fixtures (dense); "
        "soundness-suites (geometry)",
    ),
    "rotation": (
        ("run_s",), "verify-fixtures; soundness-suites (RotationUnitary.apply)",
    ),
    "peps": (("run_s",), "verify-fixtures; soundness-suites"),
    "circuit": (("run_s",), "fk-23q"),
    "fk": (("run_s", "peak_rss_mb"), "fk-23q"),
    "soundness": (("run_s",), "soundness-suites"),
    "io": (
        ("run_s",),
        "build-14q (term_manifest SVD norms); write_csv on the others",
    ),
    "cli": ((), "all (diagnostic only)"),
}

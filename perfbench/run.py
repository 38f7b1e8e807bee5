"""Benchmark runner for the clockless CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --list
    python3 perfbench/run.py --write-benchmark-json

A run starts one fresh child process per command, one at a time, and
repeats the workload's command until ``--seconds`` have passed (at least
once). Each child times its own set-up (process start until
``clockless.cli`` is imported) and ``main(argv)``; extra set-up-only
children bring the set-up samples to ``SETUP_SAMPLES``. Every command's
artifacts are checked for correctness.

With ``--trace 0`` the last stdout line holds the end-to-end metrics
(medians over the samples). With ``--trace 1`` one more command runs
under the span tracer and the last line holds the per-layer metrics; the
lines above it print every end-to-end and per-layer metric with its
unit. The line before the last is a JSON record with the machine
fingerprint and the raw samples. Artifacts and spans stay in
``.perfbench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from tracer import DERIVED, wrapped_names
from workloads import GATED, LAYER_MAP, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")

RUN_SECONDS = 10
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 170

# name -> (unit, better, bound as a share of the parent's median)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "run_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}


def per_layer_catalogue() -> dict[str, tuple[str, str]]:
    """Per-layer metric name -> (unit, better)."""
    out = {}
    for name in wrapped_names():
        out[f"{name}.calls"] = ("count", "lower")
        out[f"{name}.self_s"] = ("s", "lower")
    out.update({name: (unit, better) for name, (unit, better, _) in DERIVED.items()})
    out["cli.cpu_s"] = ("s", "lower")
    out["cli.cpu_util"] = ("ratio", "higher")
    out["tracing.overhead_s"] = ("s", "lower")
    return out


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed check)."""


def _spawn(result_path: str, log_path: str, extra: list[str]) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    with open(log_path, "w") as log:
        argv = [sys.executable, CHILD, result_path, repr(time.monotonic())] + extra
        proc = subprocess.run(
            argv, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
            timeout=CHILD_TIMEOUT_S,
        )
    if proc.returncode != 0 or not os.path.exists(result_path):
        with open(log_path) as log:
            tail = log.read()[-2000:]
        raise BenchmarkError(f"child exited {proc.returncode}:\n{tail}")
    with open(result_path) as f:
        return json.load(f)


def _setup_only(out: str, index: int) -> dict:
    return _spawn(
        os.path.join(out, f"setup{index}.json"),
        os.path.join(out, f"setup{index}.log"),
        [],
    )


def _command(workload, seed: int, out: str, index: int, trace: bool) -> dict:
    """Run the workload's command once in a fresh child and check its artifacts."""
    rep_out = os.path.join(out, f"rep{index}")
    os.makedirs(rep_out)
    extra = ["--trace", os.path.join(out, "spans.tsv")] if trace else []
    extra += ["--", *workload.args, "--seed", str(seed), "--out", rep_out]
    sample = _spawn(rep_out + ".json", rep_out + ".log", extra)
    attempted, failed = workload.expected, workload.expected
    if sample["exit_code"] == 0:
        try:
            attempted, failed = workload.check(rep_out)
        except (OSError, KeyError, ValueError, TypeError) as e:
            print(f"check of {rep_out} failed: {e!r}", file=sys.stderr)
    sample.update(attempted=attempted, failed=failed)
    return sample


def quartile_spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for one sample)."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def fingerprint(versions: dict) -> dict:
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        l3 = int(subprocess.run(
            ["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True,
            timeout=30, check=True,
        ).stdout)
    except (OSError, subprocess.SubprocessError, ValueError):
        l3 = None
    lines = 0
    for path in sorted(glob.glob(os.path.join(SRC, "clockless", "*.py"))):
        with open(path) as f:
            lines += sum(1 for _ in f)
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        **versions,
        "blas_threads": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "clockless_threads": os.environ.get("CLOCKLESS_THREADS"),
        "l3_bytes": l3,
        "src_lines": lines,
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if not os.path.isfile(os.path.join(SRC, "clockless", "cli.py")):
        raise BenchmarkError(f"no clockless sources under {SRC}")
    workload = WORKLOADS[name]
    out = os.path.join(ROOT, ".perfbench_out", name)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)

    samples = []
    deadline = time.monotonic() + seconds
    while not samples or time.monotonic() < deadline:
        samples.append(_command(workload, seed, out, len(samples), trace=False))
    traced = _command(workload, seed, out, len(samples), trace=True) if trace else None
    setups = [s["setup_s"] for s in samples]
    while len(setups) < SETUP_SAMPLES:
        setups.append(_setup_only(out, len(setups))["setup_s"])

    checked = samples + ([traced] if traced else [])
    attempted = sum(s["attempted"] for s in checked)
    failed = sum(s["failed"] for s in checked)
    run_s = statistics.median(s["run_s"] for s in samples)
    cpu_s = statistics.median(s["cpu_s"] for s in samples)
    end_to_end = {
        "setup_s": statistics.median(setups),
        "run_s": run_s,
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
    }
    layers = {}
    if traced:
        layers = dict(traced["layers"])
        layers["cli.cpu_s"] = cpu_s
        layers["cli.cpu_util"] = cpu_s / run_s
        layers["tracing.overhead_s"] = traced["run_s"] - run_s
    return {
        "workload": name,
        "seed": seed,
        "end_to_end": end_to_end,
        "layers": layers,
        "attempted": attempted,
        "failed": failed,
        "detail": {
            "fingerprint": fingerprint(samples[0]["versions"]),
            "failed_frac": failed / attempted,
            "cpu_s": cpu_s,
            "samples": {
                "setup_s": setups,
                "run_s": [s["run_s"] for s in samples],
                "peak_rss_mb": [s["peak_rss_mb"] for s in samples],
                "cpu_s": [s["cpu_s"] for s in samples],
            },
            "spread": {
                "setup_s": quartile_spread(setups),
                "run_s": quartile_spread([s["run_s"] for s in samples]),
            },
        },
    }


def report(result: dict, trace: bool) -> None:
    per_layer = per_layer_catalogue()
    detail = result["detail"]
    print(f"workload {result['workload']} seed {result['seed']}: "
          f"{result['failed']}/{result['attempted']} checks failed")
    for name, value in result["end_to_end"].items():
        print(f"  {name:<48} {value:>16.6g} {END_TO_END[name][0]}")
    print(f"  {'failed_frac':<48} {detail['failed_frac']:>16.6g} ratio")
    print(f"  {'cpu_s':<48} {detail['cpu_s']:>16.6g} s")
    print(f"  {'src_lines':<48} {detail['fingerprint']['src_lines']:>16d} count")
    for name, value in result["layers"].items():
        print(f"  {name:<48} {value:>16.6g} {per_layer[name][0]}")
    print(json.dumps(detail, sort_keys=True))
    if trace:
        metrics = {
            name: {"value": value, "unit": per_layer[name][0]}
            for name, value in result["layers"].items()
        }
    else:
        metrics = {
            name: {"value": value, "unit": END_TO_END[name][0]}
            for name, value in result["end_to_end"].items()
        }
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))


def list_metrics() -> None:
    print("workloads (* = not in BENCHMARK.json, see workloads.GATED):")
    for w in WORKLOADS.values():
        print(f"  {w.name}{'' if w.name in GATED else ' *'}: {w.why}")
    print("end-to-end metrics (untraced runs):")
    for name, (unit, better, bound) in END_TO_END.items():
        print(f"  {name} [{unit}] {better} is better, bound {bound}")
    print("per-layer metrics (traced run):")
    for name, (unit, better) in per_layer_catalogue().items():
        meaning = f": {DERIVED[name][2]}" if name in DERIVED else ""
        print(f"  {name} [{unit}] {better} is better{meaning}")
    print("layer -> end-to-end metrics it should move, and where:")
    for layer, (moves, where) in LAYER_MAP.items():
        print(f"  {layer}: {', '.join(moves) or 'diagnostic only'} on {where}")


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": WORKLOADS[name].why} for name in GATED
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better) in per_layer_catalogue().items()
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true", help="print the metric catalogue")
    parser.add_argument(
        "--write-benchmark-json", action="store_true",
        help="write BENCHMARK.json at the repository root from the catalogue",
    )
    args = parser.parse_args(argv)
    if args.list:
        list_metrics()
        return 0
    if args.write_benchmark_json:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            json.dump(benchmark_json(), f, indent=2)
            f.write("\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchmarkError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    report(result, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())

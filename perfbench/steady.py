"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/steady.py --workload NAME [--workload NAME ...] --runs 10

Runs ``run.py --trace 0`` once per seed (seeds 1..runs by default) and
prints, per metric, the median and the inter-quartile distance as a share
of the median, next to the metric's bound. A spread above a third of the
bound is flagged: the benchmark is not steady enough to resolve that bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import END_TO_END, GATED, RUN_SECONDS, WORKLOADS, quartile_spread

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    steady = True
    for name in args.workload or GATED:
        values: dict[str, list[float]] = {m: [] for m in END_TO_END}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace", "0"],
                capture_output=True, text=True, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: {result['failed']} checks failed")
                steady = False
            for m in values:
                values[m].append(result["metrics"][m]["value"])
        for m, vals in values.items():
            med, share = statistics.median(vals), quartile_spread(vals)
            unit, _, bound = END_TO_END[m]
            ok = share <= bound / 3
            steady &= ok or m == "setup_s"
            print(f"{name:<18} {m:<12} median {med:10.4f} {unit:<3} spread "
                  f"{share:7.2%} (bound {bound:.0%}){'' if ok else '  NOT STEADY'}")
            print(f"{'':<18} {'':<12} " + " ".join(f"{v:.4f}" for v in vals))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

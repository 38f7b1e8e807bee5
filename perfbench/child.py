"""One benchmark sample: import the clockless CLI, run one command, report.

Usage: python3 child.py RESULT_JSON SPAWNED_AT [--trace SPANS_TSV] [-- CLI ARGS...]

``SPAWNED_AT`` is the parent's ``time.monotonic()`` just before it
started this process, so ``setup_s`` covers interpreter start and the
import of ``clockless.cli``. Without CLI arguments the child only sets
up. With ``--trace`` the command runs under the span tracer and the
per-layer metrics are added to the result. Only the standard library is
imported before the timer stops.
"""

import contextlib
import json
import resource
import sys
import time
import traceback


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv: list[str]) -> int:
    result_path, spawned_at, rest = argv[0], float(argv[1]), argv[2:]
    spans_path = None
    if rest[:1] == ["--trace"]:
        spans_path, rest = rest[1], rest[2:]
    cli_args = rest[1:] if rest[:1] == ["--"] else []

    import clockless.cli

    result = {"setup_s": time.monotonic() - spawned_at}
    if cli_args:
        recorder = None
        if spans_path is not None:
            from tracer import Tracer, layer_metrics, write_spans

            recorder = Tracer()
        with recorder.installed() if recorder else contextlib.nullcontext():
            cpu0, t0 = _cpu_s(), time.perf_counter()
            try:
                code = clockless.cli.main(cli_args)
            except Exception:  # a crash of the command fails its checks
                traceback.print_exc()
                code = 1
            run_s, cpu_s = time.perf_counter() - t0, _cpu_s() - cpu0
        result.update(exit_code=code, run_s=run_s, cpu_s=cpu_s)
        if recorder is not None:
            result["layers"] = layer_metrics(recorder.spans)
            write_spans(recorder.spans, spans_path)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["versions"] = _versions()
    with open(result_path, "w") as f:
        json.dump(result, f)
    return 0


def _versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

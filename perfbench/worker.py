"""Runs one benchmark job in a fresh interpreter and prints its result.

    python3 perfbench/worker.py --workload W --job NAME --sets DIR [--smoke] [--trace FILE]

run.py starts one worker per job execution, as a CLI user starts one
process per command. So no job can see a cache filled by an earlier job,
and each sample gets its own memory layout. The job runs in-process
through ``cubequartic.cli.main(argv)`` with stdout and stderr captured.
The timer covers that call and nothing else: import time is measured
separately as set-up. A fixed calibration kernel runs just before and
just after the job, in the same process, and its seconds measure how fast
the host is at that moment (run.py scales every time by them). The last
stdout line is a JSON object with the import seconds, the two
calibration seconds, the job's wall seconds, exit code, captured stdout
and stderr, and peak RSS. ``--trace FILE`` wraps the package with the
tracer, writes the spans to FILE and adds the job's per-layer values and
per-function table.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import resource
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from tracer import Tracer, job_layer_values, write_spans
from workloads import WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"


def import_cli():
    """Import cubequartic.cli from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import cubequartic.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "cubequartic":
        sys.exit(f"perfbench: imported cubequartic from {cli.__file__}, not from {SRC}")
    return cli


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter work (a dict-counting loop)
    and numpy work (Walsh butterflies on a 2^15 array), the two kinds of
    work the jobs do. It takes about 0.1 s on a quiet 2-vCPU Xeon host."""
    import numpy as np  # already imported with the package

    start = perf_counter()
    counts: dict[int, int] = {}
    for i in range(300_000):
        key = i * i % 1021
        counts[key] = counts.get(key, 0) + 1
    base = np.arange(1 << 15, dtype=np.float64)
    for _ in range(30):
        array, half = base.copy(), 1
        while half < array.size:
            pairs = array.reshape(-1, 2 * half)
            left = pairs[:, :half].copy()
            pairs[:, :half] += pairs[:, half:]
            pairs[:, half:] = left - pairs[:, half:]
            half *= 2
    return perf_counter() - start


def run_job(cli, argv: list[str]) -> dict:
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crashing job is a failed job; the run goes on
            code = f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - start
    return {"seconds": seconds, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--job", required=True)
    parser.add_argument("--sets", required=True, type=Path)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", type=Path)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    job = {j.name: j for j in (workload.smoke if args.smoke else workload.jobs)}[args.job]
    start = perf_counter()
    cli = import_cli()
    import_s = perf_counter() - start
    before = calibrate()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    result = run_job(cli, job.argv(args.sets))
    if tracer is not None:
        tracer.uninstall()
    result["calibration_s"] = [before, calibrate()]
    if tracer is not None:
        result["layer"], result["functions"], result["min_self_s"] = job_layer_values(
            tracer.spans, len(result["stdout"].encode()))
        write_spans(tracer.spans, args.trace)
    result["import_s"] = import_s
    result["rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""tsformer benchmark: one workload per run, end-to-end or traced.

Usage, from the repository root:

    python3 perfbench/run.py --workload default-train --seed 1 --seconds 55 --trace 0

The run generates its inputs from ``--seed``, sets up (several times, to
time set-up), then runs the workload's command cycle in a closed loop for
about ``--seconds`` seconds and checks every command's output. The last
stdout line is the JSON result; the line before it is a JSON record of the
environment, sample counts and failures.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced cycles and reports the per-layer metrics, plus the
tracing overhead measured between the two.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS before numpy loads: multithreaded OpenBLAS is many times slower
# than one thread at these matrix sizes on a small machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# numpy asks for transparent huge pages on large arrays; whether the host
# grants them varies from run to run and moved peak RSS by up to 45 MB.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "tsformer")
# Set-up is repeated and the median of its repeats reported: for this many
# seconds before the first cycle, and again for a slice after every cycle,
# so that the repeats sample the host's speed over the whole run, as the
# commands do. The smallest set-ups take ~2 ms.
SETUP_SECONDS = 1.0
SETUP_SLICE_SECONDS = 0.2


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def set_up(workload, session, seconds: float, times: list[float]) -> None:
    """Run the workload's set-up once, then again until ``seconds`` passed."""
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        workload.setup(session)
        end = time.perf_counter()
        times.append(end - start)
        if end >= deadline:
            return


def closed_loop(workload, session, seconds: float, setup_s: list[float], tracer=None):
    """Run cycles until the next one would end past the deadline.

    Set-up is repeated for a slice after every cycle; its inputs come out
    byte-identical, so the next cycle sees the same files. With a tracer,
    cycles alternate between untraced and traced. Returns the durations of
    the untraced and of the traced cycles.
    """
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        for under_trace in ((False, True) if tracer else (False,)):
            if under_trace:
                tracer.install()
            start = time.perf_counter()
            try:
                workload.cycle(session)
            finally:
                if under_trace:
                    tracer.remove()
            (traced if under_trace else plain).append(time.perf_counter() - start)
            if len(plain) + len(traced) == workload.min_cycles:
                session.record_peak_rss()
            set_up(workload, session, SETUP_SLICE_SECONDS, setup_s)
        now = time.perf_counter()
        if len(plain) + len(traced) >= workload.min_cycles and 2 * now - started > deadline:
            return plain, traced


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(PACKAGE, "cli.py")):
        print(f"perfbench: no tsformer sources at {os.path.relpath(PACKAGE, ROOT)}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.dirname(PACKAGE))

    import environment
    import tracing
    from tsformer import cli
    from workloads import WORKLOADS, Session

    env = environment.describe(PACKAGE)
    workdir = os.path.join(ROOT, ".perfbench_work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    workload = WORKLOADS[args.workload](args.seed)
    session = Session(cli, workdir)
    setup_s: list[float] = []
    set_up(workload, session, SETUP_SECONDS, setup_s)

    tracer = tracing.Tracer() if args.trace else None
    plain, traced = closed_loop(workload, session, args.seconds, setup_s, tracer)

    if args.trace:
        work = {k: v * len(traced) for k, v in workload.per_cycle.items()}
        work["cycles"] = len(traced)
        metrics = tracing.layer_metrics(tracer, work)
        metrics["trace.overhead_pct"] = (
            100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0), "%")
        with open(os.path.join(workdir, "spans.jsonl"), "w", encoding="utf-8") as fh:
            for name, start, end, parent in tracer.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")
    else:
        metrics = workload.end_to_end(session)
        metrics["setup_s"] = (statistics.median(setup_s), "s")
        metrics["peak_rss_mb"] = (session.peak_rss_mb, "MB")

    # The final line carries exactly the metrics BENCHMARK.json declares for
    # this mode; anything else measured (a new tape op kind, say) goes to the
    # record line.
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        units = {m["name"]: m["unit"]
                 for m in json.load(fh)["per_layer" if args.trace else "end_to_end"]}
    declared = set(units)
    undeclared = {name: value for name, (value, _) in metrics.items() if name not in declared}
    # A per-layer metric whose function or op kind a later change removed is
    # reported as 0 and named in the record, so the result line stays whole.
    missing = sorted(declared - metrics.keys()) if args.trace else []
    for name in missing:
        metrics[name] = (0, units[name])

    failed = session.failed
    if env["blas_threads"] != 1:
        session.failures.append(f"BLAS ran with {env['blas_threads']} threads, not 1")
        failed = session.attempted  # every timing in this run is suspect
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "cycles": {"untraced": len(plain), "traced": len(traced)},
        "samples": {kind: len(v) for kind, v in session.seconds.items()},
        "command_s": {kind: {"min": min(v), "median": statistics.median(v),
                             "mean": statistics.fmean(v), "max": max(v)}
                      for kind, v in session.seconds.items()},
        "setup": {"repeats": len(setup_s), "min_s": min(setup_s), "max_s": max(setup_s)},
        "error_rate": failed / max(session.attempted, 1),
        "failures": session.failures[:20],
        "undeclared_metrics": undeclared,
    }
    if args.trace:
        record["functions"] = tracing.function_table(tracer)
        record["unmeasured"] = tracer.unmeasured
        record["unmeasured_metrics"] = missing
    print(json.dumps({"perfbench": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": session.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items() if name in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one rosefold benchmark workload and print its metrics.

Usage, from the root of a rosefold checkout:

    python3 perfbench/run.py --workload graphs --seed 1 --seconds 50 --trace 0

The program is imported from ``src/`` of the current directory.  With
``--trace 0`` the run times set-up (a fresh import plus input parsing,
before the batch, at intervals during it and after it; median) and one
batch of jobs, and reports the end-to-end metrics.  With ``--trace 1``
it runs the batch untraced, then again with a span around every traced
program function, reports the per-layer metrics and writes the spans to
``perfbench/out/``.  Every job's output is checked; the last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
#: Run length (seconds) at which each drawn kind runs its listed ``count``.
REFERENCE_SECONDS = 50
#: Set-up samples per ``--seconds`` of batch time, spread through the batch.
SETUP_SAMPLES = 24

#: End-to-end metric name -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mb": "MiB",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=REFERENCE_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "rosefold" / "__init__.py").is_file():
        print(f"error: no rosefold source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import harness
    from workloads import WORKLOADS, draw

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    expected = workload.expected(json.loads((BENCH / "expected.json").read_text()))
    cases = draw(workload.kinds, args.seed, args.seconds / REFERENCE_SECONDS)
    raw = workload.prepare(cases)
    config = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cases": cases,
        **workload.config(),
        "environment": harness.environment(root),
    }
    print("# config " + json.dumps(config, sort_keys=True))

    setup_s, program, state = harness.timed_setup(workload, raw)
    times = [setup_s]
    pause = None
    if args.trace == 0:
        # set-up is timed again at intervals through the batch, so that its
        # median rests on the machine's speed over the whole run rather than
        # on one moment of it
        interval = args.seconds / SETUP_SAMPLES
        last = time.perf_counter()

        def pause():
            nonlocal last
            if time.perf_counter() - last >= interval:
                times.append(harness.setup_sample(workload, raw))
                last = time.perf_counter()

    def make_jobs(state):
        # kinds are interleaved so that each one's latencies sample the
        # whole run rather than one stretch of it
        jobs = workload.jobs(program, cases, state)
        random.Random(args.seed).shuffle(jobs)
        return jobs

    jobs = make_jobs(state)
    gc.collect()
    batch = harness.run_batch(jobs, pause)
    failures = harness.check_batch(jobs, batch, expected)
    attempted = len(jobs)

    if args.trace == 0:
        times.append(harness.setup_sample(workload, raw))
        tail, pct, n = harness.tail_stat(batch.seconds)
        values = {
            "setup_s": statistics.median(times),
            "wall_s": batch.wall_s,
            "job_p50_s": statistics.median(batch.seconds),
            "job_tail_s": tail,
            "peak_rss_mb": harness.peak_rss_mib(),
        }
        units = END_TO_END
        print(f"# job_tail_s is p{pct:.1f} of {n} jobs ({harness.TAIL_BEYOND} beyond it)")
        print(f"# setup_s is the median of {len(times)} set-ups")
    else:
        state = workload.setup(raw)
        tracer = harness.Tracer()
        uninstall = harness.install_tracer(tracer)
        try:
            traced_jobs = make_jobs(state)
            gc.collect()
            traced = harness.run_batch(traced_jobs)
        finally:
            uninstall()
        failures += harness.check_batch(traced_jobs, traced, expected)
        attempted += len(traced_jobs)
        agg = tracer.aggregate()
        units = {name: unit for name, (unit, _) in harness.PER_LAYER.items()}
        values = {name: read(agg, tracer.counters) for name, (_, read) in harness.PER_LAYER.items()}
        units |= {"traced_wall_s": "s", "trace_overhead_frac": "ratio"}
        values["traced_wall_s"] = traced.wall_s
        values["trace_overhead_frac"] = traced.wall_s / batch.wall_s - 1
        for name, row in sorted(agg.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"# span {name}: calls={row['calls']} self_s={row['self_s']:.4f} "
                  f"total_s={row['total_s']:.4f}")
        spans = BENCH / "out" / f"spans-{workload.name}-seed{args.seed}.gz"
        tracer.write(spans)
        print(f"# spans written to {spans.relative_to(root) if spans.is_relative_to(root) else spans}")

    kinds: dict[str, list[float]] = {}
    for job, seconds in zip(jobs, batch.seconds):
        print(f"# job {job.case} {seconds:.4f}s")
        kinds.setdefault(job.kind, []).append(seconds)
    for kind, times_s in kinds.items():
        print(f"# kind {kind}: {len(times_s)} jobs, {sum(times_s):.3f}s")
    for reason in failures:
        print(f"# FAILED {reason}")
    failed_frac = len(failures) / attempted
    print(f"# failed_frac = {failed_frac:.4f} ({len(failures)} of {attempted} jobs)")
    for name, value in values.items():
        print(f"# {workload.name} {name} = {value:.6g} {units[name]}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

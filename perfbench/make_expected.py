"""Record the reference output digest of every pool case.

Run from the root of a checkout whose outputs are the reference (the
commit that defined the benchmark):

    python3 perfbench/make_expected.py [--part NAME ...]

It runs every case of every pool once, untraced, and writes the digests
into the named parts' sections of ``perfbench/expected.json``,
keeping the other sections.  A case whose
own verification fails is reported and the script exits 1.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
EXPECTED = BENCH / "expected.json"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--part", action="append")
    args = p.parse_args()
    sys.path.insert(0, str(Path.cwd() / "src"))

    import harness
    from workloads import PARTS, all_cases

    table = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    bad = 0
    for name in args.part or list(PARTS):
        part = PARTS[name]
        cases = all_cases(part.kinds)
        t0 = time.perf_counter()
        _, program, state = harness.timed_setup(part, part.prepare(cases))
        jobs = part.jobs(program, cases, state)
        batch = harness.run_batch(jobs)
        digests = {}
        for job, out, err in zip(jobs, batch.outputs, batch.errors):
            reason = err or (job.verify(out) if job.verify else None)
            if reason:
                print(f"{job.case}: {reason}", file=sys.stderr)
                bad += 1
                continue
            digests[job.case] = harness.digest(job.render(out))
        per_kind: dict[str, list[float]] = {}
        for job, seconds in zip(jobs, batch.seconds):
            per_kind.setdefault(job.kind, []).append(seconds)
        for kind, times in per_kind.items():
            times.sort()
            print(f"  {kind}: {len(times)} jobs, min {times[0]:.3f}s, "
                  f"median {times[len(times) // 2]:.3f}s, max {times[-1]:.3f}s")
        table[name] = dict(sorted(digests.items()))
        print(f"{name}: {len(digests)} cases in {time.perf_counter() - t0:.1f}s")
    EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

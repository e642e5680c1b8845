"""Recorded mutants: every differential test shows that it can fail.

Usage, from the root of the repository (standard library and pytest):

    python tests/mutants.py [NAME ...]

Each entry of ``MUTANTS`` is one edit to one file of ``src/rosefold``, an
``old`` string that must occur there exactly once and its ``new``
replacement, with the ids of the tests that must fail under it.  The
runner copies ``src`` to a temporary directory and first runs every
listed test against the unedited copy, all of which must pass.  Then,
per mutant, it applies the one edit to a fresh copy and runs only that
entry's tests, with ``PYTHONPATH`` naming the copy alone.  It exits 1
when an edit no longer applies or a mutant survives, that is when some
listed test passes under it.  A survivor is a test gap: fix the test,
do not drop the mutant.

This is mutation analysis (DeMillo, Lipton and Sayward, "Hints on test
data selection", 1978) narrowed to a curated list: at least one mutant
per oracle that guards a fast path, and one for each fast path added
since.  pytest does not collect this file (it matches no ``test_*.py``).
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # under src/rosefold
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, or prefixes of parametrized ones


CX = "tests/test_complexity.py"

MUTANTS = (
    # c1 and its tables: oracle_min_factor_tables, brute_force_c1,
    # exhaustive_cut_c1 and brute_force_max_factor_starting
    Mutant(
        "F reach one short",
        "complexity.py",
        "while p < q and p + maxstart[p] < q:",
        "while p < q and p + maxstart[p] <= q:",
        (f"{CX}::TestFactorTables::test_tables_match_oracle",),
    ),
    Mutant(
        "greedy cuts miss a last one-letter factor",
        "complexity.py",
        "    while pos < n:\n        cuts.append(pos)",
        "    while pos < n - 1:\n        cuts.append(pos)",
        (f"{CX}::TestC1::test_dp_matches_brute_force",),
    ),
    Mutant(
        "greedy first factor one letter short",
        "complexity.py",
        "    pos = maxstart[0]\n",
        "    pos = maxstart[0] - (maxstart[0] > 1)\n",
        (f"{CX}::TestC1::test_dp_matches_exhaustive_cuts",),
    ),
    Mutant(
        "relator powers joined without the separator",
        "complexity.py",
        "strsearch.SuffixAutomaton(strsearch.SEPARATOR.join(powers)[::-1])",
        'strsearch.SuffixAutomaton("".join(powers)[::-1])',
        (f"{CX}::TestFactorTables::test_max_factor_starting_matches_brute_force",),
    ),
    # the c2 ball's spans: _factor_spans against the uncapped enumeration,
    # and the ball against oracle_i_ball and oracle_complexity
    Mutant(
        "spans without the F[p] + G[p] = k test",
        "complexity.py",
        "        if f + g == k:\n            yield p, p + reach, f + 1",
        "        if True:\n            yield p, p + reach, f + 1",
        (f"{CX}::TestExactEdges::test_spans_match_uncapped_enumeration",),
    ),
    Mutant(
        "spans end one below the reach",
        "complexity.py",
        "            yield p, p + reach, f + 1\n",
        "            yield p, p + reach - 1, f + 1\n",
        (
            f"{CX}::TestExactEdges::test_spans_match_uncapped_enumeration",
            f"{CX}::TestFactorTables::test_tables_match_oracle",
        ),
    ),
    Mutant(
        "ball cap stops one word early",
        "complexity.py",
        "if len(seen) > self.thresholds.max_ball:",
        "if len(seen) >= self.thresholds.max_ball:",
        (f"{CX}::TestSharedBall::test_i_balls_match_oracle",),
    ),
    Mutant(
        "i-neighbours keep the protected factor",
        "complexity.py",
        "            if j != i:\n                out.setdefault(cand)",
        "            if j != i or j == 1:\n                out.setdefault(cand)",
        (f"{CX}::TestSharedBall::test_complexity_matches_oracle",),
    ),
    # library reports: the CLI payload digests
    Mutant(
        "fold digests write -1 as 1",
        "folding.py",
        "names = {i: str(i) for i in range(",
        "names = {i: str(abs(i)) for i in range(",
        ("tests/test_cli.py::test_payload_digests",),
    ),
    Mutant(
        "reduce payload swaps the pattern and the replacement",
        "complexity.py",
        '"pattern": str(self.pattern),\n            "replacement": str(self.replacement),',
        '"pattern": str(self.replacement),\n            "replacement": str(self.pattern),',
        ("tests/test_cli.py::test_payload_digests",),
    ),
    # letter codes
    Mutant(
        "a1 on the separator",
        "strsearch.py",
        "_BASE = 0 ",
        "_BASE = -2 ",
        (
            "tests/test_strsearch.py::TestCharCodes::test_tokens_past_the_letter_range",
            f"{CX}::TestFactorTables::test_max_factor_starting_matches_brute_force",
        ),
    ),
    # covers: brute_force_candidates and oracle_shortest_non_lifting_word
    Mutant(
        "shape automorphisms never reverse a group",
        "covers.py",
        "source_of[index[(min(pa, pb), max(pa, pb))]] = (k, pa > pb)",
        "source_of[index[(min(pa, pb), max(pa, pb))]] = (k, False)",
        ("tests/test_covers.py::TestEnumeration::test_counts_match_independent_dedup",),
    ),
    Mutant(
        "witness search one step short",
        "covers.py",
        "for _ in range(max_len - 2):",
        "for _ in range(max_len - 3):",
        ("tests/test_covers.py::TestBitmaskPowerSet::test_matches_frozenset_oracle_on_random_graphs",),
    ),
    # derived presentations: letterwise_build_relators and
    # rolling_hash_piece_report
    Mutant(
        "relator reduction pops a block that still has letters",
        "presentations.py",
        "                if top_lo < top_hi:\n                    break\n",
        "                if top_lo < top_hi - 1:\n                    break\n",
        ("tests/test_presentations.py::TestBuildRelators",),
    ),
    Mutant(
        "piece seeds need three distinct left letters",
        "presentations.py",
        "        if count < 2:\n            continue",
        "        if count < 3:\n            continue",
        ("tests/test_presentations.py::TestOnePassPieces",),
    ),
    # folding: oracle_fold_deferring
    Mutant(
        "lift test ignores the last generator",
        "folding.py",
        "for gen in range(1, self.graph.rank + 1)",
        "for gen in range(1, self.graph.rank)",
        ("tests/test_folding.py::TestDeferRoseOracle",),
    ),
    # graphs: oracle_canonical_key
    Mutant(
        "cell members ranked fewest edges first",
        "graphs.py",
        "ranked = sorted(zip(keys, members), key=itemgetter(0), reverse=True)",
        "ranked = sorted(zip(keys, members), key=itemgetter(0))",
        ("tests/test_graphs.py::TestCanonicalKeyOracle",),
    ),
)


def copy_src(into: Path) -> Path:
    shutil.copytree(ROOT / "src", into / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return into / "src"


def failed_ids(src: Path, tests: list[str], scratch: Path) -> tuple[set[str], subprocess.CompletedProcess]:
    """The ids pytest reports failed or in error, running ``tests`` on
    the package under ``src``, and the finished run; it runs in
    ``scratch`` so that nothing is written into the repository."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [
        sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
        "--rootdir", str(ROOT), "-c", str(ROOT / "pyproject.toml"),
        *(str(ROOT / t) for t in tests),
    ]
    proc = subprocess.run(cmd, cwd=scratch, env=env, capture_output=True, text=True)
    found = set()
    # pytest prints each id's file relative to its working directory
    for node in re.findall(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.M):
        path, _, rest = node.partition("::")
        found.add("::".join([(scratch / path).resolve().relative_to(ROOT).as_posix(), rest]))
    return found, proc


def covers(test: str, failed: set[str]) -> bool:
    """Does some failed id belong to the listed ``test`` (itself, one of
    its parametrizations, or a test inside the listed class)?"""
    return any(f == test or f.startswith((test + "[", test + "::")) for f in failed)


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    bad = 0
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="rosefold-mutants-") as tmp:
        tmp_path = Path(tmp)
        listed = sorted({t for m in chosen for t in m.tests})
        # every listed id must exist and pass on the unedited source
        _, proc = failed_ids(copy_src(tmp_path / "base"), listed, tmp_path)
        if proc.returncode != 0:
            print(proc.stdout)
            print("baseline: the listed tests do not all pass on the unedited source")
            return 1
        for n, m in enumerate(chosen):
            t0 = time.perf_counter()
            src = copy_src(tmp_path / f"m{n}")
            target = src / "rosefold" / m.path
            text = target.read_text()
            if text.count(m.old) != 1:
                print(f"STALE     {m.name}: the edit occurs {text.count(m.old)} times in {m.path}")
                bad += 1
                continue
            target.write_text(text.replace(m.old, m.new))
            failed, _ = failed_ids(src, list(m.tests), tmp_path)
            alive = [t for t in m.tests if not covers(t, failed)]
            status = "SURVIVED" if alive else "killed"
            print(f"{status:9} {m.name} ({time.perf_counter() - t0:.1f} s)")
            for t in alive:
                print(f"          passes: {t}")
            bad += bool(alive)
    print(f"{len(chosen) - bad} of {len(chosen)} mutants killed in {time.perf_counter() - start:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

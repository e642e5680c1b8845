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
        "min(f1 + 1, g1)",
        "min(f1, g1)",
        (f"{CX}::TestFactorTables::test_tables_match_oracle",),
    ),
    Mutant(
        "greedy cuts miss a last one-letter factor",
        "complexity.py",
        "    while pos < n:\n        pos += maxstart[pos]",
        "    while pos < n - 1:\n        pos += maxstart[pos]",
        (f"{CX}::TestC1::test_dp_matches_brute_force",),
    ),
    Mutant(
        "greedy first factor one letter short",
        "complexity.py",
        "        pos += maxstart[pos]\n",
        "        pos += maxstart[pos] - (pos == 0 and maxstart[0] > 1)\n",
        (f"{CX}::TestC1::test_dp_matches_exhaustive_cuts",),
    ),
    Mutant(
        "backward breakpoints bisect to the right",
        "complexity.py",
        "g = bisect_left(reach, back[-1], 0, back[-1])",
        'g = __import__("bisect").bisect_right(reach, back[-1], 0, back[-1])',
        (f"{CX}::TestFactorTables::test_tables_match_oracle",),
    ),
    Mutant(
        "relator powers joined without the separator",
        "complexity.py",
        "strsearch.SuffixAutomaton(strsearch.SEPARATOR.join(powers)[::-1])",
        'strsearch.SuffixAutomaton("".join(powers)[::-1])',
        (f"{CX}::TestFactorTables::test_max_factor_starting_matches_brute_force",),
    ),
    # the one automaton: a fresh index per word and the brute force
    Mutant(
        "automaton reused for a longer word",
        "complexity.py",
        "if n > self._served:",
        "if self._sam is None:",
        (
            f"{CX}::TestFactorTables::test_one_automaton_for_rising_and_falling_lengths",
            f"{CX}::TestFactorTables::test_a_longer_word_rebuilds_for_twice_its_length",
        ),
    ),
    Mutant(
        "relator powers one period short",
        "complexity.py",
        "(served // len(u) + 2)",
        "(served // len(u) + 1)",
        (
            f"{CX}::TestFactorTables::test_one_automaton_for_rising_and_falling_lengths",
            f"{CX}::TestFactorTables::test_a_longer_word_rebuilds_for_twice_its_length",
        ),
    ),
    # candidate tables: the window scan against a scan of the whole word
    Mutant(
        "splice window starts at the cut",
        "complexity.py",
        "x0 = bisect_left(node.reach, p)",
        "x0 = p",
        (f"{CX}::TestFactorTables::test_spliced_tables_match_a_full_scan",),
    ),
    Mutant(
        "splice window ends where the replacement does",
        "complexity.py",
        "end = mid + maxstart[q] if q < len(maxstart) else mid",
        "end = mid",
        (f"{CX}::TestFactorTables::test_spliced_tables_match_a_full_scan",),
    ),
    # the c2 ball's spans: _factor_starts against the uncapped enumeration,
    # and the ball against oracle_i_ball and oracle_complexity
    Mutant(
        "spans without the F[p] + G[p] = k test",
        "complexity.py",
        "range(max(f0 + 1, g0), min(f1 + 1, g1))",
        "range(f0 + 1, f1 + 1)",
        (f"{CX}::TestExactEdges::test_spans_match_uncapped_enumeration",),
    ),
    Mutant(
        "spans end one below the reach",
        "complexity.py",
        "q = node.reach[p]\n",
        "q = node.reach[p] - 1\n",
        (
            f"{CX}::TestExactEdges::test_root_neighbors_match_oracle_past_the_old_cap",
            f"{CX}::TestSharedBall::test_neighbors_match_oracle",
        ),
    ),
    # certificates: c2's reversal under inversion needs every rotation,
    # and the relator read twice is checked against oracle_certificates
    Mutant(
        "certificate scan stops at the first rotation",
        "complexity.py",
        "strsearch.all_occurrences(twice[: L + min(m, L) - 1], chars[:L]):",
        "strsearch.all_occurrences(twice[: L + min(m, L) - 1], chars[:L])[:1]:",
        (
            "tests/test_symmetry.py::TestComplexity::test_a_factor_at_two_rotations_offers_both_complements",
            f"{CX}::TestCertificates::test_scan_matches_oracle",
        ),
    ),
    Mutant(
        "certificate period check dropped",
        "complexity.py",
        "if m > L and chars[L:] != chars[: m - L]:",
        "if False:",
        (f"{CX}::TestCertificates::test_scan_matches_oracle",),
    ),
    Mutant(
        "certificate head not cut to the relator's length",
        "complexity.py",
        "min(m, L) - 1], chars[:L])",
        "min(m, L) - 1], chars)",
        (f"{CX}::TestCertificates::test_scan_matches_oracle",),
    ),
    Mutant(
        "certificate rotations run to the relator's length",
        "complexity.py",
        "twice[: L + min(m, L) - 1]",
        "twice[: L + min(m, L)]",
        (f"{CX}::TestCertificates::test_scan_matches_oracle",),
    ),
    Mutant(
        "ball cap stops one word early",
        "complexity.py",
        "if len(seen) > self.thresholds.max_ball:",
        "if len(seen) >= self.thresholds.max_ball:",
        (f"{CX}::TestSharedBall::test_i_balls_match_oracle",),
    ),
    Mutant(
        "i-ball keeps the protected factor",
        "complexity.py",
        "if j == i or neighbor in seen:",
        "if j == i != 1 or neighbor in seen:",
        (f"{CX}::TestSharedBall::test_complexity_matches_oracle",),
    ),
    Mutant(
        "i-ball follows the protected index",
        "complexity.py",
        "if j == i or neighbor in seen:",
        "if j != i or neighbor in seen:",
        (
            f"{CX}::TestSharedBall::test_complexity_matches_oracle",
            f"{CX}::TestSharedBall::test_i_balls_match_oracle",
        ),
    ),
    Mutant(
        "i-ball scores a seen word again",
        "complexity.py",
        "if j == i or neighbor in seen:",
        "if j == i:",
        (f"{CX}::TestSharedBall::test_a_repeated_candidate_is_scored_once",),
    ),
    Mutant(
        "ball root unchecked",
        "complexity.py",
        "[_Node(root, _check_covered(idx.max_factor_starting(root)))]",
        "[_Node(root, idx.max_factor_starting(root))]",
        (f"{CX}::TestSharedBall::test_uncovered_word",),
    ),
    # library reports and the config echo: the CLI payload digests
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
    Mutant(
        "config echo keeps the output format",
        "cli.py",
        'if name not in ("command", "func", "out", "format")',
        'if name not in ("command", "func", "out")',
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
    Mutant(
        "a clone state starts with no transitions",
        "strsearch.py",
        "nxt.append(nxt[q][:])",
        "nxt.append(empty[:])",
        (
            "tests/test_strsearch.py::TestStreamingMatch::test_repeat_lengths_against_brute_force",
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
    # least rotations: oracle_least_rotation
    Mutant(
        "the last block stops at the word's end",
        "words.py",
        "d[first + lo : first + n]",
        "d[first + lo : n]",
        ("tests/test_words.py::TestLeastRotation",),
    ),
    Mutant(
        "the scan keeps the greater candidate",
        "words.py",
        "if a > b:",
        "if a < b:",
        ("tests/test_words.py::TestLeastRotation",),
    ),
    # words: pinned cases from the census of words.py
    Mutant(
        "a rank-1 word rejected",
        "words.py",
        "if self.rank < 1:",
        "if self.rank <= 1:",
        ("tests/test_words.py::test_rank_one_word_accepted",),
    ),
    Mutant(
        "multiply exponent unchecked",
        "words.py",
        'if self.kind == "multiply" and self.exponent not in (1, -1):',
        'if self.kind != "multiply" and self.exponent not in (1, -1):',
        ("tests/test_words.py::TestNielsen::test_multiply_exponent_checked",),
    ),
    Mutant(
        "move index check needs both indices outside",
        "words.py",
        "if not (0 <= move.i < t.arity) or (",
        "if not (0 <= move.i < t.arity) and (",
        ("tests/test_words.py::TestNielsen::test_index_outside_arity[j=-1]",),
    ),
    Mutant(
        "move index check admits the arity",
        "words.py",
        "0 <= move.j < t.arity",
        "0 <= move.j <= t.arity",
        ("tests/test_words.py::TestNielsen::test_index_outside_arity[j=arity]",),
    ),
    Mutant(
        "random swaps draw an exponent",
        "words.py",
        'rng.choice((1, -1)) if kind == "multiply" else 1',
        'rng.choice((1, -1)) if kind != "multiply" else 1',
        ("tests/test_words.py::TestNielsen::test_random_moves_pinned",),
    ),
    Mutant(
        "least-rotation bisection never ends",
        "words.py",
        "while hi - lo > 1:",
        "while hi - lo >= 1:",
        ("tests/test_words.py::TestLeastRotation::test_fixed_cases",),
    ),
    # strsearch: pinned cases from its census
    Mutant(
        "prefix states one letter too long",
        "strsearch.py",
        "length.append(length[last] + 1)",
        "length.append(length[last] + 2)",
        ("tests/test_strsearch.py::TestLongestRepeated::test_state_lengths_are_longest_paths",),
    ),
    Mutant(
        "disjoint scan stays at a hit at the start",
        "strsearch.py",
        "chars.find(t, end) if 0 <= at < end else at",
        "chars.find(t, end) if 0 < at < end else at",
        ("tests/test_strsearch.py::TestScansAgainstOracles::test_disjoint_scan_moves_past_a_hit_at_the_start",),
    ),
    # word text through the token table: per_token_parse
    Mutant(
        "parsed words skip the reducedness test",
        "words.py",
        "if any(map(operator.eq, letters[1:], map(operator.neg, letters))):",
        "if False:",
        (
            "tests/test_words.py::TestTextFormat::test_unreduced_text_reduces",
            "tests/test_words.py::test_parse_matches_per_token_path",
        ),
    ),
    Mutant(
        "parsed letters checked above the rank only",
        "words.py",
        "spelled = -rank <= min(letters) and max(letters) <= rank",
        "spelled = max(letters) <= rank",
        (
            "tests/test_words.py::TestTextFormat::test_negative_letter_outside_rank",
            "tests/test_words.py::test_parse_matches_per_token_path",
        ),
    ),
    Mutant(
        "the token table holds letter 0",
        "words.py",
        "if not letter or format_letter(letter) != token:",
        "if format_letter(letter) != token:",
        ("tests/test_words.py::TestTextFormat::test_letter_zero_rejected[a0^-1]",),
    ),
    Mutant(
        "the token table holds other spellings",
        "words.py",
        "if not letter or format_letter(letter) != token:",
        "if not letter:",
        ("tests/test_words.py::TestTextFormat::test_other_spellings_read_token_by_token",),
    ),
    Mutant(
        "every word text read token by token",
        "words.py",
        "        spelled = -rank <= min(letters) and max(letters) <= rank\n",
        "        spelled = False\n",
        ("tests/test_words.py::TestTextFormat::test_spelled_words_skip_the_token_loop",),
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
    # derived presentations: pinned cases from the census of presentations.py
    Mutant(
        "relator reduction reads past a consumed block",
        "presentations.py",
        "while top_lo < top_hi and lo < hi and",
        "while top_lo < top_hi and lo <= hi and",
        ("tests/test_presentations.py::TestBuildRelators::test_consumed_blocks_by_hand",),
    ),
    Mutant(
        "trim keeps an empty common middle",
        "presentations.py",
        "if hi <= lo:",
        "if hi < lo:",
        ("tests/test_presentations.py::TestTrim::test_middles_meeting_in_an_empty_interval",),
    ),
    Mutant(
        "trim re-scan trusts the letters alone",
        "presentations.py",
        "0 <= start and 0 <= skip",
        "0 <= start or 0 <= skip",
        ("tests/test_presentations.py::TestTrim::test_span_before_the_relator_start_raises",),
    ),
    Mutant(
        "sampler counts a rejection twice",
        "presentations.py",
        "rejects += 1",
        "rejects += 2",
        ("tests/test_cli.py::TestPresentationCommands::test_build_presentation_counts_rejections",),
    ),
    Mutant(
        "lambda bound met at equality",
        "presentations.py",
        "return self.lambda_value < lam",
        "return self.lambda_value <= lam",
        ("tests/test_presentations.py::TestPieces::test_commutator_relator",),
    ),
    Mutant(
        "seed windows read past the text",
        "presentations.py",
        "range(1, L + 1)}",
        "range(1, L + 2)}",
        ("tests/test_presentations.py::TestSeedFilter::test_relators_of_exactly_the_seed_length",),
    ),
    Mutant(
        "seed windows stop before a text's last start",
        "presentations.py",
        "d[: L + seed - 1]",
        "d[: L + seed - 2]",
        ("tests/test_presentations.py::TestSeedFilter::test_window_at_a_text_s_last_start",),
    ),
    Mutant(
        "an empty relator passes the guard",
        "presentations.py",
        "if not relators or any(",
        "if not relators and any(",
        ("tests/test_presentations.py::TestPieces::test_empty_relator_rejected",),
    ),
    # a loop that never ends fails its test at the per-test time limit
    # (conftest.time_limit)
    Mutant(
        "common extension gallops at its cap",
        "presentations.py",
        "while lo < cap:",
        "while lo <= cap:",
        ("tests/test_presentations.py::TestOnePassPieces::test_seed_length_does_not_change_the_table[1]",),
    ),
    # folding: oracle_fold
    Mutant(
        "lift test ignores the last generator",
        "folding.py",
        "for gen in range(1, q.graph.rank + 1)",
        "for gen in range(1, q.graph.rank)",
        ("tests/test_folding.py::TestDeferRoseOracle",),
    ),
    Mutant(
        "fold heap drops the sign on push",
        "folding.py",
        "heapq.heappush(heap, sign * s)",
        "heapq.heappush(heap, s)",
        (
            "tests/test_folding.py::TestSortedOracle::test_random_wedges",
            "tests/test_folding.py::TestFoldOnce::test_greatest_folds_the_greatest_letter",
        ),
    ),
    Mutant(
        "lift-free check skips slots of two tokens",
        "folding.py",
        "len(toks) >= 2 and not _makes_lift",
        "len(toks) > 2 and not _makes_lift",
        ("tests/test_folding.py::TestDeferRoseOracle::test_lift_free_check_tests_every_fold_on_delta",),
    ),
    # folding: the witness of fold_to_delta, on pinned tuples
    Mutant(
        "witness pruning keeps only the dropped edge",
        "folding.py",
        "rest = [e for e in current if e != k]",
        "rest = [e for e in current if e == k]",
        ("tests/test_folding.py::TestFoldToDelta::test_pruning_drops_an_edge",),
    ),
    Mutant(
        "witness of rank + 2 edges refused",
        "folding.py",
        "if len(psi_ids) > n + 2:",
        "if len(psi_ids) >= n + 2:",
        ("tests/test_folding.py::TestFoldToDelta::test_witness_of_rank_plus_two_edges",),
    ),
    # graphs: rose lifts, against oracle_rose_lift_loops
    Mutant(
        "rose lift keeps the last loop of a generator",
        "graphs.py",
        "loops[src].setdefault(abs(label), k)",
        "loops[src][abs(label)] = k",
        (
            "tests/test_graphs.py::TestRoseLiftLoops",
            "tests/test_folding.py::TestFoldToDelta::test_degenerate_witness_takes_the_least_loops",
        ),
    ),
    # graphs: the fold step and the stage views' label groups, against
    # oracle_canonical_key, the plain replay and the sorted-candidate oracle
    Mutant(
        "stage groups rebuild the merged head only",
        "graphs.py",
        "for v in {t for group in groups[root] for t in group[3]} - {root}:",
        "for v in ():",
        ("tests/test_folding.py::TestStageKeys",),
    ),
    Mutant(
        "fold merges the removed edge's own ends",
        "graphs.py",
        "ends[kept], ends[removed]",
        "ends[-removed], ends[removed]",
        (
            "tests/test_folding.py::TestFoldAll::test_stages_match_stage",
            "tests/test_folding.py::TestFoldAll::test_engine_matches_naive_reference",
        ),
    ),
    # graphs: the quotient's slots, against bfs_components and the naive
    # fold reference
    Mutant(
        "union keeps only the longer token list where both roots have some",
        "graphs.py",
        "slots[s] += toks",
        "slots[s] = slots[s]",
        (
            "tests/test_graphs.py::TestCollapse::test_matches_bfs_oracle",
            "tests/test_folding.py::TestFoldAll::test_engine_matches_naive_reference",
        ),
    ),
    # graphs: the quotient names a class by its least vertex, and splices
    # the shorter token list into the longer
    Mutant(
        "union keeps the greater root",
        "graphs.py",
        "if rb < ra:",
        "if rb > ra:",
        ("tests/test_folding.py::TestFoldAll::test_every_root_is_its_class_least_vertex",),
    ),
    Mutant(
        "slot splice appends the absorbed list",
        "graphs.py",
        "if kept is None or len(kept) < len(toks):",
        "if kept is None:",
        ("tests/test_graphs.py::TestCollapse::test_splice_keeps_the_longer_token_list",),
    ),
    # graphs: oracle_canonical_key
    Mutant(
        "cell members ranked fewest edges first",
        "graphs.py",
        "ranked = sorted(zip(keys, members), key=itemgetter(0), reverse=True)",
        "ranked = sorted(zip(keys, members), key=itemgetter(0))",
        ("tests/test_graphs.py::TestCanonicalKeyOracle",),
    ),
    Mutant(
        "automorphism check spans families",
        "graphs.py",
        "for x in kept[n])",
        "for x in sum(kept, []))",
        ("tests/test_folding.py::TestStageKeys",),
    ),
)


def copy_src(into: Path) -> Path:
    shutil.copytree(ROOT / "src", into / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return into / "src"


def failed_ids(
    src: Path, tests: list[str], scratch: Path, first_failure: bool = False, timeout: float | None = None
) -> tuple[set[str], subprocess.CompletedProcess]:
    """The ids pytest reports failed or in error, running ``tests`` on
    the package under ``src``, and the finished run; it runs in
    ``scratch`` so that nothing is written into the repository.  With
    ``first_failure`` pytest stops at the first failure (``-x``); a run
    that outlives ``timeout`` seconds raises ``subprocess.TimeoutExpired``."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [
        sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
        *(["-x"] if first_failure else []),
        "--rootdir", str(ROOT), "-c", str(ROOT / "pyproject.toml"),
        *(str(ROOT / t) for t in tests),
    ]
    proc = subprocess.run(cmd, cwd=scratch, env=env, capture_output=True, text=True, timeout=timeout)
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

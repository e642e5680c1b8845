import itertools
import math
import random
from collections import Counter

import pytest

from conftest import candidate_graphs, has_sub_cover, rose
from test_strsearch import oracle_greedy_disjoint
from rosefold import strsearch
from rosefold.covers import lift_paths, shortest_non_lifting_word
from rosefold.genericity import (
    SampleConfig,
    StatsReport,
    alpha_injectivity,
    alpha_injectivity_experiment,
    disjoint_coverage_bidirectional,
    random_reduced_word,
    repeat_length_bound,
    repeated_subwords_at_least,
    wilson_interval,
    word_stats_experiment,
)
from rosefold.graphs import EdgePath
from rosefold.words import Word, parse_word


def w(text: str, rank: int = 2) -> Word:
    return parse_word(text, rank)


def brute_force_max_disjoint(s: Word, gamma: Word) -> int:
    """Exhaustive maximum over subsets of occurrence positions of gamma or
    its inverse; cross-check oracle for the greedy scan on short words."""
    positions = [
        p
        for p in range(len(s) - len(gamma) + 1)
        if s.letters[p : p + len(gamma)] in (gamma.letters, gamma.inverse().letters)
    ]
    best = 0

    def rec(idx: int, chosen_end: int, count: int) -> None:
        nonlocal best
        best = max(best, count)
        for i in range(idx, len(positions)):
            if positions[i] >= chosen_end:
                rec(i + 1, positions[i] + len(gamma), count + 1)

    rec(0, -1, 0)
    return best


class TestRandomReducedWord:
    def test_reduced_and_exact_length(self):
        cfg = SampleConfig(rank=3, length=50, samples=1, seed=9)
        for i in range(50):
            word = random_reduced_word(cfg, i)
            assert len(word) == 50
            assert Word(3, word.letters) == word

    @pytest.mark.parametrize("rank", [2, 3, 4])
    @pytest.mark.parametrize("length", [1, 2, 4096])
    def test_sampled_letters_pass_word_checks(self, rank, length):
        # the sampler builds its words without the letter checks
        for seed in range(20):
            word = random_reduced_word(SampleConfig(rank, length, 1, seed))
            assert Word(rank, word.letters) == word
            assert len(word) == length

    def test_single_letter_uniform(self):
        cfg = SampleConfig(rank=2, length=1, samples=1, seed=17)
        counts = Counter(
            random_reduced_word(cfg, i).letters[0] for i in range(20000)
        )
        # 3 sigma around 1/4 of 20000
        sigma = math.sqrt(20000 * 0.25 * 0.75)
        for letter in (1, -1, 2, -2):
            assert abs(counts[letter] - 5000) < 3 * sigma

    def test_length_two_uniform_over_twelve_words(self):
        cfg = SampleConfig(rank=2, length=2, samples=1, seed=23)
        counts = Counter(
            random_reduced_word(cfg, i).letters for i in range(24000)
        )
        assert len(counts) == 12  # 2n(2n-1) reduced words
        sigma = math.sqrt(24000 * (1 / 12) * (11 / 12))
        for value in counts.values():
            assert abs(value - 2000) < 4 * sigma

    def test_seeded_replay_identical(self):
        cfg = SampleConfig(rank=2, length=100, samples=1, seed=5)
        assert random_reduced_word(cfg, 3) == random_reduced_word(cfg, 3)


def longest_repeats(word: Word) -> tuple[int, int]:
    """The longest repeat without and with inverse occurrences, read off
    ``strsearch.repeat_lengths``, with the plain one also checked against
    ``SuffixAutomaton.longest_repeated``."""
    chars = strsearch.letters_to_chars(word.letters)
    plain, with_inv = strsearch.repeat_lengths(chars)
    assert plain == strsearch.SuffixAutomaton(chars).longest_repeated()
    return plain, with_inv


class TestLongestRepeatedSubword:
    def test_small_example(self):
        assert longest_repeats(w("a1 a2 a1 a2"))[1] == 2

    def test_injective_word(self):
        assert longest_repeats(w("a1 a2")) == (0, 0)

    def test_inverse_occurrence_counts_with_flag(self):
        # a1 a2 a1^-1: the subword a1 has an inverse occurrence
        plain, with_inv = longest_repeats(w("a1 a2 a2 a1^-1"))
        assert plain == 1
        assert with_inv >= 1

    def test_against_naive_scan(self):
        rng = random.Random(31)
        for _ in range(60):
            cfg = SampleConfig(rank=2, length=rng.randrange(2, 40), samples=1, seed=rng.randrange(1 << 20))
            word = random_reduced_word(cfg, 0)
            for flag, got in zip((False, True), longest_repeats(word)):
                naive = 0
                chars = strsearch.letters_to_chars(word.letters)
                inv = strsearch.inverse_chars(chars)
                for length in range(1, len(word) + 1):
                    seen = Counter(
                        chars[p : p + length]
                        for p in range(len(chars) - length + 1)
                    )
                    for sub, count in seen.items():
                        total = count
                        if flag:
                            total += len(strsearch.all_occurrences(inv, sub))
                        if total >= 2:
                            naive = max(naive, length)
                assert got == naive


class TestDisjointCoverage:
    def test_whole_word(self):
        assert disjoint_coverage_bidirectional(w("a1 a2"), w("a1 a2")) == 1.0

    def test_absent_pattern(self):
        assert disjoint_coverage_bidirectional(w("a1 a2"), w("a2 a1")) == 0.0

    def test_overlapping_occurrences(self):
        s = w("a1 a2 a1 a2 a1")
        gamma = w("a1 a2 a1")
        assert disjoint_coverage_bidirectional(s, gamma) == pytest.approx(3 / 5)
        assert brute_force_max_disjoint(s, gamma) == 1

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            disjoint_coverage_bidirectional(w("a1"), Word(2, ()))

    def test_greedy_equals_brute_force(self):
        rng = random.Random(77)
        for _ in range(300):
            n = rng.randrange(4, 25)
            cfg = SampleConfig(rank=2, length=n, samples=1, seed=rng.randrange(1 << 20))
            s = random_reduced_word(cfg, 0)
            glen = rng.randrange(1, 5)
            start = rng.randrange(0, n - glen + 1)
            gamma = s.subword(start, start + glen)
            greedy = len(strsearch.greedy_disjoint(s.letters, gamma.letters))
            assert greedy == brute_force_max_disjoint(s, gamma)

    def test_bidirectional_at_least_unidirectional(self):
        s = w("a1 a2 a1 a2")
        gamma = w("a1 a2")
        one_way = len(gamma) * len(oracle_greedy_disjoint(s.letters, gamma.letters)) / len(s)
        assert disjoint_coverage_bidirectional(s, gamma) >= one_way

    def test_disjoint_count_monotone_under_prefix_nesting(self):
        # the occurrence count is monotone under taking longer patterns;
        # the coverage ratio itself is not (a longer pattern with the same
        # count covers more), e.g. a1 in a1a2a1a2 covers 1/2 but a1a2
        # covers everything
        rng = random.Random(19)
        for _ in range(100):
            cfg = SampleConfig(rank=2, length=30, samples=1, seed=rng.randrange(1 << 20))
            s = random_reduced_word(cfg, 0)
            start = rng.randrange(0, 25)
            long_gamma = s.subword(start, start + 5)
            short_gamma = s.subword(start, start + 3)
            count = lambda g: len(strsearch.greedy_disjoint(s.letters, g.letters))
            assert count(short_gamma) >= count(long_gamma)
        s = w("a1 a2 a1 a2")
        assert disjoint_coverage_bidirectional(s, w("a1")) == 0.5
        assert disjoint_coverage_bidirectional(s, w("a1 a2")) == 1.0


class TestComplementaryDistribution:
    """Gaps between the greedy disjoint occurrences of a pattern."""

    def test_single_gap(self):
        s = w("a1 a2 a1 a1 a2")  # gamma a1 a2 at 0 and 3, gap a1 of length 1
        assert strsearch.greedy_disjoint(s.letters, w("a1 a2").letters) == [(0, 1), (3, 1)]

    def test_adjacent_occurrences_no_gap(self):
        s = w("a1 a2 a1 a2")
        assert strsearch.greedy_disjoint(s.letters, w("a1 a2").letters) == [(0, 1), (2, 1)]

    def test_mass_balance(self):
        rng = random.Random(13)
        for _ in range(100):
            cfg = SampleConfig(rank=2, length=60, samples=1, seed=rng.randrange(1 << 20))
            s = random_reduced_word(cfg, 0)
            gamma = s.subword(0, 2)
            positions = [pos for pos, _ in strsearch.greedy_disjoint(s.letters, gamma.letters)]
            gaps = [b - (a + len(gamma)) for a, b in zip(positions, positions[1:])]
            assert positions[0] == 0 and min(gaps, default=0) >= 0
            assert len(positions) * len(gamma) + sum(gaps) <= len(s)


class TestAlphaInjectivity:
    def test_simple_path(self):
        g = rose(2, base=None)
        assert alpha_injectivity(EdgePath(g, (1, 2), 0)) == 1.0

    def test_doubled_loop(self):
        g = rose(1, base=None)
        assert alpha_injectivity(EdgePath(g, (1, 1), 0)) == 0.5

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            alpha_injectivity(EdgePath(rose(2, base=None), (), 0))


class TestExperiments:
    def test_repeat_bound_value(self):
        assert repeat_length_bound(2, 4096) == 84
        assert repeat_length_bound(2, 4096) == math.ceil(
            11 / math.log(3) * math.log(4096)
        )

    def test_repeat_experiment_shape(self):
        cfg = SampleConfig(rank=2, length=64, samples=10, seed=3)
        report = word_stats_experiment(cfg, 0.05)
        assert [row["sample"] for row in report.rows] == list(range(10))
        frac = report.aggregate["within_bound"]["fraction"]
        assert 0.0 <= frac <= 1.0

    def test_eps_one_always_passes(self):
        # every repeated subword of length >= 2 is scanned, far below the
        # bound that gates the scan in the report
        cfg = SampleConfig(rank=2, length=64, samples=10, seed=3)
        scanned = 0
        for i in range(cfg.samples):
            word = random_reduced_word(cfg, i)
            for gamma in repeated_subwords_at_least(word, 2):
                assert disjoint_coverage_bidirectional(word, gamma) <= 1.0
                scanned += 1
        assert scanned > 0

    def test_tiny_control_run_well_formed(self):
        cfg = SampleConfig(rank=2, length=16, samples=5, seed=8)
        report = word_stats_experiment(cfg, 0.05)
        for row in report.rows:
            assert 0.0 <= row["max_coverage"] <= 1.0

    def test_repeated_subwords_scan_matches_flagged_lrs(self):
        rng = random.Random(4)
        for _ in range(40):
            cfg = SampleConfig(rank=2, length=48, samples=1, seed=rng.randrange(1 << 20))
            word = random_reduced_word(cfg, 0)
            top = longest_repeats(word)[1]
            if top == 0:
                continue
            found = repeated_subwords_at_least(word, top)
            assert any(len(g) == top for g in found)

    def test_repeated_subwords_match_scan_of_every_length(self):
        # the oracle scans every length up to |w| instead of stopping at
        # the first length with no repeat; periodic words repeat at most
        # lengths
        def oracle(word, min_len):
            chars = strsearch.letters_to_chars(word.letters)
            inv = strsearch.inverse_chars(chars)
            found = []
            for length in range(min_len, len(chars) + 1):
                windows = Counter(chars[p : p + length] for p in range(len(chars) - length + 1))
                found += [
                    sub
                    for sub, count in windows.items()
                    if count + len(strsearch.all_occurrences(inv, sub)) >= 2
                ]
            return [Word(word.rank, strsearch.chars_to_letters(sub)) for sub in found]

        rng = random.Random(6)
        checked = nonempty = 0
        for _ in range(150):
            cfg = SampleConfig(rank=2, length=rng.randrange(1, 40), samples=1, seed=rng.randrange(1 << 20))
            word = random_reduced_word(cfg, 0)
            if rng.random() < 0.4 and word.is_cyclically_reduced:
                word = Word(2, word.letters * rng.randrange(2, 4))
            for min_len in range(1, 7):
                found = repeated_subwords_at_least(word, min_len)
                assert found == oracle(word, min_len)
                checked += 1
                nonempty += bool(found)
        assert nonempty > 100 and checked - nonempty > 100

    def test_alpha_experiment_small(self):
        cfg = SampleConfig(rank=2, length=128, samples=8, seed=90)
        report = alpha_injectivity_experiment(cfg, max_edges=3)
        assert "alpha_ok" in report.aggregate
        for row in report.rows:
            if "min_alpha" in row:
                assert 0.0 < row["min_alpha"] <= 1.0


def oracle_alpha_injectivity_experiment(
    cfg: SampleConfig, alpha_target: float = 0.9, max_edges: int = 4
) -> StatsReport:
    """Differential oracle for ``alpha_injectivity_experiment``: the same
    loop with no witness filter and no power-set check, searching lifts
    from every start of every graph for every sample."""
    graphs = [g for g in candidate_graphs(cfg.rank, max_edges) if not has_sub_cover(g)]
    report = StatsReport(
        config={**cfg.__dict__, "alpha_target": alpha_target, "graphs": len(graphs)}
    )
    for i in range(cfg.samples):
        word = random_reduced_word(cfg, i)
        worst: float | None = None
        lift_count = 0
        for g in graphs:
            for start in range(g.num_vertices):
                for lift in itertools.islice(lift_paths(g, word, start), 16):
                    ratio = alpha_injectivity(lift)
                    lift_count += 1
                    if worst is None or ratio < worst:
                        worst = ratio
        row: dict = {"sample": i, "lifts": lift_count}
        if worst is not None:
            row["min_alpha"] = round(worst, 6)
            row["alpha_ok"] = worst >= alpha_target
        report.rows.append(row)
    report.aggregate = {
        "samples": len(report.rows),
        "lifting_samples": sum(1 for row in report.rows if "alpha_ok" in row),
    }
    report.finalize(["alpha_ok"])
    return report


def assert_alpha_matches_oracle(cfg: SampleConfig, max_edges: int = 4) -> StatsReport:
    ours = alpha_injectivity_experiment(cfg, max_edges=max_edges)
    oracle = oracle_alpha_injectivity_experiment(cfg, max_edges=max_edges)
    assert (ours.config, ours.rows, ours.aggregate) == (
        oracle.config,
        oracle.rows,
        oracle.aggregate,
    )
    return ours


class TestAlphaOracle:
    @pytest.mark.parametrize("length", [4, 5, 6, 8])
    def test_short_words_where_the_lift_cap_binds(self, length):
        cfg = SampleConfig(rank=2, length=length, samples=30, seed=length)
        assert_alpha_matches_oracle(cfg)
        # some graph has more than 16 lifts from one start, so the rows
        # depend on which 16 the lift search keeps
        graphs = [g for g in candidate_graphs(2, 4) if not has_sub_cover(g)]
        assert any(
            len(list(itertools.islice(lift_paths(g, random_reduced_word(cfg, i), start), 17))) > 16
            for i in range(cfg.samples)
            for g in graphs
            for start in range(g.num_vertices)
        )

    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_words_no_longer_than_a_witness(self, length):
        # at lengths 1 and 2 some graphs have no witness that short, so
        # only the power-set walk can skip them
        cfg = SampleConfig(rank=2, length=length, samples=20, seed=length)
        ours = assert_alpha_matches_oracle(cfg)
        assert ours.aggregate["lifting_samples"] == cfg.samples
        graphs = [g for g in candidate_graphs(2, 4) if not has_sub_cover(g)]
        missing = sum(shortest_non_lifting_word(g, length) is None for g in graphs)
        assert (missing > 0) == (length < 3)

    @pytest.mark.parametrize("length", [4, 8, 256])
    def test_rank_three(self, length):
        cfg = SampleConfig(rank=3, length=length, samples=20, seed=length)
        assert_alpha_matches_oracle(cfg, max_edges=3)

    def test_long_words_that_lift_nowhere(self):
        cfg = SampleConfig(rank=2, length=256, samples=12, seed=3)
        ours = assert_alpha_matches_oracle(cfg)
        assert all(row["lifts"] == 0 for row in ours.rows)

    def test_long_words_on_three_edge_graphs(self):
        cfg = SampleConfig(rank=2, length=256, samples=12, seed=4)
        ours = assert_alpha_matches_oracle(cfg, max_edges=3)
        assert all(row["lifts"] == 0 for row in ours.rows)


def test_wilson_interval_sane():
    lo, hi = wilson_interval(95, 100)
    assert 0.87 < lo < 0.95 < hi <= 1.0
    assert wilson_interval(0, 0) == (0.0, 1.0)

"""Uniform random reduced words and desk-scale sampling statistics:
repeated subwords, disjoint-occurrence coverage, and injectivity of
lifts.

All sampling is seeded and per-sample seeds are derived from the run
seed by index, so runs are reproducible and samples can be evaluated
independently in any order.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from . import strsearch
from .covers import (
    CandidateShape,
    enumerate_candidates,
    lift_paths,
    lifts_somewhere,
)
from .graphs import EdgePath, LabeledGraph
from .words import Word, _unchecked, random_reduced_letters

if TYPE_CHECKING:
    from concurrent.futures import Executor

_SEED_STRIDE = 0x9E3779B97F4A7C15
_WILSON_Z = 1.96  # two-sided 95 % normal quantile


def derived_seed(seed: int, index: int) -> int:
    return (seed * 6364136223846793005 + index * _SEED_STRIDE + 1) % (1 << 63)


@dataclass(frozen=True)
class SampleConfig:
    rank: int
    length: int
    samples: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rank < 2 or self.length < 1 or self.samples < 1:
            raise ValueError("need rank >= 2, length >= 1, samples >= 1")

    def sample_rng(self, index: int) -> random.Random:
        return random.Random(derived_seed(self.seed, index))


def random_reduced_word(cfg: SampleConfig, index: int = 0) -> Word:
    """Uniform over the 2n(2n-1)^(N-1) reduced words of length N.  The
    sampler only draws valid, reduced letters, so the word is built
    without the letter checks."""
    letters = random_reduced_letters(cfg.sample_rng(index), cfg.rank, cfg.length)
    return _unchecked(Word, rank=cfg.rank, letters=letters)


def repeated_subwords_at_least(w: Word, min_len: int) -> list[Word]:
    """All distinct subwords of length >= ``min_len`` occurring at two
    distinct positions, an occurrence of the inverse word counting too.
    Repeats are prefix-closed (a reduced word never equals its inverse),
    so the scan stops at the first length with none.  This window scan
    only pays when the repeat statistic reaches the bound, which is rare
    for generic samples."""
    chars = strsearch.letters_to_chars(w.letters)
    inv = strsearch.inverse_chars(chars)
    found: list[str] = []
    length = min_len
    while True:
        windows: dict[str, int] = {}
        for p in range(len(chars) - length + 1):
            sub = chars[p : p + length]
            windows[sub] = windows.get(sub, 0) + 1
        repeated = [
            sub
            for sub, count in windows.items()
            if count + len(strsearch.all_occurrences(inv, sub)) >= 2
        ]
        if not repeated:
            break
        found += repeated
        length += 1
    return [Word(w.rank, strsearch.chars_to_letters(s)) for s in found]


def disjoint_coverage_bidirectional(s: Word, gamma: Word) -> float:
    """|gamma| * (most pairwise disjoint occurrences) / |s|, where the
    collection may mix occurrences of gamma and of its inverse (the
    strictest reading of non-overlapping copies)."""
    if len(gamma) == 0:
        raise ValueError("gamma must be nonempty")
    if len(s) == 0:
        return 0.0
    return len(gamma) * len(strsearch.greedy_disjoint(s.letters, gamma.letters)) / len(s)


def alpha_injectivity(path: EdgePath) -> float:
    """Fraction of the path length covered by distinct topological edges."""
    if len(path) == 0:
        raise ValueError("alpha-injectivity needs a path of positive length")
    distinct = len({abs(tok) for tok in path.tokens})
    return distinct / len(path)


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    if trials == 0:
        return (0.0, 1.0)
    z = _WILSON_Z
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass
class StatsReport:
    """Per-sample metric rows plus aggregate pass fractions."""

    config: dict
    rows: list[dict] = field(default_factory=list)
    aggregate: dict = field(default_factory=dict)

    def finalize(self, predicates: Sequence[str]) -> None:
        """Add each predicate's pass fraction with its Wilson interval to
        the aggregate, over the rows that score it (a fraction over no
        rows is 1.0)."""
        for name in predicates:
            scored = [row[name] for row in self.rows if name in row]
            hits = sum(scored)
            lo, hi = wilson_interval(hits, len(scored))
            self.aggregate[name] = {
                "fraction": hits / len(scored) if scored else 1.0,
                "wilson_low": round(lo, 4),
                "wilson_high": round(hi, 4),
            }


def repeat_length_bound(rank: int, length: int) -> int:
    """ceil(C0 * ln N) with C0 = 11/ln(2n-1): the repeated-subword scale
    beyond which repeats are not expected in a random reduced word."""
    return math.ceil(11.0 / math.log(2 * rank - 1) * math.log(length))


def word_stats_row(cfg: SampleConfig, eps_target: float, index: int) -> dict:
    """One sample's longest repeat, without and with inverse occurrences,
    against the log-scale bound, and the worst disjoint coverage over the
    repeated subwords at or beyond the bound (zero when none reach it).
    The bound is 0 at N = 1, and subwords are scanned from length 1."""
    w = random_reduced_word(cfg, index)
    bound = repeat_length_bound(cfg.rank, cfg.length)
    plain, with_inv = strsearch.repeat_lengths(strsearch.letters_to_chars(w.letters))
    worst = 0.0
    scan_from = max(bound, 1)
    if with_inv >= scan_from:
        for gamma in repeated_subwords_at_least(w, scan_from):
            worst = max(worst, disjoint_coverage_bidirectional(w, gamma))
    return {
        "sample": index,
        "longest_repeat": plain,
        "longest_repeat_with_inverses": with_inv,
        "within_bound": with_inv <= bound,
        "max_coverage": worst,
        "within_eps": worst <= eps_target,
    }


def word_stats_experiment(
    cfg: SampleConfig, eps_target: float, pool: Executor | None = None
) -> StatsReport:
    """``word_stats_row`` for every sample in sample order, mapped through
    ``pool`` when one is given, with the pass fractions of both checks."""
    row = functools.partial(word_stats_row, cfg, eps_target)
    samples = range(cfg.samples)
    rows = list(pool.map(row, samples, chunksize=8) if pool else map(row, samples))
    bound = repeat_length_bound(cfg.rank, cfg.length)
    report = StatsReport({**cfg.__dict__, "bound": bound, "eps_target": eps_target}, rows)
    report.finalize(["within_bound", "within_eps"])
    return report


# a short word can have many lifts from one start; the cap bounds that search
_LIFTS_PER_START = 16


def alpha_injectivity_experiment(
    cfg: SampleConfig, alpha_target: float = 0.9, max_edges: int = 4
) -> StatsReport:
    """Over candidate graphs with no sub-cover of degree 1 or 2, measure
    the injectivity ratio of the first 16 lifts (``_LIFTS_PER_START``, in
    ``lift_paths`` order) from each start vertex of sampled reduced words;
    samples with no lift anywhere are recorded but not scored.

    The words that lift somewhere in a graph are closed under taking
    factors, so a sample lifts nowhere in a graph once it contains the
    graph's shortest non-lifting word (its witness, searched up to the
    sample length, since a longer one cannot be a factor).  The graphs are
    grouped by witness, and one substring scan per sample skips every
    graph of a group whose witness occurs in it; on the others a power-set
    walk (``lifts_somewhere``) still skips the per-start lift search where
    the sample lifts nowhere.  The sub-cover test and the witnesses read
    the candidates' masks (``CandidateShape``), and a group's graphs are
    built the first time a sample does not contain its witness.  The lift
    count and the least ratio do not depend on the order in which the
    graphs are visited."""
    by_witness: dict[str | None, list[tuple[CandidateShape, tuple]]] = {}
    for shape, blocks, masks in enumerate_candidates(cfg.rank, max_edges):
        if shape.sub_cover(blocks, masks):
            continue
        witness = shape.witness(blocks, masks, cfg.length)
        key = strsearch.letters_to_chars(witness) if witness else None
        by_witness.setdefault(key, []).append((shape, blocks))
    graph_count = sum(map(len, by_witness.values()))
    report = StatsReport(
        config={**cfg.__dict__, "alpha_target": alpha_target, "graphs": graph_count}
    )
    built: dict[str | None, list[LabeledGraph]] = {}
    for i in range(cfg.samples):
        w = random_reduced_word(cfg, i)
        chars = strsearch.letters_to_chars(w.letters)
        worst: float | None = None
        lift_count = 0
        for witness, members in by_witness.items():
            if witness is not None and witness in chars:
                continue
            graphs = built.get(witness)
            if graphs is None:
                graphs = built[witness] = [shape.graph(blocks) for shape, blocks in members]
            for g in graphs:
                if not lifts_somewhere(g, w):
                    continue
                for start in range(g.num_vertices):
                    for lift in itertools.islice(lift_paths(g, w, start), _LIFTS_PER_START):
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

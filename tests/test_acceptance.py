"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s -v`` to
see them live) and enforces its stated tolerance and time budget.
"""

import math
import random
import statistics
import time

from conftest import random_cyclically_reduced, random_graph, random_subgraph
from rosefold.complexity import Thresholds, UWordIndex, brute_force_c1, c1, reduction_move
from rosefold.covers import survey_two_cover_characterization
from rosefold.folding import fold_all, wedge_of_loops
from rosefold.genericity import SampleConfig, repeat_length_bound, word_stats_experiment
from rosefold.graphs import betti, collapse, is_rose, isomorphic_labeled, subgraph_as_graph
from rosefold.presentations import build_relators, piece_report
from rosefold.surgery import surgery_demo
from rosefold.words import (
    GenTuple,
    Word,
    apply_nielsen,
    commutator_class,
    random_nielsen_moves,
    random_reduced_letters,
    standard_tuple,
)

SEED = 20260808


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:2d} {'PASS' if ok else 'FAIL'}: {detail}")


def test_01_betti_additivity():
    t0 = time.monotonic()
    rng = random.Random(SEED)
    for _ in range(1000):
        g = random_graph(rng, rank=2)
        sub = random_subgraph(rng, g)
        assert betti(g) == betti(subgraph_as_graph(g, sub)) + betti(collapse(g, sub))
    elapsed = time.monotonic() - t0
    report(1, True, f"betti additivity exact on 1000 pairs ({elapsed:.1f}s)")
    assert elapsed < 5


def test_02_nielsen_commutator_invariant():
    t0 = time.monotonic()
    rng = random.Random(SEED + 1)
    for _ in range(200):
        g1 = Word(3, random_reduced_letters(rng, 3, rng.randrange(1, 7)))
        g2 = Word(3, random_reduced_letters(rng, 3, rng.randrange(1, 7)))
        reference = commutator_class(g1, g2)
        t = GenTuple(3, (g1, g2))
        for move in random_nielsen_moves(rng, 2, rng.randrange(1, 51)):
            t = apply_nielsen(t, move)
        assert commutator_class(t.entries[0], t.entries[1]) == reference
    elapsed = time.monotonic() - t0
    report(2, True, f"commutator class preserved on 200 move sequences ({elapsed:.1f}s)")
    assert elapsed < 5


def _proper_factor_tuple(rng: random.Random, rank: int) -> GenTuple:
    entries = []
    for _ in range(2 * rank - 1):
        length = rng.randrange(0, 7)
        letters = []
        prev = 0
        for _ in range(length):
            pool = [s * g for g in range(1, rank) for s in (1, -1) if s * g != -prev]
            prev = rng.choice(pool)
            letters.append(prev)
        entries.append(Word(rank, tuple(letters)))
    if all(len(e) == 0 for e in entries):
        entries[0] = Word(rank, (1,))
    return GenTuple(rank, tuple(entries))


def test_03_fold_confluence_and_basis_detection():
    t0 = time.monotonic()
    rng = random.Random(SEED + 2)
    for rank in (2, 3):
        for _ in range(250):
            t = standard_tuple(rank, 2 * rank - 1)
            for move in random_nielsen_moves(rng, t.arity, 40):
                t = apply_nielsen(t, move)
            g = wedge_of_loops(t)
            a = fold_all(g, "least")
            b = fold_all(g, "greatest")
            assert is_rose(a.terminal) and is_rose(b.terminal)
            assert isomorphic_labeled(a.terminal, b.terminal)
    for rank in (2, 3):
        for _ in range(250):
            t = _proper_factor_tuple(rng, rank)
            assert not is_rose(fold_all(wedge_of_loops(t)).terminal)
    elapsed = time.monotonic() - t0
    report(3, True, f"500 basis wedges fold to the rose under both policies, "
                    f"500 proper-factor wedges do not ({elapsed:.1f}s)")
    assert elapsed < 60


def test_04_cover_characterization_survey():
    t0 = time.monotonic()
    rep = survey_two_cover_characterization(rank=2, max_edges=6, max_path_len=14)
    elapsed = time.monotonic() - t0
    ok = rep.violations == []
    covered = rep.with_rose_lift + rep.two_sheeted_covers + rep.witnessed
    report(
        4,
        ok,
        f"{rep.total_candidates} candidates, {rep.two_sheeted_covers} two-sheeted "
        f"covers, max witness length {rep.max_witness_length}, "
        f"{len(rep.violations)} violations ({elapsed:.1f}s)",
    )
    assert ok
    assert covered == rep.total_candidates
    assert (
        rep.total_candidates,
        rep.with_rose_lift,
        rep.two_sheeted_covers,
        rep.witnessed,
        rep.max_witness_length,
    ) == (47984, 677, 3, 47304, 5)
    assert elapsed < 600


def test_05_repeated_subword_statistics():
    t0 = time.monotonic()
    cfg = SampleConfig(rank=2, length=4096, samples=200, seed=SEED)
    bound = repeat_length_bound(2, 4096)
    assert bound == 84 == math.ceil(11 / math.log(3) * math.log(4096))
    rep = word_stats_experiment(cfg, eps_target=0.05)
    assert rep.config["bound"] == bound
    frac = rep.aggregate["within_bound"]["fraction"]
    elapsed = time.monotonic() - t0
    report(5, frac >= 0.95, f"repeat length <= {bound} in {frac:.3f} of 200 samples ({elapsed:.1f}s)")
    assert frac >= 0.95
    assert elapsed < 60


def test_06_disjoint_coverage_statistics():
    t0 = time.monotonic()
    cfg = SampleConfig(rank=2, length=4096, samples=200, seed=SEED)
    rep = word_stats_experiment(cfg, eps_target=0.05)
    assert rep.config["bound"] == 84
    frac = rep.aggregate["within_eps"]["fraction"]
    elapsed = time.monotonic() - t0
    report(6, frac >= 0.95, f"coverage <= 0.05 in {frac:.3f} of 200 samples ({elapsed:.1f}s)")
    assert frac >= 0.95
    assert elapsed < 120


def small_cancellation_sample(length: int):
    """Rank-2 derived presentations from 50 seeded pairs of word families
    of word length ``length``; returns the non-degenerate sample count,
    the counts passing the size clause, the lambda clause and both, and
    the lambda values."""
    rng = random.Random(SEED)
    n = 2
    samples = size_ok = lambda_ok = both_ok = 0
    lambdas = []
    for _ in range(50):
        v = [Word(n, random_reduced_letters(rng, n, length)) for _ in range(n)]
        u = [Word(n, random_reduced_letters(rng, n, length)) for _ in range(n)]
        p = build_relators(v, u)
        if p.degenerate:
            continue
        samples += 1
        size = all(len(r) >= 0.95 * length * length for r in p.relator_words)
        lam_value = piece_report(p.relators).lambda_value
        lambdas.append(lam_value)
        lam = lam_value < 1 / 8
        size_ok += size
        lambda_ok += lam
        both_ok += size and lam
    return samples, size_ok, lambda_ok, both_ok, lambdas


def test_07_small_cancellation_genericity():
    # Small cancellation is generic: it holds with probability tending to
    # 1 as N grows, not at every fixed N.  A derived relator has length
    # about N^2, and its longest piece is within one block of k * N, where
    # k is the longest word occurring at two distinct cyclic sites of the
    # u-words and their inverses (k shared u-letters substitute to k
    # shared v-blocks).  k grows like log N, so pieces grow like N log N
    # and lambda ~ k / N falls to 0.  lambda < 1/8 needs k < N / 8: at
    # N = 60 that is k <= 7, while k runs from 6 to 12 (median 8) over
    # these samples, so the clause holds in only about a third of them;
    # at N = 120 it needs k <= 14 and holds in every sample.  The
    # criterion is therefore asserted at N = 120; N = 60 is reported
    # alongside, and the median lambda must fall from N = 60 to N = 120.
    t0 = time.monotonic()
    _, size_60, lambda_60, _, lambdas_60 = small_cancellation_sample(60)
    samples, size_ok, lambda_ok, both_ok, lambdas = small_cancellation_sample(120)
    frac = both_ok / samples
    median_60, median_120 = statistics.median(lambdas_60), statistics.median(lambdas)
    elapsed = time.monotonic() - t0
    report(
        7,
        frac >= 0.9 and median_120 < median_60,
        f"N=120: size>=0.95N^2 in {size_ok}/{samples}, lambda<1/8 in {lambda_ok}/{samples}, "
        f"conjunction {frac:.2f} vs required 0.90; "
        f"N=60: size in {size_60}/{len(lambdas_60)}, lambda in {lambda_60}/{len(lambdas_60)}; "
        f"median lambda {median_60:.3f} at N=60, {median_120:.3f} at N=120 ({elapsed:.1f}s)",
    )
    assert elapsed < 60
    assert frac >= 0.9, (
        "lambda < 1/8 fails too often at N=120: pieces should be about k * N "
        "with k the longest repeat among the u-words (k ~ log N), so "
        "lambda ~ k / N is well below 1/8 here"
    )
    assert median_120 < median_60, "lambda does not fall as N grows"


def test_08_c1_oracle_equivalence():
    t0 = time.monotonic()
    rng = random.Random(SEED + 3)
    idx = UWordIndex(
        [random_cyclically_reduced(rng, 2, 16), random_cyclically_reduced(rng, 2, 24)]
    )
    for i in range(10000):
        length = 1 + (i % 40)
        w = Word(2, random_reduced_letters(rng, 2, length))
        assert c1(w, idx)[0] == brute_force_c1(w, idx)
    elapsed = time.monotonic() - t0
    report(8, True, f"segmentation DP equals exhaustive oracle on 10000 words ({elapsed:.1f}s)")
    assert elapsed < 120


def _reduction_index(rng: random.Random) -> UWordIndex:
    return UWordIndex(
        [random_cyclically_reduced(rng, 2, 60), random_cyclically_reduced(rng, 2, 60)]
    )


def test_09_reduction_move_monotonicity():
    t0 = time.monotonic()
    rng = random.Random(SEED + 4)
    idx = _reduction_index(rng)
    th = Thresholds(long_factor_fraction=0.3, zero_fraction=0.85)
    pat_len = 18

    # strict decrease: the pattern occurrence sits inside a planted
    # relator block of length >= 0.9 * |U|
    strict = 0
    while strict < 100:
        rel_i = rng.randrange(2)
        off = rng.randrange(60)
        base = idx.relators[rel_i].letters
        rot = base[off:] + base[:off]
        planted = rot[:55]
        i0 = rng.randrange(5, 55 - pat_len - 5)
        pattern = Word(2, planted[i0 : i0 + pat_len])
        cert = next(
            c
            for c in idx.certificates(pattern)
            if c.relator == rel_i and c.sign == 1 and c.rotation == (off + i0) % 60
        )
        replacement = idx.u_complement(pattern, cert)
        head = random_reduced_letters(rng, 2, 5)
        tail = random_reduced_letters(rng, 2, 5)
        letters = head + planted + tail
        if any(a == -b for a, b in zip(letters, letters[1:])):
            continue
        out = reduction_move(
            Word(2, letters), pattern, replacement, idx, [(5 + i0, 1)], th, depth=0
        )
        assert out.relation == "decreased"
        strict += 1

    # unconstrained: planted occurrences in mixed filler never increase
    unconstrained = 0
    while unconstrained < 1000:
        for _ in range(50):
            rel_i = rng.randrange(2)
            sign = rng.choice((1, -1))
            off = rng.randrange(60)
            base = idx.relators[rel_i] if sign > 0 else idx.relators[rel_i].inverse()
            rot = base.letters[off:] + base.letters[:off]
            pattern = Word(2, rot[:pat_len])
            if len(idx.certificates(pattern)) == 1:
                break
        replacement = idx.u_complement(pattern, idx.certificates(pattern)[0])
        cur: list[int] = []

        def add_filler():
            if rng.random() < 0.5:
                n = rng.randrange(0, 25)
                if n:
                    cur.extend(random_reduced_letters(rng, 2, n))
            else:
                r2 = rng.randrange(2)
                s2 = rng.choice((1, -1))
                o2 = rng.randrange(60)
                b2 = idx.relators[r2] if s2 > 0 else idx.relators[r2].inverse()
                cur.extend((b2.letters * 2)[o2 : o2 + rng.randrange(5, 30)])

        add_filler()
        occurrences = []
        for _ in range(rng.randrange(3)):
            eps = rng.choice((1, -1))
            chunk = pattern.letters if eps > 0 else pattern.inverse().letters
            guard = 0
            while cur and cur[-1] == -chunk[0] and guard < 30:
                cur.pop()
                guard += 1
            occurrences.append((len(cur), eps))
            cur.extend(chunk)
            add_filler()
        letters = tuple(cur)
        if not letters or any(a == -b for a, b in zip(letters, letters[1:])):
            continue
        w = Word(2, letters)
        if any(
            w.letters[pos : pos + pat_len]
            != (pattern.letters if eps > 0 else pattern.inverse().letters)
            for pos, eps in occurrences
        ):
            continue
        out = reduction_move(w, pattern, replacement, idx, occurrences, th, depth=0)
        assert out.relation in ("decreased", "equal")
        unconstrained += 1

    elapsed = time.monotonic() - t0
    report(
        9,
        True,
        f"100 planted instances strictly decrease, 1000 unconstrained never "
        f"increase, at depth 0 ({elapsed:.1f}s)",
    )
    assert elapsed < 120


def test_10_surgery_pipeline():
    t0 = time.monotonic()
    rep = surgery_demo(rank=2, relator_length=40, seed=7)
    elapsed = time.monotonic() - t0
    ok = rep.refolds_to_rose and rep.delta_after_refolds and rep.strictly_smaller
    report(
        10,
        ok,
        f"rebuilt wedge folds to the rose, witness kept, tuple complexity "
        f"{[tuple(c.values())[:2] for c in rep.complexity_before]} -> "
        f"{[tuple(c.values())[:2] for c in rep.complexity_after]} ({elapsed:.1f}s)",
    )
    assert ok
    assert elapsed < 60

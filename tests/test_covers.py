import itertools
import random

import pytest

from conftest import is_core_graph, rose, two_sheeted_cover
from test_graphs import maximal_arc_count
from rosefold.covers import (
    _letters,
    _unlabeled_shapes,
    enumerate_candidates,
    has_sub_cover,
    is_two_sheeted_cover,
    letter_rows,
    lift_paths,
    lifts_somewhere,
    shortest_non_lifting_word,
    survey_two_cover_characterization,
)
from rosefold.graphs import (
    LabeledGraph,
    betti,
    canonical_key,
    is_connected,
)
from rosefold.words import Word, parse_word, random_reduced_letters


def w(text: str, rank: int = 2) -> Word:
    return parse_word(text, rank)


def is_path_surjective_up_to(g: LabeledGraph, max_len: int) -> tuple[bool, Word | None]:
    """True when every reduced word of length <= max_len lifts somewhere in
    ``g``; on failure also returns a shortest non-lifting word."""
    witness = shortest_non_lifting_word(g, max_len)
    return (witness is None, witness)


def all_two_sheeted_covers(rank: int) -> list[LabeledGraph]:
    covers = []
    for r in range(rank):
        for combo in itertools.combinations(range(1, rank + 1), r):
            covers.append(two_sheeted_cover(rank, frozenset(combo)))
    return covers


class TestLiftPaths:
    def test_unique_lift_in_rose(self):
        lifts = lift_paths(rose(2), w("a1 a2"), 0)
        assert len(lifts) == 1
        assert tuple(map(rose(2).letter, lifts[0].tokens)) == w("a1 a2").letters

    def test_cover_lifts_uniquely_everywhere(self):
        rng = random.Random(2)
        for cover in all_two_sheeted_covers(2):
            for _ in range(20):
                word = Word(2, random_reduced_letters(rng, 2, 12))
                for start in range(cover.num_vertices):
                    assert len(lift_paths(cover, word, start)) == 1

    def test_missing_label_no_lift(self):
        g = LabeledGraph(2, 1, ((0, 0, 2),))
        assert lift_paths(g, w("a1"), 0) == []


class TestPathSurjectivity:
    def test_covers_pass_any_bound(self):
        for cover in all_two_sheeted_covers(3):
            ok, witness = is_path_surjective_up_to(cover, 12)
            assert ok and witness is None

    def test_missing_generator_witness(self):
        g = LabeledGraph(2, 1, ((0, 0, 1),))
        ok, witness = is_path_surjective_up_to(g, 1)
        assert not ok
        assert witness == w("a2")

    def test_witness_is_shortest_and_least(self):
        # a 2-cycle reading only a1 in both directions: a1 a1 is readable,
        # a2 is not, so the least witness has length 1
        g = LabeledGraph(2, 2, ((0, 1, 1), (1, 0, 1)))
        witness = shortest_non_lifting_word(g, 6)
        assert witness == w("a2")

    def test_bounded_search_matches_exhaustive_oracle(self):
        # enumerate every reduced word up to the bound and try to lift it
        # anywhere; compare with the power-set search verdict
        def all_reduced_words(rank, max_len):
            frontier = [()]
            for _ in range(max_len):
                nxt = []
                for word in frontier:
                    for gen in range(1, rank + 1):
                        for letter in (gen, -gen):
                            if word and word[-1] == -letter:
                                continue
                            nxt.append(word + (letter,))
                yield from nxt
                frontier = nxt

        for g in itertools.islice(enumerate_candidates(2, 3), 40):
            ok, witness = is_path_surjective_up_to(g, 5)
            oracle_fail = None
            for letters in all_reduced_words(2, 5):
                word = Word(2, letters)
                if not any(
                    lift_paths(g, word, start, max_lifts=1)
                    for start in range(g.num_vertices)
                ):
                    oracle_fail = word
                    break
            assert ok == (oracle_fail is None)
            # scan orders agree, so the witness is the same word exactly
            assert witness == oracle_fail

    def test_witness_never_lifts(self):
        rng = random.Random(5)
        count = 0
        for g in itertools.islice(enumerate_candidates(2, 4), 200):
            witness = shortest_non_lifting_word(g, 10)
            if witness is None:
                continue
            count += 1
            for start in range(g.num_vertices):
                assert lift_paths(g, witness, start) == []
            # all proper prefixes lift somewhere
            prefix = witness.subword(0, len(witness) - 1)
            if len(prefix):
                assert any(
                    lift_paths(g, prefix, start) for start in range(g.num_vertices)
                )
        assert count > 50


def oracle_shortest_non_lifting_word(g: LabeledGraph, max_len: int) -> Word | None:
    """Differential oracle for ``shortest_non_lifting_word``: the same
    breadth-first search over (vertex set, last letter) states, with each
    vertex set a frozenset built from a per-(vertex, letter) target map."""
    full = frozenset(range(g.num_vertices))
    seen: set[tuple[frozenset[int], int]] = set()
    frontier: list[tuple[frozenset[int], int, tuple[int, ...]]] = [(full, 0, ())]
    letters = _letters(g.rank)
    step: dict[tuple[int, int], frozenset[int]] = {}
    for v in range(g.num_vertices):
        for lab, tgt, _ in g.adjacency[v]:
            key = (v, lab)
            step[key] = step.get(key, frozenset()) | {tgt}
    for _ in range(max_len):
        next_frontier: list[tuple[frozenset[int], int, tuple[int, ...]]] = []
        for subset, last, word in frontier:
            for letter in letters:
                if last == -letter:
                    continue
                image = frozenset().union(
                    *(step.get((v, letter), frozenset()) for v in subset)
                )
                if not image:
                    return Word(g.rank, word + (letter,))
                state = (image, letter)
                if state in seen:
                    continue
                seen.add(state)
                next_frontier.append((image, letter, word + (letter,)))
        frontier = next_frontier
        if not frontier:
            break
    return None


def random_labeled_graph(rng: random.Random, rank: int) -> LabeledGraph:
    """Up to six vertices and eight edges drawn independently, so isolated
    vertices, parallel edges and loops all occur."""
    nv = rng.randrange(1, 7)
    edges = tuple(
        (rng.randrange(nv), rng.randrange(nv), rng.choice(_letters(rank)))
        for _ in range(rng.randrange(0, 9))
    )
    return LabeledGraph(rank, nv, edges)


class TestBitmaskPowerSet:
    @pytest.mark.parametrize("rank,max_edges", [(2, 5), (3, 4)])
    def test_matches_frozenset_oracle_on_survey_candidates(self, rank, max_edges):
        checked = 0
        for g in enumerate_candidates(rank, max_edges):
            if g.has_rose_lift():
                continue
            checked += 1
            # the witness itself, not just the verdict
            assert shortest_non_lifting_word(g, 14) == oracle_shortest_non_lifting_word(g, 14)
        assert checked > 2000

    def test_matches_frozenset_oracle_on_random_graphs(self):
        rng = random.Random(10)
        kinds = {"isolated": 0, "parallel": 0, "loop": 0, "none": 0}
        for _ in range(400):
            rank = rng.choice((2, 3))
            g = random_labeled_graph(rng, rank)
            touched = {v for s, d, _ in g.edges for v in (s, d)}
            kinds["isolated"] += len(touched) < g.num_vertices
            kinds["parallel"] += len({(s, d) for s, d, _ in g.edges}) < g.num_edges
            kinds["loop"] += any(s == d for s, d, _ in g.edges)
            for max_len in range(7):
                ours = shortest_non_lifting_word(g, max_len)
                assert ours == oracle_shortest_non_lifting_word(g, max_len)
                kinds["none"] += ours is None
        assert min(kinds.values()) > 20, kinds

    def test_rows_read_every_oriented_edge(self):
        g = LabeledGraph(2, 3, ((0, 1, 1), (0, 1, 1), (2, 2, -2), (1, 0, 2)))
        rows = letter_rows(g)
        assert sorted(rows) == [-2, -1, 1, 2]
        for letter, row in rows.items():
            for v in range(g.num_vertices):
                targets = {tgt for lab, tgt, _ in g.adjacency[v] if lab == letter}
                assert row[v] == sum(1 << t for t in targets)

    def test_lifts_somewhere_matches_lift_paths(self):
        rng = random.Random(11)
        for _ in range(300):
            g = random_labeled_graph(rng, 2)
            rows = letter_rows(g)
            word = Word(2, random_reduced_letters(rng, 2, rng.randrange(0, 7)))
            expected = any(
                lift_paths(g, word, start, max_lifts=1)
                for start in range(g.num_vertices)
            )
            assert lifts_somewhere(rows, g.num_vertices, word) == expected


class TestTwoSheetedCovers:
    def test_constructed_covers_recognized(self):
        for rank in (2, 3):
            for cover in all_two_sheeted_covers(rank):
                assert is_two_sheeted_cover(cover)

    def test_rose_is_not(self):
        assert not is_two_sheeted_cover(rose(2, base=None))

    def test_all_loops_pattern_rejected(self):
        g = LabeledGraph(
            2, 2, ((0, 0, 1), (0, 0, 2), (1, 1, 1), (1, 1, 2))
        )
        assert not is_two_sheeted_cover(g)

    def test_euler_counts(self):
        for rank in (2, 3):
            for cover in all_two_sheeted_covers(rank):
                assert cover.num_vertices == 2
                assert cover.num_edges == 2 * rank
                assert betti(cover) == 2 * rank - 1

    def test_cover_count(self):
        assert len(all_two_sheeted_covers(2)) == 3
        assert len(all_two_sheeted_covers(3)) == 7

    def test_cover_implies_path_surjective(self):
        for cover in all_two_sheeted_covers(2):
            for bound in (4, 8, 12):
                assert is_path_surjective_up_to(cover, bound)[0]

    def test_local_bijectivity_oracle(self):
        # independent characterization: V=2, connected, and exactly one
        # out-edge per letter at each vertex
        def local(g):
            if g.num_vertices != 2 or not is_connected(g):
                return False
            for v in range(2):
                letters = [lab for lab, _, _ in g.adjacency[v]]
                expected = sorted(
                    s * gen for gen in range(1, g.rank + 1) for s in (1, -1)
                )
                if sorted(letters) != expected:
                    return False
            return True

        for g in itertools.islice(enumerate_candidates(2, 5), 500):
            assert is_two_sheeted_cover(g) == local(g)


def canonical_key_candidates(rank: int, max_edges: int) -> list[LabeledGraph]:
    """Differential oracle for ``enumerate_candidates``: every label
    assignment on every shape in ``itertools.product`` order, keeping the
    first graph of each ``canonical_key`` class."""
    emitted: set[tuple] = set()
    out = []
    for nv, pairs in _unlabeled_shapes(max_edges, 2 * rank - 1):
        label_choices = [
            list(range(1, rank + 1))
            if a == b
            else [g for gen in range(1, rank + 1) for g in (gen, -gen)]
            for a, b in pairs
        ]
        for assignment in itertools.product(*label_choices):
            edges = tuple((a, b, lab) for (a, b), lab in zip(pairs, assignment))
            g = LabeledGraph(rank, nv, edges)
            key = canonical_key(g, respect_base=False)
            if key not in emitted:
                emitted.add(key)
                out.append(g)
    return out


def brute_force_candidates(rank: int, max_edges: int) -> list[LabeledGraph]:
    """Independent generate-and-filter oracle for small bounds: raw product
    over endpoint and label choices, naive dedup by canonical key."""
    out: dict[tuple, LabeledGraph] = {}
    max_betti = 2 * rank - 1
    for nv in range(1, max_edges + 1):
        endpoint_pairs = [(a, b) for a in range(nv) for b in range(a, nv)]
        for ne in range(1, max_edges + 1):
            for pair_combo in itertools.combinations_with_replacement(endpoint_pairs, ne):
                labels_options = []
                for a, b in pair_combo:
                    labels_options.append(
                        list(range(1, rank + 1))
                        if a == b
                        else [g for gen in range(1, rank + 1) for g in (gen, -gen)]
                    )
                for labels in itertools.product(*labels_options):
                    edges = tuple(
                        (a, b, lab) for (a, b), lab in zip(pair_combo, labels)
                    )
                    g = LabeledGraph(rank, nv, edges)
                    if not is_connected(g):
                        continue
                    if not is_core_graph(g):
                        continue
                    if betti(g) > max_betti:
                        continue
                    out.setdefault(canonical_key(g, respect_base=False), g)
    return list(out.values())


def perm_min_key(g: LabeledGraph) -> tuple:
    """Fully independent canonical form: least sorted edge list over all
    vertex permutations, with loop labels normalized positive."""
    best = None
    for perm in itertools.permutations(range(g.num_vertices)):
        edges = []
        for s, d, l in g.edges:
            a, b = perm[s], perm[d]
            if a == b:
                edges.append((a, b, abs(l)))
            else:
                edges.append(min((a, b, l), (b, a, -l)))
        key = tuple(sorted(edges))
        if best is None or key < best:
            best = key
    return (g.num_vertices, best)


class TestEnumeration:
    @pytest.mark.parametrize(
        "rank,max_edges", [(2, e) for e in range(1, 6)] + [(3, e) for e in range(1, 5)]
    )
    def test_matches_canonical_key_oracle(self, rank, max_edges):
        # same graphs, same edge order, same sequence: callers that cap
        # work per graph see the same representatives
        ours = list(enumerate_candidates(rank, max_edges))
        oracle = canonical_key_candidates(rank, max_edges)
        assert ours == oracle

    def test_no_canonical_key_calls(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("canonical_key called during enumeration")

        monkeypatch.setattr("rosefold.graphs.canonical_key", forbidden)
        monkeypatch.setattr("rosefold.graphs._encode_from", forbidden)
        monkeypatch.setattr("rosefold.covers.canonical_key", forbidden, raising=False)
        assert len(list(enumerate_candidates(2, 4))) == 558

    def test_matches_brute_force_at_two_edges(self):
        ours = {canonical_key(g, respect_base=False) for g in enumerate_candidates(2, 2)}
        brute = {canonical_key(g, respect_base=False) for g in brute_force_candidates(2, 2)}
        assert ours == brute

    def test_counts_match_independent_dedup(self):
        for max_edges in (1, 2, 3):
            ours = list(enumerate_candidates(2, max_edges))
            independent = {perm_min_key(g) for g in brute_force_candidates(2, max_edges)}
            assert len(ours) == len(independent)
            assert len({perm_min_key(g) for g in ours}) == len(ours)

    def test_single_edge_graphs(self):
        got = list(enumerate_candidates(2, 1))
        assert len(got) == 2
        assert all(g.num_vertices == 1 and g.num_edges == 1 for g in got)

    def test_all_core_connected_within_betti(self):
        for g in itertools.islice(enumerate_candidates(2, 5), 400):
            assert is_connected(g)
            assert is_core_graph(g)
            assert betti(g) <= 3

    def test_no_duplicates(self):
        keys = [canonical_key(g, respect_base=False) for g in enumerate_candidates(2, 4)]
        assert len(keys) == len(set(keys))

    def test_rank_below_two_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_candidates(1, 2))

    def test_cap_enforced(self):
        with pytest.raises(RuntimeError, match="cap of 5 "):
            list(enumerate_candidates(2, 4, max_graphs=5))
        # 558 classes at (2, 4): a cap of exactly that many is not exceeded
        assert len(list(enumerate_candidates(2, 4, max_graphs=558))) == 558

    def test_arc_count_bound_on_cores(self):
        # a connected core graph of Betti m >= 2 splits into at most
        # 3m - 3 maximal arcs
        checked = 0
        for g in itertools.islice(enumerate_candidates(2, 5), 600):
            m = betti(g)
            if m < 2:
                continue
            checked += 1
            assert maximal_arc_count(g) <= 3 * m - 3
        assert checked > 100


class TestSubCoverDetection:
    def test_rose_lift_is_degree_one_cover(self):
        assert has_sub_cover(rose(2, base=None))

    def test_two_cover_detected(self):
        assert has_sub_cover(two_sheeted_cover(2))

    def test_small_non_cover(self):
        g = LabeledGraph(2, 1, ((0, 0, 1),))
        assert not has_sub_cover(g)


class TestSurvey:
    def test_small_survey_clean(self):
        report = survey_two_cover_characterization(2, 4, 12)
        assert report.violations == []
        # exactly the 2^2 - 1 two-vertex covers of the rank-2 rose fit in 4 edges
        assert report.two_sheeted_covers == 3
        assert report.total_candidates > 100

    def test_rank_three_counters(self):
        report = survey_two_cover_characterization(3, 4, 14)
        assert report.violations == []
        assert (
            report.total_candidates,
            report.with_rose_lift,
            report.two_sheeted_covers,
            report.witnessed,
            report.max_witness_length,
        ) == (2437, 4, 0, 2433, 3)

    def test_survey_classifies_every_candidate(self):
        report = survey_two_cover_characterization(2, 4, 12)
        assert (
            report.with_rose_lift + report.two_sheeted_covers + report.witnessed
            == report.total_candidates
        )

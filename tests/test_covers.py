import functools
import itertools
import operator
import random
from collections import Counter

import pytest

from conftest import (
    candidate_graphs,
    has_sub_cover,
    is_core_graph,
    is_two_sheeted_cover,
    random_graph,
    rose,
    two_sheeted_cover,
    unbased_key,
)
from test_graphs import maximal_arc_count
from rosefold.covers import (
    CandidateShape,
    _letters,
    _shape_key,
    _unlabeled_shapes,
    enumerate_candidates,
    lift_paths,
    lifts_somewhere,
    shortest_non_lifting_word,
    survey_two_cover_characterization,
)
from rosefold.graphs import LabeledGraph, betti, is_connected
from rosefold.strsearch import letters_to_chars
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
        lifts = list(lift_paths(rose(2), w("a1 a2"), 0))
        assert len(lifts) == 1
        assert tuple(map(rose(2).letter, lifts[0].tokens)) == w("a1 a2").letters

    def test_cover_lifts_uniquely_everywhere(self):
        rng = random.Random(2)
        for cover in all_two_sheeted_covers(2):
            for _ in range(20):
                word = Word(2, random_reduced_letters(rng, 2, 12))
                for start in range(cover.num_vertices):
                    assert len(list(lift_paths(cover, word, start))) == 1

    def test_missing_label_no_lift(self):
        g = LabeledGraph(2, 1, ((0, 0, 2),))
        assert list(lift_paths(g, w("a1"), 0)) == []


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

        for g in itertools.islice(candidate_graphs(2, 3), 40):
            ok, witness = is_path_surjective_up_to(g, 5)
            oracle_fail = None
            for letters in all_reduced_words(2, 5):
                word = Word(2, letters)
                if not any(
                    next(lift_paths(g, word, start), None) is not None
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
        for g in itertools.islice(candidate_graphs(2, 4), 200):
            witness = shortest_non_lifting_word(g, 10)
            if witness is None:
                continue
            count += 1
            for start in range(g.num_vertices):
                assert list(lift_paths(g, witness, start)) == []
            # all proper prefixes lift somewhere
            prefix = witness.subword(0, len(witness) - 1)
            if len(prefix):
                assert any(
                    list(lift_paths(g, prefix, start)) for start in range(g.num_vertices)
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
        for g in candidate_graphs(rank, max_edges):
            if g.has_rose_lift():
                continue
            checked += 1
            # the witness itself, not just the verdict
            assert shortest_non_lifting_word(g, 14) == oracle_shortest_non_lifting_word(g, 14)
        assert checked > 2000

    @pytest.mark.parametrize("rank,max_edges", [(2, 5), (3, 4)])
    def test_bounds_below_the_breadth_first_search(self, rank, max_edges):
        # the 1-letter test must not fire at bound 0, nor the 2-letter
        # test at bound 1; ``shifted`` counts the graphs where it would
        shifted = {0: 0, 1: 0, 2: 0}
        for shape, blocks, masks in enumerate_candidates(rank, max_edges):
            g = shape.graph(blocks)
            found = {}
            for max_len in range(4):
                found[max_len] = oracle_shortest_non_lifting_word(g, max_len)
                assert shortest_non_lifting_word(g, max_len) == found[max_len]
                ours = shape.witness(blocks, masks, max_len)
                assert ours == (found[max_len].letters if found[max_len] else None)
            assert found[0] is None
            for bound in shifted:
                shifted[bound] += found[bound] is None and found[bound + 1] is not None
        assert shifted[0] > 20 and shifted[1] > 20 and shifted[2] > 0, shifted

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
        rows = g.letter_rows
        assert rows is g.letter_rows  # built once per graph
        assert sorted(rows) == [-2, -1, 1, 2]
        for letter, row in rows.items():
            for v in range(g.num_vertices):
                targets = {tgt for lab, tgt, _ in g.adjacency[v] if lab == letter}
                assert row[v] == sum(1 << t for t in targets)

    def test_lifts_somewhere_rejects_another_rank(self):
        g = LabeledGraph(2, 1, ((0, 0, 1), (0, 0, 2)))
        # a letter beyond the graph's rank, and letters that fit it
        for text in ("a3", "a1 a2"):
            word = parse_word(text, 3)
            with pytest.raises(ValueError, match="rank mismatch"):
                lifts_somewhere(g, word)
            with pytest.raises(ValueError, match="rank mismatch"):
                next(lift_paths(g, word, 0))

    def test_lifts_somewhere_matches_lift_paths(self):
        rng = random.Random(11)
        for _ in range(300):
            g = random_labeled_graph(rng, 2)
            word = Word(2, random_reduced_letters(rng, 2, rng.randrange(0, 7)))
            expected = any(
                next(lift_paths(g, word, start), None) is not None
                for start in range(g.num_vertices)
            )
            assert lifts_somewhere(g, word) == expected


def reduced_word_around(
    rng: random.Random, rank: int, factor: tuple[int, ...], before: int, after: int
) -> Word:
    """A reduced word of ``before`` random letters, then ``factor`` (reduced),
    then ``after`` random letters."""
    letters = list(factor)
    for _ in range(after):
        letters.append(rng.choice([l for l in _letters(rank) if not letters or l != -letters[-1]]))
    for _ in range(before):
        letters.insert(0, rng.choice([l for l in _letters(rank) if not letters or l != -letters[0]]))
    return Word(rank, tuple(letters))


class TestFactorLemma:
    """The words that lift somewhere in a graph are closed under taking
    factors, so a word that contains the graph's shortest non-lifting word
    lifts nowhere; ``alpha_injectivity_experiment`` skips a graph on this
    alone."""

    def test_words_containing_the_witness_lift_nowhere(self):
        rng = random.Random(14)
        kinds = {"isolated": 0, "parallel": 0, "loop": 0, "rank3": 0, "long": 0}
        checked = 0
        for _ in range(400):
            rank = rng.choice((2, 3))
            g = random_graph(rng, rank, max_v=6, max_e=10)
            witness = shortest_non_lifting_word(g, 6)
            if witness is None:
                continue
            factor = witness.letters
            pattern = letters_to_chars(factor)
            samples = [Word(rank, factor)]
            samples += [
                reduced_word_around(rng, rank, factor, rng.randrange(8), rng.randrange(8))
                for _ in range(4)
            ]
            samples += [
                Word(rank, random_reduced_letters(rng, rank, rng.randrange(1, 40)))
                for _ in range(4)
            ]
            for word in samples:
                if pattern not in letters_to_chars(word.letters):
                    continue
                checked += 1
                assert not lifts_somewhere(g, word)
                for start in range(g.num_vertices):
                    assert list(lift_paths(g, word, start)) == []
            touched = {v for src, dst, _ in g.edges for v in (src, dst)}
            kinds["isolated"] += len(touched) < g.num_vertices
            kinds["parallel"] += len({(src, dst) for src, dst, _ in g.edges}) < g.num_edges
            kinds["loop"] += any(src == dst for src, dst, _ in g.edges)
            kinds["rank3"] += rank == 3
            kinds["long"] += len(witness) >= 2
        assert checked > 1500
        assert min(kinds.values()) > 20, kinds


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

        for g in candidate_graphs(2, 5):
            assert is_two_sheeted_cover(g) == local(g)


def oracle_is_two_sheeted_cover(g: LabeledGraph) -> bool:
    """Differential oracle for ``is_two_sheeted_cover``: per generator,
    its two edge records are loops at both vertices or a pair of opposite
    edges between them, and at least one generator is of the second kind."""
    if g.num_vertices != 2:
        return False
    per_gen: dict[int, list[tuple[int, int, int]]] = {gen: [] for gen in range(1, g.rank + 1)}
    for src, dst, label in g.edges:
        per_gen[abs(label)].append((src, dst, label))
    saw_crossing = False
    for gen in range(1, g.rank + 1):
        recs = per_gen[gen]
        if len(recs) != 2:
            return False
        loops = [r for r in recs if r[0] == r[1]]
        if len(loops) == 2:
            if {loops[0][0], loops[1][0]} != {0, 1}:
                return False
        elif len(loops) == 0:
            # normalized as traversed 0 -> 1: need letters gen and -gen
            traversed = sorted(label if src == 0 else -label for src, dst, label in recs)
            if traversed != [-gen, gen]:
                return False
            saw_crossing = True
        else:
            return False
    return saw_crossing


def oracle_has_sub_cover(g: LabeledGraph) -> bool:
    """Differential oracle for ``has_sub_cover``: a rose lift, or a vertex
    pair where every generator loops at both or has edges between them
    reading it in both directions, found by scanning the edges per pair."""
    if g.has_rose_lift():
        return True
    loops: list[set[int]] = [set() for _ in range(g.num_vertices)]
    for src, dst, label in g.edges:
        if src == dst:
            loops[src].add(abs(label))
    for v, w in itertools.combinations(range(g.num_vertices), 2):
        forward: dict[int, set[int]] = {}
        for src, dst, label in g.edges:
            if {src, dst} == {v, w}:
                as_from_v = label if src == v else -label
                forward.setdefault(abs(label), set()).add(as_from_v)
        ok = True
        crossing = False
        for gen in range(1, g.rank + 1):
            if gen in loops[v] and gen in loops[w]:
                continue
            if {gen, -gen} <= forward.get(gen, set()):
                crossing = True
                continue
            ok = False
            break
        if ok and crossing:
            return True
    return False


def row_blind_variants(g: LabeledGraph) -> list[LabeledGraph]:
    """``g``, ``g`` with its first edge doubled, and two disjoint copies of
    ``g``: the letter rows cannot see edge multiplicity, and a two-vertex
    pattern with no swap is disconnected, so these probe exactly what the
    edge-count guard and the swap clause decide."""
    n = g.num_vertices
    doubled = LabeledGraph(g.rank, n, g.edges + g.edges[:1])
    shifted = tuple((src + n, dst + n, label) for src, dst, label in g.edges)
    return [g, doubled, LabeledGraph(g.rank, 2 * n, g.edges + shifted)]


def random_near_cover(rng: random.Random, rank: int) -> LabeledGraph:
    """A two-vertex pattern (per generator loops at both vertices or a
    swap) placed among two to four vertices, then up to two random edits:
    a dropped, a duplicated or an added edge."""
    nv = rng.randrange(2, 5)
    v, w = rng.sample(range(nv), 2)
    edges = []
    for gen in range(1, rank + 1):
        if rng.random() < 0.5:
            edges += [(v, v, rng.choice((gen, -gen))), (w, w, rng.choice((gen, -gen)))]
        else:
            edges += [(v, w, gen), rng.choice(((w, v, gen), (v, w, -gen)))]
    for _ in range(rng.randrange(3)):
        edit = rng.randrange(3)
        if edit == 0 and edges:
            edges.pop(rng.randrange(len(edges)))
        elif edit == 1 and edges:
            edges.append(rng.choice(edges))
        else:
            edges.append((rng.randrange(nv), rng.randrange(nv), rng.choice(_letters(rank))))
    rng.shuffle(edges)
    return LabeledGraph(rank, nv, tuple(edges))


class TestCoverPredicateOracles:
    @pytest.mark.parametrize("rank,max_edges", [(2, 5), (3, 4)])
    def test_match_on_survey_candidates(self, rank, max_edges):
        seen = {"two_sheeted": 0, "no_swap": 0}
        for g in candidate_graphs(rank, max_edges):
            for h in row_blind_variants(g):
                expected = oracle_is_two_sheeted_cover(h)
                assert is_two_sheeted_cover(h) == expected
                assert has_sub_cover(h) == oracle_has_sub_cover(h)
                seen["two_sheeted"] += expected
                seen["no_swap"] += h.num_vertices == 2 and h.num_edges == 2 * rank and all(
                    (v, v, gen) in h.edges for v in (0, 1) for gen in range(1, rank + 1)
                )
        # rank 2 has its three covers within 5 edges; the copies of the
        # rose are the all-loops pattern at either rank
        assert seen == {"two_sheeted": 3 if rank == 2 else 0, "no_swap": 1}

    def test_match_on_random_graphs(self):
        rng = random.Random(13)
        kinds = {"two_sheeted": 0, "pair_only": 0, "padded_pair": 0, "none": 0}
        for i in range(2000):
            rank = rng.randrange(1, 4)
            g = random_near_cover(rng, rank) if i % 2 else random_labeled_graph(rng, rank)
            cover, sub = oracle_is_two_sheeted_cover(g), oracle_has_sub_cover(g)
            assert is_two_sheeted_cover(g) == cover
            assert has_sub_cover(g) == sub
            pair_only = sub and not g.has_rose_lift()
            kinds["two_sheeted"] += cover
            kinds["pair_only"] += pair_only
            kinds["padded_pair"] += pair_only and g.num_vertices == 2 and g.num_edges > 2 * rank
            kinds["none"] += not sub
        assert min(kinds.values()) > 20, kinds


class TestCandidateKernel:
    """The survey and ``alpha_injectivity_experiment`` classify candidates
    on their masks (``CandidateShape``) without building them; every
    verdict must match the built graph's."""

    @pytest.mark.parametrize("rank,max_edges", [(2, 5), (3, 4)])
    def test_verdicts_match_the_built_graphs(self, rank, max_edges):
        letters = _letters(rank)
        seen = {"rose_lift": 0, "two_sheeted": 0, "pair_only": 0}
        lengths = Counter()
        for shape, blocks, masks in enumerate_candidates(rank, max_edges):
            g = shape.graph(blocks)
            rows = [g.letter_rows[letter] for letter in letters]
            assert shape.rows(blocks) == rows
            assert shape.heads(masks) == [functools.reduce(operator.or_, row) for row in rows]
            assert shape.rose_lift(masks) == g.has_rose_lift()
            assert shape.two_sheeted_cover(blocks, masks) == is_two_sheeted_cover(g)
            assert shape.sub_cover(blocks, masks) == has_sub_cover(g)
            witness = oracle_shortest_non_lifting_word(g, 14)
            ours = shape.witness(blocks, masks, 14)
            assert ours == (witness.letters if witness else None)
            seen["rose_lift"] += g.has_rose_lift()
            seen["two_sheeted"] += is_two_sheeted_cover(g)
            seen["pair_only"] += has_sub_cover(g) and not g.has_rose_lift()
            lengths[len(ours) if ours else 0] += 1
        # the betti bound leaves room for a two-vertex pattern only as a
        # whole two-sheeted cover (see the next test for padded pairs)
        assert seen == ({"rose_lift": 125, "two_sheeted": 3, "pair_only": 3} if rank == 2
                        else {"rose_lift": 4, "two_sheeted": 0, "pair_only": 0})
        # every branch of the witness search: no witness, lengths 1, 2, 3
        assert {0, 1, 2, 3} <= set(lengths), lengths

    @pytest.mark.parametrize("rank,nv,pairs", [
        # both generators swapped, a third vertex on two more edges
        (2, 3, ((0, 1),) * 4 + ((1, 2),) * 2),
        # one generator swapped, the other looping at both ends, padded
        (2, 3, ((0, 0), (0, 1), (0, 1), (1, 1), (1, 2), (1, 2))),
        # every generator swapped at rank 3, and a pendant edge
        (3, 3, ((0, 1),) * 6 + ((1, 2),)),
        # a two-vertex pattern with one edge left over
        (2, 2, ((0, 0), (0, 1), (0, 1), (0, 1), (1, 1))),
    ])
    def test_pair_patterns_beyond_the_betti_bound(self, rank, nv, pairs):
        # every assignment on shapes past the survey's betti bound, orbit
        # least or not, where a pattern sits beside other edges
        shape = CandidateShape(rank, nv, pairs)
        kinds = {"pair_only": 0, "none": 0}
        assignments = zip(itertools.product(*shape.blocks), itertools.product(*shape.contributions))
        for blocks, contributions in assignments:
            masks = functools.reduce(operator.or_, contributions)
            g = shape.graph(blocks)
            sub = oracle_has_sub_cover(g)
            assert shape.rose_lift(masks) == g.has_rose_lift()
            assert shape.two_sheeted_cover(blocks, masks) == oracle_is_two_sheeted_cover(g)
            assert shape.sub_cover(blocks, masks) == sub
            kinds["pair_only"] += sub and not g.has_rose_lift()
            kinds["none"] += not sub
        assert min(kinds.values()) > 0, kinds

    def test_masks_hold_heads_and_loops(self):
        # one vertex with loops a1, a1, a2: every letter ends at vertex 0,
        # and both generators loop there
        shape, blocks, masks = next(
            (shape, blocks, masks)
            for shape, blocks, masks in enumerate_candidates(2, 3)
            if shape.graph(blocks).edges == ((0, 0, 1), (0, 0, 1), (0, 0, 2))
        )
        assert shape.heads(masks) == [1, 1, 1, 1]
        assert shape.rose_lift(masks)
        assert shape.witness(blocks, masks, 5) is None

    def test_survey_builds_no_graph(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("LabeledGraph built during the survey")

        monkeypatch.setattr("rosefold.covers.LabeledGraph", forbidden)
        report = survey_two_cover_characterization(2, 5, 14)
        assert report.violations == [] and report.total_candidates > 5000


def canonical_key_candidates(rank: int, max_edges: int) -> list[LabeledGraph]:
    """Differential oracle for ``enumerate_candidates``: every label
    assignment on every shape in ``itertools.product`` order, keeping the
    first graph of each ``unbased_key`` class."""
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
            key = unbased_key(g)
            if key not in emitted:
                emitted.add(key)
                out.append(g)
    return out


def brute_force_candidates(rank: int, max_edges: int) -> list[LabeledGraph]:
    """Independent generate-and-filter oracle for small bounds: raw product
    over endpoint and label choices, naive dedup by ``unbased_key``."""
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
                    out.setdefault(unbased_key(g), g)
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
        ours = list(candidate_graphs(rank, max_edges))
        oracle = canonical_key_candidates(rank, max_edges)
        assert ours == oracle

    @pytest.mark.parametrize("max_edges,max_betti", [(4, 3), (6, 3), (5, 5)])
    def test_shape_order(self, max_edges, max_betti):
        shapes = _unlabeled_shapes(max_edges, max_betti)
        assert shapes == sorted(shapes, key=lambda s: (len(s[1]), s[0], _shape_key(*s)))

    def test_no_canonical_key_calls(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("canonical_key called during enumeration")

        monkeypatch.setattr("rosefold.graphs.canonical_key", forbidden)
        monkeypatch.setattr("rosefold.graphs._encode_from", forbidden)
        monkeypatch.setattr("rosefold.covers.canonical_key", forbidden, raising=False)
        assert len(list(enumerate_candidates(2, 4))) == 558

    def test_matches_brute_force_at_two_edges(self):
        ours = {unbased_key(g) for g in candidate_graphs(2, 2)}
        brute = {unbased_key(g) for g in brute_force_candidates(2, 2)}
        assert ours == brute

    def test_counts_match_independent_dedup(self):
        for max_edges in (1, 2, 3):
            ours = list(candidate_graphs(2, max_edges))
            independent = {perm_min_key(g) for g in brute_force_candidates(2, max_edges)}
            assert len(ours) == len(independent)
            assert len({perm_min_key(g) for g in ours}) == len(ours)

    def test_single_edge_graphs(self):
        got = list(candidate_graphs(2, 1))
        assert len(got) == 2
        assert all(g.num_vertices == 1 and g.num_edges == 1 for g in got)

    def test_all_core_connected_within_betti(self):
        for g in itertools.islice(candidate_graphs(2, 5), 400):
            assert is_connected(g)
            assert is_core_graph(g)
            assert betti(g) <= 3

    def test_no_duplicates(self):
        keys = [unbased_key(g) for g in candidate_graphs(2, 4)]
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
        for g in itertools.islice(candidate_graphs(2, 5), 600):
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

    def test_rank_three_five_edge_counters(self):
        report = survey_two_cover_characterization(3, 5, 14)
        assert report.violations == []
        assert (
            report.total_candidates,
            report.with_rose_lift,
            report.two_sheeted_covers,
            report.witnessed,
            report.max_witness_length,
        ) == (36010, 49, 0, 35961, 3)

    def test_rank_two_six_edge_witness_lengths(self):
        # per-graph witnesses of every candidate with no rose lift that is
        # not a two-sheeted cover
        lengths = Counter()
        for shape, blocks, masks in enumerate_candidates(2, 6):
            if shape.rose_lift(masks) or shape.two_sheeted_cover(blocks, masks):
                continue
            lengths[len(shape.witness(blocks, masks, 14))] += 1
        assert lengths == {1: 2250, 2: 35151, 3: 9557, 4: 332, 5: 14}
        report = survey_two_cover_characterization(2, 6, 14)
        assert (report.witnessed, report.max_witness_length) == (sum(lengths.values()), 5)

    def test_survey_classifies_every_candidate(self):
        report = survey_two_cover_characterization(2, 4, 12)
        assert (
            report.with_rose_lift + report.two_sheeted_covers + report.witnessed
            == report.total_candidates
        )

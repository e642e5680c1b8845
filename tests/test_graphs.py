import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import is_core_graph, random_graph, random_subgraph, rose, two_sheeted_cover
from rosefold.graphs import (
    LabeledGraph,
    betti,
    canonical_key,
    collapse,
    core,
    format_graph,
    is_connected,
    isomorphic_labeled,
    make_arc,
    subgraph_as_graph,
    subgraph_from_edges,
)
from rosefold.words import Word, letter_key, parse_letter, parse_word


def theta_graph(lengths=(1, 2, 3), rank=2) -> LabeledGraph:
    """Two vertices joined by parallel arcs of the given lengths."""
    edges = []
    next_v = 2
    for length in lengths:
        prev = 0
        for i in range(length):
            last = i == length - 1
            tgt = 1 if last else next_v
            if not last:
                next_v += 1
            edges.append((prev, tgt, 1))
            prev = tgt
    return LabeledGraph(rank, next_v, tuple(edges))


class TestBetti:
    def test_wedge_of_loops(self):
        for k in range(1, 5):
            g = LabeledGraph(4, 1, tuple((0, 0, i + 1) for i in range(k)))
            assert betti(g) == k

    def test_tree(self):
        g = LabeledGraph(2, 5, ((0, 1, 1), (1, 2, 2), (1, 3, 1), (3, 4, 2)))
        assert betti(g) == 0

    def test_two_sheeted_cover_of_rank3_rose(self):
        # V=2 with 6 topological edges forces first Betti number 5
        g = two_sheeted_cover(3, frozenset({1}))
        assert (g.num_vertices, g.num_edges) == (2, 6)
        assert betti(g) == 5

    def test_disconnected(self):
        g = LabeledGraph(2, 3, ((0, 0, 1), (1, 1, 1)))
        assert betti(g) == 2  # 2 - 3 + 3 components


class TestCollapse:
    def test_collapse_one_loop_of_wedge(self):
        g = LabeledGraph(2, 1, ((0, 0, 1), (0, 0, 2)))
        sub = subgraph_from_edges(g, [0])
        assert betti(collapse(g, sub)) == 1

    def test_collapse_spanning_tree_of_theta(self):
        g = theta_graph((1, 2, 3))
        # spanning tree: pick edges forming a tree over all vertices
        tree = []
        seen = {0}
        for k, (s, d, _) in enumerate(g.edges):
            if (s in seen) != (d in seen):
                tree.append(k)
                seen.update((s, d))
        sub = subgraph_from_edges(g, tree, extra_vertices=range(g.num_vertices))
        q = collapse(g, sub)
        assert q.num_vertices == 1 and q.num_edges == 2
        assert betti(q) == 2

    def test_betti_additivity_random(self, rng):
        for _ in range(300):
            g = random_graph(rng, rank=2)
            sub = random_subgraph(rng, g)
            total = betti(subgraph_as_graph(g, sub)) + betti(collapse(g, sub))
            assert total == betti(g)

    def test_rejects_non_subgraph(self):
        g = LabeledGraph(2, 2, ((0, 1, 1),))
        from rosefold.graphs import Subgraph

        with pytest.raises(ValueError):
            collapse(g, Subgraph(frozenset({0}), frozenset({0})))


class TestCore:
    def loop_with_tail(self) -> LabeledGraph:
        return LabeledGraph(2, 3, ((0, 0, 1), (0, 1, 2), (1, 2, 1)))

    def test_core_drops_tail(self):
        c = core(self.loop_with_tail())
        assert c.num_vertices == 1 and c.num_edges == 1

    def test_core_pair_keeps_connecting_segment(self):
        c = core(self.loop_with_tail(), relative_to=2)
        assert c.num_vertices == 3 and c.num_edges == 3

    def test_idempotent(self):
        c = core(self.loop_with_tail())
        assert isomorphic_labeled(core(c), c, respect_base=False)

    def test_degrees_at_least_two(self, rng):
        for _ in range(100):
            g = random_graph(rng, max_v=6, max_e=8)
            if betti(g) == 0:
                continue
            from rosefold.graphs import component_count

            if component_count(g) != 1:
                continue
            c = core(g)
            assert is_core_graph(c)

    def test_contractible_without_base_rejected(self):
        g = LabeledGraph(2, 2, ((0, 1, 1),))
        with pytest.raises(ValueError):
            core(g)


def maximal_arc_count(g: LabeledGraph) -> int:
    """Maximal arcs of a connected graph of Betti number >= 2: each joins
    two vertices of degree != 2, so they number half their total degree."""
    return sum(g.degree(v) for v in range(g.num_vertices) if g.degree(v) != 2) // 2


class TestMaximalArcs:
    def test_core_pair_arc_bound(self, rng):
        # a based core pair of Betti m >= 2 is a union of at most 3m - 1
        # maximal arcs
        import random as _random

        from rosefold.graphs import component_count

        checked = 0
        local = _random.Random(424242)
        while checked < 60:
            g = random_graph(local, max_v=7, max_e=10)
            if component_count(g) != 1 or betti(g) < 2:
                continue
            base = local.randrange(g.num_vertices)
            pair = core(g, relative_to=base)
            m = betti(pair)
            if m < 2 or pair.num_edges == 0:
                continue
            assert maximal_arc_count(pair) <= 3 * m - 1
            checked += 1


class TestIsomorphism:
    def test_permuted_vertex_ids(self, rng):
        for _ in range(50):
            g = random_graph(rng, max_v=6, max_e=8)
            from rosefold.graphs import component_count

            if component_count(g) != 1:
                continue
            perm = list(range(g.num_vertices))
            rng.shuffle(perm)
            edges = tuple((perm[s], perm[d], l) for s, d, l in g.edges)
            h = LabeledGraph(g.rank, g.num_vertices, edges)
            assert isomorphic_labeled(g, h, respect_base=False)

    def test_wedge_label_order_irrelevant(self):
        g1 = LabeledGraph(2, 1, ((0, 0, 1), (0, 0, 2)), base=0)
        g2 = LabeledGraph(2, 1, ((0, 0, 2), (0, 0, 1)), base=0)
        assert isomorphic_labeled(g1, g2)

    def test_cover_not_isomorphic_to_rose(self):
        assert not isomorphic_labeled(
            rose(2, base=None), two_sheeted_cover(2), respect_base=False
        )

    def test_label_mismatch_detected(self):
        g1 = LabeledGraph(2, 1, ((0, 0, 1),))
        g2 = LabeledGraph(2, 1, ((0, 0, 2),))
        assert not isomorphic_labeled(g1, g2, respect_base=False)

    def test_orientation_flip_is_isomorphic(self):
        g1 = LabeledGraph(2, 2, ((0, 1, 1),), base=0)
        g2 = LabeledGraph(2, 2, ((1, 0, -1),), base=0)
        assert isomorphic_labeled(g1, g2)


@st.composite
def labeled_graphs(draw, rank=2, max_v=6, max_e=8):
    nv = draw(st.integers(1, max_v))
    ne = draw(st.integers(0, max_e))
    edges = tuple(
        (
            draw(st.integers(0, nv - 1)),
            draw(st.integers(0, nv - 1)),
            draw(st.sampled_from([1, -1])) * draw(st.integers(1, rank)),
        )
        for _ in range(ne)
    )
    return LabeledGraph(rank, nv, edges)


class TestGraphProperties:
    @given(labeled_graphs(), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_betti_additive_over_any_subgraph(self, g, hrng):
        edge_ids = [k for k in range(g.num_edges) if hrng.random() < 0.5]
        extra = [v for v in range(g.num_vertices) if hrng.random() < 0.3]
        sub = subgraph_from_edges(g, edge_ids, extra)
        assert betti(g) == betti(subgraph_as_graph(g, sub)) + betti(collapse(g, sub))

    @given(labeled_graphs(), st.permutations(range(6)))
    @settings(max_examples=150, deadline=None)
    def test_canonical_key_permutation_invariant(self, g, perm):
        from rosefold.graphs import canonical_key, component_count

        if component_count(g) != 1:
            return
        mapping = {v: sorted(perm[: g.num_vertices]).index(perm[v]) for v in range(g.num_vertices)}
        edges = tuple((mapping[s], mapping[d], l) for s, d, l in g.edges)
        h = LabeledGraph(g.rank, g.num_vertices, edges)
        assert canonical_key(g, respect_base=False) == canonical_key(h, respect_base=False)


def oracle_encode_from(g: LabeledGraph, start: int) -> tuple:
    """The copying encoder that ``graphs._encode_from`` replaced, kept as
    the slow path: every numbered vertex copies the numbering, the order
    and the tokens, and every branch runs to a complete encoding."""
    n = g.num_vertices
    adj = g.adjacency
    group_key = lambda r: letter_key(r[0])
    best: list[tuple | None] = [None]

    def rec(order: list[int], ids: dict[int, int], qi: int, tokens: list[int]) -> None:
        while qi < len(order):
            v = order[qi]
            recs = adj[v]
            # assign discovery numbers until this vertex has none pending;
            # the first label group with several distinct unnumbered
            # targets is a branch point
            while True:
                pending: dict[tuple, list[int]] = {}
                for rec_ in recs:
                    if rec_[1] not in ids:
                        pending.setdefault(group_key(rec_), []).append(rec_[1])
                if not pending:
                    break
                key = min(pending)
                targets = sorted(set(pending[key]))
                if len(targets) == 1:
                    ids = dict(ids)
                    ids[targets[0]] = len(order)
                    order = order + [targets[0]]
                    continue
                for first in targets:
                    ids2 = dict(ids)
                    ids2[first] = len(order)
                    rec(order + [first], ids2, qi, list(tokens))
                return
            emitted = sorted(
                (group_key(r) + (ids[r[1]],) for r in recs)
            )
            tokens = list(tokens)
            for gen, sign, tid in emitted:
                tokens.extend((gen, sign, tid))
            tokens.append(-1)
            qi += 1
        if len(order) == n:
            enc = tuple(tokens)
            if best[0] is None or enc < best[0]:
                best[0] = enc

    rec([start], {start: 0}, 0, [])
    assert best[0] is not None
    return best[0]


def oracle_canonical_key(g: LabeledGraph, respect_base: bool = True) -> tuple:
    """``canonical_key`` over ``oracle_encode_from``."""
    assert is_connected(g)
    header = (g.rank, g.num_vertices, g.num_edges)
    if respect_base and g.base is not None:
        return header + (1,) + oracle_encode_from(g, g.base)
    body = min(oracle_encode_from(g, v) for v in range(g.num_vertices))
    return header + (0,) + body


@st.composite
def connected_graphs(draw, rank=2, max_v=7, max_extra=6):
    """A random spanning tree plus extra edges (loops and parallel edges
    allowed), with vertex ids shuffled and an optional base."""
    nv = draw(st.integers(1, max_v))
    perm = draw(st.permutations(range(nv)))
    letter = st.sampled_from([1, -1]).flatmap(
        lambda s: st.integers(1, rank).map(lambda g: s * g)
    )
    edges = [(draw(st.integers(0, v - 1)), v, draw(letter)) for v in range(1, nv)]
    for _ in range(draw(st.integers(0, max_extra))):
        edges.append(
            (draw(st.integers(0, nv - 1)), draw(st.integers(0, nv - 1)), draw(letter))
        )
    edges = draw(st.permutations(edges))
    base = draw(st.none() | st.integers(0, nv - 1))
    return LabeledGraph(rank, nv, tuple((perm[s], perm[d], l) for s, d, l in edges), base)


def branching_star(arms=4, rank=2) -> LabeledGraph:
    """A centre with ``arms`` (at most four) a1-edges to distinct
    vertices, each arm continuing as a path whose labels differ from arm
    to arm only deep inside it, in an order unrelated to the arms' vertex
    numbers: the centre branches over every order of its arms, a later
    choice sometimes beats the best so far and sometimes loses to it, and
    most choices are cut off part-way."""
    edges = []
    nv = 1
    for arm in range(arms):
        prev = 0
        labels = [1, 2, 2, 1] + [2] * (1, 3, 0, 2)[arm] + [1, 1]
        for label in labels:
            edges.append((prev, nv, label))
            prev = nv
            nv += 1
        edges.append((prev, 0, 2))  # close the arm into a petal
    return LabeledGraph(rank, nv, tuple(edges), base=0)


class TestCanonicalKeyOracle:
    @given(connected_graphs())
    @settings(max_examples=200, deadline=None)
    def test_matches_copying_encoder(self, g):
        for respect_base in (True, False):
            assert canonical_key(g, respect_base) == oracle_canonical_key(g, respect_base)

    @pytest.mark.parametrize("arms", [2, 3, 4], ids=["2-arms", "3-arms", "4-arms-labelled"])
    def test_branching_star(self, arms):
        g = branching_star(arms)
        for respect_base in (True, False):
            assert canonical_key(g, respect_base) == oracle_canonical_key(g, respect_base)

    def test_every_start_matches(self, rng):
        # ``bound`` only lowers the answer to itself
        from rosefold.graphs import _encode_from

        g = branching_star(3)
        codes = [oracle_encode_from(g, v) for v in range(g.num_vertices)]
        for v, code in enumerate(codes):
            assert _encode_from(g, v) == code
            for bound in rng.sample(codes, 5):
                assert _encode_from(g, v, bound) == min(code, bound)

    def test_encoding_length(self, rng):
        for _ in range(30):
            g = random_graph(rng, max_v=6, max_e=9)
            if not is_connected(g):
                continue
            body = canonical_key(g, respect_base=False)[4:]
            assert len(body) == 6 * g.num_edges + g.num_vertices

    def test_disconnected_rejected(self):
        g = LabeledGraph(2, 3, ((0, 1, 1), (2, 2, 2)), base=0)
        for respect_base in (True, False):
            with pytest.raises(ValueError, match="connected"):
                canonical_key(g, respect_base)


class TestTextFormat:
    def test_round_trip(self, rng):
        for _ in range(30):
            g = random_graph(rng)
            lines = format_graph(g).splitlines()
            assert lines[:2] == [f"rank {g.rank}", f"vertices {g.num_vertices}"]
            edges = tuple(
                (int(src), int(dst), parse_letter(label, g.rank))
                for _, src, dst, label in map(str.split, lines[2:])
            )
            assert edges == g.edges

    def test_arc_label_reads_letters(self):
        g = LabeledGraph(2, 3, ((0, 1, 1), (1, 2, -2)))
        arc = make_arc(g, (1, 2))
        assert Word(2, tuple(g.letter(tok) for tok in arc.edges)) == parse_word("a1 a2^-1", 2)

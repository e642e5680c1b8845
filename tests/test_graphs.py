import gc
import random
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    allocated_by,
    core,
    is_core_graph,
    letter_key,
    random_graph,
    random_subgraph,
    rose,
    token_letter,
    two_sheeted_cover,
    unbased_key,
)
from rosefold.folding import wedge_of_loops
from rosefold.graphs import (
    LabeledGraph,
    Subgraph,
    _Quotient,
    betti,
    canonical_key,
    collapse,
    component_count,
    format_graph,
    is_connected,
    isomorphic_labeled,
    subgraph_as_graph,
    subgraph_from_edges,
)
from rosefold.words import GenTuple, Word, parse_letter, parse_word, random_reduced_letters


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


def bfs_components(num_vertices: int, pairs) -> list[int]:
    """Per vertex, the least vertex of its component under the edges
    ``pairs``, by breadth-first search."""
    nbrs: list[list[int]] = [[] for _ in range(num_vertices)]
    for a, b in pairs:
        nbrs[a].append(b)
        nbrs[b].append(a)
    least = [-1] * num_vertices
    for v in range(num_vertices):  # v is the least vertex of a new component
        if least[v] < 0:
            least[v] = v
            queue = [v]
            for x in queue:
                for y in nbrs[x]:
                    if least[y] < 0:
                        least[y] = v
                        queue.append(y)
    return least


def oracle_collapse(g: LabeledGraph, sub: Subgraph) -> LabeledGraph:
    """``collapse`` by breadth-first search: the components of ``sub``
    numbered in the order of their least vertices, the other edges in
    input order, the base mapped."""
    least = bfs_components(g.num_vertices, (g.edges[k][:2] for k in sub.edges))
    number = {v: i for i, v in enumerate(sorted(set(least)))}
    edges = tuple(
        (number[least[s]], number[least[d]], l) for k, (s, d, l) in enumerate(g.edges) if k not in sub.edges
    )
    base = None if g.base is None else number[least[g.base]]
    return LabeledGraph(g.rank, len(number), edges, base)


def random_connected_graph(rng: random.Random, rank: int = 2, max_v: int = 8, max_extra: int = 6) -> LabeledGraph:
    """A random spanning tree plus extra edges, vertex ids shuffled."""
    nv = rng.randrange(1, max_v + 1)
    perm = list(range(nv))
    rng.shuffle(perm)
    letter = lambda: rng.choice((1, -1)) * rng.randrange(1, rank + 1)
    edges = [(perm[rng.randrange(v)], perm[v], letter()) for v in range(1, nv)]
    edges += [(rng.randrange(nv), rng.randrange(nv), letter()) for _ in range(rng.randrange(max_extra + 1))]
    rng.shuffle(edges)
    return LabeledGraph(rank, nv, tuple(edges))


class TestCollapse:
    def test_matches_bfs_oracle(self, rng):
        # connected and disconnected graphs, based or not, and edge subsets
        # whose subgraphs carry isolated vertices
        for _ in range(300):
            for g in (random_connected_graph(rng), random_graph(rng)):
                if rng.random() < 0.5:
                    g = replace(g, base=rng.randrange(g.num_vertices))
                sub = random_subgraph(rng, g)
                assert collapse(g, sub) == oracle_collapse(g, sub)
                whole = Subgraph(frozenset(range(g.num_vertices)), frozenset(range(g.num_edges)))
                assert component_count(g) == len(set(bfs_components(g.num_vertices, (e[:2] for e in g.edges))))
                assert component_count(g) == collapse(g, whole).num_vertices

    def test_splice_keeps_the_longer_token_list(self):
        # a descending path with an a2 loop at every vertex: each union
        # merges the class holding every loop so far into the next, lesser
        # vertex, so appending the absorbed tokens would copy them all each
        # time, quadratic in n, where splicing the shorter list stays linear
        def seconds(n: int) -> float:
            edges = tuple((v, v - 1, 1) for v in range(n - 1, 0, -1)) + tuple((v, v, 2) for v in range(n))
            g = LabeledGraph(2, n, edges)
            sub = subgraph_from_edges(g, range(n - 1))
            best = float("inf")
            # with the collector off, as ``timeit`` runs: its full passes
            # scale with every object the earlier tests left alive
            gc.disable()
            try:
                for _ in range(3):
                    start = time.perf_counter()
                    q = collapse(g, sub)
                    best = min(best, time.perf_counter() - start)
            finally:
                gc.enable()
            assert q.num_vertices == 1 and q.num_edges == n
            return best

        assert seconds(20_000) < 8 * seconds(5_000)

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
        sub = Subgraph(frozenset(range(g.num_vertices)), frozenset(tree))
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
        assert unbased_key(core(c)) == unbased_key(c)

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
            assert unbased_key(g) == unbased_key(h)
            assert isomorphic_labeled(replace(g, base=0), replace(h, base=perm[0]))

    def test_wedge_label_order_irrelevant(self):
        g1 = LabeledGraph(2, 1, ((0, 0, 1), (0, 0, 2)), base=0)
        g2 = LabeledGraph(2, 1, ((0, 0, 2), (0, 0, 1)), base=0)
        assert isomorphic_labeled(g1, g2)

    def test_cover_not_isomorphic_to_rose(self):
        assert unbased_key(rose(2, base=None)) != unbased_key(two_sheeted_cover(2))
        assert not isomorphic_labeled(rose(2), replace(two_sheeted_cover(2), base=0))

    def test_label_mismatch_detected(self):
        g1 = LabeledGraph(2, 1, ((0, 0, 1),), base=0)
        g2 = LabeledGraph(2, 1, ((0, 0, 2),), base=0)
        assert not isomorphic_labeled(g1, g2)

    def test_unbased_rejected(self):
        g = rose(2, base=None)
        with pytest.raises(ValueError, match="based graph"):
            canonical_key(g)
        with pytest.raises(ValueError, match="based graph"):
            isomorphic_labeled(rose(2), g)

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
        sub = subgraph_from_edges(g, edge_ids)
        sub = Subgraph(sub.vertices | frozenset(extra), sub.edges)
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
        assert unbased_key(g) == unbased_key(h)
        assert canonical_key(replace(g, base=0)) == canonical_key(replace(h, base=mapping[0]))


def oracle_rose_lift_loops(g: LabeledGraph) -> list[int] | None:
    """Vertex by vertex, the loops of each generator listed from the
    edges; at the first vertex with a loop of every generator, the least
    of each."""
    for v in range(g.num_vertices):
        loops = [[k for k, (s, d, l) in enumerate(g.edges) if s == d == v and abs(l) == gen] for gen in range(1, g.rank + 1)]
        if all(loops):
            return [min(ks) for ks in loops]
    return None


class TestRoseLiftLoops:
    @given(st.sampled_from([1, 2, 3]).flatmap(lambda rank: labeled_graphs(rank=rank, max_v=3, max_e=10)))
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle(self, g):
        assert g.rose_lift_loops() == oracle_rose_lift_loops(g)
        assert g.has_rose_lift() == (oracle_rose_lift_loops(g) is not None)

    def test_least_loops_at_the_least_vertex(self):
        # vertices 2 and 1 both carry a lift, 2's loops listed first; vertex
        # 1 has a1 loops 2 and 4
        g = LabeledGraph(2, 3, ((2, 2, 1), (2, 2, -2), (1, 1, -1), (1, 1, 2), (1, 1, 1), (0, 0, 1)))
        assert g.rose_lift_loops() == [2, 3]
        assert LabeledGraph(2, 3, g.edges[:3] + g.edges[4:]).rose_lift_loops() == [0, 1]
        assert LabeledGraph(2, 1, ((0, 0, 1),)).rose_lift_loops() is None
        # rank 0: every vertex carries the empty lift, as is_rose has it
        assert LabeledGraph(0, 2, ()).rose_lift_loops() == []
        assert LabeledGraph(0, 2, ()).has_rose_lift()


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


def oracle_canonical_key(g: LabeledGraph) -> tuple:
    """``canonical_key`` (based) or ``unbased_key`` over
    ``oracle_encode_from``."""
    assert is_connected(g)
    header = (g.rank, g.num_vertices, g.num_edges)
    if g.base is not None:
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


def caterpillar(spine: int, rank: int = 2) -> LabeledGraph:
    """A based path v0 ... v(spine-1) of a1-edges, each vi with one more
    a1-edge to a leaf: every spine vertex's a1-group has two new targets,
    so the least encoding branches once per spine vertex."""
    edges = [(i, i + 1, 1) for i in range(spine - 1)]
    edges += [(i, spine + i, 1) for i in range(spine)]
    return LabeledGraph(rank, 2 * spine, tuple(edges), base=0)


def twin_arms(extra: int) -> LabeledGraph:
    """A based centre with two arms that look alike along their forced
    steps: centre -a1-> x -a2-> x1, and x1 has two a1-edges to leaves.
    On arm ``extra`` (0 or 1) one leaf has a further a2-edge, so no
    automorphism swaps the arms, though a map built from the arms'
    single-target groups alone would."""
    edges, nv = [], 1
    for arm in (0, 1):
        x, x1, p, r = nv, nv + 1, nv + 2, nv + 3
        edges += [(0, x, 1), (x, x1, 2), (x1, p, 1), (x1, r, 1)]
        nv += 4
        if arm == extra:
            edges.append((p, nv, 2))
            nv += 1
    return LabeledGraph(2, nv, tuple(edges), base=0)


class TestCanonicalKeyOracle:
    @given(connected_graphs())
    @settings(max_examples=200, deadline=None)
    def test_matches_copying_encoder(self, g):
        based = g if g.base is not None else replace(g, base=0)
        assert canonical_key(based) == oracle_canonical_key(based)
        unbased = replace(g, base=None)
        assert unbased_key(unbased) == oracle_canonical_key(unbased)

    @pytest.mark.parametrize("arms", [2, 3, 4], ids=["2-arms", "3-arms", "4-arms-labelled"])
    def test_branching_star(self, arms):
        g = branching_star(arms)
        assert canonical_key(g) == oracle_canonical_key(g)
        unbased = replace(g, base=None)
        assert unbased_key(unbased) == oracle_canonical_key(unbased)

    @pytest.mark.parametrize("extra", [0, 1])
    def test_twin_arms_are_not_swapped(self, extra):
        g = twin_arms(extra)
        assert canonical_key(g) == oracle_canonical_key(g)

    def test_caterpillar_matches(self):
        g = caterpillar(10)
        assert canonical_key(g) == oracle_canonical_key(g)

    def test_long_caterpillar(self):
        # a branch point per spine vertex, far past Python's recursion limit
        g = caterpillar(1500)
        key = canonical_key(g)
        assert len(key) == 6 * g.num_edges + g.num_vertices + 4
        perm = list(range(g.num_vertices))
        random.Random(5).shuffle(perm)
        h = LabeledGraph(g.rank, g.num_vertices, tuple((perm[s], perm[d], l) for s, d, l in g.edges), perm[0])
        assert canonical_key(h) == key

    def test_equal_petal_wedge(self):
        # all 8! orders of the equal petals tie until the petals' second
        # vertices, so symmetric siblings must be pruned within their family
        t = GenTuple(2, tuple(parse_word("a1 a2 a1 a2^-1 a1", 2) for _ in range(8)))
        g = wedge_of_loops(t)
        rng = random.Random(8)
        perm = list(range(g.num_vertices))
        rng.shuffle(perm)
        edges = [(perm[s], perm[d], l) for s, d, l in g.edges]
        rng.shuffle(edges)
        h = LabeledGraph(g.rank, g.num_vertices, tuple(edges), perm[g.base])
        start = time.perf_counter()
        assert canonical_key(g) == canonical_key(h)
        assert time.perf_counter() - start < 10

    def test_every_start_matches(self):
        from rosefold.graphs import _encode_from, _Quotient

        g = branching_star(3)
        q = _Quotient(g)
        for v in range(g.num_vertices):
            assert _encode_from(q, v) == oracle_encode_from(g, v)

    def test_encoding_length(self, rng):
        for _ in range(30):
            g = random_graph(rng, max_v=6, max_e=9)
            if not is_connected(g):
                continue
            body = unbased_key(g)[4:]
            assert len(body) == 6 * g.num_edges + g.num_vertices

    def test_disconnected_rejected(self):
        g = LabeledGraph(2, 3, ((0, 1, 1), (2, 2, 2)), base=0)
        with pytest.raises(ValueError, match="connected"):
            canonical_key(g)
        with pytest.raises(ValueError, match="connected"):
            unbased_key(replace(g, base=None))


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
        assert Word(2, tuple(token_letter(g, tok) for tok in (1, 2))) == parse_word("a1 a2^-1", 2)
        assert Word(2, tuple(token_letter(g, tok) for tok in (-2, -1))) == parse_word("a2 a1^-1", 2)


class TestFootprint:
    def test_quotient_bytes_per_vertex(self):
        # the wedge of two 3,000-letter words and a basis tail, 6,003 edges;
        # one flat list of per-letter slots, not a dict of sets per vertex:
        # about 300 bytes a vertex on CPython 3.11, against 837 with dicts
        rng = random.Random(29)
        words = [Word(2, random_reduced_letters(rng, 2, 3000)) for _ in range(2)]
        wedge = wedge_of_loops(GenTuple(2, (*words, parse_word("a1 a2", 2), parse_word("a2", 2))))
        assert wedge.num_edges == 6003
        _, allocated = allocated_by(lambda: _Quotient(wedge))
        assert allocated <= 400 * wedge.num_vertices

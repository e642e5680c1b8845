import itertools
import random

import pytest

from rosefold.covers import enumerate_candidates
from rosefold.graphs import LabeledGraph, Subgraph, _encode_from, _Quotient, subgraph_from_edges
from rosefold.words import Word, random_reduced_letters


def rose(rank: int, base: int | None = 0) -> LabeledGraph:
    return LabeledGraph(rank, 1, tuple((0, 0, g) for g in range(1, rank + 1)), base)


def two_sheeted_cover(rank: int, loop_generators: frozenset[int] = frozenset()) -> LabeledGraph:
    """The degree-2 cover with loops for ``loop_generators`` and an
    opposite-edge pair for every other generator."""
    if not set(loop_generators) <= set(range(1, rank + 1)):
        raise ValueError("loop generators outside rank")
    if len(loop_generators) == rank:
        raise ValueError("all-loops configuration is disconnected")
    edges: list[tuple[int, int, int]] = []
    for gen in range(1, rank + 1):
        if gen in loop_generators:
            edges.append((0, 0, gen))
            edges.append((1, 1, gen))
        else:
            edges.append((0, 1, gen))
            edges.append((1, 0, gen))
    return LabeledGraph(rank, 2, tuple(edges))


def is_core_graph(g: LabeledGraph) -> bool:
    return all(g.degree(v) >= 2 for v in range(g.num_vertices))


def core(g: LabeledGraph, relative_to: int | None = None) -> LabeledGraph:
    """Iteratively delete degree-1 vertices, sparing ``relative_to`` if given.

    Without a spared vertex the input must be non-contractible; with one,
    the result is the core pair (core graph with respect to that vertex).
    """
    alive_v = [True] * g.num_vertices
    alive_e = [True] * g.num_edges
    deg = [0] * g.num_vertices
    incident: list[list[int]] = [[] for _ in range(g.num_vertices)]
    for k, (src, dst, _) in enumerate(g.edges):
        deg[src] += 1
        deg[dst] += 1
        incident[src].append(k)
        incident[dst].append(k)

    queue = [
        v
        for v in range(g.num_vertices)
        if deg[v] <= 1 and v != relative_to
    ]
    while queue:
        v = queue.pop()
        if not alive_v[v] or deg[v] > 1 or v == relative_to:
            continue
        alive_v[v] = False
        for k in incident[v]:
            if not alive_e[k]:
                continue
            alive_e[k] = False
            src, dst, _ = g.edges[k]
            other = dst if src == v else src
            deg[src] -= 1
            deg[dst] -= 1
            if alive_v[other] and deg[other] <= 1 and other != relative_to:
                queue.append(other)

    kept = [v for v in range(g.num_vertices) if alive_v[v]]
    if not kept or not any(alive_e):
        if relative_to is None:
            raise ValueError("contractible graph has no core; pass relative_to")
        kept = [relative_to] if not kept else kept
    remap = {v: i for i, v in enumerate(kept)}
    edges = tuple(
        (remap[src], remap[dst], label)
        for k, (src, dst, label) in enumerate(g.edges)
        if alive_e[k]
    )
    base = g.base
    if relative_to is not None:
        base = relative_to
    base = remap.get(base) if base is not None and base in remap else None
    return LabeledGraph(g.rank, len(kept), edges, base)


def unbased_key(g: LabeledGraph) -> tuple:
    """A key deciding label-preserving isomorphism of unbased connected
    graphs: the least encoding over every start vertex.  The library keys
    based graphs only (``canonical_key``); the enumeration oracles and the
    unbased isomorphism tests use this one."""
    header = (g.rank, g.num_vertices, g.num_edges)
    q = _Quotient(g)
    return header + (0,) + min(_encode_from(q, v) for v in range(g.num_vertices))


def candidate_graphs(rank: int, max_edges: int, max_graphs: int | None = None):
    """``enumerate_candidates`` with each candidate built as its graph."""
    for shape, blocks, _ in enumerate_candidates(rank, max_edges, max_graphs):
        yield shape.graph(blocks)


def _pair_covers(rows: dict[int, list[int]], rank: int, v: int, w: int) -> bool:
    """Do vertices ``v`` and ``w`` carry a two-sheeted cover of the rose,
    read off a graph's ``letter_rows``?  Every generator labels a loop at
    both vertices or swaps them, and at least one swaps them (this forces
    connectivity)."""
    swapped = False
    for gen in range(1, rank + 1):
        row = rows[gen]
        if row[v] >> w & 1 and row[w] >> v & 1:
            swapped = True
        elif not (row[v] >> v & 1 and row[w] >> w & 1):
            return False
    return swapped


def is_two_sheeted_cover(g: LabeledGraph) -> bool:
    """Two vertices carrying the two-vertex pattern (``_pair_covers``)
    with no edge left over.  The rows drop multiplicity, but an edge
    labelled gen or -gen sets exactly one bit of ``rows[gen]``, so each
    generator's pattern takes two distinct edges, and ``2 * rank`` edges
    leave none over.  The survey's test on candidate masks
    (``CandidateShape.two_sheeted_cover``) is checked against this one."""
    return (
        g.num_vertices == 2
        and g.num_edges == 2 * g.rank
        and _pair_covers(g.letter_rows, g.rank, 0, 1)
    )


def has_sub_cover(g: LabeledGraph) -> bool:
    """Does some subgraph restrict to a covering of the rose of degree 1
    or 2?  Degree 1 is a rose lift; degree 2 is a two-vertex pattern.
    ``CandidateShape.sub_cover`` is checked against this one."""
    if g.has_rose_lift():
        return True
    rows = g.letter_rows
    return any(
        _pair_covers(rows, g.rank, v, w)
        for v, w in itertools.combinations(range(g.num_vertices), 2)
    )


def random_graph(rng: random.Random, rank: int = 2, max_v: int = 8, max_e: int = 12) -> LabeledGraph:
    nv = rng.randrange(1, max_v + 1)
    ne = rng.randrange(0, max_e + 1)
    edges = tuple(
        (
            rng.randrange(nv),
            rng.randrange(nv),
            rng.choice((1, -1)) * rng.randrange(1, rank + 1),
        )
        for _ in range(ne)
    )
    return LabeledGraph(rank, nv, edges)


def random_subgraph(rng: random.Random, g: LabeledGraph) -> Subgraph:
    edge_ids = [k for k in range(g.num_edges) if rng.random() < 0.5]
    extra = [v for v in range(g.num_vertices) if rng.random() < 0.3]
    sub = subgraph_from_edges(g, edge_ids)
    return Subgraph(sub.vertices | frozenset(extra), sub.edges)


def random_cyclically_reduced(rng: random.Random, rank: int, length: int) -> Word:
    while True:
        w = Word(rank, random_reduced_letters(rng, rank, length))
        if w.is_cyclically_reduced and {abs(l) for l in w.letters} == set(
            range(1, rank + 1)
        ):
            return w


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)

import random

import pytest

from rosefold.graphs import LabeledGraph, Subgraph, subgraph_from_edges
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
    return subgraph_from_edges(g, edge_ids, extra)


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

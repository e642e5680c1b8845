"""Labeled graphs over the rank-n rose: Betti numbers, cores, arcs,
subgraph collapse, and label-preserving isomorphism.

A graph is stored with one record per topological edge: (src, dst, label),
where the label is a signed generator index giving the letter read when
the edge is traversed src -> dst.  Oriented edges are signed tokens:
+(k+1) traverses edge k forwards, -(k+1) backwards with the inverse
label.  This encodes the usual fixed-point-free involution on oriented
edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .words import check_letter, format_letter, letter_key


@dataclass(frozen=True)
class LabeledGraph:
    rank: int
    num_vertices: int
    edges: tuple[tuple[int, int, int], ...]
    base: int | None = None

    def __post_init__(self) -> None:
        if self.num_vertices < 1:
            raise ValueError("graph needs at least one vertex")
        for src, dst, label in self.edges:
            if not (0 <= src < self.num_vertices and 0 <= dst < self.num_vertices):
                raise ValueError("edge endpoint outside vertex range")
            check_letter(label, self.rank)
        if self.base is not None and not (0 <= self.base < self.num_vertices):
            raise ValueError("base vertex outside vertex range")

    # -- oriented edge helpers -------------------------------------------

    def alpha(self, token: int) -> int:
        src, dst, _ = self.edges[abs(token) - 1]
        return src if token > 0 else dst

    def omega(self, token: int) -> int:
        src, dst, _ = self.edges[abs(token) - 1]
        return dst if token > 0 else src

    def letter(self, token: int) -> int:
        _, _, label = self.edges[abs(token) - 1]
        return label if token > 0 else -label

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int, int], ...], ...]:
        """Per-vertex list of (letter, target, token), sorted for determinism."""
        out: list[list[tuple[int, int, int]]] = [[] for _ in range(self.num_vertices)]
        for k, (src, dst, label) in enumerate(self.edges):
            out[src].append((label, dst, k + 1))
            out[dst].append((-label, src, -(k + 1)))
        key = lambda rec: (letter_key(rec[0]), rec[1], rec[2])
        return tuple(tuple(sorted(lst, key=key)) for lst in out)

    @cached_property
    def label_groups(self) -> tuple[list[tuple], ...]:
        """Per vertex, its label groups in label order, as ``canonical_key``
        reads them: ``(gen, sign, targets with multiplicity, distinct
        targets)``."""
        out = []
        for recs in self.adjacency:
            by_label: dict[int, list[int]] = {}
            for label, target, _ in recs:  # sorted by (label, target)
                by_label.setdefault(label, []).append(target)
            out.append([letter_key(l) + (t, list(dict.fromkeys(t))) for l, t in by_label.items()])
        return tuple(out)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def vertex_loops(self) -> list[set[int]]:
        """Per-vertex set of the generators labelling a loop there."""
        loops: list[set[int]] = [set() for _ in range(self.num_vertices)]
        for src, dst, label in self.edges:
            if src == dst:
                loops[src].add(abs(label))
        return loops

    def has_rose_lift(self) -> bool:
        """True when some vertex carries a loop for every generator."""
        return self.rose_lift_vertex() is not None

    def rose_lift_vertex(self) -> int | None:
        """The least vertex carrying a loop for every generator, if any."""
        for v, gens in enumerate(self.vertex_loops()):
            if len(gens) == self.rank:
                return v
        return None


def is_rose(g: LabeledGraph) -> bool:
    return g.num_vertices == 1 and sorted(abs(l) for _, _, l in g.edges) == list(
        range(1, g.rank + 1)
    )


def _components(num_vertices: int, edges: Iterable[tuple[int, int]]) -> list[int]:
    parent = list(range(num_vertices))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return [find(v) for v in range(num_vertices)]


def component_count(g: LabeledGraph) -> int:
    roots = _components(g.num_vertices, ((s, d) for s, d, _ in g.edges))
    return len(set(roots))


def is_connected(g: LabeledGraph) -> bool:
    return component_count(g) == 1


def betti(g: LabeledGraph) -> int:
    """First Betti number: E - V + #components (graph may be disconnected)."""
    return g.num_edges - g.num_vertices + component_count(g)


# ---------------------------------------------------------------------------
# subgraphs and collapse


@dataclass(frozen=True)
class Subgraph:
    """A subgraph selection: vertex ids plus topological edge ids."""

    vertices: frozenset[int]
    edges: frozenset[int]


def subgraph_from_edges(
    g: LabeledGraph, edge_ids: Iterable[int], extra_vertices: Iterable[int] = ()
) -> Subgraph:
    edge_ids = frozenset(edge_ids)
    verts = set(extra_vertices)
    for k in edge_ids:
        src, dst, _ = g.edges[k]
        verts.add(src)
        verts.add(dst)
    return Subgraph(frozenset(verts), edge_ids)


def check_subgraph(g: LabeledGraph, sub: Subgraph) -> None:
    for v in sub.vertices:
        if not (0 <= v < g.num_vertices):
            raise ValueError("subgraph vertex outside graph")
    for k in sub.edges:
        if not (0 <= k < g.num_edges):
            raise ValueError("subgraph edge outside graph")
        src, dst, _ = g.edges[k]
        if src not in sub.vertices or dst not in sub.vertices:
            raise ValueError("subgraph edge with endpoint outside its vertex set")


def subgraph_as_graph(g: LabeledGraph, sub: Subgraph) -> LabeledGraph:
    """The selected subgraph as a standalone graph (vertices renumbered)."""
    check_subgraph(g, sub)
    order = sorted(sub.vertices)
    remap = {v: i for i, v in enumerate(order)}
    edges = tuple(
        (remap[g.edges[k][0]], remap[g.edges[k][1]], g.edges[k][2])
        for k in sorted(sub.edges)
    )
    base = remap.get(g.base) if g.base is not None else None
    return LabeledGraph(g.rank, max(1, len(order)), edges, base)


def collapse(g: LabeledGraph, sub: Subgraph) -> LabeledGraph:
    """Quotient graph: every connected component of ``sub`` becomes a vertex."""
    check_subgraph(g, sub)
    root = _components(g.num_vertices, (g.edges[k][:2] for k in sub.edges))
    roots = sorted(set(root))
    remap = {r: i for i, r in enumerate(roots)}
    edges = tuple(
        (remap[root[src]], remap[root[dst]], label)
        for k, (src, dst, label) in enumerate(g.edges)
        if k not in sub.edges
    )
    base = remap[root[g.base]] if g.base is not None else None
    return LabeledGraph(g.rank, len(roots), edges, base)


# ---------------------------------------------------------------------------
# cores


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


# ---------------------------------------------------------------------------
# arcs


@dataclass(frozen=True)
class Arc:
    """A chain of oriented edges whose interior vertices have degree 2."""

    edges: tuple[int, ...]


def arc_endpoints(g: LabeledGraph, arc: Arc) -> tuple[int, int]:
    return g.alpha(arc.edges[0]), g.omega(arc.edges[-1])


def arc_interior(g: LabeledGraph, arc: Arc) -> list[int]:
    return [g.omega(tok) for tok in arc.edges[:-1]]


def make_arc(g: LabeledGraph, tokens: Sequence[int]) -> Arc:
    """Validate a token chain as an arc (interior degree 2, consecutive)."""
    if not tokens:
        raise ValueError("empty arc")
    for a, b in zip(tokens, tokens[1:]):
        if g.omega(a) != g.alpha(b):
            raise ValueError("arc edges do not concatenate")
    seen = set()
    for tok in tokens:
        if abs(tok) in seen:
            raise ValueError("arc repeats a topological edge")
        seen.add(abs(tok))
    for tok in tokens[:-1]:
        if g.degree(g.omega(tok)) != 2:
            raise ValueError("arc interior vertex has degree != 2")
    return Arc(tuple(tokens))


# ---------------------------------------------------------------------------
# edge paths


@dataclass(frozen=True)
class EdgePath:
    """A combinatorial edge path; length 0 paths sit at ``start``."""

    graph: LabeledGraph
    tokens: tuple[int, ...]
    start: int

    def __post_init__(self) -> None:
        v = self.start
        for tok in self.tokens:
            if self.graph.alpha(tok) != v:
                raise ValueError("path edges do not concatenate")
            v = self.graph.omega(tok)

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def end(self) -> int:
        return self.graph.omega(self.tokens[-1]) if self.tokens else self.start


# ---------------------------------------------------------------------------
# canonical form and isomorphism


def _encode_from(g, start: int, bound: tuple | None = None) -> tuple:
    """Least BFS encoding from ``start``, or ``bound`` when that is less.

    ``g`` is a ``LabeledGraph`` or a view with ``num_vertices`` and
    ``label_groups`` (see ``LabeledGraph.label_groups``), indexed by
    vertex ids below ``len(label_groups)`` that may skip numbers.

    Vertices are numbered in discovery order.  When a label group reaches
    several still-unnumbered targets at once the assignment is ambiguous,
    so all orders are explored and the least full encoding wins.  Tokens
    are emitted only after every target of the vertex has its final
    number, sorted by (label, number), so the encoding depends on the
    isomorphism class alone.

    The search backtracks over one shared numbering: each choice at a
    branch point appends to ``order`` and ``tokens``, and both are cut
    back to their lengths at the branch point (with the numbers of the
    vertices they discovered cleared) before the next choice.  Every
    complete encoding of a connected graph has the same length, 6E + V,
    so a branch stops as soon as its token prefix is strictly greater
    than the same-length prefix of the best encoding so far; ``bound``
    seeds that best, which lets ``canonical_key`` prune every start
    after the first.  Choices are tried in order of their label profile
    (each group's letter and multiplicity), which tends to find the least
    encoding early; only the pruning depends on it.  A complete numbering
    that misses a vertex means the graph is disconnected (ValueError).
    """
    groups = g.label_groups
    ids = [-1] * len(groups)
    ids[start] = 0
    order = [start]
    tokens: list[int] = []
    best = bound

    def profile(v: int) -> list:
        return [(k0, k1, len(targets)) for k0, k1, targets, _ in groups[v]]

    def search(qi: int, gi: int, tight: bool) -> None:
        # ``tight``: the tokens so far equal the best encoding's prefix
        nonlocal best
        while qi < len(order):
            vgroups = groups[order[qi]]
            while gi < len(vgroups):
                distinct = vgroups[gi][3]
                if len(distinct) == 1:  # most groups; skip the list
                    if ids[distinct[0]] < 0:
                        ids[distinct[0]] = len(order)
                        order.append(distinct[0])
                    gi += 1
                    continue
                pending = [t for t in distinct if ids[t] < 0]
                if len(pending) > 1:
                    pending.sort(key=profile)
                    mark, mark_tokens = len(order), len(tokens)
                    for first in pending:
                        ids[first] = mark
                        order.append(first)
                        before = best
                        search(qi, gi, tight)
                        if best is not before:
                            # the new best shares this branch point's prefix
                            tight = True
                        for u in order[mark:]:
                            ids[u] = -1
                        del order[mark:]
                        del tokens[mark_tokens:]
                    return
                if pending:
                    ids[pending[0]] = len(order)
                    order.append(pending[0])
                gi += 1
            mark_tokens = len(tokens)
            for k0, k1, targets, _ in vgroups:
                if len(targets) == 1:  # most groups; skip sorting one id
                    tokens.extend((k0, k1, ids[targets[0]]))
                else:
                    for tid in sorted([ids[t] for t in targets]):
                        tokens.extend((k0, k1, tid))
            tokens.append(-1)
            if tight:
                segment = tuple(tokens[mark_tokens:])
                reference = best[mark_tokens : len(tokens)]
                if segment > reference:
                    return
                tight = segment == reference
            qi += 1
            gi = 0
        if len(order) < g.num_vertices:
            raise ValueError("canonical_key expects a connected graph")
        if not tight:
            best = tuple(tokens)

    search(0, 0, best is not None)
    assert best is not None
    return best


def canonical_key(g: LabeledGraph, respect_base: bool = True) -> tuple:
    """Canonical encoding deciding label-preserving isomorphism.

    Based graphs are encoded from the base; otherwise the least encoding
    over all start vertices is used.  Connected graphs only.  ``g`` may
    also be a based view that ``_encode_from`` reads (a fold stage).
    """
    header = (g.rank, g.num_vertices, g.num_edges)
    if respect_base and g.base is not None:
        return header + (1,) + _encode_from(g, g.base)
    body = None
    for v in range(g.num_vertices):
        body = _encode_from(g, v, body)
    return header + (0,) + body


def isomorphic_labeled(g1: LabeledGraph, g2: LabeledGraph, respect_base: bool = True) -> bool:
    """Label-preserving (and base-preserving, by default) graph isomorphism."""
    if g1.rank != g2.rank or g1.num_vertices != g2.num_vertices:
        return False
    if g1.num_edges != g2.num_edges:
        return False
    if respect_base and (g1.base is None) != (g2.base is None):
        return False
    return canonical_key(g1, respect_base) == canonical_key(g2, respect_base)


# ---------------------------------------------------------------------------
# text format


def format_graph(g: LabeledGraph) -> str:
    lines = [f"rank {g.rank}", f"vertices {g.num_vertices}"]
    if g.base is not None:
        lines.append(f"base {g.base}")
    for src, dst, label in g.edges:
        lines.append(f"edge {src} {dst} {format_letter(label)}")
    return "\n".join(lines) + "\n"

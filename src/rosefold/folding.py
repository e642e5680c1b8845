"""Edge folds on labeled graphs: wedge construction, fold sequences,
extraction of the last pre-rose-lift stage with its small witness
subgraph, and arc-replacement surgery.

A fold identifies two distinct oriented edges that leave one vertex with
the same letter.  The engine below runs on a union-find structure so a
full fold sequence costs near-linear time; traces record one (kept,
removed) oriented-edge pair per fold, which is enough to replay any
intermediate stage or push a path forward through the sequence.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterator

from .graphs import (
    Arc,
    EdgePath,
    LabeledGraph,
    arc_endpoints,
    arc_interior,
    canonical_key,
    is_connected,
    is_rose,
    subgraph_as_graph,
    subgraph_from_edges,
)
from .words import GenTuple, Word, letter_key

POLICIES = ("least", "greatest", "defer_rose")


def wedge_of_loops(t: GenTuple) -> LabeledGraph:
    """Based wedge whose i-th petal reads the i-th tuple entry.

    Identity entries contribute no petal; they are stabilization filler
    and a degenerate loop would leave the graph unreduced.
    """
    edges: list[tuple[int, int, int]] = []
    next_vertex = 1
    for word in t.entries:
        letters = word.letters
        if not letters:
            continue
        prev = 0
        for i, letter in enumerate(letters):
            last = i == len(letters) - 1
            target = 0 if last else next_vertex
            if not last:
                next_vertex += 1
            edges.append((prev, target, letter))
            prev = target
    return LabeledGraph(t.rank, next_vertex, tuple(edges), base=0)


def petal_paths(t: GenTuple, wedge: LabeledGraph) -> list[EdgePath]:
    """The petal loops of ``wedge_of_loops(t)`` as based paths, in tuple
    order (identity entries yield length-0 paths)."""
    paths = []
    eid = 0
    for word in t.entries:
        if not word.letters:
            paths.append(EdgePath(wedge, (), 0))
            continue
        tokens = tuple(range(eid + 1, eid + 1 + len(word.letters)))
        eid += len(word.letters)
        paths.append(EdgePath(wedge, tokens, 0))
    return paths


@dataclass(frozen=True)
class FoldRecord:
    """One fold: ``kept`` and ``removed`` are oriented tokens (original
    edge ids) leaving the fold vertex with the same letter."""

    kept: int
    removed: int


class _Engine:
    """Mutable fold state over the original edge set."""

    def __init__(self, graph: LabeledGraph):
        self.graph = graph
        self.parent = list(range(graph.num_vertices))
        self.cls_min = list(range(graph.num_vertices))
        self.size = [1] * graph.num_vertices
        self.alive = [True] * graph.num_edges
        self.adj: list[dict[int, set[int]]] = [dict() for _ in range(graph.num_vertices)]
        for k, (src, dst, label) in enumerate(graph.edges):
            self.adj[src].setdefault(label, set()).add(k + 1)
            self.adj[dst].setdefault(-label, set()).add(-(k + 1))

    def find(self, v: int) -> int:
        parent = self.parent
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def head(self, token: int) -> int:
        return self.find(self.graph.omega(token))

    def remove_edge(self, eid: int) -> None:
        src, dst, label = self.graph.edges[eid - 1]
        rs, rd = self.find(src), self.find(dst)
        bucket = self.adj[rs].get(label)
        if bucket is not None:
            bucket.discard(eid)
            if not bucket:
                del self.adj[rs][label]
        bucket = self.adj[rd].get(-label)
        if bucket is not None:
            bucket.discard(-eid)
            if not bucket:
                del self.adj[rd][-label]
        self.alive[eid - 1] = False

    def union(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        for letter, toks in self.adj[rb].items():
            self.adj[ra].setdefault(letter, set()).update(toks)
        self.adj[rb] = {}
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.cls_min[ra] = min(self.cls_min[ra], self.cls_min[rb])
        return ra

    def foldable_letters(self, root: int) -> list[int]:
        return [letter for letter, toks in self.adj[root].items() if len(toks) >= 2]

    def pair(self, root: int, letter: int) -> FoldRecord:
        """The fold of the two least tokens leaving ``root`` with ``letter``."""
        t1, t2 = sorted(self.adj[root][letter])[:2]
        return FoldRecord(kept=t1, removed=t2)

    def makes_lift(self, record: FoldRecord) -> bool:
        """Whether every generator labels an edge between the heads of the
        record's tokens.  Only the merged vertex can gain loops, so on a
        graph with no rose lift this says whether the fold creates one.
        (When the removed edge counts, the kept edge does too.)"""
        ends = {self.head(record.kept), self.head(record.removed)}
        return all(
            any(self.head(tok) in ends for end in ends for tok in self.adj[end].get(gen, ()))
            for gen in range(1, self.graph.rank + 1)
        )

    def apply_record(self, record: FoldRecord) -> None:
        h1 = self.head(record.kept)
        h2 = self.head(record.removed)
        self.remove_edge(abs(record.removed))
        if h1 != h2:
            self.union(h1, h2)

    def materialize(self) -> tuple[LabeledGraph, dict[int, int], dict[int, int]]:
        """Current graph plus vertex map (original -> new) and edge map
        (original topological id -> new topological id)."""
        g = self.graph
        roots = sorted(
            {self.find(v) for v in range(g.num_vertices)},
            key=lambda r: self.cls_min[r],
        )
        vmap_root = {r: i for i, r in enumerate(roots)}
        vmap = {v: vmap_root[self.find(v)] for v in range(g.num_vertices)}
        edges = []
        emap: dict[int, int] = {}
        for k, (src, dst, label) in enumerate(g.edges):
            if not self.alive[k]:
                continue
            emap[k] = len(edges)
            edges.append((vmap[src], vmap[dst], label))
        base = vmap[g.base] if g.base is not None else None
        return LabeledGraph(g.rank, len(roots), tuple(edges), base), vmap, emap


class _StageView:
    """The engine's current stage of a based graph as ``canonical_key``
    reads it, without materializing it: union-find roots are the vertex
    ids, and the live vertex and edge counts make the header.  Each root
    keeps its label groups until a fold touches it."""

    def __init__(self, engine: _Engine):
        g = engine.graph
        self.engine = engine
        self.rank = g.rank
        self.num_vertices = g.num_vertices
        self.num_edges = g.num_edges
        self.base = g.base
        self.label_groups: list[list | None] = [self._groups(v) for v in range(g.num_vertices)]

    def _groups(self, root: int) -> list:
        adj, head = self.engine.adj[root], self.engine.head
        out = []
        for letter in sorted(adj, key=letter_key):
            targets = [head(tok) for tok in adj[letter]]
            out.append(letter_key(letter) + (targets, list(dict.fromkeys(targets))))
        return out

    def apply_record(self, record: FoldRecord) -> None:
        """Fold, then rebuild the groups that name a head: the merged head's
        and its neighbours' (the fold vertex and both heads' neighbours)."""
        engine = self.engine
        heads = engine.head(record.kept), engine.head(record.removed)
        engine.apply_record(record)
        self.num_edges -= 1
        root = engine.find(heads[0])
        if heads[0] != heads[1]:
            self.num_vertices -= 1
            self.label_groups[heads[0] + heads[1] - root] = None  # absorbed
        self.base = engine.find(self.base)
        dirty = {root, *(engine.head(tok) for toks in engine.adj[root].values() for tok in toks)}
        for v in dirty:
            self.label_groups[v] = self._groups(v)


@dataclass(frozen=True)
class Stage:
    """A materialized fold stage, with maps from the initial graph."""

    graph: LabeledGraph
    vertex_map: dict[int, int]
    edge_map: dict[int, int]


@dataclass(frozen=True)
class FoldTrace:
    """A fold sequence from ``initial`` to the folded ``terminal``.

    Stages are replayed on demand from the records rather than stored;
    stage(0) is the initial graph and stage(len(records)) the terminal.
    ``stage(k)`` replays k records; ``stages()`` yields them all in one
    replay.
    ``first_lift_stage`` is the first stage containing a rose lift (only
    tracked under the defer_rose policy): 0, or the stage after the first
    fold that passes the local lift test ``_Engine.makes_lift``.
    """

    initial: LabeledGraph
    records: tuple[FoldRecord, ...]
    terminal: LabeledGraph
    policy: str
    first_lift_stage: int | None = None

    @property
    def num_folds(self) -> int:
        return len(self.records)

    @property
    def delta_index(self) -> int | None:
        if self.first_lift_stage is None or self.first_lift_stage == 0:
            return None
        return self.first_lift_stage - 1

    def stage(self, k: int) -> Stage:
        if not (0 <= k <= len(self.records)):
            raise IndexError("stage index out of range")
        engine = _Engine(self.initial)
        for record in self.records[:k]:
            engine.apply_record(record)
        graph, vmap, emap = engine.materialize()
        return Stage(graph, vmap, emap)

    def stage_keys(self) -> Iterator[tuple]:
        """``canonical_key(stage(k).graph)`` for every k in order, from one
        replay; a based initial graph's stages are read off the engine
        (``_StageView``) instead of being materialized."""
        if self.initial.base is None:
            for stage in self.stages():
                yield canonical_key(stage.graph)
            return
        view = _StageView(_Engine(self.initial))
        yield canonical_key(view)
        for record in self.records:
            view.apply_record(record)
            yield canonical_key(view)

    def stages(self) -> Iterator[Stage]:
        """Every stage in order, replaying the records once; each equals
        ``stage(k)``."""
        engine = _Engine(self.initial)
        yield Stage(*engine.materialize())
        for record in self.records:
            engine.apply_record(record)
            yield Stage(*engine.materialize())

    def push_path(self, path: EdgePath, k: int, stage: Stage | None = None) -> EdgePath:
        """Image of a path of the initial graph in stage ``k``."""
        if stage is None:
            stage = self.stage(k)
        replaced: dict[int, FoldRecord] = {}
        for record in self.records[:k]:
            replaced[abs(record.removed)] = record
        tokens = []
        for token in path.tokens:
            while abs(token) in replaced:
                record = replaced[abs(token)]
                token = record.kept if token == record.removed else -record.kept
            new_id = stage.edge_map[abs(token) - 1] + 1
            tokens.append(new_id if token > 0 else -new_id)
        return EdgePath(stage.graph, tuple(tokens), stage.vertex_map[path.start])


def _heap_key(engine: _Engine, root: int, letter: int, greatest: bool) -> tuple:
    gen, sgn = letter_key(letter)
    if greatest:
        return (-engine.cls_min[root], -gen, -sgn)
    return (engine.cls_min[root], gen, sgn)


def fold_all(g: LabeledGraph, policy: str = "least") -> FoldTrace:
    """Fold until no two edges share a source vertex and a letter.

    Policies: "least" picks the least (vertex, letter) pair, "greatest"
    the greatest; "defer_rose" picks the least pair whose fold does not
    create a vertex carrying loops for every generator, falling back to
    the least pair when every available fold creates one.  Until the
    first lift it sets aside the popped pairs that ``_Engine.makes_lift``
    rejects; they return to the heap after the next fold, and the first
    (least) of them is folded when the heap runs dry.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    greatest = policy == "greatest"
    defer = policy == "defer_rose"
    engine = _Engine(g)
    records: list[FoldRecord] = []
    first_lift: int | None = 0 if defer and g.has_rose_lift() else None
    heap: list = []

    def push(root: int) -> None:
        for letter in engine.foldable_letters(root):
            heapq.heappush(heap, (_heap_key(engine, root, letter, greatest), root, letter))

    for v in range(g.num_vertices):
        push(v)
    set_aside: list = []
    while heap or set_aside:
        if heap:
            key, root, letter = heapq.heappop(heap)
            if engine.find(root) != root or len(engine.adj[root].get(letter, ())) < 2:
                continue
            fresh = _heap_key(engine, root, letter, greatest)
            if fresh != key:
                heapq.heappush(heap, (fresh, root, letter))
                continue
            record = engine.pair(root, letter)
            if defer and first_lift is None and engine.makes_lift(record):
                set_aside.append((key, root, letter))
                continue
        else:
            _, root, letter = set_aside[0]
            record = engine.pair(root, letter)
            first_lift = len(records) + 1
        engine.apply_record(record)
        records.append(record)
        for entry in set_aside:
            heapq.heappush(heap, entry)
        set_aside.clear()
        for r in {engine.find(root), engine.head(record.kept)}:
            push(r)
    terminal, _, _ = engine.materialize()
    return FoldTrace(g, tuple(records), terminal, policy, first_lift)


@dataclass(frozen=True)
class PsiWitness:
    """A small connected subgraph of the pre-lift stage that folds onto
    the rose; edge ids refer to that stage's graph."""

    edge_ids: tuple[int, ...]
    graph: LabeledGraph


@dataclass(frozen=True)
class DeltaExtraction:
    trace: FoldTrace
    delta: LabeledGraph
    delta_stage: Stage
    delta_stage_index: int
    psi: PsiWitness
    degenerate: bool


def _prune_psi(delta: LabeledGraph, edge_ids: list[int]) -> list[int]:
    """Greedily drop edges while the rest stays connected and still folds
    onto the rose (breadth-first over ids, restarting after each drop)."""
    current = list(edge_ids)
    changed = True
    while changed:
        changed = False
        for k in sorted(current):
            rest = [e for e in current if e != k]
            if not rest:
                continue
            view = subgraph_as_graph(delta, subgraph_from_edges(delta, rest))
            if is_connected(view) and is_rose(fold_all(view).terminal):
                current = rest
                changed = True
                break
    return current


def _lift_loops(g: LabeledGraph) -> list[int]:
    """The least loop of each generator at the least rose-lift vertex."""
    v = g.rose_lift_vertex()
    assert v is not None, "expected a rose lift"
    return [
        min(k for k, (s, d, l) in enumerate(g.edges) if s == d == v and abs(l) == gen)
        for gen in range(1, g.rank + 1)
    ]


def fold_to_delta(g: LabeledGraph) -> DeltaExtraction:
    """Run the lift-deferring fold sequence and extract the last stage
    with no rose lift, together with a witness subgraph of at most
    rank+2 edges that folds onto the rose.

    When the input itself already carries a rose lift there is no
    pre-lift stage; the stage before the final fold is returned instead
    and flagged degenerate (with a zero-fold sequence this is an error).
    Otherwise every fold available on delta is checked to pass the local
    lift test ``_Engine.makes_lift``.
    """
    trace = fold_all(g, policy="defer_rose")
    if not is_rose(trace.terminal):
        raise ValueError("input graph does not fold onto the rose")
    n = g.rank
    degenerate = trace.first_lift_stage == 0
    if degenerate:
        if not trace.records:
            raise ValueError(
                "graph already contains a rose lift and admits no folds; "
                "no pre-lift stage exists"
            )
        delta_index = len(trace.records) - 1
    else:
        assert trace.first_lift_stage is not None
        delta_index = trace.first_lift_stage - 1
    stage = trace.stage(delta_index)
    delta = stage.graph

    if degenerate:
        psi_ids = sorted(_lift_loops(delta))
    else:
        # the folded pair and the edges that become the lift's loops
        record = trace.records[delta_index]
        next_stage = trace.stage(delta_index + 1)
        inverse_emap = {new: orig for orig, new in next_stage.edge_map.items()}
        psi_orig = {abs(record.kept) - 1, abs(record.removed) - 1}
        psi_orig.update(inverse_emap[loop] for loop in _lift_loops(next_stage.graph))
        psi_ids = sorted(stage.edge_map[e] for e in psi_orig)

    psi_ids = _prune_psi(delta, psi_ids)
    psi_graph = subgraph_as_graph(delta, subgraph_from_edges(delta, psi_ids))
    assert len(psi_ids) <= n + 2, "witness subgraph exceeds rank+2 edges"
    assert is_connected(psi_graph)
    assert is_rose(fold_all(psi_graph).terminal)
    if not degenerate:
        assert not delta.has_rose_lift()
        # every fold available on delta must produce a lift
        engine = _Engine(delta)
        for v in range(delta.num_vertices):
            for letter in engine.foldable_letters(v):
                assert engine.makes_lift(engine.pair(v, letter)), "delta admits a lift-free fold"
    return DeltaExtraction(
        trace, delta, stage, delta_index, PsiWitness(tuple(psi_ids), psi_graph), degenerate
    )


# ---------------------------------------------------------------------------
# arc replacement


def replace_arc(g: LabeledGraph, arc: Arc, new_label: Word) -> LabeledGraph:
    """Delete the arc and glue a fresh chain reading ``new_label`` between
    the same endpoints.  The arc interior must avoid the base vertex."""
    if new_label.rank != g.rank:
        raise ValueError("rank mismatch")
    for a, b in zip(arc.edges, arc.edges[1:]):
        if g.omega(a) != g.alpha(b):
            raise ValueError("not an arc of this graph")
    interior = arc_interior(g, arc)
    for v in interior:
        if g.degree(v) != 2:
            raise ValueError("arc interior vertex has degree != 2")
        if g.base is not None and v == g.base:
            raise ValueError("arc interior contains the base vertex")
    start, end = arc_endpoints(g, arc)
    dead_edges = {abs(tok) - 1 for tok in arc.edges}
    dead_verts = set(interior)

    kept = [v for v in range(g.num_vertices) if v not in dead_verts]
    remap = {v: i for i, v in enumerate(kept)}
    edges = [
        (remap[s], remap[d], l)
        for k, (s, d, l) in enumerate(g.edges)
        if k not in dead_edges
    ]
    base = remap.get(g.base) if g.base is not None else None

    if len(new_label) == 0:
        a, b = remap[start], remap[end]
        if a != b:
            lo, hi = min(a, b), max(a, b)
            shift = lambda v: (lo if v == hi else v) - (1 if v > hi else 0)
            edges = [(shift(s), shift(d), l) for s, d, l in edges]
            if base is not None:
                base = shift(base)
            return LabeledGraph(g.rank, len(kept) - 1, tuple(edges), base)
        return LabeledGraph(g.rank, len(kept), tuple(edges), base)

    prev = remap[start]
    next_vertex = len(kept)
    for i, letter in enumerate(new_label.letters):
        last = i == len(new_label) - 1
        target = remap[end] if last else next_vertex
        if not last:
            next_vertex += 1
        edges.append((prev, target, letter))
        prev = target
    return LabeledGraph(g.rank, next_vertex, tuple(edges), base)

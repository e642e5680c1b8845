"""Edge folds on labeled graphs: wedge construction, fold sequences,
the ``fold`` report with its stage digests, extraction of the last
pre-rose-lift stage with its small witness subgraph, and arc-replacement
surgery.

A fold identifies two distinct oriented edges that leave one vertex with
the same letter.  The engine below is a union-find quotient of the graph
(``graphs._Quotient``) so a full fold sequence costs near-linear time;
traces record one (kept, removed) oriented-edge pair per fold, which is
enough to replay any intermediate stage or push a path forward through
the sequence.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterator

from .graphs import (
    Arc,
    EdgePath,
    LabeledGraph,
    _Quotient,
    arc_endpoints,
    arc_interior,
    canonical_key,
    format_graph,
    is_connected,
    is_rose,
    subgraph_as_graph,
    subgraph_from_edges,
)
from .strsearch import _INDEX
from .words import GenTuple, Word

POLICIES = ("least", "greatest", "defer_rose")


def wedge_of_loops(t: GenTuple) -> LabeledGraph:
    """Based wedge whose i-th petal reads the i-th tuple entry.

    Identity entries contribute no petal; they are stabilization filler
    and a degenerate loop would leave the graph unreduced.
    """
    edges: list[tuple[int, int, int]] = []
    next_vertex = 1
    for word in t.entries:
        if word.letters:
            next_vertex = _glue_chain(edges, 0, 0, word.letters, next_vertex)
    return LabeledGraph(t.rank, next_vertex, tuple(edges), base=0)


def _glue_chain(edges: list, start: int, end: int, letters: tuple[int, ...], next_vertex: int) -> int:
    """Append to ``edges`` a chain reading the nonempty ``letters`` from
    ``start`` to ``end`` through new vertices numbered from ``next_vertex``
    on, and return the next unused number."""
    prev = start
    for letter in letters[:-1]:
        edges.append((prev, next_vertex, letter))
        prev = next_vertex
        next_vertex += 1
    edges.append((prev, end, letters[-1]))
    return next_vertex


def petal_paths(t: GenTuple, wedge: LabeledGraph) -> list[EdgePath]:
    """The petal loops of ``wedge_of_loops(t)`` as based paths, in tuple
    order (identity entries yield length-0 paths)."""
    paths = []
    eid = 0
    for word in t.entries:
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


class _Engine(_Quotient):
    """Mutable fold state over the original edge set: a quotient whose
    folds merge the heads of two tokens and remove one of their edges."""

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


class _StageView(_Engine):
    """A fold engine whose label groups (``_Quotient.label_groups``) stay
    current, so that ``canonical_key`` reads each stage as it stands: a
    root keeps its groups until a fold touches it."""

    def apply_record(self, record: FoldRecord) -> None:
        """Fold, then rebuild the groups that name a head: the merged head's
        and those of its groups' targets (the fold vertex and both heads'
        neighbours)."""
        heads = self.head(record.kept), self.head(record.removed)
        super().apply_record(record)
        groups = self.label_groups
        root = self.find(heads[0])
        if heads[0] != heads[1]:
            groups[heads[0] + heads[1] - root] = None  # absorbed
        groups[root] = self.groups(root)
        for v in {t for group in groups[root] for t in group[3]} - {root}:
            groups[v] = self.groups(v)


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
    ``stage(k)`` replays k records; ``stage_views()`` yields every stage
    of a based trace in one replay.
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

    def stage_views(self) -> Iterator[_StageView]:
        """Every stage of a based initial graph in order, from one replay:
        one ``_StageView``, advanced by one record per step, which
        ``canonical_key`` reads as it stands and whose ``materialize()``
        equals ``stage(k)``."""
        view = _StageView(self.initial)
        yield view
        for record in self.records:
            view.apply_record(record)
            yield view

    def push_path(self, path: EdgePath, k: int, stage: Stage) -> EdgePath:
        """Image of a path of the initial graph in stage ``k``, which is
        ``stage``."""
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
    """A fold's (vertex, letter index), negated for the greatest policy."""
    if greatest:
        return (-engine.cls_min[root], -_INDEX[letter])
    return (engine.cls_min[root], _INDEX[letter])


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


def fold_report(t: GenTuple, policy: str, dump_stages: bool) -> dict:
    """The ``fold`` payload but its config: the wedge of ``t`` folded under
    ``policy``, each stage's key digest (and graph, with ``dump_stages``)
    from one replay."""
    import hashlib  # here, so that importing the package does not load it
    wedge = wedge_of_loops(t)
    trace = fold_all(wedge, policy)
    # repr(key) through a table of the strings of every token a stage key
    # can hold (-1 to the wedge's largest count), at half repr's cost
    names = {i: str(i) for i in range(-1, max(t.rank, wedge.num_vertices, wedge.num_edges) + 1)}
    digests, dumps = [], []
    for view in trace.stage_views():
        text = "(" + ", ".join(map(names.__getitem__, canonical_key(view))) + ")"
        digests.append(hashlib.sha256(text.encode()).hexdigest()[:16])
        if dump_stages:
            dumps.append(format_graph(view.materialize()[0]))
    report = {
        "initial_edges": wedge.num_edges,
        "folds": trace.num_folds,
        "terminal": format_graph(trace.terminal),
        "terminal_is_rose": is_rose(trace.terminal),
        "records": [(r.kept, r.removed) for r in trace.records],
        "stage_digests": digests,
        "delta_index": trace.delta_index,
    }
    if dump_stages:
        report["stages"] = dumps
    return report


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
    lift test ``_Engine.makes_lift``.  A failed postcondition raises
    RuntimeError.
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
    if len(psi_ids) > n + 2:
        raise RuntimeError("witness subgraph exceeds rank+2 edges")
    if not is_connected(psi_graph):
        raise RuntimeError("witness subgraph is not connected")
    if not is_rose(fold_all(psi_graph).terminal):
        raise RuntimeError("witness subgraph does not fold onto the rose")
    if not degenerate:
        if delta.has_rose_lift():
            raise RuntimeError("delta has a rose lift")
        # every fold available on delta must produce a lift
        engine = _Engine(delta)
        for v in range(delta.num_vertices):
            for letter in engine.foldable_letters(v):
                if not engine.makes_lift(engine.pair(v, letter)):
                    raise RuntimeError("delta admits a lift-free fold")
    return DeltaExtraction(
        trace, delta, stage, delta_index, PsiWitness(tuple(psi_ids), psi_graph), degenerate
    )


# ---------------------------------------------------------------------------
# arc replacement


def replace_arc(g: LabeledGraph, arc: Arc, new_label: Word) -> LabeledGraph:
    """Delete the arc and glue a fresh chain reading ``new_label`` between
    the same endpoints.  The arc interior must avoid the base vertex.

    An empty label identifies the endpoints (a loop arc just goes).
    Surgery meets one when the replaced pattern is whole periods of its
    relator rotation, which short relators allow."""
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

    next_vertex = _glue_chain(edges, remap[start], remap[end], new_label.letters, len(kept))
    return LabeledGraph(g.rank, next_vertex, tuple(edges), base)

"""Edge folds on labeled graphs: wedge construction, fold sequences,
the ``fold`` report with its stage digests, extraction of the last
pre-rose-lift stage with its small witness subgraph, and arc-replacement
surgery.

A fold identifies two distinct oriented edges that leave one vertex with
the same letter.  A union-find quotient of the graph (``graphs._Quotient``)
folds and keeps its label groups current; this module holds the fold
policy over it.  A fold sequence costs near-linear time only while each
vertex has few edges per letter, as on wedges of reduced words: a fold
sorts its slot (``_Quotient.pair``) and scans it to remove an edge, so a
vertex with k edges of one letter costs time quadratic in k.  Traces
record one (kept, removed) oriented-edge pair per fold, which is enough to
replay any intermediate stage or push a path forward through the sequence.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Sequence

from .graphs import (
    EdgePath,
    LabeledGraph,
    Subgraph,
    _Quotient,
    canonical_key,
    format_graph,
    is_connected,
    is_rose,
    subgraph_as_graph,
    subgraph_from_edges,
)
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


@dataclass(frozen=True, slots=True)
class FoldRecord:
    """One fold: ``kept`` and ``removed`` are oriented tokens (original
    edge ids) leaving the fold vertex with the same letter."""

    kept: int
    removed: int


def _makes_lift(q: _Quotient, record: FoldRecord) -> bool:
    """Whether every generator labels an edge between the heads of the
    record's tokens in ``q``.  Only the merged vertex can gain loops, so on
    a graph with no rose lift this says whether the fold creates one.
    (When the removed edge counts, the kept edge does too.)"""
    ends = {q.head(record.kept), q.head(record.removed)}
    width, slots = q.width, q.slots
    return all(
        any(q.head(tok) in ends for end in ends for tok in slots[end * width + 2 * gen - 2] or ())
        for gen in range(1, q.graph.rank + 1)
    )


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
    ``stage_views()`` yields every stage in one replay, and ``stage(k)``
    replays its first k records.
    ``first_lift_stage`` is the first stage containing a rose lift (only
    tracked under the defer_rose policy): 0, or the stage after the first
    fold that passes the local lift test ``_makes_lift``.
    """

    initial: LabeledGraph
    records: tuple[FoldRecord, ...]
    terminal: LabeledGraph
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
        """The k-th view of ``stage_views()``, materialized."""
        if not (0 <= k <= len(self.records)):
            raise IndexError("stage index out of range")
        return Stage(*next(islice(self.stage_views(), k, None)).materialize())

    def stage_views(self) -> Iterator[_Quotient]:
        """Every stage in order, from one replay: one quotient of the
        initial graph, folded by one record per step, which
        ``canonical_key`` reads as it stands (of a based initial graph)."""
        q = _Quotient(self.initial)
        yield q
        for record in self.records:
            q.fold(record.kept, record.removed)
            yield q

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


def fold_all(g: LabeledGraph, policy: str = "least") -> FoldTrace:
    """Fold until no two edges share a source vertex and a letter.

    Policies: "least" picks the least (vertex, letter) pair, "greatest"
    the greatest; "defer_rose" picks the least pair whose fold does not
    create a vertex carrying loops for every generator, falling back to
    the least pair when every available fold creates one.  Until the
    first lift it sets aside the popped slots whose folds
    ``_makes_lift`` rejects; they return to the heap after the next
    fold, and the first (least) of them is folded when the heap runs dry.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    sign = -1 if policy == "greatest" else 1
    defer = policy == "defer_rose"
    q = _Quotient(g)
    records: list[FoldRecord] = []
    first_lift: int | None = 0 if defer and g.has_rose_lift() else None
    # entries are slots ``root * width + i``, negated for the greatest
    # policy: a root is its class's least vertex and i < width, so slots sort
    # in (root, letter index) order and an entry's order never changes, and a
    # root that a union absorbed has no tokens left
    heap: list[int] = []
    slots, width = q.slots, q.width

    def push(root: int) -> None:
        # inlined: with a method call per push ``fold_all`` ran about 7 %
        # longer on the foldall-3000 wedges (CPython 3.11.7, 2 vCPUs)
        for s, toks in enumerate(slots[root * width : (root + 1) * width], root * width):
            if toks is not None and len(toks) >= 2:
                heapq.heappush(heap, sign * s)

    for v in range(g.num_vertices):
        push(v)
    set_aside: list[int] = []
    while heap or set_aside:
        if heap:
            s = sign * heapq.heappop(heap)
            toks = slots[s]
            if toks is None or len(toks) < 2:
                continue
            record = FoldRecord(*q.pair(s))
            if defer and first_lift is None and _makes_lift(q, record):
                set_aside.append(s)
                continue
        else:
            s = set_aside[0]
            record = FoldRecord(*q.pair(s))
            first_lift = len(records) + 1
        q.fold(record.kept, record.removed)
        records.append(record)
        for kept in set_aside:  # only defer_rose sets aside, with sign 1
            heapq.heappush(heap, kept)
        set_aside.clear()
        for r in {q.find(s // width), q.head(record.kept)}:
            push(r)
    terminal, _, _ = q.materialize()
    return FoldTrace(g, tuple(records), terminal, first_lift)


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


def fold_to_delta(g: LabeledGraph) -> DeltaExtraction:
    """Run the lift-deferring fold sequence and extract the last stage
    with no rose lift, together with a witness subgraph of at most
    rank+2 edges that folds onto the rose.

    When the input itself already carries a rose lift there is no
    pre-lift stage; the stage before the final fold is returned instead
    and flagged degenerate (with a zero-fold sequence this is an error).
    Otherwise every fold available on delta is checked to pass the local
    lift test ``_makes_lift``.  A failed postcondition raises
    RuntimeError.
    """
    trace = fold_all(g, policy="defer_rose")
    if not is_rose(trace.terminal):
        raise ValueError("input graph does not fold onto the rose")
    n = g.rank
    degenerate = trace.first_lift_stage == 0
    if degenerate and not trace.records:
        raise ValueError(
            "graph already contains a rose lift and admits no folds; "
            "no pre-lift stage exists"
        )
    delta_index = len(trace.records) - 1 if degenerate else trace.delta_index
    stage = trace.stage(delta_index)
    delta = stage.graph

    if degenerate:
        loops = delta.rose_lift_loops()
        if loops is None:
            raise RuntimeError("degenerate delta has no rose lift")
        psi_ids = sorted(loops)
    else:
        # the folded pair and the edges that become the lift's loops: delta
        # has no rose lift, so they are its edges between the fold's heads
        # but the removed one (the edge maps keep input order)
        record = trace.records[delta_index]
        heads = {stage.vertex_map[g.omega(record.kept)], stage.vertex_map[g.omega(record.removed)]}
        removed = stage.edge_map[abs(record.removed) - 1]
        loops = [k for k, (s, d, _) in enumerate(delta.edges) if s in heads and d in heads and k != removed]
        psi = {stage.edge_map[abs(record.kept) - 1], removed}
        psi_ids = sorted(psi.union(min(k for k in loops if abs(delta.edges[k][2]) == gen) for gen in range(1, n + 1)))

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
        q = _Quotient(delta)
        for s, toks in enumerate(q.slots):
            if toks is not None and len(toks) >= 2 and not _makes_lift(q, FoldRecord(*q.pair(s))):
                raise RuntimeError("delta admits a lift-free fold")
    return DeltaExtraction(
        trace, delta, stage, delta_index, PsiWitness(tuple(psi_ids), psi_graph), degenerate
    )


# ---------------------------------------------------------------------------
# arc replacement


def replace_arc(g: LabeledGraph, tokens: Sequence[int], new_label: Word) -> LabeledGraph:
    """Delete the arc that the oriented edges ``tokens`` run along and glue
    a fresh chain reading ``new_label`` between the same endpoints.  The
    tokens must concatenate, use each edge once, and pass through interior
    vertices of degree 2 other than the base vertex.

    An empty label identifies the endpoints (a loop arc just goes).
    Surgery meets one when the replaced pattern is whole periods of its
    relator rotation, which short relators allow."""
    if new_label.rank != g.rank:
        raise ValueError("rank mismatch")
    if not tokens:
        raise ValueError("empty arc")
    for a, b in zip(tokens, tokens[1:]):
        if g.omega(a) != g.alpha(b):
            raise ValueError("arc edges do not concatenate")
    dead_edges = {abs(tok) - 1 for tok in tokens}
    if len(dead_edges) < len(tokens):
        raise ValueError("arc repeats a topological edge")
    interior = {g.omega(tok) for tok in tokens[:-1]}
    if any(g.degree(v) != 2 for v in interior):
        raise ValueError("arc interior vertex has degree != 2")
    if g.base in interior:
        raise ValueError("arc interior contains the base vertex")
    # an interior vertex's two edges are arc edges, so the rest is a subgraph
    kept = subgraph_as_graph(g, Subgraph(
        frozenset(range(g.num_vertices)) - interior, frozenset(range(g.num_edges)) - dead_edges
    ))
    # the endpoints' numbers among the kept vertices
    start, end = (
        v - sum(u < v for u in interior) for v in (g.alpha(tokens[0]), g.omega(tokens[-1]))
    )
    if new_label:
        edges = list(kept.edges)
        next_vertex = _glue_chain(edges, start, end, new_label.letters, kept.num_vertices)
        return LabeledGraph(g.rank, next_vertex, tuple(edges), kept.base)
    if start == end:
        return kept
    q = _Quotient(kept)
    q.union(start, end)
    return q.materialize()[0]

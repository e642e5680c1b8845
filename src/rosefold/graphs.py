"""Labeled graphs over the rank-n rose: their union-find quotients,
Betti numbers, subgraph collapse, and label-preserving isomorphism.

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
from operator import itemgetter
from typing import Iterable

from .strsearch import _INDEX, _letter_rows
from .words import check_letter, format_letter


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

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int, int], ...], ...]:
        """Per-vertex list of (letter, target, token), sorted for determinism."""
        out: list[list[tuple[int, int, int]]] = [[] for _ in range(self.num_vertices)]
        for k, (src, dst, label) in enumerate(self.edges):
            out[src].append((label, dst, k + 1))
            out[dst].append((-label, src, -(k + 1)))
        key = lambda rec: (_INDEX[rec[0]], rec[1], rec[2])
        return tuple(tuple(sorted(lst, key=key)) for lst in out)

    @cached_property
    def letter_rows(self) -> list[list[int]]:
        """Per letter index (``strsearch._INDEX``), the bitmask of the
        vertices each vertex reaches by one edge reading that letter; built
        in one pass over the edges.  Shared by every reader: not to be
        mutated."""
        return _letter_rows(self.rank, self.num_vertices, [(s, d, _INDEX[l]) for s, d, l in self.edges])

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def has_rose_lift(self) -> bool:
        """True when some vertex carries a loop for every generator."""
        return self.rose_lift_loops() is not None

    def rose_lift_loops(self) -> list[int] | None:
        """At the least vertex carrying a loop for every generator, the
        least loop (edge id) of each generator, in generator order; None
        when no vertex carries one."""
        loops: list[dict[int, int]] = [{} for _ in range(self.num_vertices)]
        for k, (src, dst, label) in enumerate(self.edges):
            if src == dst:
                loops[src].setdefault(abs(label), k)
        gens = next((gens for gens in loops if len(gens) == self.rank), None)
        return None if gens is None else [gens[gen] for gen in range(1, self.rank + 1)]


def is_rose(g: LabeledGraph) -> bool:
    return g.num_vertices == 1 and sorted(abs(l) for _, _, l in g.edges) == list(
        range(1, g.rank + 1)
    )


class _Quotient:
    """A quotient of a graph: its vertices merged into classes by a
    union-find (path halving), some of its edges removed.

    A class is named by its root, its least vertex: a union links the
    greater root below the lesser.  ``slots`` is one flat list of
    ``width = 2 * rank`` slots per vertex, one per letter in the letter
    order: slot ``root * width + i`` lists the live oriented tokens leaving
    the class of ``root`` with the letter of index ``i``, or is None when
    there are none, and every slot of a vertex that is not a root is None.
    ``ends`` holds the original end vertex of every token.  ``num_vertices``
    and ``num_edges`` count the classes and the live edges.  A quotient is
    the fold engine: ``fold`` advances it by one fold, and ``pair`` names
    the fold of a slot; ``collapse`` and ``component_count`` contract
    edges of one, and ``canonical_key`` encodes one."""

    def __init__(self, graph: LabeledGraph):
        n = graph.num_vertices
        width = 2 * graph.rank
        self.graph = graph
        self.width = width
        self.num_vertices = n
        self.num_edges = graph.num_edges
        self.parent = list(range(n))
        self.alive = [True] * graph.num_edges
        slots: list[list[int] | None] = [None] * (n * width)
        for k, (src, dst, label) in enumerate(graph.edges, 1):
            i = _INDEX[label]
            s = src * width + i
            if slots[s] is None:
                slots[s] = [k]
            else:
                slots[s].append(k)
            s = dst * width + (i ^ 1)
            if slots[s] is None:
                slots[s] = [-k]
            else:
                slots[s].append(-k)
        self.slots = slots
        # ends[+(k+1)] is edge k's dst and ends[-(k+1)] its src, by
        # Python's negative indexing
        self.ends = [0] + [dst for _, dst, _ in graph.edges] + [src for src, _, _ in reversed(graph.edges)]
        # per letter index: the head of its label group, (generator, sign bit)
        self.labels = [((i >> 1) + 1, i & 1) for i in range(width)]
        # per root, its class's label groups (other vertices hold None or
        # stale groups, which nothing reads): built when ``_encode_from``
        # first reads them, and kept current from then on by ``fold``
        self.label_groups: list[list | None] | None = None

    def find(self, v: int) -> int:
        parent = self.parent
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def head(self, token: int) -> int:
        return self.find(self.ends[token])

    def pair(self, slot: int) -> list[int]:
        """The fold of ``slot``: its two least tokens, the kept one first."""
        return sorted(self.slots[slot])[:2]

    def fold(self, kept: int, removed: int) -> None:
        """Fold the token ``removed`` onto ``kept``: remove its edge and
        merge the two heads.  Once ``canonical_key`` has read the label
        groups, rebuild the ones that name a head, so that it reads each
        stage as it stands: the merged head's and those of its groups'
        targets (the fold vertex and both heads' neighbours).  Only roots'
        groups are read: the absorbed head's stay."""
        ends = self.ends
        self.remove_and_merge(abs(removed), ends[kept], ends[removed])
        groups = self.label_groups
        if groups is not None:
            root = self.find(ends[kept])
            groups[root] = self.groups(root)
            for v in {t for group in groups[root] for t in group[3]} - {root}:
                groups[v] = self.groups(v)

    def remove_and_merge(self, eid: int, u: int, v: int) -> None:
        """Remove edge ``eid`` from its two slots and merge the classes of
        the vertices ``u`` and ``v`` when they differ."""
        src, dst, label = self.graph.edges[eid - 1]
        i, width, slots = _INDEX[label], self.width, self.slots
        for s, token in ((self.find(src) * width + i, eid), (self.find(dst) * width + (i ^ 1), -eid)):
            toks = slots[s]
            toks.remove(token)
            if not toks:
                slots[s] = None
        self.alive[eid - 1] = False
        self.num_edges -= 1
        ru, rv = self.find(u), self.find(v)
        if ru != rv:
            self.union(ru, rv)

    def union(self, ra: int, rb: int) -> None:
        """Merge the classes of two distinct roots into the lesser root.
        Per slot the shorter token list is spliced into the longer, so a
        token moves O(log E) times over any sequence of unions."""
        if rb < ra:
            ra, rb = rb, ra
        width, slots = self.width, self.slots
        b = rb * width
        for s, toks in enumerate(slots[b : b + width], ra * width):
            if toks is not None:
                kept = slots[s]
                if kept is None or len(kept) < len(toks):
                    slots[s], toks = toks, kept
                if toks is not None:
                    slots[s] += toks
        slots[b : b + width] = [None] * width
        self.parent[rb] = ra
        self.num_vertices -= 1

    def materialize(self) -> tuple[LabeledGraph, dict[int, int], dict[int, int]]:
        """The quotient as a graph, its classes numbered in the order of
        their least vertices and its live edges kept in input order, plus
        the vertex map (original -> new) and the edge map (original
        topological id -> new topological id)."""
        g = self.graph
        roots = [v for v, p in enumerate(self.parent) if p == v]
        vmap_root = {r: i for i, r in enumerate(roots)}
        vmap = {v: vmap_root[self.find(v)] for v in range(g.num_vertices)}
        edges = []
        emap: dict[int, int] = {}
        for k, (src, dst, label) in enumerate(g.edges):
            if self.alive[k]:
                emap[k] = len(edges)
                edges.append((vmap[src], vmap[dst], label))
        base = vmap[g.base] if g.base is not None else None
        return LabeledGraph(g.rank, len(roots), tuple(edges), base), vmap, emap

    def groups(self, root: int) -> list:
        """The label groups of a class, as ``_encode_from`` reads them: per
        letter leaving it, in the letter order, ``(gen, sign, targets with
        multiplicity, distinct targets)``, the targets being roots."""
        ends, parent, width = self.ends, self.parent, self.width
        out = []
        for (gen, sign), toks in zip(self.labels, self.slots[root * width : (root + 1) * width]):
            if toks is not None:
                targets = []
                for tok in toks:
                    v = ends[tok]
                    while parent[v] != v:  # ``find`` inlined, without halving
                        v = parent[v]
                    targets.append(v)
                out.append((gen, sign, targets, targets if len(targets) == 1 else list(dict.fromkeys(targets))))
        return out


def _contract(g: LabeledGraph, edge_ids: Iterable[int]) -> _Quotient:
    """``g`` with the edges ``edge_ids`` removed and their ends merged."""
    q = _Quotient(g)
    for k in edge_ids:
        src, dst, _ = g.edges[k]
        q.remove_and_merge(k + 1, src, dst)
    return q


def component_count(g: LabeledGraph) -> int:
    return _contract(g, range(g.num_edges)).num_vertices


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


def subgraph_from_edges(g: LabeledGraph, edge_ids: Iterable[int]) -> Subgraph:
    edge_ids = frozenset(edge_ids)
    verts = set()
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
    return _contract(g, sub.edges).materialize()[0]


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


# ---------------------------------------------------------------------------
# canonical form and isomorphism


def _encode_from(g: _Quotient, start: int) -> tuple:
    """Least BFS encoding of the quotient ``g`` from the root ``start``.

    The vertices are the roots of ``g``: their ids are the original
    vertex ids, which may skip numbers, and ``g.label_groups``, built on
    the first key, gives their label groups (``_Quotient.groups``).

    Vertices are numbered in discovery order, and vertex number q emits
    segment q: per label group, in the letter order, one (gen, sign, number)
    triple per edge with the numbers sorted, then -1.  Of all discovery
    orders the least concatenation wins, so the encoding depends on the
    isomorphism class alone.  Every segment ends in -1, the least token,
    so comparing encodings segment by segment is comparing them token by
    token.

    The search is one forward pass, with no recursion.  Targets that no
    emitted segment tells apart share a cell: a run of numbers whose order
    is still open (``cells`` maps each member to the end of its run).
    Emitting a vertex's segment numbers its new targets and splits the
    cells its edges touch, members sorted by their edge counts per label
    group, most first: every other order gives a greater segment.  Only
    when the segment of number q is due and q opens a cell does the
    numbering fork, one child per member; the children of one numbering
    are a family.  All live numberings advance in lockstep, one segment
    per step: a child whose segment is greater than another's is dropped,
    so only tied numberings survive.  A tied child is dropped too when an
    automorphism fixing the numbered prefix maps a kept child of its own
    family to it (``_automorphic``): both lead to the same encodings
    (McKay's automorphism pruning).  A single survivor runs a loop with no
    copying and no compares.  A finished numbering that misses a vertex
    means the graph is disconnected (ValueError).
    """
    if g.label_groups is None:
        g.label_groups = [g.groups(v) if g.parent[v] == v else None for v in range(len(g.parent))]
    groups = g.label_groups
    ids = [-1] * len(groups)
    ids[start] = 0
    tokens: list[int] = []  # the live numberings' common prefix
    live = [(ids, [start], {})]
    q = 0
    while True:
        if len(live) == 1:
            q = _advance(groups, live[0], q, len(groups), tokens)
        if q == len(live[0][1]):
            if q < g.num_vertices:
                raise ValueError("canonical_key expects a connected graph")
            return tuple(tokens)
        # one lockstep step: fork at cells, emit one segment each, keep the least
        children, families = [], []
        for n, numbering in enumerate(live):
            family = _fork(numbering, q) if numbering[1][q] in numbering[2] else [numbering]
            families += [n] * len(family)
            children += family
        chunks = [[] for _ in children]
        for child, chunk in zip(children, chunks):
            _advance(groups, child, q, q + 1, chunk)
        low = min(chunks)
        # prune symmetric siblings before they multiply
        kept: list[list[int]] = [[] for _ in live]  # per family, its kept children's vertex q
        live = []
        for child, chunk, n in zip(children, chunks, families):
            if chunk == low:
                ids, order, _ = child
                if not any(_automorphic(groups, ids, q, x, order[q]) for x in kept[n]):
                    kept[n].append(order[q])
                    live.append(child)
        tokens += low
        q += 1


def _advance(groups, numbering: tuple, q: int, stop: int, out: list[int]) -> int:
    """Append to ``out`` the segments of the vertices numbered ``q`` on,
    up to ``stop``, the first undiscovered number or the first number that
    opens a cell, whichever comes first, and return that number.  Each
    segment numbers its vertex's new targets and splits the cells that
    its edges tell apart."""
    ids, order, cells = numbering
    while q < stop and q < len(order):
        vgroups = groups[order[q]]
        if order[q] in cells:
            break
        for group in vgroups:
            k0, k1, targets, distinct = group
            if len(distinct) == 1 and distinct[0] not in cells:  # most groups
                tid = ids[distinct[0]]
                if tid < 0:
                    tid = ids[distinct[0]] = len(order)
                    order.append(distinct[0])
                out += (k0, k1, tid) * len(targets)
                continue
            first = vgroups.index(group)
            _refine(vgroups, first, ids, order, cells)
            for k0, k1, targets, _ in vgroups[first:]:
                for tid in sorted([ids[t] for t in targets]):
                    out += (k0, k1, tid)
            break
        out.append(-1)
        q += 1
    return q


def _refine(vgroups: list, first: int, ids: list[int], order: list[int], cells: dict) -> None:
    """Number the new targets of groups ``first`` on and order the members
    of every cell they touch, by their edge counts per group from
    ``first`` on, most first; members with equal counts stay in one cell.
    Earlier groups have one target each, already numbered and in no
    cell."""
    counts: dict[int, list[int]] = {}
    width = len(vgroups) - first
    for j in range(first, len(vgroups)):
        for t in vgroups[j][2]:
            if ids[t] < 0 or t in cells:
                count = counts.get(t)
                if count is None:
                    counts[t] = count = [0] * width
                count[j - first] += 1
    spans: dict[int, int] = {}  # end -> start of each touched cell
    new = []
    for t in counts:
        if ids[t] < 0:
            new.append(t)
        elif cells[t] not in spans:
            hi = lo = cells[t]
            while cells.get(order[lo - 1]) == hi:
                lo -= 1
            spans[hi] = lo
    if new:
        spans[len(order) + len(new)] = len(order)
        order += new
    none = [0] * width
    for hi, lo in spans.items():
        members = order[lo:hi]
        keys = [counts.get(t, none) for t in members]
        if keys.count(keys[0]) < len(keys):
            ranked = sorted(zip(keys, members), key=itemgetter(0), reverse=True)
            keys, members = [k for k, _ in ranked], [t for _, t in ranked]
            order[lo:hi] = members
        i = 0
        while i < len(members):  # runs of equal counts stay cells
            j = i + 1
            while j < len(members) and keys[j] == keys[i]:
                j += 1
            for n in range(i, j):
                ids[members[n]] = lo + n
                if j - i == 1:
                    cells.pop(members[n], None)
                else:
                    cells[members[n]] = lo + j
            i = j


def _fork(numbering: tuple, q: int) -> list[tuple]:
    """One copy of ``numbering`` per member of the cell that number ``q``
    opens, that member numbered ``q`` and the others left in a cell after
    it; the last child is ``numbering`` itself."""
    ids, order, cells = numbering
    hi = cells[order[q]]
    members = order[q:hi]
    children = [(ids[:], order[:], dict(cells)) for _ in members[1:]]
    children.append(numbering)
    for x, (ids, order, cells) in zip(members, children):
        i, y = ids[x], order[q]
        order[q], order[i] = x, y
        ids[x], ids[y] = q, i
        del cells[x]
        if hi == q + 2:
            del cells[order[q + 1]]
    return children


def _automorphic(groups, ids: list[int], q: int, x: int, y: int) -> bool:
    """Whether some label-preserving automorphism fixes every vertex
    numbered below ``q`` and maps ``x`` to ``y``.  The map is extended by
    forced steps (a label group with one unmapped target on each side),
    closed into a permutation (each path of the partial map becomes a
    cycle; every other vertex stays fixed) and checked on the vertices it
    moves.  False means none was found."""
    image, preimage, todo = {x: y}, {y: x}, [x]
    while todo:
        a = todo.pop()
        ga, gb = groups[a], groups[image[a]]
        if len(ga) != len(gb):
            return False
        for (a0, a1, ta, da), (b0, b1, tb, db) in zip(ga, gb):
            if a0 != b0 or a1 != b1 or len(ta) != len(tb) or len(da) != len(db):
                return False
            if len(da) == 1:  # most groups
                t, u = da[0], db[0]
                if t in image:
                    if image[t] != u:
                        return False
                elif u in preimage or (t != u and (0 <= ids[t] < q or 0 <= ids[u] < q)):
                    return False
                elif t != u:
                    image[t], preimage[u] = u, t
                    todo.append(t)
                continue
            free = [t for t in da if t not in image and not 0 <= ids[t] < q]
            if len(free) == 1:
                to = [t for t in db if t not in preimage and not 0 <= ids[t] < q]
                if len(to) != 1:
                    return False
                image[free[0]], preimage[to[0]] = to[0], free[0]
                todo.append(free[0])
    for b in [b for b in preimage if b not in image]:
        a = preimage[b]
        while a in preimage:
            a = preimage[a]
        image[b] = a
    for a, b in image.items():
        ga, gb = groups[a], groups[b]
        if len(ga) != len(gb) or any(
            a0 != b0 or a1 != b1 or sorted([image.get(t, t) for t in ta]) != sorted(tb)
            for (a0, a1, ta, _), (b0, b1, tb, _) in zip(ga, gb)
        ):
            return False
    return True


def canonical_key(g) -> tuple:
    """Canonical encoding deciding label- and base-preserving isomorphism
    of based connected graphs: the least encoding from the base, behind
    a header of rank, vertex and edge counts.  A based core graph stands
    for a subgroup, and every pipeline keys based graphs only; an
    unbased or disconnected graph raises ValueError.  ``g`` is a
    ``LabeledGraph``, keyed through its zero-fold ``_Quotient``, or a
    quotient of a based graph (a fold stage)."""
    q = g if isinstance(g, _Quotient) else _Quotient(g)
    if q.graph.base is None:
        raise ValueError("canonical_key expects a based graph")
    return (q.graph.rank, q.num_vertices, q.num_edges, 1) + _encode_from(q, q.find(q.graph.base))


def isomorphic_labeled(g1: LabeledGraph, g2: LabeledGraph) -> bool:
    """Label- and base-preserving isomorphism of based connected graphs."""
    return canonical_key(g1) == canonical_key(g2)


# ---------------------------------------------------------------------------
# text format


def format_graph(g: LabeledGraph) -> str:
    lines = [f"rank {g.rank}", f"vertices {g.num_vertices}"]
    if g.base is not None:
        lines.append(f"base {g.base}")
    for src, dst, label in g.edges:
        lines.append(f"edge {src} {dst} {format_letter(label)}")
    return "\n".join(lines) + "\n"

"""Path lifting, bounded path-surjectivity, the two-vertex cover
characterization, and the exhaustive desk-scale survey that checks it.

Bounded path-surjectivity is decided by a power-set walk (the subset
construction of Rabin and Scott, 1959): track the set of vertices at
which some lift of the word read so far can end.  The word fails to lift
exactly when that set empties, so the shortest non-lifting reduced word
is a breadth-first search over (vertex set, last letter) states; the
state space is tiny for desk-scale graphs.  A vertex set is an int
bitmask, and one step ORs the per-letter target masks of its set bits
(``letter_rows``), so no set object is built per step.

The survey's candidates come from orderly generation (Read 1978; McKay,
"Isomorph-free exhaustive generation", J. Algorithms 1998).  Unlabelled
shapes are grown edge by edge and deduplicated by a permutation key;
on each shape the label assignments are visited in lexicographic order
and only the least one of each orbit of the shape's automorphism group
is emitted.  No labelled graph is hashed, and the output sequence is
fixed by the shape order and the assignment order alone.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Iterator

from .graphs import (
    EdgePath,
    LabeledGraph,
    betti,
    format_graph,
)
from .words import Word, letter_key


def lift_paths(
    g: LabeledGraph, w: Word, start: int, max_lifts: int | None = None
) -> list[EdgePath]:
    """All paths from ``start`` reading ``w``; at most one in a folded graph."""
    if w.rank != g.rank:
        raise ValueError("rank mismatch")
    lifts: list[EdgePath] = []
    stack: list[tuple[int, tuple[int, ...]]] = [(start, ())]
    while stack:
        v, tokens = stack.pop()
        if len(tokens) == len(w):
            lifts.append(EdgePath(g, tokens, start))
            if max_lifts is not None and len(lifts) >= max_lifts:
                break
            continue
        letter = w.letters[len(tokens)]
        for lab, tgt, tok in g.adjacency[v]:
            if lab == letter:
                stack.append((tgt, tokens + (tok,)))
    return lifts


def _letters(rank: int) -> list[int]:
    out = []
    for gen in range(1, rank + 1):
        out.append(gen)
        out.append(-gen)
    return sorted(out, key=letter_key)


def letter_rows(g: LabeledGraph) -> dict[int, list[int]]:
    """Per letter, the bitmask of the vertices each vertex reaches by one
    edge reading that letter; built in one pass over the edges."""
    rows = {letter: [0] * g.num_vertices for letter in _letters(g.rank)}
    for src, dst, label in g.edges:
        rows[label][src] |= 1 << dst
        rows[-label][dst] |= 1 << src
    return rows


def _mask_image(row: list[int], mask: int) -> int:
    """The image of the vertex set ``mask`` under one letter's ``row``:
    the union of the rows of its set bits."""
    image = 0
    while mask:
        low = mask & -mask
        image |= row[low.bit_length() - 1]
        mask ^= low
    return image


def shortest_non_lifting_word(g: LabeledGraph, max_len: int) -> Word | None:
    """Lexicographically least shortest reduced word with no lift anywhere
    in ``g``, or None when every reduced word of length <= max_len lifts."""
    letters = _letters(g.rank)
    rows = letter_rows(g)
    seen: set[tuple[int, int]] = set()
    frontier: list[tuple[int, int, tuple[int, ...]]] = [((1 << g.num_vertices) - 1, 0, ())]
    for _ in range(max_len):
        next_frontier: list[tuple[int, int, tuple[int, ...]]] = []
        for mask, last, word in frontier:
            for letter in letters:
                if last == -letter:
                    continue
                image = _mask_image(rows[letter], mask)
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


def lifts_somewhere(rows: dict[int, list[int]], num_vertices: int, w: Word) -> bool:
    """Does ``w`` lift from some vertex of the graph whose ``letter_rows``
    are ``rows``?  One power-set walk from the full vertex set."""
    mask = (1 << num_vertices) - 1
    for letter in w.letters:
        mask = _mask_image(rows[letter], mask)
        if not mask:
            return False
    return True


def is_two_sheeted_cover(g: LabeledGraph) -> bool:
    """Two vertices; per generator either loops at both vertices or a pair
    of opposite edges between them; at least one generator in the second
    configuration (this forces connectivity)."""
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


def has_sub_cover(g: LabeledGraph) -> bool:
    """Does some subgraph restrict to a covering of the rose of degree 1
    or 2?  Degree 1 is a rose lift; degree 2 is a two-vertex pattern."""
    if g.has_rose_lift():
        return True
    loops = g.vertex_loops()
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


# ---------------------------------------------------------------------------
# isomorph-free enumeration


def _unlabeled_shapes(max_edges: int, max_betti: int) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
    """Connected multigraph shapes (num_vertices, sorted edge pairs) with
    every vertex of degree >= 2, grown one edge at a time with canonical
    deduplication at each level."""
    seed = (1, ())
    level: dict[tuple, tuple[int, tuple[tuple[int, int], ...]]] = {
        _shape_key(*seed): seed
    }
    finals: dict[tuple, tuple[int, tuple[tuple[int, int], ...]]] = {}
    for _ in range(max_edges):
        next_level: dict[tuple, tuple[int, tuple[tuple[int, int], ...]]] = {}
        for nv, edges in level.values():
            for shape in _shape_children(nv, edges, max_edges, max_betti):
                snv, sedges = shape
                deficit = _degree_deficit(snv, sedges)
                if deficit > 2 * (max_edges - len(sedges)):
                    continue
                key = _shape_key(snv, sedges)
                if key in next_level:
                    continue
                next_level[key] = shape
                if deficit == 0:
                    finals.setdefault(key, shape)
        level = next_level
    return sorted(finals.values(), key=lambda s: (len(s[1]), s[0], _shape_key(*s)))


def _degree_deficit(nv: int, edges: tuple[tuple[int, int], ...]) -> int:
    deg = [0] * nv
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    return sum(max(0, 2 - d) for d in deg)


def _shape_children(
    nv: int, edges: tuple[tuple[int, int], ...], max_edges: int, max_betti: int
) -> Iterator[tuple[int, tuple[tuple[int, int], ...]]]:
    if len(edges) >= max_edges:
        return
    b = len(edges) - nv + 1  # connected throughout construction
    # edge between existing vertices (raises betti)
    if b + 1 <= max_betti:
        for a in range(nv):
            for c in range(a, nv):
                yield nv, tuple(sorted(edges + ((a, c),)))
    # edge to a brand-new vertex (keeps betti, adds a degree-1 vertex)
    if nv < max_edges:
        for a in range(nv):
            yield nv + 1, tuple(sorted(edges + ((a, nv),)))


def _shape_images(
    nv: int, edges: tuple[tuple[int, int], ...]
) -> Iterator[tuple[tuple[int, ...], tuple[tuple[int, int], ...]]]:
    """Every vertex permutation of a small multigraph with the sorted edge
    pair list it maps ``edges`` to (shapes here have at most 7 vertices)."""
    for perm in itertools.permutations(range(nv)):
        yield perm, tuple(sorted(tuple(sorted((perm[a], perm[b]))) for a, b in edges))


def _shape_key(nv: int, edges: tuple[tuple[int, int], ...]) -> tuple:
    """Exact canonical key for a small multigraph: least sorted edge list
    over all vertex permutations."""
    return (nv, min(mapped for _, mapped in _shape_images(nv, edges)))


def _parallel_groups(pairs: tuple[tuple[int, int], ...]) -> list[tuple[tuple[int, int], int]]:
    """Runs of equal pairs in a sorted pair list: (pair, multiplicity)."""
    return [(pair, len(list(run))) for pair, run in itertools.groupby(pairs)]


def _group_actions(
    nv: int, pairs: tuple[tuple[int, int], ...]
) -> list[tuple[tuple[int, bool], ...]]:
    """The non-trivial actions of Aut(shape) on parallel groups.

    An automorphism sends every edge of a parallel group to one image
    group, reversing all of them or none.  Its action is recorded as, for
    each image group in order, the source group and whether the edges
    are reversed (which flips the sign of a non-loop label).
    """
    groups = _parallel_groups(pairs)
    index = {pair: k for k, (pair, _) in enumerate(groups)}
    actions: set[tuple[tuple[int, bool], ...]] = set()
    for perm, mapped in _shape_images(nv, pairs):
        if mapped != pairs:
            continue
        source_of: dict[int, tuple[int, bool]] = {}
        for k, ((a, b), _) in enumerate(groups):
            pa, pb = perm[a], perm[b]
            source_of[index[(min(pa, pb), max(pa, pb))]] = (k, pa > pb)
        actions.add(tuple(source_of[t] for t in range(len(groups))))
    actions.discard(tuple((k, False) for k in range(len(groups))))
    return list(actions)


def _is_orbit_least(
    blocks: tuple[tuple[int, ...], ...], actions: list[tuple[tuple[int, bool], ...]]
) -> bool:
    """Is no image of ``blocks`` under ``actions`` lexicographically less?

    ``blocks`` holds, per parallel group, the sorted indices into that
    group's label choices; a non-loop's choices alternate signs, so
    ``j ^ 1`` is the index of the reversed label.  Images are compared
    with their labels sorted inside each group, since parallel edges
    permute freely.
    """
    for action in actions:
        for target, (source, flip) in enumerate(action):
            image = blocks[source]
            if flip:
                image = tuple(sorted(j ^ 1 for j in image))
            if image != blocks[target]:
                if image < blocks[target]:
                    return False
                break
    return True


def enumerate_candidates(
    rank: int, max_edges: int, max_graphs: int | None = None
) -> Iterator[LabeledGraph]:
    """All connected core labeled graphs with at most ``max_edges``
    topological edges and Betti number at most 2*rank - 1, one per
    label-preserving isomorphism class.

    Orderly generation: labelled graphs on one unlabelled shape are
    isomorphic exactly when an automorphism of the shape carries one
    label assignment onto the other, and graphs on non-isomorphic shapes
    never are.  So each shape's assignments, read as tuples of indices
    into the per-edge label choices, are visited in lexicographic order
    (sorted inside each parallel group) and only the least one of each
    Aut(shape) orbit is kept; no canonical key is computed.  The order is
    fixed: shapes as ``_unlabeled_shapes`` sorts them, then the orbit-least
    assignments in ``itertools.product`` order.  Callers that cap their
    work per graph (``alpha_injectivity_experiment`` keeps at most 16
    lifts per start vertex) depend on which representative
    each class gets.

    Raises RuntimeError when ``max_graphs`` distinct graphs are exceeded.
    """
    if rank < 2:
        raise ValueError("rank must be >= 2")
    loop_labels = list(range(1, rank + 1))
    arc_labels = [g for gen in range(1, rank + 1) for g in (gen, -gen)]
    count = 0
    for nv, pairs in _unlabeled_shapes(max_edges, 2 * rank - 1):
        groups = _parallel_groups(pairs)
        choices = [loop_labels if a == b else arc_labels for (a, b), _ in groups]
        actions = _group_actions(nv, pairs)
        per_group = [
            itertools.combinations_with_replacement(range(len(labels)), size)
            for labels, (_, size) in zip(choices, groups)
        ]
        for blocks in itertools.product(*per_group):
            if not _is_orbit_least(blocks, actions):
                continue
            count += 1
            if max_graphs is not None and count > max_graphs:
                raise RuntimeError(
                    f"enumeration exceeded the cap of {max_graphs} candidate graphs"
                )
            edges = tuple(
                (a, b, labels[j])
                for ((a, b), _), labels, block in zip(groups, choices, blocks)
                for j in block
            )
            yield LabeledGraph(rank, nv, edges)


# ---------------------------------------------------------------------------
# the exhaustive survey


@dataclass
class CoverSurveyReport:
    """Outcome of classifying every enumerated candidate."""

    rank: int
    max_edges: int
    max_path_len: int
    total_candidates: int = 0
    with_rose_lift: int = 0
    two_sheeted_covers: int = 0
    witnessed: int = 0
    max_witness_length: int = 0
    violations: list[dict] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    def to_dict(self) -> dict:
        return {
            "rank": self.rank,
            "max_edges": self.max_edges,
            "max_path_len": self.max_path_len,
            "total_candidates": self.total_candidates,
            "with_rose_lift": self.with_rose_lift,
            "two_sheeted_covers": self.two_sheeted_covers,
            "witnessed": self.witnessed,
            "max_witness_length": self.max_witness_length,
            "violations": self.violations,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
        }


def survey_two_cover_characterization(
    rank: int, max_edges: int, max_path_len: int, max_graphs: int | None = None
) -> CoverSurveyReport:
    """Classify every candidate: graphs with no rose lift must either be
    two-sheeted covers or admit a short non-lifting reduced word.  Any
    graph admitting neither within the length bound is reported as a
    violation (none are expected)."""
    report = CoverSurveyReport(rank, max_edges, max_path_len)
    start = time.monotonic()
    for g in enumerate_candidates(rank, max_edges, max_graphs):
        report.total_candidates += 1
        if g.has_rose_lift():
            report.with_rose_lift += 1
            continue
        if is_two_sheeted_cover(g):
            report.two_sheeted_covers += 1
            continue
        witness = shortest_non_lifting_word(g, max_path_len)
        if witness is None:
            report.violations.append(
                {
                    "graph": format_graph(g),
                    "betti": betti(g),
                    "note": "path-surjective up to the bound, no lift, not a 2-cover",
                }
            )
        else:
            report.witnessed += 1
            report.max_witness_length = max(report.max_witness_length, len(witness))
    report.elapsed_seconds = time.monotonic() - start
    return report

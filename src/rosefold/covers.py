"""Path lifting, bounded path-surjectivity, the two-vertex cover
characterization, and the exhaustive desk-scale survey that checks it.

Bounded path-surjectivity is decided by one witness search for the
least shortest reduced word that lifts nowhere (``_witness``).  Words of
one and two letters are tested on per-letter head masks (the vertices at
which the edges reading a letter end): a letter fails to lift when no
edge reads it, and ``x y`` fails when the heads of ``x`` meet none of the
tails of ``y``, the tails of ``y`` being the heads of ``y^-1``.  Longer
words go to a power-set walk (the subset construction of Rabin and
Scott, 1959): track the set of vertices at which some lift of the word
read so far can end.  The word fails to lift exactly when that set
empties, so the rest of the search is breadth first over (vertex set,
last letter) states; the state space is tiny for desk-scale graphs.  A
vertex set is an int bitmask, and one step ORs the per-letter target
masks of its set bits (the graph's letter rows), so no set object is
built per step.

The survey's candidates come from orderly generation (Read 1978; McKay,
"Isomorph-free exhaustive generation", J. Algorithms 1998).  Unlabelled
shapes are grown edge by edge and deduplicated by a permutation key;
on each shape the label assignments are visited in lexicographic order
and only the least one of each orbit of the shape's automorphism group
is emitted.  No labelled graph is hashed, and the output sequence is
fixed by the shape order and the assignment order alone.  Each shape
carries a contribution table (``CandidateShape``), so an assignment
comes with one int of head and loop masks, ORed from its parallel
groups; the survey reads rose lifts, two-vertex covers and the short
witnesses off that int, and builds no ``LabeledGraph`` per candidate.
"""

from __future__ import annotations

import functools
import itertools
import operator
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

from .graphs import (
    EdgePath,
    LabeledGraph,
    betti,
    format_graph,
)
from .words import Word, check_letter


def lift_paths(g: LabeledGraph, w: Word, start: int) -> Iterator[EdgePath]:
    """Every path from ``start`` reading ``w``, depth first; at most one in
    a folded graph.  The rank check runs at the first ``next``."""
    if w.rank != g.rank:
        raise ValueError("rank mismatch")
    stack: list[tuple[int, tuple[int, ...]]] = [(start, ())]
    while stack:
        v, tokens = stack.pop()
        if len(tokens) == len(w):
            yield EdgePath(g, tokens, start)
            continue
        letter = w.letters[len(tokens)]
        for lab, tgt, tok in g.adjacency[v]:
            if lab == letter:
                stack.append((tgt, tokens + (tok,)))


def _letters(rank: int) -> list[int]:
    """The 2 * rank letters in ``letter_key`` order; a letter's position
    in this list is its index, and ``i ^ 1`` indexes the inverse of ``i``."""
    return [s * gen for gen in range(1, rank + 1) for s in (1, -1)]


def _letter_index(letter: int) -> int:
    return 2 * abs(letter) - 2 + (letter < 0)


def _mask_image(row: list[int], mask: int) -> int:
    """The image of the vertex set ``mask`` under one letter's ``row``:
    the union of the rows of its set bits."""
    image = 0
    while mask:
        low = mask & -mask
        image |= row[low.bit_length() - 1]
        mask ^= low
    return image


def _witness(
    letters: list[int], heads: list[int], rows_of: Callable[[], list[list[int]]], max_len: int
) -> tuple[int, ...] | None:
    """The lexicographically least shortest reduced word of length <=
    max_len that lifts nowhere, as a tuple of ``letters``, or None.

    Letters are handled by index (``_letters``).  ``heads[i]`` is the set
    of vertices at which the edges reading letter ``i`` end: the image of
    the full vertex set under ``i``, and the set of vertices from which
    ``i ^ 1`` can be read (its tails).  A word that lifts to the vertex set
    ``mask`` fails at a next letter ``j`` exactly when ``mask`` meets none
    of the tails of ``j``; the inverse of the last letter never fails,
    since ``mask`` lies inside that letter's heads.  So a letter that no
    edge reads is a witness of length 1, a pair ``x y`` with ``heads[x] &
    heads[y ^ 1] == 0`` one of length 2, and each longer length is one
    pass of bit-ands over the states of the length before it.  Only a
    search past length 2 calls ``rows_of`` (per letter index, each
    vertex's target mask) and walks the power set: breadth first over
    (vertex set, last letter) states from the length-1 states, each state
    kept the first time it is reached, which is the walk from the full
    vertex set; so the answer is the least word of the least length."""
    if max_len < 1:
        return None
    if 0 in heads:
        return (letters[heads.index(0)],)
    if max_len < 2:
        return None
    n = len(heads)
    for x in range(n):
        mask = heads[x]
        for y in range(n):
            if not mask & heads[y ^ 1]:
                return (letters[x], letters[y])
    if max_len < 3:
        return None
    rows = rows_of()
    frontier = [(mask, x, (letters[x],)) for x, mask in enumerate(heads)]
    seen = {(mask, x) for mask, x, _ in frontier}
    for _ in range(max_len - 2):
        next_frontier: list[tuple[int, int, tuple[int, ...]]] = []
        for mask, last, word in frontier:
            for letter, row in enumerate(rows):
                if letter == last ^ 1:
                    continue
                state = (_mask_image(row, mask), letter)
                if state in seen:
                    continue
                seen.add(state)
                next_frontier.append((*state, word + (letters[letter],)))
        frontier = next_frontier
        if not frontier:
            break
        for mask, _, word in frontier:
            for letter in range(n):
                if not mask & heads[letter ^ 1]:
                    return word + (letters[letter],)
    return None


def shortest_non_lifting_word(g: LabeledGraph, max_len: int) -> Word | None:
    """Lexicographically least shortest reduced word with no lift anywhere
    in ``g``, or None when every reduced word of length <= max_len lifts.
    One ``_witness`` search: the 1- and 2-letter tests read head masks
    taken from the edges, and ``g.letter_rows`` is read only when the
    search goes on to length 3."""
    letters = _letters(g.rank)
    heads = [0] * len(letters)
    for src, dst, label in g.edges:
        i = _letter_index(label)
        heads[i] |= 1 << dst
        heads[i ^ 1] |= 1 << src
    word = _witness(
        letters, heads, lambda: [g.letter_rows[letter] for letter in letters], max_len
    )
    return None if word is None else Word(g.rank, word)


def lifts_somewhere(g: LabeledGraph, w: Word) -> bool:
    """Does ``w`` lift from some vertex of ``g``?  One power-set walk over
    ``g.letter_rows`` from the full vertex set."""
    if w.rank != g.rank:
        raise ValueError("rank mismatch")
    rows = g.letter_rows
    mask = (1 << g.num_vertices) - 1
    for letter in w.letters:
        mask = _mask_image(rows[letter], mask)
        if not mask:
            return False
    return True


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
    # a key is (num_vertices, canonical edge list): order by edge count,
    # vertex count, then the key itself
    return [finals[key] for key in sorted(finals, key=lambda key: (len(key[1]), key[0], key))]


def _degree_deficit(nv: int, edges: tuple[tuple[int, int], ...]) -> int:
    deg = [0] * nv
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    return sum(max(0, 2 - d) for d in deg)


def _shape_children(
    nv: int, edges: tuple[tuple[int, int], ...], max_edges: int, max_betti: int
) -> Iterator[tuple[int, tuple[tuple[int, int], ...]]]:
    # the caller grows level k < max_edges, so every child fits the bound
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
    blocks: tuple[tuple[int, ...], ...],
    actions: list[tuple[tuple[int, dict | None], ...]],
) -> bool:
    """Is no image of ``blocks`` under ``actions`` lexicographically less?

    ``blocks`` holds, per parallel group, the sorted indices into that
    group's label choices.  An action holds, per image group in order, its
    source group and, when the edges are reversed, the map from each block
    to its reversed block (``CandidateShape.actions``).  Images are
    compared with their labels sorted inside each group, since parallel
    edges permute freely.
    """
    for action in actions:
        for target, (source, reverse) in enumerate(action):
            image = blocks[source] if reverse is None else reverse[blocks[source]]
            if image != blocks[target]:
                if image < blocks[target]:
                    return False
                break
    return True


class CandidateShape:
    """One unlabelled shape of the enumeration with its contribution table.

    The shape's edges come in parallel groups (``_parallel_groups``); an
    assignment (``blocks``) holds, per group, the sorted indices into that
    group's label choices.  The masks of an assignment are one int of
    ``num_vertices``-bit fields: field ``i < 2 * rank`` holds the heads of
    letter index ``i`` (the vertices at which its edges end), and field
    ``2 * rank + gen - 1`` the vertices carrying a loop labelled ``gen``.
    ``contributions`` holds, per group and per block, the OR of the bits
    its edges set, so the masks of an assignment are the OR of one entry
    per group.

    ``LabeledGraph.__post_init__``'s checks run here once per shape: the
    vertex count, every endpoint and every label choice, so every graph
    that ``graph`` builds on this shape would pass them."""

    def __init__(self, rank: int, nv: int, pairs: tuple[tuple[int, int], ...]):
        if nv < 1:
            raise ValueError("graph needs at least one vertex")
        self.rank = rank
        self.num_vertices = nv
        self.num_edges = len(pairs)
        self.groups = _parallel_groups(pairs)
        self.letters = _letters(rank)
        loop_labels = list(range(1, rank + 1))
        self.choices = [loop_labels if a == b else self.letters for (a, b), _ in self.groups]
        for ((a, b), _), labels in zip(self.groups, self.choices):
            if not (0 <= a < nv and 0 <= b < nv):
                raise ValueError("edge endpoint outside vertex range")
            for label in labels:
                check_letter(label, rank)
        self.blocks = [
            list(itertools.combinations_with_replacement(range(len(labels)), size))
            for labels, (_, size) in zip(self.choices, self.groups)
        ]
        # a non-loop's choices alternate signs, so ``j ^ 1`` is the index of
        # the reversed label; an automorphism never reverses a loop
        reversed_blocks = [
            {block: tuple(sorted(j ^ 1 for j in block)) for block in blocks}
            for blocks in self.blocks
        ]
        self.actions = [
            tuple((source, reversed_blocks[source] if flip else None) for source, flip in action)
            for action in _group_actions(nv, pairs)
        ]
        self.full = (1 << nv) - 1
        self.head_shifts = [nv * i for i in range(2 * rank)]
        self.loop_shifts = [nv * (2 * rank + gen) for gen in range(rank)]
        self.arc_groups = [k for k, ((a, b), _) in enumerate(self.groups) if a != b]
        # per group and block, the generators (bit gen - 1) that the block
        # reads both ways, labels 2 * (gen - 1) and its ``^ 1``
        self.swaps = [
            {
                block: sum(1 << (j >> 1) for j in set(block) if j & 1 and j ^ 1 in block)
                for block in blocks
            }
            for blocks in self.blocks
        ]
        # per group, the letter index of each label choice, and the bits
        # one edge with that label sets
        self.indexes = [[_letter_index(label) for label in labels] for labels in self.choices]
        self.contributions = []
        for ((a, b), _), indexes, blocks in zip(self.groups, self.indexes, self.blocks):
            bits = [1 << (nv * i + b) | 1 << (nv * (i ^ 1) + a) for i in indexes]
            if a == b:
                bits = [edge | 1 << (shift + a) for edge, shift in zip(bits, self.loop_shifts)]
            self.contributions.append(
                [functools.reduce(operator.or_, (bits[j] for j in block)) for block in blocks]
            )

    def graph(self, blocks: tuple[tuple[int, ...], ...]) -> LabeledGraph:
        """The assignment's labelled graph, its edges group by group."""
        edges = tuple(
            (a, b, labels[j])
            for ((a, b), _), labels, block in zip(self.groups, self.choices, blocks)
            for j in block
        )
        return LabeledGraph(self.rank, self.num_vertices, edges)

    def heads(self, masks: int) -> list[int]:
        """Per letter index, the vertices at which its edges end."""
        full = self.full
        return [masks >> shift & full for shift in self.head_shifts]

    def rows(self, blocks: tuple[tuple[int, ...], ...]) -> list[list[int]]:
        """Per letter index, each vertex's target mask (the letter rows)."""
        rows = [[0] * self.num_vertices for _ in self.head_shifts]
        for ((a, b), _), indexes, block in zip(self.groups, self.indexes, blocks):
            for j in block:
                i = indexes[j]
                rows[i][a] |= 1 << b
                rows[i ^ 1][b] |= 1 << a
        return rows

    def rose_lift(self, masks: int) -> bool:
        """Does some vertex carry a loop for every generator?"""
        common = self.full
        for shift in self.loop_shifts:
            common &= masks >> shift
        return common != 0

    def _pair_covers(self, k: int, block: tuple[int, ...], masks: int) -> bool:
        """Do the ends of non-loop group ``k`` carry a two-sheeted cover of
        the rose?  Every generator loops at both ends or is swapped (the
        group reads it both ways), and at least one is swapped: with none,
        the two ends carry two rose lifts, not a connected cover, and most
        blocks end the test there.  Two ends with no edge between them
        swap nothing, so the groups cover every pair."""
        swapped = self.swaps[k][block]
        if not swapped:
            return False
        (a, b), _ = self.groups[k]
        both = 1 << a | 1 << b
        return all(
            masks >> shift & both == both
            for gen, shift in enumerate(self.loop_shifts)
            if not swapped >> gen & 1
        )

    def two_sheeted_cover(self, blocks: tuple[tuple[int, ...], ...], masks: int) -> bool:
        """Two vertices carrying the two-vertex pattern with no edge left
        over: each generator's pattern takes two distinct edges, so
        ``2 * rank`` edges leave none over."""
        return (
            self.num_vertices == 2
            and self.num_edges == 2 * self.rank
            and any(self._pair_covers(k, blocks[k], masks) for k in self.arc_groups)
        )

    def sub_cover(self, blocks: tuple[tuple[int, ...], ...], masks: int) -> bool:
        """Does some subgraph restrict to a covering of the rose of degree 1
        or 2?  Degree 1 is a rose lift; degree 2 is a two-vertex pattern."""
        return self.rose_lift(masks) or any(
            self._pair_covers(k, blocks[k], masks) for k in self.arc_groups
        )

    def witness(
        self, blocks: tuple[tuple[int, ...], ...], masks: int, max_len: int
    ) -> tuple[int, ...] | None:
        """The letters of the assignment's least shortest non-lifting word
        within ``max_len`` (``_witness``), or None; the letter rows are
        built only for a search past length 2."""
        return _witness(self.letters, self.heads(masks), lambda: self.rows(blocks), max_len)


def enumerate_candidates(
    rank: int, max_edges: int, max_graphs: int | None = None
) -> Iterator[tuple[CandidateShape, tuple[tuple[int, ...], ...], int]]:
    """All connected core labeled graphs with at most ``max_edges``
    topological edges and Betti number at most 2*rank - 1, one per
    label-preserving isomorphism class, as ``(shape, blocks, masks)``:
    the graph is ``shape.graph(blocks)``, and ``masks`` its head and loop
    masks (``CandidateShape``), so callers can classify a candidate
    without building it.

    Orderly generation: labelled graphs on one unlabelled shape are
    isomorphic exactly when an automorphism of the shape carries one
    label assignment onto the other, and graphs on non-isomorphic shapes
    never are.  So each shape's assignments, read as tuples of indices
    into the per-edge label choices, are visited in lexicographic order
    (sorted inside each parallel group) and only the least one of each
    Aut(shape) orbit is kept; no canonical key is computed.  The order is
    fixed: shapes as ``_unlabeled_shapes`` sorts them, then the orbit-least
    assignments in ``itertools.product`` order.  Callers that cap their
    work per graph (``alpha_injectivity_experiment`` scores the first 16
    lifts per start vertex) depend on which representative each class
    gets.  The masks are ORed from the shape's contribution table, one
    entry per parallel group, in step with the assignments.

    Raises RuntimeError when ``max_graphs`` distinct graphs are exceeded.
    """
    if rank < 2:
        raise ValueError("rank must be >= 2")
    count = 0
    for nv, pairs in _unlabeled_shapes(max_edges, 2 * rank - 1):
        shape = CandidateShape(rank, nv, pairs)
        actions = shape.actions
        assignments = zip(
            itertools.product(*shape.blocks), itertools.product(*shape.contributions)
        )
        for blocks, contributions in assignments:
            if not _is_orbit_least(blocks, actions):
                continue
            count += 1
            if max_graphs is not None and count > max_graphs:
                raise RuntimeError(
                    f"enumeration exceeded the cap of {max_graphs} candidate graphs"
                )
            yield shape, blocks, functools.reduce(operator.or_, contributions)


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
    violation (none are expected).  Every test reads the candidate's
    masks; only a violation builds its ``LabeledGraph``."""
    report = CoverSurveyReport(rank, max_edges, max_path_len)
    start = time.monotonic()
    for shape, blocks, masks in enumerate_candidates(rank, max_edges, max_graphs):
        report.total_candidates += 1
        if shape.rose_lift(masks):
            report.with_rose_lift += 1
            continue
        if shape.two_sheeted_cover(blocks, masks):
            report.two_sheeted_covers += 1
            continue
        witness = shape.witness(blocks, masks, max_path_len)
        if witness is None:
            g = shape.graph(blocks)
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

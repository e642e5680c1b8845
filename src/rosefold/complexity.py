"""The relator-word calculus: factor-of-power certificates, minimal
segmentations into relator-power factors, the depth-bounded equivalence
ball behind the second complexity coordinate, and occurrence-replacement
reduction moves.

Terminology: given nonempty cyclically reduced relators U_1..U_n, a
"U-word" is any subword of a power of some U_i or its inverse.  c1(w)
is the least k with w a concatenation of k U-words; c2 sums the robust
lengths of the long factors.  The equivalence ball used for c2 has no
effective bound in general, so it is explored breadth-first to a stated
depth and all comparisons are made at equal depth.

The ball is explored once per (word, depth) for every factor index.
Each word met is numbered once, its factor tables are computed once,
and it is expanded at most once into tagged edges (candidate, j), j
being the index of the replaced factor.  The i-ball is then the
breadth-first search over the edges with j != i, with the same
``max_ball`` stop as a search of its own; every ell_hat_i reads its
node scores from the shared tables.

Every per-word table is linear in the word.  The longest factor starting
at each position comes from one scan of the reversed word against one
automaton of all reversed signed relator powers.  That table is exact,
so the reach p + maxstart[p] never decreases, and the c1 tables and the
longest i-th factors each take one pass (see ``_min_factor_tables``).
No segmentation is listed: the factors of every minimal segmentation,
which the edges and the longest i-th factors range over, are read off
the same tables (``_factor_spans``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from . import strsearch
from .words import CyclicWord, Word, _unchecked, splice


@dataclass(frozen=True)
class UCert:
    """Certificate: the word occurs in (rotation of relator^sign)^power
    starting at the rotation boundary offset ``rotation``."""

    relator: int
    sign: int
    rotation: int
    power: int


@dataclass(frozen=True)
class Thresholds:
    """Desk-scale stand-ins for the asymptotic length constants, expressed
    as fractions of the longest relator length.

    ``max_decompositions`` is unread: the ball takes every minimal
    segmentation's factors off the tables.  The field stays only because
    ``__dict__`` is echoed in every ``complexity`` payload; it goes with
    the next revision of the payloads.
    """

    long_factor_fraction: float = 0.5
    zero_fraction: float = 0.85
    power_cap: int = 1
    max_decompositions: int = 64
    max_ball: int = 256

    def long_factor_letters(self, max_relator: int) -> int:
        return max(1, math.ceil(self.long_factor_fraction * max_relator))

    def zero_letters(self, max_relator: int) -> int:
        return max(1, math.ceil(self.zero_fraction * max_relator))


class UWordIndex:
    """Immutable matcher for factors of powers of the relators.

    Power windows use ceil(len/|U|)+1 periods: any factor of a power of
    that length occurs within such a window, by periodicity.
    """

    def __init__(self, relators: Sequence[Word | CyclicWord]):
        words = []
        for rel in relators:
            word = rel.word if isinstance(rel, CyclicWord) else rel
            if len(word) == 0:
                raise ValueError("relators must be nonempty")
            if not word.is_cyclically_reduced:
                raise ValueError("relators must be cyclically reduced")
            words.append(word)
        if not words:
            raise ValueError("need at least one relator")
        self.rank = words[0].rank
        self.relators: tuple[Word, ...] = tuple(words)
        self._chars: dict[tuple[int, int], str] = {}
        for i, word in enumerate(self.relators):
            self._chars[(i, 1)] = strsearch.letters_to_chars(word.letters)
            self._chars[(i, -1)] = strsearch.letters_to_chars(word.inverse().letters)
        self._powers: dict[tuple[int, int, int], str] = {}
        self._union_sams: dict[tuple[int, ...], strsearch.SuffixAutomaton] = {}

    def missing_letters(self) -> list[int]:
        present = {abs(l) for rel in self.relators for l in rel.letters}
        return [g for g in range(1, self.rank + 1) if g not in present]

    @property
    def max_relator_length(self) -> int:
        return max(len(r) for r in self.relators)

    def _periods_key(self, relator: int, sign: int, min_length: int) -> tuple[int, int, int]:
        """Cache key of the shortest power of the signed relator holding
        ``min_length`` letters and at least two periods, with the period
        count rounded up to a power of two to limit cache churn."""
        periods = max(2, -(-min_length // len(self.relators[relator])) + 1)
        return (relator, sign, 1 << (periods - 1).bit_length())

    def _power_string(self, relator: int, sign: int, min_length: int) -> str:
        key = self._periods_key(relator, sign, min_length)
        cached = self._powers.get(key)
        if cached is None:
            cached = self._powers[key] = self._chars[(relator, sign)] * key[2]
        return cached

    def _certificate_scan(self, z: Word) -> Iterator[UCert]:
        """Certificates in (relator, sign) order, one rotation each."""
        if len(z) == 0:
            raise ValueError("the empty word is not certified as a relator factor")
        chars = strsearch.letters_to_chars(z.letters)
        for i in range(len(self.relators)):
            L = len(self.relators[i])
            for sign in (1, -1):
                pos = self._power_string(i, sign, len(z) + L).find(chars)
                if pos >= 0:
                    rotation = pos % L
                    yield UCert(i, sign, rotation, math.ceil((rotation + len(z)) / L))

    def is_u_word(self, z: Word) -> UCert | None:
        """First certificate in (relator, sign) order, or None."""
        return next(self._certificate_scan(z), None)

    def certificates(self, z: Word) -> list[UCert]:
        """All certificates over (relator, sign); one rotation each."""
        return list(self._certificate_scan(z))

    def rotation_word(self, cert: UCert) -> Word:
        base = self.relators[cert.relator]
        return (base if cert.sign > 0 else base.inverse()).rotation(cert.rotation)

    def u_complement(self, z: Word, cert: UCert, extra_power: int = 0) -> Word:
        """Minimal V with z * V^-1 a power of the certified rotation;
        ``extra_power`` appends whole extra periods to the family."""
        rot = self.rotation_word(cert)
        L = len(rot)
        m = max(1, math.ceil(len(z) / L)) + extra_power
        full = rot.letters * m
        if full[: len(z)] != z.letters:
            raise ValueError("certificate does not match the word")
        tail = full[len(z) :]
        # a subword of a power of a cyclically reduced rotation is reduced
        return _unchecked(Word, rank=self.rank, letters=tail).inverse()

    def _union_sam(self, min_length: int) -> strsearch.SuffixAutomaton:
        """Automaton of the reversed signed relator powers long enough for
        a word of ``min_length`` letters, joined by a separator that no
        word contains, so that no match runs from one power into the next.
        Cached by the tuple of period counts."""
        periods = tuple(
            self._periods_key(i, 1, min_length + len(rel))[2]
            for i, rel in enumerate(self.relators)
        )
        sam = self._union_sams.get(periods)
        if sam is None:
            powers = [
                self._power_string(i, sign, min_length + len(rel))
                for i, rel in enumerate(self.relators)
                for sign in (1, -1)
            ]
            sam = strsearch.SuffixAutomaton(strsearch.SEPARATOR.join(powers)[::-1])
            self._union_sams[periods] = sam
        return sam

    def max_factor_starting(self, w: Word) -> list[int]:
        """For each position of w, the length of the longest factor of a
        relator power starting there.  The matching statistics of the
        reversed word against the automaton of all reversed signed powers
        give, at each position of the reversal, the longest factor of one
        of them ending there; read backwards, that is the table."""
        if len(w) == 0:
            return []
        rev = strsearch.letters_to_chars(w.letters)[::-1]
        return self._union_sam(len(w)).matching_statistics(rev)[::-1]


@dataclass(frozen=True)
class Segmentation:
    """A factorization of a word into certified relator-power factors."""

    word: Word
    boundaries: tuple[int, ...]  # interior cut positions, increasing
    certificates: tuple[UCert, ...]

    def to_dict(self) -> dict:
        return {
            "word": str(self.word),
            "boundaries": list(self.boundaries),
            "certificates": [c.__dict__ for c in self.certificates],
        }


def _min_factor_tables(maxstart: list[int]) -> tuple[list[int], list[int]]:
    """Forward and backward minimal factor counts of a word with factor
    table ``maxstart``: F[p] = c1 of w[:p], G[p] = c1 of w[p:], and n + 2
    where no segmentation exists.

    A subword of a relator-power factor is one too, and ``maxstart`` is
    exact, so the factors starting at p are the prefixes of w[p:] of 1 to
    maxstart[p] letters, and maxstart[p + 1] >= maxstart[p] - 1: the reach
    p + maxstart[p] never decreases.  Trimming the first letter off a
    segmentation of w[p:] leaves one of w[p + 1:] with no more factors, so
    G never increases; likewise F never decreases.  Hence the best first
    factor of w[p:] is the longest, G[p] = G[p + maxstart[p]] + 1, and the
    best last factor of w[:q] starts at the least p that reaches q, a
    start that moves right with q.  Each table takes one pass.
    """
    n = len(maxstart)
    INF = n + 2
    G = [INF] * (n + 1)
    G[n] = 0
    for p in range(n - 1, -1, -1):
        reach = maxstart[p]
        if not reach:
            break  # no factor holds letter p, so no suffix from p or before is covered
        G[p] = G[p + reach] + 1
    F = [INF] * (n + 1)
    F[0] = 0
    p = 0
    for q in range(1, n + 1):
        while p < q and p + maxstart[p] < q:
            p += 1
        if p == q:
            break  # letter q - 1 is in no factor
        F[q] = F[p] + 1
    return F, G


def _check_covered(maxstart: list[int]) -> list[int]:
    """Raise at the first position where no relator-power factor starts, else return the table."""
    if not all(maxstart):
        pos = maxstart.index(0)
        raise ValueError(f"letter at position {pos} is not a factor of any relator power")
    return maxstart


def _greedy_cuts(maxstart: list[int]) -> list[int]:
    """Interior cuts of the segmentation whose every factor is the longest
    one starting where the last ended.  By the monotone reach (see
    ``_min_factor_tables``) it has the least number of factors, and its
    first factor is the longest among minimal segmentations.  The word
    must be covered."""
    n = len(maxstart)
    cuts = []
    pos = maxstart[0]
    while pos < n:
        cuts.append(pos)
        pos += maxstart[pos]
    return cuts


def _segmentation(w: Word, idx: UWordIndex, maxstart: list[int]) -> Segmentation:
    """The greedy witness segmentation of a covered word, from its table."""
    cuts = _greedy_cuts(maxstart)
    certs = []
    for lo, hi in zip([0] + cuts, cuts + [len(w)]):
        cert = idx.is_u_word(w.subword(lo, hi))
        if cert is None:
            raise RuntimeError(f"the factor table covers w[{lo}:{hi}], but no certificate does")
        certs.append(cert)
    return Segmentation(w, tuple(cuts), tuple(certs))


def c1(w: Word, idx: UWordIndex) -> tuple[int, Segmentation]:
    """Minimal number of relator-power factors, with the greedy witness
    segmentation (longest-first-factor among the minimal ones)."""
    if len(w) == 0:
        raise ValueError("c1 is undefined on the empty word")
    seg = _segmentation(w, idx, _check_covered(idx.max_factor_starting(w)))
    return len(seg.boundaries) + 1, seg


def brute_force_c1(w: Word, idx: UWordIndex) -> int:
    """Independent oracle: exhaustive segmentation search using direct
    substring membership, no per-position maximal-factor table.
    ``best[pos]`` is the least number of pieces covering the suffix from
    ``pos`` (len(w) + 2 when none does), filled from the end."""
    if len(w) == 0:
        raise ValueError("c1 is undefined on the empty word")
    chars = strsearch.letters_to_chars(w.letters)
    hays = [
        idx._power_string(i, sign, len(w) + len(idx.relators[i]))
        for i in range(len(idx.relators))
        for sign in (1, -1)
    ]
    best = [0] * (len(chars) + 1)
    for pos in range(len(chars) - 1, -1, -1):
        out = len(chars) + 2
        for q in range(pos + 1, len(chars) + 1):
            piece = chars[pos:q]
            if any(piece in hay for hay in hays) and 1 + best[q] < out:
                out = 1 + best[q]
        best[pos] = out
    return best[0]


def _factor_spans(maxstart: list[int], F: list[int], G: list[int]) -> Iterator[tuple[int, int, int]]:
    """For each start p of a factor of some minimal segmentation, p
    ascending, the longest such factor w[p:q] as (p, q, j), j being its
    index.  The word must be covered.

    With k = G[0], w[p:q] is the j-th factor of a minimal segmentation
    exactly when F[p] + G[p] = k (then j = F[p] + 1), q - p <= maxstart[p]
    and G[q] = G[p] - 1: join a minimal segmentation of w[:p], the factor
    and one of w[q:].  The reach p + maxstart[p] qualifies (G[p] = G[p +
    maxstart[p]] + 1); a shorter factor lies in it and is never maximal.
    """
    k = G[0]
    for p, (f, g, reach) in enumerate(zip(F, G, maxstart)):
        if f + g == k:
            yield p, p + reach, f + 1


def _ith_factor_maxima(maxstart: list[int], F: list[int], G: list[int]) -> list[int]:
    """Entry i (1 <= i <= k = G[0]) is the longest i-th factor over all
    minimal segmentations, read off ``_factor_spans``; entry 0 is unused,
    and a word with no segmentation gets [0]."""
    k = G[0]
    if k > len(maxstart):
        return [0]
    best = [0] * (k + 1)
    for p, q, j in _factor_spans(maxstart, F, G):
        if q - p > best[j]:
            best[j] = q - p
    return best


class _Node:
    """One word of the ball: its factor tables and, once the node has been
    expanded, its tagged edges."""

    __slots__ = ("word", "maxstart", "F", "G", "best", "edges")

    def __init__(self, word: Word, maxstart: list[int]):
        self.word = word
        self.maxstart = maxstart
        self.F, self.G = _min_factor_tables(maxstart)
        self.best = _ith_factor_maxima(maxstart, self.F, self.G)
        self.edges: list[tuple[int, int]] | None = None

    @property
    def k(self) -> int:
        return self.G[0]

    def max_ith_factor(self, i: int) -> int:
        return self.best[i] if 1 <= i < len(self.best) else 0


class _Ball:
    """The equivalence ball of one root word, explored once for every
    factor index.

    Words are numbered in the order they are met, the root first.  A node
    is expanded at most once, into its tagged edges ``(candidate, j)``: the
    words obtained by replacing its j-th factor in any minimal
    segmentation (no segmentation is listed, and none is left out), in
    the order ``edges`` states, each pair once.  Which candidates qualify
    (free reduction at the splice, every letter covered, the same c1)
    does not depend on the protected index, so each candidate is judged
    once.  The i-neighbours of a node are the candidates of its edges
    with j != i, in first-occurrence order.
    """

    def __init__(
        self,
        root: Word,
        idx: UWordIndex,
        thresholds: Thresholds,
        maxstart: list[int] | None = None,
    ):
        """``maxstart`` is the root's factor table when the caller has it."""
        self.idx = idx
        self.thresholds = thresholds
        self.long = thresholds.long_factor_letters(idx.max_relator_length)
        self.rank = root.rank
        self.ids = {root.letters: 0}
        if maxstart is None:
            maxstart = idx.max_factor_starting(root)
        self.nodes: list[_Node | None] = [_Node(root, maxstart)]

    def node(self, nid: int) -> _Node:
        node = self.nodes[nid]
        assert node is not None
        return node

    def _candidate(self, letters: tuple[int, ...]) -> int | None:
        """The id of a spliced word, or None when it does not qualify."""
        nid = self.ids.get(letters)
        if nid is None:
            nid = self.ids[letters] = len(self.nodes)
            word = _unchecked(Word, rank=self.rank, letters=letters)
            maxstart = self.idx.max_factor_starting(word)
            # judged before any table is built: covered, and of the root's c1
            ok = all(maxstart) and len(_greedy_cuts(maxstart)) + 1 == self.node(0).k
            self.nodes.append(_Node(word, maxstart) if ok else None)
        return nid if self.nodes[nid] is not None else None

    def _span_candidates(self, node: _Node, p: int, q: int) -> list[int]:
        """Qualifying words that replace the factor w[p:q] by a long
        complementary word, when that factor is long and maximal."""
        w, maxstart, long = node.word, node.maxstart, self.long
        n = len(w)
        if q - p < long:
            return []
        # maximality of the factor as a subword of w; q is p's reach, so only the left end can grow
        if p > 0 and maxstart[p - 1] >= q - p + 1:
            return []
        letters = w.letters
        factor = w.subword(p, q)
        out = []
        for cert in self.idx.certificates(factor):
            for extra in range(self.thresholds.power_cap + 1):
                try:
                    comp = self.idx.u_complement(factor, cert, extra)
                except ValueError:
                    continue
                if len(comp) < long:
                    continue
                replacement = comp.inverse().letters
                # w and the replacement are reduced: only the seams can cancel
                if p > 0 and letters[p - 1] == -replacement[0]:
                    continue
                if q < n and replacement[-1] == -letters[q]:
                    continue
                spliced = letters[:p] + replacement + letters[q:]
                if spliced == letters:
                    continue
                nid = self._candidate(spliced)
                if nid is not None:
                    out.append(nid)
        return out

    def edges(self, nid: int) -> list[tuple[int, int]]:
        """The node's tagged edges: the spans of ``_factor_spans`` in its
        order (p ascending, one span per start), each span's candidates in
        ``_span_candidates`` order, each (candidate, j) pair once.  The
        order matters only where ``max_ball`` binds."""
        node = self.node(nid)
        if node.edges is None:
            _check_covered(node.maxstart)
            seen: set[tuple[int, int]] = set()
            edges = []
            for p, q, j in _factor_spans(node.maxstart, node.F, node.G):
                for cand in self._span_candidates(node, p, q):
                    if (cand, j) not in seen:
                        seen.add((cand, j))
                        edges.append((cand, j))
            node.edges = edges
        return node.edges

    def neighbors(self, nid: int, i: int) -> list[int]:
        """The i-neighbours: the qualifying words that replace one long
        maximal factor other than the i-th by a long complementary word."""
        out: dict[int, None] = {}
        for cand, j in self.edges(nid):
            if j != i:
                out.setdefault(cand)
        return list(out)

    def i_ball(self, i: int, depth: int) -> list[int]:
        """The words scored for index i, in breadth-first order from the
        root over the i-neighbours.  The search ends at the first word past
        ``max_ball``: no node is expanded after it."""
        scored = [0]
        frontier = [0]
        seen = {0}
        for _ in range(depth):
            next_frontier: list[int] = []
            for nid in frontier:
                for neighbor in self.neighbors(nid, i):
                    if neighbor in seen:
                        continue
                    seen.add(neighbor)
                    if len(seen) > self.thresholds.max_ball:
                        return scored
                    scored.append(neighbor)
                    next_frontier.append(neighbor)
            frontier = next_frontier
            if not frontier:
                break
        return scored

    def ell_hat(self, i: int, depth: int) -> int:
        """Max i-th factor length over the depth-bounded i-ball."""
        return max(self.node(nid).max_ith_factor(i) for nid in self.i_ball(i, depth))

    def value(self, depth: int) -> ComplexityValue:
        """The root's (c1, c2), counting each ell_hat_i that reaches the zero threshold."""
        k = self.node(0).k
        zero_at = self.thresholds.zero_letters(self.idx.max_relator_length)
        per = []
        for i in range(1, k + 1):
            hat = self.ell_hat(i, depth)
            per.append(hat if hat >= zero_at else 0)
        return ComplexityValue(k, sum(per), tuple(per), depth)


@dataclass(frozen=True)
class ComplexityValue:
    """(c1, c2) with per-index robust lengths; ``key()`` orders values
    lexicographically on the pair only."""

    c1: int
    c2: int
    per_index: tuple[int, ...] = ()
    depth: int = 0

    def key(self) -> tuple[int, int]:
        return (self.c1, self.c2)

    def to_dict(self) -> dict:
        return {
            "c1": self.c1,
            "c2": self.c2,
            "per_index": list(self.per_index),
            "depth": self.depth,
        }


def complexity(
    w: Word,
    idx: UWordIndex,
    thresholds: Thresholds = Thresholds(),
    depth: int = 1,
) -> ComplexityValue:
    """Depth-bounded complexity; the empty word, with c1 = 0 and no
    factors, is the bottom element."""
    maxstart = _check_covered(idx.max_factor_starting(w))
    return _Ball(w, idx, thresholds, maxstart).value(depth)


def complexity_report(w: Word, idx: UWordIndex, depth: int) -> dict:
    """The ``complexity`` payload but its config: the value at the default
    thresholds and the greedy witness segmentation, from one factor table."""
    thresholds = Thresholds()
    maxstart = _check_covered(idx.max_factor_starting(w))
    value = _Ball(w, idx, thresholds, maxstart).value(depth)
    # the identity has the bottom value and no factors to segment
    seg = _segmentation(w, idx, maxstart) if w else Segmentation(w, (), ())
    return {**value.to_dict(), "thresholds": thresholds.__dict__, "segmentation": seg.to_dict()}


def tuple_complexity(
    words: Sequence[Word], idx: UWordIndex, depth: int = 1
) -> tuple[ComplexityValue, ...]:
    """Complexity vector over the first n entries (n = relator count) at
    the default thresholds; the trailing stabilization entries are
    disregarded."""
    n = len(idx.relators)
    return tuple(complexity(w, idx, depth=depth) for w in words[:n])


@dataclass
class ReductionOutcome:
    pattern: Word
    replacement: Word
    word: Word
    before: ComplexityValue
    after: ComplexityValue
    replaced: list[tuple[int, int]]

    @property
    def relation(self) -> str:
        if self.after.key() < self.before.key():
            return "decreased"
        if self.after.key() == self.before.key():
            return "equal"
        return "increased"

    def to_dict(self) -> dict:
        return {
            "pattern": str(self.pattern),
            "replacement": str(self.replacement),
            "word": str(self.word),
            "before": self.before.to_dict(),
            "after": self.after.to_dict(),
            "relation": self.relation,
            "replaced": self.replaced,
        }


def reduction_move(
    w: Word,
    pattern: Word,
    replacement: Word,
    idx: UWordIndex,
    occurrence_set: Sequence[tuple[int, int]] | None = None,
    thresholds: Thresholds = Thresholds(),
    depth: int = 1,
) -> ReductionOutcome:
    """Replace designated disjoint occurrences of the pattern (sign -1
    means an occurrence of its inverse) by the replacement, reduce, and
    compare complexities at equal depth.

    The pattern-replacement pair must satisfy: pattern * replacement^-1
    is literally a rotation of a relator or of an inverse relator.
    """
    glued = strsearch.letters_to_chars(pattern.letters + replacement.inverse().letters)
    # a string of a relator's length occurs in the relator read twice
    # exactly when it is one of the relator's rotations
    if not any(len(s) == len(glued) and glued in s + s for s in idx._chars.values()):
        raise ValueError("pattern * replacement^-1 is not a relator rotation")
    if occurrence_set is None:
        occurrence_set = strsearch.greedy_disjoint(w.letters, pattern.letters)
    L = len(pattern)
    inv = pattern.inverse().letters
    last_end = -1
    for pos, sign in sorted(occurrence_set):
        if pos < 0 or pos + L > len(w):
            raise ValueError("occurrence outside the word")
        if pos < last_end:
            raise ValueError("occurrences overlap")
        window = w.letters[pos : pos + L]
        expected = pattern.letters if sign > 0 else inv
        if window != expected:
            raise ValueError(f"no pattern occurrence at position {pos}")
        last_end = pos + L
    new_word = splice(w, occurrence_set, L, replacement)
    before = complexity(w, idx, thresholds, depth)
    after = complexity(new_word, idx, thresholds, depth)
    return ReductionOutcome(pattern, replacement, new_word, before, after, list(occurrence_set))

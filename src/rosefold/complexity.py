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

The longest factor starting at each position comes from a scan of the
reversed word against one automaton of all reversed signed relator
powers, kept per index and rebuilt, at twice the word's length, only
for a longer word than it serves.  That table is exact, so the reach
p + maxstart[p] never decreases and the c1 tables are step functions of
c1 steps: the starts of the j-th factors of all minimal segmentations,
which the edges and the longest i-th factors range over, are ranges
between their k breakpoints (``_factor_starts``).  A word met in the
ball differs from its parent in one splice, and only that window is
scanned again.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import asdict, dataclass
from operator import add
from typing import Iterator, Sequence

from . import strsearch
from .words import Word, _unchecked, splice


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

    Each signed relator U is kept as a word and as its characters read
    twice, UU.  A factor of m letters starts at rotation r < |U| of a
    power of U exactly when its first min(m, |U|) letters occur at r in
    UU and it has period |U|.
    """

    def __init__(self, relators: Sequence[Word]):
        for word in relators:
            if len(word) == 0:
                raise ValueError("relators must be nonempty")
            if not word.is_cyclically_reduced:
                raise ValueError("relators must be cyclically reduced")
        if not relators:
            raise ValueError("need at least one relator")
        if len({word.rank for word in relators}) > 1:
            raise ValueError("rank mismatch")
        self.rank = relators[0].rank
        self.relators: tuple[Word, ...] = tuple(relators)
        self._signed: dict[tuple[int, int], Word] = {}
        for i, word in enumerate(self.relators):
            self._signed[(i, 1)] = word
            self._signed[(i, -1)] = word.inverse()
        self._twice = {key: strsearch.letters_to_chars(u.letters) * 2 for key, u in self._signed.items()}
        self._sam: strsearch.SuffixAutomaton | None = None
        self._served = 0

    def missing_letters(self) -> list[int]:
        present = {abs(l) for rel in self.relators for l in rel.letters}
        return [g for g in range(1, self.rank + 1) if g not in present]

    @property
    def max_relator_length(self) -> int:
        return max(len(r) for r in self.relators)

    def _certificate_scan(self, z: Word) -> Iterator[UCert]:
        """Certificates in (relator, sign, rotation) order: one per
        rotation of each signed relator at which ``z`` starts."""
        if len(z) == 0:
            raise ValueError("the empty word is not certified as a relator factor")
        chars = strsearch.letters_to_chars(z.letters)
        m = len(chars)
        for (i, sign), twice in self._twice.items():
            L = len(twice) // 2
            if m > L and chars[L:] != chars[: m - L]:
                continue
            for rotation in strsearch.all_occurrences(twice[: L + min(m, L) - 1], chars[:L]):
                yield UCert(i, sign, rotation, math.ceil((rotation + m) / L))

    def is_u_word(self, z: Word) -> UCert | None:
        """First certificate in (relator, sign, rotation) order, or None."""
        return next(self._certificate_scan(z), None)

    def certificates(self, z: Word) -> list[UCert]:
        """Every certificate: each (relator, sign, rotation) at which ``z``
        starts."""
        return list(self._certificate_scan(z))

    def rotation_word(self, cert: UCert) -> Word:
        return self._signed[(cert.relator, cert.sign)].rotation(cert.rotation)

    def u_complement(self, z: Word, cert: UCert) -> Word:
        """Minimal V with z * V^-1 a power of the certified rotation."""
        tail = self._complement_tail(z.letters, cert, 0)
        # a subword of a power of a cyclically reduced rotation is reduced
        return _unchecked(Word, rank=self.rank, letters=tail).inverse()

    def _complement_tail(self, letters: tuple[int, ...], cert: UCert, extra_power: int) -> tuple[int, ...]:
        """The letters after ``letters`` in the least power of the
        certified rotation that starts with them, with ``extra_power``
        whole periods more: the ball's replacements, and the inverse of
        ``u_complement`` at 0."""
        rot = self.rotation_word(cert).letters
        full = rot * (max(1, -(-len(letters) // len(rot))) + extra_power)
        if full[: len(letters)] != letters:
            raise ValueError("certificate does not match the word")
        return full[len(letters) :]

    def _union_sam(self, n: int) -> strsearch.SuffixAutomaton:
        """Automaton of the reversed signed relator powers, joined by a
        separator that no word contains, so that no match runs from one
        power into the next.  It serves words of up to ``_served``
        letters: each power of U has _served // |U| + 2 periods, so it
        holds every factor that long from every rotation.  A longer word
        rebuilds it for twice the larger length."""
        if n > self._served:
            self._served = served = 2 * max(n, self._served)
            powers = [
                strsearch.letters_to_chars(u.letters) * (served // len(u) + 2) for u in self._signed.values()
            ]
            self._sam = strsearch.SuffixAutomaton(strsearch.SEPARATOR.join(powers)[::-1])
        assert self._sam is not None
        return self._sam

    def max_factor_starting(self, w: Word) -> list[int]:
        """For each position of w, the length of the longest factor of a
        relator power starting there.  The matching statistics of the
        reversed word against the automaton of all reversed signed powers
        give, at each position of the reversal, the longest factor of one
        of them ending there; read backwards, that is the table."""
        return self._window_factors(w.letters, 0, len(w)) if w else []

    def _window_factors(self, letters: tuple[int, ...], lo: int, hi: int) -> list[int]:
        """Entries lo..hi - 1 of the table of the word ``letters``, from a
        scan of letters[lo:hi] alone against the automaton a scan of the
        whole word uses.  The scan starts at hi, so it caps each entry at
        hi - lo: an entry is exact when its longest factor ends by hi."""
        rev = strsearch.letters_to_chars(letters[lo:hi])[::-1]
        return self._union_sam(len(letters)).matching_statistics(rev)[::-1]


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


def _check_covered(maxstart: list[int]) -> list[int]:
    """Raise at the first position where no relator-power factor starts, else return the table."""
    if not all(maxstart):
        pos = maxstart.index(0)
        raise ValueError(f"letter at position {pos} is not a factor of any relator power")
    return maxstart


def _greedy_cuts(maxstart: list[int]) -> list[int]:
    """The ends f_1 < ... < f_k = n of the segmentation whose every factor
    is the longest one starting where the last ended, f_(t+1) = f_t +
    maxstart[f_t].  By the monotone reach (see ``_factor_starts``) k is
    least, and the first factor is the longest among minimal
    segmentations.  The word must be covered."""
    n = len(maxstart)
    ends = []
    pos = 0
    while pos < n:
        pos += maxstart[pos]
        ends.append(pos)
    return ends


def _segmentation(w: Word, idx: UWordIndex, maxstart: list[int]) -> Segmentation:
    """The greedy witness segmentation of a covered word, from its table."""
    ends = _greedy_cuts(maxstart)
    certs = []
    for lo, hi in zip([0] + ends, ends):
        cert = idx.is_u_word(w.subword(lo, hi))
        if cert is None:
            raise RuntimeError(f"the factor table covers w[{lo}:{hi}], but no certificate does")
        certs.append(cert)
    return Segmentation(w, tuple(ends[:-1]), tuple(certs))


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
    hays = [strsearch.letters_to_chars(u.letters) * (len(w) // len(u) + 2) for u in idx._signed.values()]
    best = [0] * (len(chars) + 1)
    for pos in range(len(chars) - 1, -1, -1):
        out = len(chars) + 2
        for q in range(pos + 1, len(chars) + 1):
            piece = chars[pos:q]
            if any(piece in hay for hay in hays) and 1 + best[q] < out:
                out = 1 + best[q]
        best[pos] = out
    return best[0]


def _backward_cuts(reach: list[int]) -> list[int] | None:
    """The breakpoints n = g_0 > ... > g_k = 0 of G[p] = c1 of w[p:], s on
    [g_s, g_(s-1)), from the word's reach list; None when some letter is
    in no factor.  G[p] <= s + 1 exactly when reach[p] >= g_s, so g_(s+1)
    is the least such p; no start before an uncovered letter reaches past
    it, and the chain stalls there."""
    back = [len(reach)]
    while back[-1]:
        g = bisect_left(reach, back[-1], 0, back[-1])
        if g == back[-1]:
            return None
        back.append(g)
    return back


def _factor_starts(maxstart: list[int], reach: list[int]) -> list[range] | None:
    """Entry j - 1 is the range of starts p of the j-th factors of all
    minimal segmentations, 1 <= j <= k; None when the word has none.

    A subword of a relator-power factor is one too, and ``maxstart`` is
    exact, so the factors starting at p are the prefixes of w[p:] of 1 to
    maxstart[p] letters, and maxstart[p + 1] >= maxstart[p] - 1: the reach
    p + maxstart[p] never decreases.  Hence F[q] = c1 of w[:q] is t on
    (f_(t-1), f_t] (``_greedy_cuts``), G is a step function too
    (``_backward_cuts``), and w[p:q] is the j-th factor of a minimal
    segmentation exactly when F[p] = j - 1, G[p] = k - j + 1, q <= reach[p]
    and G[q] = G[p] - 1, which the reach itself satisfies.  With a = j - 1
    and f_(-1) = -1 the starts are [max(f_(a-1) + 1, g_(k-a)), min(f_a,
    g_(k-a-1) - 1)], and the ranges follow each other with p ascending."""
    back = _backward_cuts(reach)
    if back is None:
        return None
    fwd = [-1, 0, *_greedy_cuts(maxstart)]
    up = back[::-1]
    return [range(max(f0 + 1, g0), min(f1 + 1, g1)) for f0, f1, g0, g1 in zip(fwd, fwd[1:], up, up[1:])]


class _Node:
    """One word of the ball: its factor tables and, once expanded, its
    tagged edges.  ``best[i]`` is the longest i-th factor of a minimal
    segmentation; with none, k = n + 2 and best = [0]."""

    __slots__ = ("word", "maxstart", "reach", "k", "starts", "best", "edges")

    def __init__(self, word: Word, maxstart: list[int]):
        self.word = word
        self.maxstart = maxstart
        self.reach = list(map(add, range(len(maxstart)), maxstart))
        starts = _factor_starts(maxstart, self.reach)
        self.k = len(maxstart) + 2 if starts is None else len(starts)
        self.starts = starts or []
        self.best = [0, *(max(maxstart[r.start : r.stop]) for r in self.starts)]
        self.edges: list[tuple[int, int]] | None = None

    def max_ith_factor(self, i: int) -> int:
        return self.best[i] if 1 <= i < len(self.best) else 0


def _spliced_table(idx: UWordIndex, node: _Node, letters: tuple[int, ...], p: int, q: int) -> list[int]:
    """The factor table of ``letters``, the node's word w with w[p:q]
    replaced by R letters.  It is the node's below x0 = bisect_left(reach,
    p), whose factors end before p, and maxstart[q:] from p + R on.  The
    reach never decreases, so the entries between reach at most e = p + R
    + maxstart[q], and a scan of the window [x0, e) gives them."""
    maxstart = node.maxstart
    mid = len(letters) - len(maxstart) + q
    x0 = bisect_left(node.reach, p)
    end = mid + maxstart[q] if q < len(maxstart) else mid
    return maxstart[:x0] + idx._window_factors(letters, x0, end)[: mid - x0] + maxstart[q:]


class _Ball:
    """The equivalence ball of one root word, explored once for every
    factor index.

    Words are numbered in the order they are met, the root first.  A node
    is expanded at most once, into its tagged edges ``(candidate, j)``: the
    words obtained by replacing its j-th factor in any minimal
    segmentation (no segmentation is listed, and none is left out), in
    the order ``edges`` states.  A candidate may recur there, and each
    search skips the words it has seen.  Which candidates qualify (free
    reduction at the splice, every letter covered, the same c1) does not
    depend on the protected index, so each candidate is judged once.
    """

    def __init__(self, root: Word, idx: UWordIndex, thresholds: Thresholds):
        """Raises ValueError when some letter of the root is in no factor."""
        self.idx = idx
        self.thresholds = thresholds
        self.long = thresholds.long_factor_letters(idx.max_relator_length)
        self.rank = root.rank
        self.ids = {root.letters: 0}
        self.nodes: list[_Node | None] = [_Node(root, _check_covered(idx.max_factor_starting(root)))]

    def node(self, nid: int) -> _Node:
        node = self.nodes[nid]
        assert node is not None
        return node

    def _candidate(self, node: _Node, p: int, q: int, replacement: tuple[int, ...]) -> int | None:
        """The id of the word that replaces w[p:q] of the node's word w by
        ``replacement``, or None when it does not qualify."""
        letters = node.word.letters
        spliced = letters[:p] + replacement + letters[q:]
        if spliced == letters:
            return None
        nid = self.ids.get(spliced)
        if nid is None:
            nid = self.ids[spliced] = len(self.nodes)
            maxstart = _spliced_table(self.idx, node, spliced, p, q)
            # judged before any table is built: covered, and of the root's c1
            ok = all(maxstart) and len(_greedy_cuts(maxstart)) == self.node(0).k
            word = _unchecked(Word, rank=self.rank, letters=spliced)
            self.nodes.append(_Node(word, maxstart) if ok else None)
        return nid if self.nodes[nid] is not None else None

    def _span_candidates(self, node: _Node, p: int) -> list[int]:
        """Qualifying words that replace the factor w[p:reach[p]] by a long
        complementary word, when that factor is long and maximal."""
        w, maxstart, long = node.word, node.maxstart, self.long
        q = node.reach[p]
        if q - p < long:
            return []
        # maximality of the factor as a subword of w; q is p's reach, so only the left end can grow
        if p > 0 and maxstart[p - 1] >= q - p + 1:
            return []
        letters = w.letters
        factor = letters[p:q]
        out = []
        for cert in self.idx.certificates(w.subword(p, q)):
            for extra in range(self.thresholds.power_cap + 1):
                # the certified rotation starts with the factor, so this matches
                replacement = self.idx._complement_tail(factor, cert, extra)
                if len(replacement) < long:
                    continue
                # w and the replacement are reduced: only the seams can cancel
                if p > 0 and letters[p - 1] == -replacement[0]:
                    continue
                if q < len(w) and replacement[-1] == -letters[q]:
                    continue
                nid = self._candidate(node, p, q, replacement)
                if nid is not None:
                    out.append(nid)
        return out

    def edges(self, nid: int) -> list[tuple[int, int]]:
        """The node's tagged edges: the starts of ``_factor_starts``, p
        ascending, each start's candidates in ``_span_candidates`` order.
        A candidate may recur, under one index or several.  The order
        matters only where ``max_ball`` binds."""
        node = self.node(nid)
        if node.edges is None:
            node.edges = [
                (cand, j)
                for j, starts in enumerate(node.starts, start=1)
                for p in starts
                for cand in self._span_candidates(node, p)
            ]
        return node.edges

    def i_ball(self, i: int, depth: int) -> list[int]:
        """The words scored for index i, in breadth-first order from the
        root over the edges with j != i, each word at its first
        occurrence.  The search ends at the first word past ``max_ball``:
        no node is expanded after it."""
        scored = [0]
        frontier = [0]
        seen = {0}
        for _ in range(depth):
            next_frontier: list[int] = []
            for nid in frontier:
                for neighbor, j in self.edges(nid):
                    if j == i or neighbor in seen:
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
        return {**asdict(self), "per_index": list(self.per_index)}


def complexity(
    w: Word,
    idx: UWordIndex,
    thresholds: Thresholds = Thresholds(),
    depth: int = 1,
) -> ComplexityValue:
    """Depth-bounded complexity; the empty word, with c1 = 0 and no
    factors, is the bottom element."""
    return _Ball(w, idx, thresholds).value(depth)


def complexity_report(w: Word, idx: UWordIndex, depth: int) -> dict:
    """The ``complexity`` payload but its config: the value at the default
    thresholds and the greedy witness segmentation, from one factor table."""
    thresholds = Thresholds()
    ball = _Ball(w, idx, thresholds)
    value = ball.value(depth)
    # the identity has the bottom value and no factors to segment
    seg = _segmentation(w, idx, ball.node(0).maxstart) if w else Segmentation(w, (), ())
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
    if not any(len(s) == 2 * len(glued) and glued in s for s in idx._twice.values()):
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

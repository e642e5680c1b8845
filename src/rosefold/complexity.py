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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
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
    as fractions of the longest relator length."""

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
        self._rev_sams: dict[tuple[int, int, int], strsearch.SuffixAutomaton] = {}
        self._rotations: set[tuple[int, ...]] | None = None

    def missing_letters(self) -> list[int]:
        present = {abs(l) for rel in self.relators for l in rel.letters}
        return [g for g in range(1, self.rank + 1) if g not in present]

    @property
    def max_relator_length(self) -> int:
        return max(len(r) for r in self.relators)

    @property
    def min_relator_length(self) -> int:
        return min(len(r) for r in self.relators)

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

    def _reversed_sam(self, relator: int, sign: int, min_length: int):
        key = self._periods_key(relator, sign, min_length)
        sam = self._rev_sams.get(key)
        if sam is None:
            sam = strsearch.SuffixAutomaton((self._chars[(relator, sign)] * key[2])[::-1])
            self._rev_sams[key] = sam
        return sam

    def rotation_set(self) -> set[tuple[int, ...]]:
        if self._rotations is None:
            self._rotations = {
                base.rotation(k).letters
                for word in self.relators
                for base in (word, word.inverse())
                for k in range(len(base))
            }
        return self._rotations

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

    def u_complement(self, z: Word, cert: UCert | None = None, extra_power: int = 0) -> Word:
        """Minimal V with z * V^-1 a power of the certified rotation;
        ``extra_power`` appends whole extra periods to the family."""
        if cert is None:
            cert = self.is_u_word(z)
            if cert is None:
                raise ValueError("word is not a relator-power factor")
        rot = self.rotation_word(cert)
        L = len(rot)
        m = max(1, math.ceil(len(z) / L)) + extra_power
        full = rot.letters * m
        if full[: len(z)] != z.letters:
            raise ValueError("certificate does not match the word")
        tail = full[len(z) :]
        # a subword of a power of a cyclically reduced rotation is reduced
        return _unchecked(Word, rank=self.rank, letters=tail).inverse()

    def max_factor_starting(self, w: Word) -> list[int]:
        """For each position of w, the length of the longest factor of a
        relator power starting there (computed in one scan per relator
        sign via a reversed-text automaton)."""
        if len(w) == 0:
            return []
        chars = strsearch.letters_to_chars(w.letters)
        rev = chars[::-1]
        best = [0] * len(w)
        for i in range(len(self.relators)):
            for sign in (1, -1):
                sam = self._reversed_sam(i, sign, len(w) + len(self.relators[i]))
                stats = sam.matching_statistics(rev)
                for rev_pos, (m, _) in enumerate(stats):
                    pos = len(w) - 1 - rev_pos
                    if m > best[pos]:
                        best[pos] = m
        return best


@dataclass(frozen=True)
class Segmentation:
    """A factorization of a word into certified relator-power factors."""

    word: Word
    boundaries: tuple[int, ...]  # interior cut positions, increasing
    certificates: tuple[UCert, ...]

    def spans(self) -> list[tuple[int, int]]:
        cuts = (0,) + self.boundaries + (len(self.word),)
        return [(cuts[i], cuts[i + 1]) for i in range(len(cuts) - 1)]

    def factors(self) -> list[Word]:
        return [self.word.subword(a, b) for a, b in self.spans()]

    def to_dict(self) -> dict:
        return {
            "word": str(self.word),
            "boundaries": list(self.boundaries),
            "certificates": [c.__dict__ for c in self.certificates],
        }


def _min_factor_tables(w: Word, maxstart: list[int]) -> tuple[list[int], list[int]]:
    """Forward and backward minimal factor counts: F[p] = c1 of w[:p],
    G[p] = c1 of w[p:]."""
    n = len(w)
    INF = n + 2
    F = [INF] * (n + 1)
    F[0] = 0
    for p in range(n):
        if F[p] >= INF:
            continue
        reach = maxstart[p]
        for q in range(p + 1, p + reach + 1):
            if F[p] + 1 < F[q]:
                F[q] = F[p] + 1
    G = [INF] * (n + 1)
    G[n] = 0
    for p in range(n - 1, -1, -1):
        reach = maxstart[p]
        best = INF
        for q in range(p + 1, p + reach + 1):
            if G[q] + 1 < best:
                best = G[q] + 1
        G[p] = best
    return F, G


def c1(w: Word, idx: UWordIndex) -> tuple[int, Segmentation]:
    """Minimal number of relator-power factors, with one witness
    segmentation (longest-first-factor among the minimal ones)."""
    if len(w) == 0:
        raise ValueError("c1 is undefined on the empty word")
    maxstart = idx.max_factor_starting(w)
    for pos, m in enumerate(maxstart):
        if m == 0:
            raise ValueError(
                f"letter at position {pos} is not a factor of any relator power"
            )
    F, G = _min_factor_tables(w, maxstart)
    k = G[0]
    cuts: list[int] = []
    pos = 0
    while pos < len(w):
        used = len(cuts) + 1
        # longest jump keeping the suffix solvable in the remaining budget
        q = None
        for jump in range(maxstart[pos], 0, -1):
            if G[pos + jump] == k - used:
                q = pos + jump
                break
        assert q is not None
        if q < len(w):
            cuts.append(q)
        pos = q
    factors = []
    lo = 0
    for cut in cuts + [len(w)]:
        factors.append(w.subword(lo, cut))
        lo = cut
    certs = []
    for factor in factors:
        cert = idx.is_u_word(factor)
        assert cert is not None
        certs.append(cert)
    return k, Segmentation(w, tuple(cuts), tuple(certs))


def brute_force_c1(w: Word, idx: UWordIndex) -> int:
    """Independent oracle: memoized exhaustive segmentation search using
    direct substring membership, no per-position maximal-factor table."""
    if len(w) == 0:
        raise ValueError("c1 is undefined on the empty word")
    chars = strsearch.letters_to_chars(w.letters)
    hays = [
        idx._power_string(i, sign, len(w) + len(idx.relators[i]))
        for i in range(len(idx.relators))
        for sign in (1, -1)
    ]

    @lru_cache(maxsize=None)
    def best(pos: int) -> int:
        if pos == len(chars):
            return 0
        out = len(chars) + 2
        for q in range(pos + 1, len(chars) + 1):
            piece = chars[pos:q]
            if any(piece in hay for hay in hays):
                sub = best(q)
                if 1 + sub < out:
                    out = 1 + sub
        return out

    result = best(0)
    best.cache_clear()
    return result


def _cut_sequences(
    n: int, maxstart: list[int], G: list[int], cap: int | None
) -> Iterator[tuple[int, ...]]:
    """Interior cuts of every segmentation of a length-``n`` word into
    G[0] factors, in lexicographic cut order; stops after ``cap`` when
    given."""
    k = G[0]
    emitted = 0
    stack: list[tuple[int, tuple[int, ...]]] = [(0, ())]
    while stack:
        pos, cuts = stack.pop()
        if pos == n:
            yield cuts
            emitted += 1
            if cap is not None and emitted >= cap:
                return
            continue
        used = len(cuts) + 1
        # push longer jumps last so the leftmost-shortest comes out first
        for jump in range(maxstart[pos], 0, -1):
            q = pos + jump
            if G[q] == k - used:
                stack.append((q, cuts + ((q,) if q < n else ())))


def _ith_factor_maxima(maxstart: list[int], F: list[int], G: list[int]) -> list[int]:
    """Entry i (1 <= i <= k = G[0]) is the longest i-th factor over all
    admissible decompositions, straight from the forward/backward tables;
    entry 0 is unused."""
    n = len(maxstart)
    k = G[0]
    best = [0] * (k + 1)
    for p in range(n):
        i = F[p] + 1
        if i > k:
            continue
        target = k - i
        # G does not increase with q, so the last q with G[q] == target
        # is found by walking down from the farthest reach while G[q] is
        # below it; for a coverable word G[q] >= target on the whole reach
        q = min(p + maxstart[p], n)
        while q > p and G[q] < target:
            q -= 1
        if q > p and G[q] == target and q - p > best[i]:
            best[i] = q - p
    return best


class _Node:
    """One word of the ball: its factor tables and, once the node has been
    expanded, its tagged edges."""

    __slots__ = ("word", "maxstart", "G", "best", "edges")

    def __init__(self, word: Word, idx: UWordIndex):
        self.word = word
        self.maxstart = idx.max_factor_starting(word)
        F, self.G = _min_factor_tables(word, self.maxstart)
        self.best = _ith_factor_maxima(self.maxstart, F, self.G)
        self.edges: list[tuple[int, int]] | None = None

    @property
    def k(self) -> int:
        return self.G[0]

    def max_ith_factor(self, i: int) -> int:
        return self.best[i] if 1 <= i <= self.k else 0


class _Ball:
    """The equivalence ball of one root word, explored once for every
    factor index.

    Words are numbered in the order they are met, the root first.  A node
    is expanded at most once, into its tagged edges ``(candidate, j)``: the
    words obtained by replacing its j-th factor in some admissible
    decomposition, in generation order, each pair once.  Which candidates
    qualify (free reduction at the splice, every letter covered, the same
    c1) does not depend on the protected index, so each candidate is
    judged once.  The i-neighbours of a node are the candidates of its
    edges with j != i, in first-occurrence order.
    """

    def __init__(self, root: Word, idx: UWordIndex, thresholds: Thresholds):
        self.idx = idx
        self.thresholds = thresholds
        self.long = thresholds.long_factor_letters(idx.max_relator_length)
        self.rank = root.rank
        self.ids = {root.letters: 0}
        self.nodes: list[_Node | None] = [_Node(root, idx)]

    def node(self, nid: int) -> _Node:
        node = self.nodes[nid]
        assert node is not None
        return node

    def _candidate(self, letters: tuple[int, ...]) -> int | None:
        """The id of a spliced word, or None when it does not qualify."""
        nid = self.ids.get(letters)
        if nid is None:
            nid = self.ids[letters] = len(self.nodes)
            node = _Node(_unchecked(Word, rank=self.rank, letters=letters), self.idx)
            ok = all(node.maxstart) and node.k == self.node(0).k
            self.nodes.append(node if ok else None)
        return nid if self.nodes[nid] is not None else None

    def _span_candidates(self, node: _Node, p: int, q: int) -> list[int]:
        """Qualifying words that replace the factor w[p:q] by a long
        complementary word, when that factor is long and maximal."""
        w, maxstart, long = node.word, node.maxstart, self.long
        n = len(w)
        if q - p < long:
            return []
        # maximality of the factor as a subword of w
        if p > 0 and maxstart[p - 1] >= q - p + 1:
            return []
        if q < n and maxstart[p] >= q - p + 1:
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
        node = self.node(nid)
        if node.edges is None:
            if not all(node.maxstart):
                raise ValueError("some letter is not a factor of any relator power")
            n = len(node.word)
            by_span: dict[tuple[int, int], list[int]] = {}
            seen: set[tuple[int, int]] = set()
            edges = []
            for cuts in _cut_sequences(n, node.maxstart, node.G, self.thresholds.max_decompositions):
                bounds = (0,) + cuts + (n,)
                for j in range(1, len(bounds)):
                    span = (bounds[j - 1], bounds[j])
                    found = by_span.get(span)
                    if found is None:
                        found = by_span[span] = self._span_candidates(node, *span)
                    for cand in found:
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
        root over the i-neighbours.  No word is scored once more than
        ``max_ball`` words have been seen; the stop leaves only the loop
        over one node's neighbours, so the search still runs on."""
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
                        break
                    scored.append(neighbor)
                    next_frontier.append(neighbor)
            frontier = next_frontier
            if not frontier:
                break
        return scored

    def ell_hat(self, i: int, depth: int) -> int:
        """Max i-th factor length over the depth-bounded i-ball."""
        return max(self.node(nid).max_ith_factor(i) for nid in self.i_ball(i, depth))


@dataclass(frozen=True)
class ComplexityValue:
    """(c1, c2) with per-index robust lengths; ordered lexicographically
    on the pair only."""

    c1: int
    c2: int
    per_index: tuple[int, ...] = ()
    depth: int = 0

    def key(self) -> tuple[int, int]:
        return (self.c1, self.c2)

    def __lt__(self, other: "ComplexityValue") -> bool:
        return self.key() < other.key()

    def __le__(self, other: "ComplexityValue") -> bool:
        return self.key() <= other.key()

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
    """Depth-bounded complexity; the empty word is the bottom element."""
    if len(w) == 0:
        return ComplexityValue(0, 0, (), depth)
    k, _ = c1(w, idx)
    zero_at = thresholds.zero_letters(idx.max_relator_length)
    ball = _Ball(w, idx, thresholds)
    per = []
    for i in range(1, k + 1):
        hat = ball.ell_hat(i, depth)
        per.append(hat if hat >= zero_at else 0)
    return ComplexityValue(k, sum(per), tuple(per), depth)


def tuple_complexity(
    words: Sequence[Word],
    idx: UWordIndex,
    thresholds: Thresholds = Thresholds(),
    depth: int = 1,
) -> tuple[ComplexityValue, ...]:
    """Complexity vector over the first n entries (n = relator count);
    the trailing stabilization entries are disregarded."""
    n = len(idx.relators)
    return tuple(complexity(w, idx, thresholds, depth) for w in words[:n])


@dataclass
class ReductionOutcome:
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
    glued = pattern.letters + replacement.inverse().letters
    if tuple(glued) not in idx.rotation_set():
        raise ValueError("pattern * replacement^-1 is not a relator rotation")
    if occurrence_set is None:
        occurrence_set = strsearch.greedy_disjoint(w.letters, pattern.letters, True)
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
    return ReductionOutcome(new_word, before, after, list(occurrence_set))

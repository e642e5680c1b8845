"""Substring scans and indexes over words encoded as strings.

Each signed letter (or signed edge token of a graph path) is mapped to
a single character, so the hot loops ride on C-level string and dict
operations.  The module holds the two occurrence scans the package
uses: all (overlapping) occurrences in an encoded string, which the
relator certificates, the piece search and the repeat counts read, and
greedy left-to-right disjoint occurrences of a pattern or its inverse in
a letter or token sequence, which encodes its arguments itself.  It also
holds the suffix automaton behind the repeat statistics and the
relator-factor tables.

It fixes the package's one letter order a1 < a1^-1 < a2 < ...: letter
``l`` has index 2(|l| - 1) + (l < 0) (``_INDEX``), ``i ^ 1`` indexes its
inverse, and its character is ``_BASE + 2`` plus its index, so encoded
words compare as their letters do.  With ``_BASE`` 0 the letters of ranks
up to 127 are Latin-1 characters, which CPython keeps as cached
one-character strings.  Every per-letter table of the package
(``_letter_rows`` among them) is indexed in this order.
"""

from __future__ import annotations

import gc
from typing import Iterable, Sequence

_BASE = 0  # letter characters start at 2, clear of the separator below
SEPARATOR = "\x00"  # joins indexed texts; no encoded letter or token equals it


class _Table(dict):
    """A dict that fills itself from ``fill`` on a miss, so a lookup table
    can serve ``map`` and ``str.translate`` at C speed over any key."""

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


# signed letter or edge token -> its index in the letter order; index ->
# that letter; signed letter or token -> its character; character code ->
# the code of the inverse letter's character
_INDEX = _Table(lambda token: 2 * abs(token) - 2 + (token < 0))
_LETTER = _Table(lambda i: -(i >> 1) - 1 if i & 1 else (i >> 1) + 1)
_CHARS = _Table(lambda token: chr(_BASE + 2 + _INDEX[token]))
_SWAP = _Table(lambda code: code ^ 1)


def _alphabet(rank: int) -> list[int]:
    """The ``2 * rank`` letters in the letter order, each at its index."""
    return [_LETTER[i] for i in range(2 * rank)]


def _letter_rows(rank: int, num_vertices: int, edges) -> list[list[int]]:
    """Per letter index, each vertex's target mask: bit ``v`` of
    ``rows[i][u]`` is set when an edge reading letter ``i`` runs from ``u``
    to ``v``, for edges ``(src, dst, letter index)`` read both ways."""
    rows = [[0] * num_vertices for _ in range(2 * rank)]
    for src, dst, i in edges:
        rows[i][src] |= 1 << dst
        rows[i ^ 1][dst] |= 1 << src
    return rows


def letters_to_chars(letters: Iterable[int]) -> str:
    return "".join(map(_CHARS.__getitem__, letters))


def chars_to_letters(s: str) -> tuple[int, ...]:
    return tuple(_LETTER[ord(ch) - _BASE - 2] for ch in s)


def inverse_chars(s: str) -> str:
    return s[::-1].translate(_SWAP)


class SuffixAutomaton:
    """Suffix automaton of one string, enough for repeated-substring and
    common-substring queries.

    ``codes`` numbers the distinct characters of the text densely, in
    order of first occurrence, and ``next[v][codes[ch]]`` is the state
    that ``ch`` leads to from state ``v``, or 0 when there is none: the
    root, state 0, is no state's target.  A list of one slot per distinct
    character costs a state less than a dict of its transitions."""

    __slots__ = ("next", "link", "length", "codes")

    def __init__(self, text: str):
        # the classic online construction, one letter at a time, on local
        # names for the tables.  Rows of ints form no reference cycles, so
        # the cyclic collector is paused while they are built: otherwise
        # their allocation triggers collections that walk every live
        # object, the growing table included, and find nothing
        collecting = gc.isenabled()
        gc.disable()
        try:
            codes = {ch: c for c, ch in enumerate(dict.fromkeys(text))}
            empty = [0] * len(codes)
            nxt: list[list[int]] = [empty[:]]
            link = [-1]
            length = [0]
            last = 0
            for c in map(codes.__getitem__, text):
                cur = len(nxt)
                nxt.append(empty[:])
                length.append(length[last] + 1)
                link.append(0)
                p = last
                while p >= 0 and not nxt[p][c]:
                    nxt[p][c] = cur
                    p = link[p]
                if p >= 0:
                    q = nxt[p][c]
                    if length[p] + 1 == length[q]:
                        link[cur] = q
                    else:
                        clone = len(nxt)
                        nxt.append(nxt[q][:])
                        length.append(length[p] + 1)
                        link.append(link[q])
                        while p >= 0 and nxt[p][c] == q:
                            nxt[p][c] = clone
                            p = link[p]
                        link[q] = link[cur] = clone
                last = cur
        finally:
            if collecting:
                gc.enable()
        self.next = nxt
        self.link = link
        self.length = length
        self.codes = codes

    def longest_repeated(self) -> int:
        """Length of the longest substring occurring at least twice.  A
        state other than the root is a suffix-link target exactly when its
        substrings end at two or more positions, so this is the longest
        such target."""
        return max(map(self.length.__getitem__, self.link[1:]), default=0)

    def matching_statistics(self, query: str) -> list[int]:
        """For each query position i, the length of the longest factor of
        the indexed text ending at i (classic streaming match)."""
        nxt, link, length_of = self.next, self.link, self.length
        out: list[int] = []
        append = out.append
        v = length = 0
        for c in map(self.codes.get, query):
            if c is None:  # a character the text lacks
                v = length = 0
                append(0)
                continue
            target = nxt[v][c]
            while not target and v:
                v = link[v]
                target = nxt[v][c]
                length = length_of[v]
            v = target  # nonzero: the root has a transition on every text character
            length += 1
            append(length)
        return out


def repeat_lengths(chars: str) -> tuple[int, int]:
    """Longest factor occurring at two distinct positions, plainly and
    with an occurrence of the inverse word counted as an occurrence, both
    read off one automaton."""
    if not chars:
        return 0, 0
    sam = SuffixAutomaton(chars)
    plain = sam.longest_repeated()
    return plain, max(plain, *sam.matching_statistics(inverse_chars(chars)))


def all_occurrences(chars: str, pattern: str) -> list[int]:
    """Start positions, in increasing order, where ``pattern`` occurs in
    ``chars``; occurrences may overlap."""
    if not pattern:
        raise ValueError("pattern must be nonempty")
    hits = []
    pos = chars.find(pattern)
    while pos >= 0:
        hits.append(pos)
        pos = chars.find(pattern, pos + 1)
    return hits


def greedy_disjoint(letters: Sequence[int], pattern: Sequence[int]) -> list[tuple[int, int]]:
    """Left-to-right pairwise disjoint occurrences of ``pattern`` (sign 1)
    and of its inverse (sign -1) in a sequence of nonzero signed ints
    (letters or edge tokens), as (position, sign) pairs: each hit is the
    leftmost occurrence past the previous one, and sign 1 wins where both
    start.  Greedy is optimal here because all occurrence intervals share
    one length."""
    if not pattern:
        raise ValueError("pattern must be nonempty")
    chars = letters_to_chars(letters)
    target = letters_to_chars(pattern)
    targets = [target, inverse_chars(target)]
    found = [chars.find(t) for t in targets]
    hits: list[tuple[int, int]] = []
    while any(at >= 0 for at in found):
        pos, k = min((at, k) for k, at in enumerate(found) if at >= 0)
        hits.append((pos, 1 - 2 * k))
        end = pos + len(target)
        found = [
            chars.find(t, end) if 0 <= at < end else at
            for t, at in zip(targets, found)
        ]
    return hits

"""Linear-time substring indexes used by the sampling statistics and the
small-cancellation scanners.

Words are handled here as plain Python strings: each signed letter is
mapped to a single character, so the hot loops ride on C-level string
and dict operations.
"""

from __future__ import annotations

from typing import Iterable

_BASE = 0x100  # keep letter characters clear of separators below


def letters_to_chars(letters: Iterable[int]) -> str:
    return "".join(
        chr(_BASE + (abs(l) << 1) + (0 if l > 0 else 1)) for l in letters
    )


def chars_to_letters(s: str) -> tuple[int, ...]:
    out = []
    for ch in s:
        code = ord(ch) - _BASE
        gen = code >> 1
        out.append(gen if code & 1 == 0 else -gen)
    return tuple(out)


def inverse_chars(s: str) -> str:
    return "".join(chr(ord(ch) ^ 1) for ch in reversed(s))


class SuffixAutomaton:
    """Suffix automaton of one string, with occurrence counts and first
    end positions, enough for repeated-substring and common-substring
    queries."""

    __slots__ = ("next", "link", "length", "last", "occ", "endpos")

    def __init__(self, text: str = ""):
        self.next: list[dict[str, int]] = [{}]
        self.link: list[int] = [-1]
        self.length: list[int] = [0]
        self.occ: list[int] = [0]
        self.endpos: list[int] = [-1]
        self.last = 0
        for i, ch in enumerate(text):
            self.extend(ch, i)

    def extend(self, ch: str, pos: int) -> None:
        cur = len(self.next)
        self.next.append({})
        self.length.append(self.length[self.last] + 1)
        self.link.append(0)
        self.occ.append(1)
        self.endpos.append(pos)
        p = self.last
        while p >= 0 and ch not in self.next[p]:
            self.next[p][ch] = cur
            p = self.link[p]
        if p == -1:
            self.link[cur] = 0
        else:
            q = self.next[p][ch]
            if self.length[p] + 1 == self.length[q]:
                self.link[cur] = q
            else:
                clone = len(self.next)
                self.next.append(dict(self.next[q]))
                self.length.append(self.length[p] + 1)
                self.link.append(self.link[q])
                self.occ.append(0)
                self.endpos.append(self.endpos[q])
                while p >= 0 and self.next[p].get(ch) == q:
                    self.next[p][ch] = clone
                    p = self.link[p]
                self.link[q] = self.link[cur] = clone
        self.last = cur

    def occurrence_counts(self) -> list[int]:
        order = sorted(range(len(self.length)), key=self.length.__getitem__, reverse=True)
        occ = list(self.occ)
        for v in order:
            if self.link[v] > 0:
                occ[self.link[v]] += occ[v]
            elif self.link[v] == 0:
                occ[0] += occ[v]
        return occ

    def longest_repeated(self) -> int:
        """Length of the longest substring occurring at least twice."""
        occ = self.occurrence_counts()
        best = 0
        for v in range(1, len(self.length)):
            if occ[v] >= 2 and self.length[v] > best:
                best = self.length[v]
        return best

    def longest_common_with(self, other: str) -> int:
        """Length of the longest substring of the indexed text that also
        occurs in ``other`` (classic streaming match)."""
        v, length, best = 0, 0, 0
        for ch in other:
            while v and ch not in self.next[v]:
                v = self.link[v]
                length = self.length[v]
            if ch in self.next[v]:
                v = self.next[v][ch]
                length += 1
            else:
                v, length = 0, 0
            if length > best:
                best = length
        return best

    def matching_statistics(self, query: str) -> list[tuple[int, int]]:
        """For each query position i: (m, e) where m is the longest factor
        of the indexed text ending at i and e is an end position of one of
        its occurrences in the text."""
        out = []
        v, length = 0, 0
        for ch in query:
            while v and ch not in self.next[v]:
                v = self.link[v]
                length = self.length[v]
            if ch in self.next[v]:
                v = self.next[v][ch]
                length += 1
            else:
                v, length = 0, 0
            out.append((length, self.endpos[v]))
        return out


def longest_repeated_length(chars: str, include_inverses: bool) -> int:
    """Longest factor occurring at two distinct positions; with the flag,
    an occurrence of the inverse word counts as an occurrence."""
    if not chars:
        return 0
    sam = SuffixAutomaton(chars)
    best = sam.longest_repeated()
    if include_inverses:
        best = max(best, sam.longest_common_with(inverse_chars(chars)))
    return best


def disjoint_occurrence_count(chars: str, pattern: str) -> int:
    """Greedy left-to-right count of pairwise non-overlapping occurrences
    (optimal for equal-length intervals)."""
    if not pattern:
        raise ValueError("pattern must be nonempty")
    count = 0
    pos = chars.find(pattern)
    while pos >= 0:
        count += 1
        pos = chars.find(pattern, pos + len(pattern))
    return count


def greedy_disjoint_positions(chars: str, pattern: str) -> list[int]:
    if not pattern:
        raise ValueError("pattern must be nonempty")
    hits = []
    pos = chars.find(pattern)
    while pos >= 0:
        hits.append(pos)
        pos = chars.find(pattern, pos + len(pattern))
    return hits


def all_occurrences(chars: str, pattern: str) -> list[int]:
    if not pattern:
        raise ValueError("pattern must be nonempty")
    hits = []
    pos = chars.find(pattern)
    while pos >= 0:
        hits.append(pos)
        pos = chars.find(pattern, pos + 1)
    return hits

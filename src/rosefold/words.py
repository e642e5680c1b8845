"""Freely reduced words, cyclic words, and Nielsen moves on tuples.

Letters are signed integers: +g is the g-th generator, -g its formal
inverse, 1 <= g <= rank.  The empty word is a valid word at every rank,
so stabilized tuples (entries equal to the identity) are representable.

Text encoding: space-separated tokens ``a3`` / ``a3^-1``; the rank is
carried separately.  ``1`` is accepted as an alias for the empty word.
``parse_word`` maps the tokens through one table, the reverse of
``format_letter``, and checks the letters with C-level passes; only text
with a token spelled otherwise, or a letter outside the rank, is read
token by token, which names the first bad token.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from typing import Sequence

from .strsearch import _Table, letters_to_chars


def check_letter(letter: int, rank: int) -> None:
    if letter == 0 or abs(letter) > rank:
        raise ValueError(f"letter {letter} outside rank-{rank} alphabet")


@dataclass(frozen=True)
class Word:
    """A freely reduced word over a rank-n alphabet."""

    rank: int
    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        prev = 0
        for letter in self.letters:
            check_letter(letter, self.rank)
            if letter == -prev:
                raise ValueError("word is not freely reduced")
            prev = letter

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        return free_reduce(self.rank, self.letters + other.letters)

    # the inverse and the subwords of a reduced word are reduced, so
    # neither runs the letter checks again

    def inverse(self) -> "Word":
        return _unchecked(
            Word, rank=self.rank, letters=tuple(-l for l in reversed(self.letters))
        )

    def subword(self, start: int, stop: int) -> "Word":
        return _unchecked(Word, rank=self.rank, letters=self.letters[start:stop])

    def rotation(self, k: int) -> "Word":
        """The rotation starting at letter ``k``.  Only a cyclically
        reduced word is accepted; every rotation of one is reduced."""
        if not self.is_cyclically_reduced:
            raise ValueError("word is not cyclically reduced")
        return _unchecked(Word, rank=self.rank, letters=self.letters[k:] + self.letters[:k])

    @property
    def is_cyclically_reduced(self) -> bool:
        return len(self.letters) < 2 or self.letters[0] != -self.letters[-1]

    def __str__(self) -> str:
        return format_word(self)


def empty_word(rank: int) -> Word:
    return Word(rank, ())


def free_reduce(rank: int, letters: Sequence[int]) -> Word:
    """Cancel adjacent inverse pairs until none remain."""
    stack: list[int] = []
    for letter in letters:
        check_letter(letter, rank)
        if stack and stack[-1] == -letter:
            stack.pop()
        else:
            stack.append(letter)
    return Word(rank, tuple(stack))


def _least_rotation(letters: tuple[int, ...]) -> int:
    """Smallest index of a lexicographically least rotation.  A least
    rotation starts with the longest cyclic run of the least letter, found
    by doubling ``in`` tests on the word read twice (character order is
    the letter order, see ``strsearch``).  Those runs cut the word into
    blocks, each a run and letters that hold no other such run.  A block
    that is a proper prefix of another is followed by the run, which reads
    less than the longer block's rest, so the rotations from the runs
    compare as their block sequences do: one ``_scan_least_rotation`` over
    the blocks, read without their common run, picks the least."""
    n = len(letters)
    if n == 0:
        return 0
    s = letters_to_chars(letters)
    d, least = s + s, min(s)
    lo, hi = 1, 2  # a run of lo least letters occurs; none of hi, or hi > n
    while hi <= n and least * hi in d:
        lo, hi = hi, 2 * hi
    hi = min(hi, n + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if least * mid in d else (lo, mid)
    if lo == n:
        return 0
    run = least * lo
    first = d.find(run)
    rests = d[first + lo : first + n].split(run)
    i = _scan_least_rotation(rests + rests, len(rests))
    return first + lo * i + sum(map(len, rests[:i]))


def _scan_least_rotation(d: Sequence, n: int) -> int:
    """The two-pointer scan over candidate starts i != j with common prefix
    k, on a sequence of ``n`` items read twice (Shiloach, "Fast
    canonization of circular strings", 1981): a mismatch rules out the
    greater candidate and the k starts after it; a common prefix of full
    length makes the lesser start the answer."""
    i, j, k = 0, 1, 0
    while i < n and j < n and k < n:
        a, b = d[i + k], d[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        k = 0
    return min(i, j)


@dataclass(frozen=True)
class CyclicWord:
    """A cyclically reduced word stored via its canonical rotation.

    The representative is the lexicographically least rotation in the
    letter order a1 < a1^-1 < a2 < ... (``strsearch``), which makes equality of conjugacy classes of
    cyclically reduced words a plain dataclass equality.
    """

    word: Word

    def __post_init__(self) -> None:
        if not self.word.is_cyclically_reduced:
            raise ValueError("representative is not cyclically reduced")
        if _least_rotation(self.word.letters) != 0:
            raise ValueError("representative is not the canonical rotation")

    @classmethod
    def from_cyclically_reduced(cls, word: Word) -> "CyclicWord":
        if not word.is_cyclically_reduced:
            raise ValueError("representative is not cyclically reduced")
        # the least rotation is reduced and canonical: neither check runs again
        return _unchecked(CyclicWord, word=word.rotation(_least_rotation(word.letters)))

    def __len__(self) -> int:
        return len(self.word)

    def inverse(self) -> "CyclicWord":
        return CyclicWord.from_cyclically_reduced(self.word.inverse())


def cyclic_reduce(word: Word) -> CyclicWord:
    """The canonical cyclic word of ``word``'s conjugacy class: the core
    left when ``word`` is split as c * core * c^-1 with c longest."""
    letters = word.letters
    m = 0
    while len(letters) - 2 * m >= 2 and letters[m] == -letters[-1 - m]:
        m += 1
    return CyclicWord.from_cyclically_reduced(word.subword(m, len(letters) - m))


def _unchecked(cls: type, **fields: object):
    """An instance of a frozen dataclass built without ``__post_init__``,
    for values derived from ones that were already validated."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def commutator_class(g1: Word, g2: Word) -> CyclicWord:
    """Canonical form of the conjugacy class of [g1, g2] up to inversion."""
    if g1.rank != g2.rank:
        raise ValueError("rank mismatch")
    comm = g1 * g2 * g1.inverse() * g2.inverse()
    cyc = cyclic_reduce(comm)
    inv = cyc.inverse()
    # encoded words compare as their letters do in the letter order
    return min(cyc, inv, key=lambda c: letters_to_chars(c.word.letters))


@dataclass(frozen=True)
class GenTuple:
    """An ordered tuple of words sharing one rank."""

    rank: int
    entries: tuple[Word, ...]

    def __post_init__(self) -> None:
        for w in self.entries:
            if w.rank != self.rank:
                raise ValueError("tuple entries must share one rank")

    @property
    def arity(self) -> int:
        return len(self.entries)


def standard_tuple(rank: int, arity: int) -> GenTuple:
    """(a_1, ..., a_n, 1, ..., 1) padded with identities up to ``arity``."""
    if arity < rank:
        raise ValueError("arity must be >= rank")
    entries = [Word(rank, (g,)) for g in range(1, rank + 1)]
    entries += [empty_word(rank)] * (arity - rank)
    return GenTuple(rank, tuple(entries))


@dataclass(frozen=True)
class NielsenMove:
    """Elementary move on a tuple: invert one entry, swap two, or
    multiply one entry by another (or its inverse) on the right."""

    kind: str  # "invert" | "swap" | "multiply"
    i: int
    j: int | None = None
    exponent: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("invert", "swap", "multiply"):
            raise ValueError(f"unknown move kind {self.kind!r}")
        if self.kind == "invert":
            if self.j is not None:
                raise ValueError("invert takes a single index")
        else:
            if self.j is None or self.j == self.i:
                raise ValueError(f"{self.kind} needs two distinct indices")
        if self.kind == "multiply" and self.exponent not in (1, -1):
            raise ValueError("exponent must be +1 or -1")


def apply_nielsen(t: GenTuple, move: NielsenMove) -> GenTuple:
    entries = list(t.entries)
    if not (0 <= move.i < t.arity) or (move.j is not None and not (0 <= move.j < t.arity)):
        raise IndexError("move index outside tuple arity")
    if move.kind == "invert":
        entries[move.i] = entries[move.i].inverse()
    elif move.kind == "swap":
        entries[move.i], entries[move.j] = entries[move.j], entries[move.i]
    else:
        factor = entries[move.j]
        if move.exponent == -1:
            factor = factor.inverse()
        entries[move.i] = entries[move.i] * factor
    return GenTuple(t.rank, tuple(entries))


def random_nielsen_moves(rng: random.Random, arity: int, count: int) -> list[NielsenMove]:
    """A reproducible sequence of valid random moves for an ``arity``-tuple."""
    if arity < 2:
        raise ValueError("need arity >= 2 for swap/multiply moves")
    moves = []
    for _ in range(count):
        kind = rng.choice(("invert", "swap", "multiply"))
        i = rng.randrange(arity)
        if kind == "invert":
            moves.append(NielsenMove("invert", i))
        else:
            j = rng.randrange(arity - 1)
            if j >= i:
                j += 1
            exponent = rng.choice((1, -1)) if kind == "multiply" else 1
            moves.append(NielsenMove(kind, i, j, exponent))
    return moves


def random_reduced_letters(rng: random.Random, rank: int, length: int) -> tuple[int, ...]:
    """Uniform sample over the 2n(2n-1)^(length-1) reduced words of ``length``.

    First letter uniform over the 2n letters, each later letter uniform
    over the 2n-1 non-inverses of its predecessor; no word is rejected.
    The later letters' indices are drawn as ``rng.randrange(2n - 1)``
    draws them (``getrandbits`` of the bit length until the value is in
    range), inlined, so a seed gives the same word as a loop over
    ``randrange``.
    """
    if length == 0:
        return ()
    # positives first, not the letter order: the draws index this list, so
    # reordering it would change every sampled word
    alphabet = [g for g in range(1, rank + 1)] + [-g for g in range(1, rank + 1)]
    # the allowed successors of each letter, in alphabet order
    choices = {prev: [l for l in alphabet if l != -prev] for prev in alphabet}
    prev = alphabet[rng.randrange(2 * rank)]
    letters = [prev]
    append = letters.append
    getrandbits = rng.getrandbits
    m = 2 * rank - 1
    bits = m.bit_length()
    for _ in range(length - 1):
        r = getrandbits(bits)
        while r >= m:
            r = getrandbits(bits)
        prev = choices[prev][r]
        append(prev)
    return tuple(letters)


def splice(w: Word, hits: Sequence[tuple[int, int]], length: int, replacement: Word) -> Word:
    """Replace the ``length``-letter windows of ``w`` starting at the
    disjoint ``(position, sign)`` hits by ``replacement`` (sign 1) or its
    inverse (sign -1), then freely reduce."""
    inverse = replacement.inverse().letters
    letters: list[int] = []
    cursor = 0
    for pos, sign in sorted(hits):
        letters.extend(w.letters[cursor:pos])
        letters.extend(replacement.letters if sign > 0 else inverse)
        cursor = pos + length
    letters.extend(w.letters[cursor:])
    return free_reduce(w.rank, letters)


# ---------------------------------------------------------------------------
# text format


def format_letter(letter: int) -> str:
    return f"a{letter}" if letter > 0 else f"a{-letter}^-1"


_FORMATTED = _Table(format_letter)


def format_word(word: Word) -> str:
    return " ".join(map(_FORMATTED.__getitem__, word.letters))


def _read_letter(token: str) -> int:
    """The signed letter that ``token`` spells, checked against no rank."""
    body = token
    sign = 1
    if body.endswith("^-1"):
        body = body[:-3]
        sign = -1
    if not body.startswith("a") or not body[1:].isdigit():
        raise ValueError(f"bad letter token {token!r}")
    return sign * int(body[1:])


def parse_letter(token: str, rank: int) -> int:
    letter = _read_letter(token)
    check_letter(letter, rank)
    return letter


def _spelled_letter(token: str) -> int:
    """The letter that ``token`` spells as ``format_letter`` spells it; any
    other token raises, so the table below never holds it."""
    letter = _read_letter(token)
    if not letter or format_letter(letter) != token:
        raise ValueError(f"{token!r} is not a letter as format_letter spells it")
    return letter


# token -> letter, the reverse of _FORMATTED: it grows with the letters
# read, never with arbitrary input
_LETTERS = _Table(_spelled_letter)


def parse_word(text: str, rank: int) -> Word:
    """The freely reduced word that ``text`` spells at ``rank``.  The
    tokens map through ``_LETTERS``; ``min`` and ``max`` check the rank,
    and one pass over adjacent letters finds an inverse pair, which
    ``free_reduce`` cancels.  A token the table does not hold, or a letter
    outside the rank, sends the text through ``parse_letter`` token by
    token, which reads other spellings (``a01``) and raises on the first
    bad token in text order."""
    text = text.strip()
    if text in ("", "1"):
        return empty_word(rank)
    tokens = text.split()
    try:
        letters = tuple(map(_LETTERS.__getitem__, tokens))
        spelled = -rank <= min(letters) and max(letters) <= rank
    except ValueError:
        spelled = False
    if not spelled:
        letters = tuple(parse_letter(token, rank) for token in tokens)
    if any(map(operator.eq, letters[1:], map(operator.neg, letters))):
        return free_reduce(rank, letters)
    return _unchecked(Word, rank=rank, letters=letters)

"""Two-family presentations: substitute the first-family words into the
second family to derive one-relator-family presentations, trim the
surviving middles, and compute small-cancellation piece statistics.

Pieces follow the symmetrized convention: a piece is a word that occurs
at two distinct cyclic sites (relator index, sign, cyclic offset), with
occurrences read cyclically and proper (shorter than the relator).  The
lambda value is max piece length over min relator length.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from . import strsearch
from .words import CyclicWord, Word, random_reduced_letters


class DegeneratePresentationError(ValueError):
    """Raised when cancellation destroys a substituted block entirely."""


@dataclass(frozen=True)
class SubstitutionSite:
    """Where one first-family block landed inside a derived relator.

    ``survived`` is the half-open interval of block positions (in the
    block's own reading direction) that outlived free and cyclic
    cancellation; cancellation in a product of reduced blocks only ever
    chews a prefix and a suffix off each block.
    """

    relator: int
    block: int
    word_index: int
    sign: int
    survived: tuple[int, int]


@dataclass
class Presentation:
    rank: int
    length: int
    v_words: tuple[Word, ...]
    u_words: tuple[Word, ...]
    relators: tuple[CyclicWord, ...]
    relator_words: tuple[Word, ...]  # cyclically reduced, pre-rotation
    sites: tuple[SubstitutionSite, ...]
    degenerate_indices: tuple[int, ...] = ()
    v_prime: tuple[Word, ...] | None = None
    v_prime_offsets: tuple[int, ...] | None = None
    n_prime: int | None = None

    @property
    def degenerate(self) -> bool:
        return bool(self.degenerate_indices)

    def to_dict(self) -> dict:
        out = {
            "rank": self.rank,
            "N": self.length,
            "v": [str(w) for w in self.v_words],
            "u": [str(w) for w in self.u_words],
            "U": [str(r.word) for r in self.relators],
            "degenerate": list(self.degenerate_indices),
        }
        if self.v_prime is not None:
            out["vPrime"] = [str(w) for w in self.v_prime]
            out["NPrime"] = self.n_prime
        return out


def _reduce_with_provenance(
    blocks: Sequence[tuple[int, tuple[int, ...]]]
) -> list[tuple[int, int, int]]:
    """Free reduction of concatenated reduced blocks, tracking provenance.

    Each block is (block_id, letters).  Returns the surviving letters as
    (letter, block_id, offset_in_block).
    """
    stack: list[tuple[int, int, int]] = []
    for block_id, letters in blocks:
        for offset, letter in enumerate(letters):
            if stack and stack[-1][0] == -letter:
                stack.pop()
            else:
                stack.append((letter, block_id, offset))
    return stack


def build_relators(v_words: Sequence[Word], u_words: Sequence[Word]) -> Presentation:
    """Derive one relator per index: the generator inverse followed by the
    second-family word with every letter replaced by the corresponding
    first-family word, freely and cyclically reduced.

    Total cancellation of a relator is flagged, never silently accepted.
    """
    n = len(v_words)
    if len(u_words) != n:
        raise ValueError("need equally many words in both families")
    if n == 0:
        raise ValueError("need at least one word in each family")
    rank = v_words[0].rank
    lengths = {len(w) for w in v_words} | {len(w) for w in u_words}
    for w in list(v_words) + list(u_words):
        if w.rank != rank:
            raise ValueError("rank mismatch")
    if len(lengths) != 1:
        raise ValueError("all words must share one length")
    (length,) = lengths

    relators: list[CyclicWord] = []
    relator_words: list[Word] = []
    sites: list[SubstitutionSite] = []
    degenerate: list[int] = []
    for i, u in enumerate(u_words):
        blocks: list[tuple[int, tuple[int, ...]]] = [(-1, (-(i + 1),))]
        block_meta: list[tuple[int, int]] = []  # block_id -> (word_index, sign)
        for letter in u.letters:
            j = abs(letter) - 1
            sign = 1 if letter > 0 else -1
            v = v_words[j] if sign > 0 else v_words[j].inverse()
            block_id = len(block_meta)
            block_meta.append((j, sign))
            blocks.append((block_id, v.letters))
        surviving = _reduce_with_provenance(blocks)
        # cyclic cancellation trims matched prefix/suffix pairs
        lo, hi = 0, len(surviving)
        while hi - lo >= 2 and surviving[lo][0] == -surviving[hi - 1][0]:
            lo += 1
            hi -= 1
        trimmed = surviving[lo:hi]
        letters = tuple(rec[0] for rec in trimmed)
        word = Word(rank, letters)
        if len(word) == 0:
            degenerate.append(i)
            relator_words.append(word)
            relators.append(CyclicWord(word))
            continue
        relator_words.append(word)
        relators.append(CyclicWord.from_cyclically_reduced(word))
        per_block: dict[int, tuple[int, int]] = {}
        for letter, block_id, offset in trimmed:
            if block_id < 0:
                continue
            lo_off, hi_off = per_block.get(block_id, (offset, offset + 1))
            per_block[block_id] = (min(lo_off, offset), max(hi_off, offset + 1))
        for block_id, (word_index, sign) in enumerate(block_meta):
            span = per_block.get(block_id)
            if span is None:
                span = (0, 0)
            sites.append(SubstitutionSite(i, block_id, word_index, sign, span))
    return Presentation(
        rank=rank,
        length=length,
        v_words=tuple(v_words),
        u_words=tuple(u_words),
        relators=tuple(relators),
        relator_words=tuple(relator_words),
        sites=tuple(sites),
        degenerate_indices=tuple(degenerate),
    )


def trim_surviving_middles(
    p: Presentation, eps0: float | None = None
) -> Presentation:
    """Compute, per first-family word, the longest middle that survives
    uncancelled at every substitution site, then cut all of them to one
    common length.

    Raises DegeneratePresentationError when some word is consumed
    entirely at a site; with ``eps0`` given, also when the common length
    falls below (1 - eps0) * N.
    """
    if p.degenerate:
        raise DegeneratePresentationError("presentation has empty relators")
    n = len(p.v_words)
    intervals: list[tuple[int, int]] = [(0, p.length)] * n
    for site in p.sites:
        lo, hi = site.survived
        if site.sign < 0:
            # positions counted in the inverted block; mirror them
            lo, hi = p.length - hi, p.length - lo
        cur_lo, cur_hi = intervals[site.word_index]
        intervals[site.word_index] = (max(cur_lo, lo), min(cur_hi, hi))
    for j, (lo, hi) in enumerate(intervals):
        if hi <= lo:
            raise DegeneratePresentationError(
                f"word {j} has no commonly surviving middle"
            )
    n_prime = min(hi - lo for lo, hi in intervals)
    if eps0 is not None and n_prime < (1 - eps0) * p.length:
        raise DegeneratePresentationError(
            f"surviving middle length {n_prime} below (1-eps0)N"
        )
    v_prime = []
    offsets = []
    for j, (lo, hi) in enumerate(intervals):
        v_prime.append(p.v_words[j].subword(lo, lo + n_prime))
        offsets.append(lo)
    # re-scan: the trimmed middle must occur uncancelled at every site
    for site in p.sites:
        lo, hi = site.survived
        if site.sign < 0:
            lo, hi = p.length - hi, p.length - lo
        off = offsets[site.word_index]
        assert lo <= off and off + n_prime <= hi, "trimmed middle not covered at a site"
    p.v_prime = tuple(v_prime)
    p.v_prime_offsets = tuple(offsets)
    p.n_prime = n_prime
    return p


def sample_presentation(
    rank: int, length: int, seed: int, max_attempts: int = 64
) -> tuple[Presentation, int]:
    """Random presentation from uniformly sampled reduced words, retrying
    on degeneracy; returns the presentation and the rejection count."""
    rng = random.Random(seed)
    rejects = 0
    for _ in range(max_attempts):
        v_words = [Word(rank, random_reduced_letters(rng, rank, length)) for _ in range(rank)]
        u_words = [Word(rank, random_reduced_letters(rng, rank, length)) for _ in range(rank)]
        p = build_relators(v_words, u_words)
        if not p.degenerate:
            try:
                trim_surviving_middles(p)
                return p, rejects
            except DegeneratePresentationError:
                pass
        rejects += 1
    raise DegeneratePresentationError(
        f"no non-degenerate presentation in {max_attempts} attempts"
    )


# ---------------------------------------------------------------------------
# piece statistics


@dataclass
class PieceReport:
    max_piece_length: int
    min_relator_length: int
    lambda_value: float
    pair_table: dict[tuple[int, int], int]

    def satisfies(self, lam: float) -> bool:
        return self.lambda_value < lam

    def to_dict(self) -> dict:
        return {
            "max_piece_length": self.max_piece_length,
            "min_relator_length": self.min_relator_length,
            "lambda_value": self.lambda_value,
            "pair_table": {f"{i},{j}": v for (i, j), v in self.pair_table.items()},
        }


_SEED_LENGTH = 12  # every piece at least this long starts with a shared seed window


def _common_extension(a: str, i: int, b: str, j: int, known: int, cap: int) -> int:
    """Length of the common prefix of ``a[i:]`` and ``b[j:]``, at most
    ``cap``, given that the first ``known`` letters agree; galloping then
    bisecting slice comparisons."""
    lo, step = known, 1
    while lo < cap:
        hi = min(cap, lo + step)
        if a[i + lo : i + hi] == b[j + lo : j + hi]:
            lo, step = hi, 2 * step
            continue
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if a[i + lo : i + mid] == b[j + lo : j + mid]:
                lo = mid
            else:
                hi = mid
        break
    return lo


def _pair_pieces(relators: Sequence[CyclicWord]) -> dict[tuple[int, int], int]:
    """Longest piece between relators i <= j, in one exact pass.

    Two sites (relator, sign, offset) share the windows up to their
    common extension, so the pair (i, j) scores the largest common
    extension of a site in i and a distinct site in j, capped at
    min(|r_i|, |r_j|) - 1 to keep both windows proper.  Moving both
    sites one letter left lengthens the extension while their preceding
    letters agree, so the maximum is reached either where they differ
    (a left-maximal pair) or on a diagonal where the two periodic
    readings agree for ever (a proper power, or relators whose
    primitive roots are conjugate), which scores the cap.  Left-maximal
    pairs with extension >= ``_SEED_LENGTH`` share their first seed
    window and are found by grouping windows; extensions are measured by
    slice comparison, skipping pairs that cannot beat the pair's best so
    far.  Pairs left below the seed length are settled by bisection over
    window sets.
    """
    seed = _SEED_LENGTH
    lengths = [len(r) for r in relators]
    owner: list[int] = []
    texts: list[str] = []  # each signed relator read twice, for cyclic windows
    for i, rel in enumerate(relators):
        chars = strsearch.letters_to_chars(rel.word.letters)
        for signed in (chars, strsearch.inverse_chars(chars)):
            owner.append(i)
            texts.append(signed + signed)
    cap = {
        (i, j): min(lengths[i], lengths[j]) - 1
        for i in range(len(relators))
        for j in range(i, len(relators))
    }
    best = dict.fromkeys(cap, 0)

    roots = [d[: d.find(d[: len(d) // 2], 1)] for d in texts]
    for t1, root1 in enumerate(roots):
        for t2 in range(t1, len(texts)):
            root2 = roots[t2]
            if t1 == t2:
                forever = 2 * len(root1) < len(texts[t1])
            else:
                forever = len(root1) == len(root2) and root2 in root1 + root1
            if forever:
                key = (owner[t1], owner[t2])
                best[key] = cap[key]

    groups: dict[str, list[tuple[int, int]]] = {}
    for t, d in enumerate(texts):
        L = lengths[owner[t]]
        if L < seed:
            continue
        for o in range(L):
            window = d[o : o + seed]
            group = groups.get(window)
            if group is None:
                groups[window] = [(t, o)]
            else:
                group.append((t, o))
    for group in groups.values():
        if len(group) < 2:
            continue
        by_prev: dict[str, list[tuple[int, int]]] = {}
        for t, o in group:
            by_prev.setdefault(texts[t][o - 1], []).append((t, o))
        runs = list(by_prev.values())
        for x, run in enumerate(runs):
            for other in runs[x + 1 :]:
                for t1, o1 in run:
                    for t2, o2 in other:
                        i, j = owner[t1], owner[t2]
                        key = (i, j) if i <= j else (j, i)
                        known, limit = best[key], cap[key]
                        if known >= limit:
                            continue
                        a, b = texts[t1], texts[t2]
                        if known >= seed and (
                            a[o1 + seed : o1 + known + 1] != b[o2 + seed : o2 + known + 1]
                        ):
                            continue  # cannot beat the best: its first known + 1 letters differ
                        start = min(max(seed, known + 1), limit)
                        best[key] = _common_extension(a, o1, b, o2, start, limit)

    def windows(i: int, m: int) -> list[str]:
        return [d[o : o + m] for d in texts[2 * i : 2 * i + 2] for o in range(lengths[i])]

    for (i, j), known in best.items():
        lo, hi = known, min(seed - 1, cap[(i, j)])
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if i == j:
                seen = windows(i, mid)
                shared = len(set(seen)) < len(seen)
            else:
                shared = not set(windows(i, mid)).isdisjoint(windows(j, mid))
            if shared:
                lo = mid
            else:
                hi = mid - 1
        best[(i, j)] = lo
    return best


def piece_report(relators: Sequence[CyclicWord]) -> PieceReport:
    """Longest piece over the symmetrized relator family, overall and
    for each pair of relators (see ``_pair_pieces``)."""
    relators = [r for r in relators]
    if not relators or any(len(r) == 0 for r in relators):
        raise ValueError("need nonempty relators")
    pair_table = _pair_pieces(relators)
    max_piece = max(pair_table.values())
    return PieceReport(
        max_piece_length=max_piece,
        min_relator_length=min(len(r) for r in relators),
        lambda_value=max_piece / min(len(r) for r in relators),
        pair_table=pair_table,
    )

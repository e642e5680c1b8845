import dataclasses
import random
from typing import Sequence

import pytest

from conftest import random_cyclically_reduced
from rosefold import presentations, strsearch
from rosefold.presentations import (
    DegeneratePresentationError,
    PieceReport,
    SubstitutionSite,
    build_relators,
    piece_report,
    sample_presentation,
    trim_surviving_middles,
)
from rosefold.words import (
    CyclicWord,
    Word,
    free_reduce,
    parse_word,
    random_reduced_letters,
)


# a search loop that no longer ends fails its test (``conftest.time_limit``)
pytestmark = pytest.mark.usefixtures("time_limit")


def w(text: str, rank: int = 2) -> Word:
    return parse_word(text, rank)


def naive_substitution(v_words, u_words, i):
    """String-rewriting oracle: substitute then reduce then cyclically
    reduce, with no provenance tracking."""
    rank = v_words[0].rank
    letters = [-(i + 1)]
    for letter in u_words[i].letters:
        block = v_words[abs(letter) - 1]
        if letter < 0:
            block = block.inverse()
        letters.extend(block.letters)
    word = free_reduce(rank, letters)
    while len(word) >= 2 and word.letters[0] == -word.letters[-1]:
        word = Word(rank, word.letters[1:-1])
    return word


def _reduce_with_provenance(blocks):
    """Free reduction of concatenated reduced blocks, letter by letter.
    Each block is (block_id, letters); returns the surviving letters as
    (letter, block_id, offset_in_block)."""
    stack = []
    for block_id, letters in blocks:
        for offset, letter in enumerate(letters):
            if stack and stack[-1][0] == -letter:
                stack.pop()
            else:
                stack.append((letter, block_id, offset))
    return stack


def letterwise_build_relators(v_words, u_words):
    """Slow-path oracle for ``build_relators``: reduce letter by letter
    with provenance, trim cyclically, and read each block's surviving span
    off the min and max offsets of its surviving letters.  Returns
    (relators, relator_words, sites, degenerate_indices)."""
    rank = v_words[0].rank
    relators, relator_words, sites, degenerate = [], [], [], []
    for i, u in enumerate(u_words):
        blocks = [(-1, (-(i + 1),))]
        block_meta = []
        for letter in u.letters:
            j = abs(letter) - 1
            sign = 1 if letter > 0 else -1
            v = v_words[j] if sign > 0 else v_words[j].inverse()
            blocks.append((len(block_meta), v.letters))
            block_meta.append((j, sign))
        surviving = _reduce_with_provenance(blocks)
        lo, hi = 0, len(surviving)
        while hi - lo >= 2 and surviving[lo][0] == -surviving[hi - 1][0]:
            lo += 1
            hi -= 1
        trimmed = surviving[lo:hi]
        word = Word(rank, tuple(rec[0] for rec in trimmed))
        relator_words.append(word)
        if len(word) == 0:
            degenerate.append(i)
            relators.append(CyclicWord(word))
            continue
        relators.append(CyclicWord.from_cyclically_reduced(word))
        per_block = {}
        for _, block_id, offset in trimmed:
            if block_id < 0:
                continue
            lo_off, hi_off = per_block.get(block_id, (offset, offset + 1))
            per_block[block_id] = (min(lo_off, offset), max(hi_off, offset + 1))
        for block_id, (word_index, sign) in enumerate(block_meta):
            span = per_block.get(block_id, (0, 0))
            sites.append(SubstitutionSite(i, block_id, word_index, sign, span))
    return tuple(relators), tuple(relator_words), tuple(sites), tuple(degenerate)


def assert_matches_letterwise(v, u):
    p = build_relators(v, u)
    assert (p.relators, p.relator_words, p.sites, p.degenerate_indices) == (
        letterwise_build_relators(v, u)
    )
    return p


class TestBuildRelators:
    def test_hand_example(self):
        v = [w("a1 a2"), w("a2 a1")]
        u = [w("a1 a2"), w("a2 a1")]  # u over the second family, same encoding
        p = build_relators(v, u)
        assert p.relator_words[0] == w("a2 a2 a1")
        assert p.relators[0] == CyclicWord.from_cyclically_reduced(w("a2 a2 a1"))

    def test_total_cancellation_flagged(self):
        p = build_relators([w("a1")], [w("a1")])
        assert p.degenerate and p.degenerate_indices == (0,)

    def test_matches_string_rewriting_oracle(self, rng):
        for _ in range(40):
            n = rng.choice((2, 3))
            length = rng.randrange(2, 12)
            v = [Word(n, random_reduced_letters(rng, n, length)) for _ in range(n)]
            u = [Word(n, random_reduced_letters(rng, n, length)) for _ in range(n)]
            p = build_relators(v, u)
            for i in range(n):
                assert p.relator_words[i] == naive_substitution(v, u, i)

    def test_matches_letterwise_derivation(self, rng):
        # n <= rank word pairs; short words make total cancellation and
        # blocks consumed whole by their neighbours common
        seen = {"degenerate": 0, "consumed": 0}
        for _ in range(600):
            rank = rng.choice((2, 3))
            n = rng.randrange(1, rank + 1)
            length = rng.randrange(1, 13)
            v = [Word(rank, random_reduced_letters(rng, rank, length)) for _ in range(n)]
            u = [
                Word(rank, random_reduced_letters(rng, n, length)) for _ in range(n)
            ]
            p = assert_matches_letterwise(v, u)
            seen["degenerate"] += p.degenerate
            seen["consumed"] += any(site.survived == (0, 0) for site in p.sites)
        assert seen["degenerate"] and seen["consumed"]

    def test_consumed_blocks_by_hand(self):
        # relator 0: a1^-1 . a1 a2 . a2^-1 a1^-1, block 0 eaten from both ends;
        # relator 1: a2^-1 . a2^-1 a1^-1 . a1 a2, both blocks eaten whole
        p = assert_matches_letterwise([w("a1 a2"), w("a2^-1 a1^-1")], [w("a1 a2"), w("a2 a1")])
        assert p.relator_words == (w("a1^-1"), w("a2^-1"))
        assert [(s.relator, s.block, s.word_index, s.survived) for s in p.sites] == [
            (0, 0, 0, (0, 0)), (0, 1, 1, (1, 2)), (1, 0, 1, (0, 0)), (1, 1, 0, (0, 0)),
        ]
        # relator 0: a1^-1 . a2 a2 a1 . a1^-1 a2 a1 . a1^-1 a2^-1 a2^-1; the
        # last block eats the two letters left of the block before it, then
        # ends inside the first block, which keeps its first a2
        p = assert_matches_letterwise([w("a2 a2 a1"), w("a1^-1 a2 a1")], [w("a1 a2 a1^-1"), w("a2 a1 a2")])
        assert p.relator_words[0] == w("a1^-1 a2")
        assert [s.survived for s in p.sites[:3]] == [(0, 1), (0, 0), (0, 0)]

    @pytest.mark.parametrize("seed", range(3))
    def test_sampled_presentations_match_letterwise(self, seed):
        p, _ = sample_presentation(2, 60, seed=seed)
        assert_matches_letterwise(p.v_words, p.u_words)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_relators([w("a1")], [w("a1 a2")])

    def test_generic_relators_near_square_length(self, rng):
        hits = 0
        for _ in range(10):
            v = [Word(2, random_reduced_letters(rng, 2, 60)) for _ in range(2)]
            u = [Word(2, random_reduced_letters(rng, 2, 60)) for _ in range(2)]
            p = build_relators(v, u)
            if p.degenerate:
                continue
            if all(len(r) >= 0.95 * 60 * 60 for r in p.relator_words):
                hits += 1
        assert hits >= 9


class TestTrim:
    def test_no_cancellation_keeps_everything(self):
        # chosen so neither the generator prefix nor any block junction
        # cancels: every substituted block survives whole
        v = [w("a2 a1"), w("a1 a2")]
        u = [w("a1 a2"), w("a2 a1")]
        p = trim_surviving_middles(build_relators(v, u))
        assert p.relator_words[0] == w("a1^-1 a2 a1 a1 a2")
        assert p.n_prime == 2
        assert p.v_prime == (v[0], v[1])

    def test_hand_example_single_cancellation(self):
        v = [w("a1 a2"), w("a2 a1")]
        u = [w("a1 a2"), w("a2 a1")]
        p = trim_surviving_middles(build_relators(v, u))
        # the a1^-1 prefix eats the first letter of the first v-block
        assert p.n_prime == 1

    def test_middles_meeting_in_an_empty_interval(self):
        # a2 a1 keeps its first letter at one site (a1^-1 . a2 a1 . a2 a1,
        # whose ends cancel) and its second at another (a2^-1 . a2 a1 . a2
        # a1): the two middles meet in the empty interval [1, 1)
        p = build_relators([w("a2 a2"), w("a2 a1")], [w("a2 a2"), w("a2 a2")])
        assert [s.survived for s in p.sites] == [(0, 2), (0, 1), (1, 2), (0, 2)]
        with pytest.raises(DegeneratePresentationError, match="word 1 has no commonly surviving middle"):
            trim_surviving_middles(p)

    def test_survives_at_every_site(self, rng):
        for _ in range(20):
            v = [Word(2, random_reduced_letters(rng, 2, 30)) for _ in range(2)]
            u = [Word(2, random_reduced_letters(rng, 2, 30)) for _ in range(2)]
            p = build_relators(v, u)
            if p.degenerate:
                continue
            p = trim_surviving_middles(p)
            # every trimmed middle literally occurs in every relator
            for j, vp in enumerate(p.v_prime):
                for rel in p.relator_words:
                    chars = rel.letters
                    assert any(
                        chars[k : k + len(vp)] == vp.letters
                        or chars[k : k + len(vp)] == vp.inverse().letters
                        for k in range(len(chars))
                    )

    @staticmethod
    def corrupted(p, k: int, span: tuple[int, int]):
        """``p`` with the span of site ``k`` replaced by ``span``."""
        sites = p.sites[:k] + (dataclasses.replace(p.sites[k], survived=span),) + p.sites[k + 1 :]
        return dataclasses.replace(p, sites=sites)

    @staticmethod
    def inverse_site(p) -> tuple[int, tuple[int, int]]:
        """An inverted site whose span is not its own mirror image."""
        return next(
            (k, site.survived) for k, site in enumerate(p.sites)
            if site.sign < 0 and site.survived[0] != p.length - site.survived[1]
        )

    def test_corrupted_span_raises(self):
        # the re-scan reads each site's middle off the relator letters, so a
        # span that is mirrored or one letter short no longer covers it,
        # though the spans still have a common middle; that is a bug, not a
        # degenerate sample
        p, _ = sample_presentation(2, 30, seed=4)
        fresh = lambda: build_relators(p.v_words, p.u_words)
        assert trim_surviving_middles(fresh()).v_prime == p.v_prime
        k, (lo, hi) = self.inverse_site(p)
        for span in ((30 - hi, 30 - lo), (lo, hi - 1)):
            with pytest.raises(RuntimeError, match="not covered"):
                trim_surviving_middles(self.corrupted(fresh(), k, span))

    def test_span_before_the_relator_start_raises(self):
        # one letter more at the first site of relator 0 puts that site
        # before the relator's first letter; the letters read there still
        # spell the middle, so only the position check refuses the span
        p, _ = sample_presentation(2, 3, seed=0)
        assert p.sites[0].survived == (1, 3)
        with pytest.raises(RuntimeError, match="not covered"):
            trim_surviving_middles(self.corrupted(build_relators(p.v_words, p.u_words), 0, (0, 3)))

    def test_sampling_stops_at_a_corrupted_span(self, monkeypatch):
        # a span bug must surface as an error, not as one more rejection
        # followed by a later sample
        p, rejects = sample_presentation(2, 30, seed=4)
        k, (lo, hi) = self.inverse_site(p)
        attempts = []

        def mirror_one_span(v_words, u_words):
            q = build_relators(v_words, u_words)
            attempts.append(q)
            return self.corrupted(q, k, (30 - hi, 30 - lo)) if q.v_words == p.v_words else q

        monkeypatch.setattr(presentations, "build_relators", mirror_one_span)
        with pytest.raises(RuntimeError, match="not covered"):
            sample_presentation(2, 30, seed=4)
        assert len(attempts) == rejects + 1

    def test_generic_middle_fraction(self, rng):
        good = 0
        total = 0
        for _ in range(15):
            v = [Word(2, random_reduced_letters(rng, 2, 60)) for _ in range(2)]
            u = [Word(2, random_reduced_letters(rng, 2, 60)) for _ in range(2)]
            p = build_relators(v, u)
            if p.degenerate:
                continue
            total += 1
            p = trim_surviving_middles(p)
            if p.n_prime >= 0.9 * 60:
                good += 1
        assert total and good / total >= 0.9


def brute_force_max_piece(relators) -> tuple[int, dict[tuple[int, int], int]]:
    """Oracle: enumerate every proper cyclic window of every relator and
    its inverse; a piece is a window word seen at two distinct sites.
    Returns the longest piece and, for each pair i <= j, the longest piece
    with a site in relator i and another site in relator j."""
    sites: dict[tuple, set] = {}
    for i, rel in enumerate(relators):
        L = len(rel.word)
        for sign, base in ((1, rel.word), (-1, rel.word.inverse())):
            doubled = base.letters * 2
            for off in range(L):
                for length in range(1, L):
                    key = doubled[off : off + length]
                    sites.setdefault(key, set()).add((i, sign, off))
    table = {
        (i, j): 0 for i in range(len(relators)) for j in range(i, len(relators))
    }
    for word, occ in sites.items():
        owners = [site[0] for site in occ]
        for (i, j), longest in table.items():
            if i == j:
                shared = owners.count(i) >= 2
            else:
                shared = i in owners and j in owners
            if shared and len(word) > longest:
                table[(i, j)] = len(word)
    return max(table.values(), default=0), table


_HASH_MOD = (1 << 61) - 1
_HASH_BASE = 0x1F123BB5


class _CyclicWindows:
    """Rolling-hash index over all proper cyclic windows of the
    symmetrized relators; sites are (relator, sign, offset)."""

    def __init__(self, relators: Sequence[CyclicWord]):
        self.lengths = [len(r) for r in relators]
        self.texts: list[tuple[int, int, str]] = []
        for i, rel in enumerate(relators):
            for sign, base in ((1, rel.word), (-1, rel.word.inverse())):
                chars = strsearch.letters_to_chars(base.letters)
                self.texts.append((i, sign, chars + chars))
        self._prefix: list[list[int]] = []
        for _, _, doubled in self.texts:
            acc = [0]
            h = 0
            for ch in doubled:
                h = (h * _HASH_BASE + ord(ch)) % _HASH_MOD
                acc.append(h)
            self._prefix.append(acc)
        self._pow: list[int] = [1]

    def _power(self, m: int) -> int:
        while len(self._pow) <= m:
            self._pow.append(self._pow[-1] * _HASH_BASE % _HASH_MOD)
        return self._pow[m]

    def has_repeat(self, m: int, owners: tuple[int, int] | None = None) -> bool:
        """Is some window of length m shared by two distinct sites (for
        ``owners`` = (i, j) with i != j: sites in both relators)?"""
        if m <= 0:
            return True
        pm = self._power(m)
        counts: dict[int, int] = {}
        for t, (i, sign, doubled) in enumerate(self.texts):
            if owners is not None and i not in owners:
                continue
            L = self.lengths[i]
            if m >= L:
                continue
            acc = self._prefix[t]
            for off in range(L):
                h = (acc[off + m] - acc[off] * pm) % _HASH_MOD
                counts[h] = counts.get(h, 0) + 1
        hot = {h for h, c in counts.items() if c >= 2}
        if not hot:
            return False
        # verify hot hashes against collisions before declaring a piece
        by_string: dict[str, set[tuple[int, int, int]]] = {}
        for t, (i, sign, doubled) in enumerate(self.texts):
            if owners is not None and i not in owners:
                continue
            L = self.lengths[i]
            if m >= L:
                continue
            acc = self._prefix[t]
            for off in range(L):
                h = (acc[off + m] - acc[off] * pm) % _HASH_MOD
                if h in hot:
                    by_string.setdefault(doubled[off : off + m], set()).add((i, sign, off))
        for sites in by_string.values():
            if len(sites) < 2:
                continue
            if owners is None or owners[0] == owners[1]:
                return True
            if {site[0] for site in sites} >= set(owners):
                return True
        return False

    def max_piece(self, owners: tuple[int, int] | None = None, cap: int | None = None) -> int:
        hi = max(self.lengths) - 1
        if owners is not None:
            hi = max(self.lengths[owners[0]], self.lengths[owners[1]]) - 1
        if cap is not None:
            hi = min(hi, cap)
        lo = 0
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.has_repeat(mid, owners):
                lo = mid
            else:
                hi = mid - 1
        return lo


def rolling_hash_piece_report(relators) -> PieceReport:
    """Slow-path oracle for ``piece_report``: binary search on the
    (monotone) existence of a repeated cyclic window, overall and per
    relator pair, with rolling-hash window matching verified exactly."""
    index = _CyclicWindows(relators)
    max_piece = index.max_piece()
    pair_table: dict[tuple[int, int], int] = {}
    for i in range(len(relators)):
        for j in range(i, len(relators)):
            pair_table[(i, j)] = index.max_piece(owners=(i, j), cap=max_piece)
    return PieceReport(
        max_piece_length=max_piece,
        min_relator_length=min(len(r) for r in relators),
        lambda_value=max_piece / min(len(r) for r in relators),
        pair_table=pair_table,
    )


def cyclic(text: str, rank: int = 2) -> CyclicWord:
    return CyclicWord.from_cyclically_reduced(w(text, rank))


class TestPieces:
    def test_commutator_relator(self):
        rel = CyclicWord.from_cyclically_reduced(w("a1 a2 a1^-1 a2^-1"))
        report = piece_report([rel])
        assert report.max_piece_length == 1
        assert report.lambda_value == 0.25
        # the bound is strict
        assert not report.satisfies(0.25) and report.satisfies(0.26)

    def test_power_relator_huge_overlap(self):
        for n in (3, 5, 8):
            rel = CyclicWord(Word(2, (1,) * n))
            report = piece_report([rel])
            assert report.max_piece_length == n - 1
            assert report.lambda_value == pytest.approx((n - 1) / n)

    def test_matches_brute_force(self, rng):
        for _ in range(30):
            count = rng.choice((1, 2, 3))
            rels = [
                CyclicWord.from_cyclically_reduced(
                    random_cyclically_reduced(rng, 2, rng.randrange(4, 12))
                )
                for _ in range(count)
            ]
            report = piece_report(rels)
            assert (report.max_piece_length, report.pair_table) == brute_force_max_piece(rels)

    def test_pair_table_locality(self, rng):
        # appending relators over fresh generators leaves old entries alone
        rels = [
            CyclicWord.from_cyclically_reduced(random_cyclically_reduced(rng, 2, 8))
            for _ in range(2)
        ]
        report_before = piece_report(rels)
        widened = [
            CyclicWord.from_cyclically_reduced(Word(4, r.word.letters)) for r in rels
        ]
        fresh = CyclicWord.from_cyclically_reduced(
            Word(4, (3, 4, 3, -4, 3, 4, 4))
        )
        report_after = piece_report(widened + [fresh])
        for pair in ((0, 0), (0, 1), (1, 1)):
            assert report_after.pair_table[pair] == report_before.pair_table[pair]

    def test_empty_relator_rejected(self):
        for relators in ([], [cyclic("a1 a2"), CyclicWord(Word(2, ()))]):
            with pytest.raises(ValueError, match="need nonempty relators"):
                piece_report(relators)


def random_relators(rng, count: int, lo: int, hi: int) -> list[CyclicWord]:
    """Random cyclic relators of lengths in [lo, hi), some of them proper
    powers."""
    rels = []
    for _ in range(count):
        length = rng.randrange(lo, hi)
        if rng.random() < 0.3:
            root = random_cyclically_reduced(rng, 2, rng.randrange(2, 5))
            word = Word(2, root.letters * max(2, length // len(root)))
        else:
            word = random_cyclically_reduced(rng, 2, length)
        rels.append(CyclicWord.from_cyclically_reduced(word))
    return rels


def test_random_relators_reject_a_length_below_the_rank():
    # a one-letter word never uses both generators: the draw raises
    # instead of retrying forever
    rng = random.Random(5)
    assert len(random_cyclically_reduced(rng, 2, 2)) == 2
    for rank, length in [(2, 1), (3, 2), (1, 0)]:
        with pytest.raises(ValueError, match=f"length {length} cannot use all {rank} generators"):
            random_cyclically_reduced(rng, rank, length)
    with pytest.raises(ValueError, match="cannot use all 2 generators"):
        random_relators(rng, 10, 1, 2)


class TestOnePassPieces:
    """The whole ``piece_report`` against the rolling-hash oracle, on the
    cases a seeded one-pass search could miss."""

    def assert_matches(self, rels):
        assert piece_report(rels) == rolling_hash_piece_report(rels)

    @pytest.mark.parametrize(
        "rank, length, samples", [(2, 8, 12), (3, 8, 6), (2, 20, 6), (2, 60, 2)]
    )
    def test_derived_presentations(self, rank, length, samples):
        for seed in range(samples):
            p, _ = sample_presentation(rank, length, seed=seed)
            self.assert_matches(p.relators)

    def test_proper_powers(self):
        root = "a1 a2 a1^-1 a2 a2 a1 a2^-1 a1 a2 a2 a1^-1 a2 a1"
        for rels in (
            [cyclic("a1 a1 a1 a1 a1")],
            [cyclic(" ".join([root] * 3))],
            [cyclic(" ".join([root] * 2)), cyclic(root)],
            [cyclic("a1 a2 a1 a2"), cyclic("a1 a2 a1 a2 a1 a2")],
            [cyclic("a1 a2 a1 a2"), cyclic("a2^-1 a1^-1 a2^-1 a1^-1 a2^-1 a1^-1")],
            [cyclic(" ".join(["a1 a1 a2 a1 a2"] * 4)), cyclic("a1 a2^-1 a1 a2 a2")],
        ):
            self.assert_matches(rels)

    def test_rotation_of_itself_or_of_its_inverse(self, rng):
        for _ in range(12):
            word = random_cyclically_reduced(rng, 2, rng.randrange(3, 40))
            k = rng.randrange(len(word))
            rotated = Word(2, word.letters[k:] + word.letters[:k])
            base = CyclicWord.from_cyclically_reduced(word)
            extra = random_relators(rng, 1, 3, 30)
            for other in (rotated, rotated.inverse()):
                self.assert_matches([base, CyclicWord.from_cyclically_reduced(other)])
                self.assert_matches([base] + extra + [CyclicWord.from_cyclically_reduced(other)])

    def test_relators_shorter_than_the_seed(self, rng):
        for rels in ([cyclic("a1")], [cyclic("a1"), cyclic("a2")], [cyclic("a1"), cyclic("a1^-1")]):
            self.assert_matches(rels)
        for _ in range(40):
            self.assert_matches(random_relators(rng, rng.choice((1, 2, 3)), 2, 12))

    def test_relators_of_unequal_length(self, rng):
        for _ in range(12):
            rels = [
                CyclicWord.from_cyclically_reduced(random_cyclically_reduced(rng, 2, length))
                for length in (rng.randrange(2, 10), rng.randrange(10, 30), rng.randrange(30, 120))
            ]
            # plant a long shared stretch between relators of different length
            shared = rels[2].word.letters[: len(rels[1]) + 5]
            tail = random_cyclically_reduced(rng, 2, 7).letters
            planted = free_reduce(2, shared + tail)
            if planted.is_cyclically_reduced and planted:
                rels.append(CyclicWord.from_cyclically_reduced(planted))
            self.assert_matches(rels)

    @pytest.mark.parametrize("seed", [1, 2, 5, 40])
    def test_seed_length_does_not_change_the_table(self, rng, monkeypatch, seed):
        monkeypatch.setattr(presentations, "_SEED_LENGTH", seed)
        for _ in range(25):
            rels = random_relators(rng, rng.choice((1, 2, 3)), 2, 30)
            assert piece_report(rels).pair_table == brute_force_max_piece(rels)[1]


def planted(rank: int, parts) -> CyclicWord | None:
    """The cyclic word of the concatenated parts (letter tuples), or None
    when it is not cyclically reduced."""
    word = free_reduce(rank, [l for part in parts for l in part])
    if not word or not word.is_cyclically_reduced:
        return None
    return CyclicWord.from_cyclically_reduced(word)


def seed_left_letters(rels) -> dict[str, set[str]]:
    """Every seed window of the symmetrized family with the letters that
    precede it at its sites."""
    lefts: dict[str, set[str]] = {}
    seed = presentations._SEED_LENGTH
    for rel in rels:
        chars = strsearch.letters_to_chars(rel.word.letters)
        for signed in (chars, strsearch.inverse_chars(chars)):
            doubled = signed * 3
            for o in range(len(signed), 2 * len(signed)):
                lefts.setdefault(doubled[o : o + seed], set()).add(doubled[o - 1])
    return lefts


class TestSeedFilter:
    """``_pair_pieces`` groups only the seed windows that follow two
    distinct letters; the tables still match both oracles."""

    def assert_matches(self, rels):
        report = piece_report(rels)
        assert (report.max_piece_length, report.pair_table) == brute_force_max_piece(rels)
        assert report == rolling_hash_piece_report(rels)
        return report

    def test_window_repeating_after_one_letter(self, rng):
        # y X occurs twice after distinct letters, so every seed window
        # inside X repeats after y alone and is skipped
        hits = 0
        for _ in range(30):
            stretch = random_reduced_letters(rng, 2, rng.randrange(14, 30))
            y = rng.choice([l for l in (1, -1, 2, -2) if l != -stretch[0]])
            z1, z2 = rng.sample([l for l in (1, -1, 2, -2) if l != -y], 2)
            pads = [random_reduced_letters(rng, 2, rng.randrange(3, 12)) for _ in range(2)]
            rels = [planted(2, (pads[0], (z1, y), stretch)), planted(2, (pads[1], (z2, y), stretch))]
            if None in rels:
                continue
            lefts = seed_left_letters(rels)
            window = strsearch.letters_to_chars(stretch[: presentations._SEED_LENGTH])
            if len(lefts[window]) != 1:
                continue
            hits += 1
            report = self.assert_matches(rels)
            assert report.pair_table[(0, 1)] >= len(stretch) + 1
        assert hits >= 10

    def test_rank_three_families_of_three_relators(self, rng):
        for _ in range(12):
            rels = [random_cyclically_reduced(rng, 3, rng.randrange(12, 40)) for _ in range(3)]
            # share a long stretch of one relator with another, forwards or inverted
            a, b = rng.sample(range(3), 2)
            stretch = rels[a].letters[: rng.randrange(12, len(rels[a]) + 1)]
            if rng.random() < 0.5:
                stretch = Word(3, stretch).inverse().letters
            family = [CyclicWord.from_cyclically_reduced(w) for w in rels]
            extra = planted(3, (stretch, random_reduced_letters(rng, 3, rng.randrange(2, 9))))
            if extra is not None:
                family[b] = extra
            self.assert_matches(family)

    @pytest.mark.parametrize("lengths", [(11,), (12,), (13,), (11, 12), (12, 13), (11, 12, 13), (13, 13)])
    def test_relators_around_the_seed_length(self, rng, lengths):
        for _ in range(10):
            rels = [random_cyclically_reduced(rng, 2, length) for length in lengths]
            family = [CyclicWord.from_cyclically_reduced(w) for w in rels]
            self.assert_matches(family)
            # a relator sharing all but its last letter with the first one
            head = rels[0].letters[:-1]
            for last in (1, -1, 2, -2):
                extra = planted(2, (head, (last,)))
                if extra is not None and len(extra) == len(rels[0]):
                    self.assert_matches(family + [extra])

    def test_relators_of_exactly_the_seed_length(self, monkeypatch):
        # a1 a2 and a1 a2^-1 are as long as a 2-letter seed: each of their
        # windows of seed + 1 letters ends inside the text read twice, and
        # one read past its end would be a letter short.  Two such windows
        # would seed a1^-1 alone, which a2 a1^-1 a1^-1 (the third relator
        # inverted) reads after two distinct letters, and the extension
        # measured from there would count a letter the two sites do not share
        monkeypatch.setattr(presentations, "_SEED_LENGTH", 2)
        report = self.assert_matches([cyclic("a1 a2"), cyclic("a1 a2^-1"), cyclic("a1 a1 a2^-1")])
        assert report.pair_table[(2, 2)] == 1

    def test_window_at_a_text_s_last_start(self, monkeypatch):
        # at a one-letter seed, the piece a2 of a1 a2 and a2 a1 a1 (the
        # second relator inverted) starts a1 a2 read twice only at 1, its
        # last start, so the search must look for windows up to there
        monkeypatch.setattr(presentations, "_SEED_LENGTH", 1)
        report = self.assert_matches([cyclic("a1 a2"), cyclic("a1^-1 a1^-1 a2^-1")])
        assert report.pair_table[(0, 1)] == 1

    def test_counts_one_left_letter_per_window(self):
        # the seed counts are over distinct (letter, seed window) windows,
        # one per left letter; counting each distinct seed window once
        # leaves no seed with two left letters, and this pair's longest
        # piece falls to the seed length less one
        p, _ = sample_presentation(2, 5, seed=1)
        report = self.assert_matches(p.relators)
        assert report.pair_table[(0, 0)] == 15


class TestSampler:
    def test_sampler_returns_nondegenerate(self):
        p, rejects = sample_presentation(2, 20, seed=3)
        assert not p.degenerate
        assert rejects >= 0
        assert p.n_prime is not None

    @pytest.mark.parametrize("rank", [2, 3])
    @pytest.mark.parametrize("length", [1, 2, 60])
    def test_words_pass_the_checked_constructors(self, rank, length):
        # the sampled words and the derived relators are built without the
        # letter checks; each passes them
        for seed in range(6):
            p, _ = sample_presentation(rank, length, seed=seed)
            for word in p.v_words + p.u_words + p.relator_words:
                assert Word(rank, word.letters) == word
            for word, relator in zip(p.relator_words, p.relators):
                assert word.is_cyclically_reduced
                assert CyclicWord(Word(rank, relator.word.letters)) == relator

    def test_serialization_round_trip(self):
        p, _ = sample_presentation(2, 12, seed=5)
        data = p.to_dict()
        v = [parse_word(s, data["rank"]) for s in data["v"]]
        u = [parse_word(s, data["rank"]) for s in data["u"]]
        rebuilt = build_relators(v, u)
        assert [str(r.word) for r in rebuilt.relators] == data["U"]

from typing import Sequence

import pytest

from conftest import random_cyclically_reduced
from rosefold import presentations, strsearch
from rosefold.presentations import (
    PieceReport,
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
        assert report.lambda_value == pytest.approx(1 / 4)

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
        with pytest.raises(ValueError):
            piece_report([])


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

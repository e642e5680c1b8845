import random
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import letter_key
from rosefold import strsearch, words
from rosefold.presentations import sample_presentation
from rosefold.words import (
    CyclicWord,
    GenTuple,
    NielsenMove,
    Word,
    apply_nielsen,
    commutator_class,
    cyclic_reduce,
    empty_word,
    format_word,
    _least_rotation,
    format_letter,
    free_reduce,
    parse_letter,
    parse_word,
    random_nielsen_moves,
    random_reduced_letters,
    standard_tuple,
)


# a loop that no longer ends fails its test (``conftest.time_limit``)
pytestmark = pytest.mark.usefixtures("time_limit")


def w(text: str, rank: int = 2) -> Word:
    return parse_word(text, rank)


raw_letter = st.integers(min_value=1, max_value=3).flatmap(lambda g: st.sampled_from([g, -g]))
raw_letters = st.lists(raw_letter, max_size=30)


@st.composite
def repeated_blocks(draw) -> tuple[int, ...]:
    """2-4 random blocks of 1-4 letters, repeated in random order: many
    tied runs of the least letter, and blocks between them that are
    equal or prefixes of one another."""
    block = st.lists(raw_letter, min_size=1, max_size=4).map(tuple)
    blocks = draw(st.lists(block, min_size=2, max_size=4))
    return sum(draw(st.lists(st.sampled_from(blocks), min_size=1, max_size=12)), ())


class TestFreeReduce:
    def test_inverse_pair_cancels(self):
        assert free_reduce(2, (1, -1)) == empty_word(2)

    def test_inner_cancellation(self):
        assert free_reduce(2, (1, 2, -2, 1)) == w("a1 a1")

    def test_word_times_inverse_is_trivial(self):
        rng = random.Random(1)
        for _ in range(100):
            word = Word(2, random_reduced_letters(rng, 2, rng.randrange(0, 30)))
            assert word * word.inverse() == empty_word(2)

    def test_rejects_letter_out_of_rank(self):
        with pytest.raises(ValueError):
            free_reduce(2, (3,))

    @given(raw_letters)
    @settings(max_examples=200)
    def test_idempotent(self, letters):
        once = free_reduce(3, letters)
        assert free_reduce(3, once.letters) == once

    @given(raw_letters, raw_letters)
    @settings(max_examples=200)
    def test_length_parity(self, a, b):
        u = free_reduce(3, a)
        v = free_reduce(3, b)
        assert (len(u * v) - len(u) - len(v)) % 2 == 0


class TestCyclicReduce:
    def test_conjugated_letter(self):
        assert cyclic_reduce(w("a1 a2 a1^-1")).word == w("a2")

    def test_already_cyclically_reduced(self):
        assert cyclic_reduce(w("a1 a2")).word == w("a1 a2")

    def test_empty(self):
        assert len(cyclic_reduce(empty_word(2))) == 0

    @given(raw_letters)
    @settings(max_examples=200)
    def test_conjugation_identity(self, letters):
        # the representative is conjugate to the word: with c the word's
        # prefix that its suffix cancels, c * r * c^-1 is the word for some
        # rotation r of it
        word = free_reduce(3, letters)
        rep = cyclic_reduce(word).word.letters
        c = word.subword(0, (len(word) - len(rep)) // 2)
        rotations = [Word(3, rep[k:] + rep[:k]) for k in range(max(1, len(rep)))]
        assert any(c * r * c.inverse() == word for r in rotations)

    def test_canonical_rotation_invariant(self):
        cyc = cyclic_reduce(w("a2 a2 a1"))
        assert cyc == CyclicWord.from_cyclically_reduced(w("a1 a2 a2"))

    def test_constructor_rejects_non_canonical_rotation(self):
        with pytest.raises(ValueError, match="canonical rotation"):
            CyclicWord(w("a2 a1 a2"))

    def test_constructor_rejects_non_cyclically_reduced(self):
        with pytest.raises(ValueError, match="cyclically reduced"):
            CyclicWord(w("a1 a2 a1^-1"))
        with pytest.raises(ValueError, match="cyclically reduced"):
            CyclicWord.from_cyclically_reduced(w("a1 a2 a1^-1"))

    def test_rotation(self):
        assert w("a1 a2 a2").rotation(1) == w("a2 a2 a1")
        assert empty_word(2).rotation(0) == empty_word(2)

    def test_rotation_rejects_non_cyclically_reduced(self):
        with pytest.raises(ValueError, match="cyclically reduced"):
            w("a1 a2 a1^-1").rotation(1)

    @given(raw_letters)
    @settings(max_examples=200)
    def test_unchecked_paths_pass_the_checked_constructor(self, letters):
        # cyclic_reduce and from_cyclically_reduced skip re-validation;
        # what they build must still satisfy every public check
        cyc = cyclic_reduce(free_reduce(3, letters))
        assert CyclicWord(Word(cyc.word.rank, cyc.word.letters)) == cyc
        assert CyclicWord.from_cyclically_reduced(cyc.word) == cyc
        inv = cyc.inverse()
        assert CyclicWord(Word(inv.word.rank, inv.word.letters)) == inv


def oracle_least_rotation(letters: tuple[int, ...]) -> int:
    """The quadratic scan: each start against the best so far, keeping the
    smallest index among least rotations."""
    if not letters:
        return 0
    keys = [letter_key(l) for l in letters]
    best = 0
    for cand in range(1, len(letters)):
        for off in range(len(letters)):
            a = keys[(best + off) % len(letters)]
            b = keys[(cand + off) % len(letters)]
            if a != b:
                if b < a:
                    best = cand
                break
    return best


class TestLeastRotation:
    @given(raw_letters)
    @settings(max_examples=300)
    def test_matches_oracle(self, letters):
        assert _least_rotation(tuple(letters)) == oracle_least_rotation(tuple(letters))

    @given(raw_letters.filter(bool), st.integers(min_value=1, max_value=6))
    @settings(max_examples=300)
    def test_proper_powers_match_oracle(self, root, power):
        # every least rotation of a proper power is repeated; the smallest
        # index must win
        letters = tuple(root) * power
        k = _least_rotation(letters)
        assert k == oracle_least_rotation(letters)
        assert k < len(root)

    @given(raw_letters.filter(bool), st.integers(min_value=1, max_value=60))
    @settings(max_examples=300)
    def test_truncated_periodic_words_match_oracle(self, root, length):
        letters = tuple((tuple(root) * length)[:length])
        assert _least_rotation(letters) == oracle_least_rotation(letters)

    @given(repeated_blocks())
    @settings(max_examples=300)
    def test_repeated_blocks_match_oracle(self, letters):
        assert _least_rotation(letters) == oracle_least_rotation(letters)

    def test_fixed_cases(self):
        assert _least_rotation(()) == 0
        assert _least_rotation((2,)) == 0
        assert _least_rotation((2, 1, 2, 1)) == 1
        assert _least_rotation((-1, 1, 1)) == 1
        assert _least_rotation((1, 2, -1, 2) * 5) == 0
        assert _least_rotation((2, -1, 2, 1) * 5) == 3

    def test_long_periodic_word(self):
        # the oracle compares 1,000 of the 4,000 starts with the best one
        # over the whole word here
        letters = (1, 2, -1, 2) * 1000
        assert _least_rotation(letters) == 0
        assert _least_rotation(letters[1:] + letters[:1]) == 3


def least_letter_runs(letters: tuple[int, ...]) -> tuple[int, int]:
    """Length and number of the longest cyclic runs of the least letter."""
    least = min(letters, key=letter_key)
    doubled = letters * 2
    runs = []
    for p in range(len(letters)):
        if letters[p] == least and letters[p - 1] != least:
            k = 0
            while k < len(letters) and doubled[p + k] == least:
                k += 1
            runs.append(k)
    return max(runs), runs.count(max(runs))


class TestLeastRotationFastPath:
    """Words with many tied starts, the longest runs of the least letter,
    against the oracle, and the scan over the blocks between them staying
    linear."""

    @pytest.mark.parametrize("length", [60, 90, 120])
    def test_derived_relators(self, length):
        relators = [w for seed in range(3) for w in sample_presentation(2, length, seed=seed)[0].relator_words]
        ties = []
        for word in relators:
            ties.append(least_letter_runs(word.letters)[1])
            assert _least_rotation(word.letters) == oracle_least_rotation(word.letters)
        # dozens of tied runs, whose blocks the scan compares
        assert max(ties) >= 20

    @pytest.mark.parametrize("letter", [1, -1, 2, -3])
    @pytest.mark.parametrize("n", [1, 2, 7, 300])
    def test_one_letter(self, letter, n):
        assert _least_rotation((letter,) * n) == 0

    @pytest.mark.parametrize(
        "root, tail", [((1, 2, -1, 2), (1, 2)), ((2, 1, 1, -2, -2, 1), (2, 1, 1)), ((-1, 2, -1, -2, -1, -2, 3), (-1, 2))]
    )
    def test_more_tied_starts_than_the_cap(self, root, tail):
        # more tied starts than a derived relator has (about N)
        copies = 257
        # every rotation of a proper power, which ties at every period, and a
        # power with a partial period appended
        cases = [(root[cut:] + root[:cut]) * copies for cut in range(len(root))]
        for letters in cases + [root * copies + tail]:
            assert least_letter_runs(letters)[1] >= copies
            k = _least_rotation(letters)
            if letters in cases:
                # the power's least rotation is its root's
                assert k == oracle_least_rotation(letters[: len(root)])
            else:
                assert k == oracle_least_rotation(letters)

    def test_long_periodic_word_stays_linear(self):
        letters = (1, 2, -1, 2, 2, 1, -2) * 14285 + (1, 2, -1, 2, 2)
        assert len(letters) == 100_000
        start = time.perf_counter()
        k = _least_rotation(letters)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.5
        # the rotation from the partial period reads a1 as its sixth letter,
        # where every rotation from a whole period reads a2^-1
        assert k == 7 * 14285

    def test_alternating_word_stays_linear(self):
        # a1 a2^±1 repeated: 50,000 tied starts, whose blocks are a1 a2 and
        # a1 a2^-1 in random order
        rng = random.Random(38)
        letters = tuple(x for _ in range(50_000) for x in (1, rng.choice((2, -2))))
        start = time.perf_counter()
        k = _least_rotation(letters)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.5
        assert k == oracle_least_rotation(letters)


class TestNielsen:
    def test_invert(self):
        t = GenTuple(2, (w("a1"), w("a2")))
        out = apply_nielsen(t, NielsenMove("invert", 0))
        assert out.entries == (w("a1^-1"), w("a2"))

    def test_multiply(self):
        t = GenTuple(2, (w("a1"), w("a2")))
        out = apply_nielsen(t, NielsenMove("multiply", 0, 1, 1))
        assert out.entries == (w("a1 a2"), w("a2"))

    def test_swap(self):
        t = GenTuple(2, (w("a1"), w("a2")))
        out = apply_nielsen(t, NielsenMove("swap", 0, 1))
        assert out.entries == (w("a2"), w("a1"))

    def test_move_validation(self):
        with pytest.raises(ValueError):
            NielsenMove("swap", 1, 1)
        with pytest.raises(ValueError):
            NielsenMove("multiply", 0, 0)
        with pytest.raises(IndexError):
            apply_nielsen(standard_tuple(2, 2), NielsenMove("invert", 5))

    def test_multiply_exponent_checked(self):
        with pytest.raises(ValueError, match="exponent must be"):
            NielsenMove("multiply", 0, 1, 2)

    @pytest.mark.parametrize(
        "move",
        [NielsenMove("swap", 0, -1), NielsenMove("invert", 3), NielsenMove("swap", 0, 3)],
        ids=["j=-1", "i=arity", "j=arity"],
    )
    def test_index_outside_arity(self, move):
        # j = -1 would wrap to the last entry, and an index equal to the
        # arity would fail in list indexing, not in the check
        with pytest.raises(IndexError, match="outside tuple arity"):
            apply_nielsen(standard_tuple(2, 3), move)

    def test_random_moves_pinned(self):
        # every kind and both exponents; only multiply moves draw one
        assert random_nielsen_moves(random.Random(3), 3, 4) == [
            NielsenMove("invert", 2),
            NielsenMove("multiply", 0, 2, -1),
            NielsenMove("multiply", 2, 0, 1),
            NielsenMove("swap", 1, 0),
        ]

    def test_each_move_invertible(self):
        rng = random.Random(7)
        t = standard_tuple(3, 5)
        for move in random_nielsen_moves(rng, 5, 100):
            forward = apply_nielsen(t, move)
            inverse = replace(move, exponent=-move.exponent) if move.kind == "multiply" else move
            assert apply_nielsen(forward, inverse).entries == t.entries
            t = forward


class TestCommutatorClass:
    def test_basis_pair(self):
        got = commutator_class(w("a1"), w("a2"))
        expect = cyclic_reduce(w("a1 a2 a1^-1 a2^-1"))
        assert got == expect

    def test_nielsen_transformed_pair_matches(self):
        # direct symbolic expansion: [a1 a2, a2] reduces to [a1, a2]
        lhs = w("a1 a2") * w("a2") * w("a1 a2").inverse() * w("a2").inverse()
        assert lhs == w("a1 a2 a1^-1 a2^-1")
        assert commutator_class(w("a1 a2"), w("a2")) == commutator_class(
            w("a1"), w("a2")
        )

    def test_trivial_commutator(self):
        assert len(commutator_class(w("a1"), w("a1"))) == 0

    def test_invariant_under_move_sequences(self):
        rng = random.Random(12)
        for _ in range(25):
            g1 = Word(3, random_reduced_letters(rng, 3, rng.randrange(1, 6)))
            g2 = Word(3, random_reduced_letters(rng, 3, rng.randrange(1, 6)))
            t = GenTuple(3, (g1, g2))
            reference = commutator_class(g1, g2)
            for move in random_nielsen_moves(rng, 2, 30):
                t = apply_nielsen(t, move)
            assert commutator_class(t.entries[0], t.entries[1]) == reference


class TestOccurrences:
    @staticmethod
    def occurrences(word: Word, z: Word) -> list[int]:
        return strsearch.all_occurrences(
            strsearch.letters_to_chars(word.letters), strsearch.letters_to_chars(z.letters)
        )

    def test_overlapping(self):
        assert self.occurrences(w("a1 a2 a1 a2"), w("a1 a2")) == [0, 2]

    def test_inverse_of_whole_word(self):
        assert self.occurrences(w("a1 a2"), w("a2^-1 a1^-1").inverse()) == [0]

    def test_absent(self):
        assert self.occurrences(w("a1 a2"), w("a2 a1")) == []

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            self.occurrences(w("a1"), empty_word(2))


class TestTextFormat:
    def test_round_trip(self):
        rng = random.Random(3)
        for _ in range(50):
            word = Word(4, random_reduced_letters(rng, 4, rng.randrange(0, 12)))
            assert parse_word(format_word(word), 4) == word

    def test_identity_alias(self):
        assert parse_word("1", 2) == empty_word(2)

    def test_rank_above_26(self):
        word = parse_word("a30 a12^-1", 30)
        assert word.letters == (30, -12)

    def test_bad_token(self):
        with pytest.raises(ValueError):
            parse_word("b2", 2)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a3 b2", "letter 3 outside rank-2 alphabet"),
            ("b2 a3", "bad letter token 'b2'"),
            ("a1 a2^-1 a3^-1 a4", "letter -3 outside rank-2 alphabet"),
        ],
    )
    def test_first_bad_token_named(self, text, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse_word(text, 2)

    def test_unreduced_text_reduces(self):
        assert parse_word("a1 a2 a2^-1", 2) == Word(2, (1,))
        assert parse_word("a2^-1 a1 a1^-1 a2", 2) == empty_word(2)

    def test_negative_letter_outside_rank(self):
        with pytest.raises(ValueError, match="^letter -3 outside rank-2 alphabet$"):
            parse_word("a3^-1", 2)

    @pytest.mark.parametrize("text", ["a0", "a0^-1", "a1 a00"], ids=["a0", "a0^-1", "a00"])
    def test_letter_zero_rejected(self, text):
        with pytest.raises(ValueError, match="^letter 0 outside rank-2 alphabet$"):
            parse_word(text, 2)

    def test_other_spellings_read_token_by_token(self):
        # int() reads a leading zero, so the token grammar does; the table
        # holds only the spelling format_letter gives
        assert parse_word("a01 a002^-1", 2).letters == (1, -2)
        assert "a01" not in words._LETTERS and "a002^-1" not in words._LETTERS
        assert all(format_letter(letter) == token for token, letter in words._LETTERS.items())

    def test_spelled_words_skip_the_token_loop(self, monkeypatch):
        # letters at both ends of the rank, reduced or not, never reach
        # the per-token path
        def forbidden(token, rank):
            raise AssertionError(f"{token!r} read token by token")

        monkeypatch.setattr(words, "parse_letter", forbidden)
        assert parse_word("a2 a1^-1 a2^-1 a1", 2).letters == (2, -1, -2, 1)
        assert parse_word("a1 a2 a2^-1 a1", 2).letters == (1, 1)


def per_token_parse(text: str, rank: int) -> Word:
    """``parse_word`` as one ``parse_letter`` call per token and a free
    reduction: the slow path the table lookup must agree with."""
    text = text.strip()
    if text in ("", "1"):
        return empty_word(rank)
    return free_reduce(rank, tuple(parse_letter(token, rank) for token in text.split()))


def outcome(parse, text: str, rank: int):
    try:
        return parse(text, rank)
    except ValueError as exc:
        return type(exc), str(exc)


def random_word_text(rng: random.Random, rank: int) -> str:
    """Word text at ``rank`` with, now and then, the inverse of the last
    letter, a letter outside the rank, letter 0, a leading zero or a
    malformed token, between runs of blanks."""
    odd = ["a0", "a0^-1", "a01", "a002^-1", "b1", "a", "a^-1", "a1^-2", "a-1", "1",
           "A1", "a1^-1^-1", "a\u00b2", "a\u0661", "a1a2", "^-1"]
    tokens: list[str] = []
    last = 0
    for _ in range(rng.randrange(13)):
        roll = rng.random()
        if roll < 0.1:
            tokens.append(rng.choice(odd))
            continue
        if roll < 0.2:
            letter = rng.choice((1, -1)) * rng.randrange(rank + 1, rank + 4)
        elif roll < 0.4 and last:
            letter = -last
        else:
            letter = rng.choice((1, -1)) * rng.randrange(1, rank + 1)
        tokens.append(format_letter(letter))
        last = letter
    gaps = [rng.choice((" ", "  ", "\t", "\n ")) for _ in range(len(tokens) + 1)]
    return gaps[0] + "".join(t + g for t, g in zip(tokens, gaps[1:]))


def test_parse_matches_per_token_path():
    rng = random.Random(46)
    for _ in range(3000):
        rank = rng.randrange(1, 5)
        text = random_word_text(rng, rank)
        assert outcome(parse_word, text, rank) == outcome(per_token_parse, text, rank), (text, rank)


def test_unreduced_word_rejected():
    with pytest.raises(ValueError):
        Word(2, (1, -1))


def test_rank_one_word_accepted():
    assert Word(1, (1, 1)).letters == (1, 1)
    with pytest.raises(ValueError, match="rank must be"):
        Word(0)


def test_standard_tuple_padding():
    t = standard_tuple(2, 3)
    assert [len(e) for e in t.entries] == [1, 1, 0]


@given(raw_letters, st.integers(min_value=-5, max_value=35), st.integers(min_value=-5, max_value=35))
@settings(max_examples=200)
def test_subword_and_inverse_pass_the_checked_constructor(letters, start, stop):
    # subword and inverse skip re-validation; their values must still
    # satisfy every check of the public constructor
    word = free_reduce(3, letters)
    for value in (word.subword(start, stop), word.inverse(), word.subword(start, stop).inverse()):
        assert Word(value.rank, value.letters) == value


def randrange_reduced_letters(rng: random.Random, rank: int, length: int) -> tuple[int, ...]:
    """The sampler as a loop over ``randrange``: the slow path whose stream
    ``random_reduced_letters`` reproduces with inlined ``getrandbits``."""
    if length == 0:
        return ()
    alphabet = [*range(1, rank + 1), *range(-1, -rank - 1, -1)]
    letters = [alphabet[rng.randrange(2 * rank)]]
    for _ in range(length - 1):
        letters.append([l for l in alphabet if l != -letters[-1]][rng.randrange(2 * rank - 1)])
    return tuple(letters)


class TestReducedLetterSampler:
    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_matches_randrange_stream(self, rank):
        for seed in range(50):
            for length in (0, 1, 2, 256, 4096):
                fast, slow = random.Random(seed), random.Random(seed)
                assert random_reduced_letters(fast, rank, length) == randrange_reduced_letters(
                    slow, rank, length
                ), (rank, length, seed)
                # both consumed the same draws
                assert fast.getstate() == slow.getstate()

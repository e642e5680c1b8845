"""Differential tests for the two occurrence scans of ``strsearch``
against window-comparing oracles over signed-int sequences (reduced
words, and edge-token sequences as ``run_surgery`` scans them), for
the suffix automaton's streaming match and longest repeat against brute
force and end-position counts, for the table-driven character codes
against their per-character formula, and for the one letter order that
words, graphs, the fold heap and the cover masks share."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import allocated_by, token_letter
from rosefold import strsearch
from rosefold.folding import fold_all
from rosefold.graphs import LabeledGraph, _Quotient
from rosefold.words import free_reduce, random_reduced_letters

# a scan that no longer ends fails its test (``conftest.time_limit``)
pytestmark = pytest.mark.usefixtures("time_limit")


def inverse(seq: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-x for x in reversed(seq))


def oracle_occurrences(
    text: tuple[int, ...], pattern: tuple[int, ...], include_inverses: bool = False
) -> list[int]:
    """Start positions where the pattern (and its inverse when asked)
    occurs: the window compare ``words.occurrences`` used."""
    if len(pattern) == 0:
        raise ValueError("pattern must be nonempty")
    targets = [pattern]
    if include_inverses and inverse(pattern) not in targets:
        targets.append(inverse(pattern))
    hits = []
    for pos in range(len(text) - len(pattern) + 1):
        window = text[pos : pos + len(pattern)]
        if any(window == t for t in targets):
            hits.append(pos)
    return hits


def oracle_greedy_disjoint(
    text: tuple[int, ...], pattern: tuple[int, ...], include_inverses: bool = False
) -> list[tuple[int, int]]:
    """Left-to-right disjoint occurrences as (position, sign) pairs: the
    window compare ``complexity.greedy_disjoint_occurrences`` used, with
    the inverse made optional (the one-way scan the tests compare
    against)."""
    if len(pattern) == 0:
        raise ValueError("pattern must be nonempty")
    hits: list[tuple[int, int]] = []
    L = len(pattern)
    inv = inverse(pattern)
    pos = 0
    while pos + L <= len(text):
        window = text[pos : pos + L]
        if window == pattern:
            hits.append((pos, 1))
            pos += L
        elif include_inverses and window == inv:
            hits.append((pos, -1))
            pos += L
        else:
            pos += 1
    return hits


def scans(text, pattern, include_inverses):
    """Both scans; with inverses, all occurrences are those of the
    pattern merged with those of its inverse.  The disjoint scan always
    counts the inverse."""
    chars = strsearch.letters_to_chars(text)
    pat = strsearch.letters_to_chars(pattern)
    every = strsearch.all_occurrences(chars, pat)
    if include_inverses:
        every = sorted(set(every) | set(strsearch.all_occurrences(chars, strsearch.inverse_chars(pat))))
    return every, strsearch.greedy_disjoint(text, pattern)


def signed(magnitudes):
    return magnitudes.flatmap(lambda g: st.sampled_from([g, -g]))


@st.composite
def reduced_words(draw, max_size=60):
    rank = draw(st.sampled_from([2, 3]))
    raw = draw(st.lists(signed(st.integers(1, rank)), max_size=max_size))
    return rank, free_reduce(rank, raw).letters


@st.composite
def texts_and_patterns(draw):
    """A reduced word or an edge-token sequence, with a pattern drawn as
    a subword of it or as a short random sequence over its alphabet."""
    if draw(st.booleans()):
        rank, text = draw(reduced_words())
        letter = signed(st.integers(1, rank))
        short = st.lists(letter, min_size=1, max_size=4).map(
            lambda raw: free_reduce(rank, raw).letters
        ).filter(len)
    else:
        # edge ids of a folded graph, some past the basic multilingual plane
        # once encoded; token sequences need not be reduced
        ids = draw(st.lists(st.integers(1, 40000), min_size=1, max_size=4, unique=True))
        token = signed(st.sampled_from(ids))
        text = tuple(draw(st.lists(token, max_size=60)))
        short = st.lists(token, min_size=1, max_size=4).map(tuple)
    if text and draw(st.booleans()):
        start = draw(st.integers(0, len(text) - 1))
        stop = draw(st.integers(start + 1, min(len(text), start + 6)))
        pattern = text[start:stop]
    else:
        pattern = draw(short)
    return text, pattern


class TestScansAgainstOracles:
    def test_disjoint_scan_moves_past_a_hit_at_the_start(self):
        # first, so that a scan that stays at position 0 fails here under
        # the time limit, before the hypothesis test hangs in its replays
        text, pattern = (1, 2, 1, 2, -2, -1), (1, 2)
        assert strsearch.greedy_disjoint(text, pattern) == [(0, 1), (2, 1), (4, -1)]

    @given(texts_and_patterns(), st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_both_scans_match_window_compare(self, case, include_inverses):
        text, pattern = case
        every, greedy = scans(text, pattern, include_inverses)
        assert every == oracle_occurrences(text, pattern, include_inverses)
        assert greedy == oracle_greedy_disjoint(text, pattern, True)

    def test_plus_sign_wins_a_shared_start(self):
        # a token path that turns back on itself equals its own inverse
        text, pattern = (1, 2, -2, -1, 3), (1, 2, -2, -1)
        assert scans(text, pattern, True) == ([0], [(0, 1)])


def brute_matching_statistics(text: str, query: str) -> list[int]:
    """Per query position i, the longest suffix of ``query[:i + 1]`` that
    occurs in ``text``."""
    return [
        next(m for m in range(i + 1, -1, -1) if query[i + 1 - m : i + 1] in text)
        for i in range(len(query))
    ]


def brute_common_length(a: str, b: str) -> int:
    """Length of the longest common substring of ``a`` and ``b``."""
    return max(
        (j - i for i in range(len(a)) for j in range(i + 1, len(a) + 1) if a[i:j] in b),
        default=0,
    )


def brute_repeat_length(a: str) -> int:
    """Length of the longest substring of ``a`` at two distinct positions."""
    return max(
        (m for m in range(1, len(a)) for i in range(len(a) - m + 1) if a.find(a[i : i + m], i + 1) >= 0),
        default=0,
    )


def match_cases() -> list[tuple[str, str]]:
    """(text, query) pairs over encoded letters: seeded random strings,
    periodic strings, and a one-letter text, where a mismatch walks a
    suffix link and the match goes on from a shorter length."""
    rng = random.Random(23)
    enc = strsearch.letters_to_chars

    def rand(n: int) -> str:
        alphabet = rng.choice(((1, -1), (1, -1, 2, -2)))
        return enc(rng.choice(alphabet) for _ in range(n))

    cases = [(rand(rng.randrange(1, 30)), rand(rng.randrange(1, 30))) for _ in range(40)]
    cases += [
        (enc((1, 2) * 6), enc((1, 2, 1, 1, 2, 1, 2, 2, 1, 2))),
        (enc((1, 1, 2) * 5), enc((1, 1, 1, 2, 1, 1, 2, 2, 1, 1))),
        (enc((1,) * 7), enc((1, 1, 2, 1, 1, 1, 1, 1, 1, 1, 1, -1, 1))),
        (enc((1,)), enc((1, 1, 2, 1))),
    ]
    return cases


class TestStreamingMatch:
    def test_matching_statistics_against_brute_force(self):
        for text, query in match_cases():
            sam = strsearch.SuffixAutomaton(text)
            assert sam.matching_statistics(query) == brute_matching_statistics(text, query)

    def test_repeat_lengths_against_brute_force(self):
        for text, query in match_cases():
            for chars in (text, query, text + query):
                plain, with_inv = strsearch.repeat_lengths(chars)
                assert plain == brute_repeat_length(chars)
                common = brute_common_length(chars, strsearch.inverse_chars(chars))
                assert with_inv == max(plain, common)

    def test_repeat_lengths_of_the_empty_text(self):
        assert strsearch.repeat_lengths("") == (0, 0)


def occurrence_count_longest_repeated(text: str) -> int:
    """The longest repeat read off end-position counts, as the automaton
    once kept them: 1 on each prefix state, 0 on each clone, summed up the
    suffix links in decreasing length order; the longest state other than
    the root with a count of at least 2."""
    sam = strsearch.SuffixAutomaton(text)
    occ = [0] * len(sam.length)
    v = 0
    for ch in text:
        v = sam.next[v][sam.codes[ch]]
        occ[v] = 1
    for v in sorted(range(1, len(sam.length)), key=sam.length.__getitem__, reverse=True):
        occ[sam.link[v]] += occ[v]
    return max((sam.length[v] for v in range(1, len(occ)) if occ[v] >= 2), default=0)


class TestLongestRepeated:
    def test_against_occurrence_counts(self):
        rng = random.Random(41)
        texts = [text for case in match_cases() for text in (*case, case[0] + case[1])]
        texts += [
            strsearch.letters_to_chars(random_reduced_letters(rng, rank, length))
            for rank in (1, 2, 3)
            for length in (0, 1, 2, 3, 17, 64, 300, 1000)
        ]
        for text in texts:
            sam = strsearch.SuffixAutomaton(text)
            assert sam.longest_repeated() == occurrence_count_longest_repeated(text), text

    def test_state_lengths_are_longest_paths(self):
        # a state's length is that of the longest string leading to it
        # from the root, which a walk in increasing length order reads
        rng = random.Random(43)
        texts = [text for case in match_cases() for text in case]
        texts += [
            strsearch.letters_to_chars(random_reduced_letters(rng, rank, length))
            for rank in (1, 2, 3)
            for length in (1, 2, 3, 17, 64, 300)
        ]
        for text in texts:
            sam = strsearch.SuffixAutomaton(text)
            longest = [0] + [-1] * (len(sam.length) - 1)
            for v in sorted(range(len(sam.length)), key=sam.length.__getitem__):
                for target in sam.next[v]:
                    if target:
                        longest[target] = max(longest[target], longest[v] + 1)
            assert longest == sam.length, text

    def test_bytes_per_state(self):
        # one list of a slot per distinct character per state, not a dict:
        # about 157 bytes a state on CPython 3.11, against 251 with dicts
        text = strsearch.letters_to_chars(random_reduced_letters(random.Random(31), 2, 4096))
        sam, allocated = allocated_by(lambda: strsearch.SuffixAutomaton(text))
        assert allocated <= 190 * len(sam.length)


# the largest token whose character, either sign, is a code point
MAX_TOKEN = 0x10FFFF >> 1


def char_formula(letters) -> str:
    """One character per signed letter or token, code by code."""
    return "".join(chr((abs(l) << 1) + (0 if l > 0 else 1)) for l in letters)


def inverse_formula(s: str) -> str:
    """The inverse word's characters: reversed, each code's low bit flipped."""
    return "".join(chr(ord(ch) ^ 1) for ch in reversed(s))


class TestCharCodes:
    @given(
        st.lists(signed(st.one_of(st.integers(1, 8), st.integers(1, MAX_TOKEN))), max_size=40)
    )
    @settings(max_examples=300)
    def test_against_per_character_formula(self, tokens):
        chars = strsearch.letters_to_chars(tokens)
        assert chars == char_formula(tokens)
        assert strsearch.inverse_chars(chars) == inverse_formula(chars)
        assert strsearch.chars_to_letters(chars) == tuple(tokens)

    def test_tokens_past_the_letter_range(self):
        # edge tokens of large graphs, and the separator and its swap
        # partner, the two codes below the letter range
        tokens = [1, -1, 63, -63, 64, -64, 65, 127, -127, 128, -128, 4096, -40000, 0x7FFF, MAX_TOKEN, -MAX_TOKEN]
        assert strsearch.letters_to_chars(tokens) == char_formula(tokens)
        assert strsearch.letters_to_chars([1, -1]) == "\x02\x03"
        for s in ("", strsearch.SEPARATOR, "\x01" + strsearch.SEPARATOR + char_formula(tokens)):
            assert strsearch.inverse_chars(s) == inverse_formula(s)


# the letter order a1 < a1^-1 < a2 < ..., written out per rank
PINNED_ORDER = {
    1: [1, -1],
    2: [1, -1, 2, -2],
    3: [1, -1, 2, -2, 3, -3],
    4: [1, -1, 2, -2, 3, -3, 4, -4],
    5: [1, -1, 2, -2, 3, -3, 4, -4, 5, -5],
}


class TestLetterOrder:
    def test_alphabet_and_indexes_are_pinned(self):
        for rank, order in PINNED_ORDER.items():
            assert strsearch._alphabet(rank) == order
            assert [strsearch._INDEX[l] for l in order] == list(range(2 * rank))
            assert [strsearch._INDEX[-l] for l in order] == [i ^ 1 for i in range(2 * rank)]

    def test_every_reader_follows_the_pinned_order(self):
        rng = random.Random(43)
        for _ in range(200):
            rank = rng.randrange(1, 6)
            order = PINNED_ORDER[rank]
            letters = [rng.choice(order) for _ in range(rng.randrange(1, 12))]
            by_pin = sorted(letters, key=order.index)
            # characters compare as their letters
            assert sorted(letters, key=lambda l: strsearch.letters_to_chars([l])) == by_pin
            # a star from vertex 0, each edge leaving it or entering it with
            # the inverse label, so vertex 0 reads every drawn letter
            edges = tuple(
                (0, k + 1, l) if rng.random() < 0.5 else (k + 1, 0, -l) for k, l in enumerate(letters)
            )
            g = LabeledGraph(rank, len(letters) + 1, edges, base=0)
            assert [lab for lab, _, _ in g.adjacency[0]] == by_pin
            groups = _Quotient(g).groups(0)
            assert [gen if sign == 0 else -gen for gen, sign, _, _ in groups] == list(dict.fromkeys(by_pin))
            # only vertex 0 can fold: the least policy folds its repeated
            # letters in the pinned order, each letter's folds in one run,
            # and the greatest policy in the reverse order
            repeated = sorted({l for l in letters if letters.count(l) >= 2}, key=order.index)
            for policy, expected in (("least", repeated), ("greatest", repeated[::-1])):
                folded = [token_letter(g, r.kept) for r in fold_all(g, policy).records]
                assert folded == sorted(folded, key=expected.index)
                assert list(dict.fromkeys(folded)) == expected
            # the rows of each letter sit at its index
            rows = g.letter_rows
            for k, l in enumerate(letters):
                assert rows[order.index(l)][0] >> (k + 1) & 1

    @given(st.lists(signed(st.integers(1, 5)), max_size=40))
    def test_chars_to_letters_inverts_the_encoding(self, letters):
        chars = strsearch.letters_to_chars(letters)
        assert strsearch.chars_to_letters(chars) == tuple(letters)
        assert [ord(ch) - 2 for ch in chars] == [strsearch._INDEX[l] for l in letters]

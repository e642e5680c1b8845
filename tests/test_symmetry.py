"""Letter symmetries: the signed permutations of the generators are
automorphisms of the free group and w -> w^-1 is an anti-automorphism, so
every quantity not defined through the letter order a1 < a1^-1 < a2 < ...
is invariant under them, or moves in a known way.  These properties need
no oracle: a slip tied to one letter or one sign breaks them."""

import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_cyclically_reduced, relabel
from rosefold import strsearch
from rosefold.complexity import Thresholds, UWordIndex, _Ball, complexity
from rosefold.folding import fold_all, wedge_of_loops
from rosefold.graphs import canonical_key
from rosefold.presentations import piece_report, sample_presentation
from rosefold.words import CyclicWord, GenTuple, Word, random_reduced_letters


@st.composite
def signed_permutations(draw, rank: int) -> tuple[int, ...]:
    gens = draw(st.permutations(range(1, rank + 1)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=rank, max_size=rank))
    return tuple(g * s for g, s in zip(gens, signs))


@st.composite
def ranked(draw, ranks=(1, 2, 3)):
    """A rank, a signed permutation of its generators and a seeded
    generator for the words."""
    rank = draw(st.sampled_from(ranks))
    return rank, draw(signed_permutations(rank)), random.Random(draw(st.integers(0, 2**32)))


def relator_chunks(rng: random.Random, relators: list[Word], min_length: int) -> Word:
    """Chunks of powers of the relators and of their inverses, so that
    long factors occur, until the word has ``min_length`` letters."""
    letters: list[int] = []
    while len(letters) < min_length:
        rel = rng.choice(relators)
        rel = rel if rng.random() < 0.5 else rel.inverse()
        off = rng.randrange(len(rel))
        chunk = (rel.letters * 3)[off : off + rng.randrange(1, 3 * len(rel))]
        if letters and letters[-1] == -chunk[0]:
            continue
        letters += chunk
    return Word(relators[0].rank, tuple(letters))


class TestFoldTerminal:
    @given(ranked(ranks=(2, 3)), st.sampled_from(("least", "greatest")))
    @settings(max_examples=100, deadline=None)
    def test_relabelled_tuple_folds_to_the_relabelled_terminal(self, case, policy):
        rank, perm, rng = case
        t = GenTuple(
            rank,
            tuple(
                Word(rank, random_reduced_letters(rng, rank, rng.randrange(1, 40)))
                for _ in range(rng.randrange(1, 5))
            ),
        )
        trace = fold_all(wedge_of_loops(t), policy)
        moved = fold_all(wedge_of_loops(relabel(perm, t)), policy)
        assert canonical_key(moved.terminal) == canonical_key(relabel(perm, trace.terminal))
        assert moved.num_folds == trace.num_folds


class TestRepeatLengths:
    @given(ranked(), st.integers(1, 400))
    @settings(max_examples=150, deadline=None)
    def test_invariant_under_relabelling_and_inversion(self, case, length):
        rank, perm, rng = case
        letters = random_reduced_letters(rng, rank, length)
        chars = strsearch.letters_to_chars(letters)
        lengths = strsearch.repeat_lengths(chars)
        assert strsearch.repeat_lengths(strsearch.letters_to_chars(relabel(perm, letters))) == lengths
        assert strsearch.repeat_lengths(strsearch.inverse_chars(chars)) == lengths


class TestMaxFactorStarting:
    @given(ranked(ranks=(2, 3)), st.integers(1, 3))
    @settings(max_examples=80, deadline=None)
    def test_relabelled_word_against_the_relabelled_index(self, case, count):
        rank, perm, rng = case
        relators = [random_cyclically_reduced(rng, rank, rng.randrange(4, 12)) for _ in range(count)]
        w = relator_chunks(rng, relators, 60)
        table = UWordIndex(relators).max_factor_starting(w)
        moved = UWordIndex([relabel(perm, r) for r in relators])
        assert moved.max_factor_starting(relabel(perm, w)) == table


class TestComplexity:
    """On words whose i-balls all stay below ``max_ball``: where the cap
    binds, the order of exploration decides which words are scored.  The
    relator-chunk words below have i-balls of at most about 70 words at
    depth 2, so the cap (256) never binds."""

    @staticmethod
    def instance(rng: random.Random, rank: int, depth: int) -> tuple[list[Word], Word]:
        relators = [random_cyclically_reduced(rng, rank, rng.randrange(6, 16)) for _ in range(rng.randrange(1, 3))]
        w = relator_chunks(rng, relators, rng.randrange(1, 80))
        ball = _Ball(w, UWordIndex(relators), Thresholds())
        assume(all(len(ball.i_ball(i, depth)) < Thresholds().max_ball for i in range(1, ball.node(0).k + 1)))
        return relators, w

    @given(ranked(ranks=(2, 3)), st.integers(0, 2))
    @settings(max_examples=80, deadline=None)
    def test_invariant_under_relabelling(self, case, depth):
        rank, perm, rng = case
        relators, w = self.instance(rng, rank, depth)
        value = complexity(w, UWordIndex(relators), depth=depth)
        moved = UWordIndex([relabel(perm, r) for r in relators])
        assert complexity(relabel(perm, w), moved, depth=depth) == value

    @given(ranked(ranks=(2, 3)), st.integers(0, 2))
    @settings(max_examples=80, deadline=None)
    def test_per_index_vector_reverses_under_inversion(self, case, depth):
        # the i-th factor of w is the (c1 + 1 - i)-th of w^-1, whose factors
        # are certified by the same relators with the other sign
        rank, _, rng = case
        relators, w = self.instance(rng, rank, depth)
        idx = UWordIndex(relators)
        value, inverse = complexity(w, idx, depth=depth), complexity(w.inverse(), idx, depth=depth)
        assert (inverse.c1, inverse.c2) == (value.c1, value.c2)
        assert inverse.per_index == value.per_index[::-1]


class TestPieces:
    @given(ranked(ranks=(2, 3)), st.integers(4, 20))
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_relabelling_and_inversion(self, case, length):
        # derived relators, whose longest pieces are about a repeat length
        # times N, so that long pieces occur
        rank, perm, rng = case
        p, _ = sample_presentation(rank, length, rng.randrange(2**32))
        report = piece_report(p.relators)
        moved = [CyclicWord.from_cyclically_reduced(relabel(perm, r.word)) for r in p.relators]
        assert piece_report(moved) == report
        assert piece_report([r.inverse() for r in p.relators]) == report

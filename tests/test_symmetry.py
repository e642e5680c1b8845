"""Letter symmetries: the signed permutations of the generators are
automorphisms of the free group and w -> w^-1 is an anti-automorphism, so
every quantity not defined through the letter order a1 < a1^-1 < a2 < ...
is invariant under them, or moves in a known way.  These properties need
no oracle: a slip tied to one letter or one sign breaks them."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_cyclically_reduced, relabel
from rosefold import strsearch
from rosefold.complexity import UWordIndex
from rosefold.folding import fold_all, wedge_of_loops
from rosefold.graphs import canonical_key
from rosefold.words import GenTuple, Word, random_reduced_letters


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
        # chunks of relator powers and their inverses, so that long factors occur
        letters: list[int] = []
        while len(letters) < 60:
            rel = rng.choice(relators)
            rel = rel if rng.random() < 0.5 else rel.inverse()
            off = rng.randrange(len(rel))
            chunk = (rel.letters * 3)[off : off + rng.randrange(1, 3 * len(rel))]
            if letters and letters[-1] == -chunk[0]:
                continue
            letters += chunk
        w = Word(rank, tuple(letters))
        table = UWordIndex(relators).max_factor_starting(w)
        moved = UWordIndex([relabel(perm, r) for r in relators])
        assert moved.max_factor_starting(relabel(perm, w)) == table

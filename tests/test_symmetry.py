"""Letter symmetries: the signed permutations of the generators are
automorphisms of the free group and w -> w^-1 is an anti-automorphism, so
every quantity not defined through the letter order a1 < a1^-1 < a2 < ...
is invariant under them, or moves in a known way.  These properties need
no oracle: a slip tied to one letter or one sign breaks them."""

import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import is_two_sheeted_cover, random_cyclically_reduced, relabel
from rosefold import strsearch
from rosefold.complexity import Thresholds, UWordIndex, _Ball, complexity, reduction_move
from rosefold.covers import enumerate_candidates, shortest_non_lifting_word
from rosefold.folding import fold_all, fold_to_delta, wedge_of_loops
from rosefold.graphs import canonical_key
from rosefold.presentations import piece_report, sample_presentation
from rosefold.words import (
    CyclicWord,
    GenTuple,
    Word,
    apply_nielsen,
    parse_word,
    random_nielsen_moves,
    random_reduced_letters,
    standard_tuple,
)


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


class TestFoldToDelta:
    @staticmethod
    def outcome(t: GenTuple):
        """Whether the wedge of ``t`` is degenerate and its fold count, or
        the error of a wedge with no pre-lift stage."""
        try:
            extraction = fold_to_delta(wedge_of_loops(t))
        except ValueError as err:
            return str(err)
        return extraction.degenerate, extraction.trace.num_folds

    @given(ranked(ranks=(2, 3)), st.integers(1, 20))
    @settings(max_examples=100, deadline=None)
    def test_relabelled_wedge_keeps_its_degeneracy(self, case, moves):
        # the witness's edge count is not compared: the pre-lift stage is
        # the one that the fold heap's letter order reaches, and the wedge
        # of (a1 a2, a2^-1 a1^-1 a2, a1 a2^-1 a1^-1) has a 4-edge witness
        # where its image under a1 -> a2^-1, a2 -> a1 has a 3-edge one
        rank, perm, rng = case
        t = standard_tuple(rank, 2 * rank - 1)
        for move in random_nielsen_moves(rng, t.arity, moves):
            t = apply_nielsen(t, move)
        assert self.outcome(relabel(perm, t)) == self.outcome(t)


class TestSurvey:
    @given(signed_permutations(2))
    @settings(max_examples=4, deadline=None)
    def test_candidates_keep_their_class_and_witness_length(self, perm):
        # the survey's tests read a candidate's masks; its relabelled graph
        # goes through the graph-level ones
        for shape, blocks, masks in enumerate_candidates(2, 5):
            moved = relabel(perm, shape.graph(blocks))
            assert shape.rose_lift(masks) == moved.has_rose_lift()
            assert shape.two_sheeted_cover(blocks, masks) == is_two_sheeted_cover(moved)
            witness = shape.witness(blocks, masks, 14)
            assert len(witness or ()) == len(shortest_non_lifting_word(moved, 14) or ())


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

    def test_a_factor_at_two_rotations_offers_both_complements(self):
        # the relator reads (a1^3 a2^-3)^2 a1^2, so a long factor of its
        # powers can start at two of its rotations, and the ball must swap
        # in the complement of each
        idx = UWordIndex([parse_word("a1 a1 a1 a2^-1 a2^-1 a2^-1 a1 a1 a1 a2^-1 a2^-1 a2^-1 a1 a1", 2)])
        w = parse_word(
            "a2 a1^-1 a1^-1 a1^-1 a2 a2 a2 a1^-1 a1^-1 a1^-1 a2 a2 a2 a1^-1 a1^-1 a1^-1 a1^-1 a1^-1 "
            "a2 a2 a2 a1^-1 a1^-1 a1^-1 a2 a2 a2 a1^-1 a1^-1 a1^-1 a1^-1 a1^-1 a2 a2 a2 a1^-1 "
            "a2 a2 a2 a1^-1 a1^-1 a1^-1",
            2,
        )
        for depth, c2, per_index in ((1, 36, (0, 36, 0)), (2, 58, (0, 43, 15))):
            value, inverse = complexity(w, idx, depth=depth), complexity(w.inverse(), idx, depth=depth)
            assert (value.c1, value.c2, value.per_index) == (3, c2, per_index)
            assert (inverse.c1, inverse.c2, inverse.per_index) == (3, c2, per_index[::-1])


class TestReductionMove:
    @given(ranked(ranks=(2, 3)), st.integers(0, 2))
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_relabelling(self, case, depth):
        rank, perm, rng = case
        relators, w = TestComplexity.instance(rng, rank, depth)
        idx = UWordIndex(relators)
        maxstart = idx.max_factor_starting(w)
        p = max(range(len(w)), key=maxstart.__getitem__)
        cert = idx.is_u_word(w.subword(p, p + maxstart[p]))
        # shorter than its relator, so pattern * replacement^-1 is one rotation
        pattern = w.subword(p, p + rng.randint(1, min(maxstart[p], len(relators[cert.relator]) - 1)))
        replacement = idx.u_complement(pattern, cert)
        out = reduction_move(w, pattern, replacement, idx, [(p, 1)], depth=depth)
        moved = reduction_move(
            relabel(perm, w), relabel(perm, pattern), relabel(perm, replacement),
            UWordIndex([relabel(perm, r) for r in relators]), [(p, 1)], depth=depth,
        )
        assert (moved.relation, moved.before, moved.after) == (out.relation, out.before, out.after)


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

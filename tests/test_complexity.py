import dataclasses
import random
import time
from typing import Iterator

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_cyclically_reduced
from rosefold import strsearch
from rosefold.complexity import (
    ComplexityValue,
    Thresholds,
    Segmentation,
    UCert,
    UWordIndex,
    _Ball,
    _Node,
    _backward_cuts,
    _greedy_cuts,
    _spliced_table,
    brute_force_c1,
    c1,
    complexity,
    reduction_move,
    tuple_complexity,
)
from rosefold.words import Word, empty_word, free_reduce, parse_word, random_reduced_letters
from test_acceptance import SEED, _reduction_index


def w(text: str, rank: int = 2) -> Word:
    return parse_word(text, rank)


def spans(seg: Segmentation) -> list[tuple[int, int]]:
    """The (start, stop) span of every factor of a segmentation."""
    cuts = (0,) + seg.boundaries + (len(seg.word),)
    return list(zip(cuts, cuts[1:]))


def oracle_min_factor_tables(maxstart: list[int]) -> tuple[list[int], list[int]]:
    """F[p] = c1 of w[:p] and G[p] = c1 of w[p:] (n + 2 where none exists)
    by relaxing every jump of every reach: the quadratic tables, which
    assume nothing of ``maxstart`` beyond its being the longest factor
    starting at each position."""
    n = len(maxstart)
    INF = n + 2
    F = [INF] * (n + 1)
    F[0] = 0
    for p in range(n):
        if F[p] >= INF:
            continue
        for q in range(p + 1, p + maxstart[p] + 1):
            F[q] = min(F[q], F[p] + 1)
    G = [INF] * (n + 1)
    G[n] = 0
    for p in range(n - 1, -1, -1):
        for q in range(p + 1, p + maxstart[p] + 1):
            G[p] = min(G[p], G[q] + 1)
    return F, G


def expand_breakpoints(maxstart: list[int]) -> tuple[list[int], list[int]]:
    """F and G spelled out from the library's breakpoints of a covered
    word: F[q] = t on (f_(t-1), f_t] and G[p] = s on [g_s, g_(s-1))."""
    n = len(maxstart)
    ends = _greedy_cuts(maxstart)
    back = _backward_cuts([p + m for p, m in enumerate(maxstart)])
    F = [0] * (n + 1)
    for t, (lo, hi) in enumerate(zip([0] + ends, ends), start=1):
        F[lo + 1 : hi + 1] = [t] * (hi - lo)
    G = [0] * (n + 1)
    for s, (hi, lo) in enumerate(zip(back, back[1:]), start=1):
        G[lo:hi] = [s] * (hi - lo)
    return F, G


def oracle_start_ranges(F: list[int], G: list[int]) -> list[range]:
    """Entry j - 1 holds the starts p of j-th factors of minimal
    segmentations, read off the quadratic tables: F[p] + G[p] = k and
    F[p] = j - 1, as one range per j."""
    k = G[0]
    starts: list[list[int]] = [[] for _ in range(k)]
    for p in range(len(F) - 1):
        if F[p] + G[p] == k:
            starts[F[p]].append(p)
    assert all(p == ps[0] + i for ps in starts for i, p in enumerate(ps))
    return [range(ps[0], ps[-1] + 1) for ps in starts]


def oracle_ith_factor_maxima(maxstart: list[int], F: list[int], G: list[int]) -> list[int]:
    """Entry i is the longest i-th factor over all admissible
    decompositions: from each p with F[p] = i - 1, the last q within
    reach with G[q] = k - i, found by walking down from the reach."""
    n = len(maxstart)
    k = G[0]
    if k > n:
        return [0]
    best = [0] * (k + 1)
    for p in range(n):
        i = F[p] + 1
        if i > k:
            continue
        for q in range(p + maxstart[p], p, -1):
            if G[q] == k - i:
                best[i] = max(best[i], q - p)
                break
    return best


def brute_force_max_factor_starting(w: Word, idx: UWordIndex) -> list[int]:
    """For each p, the longest prefix of w[p:] that is a substring of a
    power of a relator or its inverse with ceil(|w| / L) + 2 periods,
    by direct substring tests on the test's own character encoding."""
    def enc(letters):
        return "".join(chr(0x4000 + x) for x in letters)

    hays = []
    for rel in idx.relators:
        periods = -(-len(w) // len(rel)) + 2
        for base in (rel, rel.inverse()):
            hays.append(enc(base.letters * periods))
    chars = enc(w.letters)
    out = []
    for p in range(len(chars)):
        # a prefix of a substring is one: bisect on the prefix length
        lo, hi = 0, len(chars) - p
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if any(chars[p : p + mid] in hay for hay in hays):
                lo = mid
            else:
                hi = mid - 1
        out.append(lo)
    return out


def oracle_certificates(idx: UWordIndex, z: Word) -> list[UCert]:
    """Every certificate by a scan of each signed relator power long
    enough to hold z from every rotation: the offsets below |U| at which
    z's characters occur, in (relator, sign, rotation) order."""
    chars = strsearch.letters_to_chars(z.letters)
    out = []
    for i, rel in enumerate(idx.relators):
        L = len(rel)
        for sign, base in ((1, rel), (-1, rel.inverse())):
            power = strsearch.letters_to_chars(base.letters) * (len(z) // L + 2)
            rotation = power.find(chars)
            while 0 <= rotation < L:
                out.append(UCert(i, sign, rotation, -(-(rotation + len(z)) // L)))
                rotation = power.find(chars, rotation + 1)
    return out


def certificate_indices() -> dict[str, UWordIndex]:
    """Indices with relators of 1 to 40 letters, one a proper power."""
    rng = random.Random(0xCE27)
    return {
        "24-and-24": UWordIndex([random_cyclically_reduced(rng, 2, 24) for _ in range(2)]),
        "cube-and-7": UWordIndex([w("a1 a2 a1 a2 a1 a2"), random_cyclically_reduced(rng, 2, 7)]),
        "1-5-40": UWordIndex([w("a3", 3)] + [random_cyclically_reduced(rng, 3, n) for n in (5, 40)]),
    }


CERT_INDICES = certificate_indices()


def cut_sequences(n: int, maxstart: list[int], G: list[int]) -> Iterator[tuple[int, ...]]:
    """Interior cuts of every segmentation of a length-``n`` word into
    G[0] factors, in lexicographic cut order: a depth-first search that
    tries every end within reach where G falls by one (each factor of such
    a segmentation must lower G by exactly one), longer jumps pushed first
    so that the shortest comes out first."""
    stack: list[tuple[int, tuple[int, ...]]] = [(0, ())]
    while stack:
        pos, cuts = stack.pop()
        if pos == n:
            yield cuts
            continue
        for q in range(pos + maxstart[pos], pos, -1):
            if G[q] == G[pos] - 1:
                stack.append((q, cuts + ((q,) if q < n else ())))


def admissible_decompositions(
    w: Word, idx: UWordIndex, cap: int | None = None
) -> Iterator[Segmentation]:
    """All segmentations into exactly c1(w) certified factors, in
    lexicographic cut order; stops after ``cap`` when given.  The
    oracle's enumerator: the library lists no decompositions, it reads
    their factors off the tables (``_factor_starts``)."""
    maxstart = idx.max_factor_starting(w)
    if any(m == 0 for m in maxstart):
        raise ValueError("some letter is not a factor of any relator power")
    _, G = oracle_min_factor_tables(maxstart)
    emitted = 0
    for cuts in cut_sequences(len(w), maxstart, G):
        certs = []
        lo = 0
        for cut in cuts + (len(w),):
            cert = idx.is_u_word(w.subword(lo, cut))
            if cert is None:
                break
            certs.append(cert)
            lo = cut
        else:
            yield Segmentation(w, cuts, tuple(certs))
            emitted += 1
            if cap is not None and emitted >= cap:
                return


def oracle_factor_spans(w: Word, idx: UWordIndex) -> set[tuple[int, int, int]]:
    """(p, q, j) for every j-th factor w[p:q] of every minimal
    segmentation, read off the uncapped enumeration."""
    return {
        (p, q, j)
        for seg in admissible_decompositions(w, idx)
        for j, (p, q) in enumerate(spans(seg), start=1)
    }


def exhaustive_cut_c1(w: Word, idx: UWordIndex) -> int:
    """Literal enumeration over all 2^(len-1) cut subsets; only sane for
    very short words, used to cross-check the other two routes."""
    n = len(w)
    if n == 0:
        raise ValueError("c1 is undefined on the empty word")
    if n > 16:
        raise ValueError("exhaustive cut enumeration limited to length 16")
    best = n + 2
    for mask in range(1 << (n - 1)):
        cuts = [0] + [i + 1 for i in range(n - 1) if mask >> i & 1] + [n]
        ok = True
        for a, b in zip(cuts, cuts[1:]):
            if idx.is_u_word(w.subword(a, b)) is None:
                ok = False
                break
        if ok:
            best = min(best, len(cuts) - 1)
    return best


# ---------------------------------------------------------------------------
# oracle: the per-index ball, one breadth-first search per factor index,
# each recomputing every node's tables and decompositions (the library's
# implementation before the ball was shared between indices)


def oracle_max_ith_factor(w: Word, i: int, idx: UWordIndex) -> int:
    """Longest i-th factor over all admissible decompositions (1-based i),
    straight from the forward/backward tables."""
    maxstart = idx.max_factor_starting(w)
    F, G = oracle_min_factor_tables(maxstart)
    k = G[0]
    if not (1 <= i <= k):
        return 0
    best = 0
    for p in range(len(w) + 1):
        if F[p] != i - 1:
            continue
        top = p + (maxstart[p] if p < len(w) else 0)
        for q in range(min(top, len(w)), p, -1):
            if G[q] == k - i:
                best = max(best, q - p)
                break
    return best


def i_neighbors(ball: _Ball, nid: int, i: int) -> list[int]:
    """The node's i-neighbours read off its tagged edges: the candidates
    of the edges with j != i, in first-occurrence order."""
    return list(dict.fromkeys(cand for cand, j in ball.edges(nid) if j != i))


def oracle_elementary_i_equivalents(
    w: Word, i: int, idx: UWordIndex, thresholds: Thresholds = Thresholds()
) -> list[Word]:
    """Words obtained by replacing one long maximal factor other than the
    i-th by a long complementary word.  Candidates whose splice fails to
    stay freely reduced or to preserve c1 do not qualify and are dropped.
    The factors are those of every minimal segmentation, taken in the
    order the ball states: start ascending, then end descending."""
    if len(w) == 0:
        return []
    maxstart = idx.max_factor_starting(w)
    if any(m == 0 for m in maxstart):
        raise ValueError("some letter is not a factor of any relator power")
    _, G = oracle_min_factor_tables(maxstart)
    k = G[0]
    thr = thresholds.long_factor_letters(idx.max_relator_length)
    out: dict[tuple[int, ...], Word] = {}
    for p, q, j in sorted(oracle_factor_spans(w, idx), key=lambda s: (s[0], -s[1])):
        if j == i:
            continue
        if q - p < thr:
            continue
        # maximality of the factor as a subword of w
        if p > 0 and maxstart[p - 1] >= q - p + 1:
            continue
        if q < len(w) and maxstart[p] >= q - p + 1:
            continue
        factor = w.subword(p, q)
        for cert in idx.certificates(factor):
            rotation = idx.rotation_word(cert).letters
            periods = max(1, -(-len(factor) // len(rotation)))
            for extra in range(thresholds.power_cap + 1):
                # factor * replacement is the power of the rotation of
                # ``periods + extra`` periods
                replacement = (rotation * (periods + extra))[len(factor) :]
                if len(replacement) < thr:
                    continue
                letters = (
                    w.letters[:p] + replacement + w.letters[q:]
                )
                reduced = all(
                    a != -b for a, b in zip(letters, letters[1:])
                )
                if not reduced:
                    continue
                candidate = Word(w.rank, letters)
                if candidate.letters == w.letters:
                    continue
                if candidate.letters in out:
                    continue
                cand_max = idx.max_factor_starting(candidate)
                if any(m == 0 for m in cand_max):
                    continue
                _, cand_G = oracle_min_factor_tables(cand_max)
                if cand_G[0] != k:
                    continue
                out[candidate.letters] = candidate
    return list(out.values())


def oracle_ell_hat(
    w: Word,
    i: int,
    idx: UWordIndex,
    thresholds: Thresholds = Thresholds(),
    depth: int = 1,
) -> int:
    """Max i-th factor length over the depth-bounded equivalence ball; the
    search ends at the first word past ``max_ball``."""
    if len(w) == 0:
        return 0
    best = oracle_max_ith_factor(w, i, idx)
    frontier = [w]
    seen = {w.letters}
    for _ in range(depth):
        next_frontier: list[Word] = []
        for node in frontier:
            for neighbor in oracle_elementary_i_equivalents(node, i, idx, thresholds):
                if neighbor.letters in seen:
                    continue
                seen.add(neighbor.letters)
                if len(seen) > thresholds.max_ball:
                    return best
                best = max(best, oracle_max_ith_factor(neighbor, i, idx))
                next_frontier.append(neighbor)
        frontier = next_frontier
        if not frontier:
            break
    return best



def oracle_i_ball(
    w: Word, i: int, idx: UWordIndex, thresholds: Thresholds = Thresholds(), depth: int = 1
) -> list[Word]:
    """The words ``oracle_ell_hat`` scores, in its order (its loop, with
    each scored word recorded instead of its score)."""
    if len(w) == 0:
        return []
    scored = [w]
    frontier = [w]
    seen = {w.letters}
    for _ in range(depth):
        next_frontier: list[Word] = []
        for node in frontier:
            for neighbor in oracle_elementary_i_equivalents(node, i, idx, thresholds):
                if neighbor.letters in seen:
                    continue
                seen.add(neighbor.letters)
                if len(seen) > thresholds.max_ball:
                    return scored
                scored.append(neighbor)
                next_frontier.append(neighbor)
        frontier = next_frontier
        if not frontier:
            break
    return scored


def oracle_complexity(
    w: Word,
    idx: UWordIndex,
    thresholds: Thresholds = Thresholds(),
    depth: int = 1,
) -> ComplexityValue:
    if len(w) == 0:
        return ComplexityValue(0, 0, (), depth)
    k, _ = c1(w, idx)
    zero_at = thresholds.zero_letters(idx.max_relator_length)
    per = []
    for i in range(1, k + 1):
        hat = oracle_ell_hat(w, i, idx, thresholds, depth)
        per.append(hat if hat >= zero_at else 0)
    return ComplexityValue(k, sum(per), tuple(per), depth)


@pytest.fixture(scope="module")
def toy():
    rng = random.Random(0xABCDEF)
    relators = [random_cyclically_reduced(rng, 2, 24) for _ in range(2)]
    return UWordIndex(relators)


@pytest.fixture(scope="module")
def big():
    """Longer relators for threshold-sensitive tests."""
    rng = random.Random(0xFEEDBEE)
    relators = [random_cyclically_reduced(rng, 2, 60) for _ in range(2)]
    return UWordIndex(relators)


class TestCertificates:
    def test_whole_relator(self, toy):
        z = toy.relators[0]
        cert = toy.is_u_word(z)
        assert cert is not None and cert.power == 1 and cert.rotation == 0

    def test_square_of_relator(self, toy):
        rel = toy.relators[0]
        z = Word(2, rel.letters + rel.letters)
        cert = toy.is_u_word(z)
        assert cert is not None and cert.power == 2

    def test_generic_juxtaposition_rejected(self, toy):
        # halves of two different relators glued rarely ride one power
        a = toy.relators[0].letters[: 12]
        b = toy.relators[1].letters[12:]
        glued = free_reduce(2, a + b)
        if len(glued) < 20:
            pytest.skip("accidental cancellation")
        assert toy.is_u_word(glued) is None

    def test_empty_rejected(self, toy):
        with pytest.raises(ValueError):
            toy.is_u_word(empty_word(2))

    def test_complement_round_trip(self, toy):
        rng = random.Random(4)
        for _ in range(50):
            rel = rng.randrange(2)
            off = rng.randrange(24)
            length = rng.randrange(1, 20)
            base = toy.relators[rel]
            rot = base.letters[off:] + base.letters[:off]
            z = Word(2, (rot * 2)[:length])
            cert = toy.is_u_word(z)
            assert cert is not None
            comp = toy.u_complement(z, cert)
            glued = z.letters + comp.inverse().letters
            # z * comp^-1 is literally a power of the certified rotation
            rot_word = toy.rotation_word(cert)
            m = max(1, -(-len(z) // len(rot_word)))
            assert glued == rot_word.letters * m
            assert toy.is_u_word(Word(2, glued)) is not None

    def test_complement_of_full_rotation_is_empty(self, toy):
        z = Word(2, toy.relators[0].letters)
        assert len(toy.u_complement(z, toy.is_u_word(z))) == 0

    def test_complement_rejects_a_certificate_of_another_word(self, toy):
        z = Word(2, toy.relators[0].letters[:10])
        cert = toy.is_u_word(z)
        other = Word(2, toy.relators[0].letters[1:11])
        with pytest.raises(ValueError, match="certificate does not match"):
            toy.u_complement(other, cert)

    def test_complement_power_family(self, toy):
        z = Word(2, toy.relators[0].letters[:10])
        cert = toy.is_u_word(z)
        t0 = toy._complement_tail(z.letters, cert, 0)
        t1 = toy._complement_tail(z.letters, cert, 1)
        assert toy.u_complement(z, cert).inverse().letters == t0
        assert t1 == t0 + toy.relators[0].letters

    def test_long_factors_certify_uniquely(self, big):
        # long factors of one relator power should not ride any other
        # relator-sign; this is what makes reduction moves unambiguous
        rng = random.Random(21)
        for _ in range(100):
            rel = rng.randrange(2)
            sign = rng.choice((1, -1))
            off = rng.randrange(60)
            base = big.relators[rel] if sign > 0 else big.relators[rel].inverse()
            rot = base.letters[off:] + base.letters[:off]
            z = Word(2, rot[:18])
            certs = big.certificates(z)
            assert [(c.relator, c.sign) for c in certs] == [(rel, sign)]

    def test_relators_of_two_ranks_rejected(self):
        with pytest.raises(ValueError, match="rank mismatch"):
            UWordIndex([parse_word("a1 a2 a1 a2^-1", 2), parse_word("a3 a1 a3 a2", 3)])

    @given(st.data())
    @settings(max_examples=500, deadline=None)
    def test_scan_matches_oracle(self, data):
        # factors shorter than, as long as, longer than and many times
        # longer than the relator, at every rotation, and near misses: one
        # letter of the head changed in every period (the period kept, the
        # head wrong), one letter past the head changed (the head kept,
        # the period broken), and random words
        idx = CERT_INDICES[data.draw(st.sampled_from(sorted(CERT_INDICES)))]
        rel = idx.relators[data.draw(st.integers(0, len(idx.relators) - 1))]
        sign = data.draw(st.sampled_from((1, -1)))
        L = len(rel)
        m = data.draw(st.one_of(
            st.integers(1, L), st.just(L), st.integers(L + 1, 3 * L), st.integers(3 * L, 12 * L)
        ))
        offset = data.draw(st.integers(0, L - 1))
        rot = (rel if sign > 0 else rel.inverse()).rotation(offset).letters
        letters = list((rot * (m // L + 1))[:m])
        edit = data.draw(st.sampled_from(("none", "wrong-head", "broken-period", "random")))
        if edit == "wrong-head":
            t = data.draw(st.integers(0, min(m, L) - 1))
            near = {rot[t], -rot[t - 1], -rot[(t + 1) % L]}
            y = data.draw(st.sampled_from([x for g in range(1, idx.rank + 1) for x in (g, -g) if x not in near]))
            letters[t::L] = [y] * len(letters[t::L])
        elif edit == "broken-period" and m > L:
            t = data.draw(st.integers(L, m - 1))
            near = {letters[t], -letters[t - 1], -(letters[t + 1] if t + 1 < m else 0)}
            letters[t] = data.draw(st.sampled_from([x for g in range(1, idx.rank + 1) for x in (g, -g) if x not in near]))
        elif edit == "random":
            letters = random_reduced_letters(random.Random(data.draw(st.integers(0, 2**32))), idx.rank, m)
        z = Word(idx.rank, tuple(letters))
        want = oracle_certificates(idx, z)
        if edit == "none":
            assert UCert(idx.relators.index(rel), sign, offset, -(-(offset + m) // L)) in want
        assert idx.certificates(z) == want
        assert idx.is_u_word(z) == (want[0] if want else None)


class TestC1:
    def test_single_relator_word(self, toy):
        k, seg = c1(Word(2, toy.relators[0].letters), toy)
        assert k == 1 and len(seg.boundaries) + 1 == 1

    def test_single_letter(self, toy):
        k, _ = c1(w("a1"), toy)
        assert k == 1

    def test_factor_without_certificate_raises(self, toy, monkeypatch):
        # the factor table and the certificate scan disagreeing is a fault,
        # raised under python -O too
        monkeypatch.setattr(UWordIndex, "is_u_word", lambda self, z: None)
        with pytest.raises(RuntimeError, match="no certificate"):
            c1(w("a1"), toy)

    def test_dp_matches_brute_force(self, toy):
        rng = random.Random(6)
        for _ in range(150):
            length = rng.randrange(1, 40)
            word = Word(2, random_reduced_letters(rng, 2, length))
            assert c1(word, toy)[0] == brute_force_c1(word, toy)

    def test_dp_matches_exhaustive_cuts(self, toy):
        rng = random.Random(7)
        for _ in range(150):
            length = rng.randrange(1, 13)
            word = Word(2, random_reduced_letters(rng, 2, length))
            assert c1(word, toy)[0] == exhaustive_cut_c1(word, toy)

    def test_segmentation_factors_certified(self, toy):
        rng = random.Random(8)
        for _ in range(30):
            word = Word(2, random_reduced_letters(rng, 2, 25))
            k, seg = c1(word, toy)
            assert len(seg.boundaries) + 1 == k
            assert len(seg.certificates) == k
            for a, b in spans(seg):
                assert toy.is_u_word(word.subword(a, b)) is not None

    def test_subadditive_on_clean_junctions(self, toy):
        rng = random.Random(9)
        for _ in range(60):
            a = Word(2, random_reduced_letters(rng, 2, rng.randrange(1, 15)))
            b = Word(2, random_reduced_letters(rng, 2, rng.randrange(1, 15)))
            if a.letters[-1] == -b.letters[0]:
                continue
            glued = Word(2, a.letters + b.letters)
            assert c1(glued, toy)[0] <= c1(a, toy)[0] + c1(b, toy)[0]

    def test_empty_rejected(self, toy):
        with pytest.raises(ValueError):
            c1(empty_word(2), toy)

    def test_uncoverable_letter_reported(self):
        idx = UWordIndex([Word(2, (1, 1, 1))])  # no a2 anywhere
        with pytest.raises(ValueError):
            c1(w("a2"), idx)


def table_indices() -> dict[str, UWordIndex]:
    """Indices with one to three relators: lengths from 4 to 40, a proper
    power, and one that leaves a generator out."""
    rng = random.Random(0x7AB1E5)
    return {
        "one-24": UWordIndex([random_cyclically_reduced(rng, 2, 24)]),
        "proper-power": UWordIndex([w("a1 a2 a1 a2")]),
        "power-and-30": UWordIndex([w("a1 a2 a1 a2"), random_cyclically_reduced(rng, 2, 30)]),
        "three-5-11-40": UWordIndex(
            [random_cyclically_reduced(rng, 3, n) for n in (5, 11, 40)]
        ),
        "missing-a3": UWordIndex([w("a1 a2 a1 a2^-1", 3), w("a1 a1 a2", 3)]),
    }


TABLE_INDICES = table_indices()


def mixed_word(rng: random.Random, idx: UWordIndex, length: int) -> Word:
    """A reduced word of at most ``length`` letters: relator-power chunks of
    1-60 letters between random reduced stretches of 0-8 letters."""
    letters: list[int] = []
    while len(letters) < length:
        rel = idx.relators[rng.randrange(len(idx.relators))]
        if rng.random() < 0.5:
            rel = rel.inverse()
        off = rng.randrange(len(rel))
        size = rng.randrange(1, 61)
        chunk = (rel.letters * (size // len(rel) + 2))[off : off + size]
        letters += random_reduced_letters(rng, idx.rank, rng.randrange(0, 9)) + chunk
    return free_reduce(idx.rank, letters[:length])


def signed_powers(idx: UWordIndex, periods: int) -> list[tuple[int, ...]]:
    return [
        base.letters * periods for rel in idx.relators for base in (rel, rel.inverse())
    ]


class TestFactorTables:
    @pytest.mark.parametrize("name", TABLE_INDICES)
    def test_tables_match_oracle(self, name):
        # the breakpoint tables against the quadratic ones on words of
        # 1-500 letters; both chains rest on the reach invariant asserted.
        # The start ranges and the longest i-th factors are checked against
        # the quadratic tables, and on short words against the enumeration
        # of every minimal segmentation too
        idx = TABLE_INDICES[name]
        rng = random.Random(name)
        uncovered = 0
        for length in [1, 2, 3, 5, 8, 13, 40, 100, 250, 500] + [rng.randrange(1, 501) for _ in range(20)]:
            for word in (
                Word(idx.rank, random_reduced_letters(rng, idx.rank, length)),
                mixed_word(rng, idx, length),
            ):
                if len(word) == 0:
                    continue
                maxstart = idx.max_factor_starting(word)
                assert all(b >= a - 1 for a, b in zip(maxstart, maxstart[1:]))
                F, G = oracle_min_factor_tables(maxstart)
                node = _Node(word, maxstart)
                assert node.best == oracle_ith_factor_maxima(maxstart, F, G)
                if all(maxstart):
                    assert expand_breakpoints(maxstart) == (F, G)
                    assert node.starts == oracle_start_ranges(F, G)
                    assert c1(word, idx)[0] == node.k == G[0]
                    if len(word) <= 40:
                        spans = {(p, node.reach[p], j) for j, r in enumerate(node.starts, 1) for p in r}
                        oracle = oracle_factor_spans(word, idx)
                        assert {p for p, _, _ in spans} == {p for p, _, _ in oracle}
                        assert spans <= oracle
                else:
                    uncovered += 1
                    assert node.k == G[0] == len(word) + 2
                    assert node.starts == []
        assert (uncovered > 0) == (name == "missing-a3")

    def test_uncovered_words_have_no_segmentation(self):
        # a3 is in no relator of the index: the backward chain stalls at
        # the last a3 and must stop there, wherever the a3s stand
        idx = TABLE_INDICES["missing-a3"]
        rng = random.Random(39)
        for length in (1, 2, 3, 10, 41, 300):
            for spots in ({0}, {length - 1}, {length // 2}, {0, length - 1}, set(range(0, length, 7))):
                letters = (list(mixed_word(rng, idx, length).letters) + [1] * length)[:length]
                for spot in spots:
                    letters[spot] = 3
                word = free_reduce(3, letters)
                maxstart = idx.max_factor_starting(word)
                assert 0 in maxstart
                node = _Node(word, maxstart)
                assert _backward_cuts(node.reach) is None
                assert (node.k, node.best, node.starts) == (len(word) + 2, [0], [])
                with pytest.raises(ValueError, match="not a factor"):
                    c1(word, idx)
        assert _backward_cuts([0, 1, 2]) is None
        assert _backward_cuts([]) == [0]

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_spliced_tables_match_a_full_scan(self, data):
        # a splice of any window of a word, by relator-power letters or
        # random ones, as long as the cut or longer: the window scan
        # against a scan of the whole new word
        idx = TABLE_INDICES[data.draw(st.sampled_from(sorted(TABLE_INDICES)))]
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        word = mixed_word(rng, idx, data.draw(st.integers(1, 150)))
        assume(len(word) > 0)
        n = len(word)
        p = data.draw(st.integers(0, n))
        q = data.draw(st.integers(p, n))
        size = data.draw(st.integers(0, q - p + 70))
        if data.draw(st.booleans()):
            replacement = mixed_word(rng, idx, size).letters
        else:
            replacement = tuple(random_reduced_letters(rng, idx.rank, size))
        letters = word.letters[:p] + replacement + word.letters[q:]
        assume(letters and all(a != -b for a, b in zip(letters, letters[1:])))
        node = _Node(word, idx.max_factor_starting(word))
        want = idx.max_factor_starting(Word(idx.rank, letters))
        assert _spliced_table(idx, node, letters, p, q) == want

    @pytest.mark.parametrize("name", TABLE_INDICES)
    def test_max_factor_starting_matches_brute_force(self, name):
        # lengths on both sides of 2, 6 and 14 periods of each relator,
        # power chunks as long as the word, and words that join the end of
        # one signed power to the start of another, which no match may span
        idx = TABLE_INDICES[name]
        rng = random.Random(name)
        lengths = {1, 2, 3}
        for rel in idx.relators:
            for periods in (2, 6, 14):
                edge = periods * len(rel)
                lengths |= {n for n in (edge - 1, edge, edge + 1, edge + 2) if 1 <= n <= 600}
        for length in sorted(lengths):
            words = [mixed_word(rng, idx, length)]
            shortest = min(len(rel) for rel in idx.relators)
            for power in signed_powers(idx, length // shortest + 2):
                off = rng.randrange(len(power) - length)
                words.append(Word(idx.rank, power[off : off + length]))
            joins = signed_powers(idx, length // shortest + 2)
            for a, b in zip(joins, joins[1:] + joins[:1]):
                split = rng.randrange(length + 1)
                words.append(free_reduce(idx.rank, a[len(a) - split :] + b[: length - split]))
            for word in words:
                if len(word):
                    assert idx.max_factor_starting(word) == brute_force_max_factor_starting(word, idx)

    def test_one_automaton_for_rising_and_falling_lengths(self):
        # one index met by words whose lengths rise and fall, against a
        # fresh index per word and the brute force.  Words shorter than a
        # relator that wrap its end need a fresh index's first automaton,
        # built for twice their length, up to its last period
        rng = random.Random(40)
        for name, shared in table_indices().items():
            for length in (3, 1, 120, 40, 7, 600, 2, 260, 30, 5):
                words = [mixed_word(rng, shared, length)]
                for rel in shared.relators:
                    for base in (rel, rel.inverse()):
                        start = -(length // 2 + 1) % len(rel)
                        words.append(Word(shared.rank, (base.letters * (length // len(rel) + 3))[start : start + length]))
                for word in words:
                    if len(word):
                        want = brute_force_max_factor_starting(word, shared)
                        assert UWordIndex(shared.relators).max_factor_starting(word) == want, name
                        assert shared.max_factor_starting(word) == want, name

    def test_a_longer_word_rebuilds_for_twice_its_length(self, monkeypatch):
        # the first word sizes the automaton at twice its length, so
        # shorter words and one twice as long reuse it; each power of U
        # then has served // |U| + 2 periods, joined by 3 separators
        built = []

        class Spy(strsearch.SuffixAutomaton):
            def __init__(self, text):
                built.append(len(text))
                super().__init__(text)

        monkeypatch.setattr(strsearch, "SuffixAutomaton", Spy)
        idx = UWordIndex([w("a1 a2 a1 a2"), w("a1 a1 a2^-1")])
        rng = random.Random(41)
        for n in (100, 80, 20, 1, 200, 201, 150, 402):
            idx.max_factor_starting(Word(2, random_reduced_letters(rng, 2, n)))
        served = (200, 402)
        assert built == [2 * 4 * (s // 4 + 2) + 2 * 3 * (s // 3 + 2) + 3 for s in served]


class TestAdmissibleDecompositions:
    def test_contains_witness(self, toy):
        word = Word(2, toy.relators[0].letters)
        segs = list(admissible_decompositions(word, toy))
        assert any(s.boundaries == () for s in segs)

    def test_factor_counts_all_minimal(self, toy):
        rng = random.Random(10)
        for _ in range(20):
            word = Word(2, random_reduced_letters(rng, 2, 20))
            k = c1(word, toy)[0]
            for seg in admissible_decompositions(word, toy, cap=16):
                assert len(seg.boundaries) + 1 == k

    def test_overlap_law(self, toy):
        # i-th factors of any two admissible decompositions overlap
        rng = random.Random(11)
        checked = 0
        for _ in range(40):
            word = Word(2, random_reduced_letters(rng, 2, 24))
            segs = list(admissible_decompositions(word, toy, cap=12))
            if len(segs) < 2:
                continue
            checked += 1
            for a in segs:
                for b in segs:
                    for (p1, q1), (p2, q2) in zip(spans(a), spans(b)):
                        assert max(p1, p2) < min(q1, q2)
        assert checked >= 5

    def test_two_decomposition_instance(self, toy):
        # a relator juxtaposed with a single letter admits a cut on either
        # side when the letter extends both ways; at minimum both orders
        # enumerate without duplicates
        rng = random.Random(12)
        word = Word(2, random_reduced_letters(rng, 2, 30))
        segs = list(admissible_decompositions(word, toy, cap=32))
        assert len({s.boundaries for s in segs}) == len(segs)


class TestEllHat:
    def test_depth_zero_is_max_over_decompositions(self, big):
        rel = big.relators[0]
        word = Word(2, rel.letters)
        assert _Ball(word, big, Thresholds()).ell_hat(1, 0) == len(rel)

    def test_monotone_in_depth(self, big):
        rng = random.Random(13)
        th = Thresholds(long_factor_fraction=0.3)
        for _ in range(6):
            word = Word(2, random_reduced_letters(rng, 2, 30))
            ball = _Ball(word, big, th)
            d0, d1, d2 = (ball.ell_hat(1, depth) for depth in (0, 1, 2))
            assert d0 <= d1 <= d2

    def test_neighbor_inequality(self, big):
        th = Thresholds(long_factor_fraction=0.3)
        rel = big.relators[0]
        flank = (2,) if rel.letters[0] != -2 else (-1,)
        word = free_reduce(2, flank + rel.letters)
        ball = _Ball(word, big, th)
        for nid in i_neighbors(ball, 0, 1)[:4]:
            assert _Ball(ball.node(nid).word, big, th).ell_hat(1, 0) <= ball.ell_hat(1, 1)


class TestElementaryEquivalents:
    def test_no_long_factor_no_neighbors(self, big):
        assert i_neighbors(_Ball(w("a1"), big, Thresholds()), 0, 1) == []

    def test_replacement_family_enumerated(self, big):
        # glue long chunks of the two relators; the factor away from the
        # protected index admits long complements for some offsets
        th = Thresholds(long_factor_fraction=0.3)
        rng = random.Random(55)
        found = 0
        for _ in range(40):
            off1, off2 = rng.randrange(60), rng.randrange(60)
            r1 = big.relators[0].letters
            r2 = big.relators[1].letters
            chunk1 = (r1[off1:] + r1[:off1])[:30]
            chunk2 = (r2[off2:] + r2[:off2])[:30]
            letters = chunk1 + chunk2
            if any(a == -b for a, b in zip(letters, letters[1:])):
                continue
            word = Word(2, letters)
            if c1(word, big)[0] != 2:
                continue
            if i_neighbors(_Ball(word, big, th), 0, 1):
                found += 1
        assert found >= 5

    def test_outputs_reduced_and_c1_preserving(self, big):
        th = Thresholds(long_factor_fraction=0.3)
        rng = random.Random(14)
        for _ in range(8):
            word = Word(2, random_reduced_letters(rng, 2, 40))
            k = c1(word, big)[0]
            ball = _Ball(word, big, th)
            for nid in i_neighbors(ball, 0, 1)[:8]:
                assert c1(ball.node(nid).word, big)[0] == k


# ---------------------------------------------------------------------------
# the shared ball against the per-index oracle


def chunk_word(rng: random.Random, relators: list[Word], length: int) -> Word:
    """Concatenated relator-power chunks of 20-60 letters, cut to
    ``length``: a word of c1 about length / 40 (the benchmark's
    ``calculus`` words)."""
    cur: list[int] = []
    while len(cur) < length:
        base = relators[rng.randrange(2)]
        if rng.random() < 0.5:
            base = base.inverse()
        off = rng.randrange(len(base))
        chunk = (base.letters * 3)[off : off + rng.randrange(20, 61)]
        if cur and cur[-1] == -chunk[0]:
            continue
        cur.extend(chunk)
    return Word(relators[0].rank, tuple(cur[:length]))


TRUNCATING = [
    Thresholds(max_ball=3),
    Thresholds(max_ball=12),
    Thresholds(max_ball=40),
    Thresholds(power_cap=2),
    Thresholds(long_factor_fraction=0.3),
]


def thresholds_id(th: Thresholds) -> str:
    """The fields that differ from the defaults, as a test id."""
    default = Thresholds()
    changed = [f"{k}={v}" for k, v in vars(th).items() if v != getattr(default, k)]
    return ",".join(changed) or "default"


def uncapped_ball_size(ball: _Ball, i: int, depth: int) -> int:
    """Words within ``depth`` i-steps of the root, with no cap."""
    seen = {0}
    frontier = [0]
    for _ in range(depth):
        next_frontier = []
        for nid in frontier:
            for n in i_neighbors(ball, nid, i):
                if n not in seen:
                    seen.add(n)
                    next_frontier.append(n)
        frontier = next_frontier
    return len(seen)


@pytest.fixture(scope="module")
def acceptance():
    """The acceptance #9 index and relator-chunk words over it; at depth
    2 the 250-letter word's i-balls hold up to 19 words with the default
    thresholds and 42 with ``long_factor_fraction`` 0.3."""
    idx = _reduction_index(random.Random(SEED + 4))
    rng = random.Random(14)
    words = [chunk_word(rng, list(idx.relators), n) for n in (60, 120, 150, 250)]
    return idx, words


def short_words(idx: UWordIndex) -> list[Word]:
    """Short chunk words, two of which have a splice that lowers c1."""
    rng = random.Random(33)
    return [chunk_word(rng, list(idx.relators), n) for n in (40, 60, 80)]


class TestSharedBall:
    @pytest.mark.parametrize(
        "thresholds", [Thresholds()] + TRUNCATING, ids=thresholds_id
    )
    def test_complexity_matches_oracle(self, acceptance, thresholds):
        idx, words = acceptance
        for word in words:
            for depth in (0, 1, 2):
                assert complexity(word, idx, thresholds, depth) == oracle_complexity(
                    word, idx, thresholds, depth
                )

    @pytest.mark.parametrize(
        "thresholds",
        [
            Thresholds(),
            Thresholds(max_ball=3),
            Thresholds(max_ball=12),
            Thresholds(long_factor_fraction=0.3, max_ball=40),
        ],
        ids=thresholds_id,
    )
    def test_i_balls_match_oracle(self, acceptance, thresholds):
        # the words scored for each index, in order: a cap or a neighbour
        # list that is off shows here even where the maximum hides it
        idx, words = acceptance
        for word in words[1:]:
            ball = _Ball(word, idx, thresholds)
            for i in range(0, c1(word, idx)[0] + 2):
                got = [ball.node(nid).word for nid in ball.i_ball(i, 2)]
                want = oracle_i_ball(word, i, idx, thresholds, 2)
                assert got == want
                assert max(oracle_max_ith_factor(v, i, idx) for v in want) == ball.ell_hat(i, 2)

    def test_ball_cap_ends_the_search(self, acceptance):
        # the search ends at the first word past the cap: the nodes expanded
        # are a prefix of the scored ones, and all but the last have every
        # i-neighbour scored.  A stop that leaves only one node's neighbour
        # loop goes on to expand the other scored nodes of the frontier.
        idx, words = acceptance
        bound = 0
        for word in words[1:]:
            for i in range(0, c1(word, idx)[0] + 2):
                ball = _Ball(word, idx, Thresholds(max_ball=3))
                scored = ball.i_ball(i, 2)
                expanded = {nid for nid, node in enumerate(ball.nodes) if node is not None and node.edges is not None}
                assert expanded == set(scored[: len(expanded)])
                assert all(set(i_neighbors(ball, nid, i)) <= set(scored) for nid in scored[: len(expanded) - 1])
                if uncapped_ball_size(ball, i, 2) > 3:
                    bound += 1
                    assert len(scored) == 3 and len(expanded) < 3
        assert bound >= 10

    def test_corpus_reaches_the_caps(self, acceptance):
        # the ball caps 3 and 12 bind on this corpus, and 40 with
        # long_factor_fraction 0.3
        idx, words = acceptance
        word = words[-1]
        k = c1(word, idx)[0]
        for th, cap in ((Thresholds(), 12), (Thresholds(long_factor_fraction=0.3), 40)):
            ball = _Ball(word, idx, th)
            assert max(uncapped_ball_size(ball, i, 2) for i in range(1, k + 1)) > cap
        # and a splice that lowers c1 is met and dropped
        dropped = []
        for word in short_words(idx):
            ball = _Ball(word, idx, Thresholds())
            ball.edges(0)
            dropped += [
                (c1(word, idx)[0], c1(Word(2, letters), idx)[0])
                for letters, nid in ball.ids.items()
                if ball.nodes[nid] is None
            ]
        assert dropped and all(after < before for before, after in dropped)

    @pytest.mark.parametrize(
        "thresholds",
        [Thresholds(), Thresholds(long_factor_fraction=0.3)],
        ids=thresholds_id,
    )
    def test_ell_hat_matches_oracle(self, acceptance, thresholds):
        # every index, including those outside 1..c1, on the thin view
        idx, words = acceptance
        for word in words[1:3]:
            k = c1(word, idx)[0]
            for i in range(0, k + 2):
                for depth in (0, 1, 2):
                    assert _Ball(word, idx, thresholds).ell_hat(i, depth) == oracle_ell_hat(
                        word, i, idx, thresholds, depth
                    )

    @pytest.mark.parametrize(
        "thresholds",
        [Thresholds(), Thresholds(long_factor_fraction=0.3)],
        ids=thresholds_id,
    )
    def test_neighbors_match_oracle(self, acceptance, thresholds):
        # the i-neighbours read off the tagged edges equal the per-index
        # list as ordered lists, at the root and at the nodes around it
        idx, words = acceptance
        for word in short_words(idx) + words[1:]:
            ball = _Ball(word, idx, thresholds)
            k = c1(word, idx)[0]
            nodes = [0] + [nid for nid, _ in ball.edges(0)][:4]
            for nid in dict.fromkeys(nodes):
                node = ball.node(nid).word
                for i in range(0, k + 2):
                    got = [ball.node(n).word for n in i_neighbors(ball, nid, i)]
                    assert got == oracle_elementary_i_equivalents(node, i, idx, thresholds)
                    fresh = _Ball(node, idx, thresholds)
                    assert [fresh.node(n).word for n in i_neighbors(fresh, 0, i)] == got

    def test_uncovered_word(self):
        # the ball checks its root when it is built, whatever the depth
        idx = UWordIndex([Word(2, (1, 1, 1))])
        word = w("a1 a2")
        with pytest.raises(ValueError, match="not a factor"):
            oracle_ell_hat(word, 1, idx, depth=1)
        with pytest.raises(ValueError, match="position 1 is not a factor"):
            _Ball(word, idx, Thresholds())
        with pytest.raises(ValueError, match="position 1 is not a factor"):
            complexity(word, idx, depth=0)

    def test_a_repeated_candidate_is_scored_once(self):
        # the proper power (a1 a1 a2)^2 certifies the first factor at two
        # rotations with one complement, so the root's edges list that
        # candidate twice under index 1; the 2-ball scores it once, and a
        # second scoring would still fit under the cap of 3
        idx = UWordIndex([w("a1 a1 a2 a1 a1 a2"), w("a2 a2 a1")])
        word = w("a1 a2 a1 a1 a2 a2 a1 a2 a2")
        th = Thresholds(max_ball=3)
        ball = _Ball(word, idx, th)
        edges = ball.edges(0)
        assert [j for _, j in edges] == [1, 1, 2] and edges[0] == edges[1]
        assert ball.i_ball(2, 1) == [0, edges[0][0]]
        for depth in (1, 2):
            got = [ball.node(nid).word for nid in ball.i_ball(2, depth)]
            assert got == oracle_i_ball(word, 2, idx, th, depth)

    @given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=20, max_value=80))
    @settings(max_examples=30, deadline=None)
    def test_unchecked_values_pass_the_checked_constructor(self, seed, length):
        # subwords, inverses, rotations, complements and ball splices are
        # built without re-validation; each must satisfy every public check
        rng = random.Random(seed)
        rng_idx = random.Random(7)
        idx = UWordIndex([random_cyclically_reduced(rng_idx, 2, 24) for _ in range(2)])
        word = chunk_word(rng, list(idx.relators), length)

        def checked(value: Word) -> None:
            assert Word(value.rank, value.letters) == value

        a = rng.randrange(len(word))
        b = rng.randrange(a + 1, len(word) + 1)
        factor = word.subword(a, b)
        checked(factor)
        checked(word.inverse())
        for cert in idx.certificates(factor):
            checked(idx.rotation_word(cert))
            checked(idx.u_complement(factor, cert))
        th = Thresholds(long_factor_fraction=0.3)
        ball = _Ball(word, idx, th)
        for i in range(c1(word, idx)[0] + 1):
            for nid in i_neighbors(ball, 0, i):
                checked(ball.node(nid).word)


def segmentation_count(word: Word, idx: UWordIndex) -> int:
    return sum(1 for _ in admissible_decompositions(word, idx))


@pytest.fixture(scope="module")
def past_the_old_cap(acceptance):
    """Chunk words like the benchmark's ``cx-*`` words, over its index
    (the acceptance #9 index), with more than 64 minimal segmentations,
    the number the ball once read per node: 144, 160 and 432."""
    idx, _ = acceptance
    words = [chunk_word(random.Random(seed), list(idx.relators), n) for seed, n in (
        ("200-7", 200), ("250-6", 250), ("410-2", 410))]
    return idx, words


class TestExactEdges:
    def test_spans_match_uncapped_enumeration(self, acceptance, past_the_old_cap):
        # the spans read off the tables, one per start in ascending order,
        # against the factors of every minimal segmentation that end at
        # their start's reach, on random words and on chunk words of the
        # benchmark's lengths; every start of such a factor has one
        idx, big = past_the_old_cap
        rng = random.Random(26)
        words = [Word(2, random_reduced_letters(rng, 2, n)) for n in (1, 2, 5, 10, 20, 40, 60) for _ in range(4)]
        words += [chunk_word(rng, list(idx.relators), n) for n in (100, 200, 410) for _ in range(3)]
        past_cap = 0
        for word in words + big:
            maxstart = idx.max_factor_starting(word)
            node = _Node(word, maxstart)
            got = [(p, node.reach[p], j) for j, r in enumerate(node.starts, 1) for p in r]
            starts = [p for p, _, _ in got]
            assert starts == sorted(set(starts))
            oracle = oracle_factor_spans(word, idx)
            assert set(got) == {(p, q, j) for p, q, j in oracle if q == p + maxstart[p]}
            assert set(starts) == {p for p, _, _ in oracle}
            past_cap += segmentation_count(word, idx) > 64
        assert past_cap >= 4

    @pytest.mark.parametrize("depth", [1, 2])
    def test_complexity_matches_oracle_past_the_old_cap(self, past_the_old_cap, depth):
        idx, words = past_the_old_cap
        for word in words[:2]:
            assert segmentation_count(word, idx) > 64
            assert complexity(word, idx, Thresholds(), depth) == oracle_complexity(
                word, idx, Thresholds(), depth
            )

    def test_root_neighbors_match_oracle_past_the_old_cap(self, past_the_old_cap):
        # as ordered lists; a ball that read only the first 64 segmentations
        # misses neighbours of the 410-letter word for 11 of its 13 indices
        idx, words = past_the_old_cap
        for word in words:
            ball = _Ball(word, idx, Thresholds())
            for i in range(0, c1(word, idx)[0] + 2):
                got = [ball.node(n).word for n in i_neighbors(ball, 0, i)]
                assert got == oracle_elementary_i_equivalents(word, i, idx)


class TestComplexityValue:
    def test_empty_word_is_bottom(self, toy):
        bottom = complexity(empty_word(2), toy)
        assert bottom.key() == (0, 0)
        assert bottom.key() <= complexity(w("a1"), toy).key()

    def test_short_word(self, toy):
        value = complexity(w("a1"), toy, depth=0)
        assert value.key() == (1, 0)

    def test_full_relator_counts(self, big):
        th = Thresholds(zero_fraction=0.9)
        value = complexity(Word(2, big.relators[0].letters), big, th, depth=0)
        assert value.c1 == 1
        assert value.c2 == len(big.relators[0])

    def test_lexicographic_order(self):
        assert ComplexityValue(1, 5).key() < ComplexityValue(2, 0).key()
        assert ComplexityValue(2, 1).key() < ComplexityValue(2, 4).key()

    def test_tuple_complexity_ignores_tail_entries(self, toy):
        words = [w("a1"), w("a2"), Word(2, toy.relators[0].letters)]
        values = tuple_complexity(words, toy, depth=0)
        assert len(values) == 2  # two relators -> first two entries only


class TestReductionMove:
    def test_no_occurrence_is_identity(self, big):
        rel = big.relators[0]
        pattern = Word(2, rel.letters[:18])
        replacement = big.u_complement(pattern, big.is_u_word(pattern))
        rng = random.Random(15)
        word = Word(2, random_reduced_letters(rng, 2, 10))
        out = reduction_move(word, pattern, replacement, big, depth=0)
        assert out.word == word and out.relation == "equal"

    def test_uncertified_pair_rejected(self, big):
        with pytest.raises(ValueError):
            reduction_move(w("a1 a2"), w("a1"), w("a2"), big)

    def test_overlapping_occurrences_rejected(self, big):
        rel = big.relators[0]
        pattern = Word(2, rel.letters[:18])
        replacement = big.u_complement(pattern, big.is_u_word(pattern))
        word = Word(2, rel.letters)
        with pytest.raises(ValueError):
            reduction_move(
                word, pattern, replacement, big, occurrence_set=[(0, 1), (4, 1)]
            )

    def test_strict_decrease_inside_long_block(self, big):
        th = Thresholds(long_factor_fraction=0.3, zero_fraction=0.85)
        rng = random.Random(16)
        for _ in range(20):
            rel_i = rng.randrange(2)
            base = big.relators[rel_i]
            off = rng.randrange(60)
            rot = base.letters[off:] + base.letters[:off]
            planted = rot[:55]
            i0 = rng.randrange(5, 55 - 18 - 5)
            pattern = Word(2, planted[i0 : i0 + 18])
            cert = next(
                c
                for c in big.certificates(pattern)
                if c.relator == rel_i and c.sign == 1 and c.rotation == (off + i0) % 60
            )
            replacement = big.u_complement(pattern, cert)
            while True:
                head = random_reduced_letters(rng, 2, 5)
                tail = random_reduced_letters(rng, 2, 5)
                letters = head + planted + tail
                if all(a != -b for a, b in zip(letters, letters[1:])):
                    break
            word = Word(2, letters)
            out = reduction_move(
                word, pattern, replacement, big, [(5 + i0, 1)], th, depth=0
            )
            assert out.relation == "decreased"
            # the move read backwards raises the pair
            assert dataclasses.replace(out, before=out.after, after=out.before).relation == "increased"

    def test_chain_of_moves_terminates(self, big):
        # iterate moves against planted relator blocks: the complexity
        # pair never increases and the loop reaches a word with no long
        # block left (the pair is a well-order, so this must terminate)
        th = Thresholds(long_factor_fraction=0.3, zero_fraction=0.85)
        rng = random.Random(17)
        base0 = big.relators[0].letters
        base1 = big.relators[1].letters
        letters = None
        while letters is None:
            cand = (
                random_reduced_letters(rng, 2, 4)
                + base0[:55]
                + random_reduced_letters(rng, 2, 4)
                + base1[:55]
                + random_reduced_letters(rng, 2, 4)
            )
            if all(a != -b for a, b in zip(cand, cand[1:])):
                letters = cand
        word = Word(2, letters)
        history = [complexity(word, big, th, depth=0)]
        for _ in range(20):
            maxstart = big.max_factor_starting(word)
            best_p = max(range(len(word)), key=lambda p: maxstart[p])
            block = maxstart[best_p]
            if block < 0.9 * 60:
                break
            pattern = word.subword(best_p, best_p + 18)
            cert = big.is_u_word(word.subword(best_p, best_p + block))
            aligned = next(
                c
                for c in big.certificates(pattern)
                if (c.relator, c.sign, c.rotation)
                == (cert.relator, cert.sign, cert.rotation)
            )
            replacement = big.u_complement(pattern, aligned)
            out = reduction_move(
                word, pattern, replacement, big, [(best_p, 1)], th, depth=0
            )
            assert out.after.key() <= out.before.key()
            word = out.word
            history.append(out.after)
        assert history[-1].key() < history[0].key()
        assert history[-1].c2 == 0

    def test_greedy_occurrences_used_when_unspecified(self, big):
        rel = big.relators[0]
        pattern = Word(2, rel.letters[:18])
        replacement = big.u_complement(pattern, big.is_u_word(pattern))
        word = Word(2, rel.letters)
        out = reduction_move(word, pattern, replacement, big, depth=0)
        assert out.replaced == [(0, 1)]
        # replacing the prefix by the complement inverts the relator tail
        assert out.word == Word(2, rel.letters[18:]).inverse() or len(out.word) < 60


def oracle_rotation_set(idx: UWordIndex) -> set[tuple[int, ...]]:
    """Every rotation of every signed relator as a letter tuple: the set
    ``reduction_move`` once built for its relator-rotation check, in
    O(sum of L^2) time and memory."""
    return {
        base.rotation(k).letters
        for word in idx.relators
        for base in (word, word.inverse())
        for k in range(len(base))
    }


def passes_rotation_check(pattern: Word, replacement: Word, idx: UWordIndex) -> bool:
    """Whether ``reduction_move`` accepts the pair; no occurrence is
    replaced, so only the check runs."""
    try:
        reduction_move(empty_word(idx.rank), pattern, replacement, idx, [], depth=0)
    except ValueError as exc:
        assert "not a relator rotation" in str(exc)
        return False
    return True


class TestRelatorRotationCheck:
    def test_matches_rotation_set(self):
        rng = random.Random(29)
        kinds = {"rotation": 0, "same_length": 0, "unreduced_glue": 0, "factor": 0, "power": 0}
        for trial in range(600):
            rank = rng.choice((2, 2, 3))
            rels = [random_cyclically_reduced(rng, rank, rng.randrange(rank, 11)) for _ in range(rng.randrange(1, 4))]
            if trial % 10 == 0:  # a proper power: several rotations coincide
                rels.append(Word(rank, rels[0].letters * rng.randrange(2, 4)))
                kinds["power"] += 1
            idx = UWordIndex(rels)
            rotations = oracle_rotation_set(idx)
            base = rng.choice(rels)
            base = base if rng.random() < 0.5 else base.inverse()
            rot = base.rotation(rng.randrange(len(base))).letters
            cut = rng.randrange(len(rot) + 1)
            mode = trial % 5
            if mode == 0:  # a rotation split anywhere
                head, tail = rot[:cut], rot[cut:]
            elif mode == 1:  # one letter changed: the right length, rarely a rotation
                at = rng.randrange(len(rot))
                changed = list(rot)
                changed[at] = rng.choice([l for l in (1, -1, 2, -2, 3, -3)[: 2 * rank] if l != rot[at]])
                head, tail = tuple(changed[:cut]), tuple(changed[cut:])
            elif mode == 4:  # a proper factor: it occurs in the relator read twice
                head, tail = rot[: min(cut, len(rot) - 1)], rot[cut:-1]
            else:  # glue x x^-1 across the cut, in place of two letters or inserted
                x = rng.choice((1, -1, 2, -2, 3, -3)[: 2 * rank])
                drop = 1 if mode == 2 and 0 < cut < len(rot) else 0
                head, tail = rot[: cut - drop] + (x,), (-x,) + rot[cut + drop :]
            glued = head + tail
            try:
                pattern, replacement = Word(rank, head), Word(rank, tail).inverse()
            except ValueError:  # a half is not reduced
                continue
            expected = glued in rotations
            assert passes_rotation_check(pattern, replacement, idx) == expected, (rels, glued)
            kinds["rotation"] += expected
            kinds["same_length"] += not expected and len(glued) in {len(r) for r in rels}
            kinds["unreduced_glue"] += any(a == -b for a, b in zip(glued, glued[1:]))
            kinds["factor"] += mode == 4 and bool(glued)
        assert min(kinds.values()) > 40, kinds

    def test_long_relator_is_linear(self):
        # the rotation set of this relator would hold 40,000 tuples of
        # 20,000 letters; the check reads the relator twice instead
        rng = random.Random(31)
        rel = random_cyclically_reduced(rng, 2, 20_000)
        idx = UWordIndex([rel])
        rot = rel.rotation(12_345).letters
        pattern, replacement = Word(2, rot[:7_000]), Word(2, rot[7_000:]).inverse()
        start = time.perf_counter()
        assert passes_rotation_check(pattern, replacement, idx)
        assert not passes_rotation_check(pattern, Word(2, rot[7_001:]).inverse(), idx)
        assert time.perf_counter() - start < 0.5


def test_greedy_disjoint_occurrences_both_signs(toy):
    rel = toy.relators[0]
    pattern = Word(2, rel.letters[:6])
    # a separator keeps pattern * pattern^-1 from cancelling
    sep = 3 - abs(pattern.letters[-1])
    word = Word(2, pattern.letters + (sep,) + pattern.inverse().letters)
    # the scan reduction_move runs when no occurrence set is given
    hits = strsearch.greedy_disjoint(word.letters, pattern.letters)
    assert hits[0] == (0, 1) and (7, -1) in hits


def test_greedy_disjoint_occurrences_rejects_empty_pattern(toy):
    with pytest.raises(ValueError, match="nonempty"):
        strsearch.greedy_disjoint(toy.relators[0].letters, ())

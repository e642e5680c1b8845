import copy
import random
from collections import Counter

import pytest

from conftest import core, letter_key, random_cyclically_reduced, random_graph, rose, token_letter
from test_graphs import branching_star, oracle_canonical_key
from rosefold import folding
from rosefold.folding import (
    FoldRecord,
    _makes_lift,
    fold_all,
    fold_to_delta,
    petal_paths,
    replace_arc,
    wedge_of_loops,
)
from rosefold.graphs import (
    EdgePath,
    LabeledGraph,
    _Quotient,
    betti,
    canonical_key,
    is_rose,
    isomorphic_labeled,
)
from rosefold.surgery import _arc_runs
from rosefold.words import (
    GenTuple,
    Word,
    apply_nielsen,
    format_word,
    free_reduce,
    parse_word,
    random_nielsen_moves,
    random_reduced_letters,
    standard_tuple,
)


def w(text: str, rank: int = 2) -> Word:
    return parse_word(text, rank)


def path_letters(path: EdgePath) -> tuple[int, ...]:
    return tuple(token_letter(path.graph, tok) for tok in path.tokens)


def replayed_stage(g: LabeledGraph, records) -> LabeledGraph:
    """The stage of ``g`` after ``records``, by a plain relabelling of
    vertex classes: each fold merges the classes of its two tokens' ends
    and drops the removed token's edge.  A class is named by its least
    vertex, classes are numbered in that order and the live edges keep
    their input order."""
    cls = list(range(g.num_vertices))
    dead = set()
    for record in records:
        a, b = cls[g.omega(record.kept)], cls[g.omega(record.removed)]
        cls = [min(a, b) if c in (a, b) else c for c in cls]
        dead.add(abs(record.removed) - 1)
    number = {c: i for i, c in enumerate(sorted(set(cls)))}
    edges = tuple((number[cls[s]], number[cls[d]], l) for k, (s, d, l) in enumerate(g.edges) if k not in dead)
    return LabeledGraph(g.rank, len(number), edges, None if g.base is None else number[cls[g.base]])


def tup(*texts: str, rank: int = 2) -> GenTuple:
    return GenTuple(rank, tuple(parse_word(t, rank) for t in texts))


def nielsen_basis_tuple(rng: random.Random, rank: int, moves: int = 14) -> GenTuple:
    t = standard_tuple(rank, 2 * rank - 1)
    for move in random_nielsen_moves(rng, t.arity, moves):
        t = apply_nielsen(t, move)
    return t


def proper_factor_tuple(rng: random.Random, rank: int) -> GenTuple:
    # entries avoid the last generator, so they span a proper free factor
    entries = []
    for _ in range(2 * rank - 1):
        length = rng.randrange(0, 7)
        letters = []
        prev = 0
        for _ in range(length):
            choices = [
                s * g
                for g in range(1, rank)
                for s in (1, -1)
                if s * g != -prev
            ]
            prev = rng.choice(choices)
            letters.append(prev)
        entries.append(Word(rank, tuple(letters)))
    if all(len(e) == 0 for e in entries):
        entries[0] = Word(rank, (1,))
    return GenTuple(rank, tuple(entries))


class TestWedge:
    def test_single_loop(self):
        g = wedge_of_loops(tup("a1"))
        assert (g.num_vertices, g.num_edges) == (1, 1)

    def test_two_petals(self):
        g = wedge_of_loops(tup("a1 a2", "a1"))
        assert (g.num_vertices, g.num_edges) == (2, 3)

    def test_trivial_entry_dropped(self):
        g = wedge_of_loops(tup("a1", "1"))
        assert (g.num_vertices, g.num_edges) == (1, 1)

    def test_petal_paths_read_entries(self):
        t = tup("a1 a2", "a2^-1 a1")
        g = wedge_of_loops(t)
        for entry, path in zip(t.entries, petal_paths(t, g)):
            assert path_letters(path) == entry.letters
            assert path.start == 0 and g.omega(path.tokens[-1]) == 0


def first_fold(g: LabeledGraph, policy: str = "least") -> tuple[LabeledGraph, FoldRecord]:
    """The first fold of ``fold_all(g, policy)`` and the graph it leaves."""
    trace = fold_all(g, policy)
    return trace.stage(1).graph, trace.records[0]


class TestFoldOnce:
    def test_identifies_double_loop(self):
        g = wedge_of_loops(tup("a1", "a1"))
        folded, record = first_fold(g)
        assert (folded.num_vertices, folded.num_edges) == (1, 1)

    def test_folded_graph_returns_none(self):
        assert fold_all(rose(2)).records == ()

    def test_first_fold_of_mixed_wedge(self):
        # the two initial a1-edges get identified; the interior vertex
        # merges into the base and the result is already the rank-2 rose
        g = wedge_of_loops(tup("a1 a2", "a1"))
        folded, record = first_fold(g)
        assert (folded.num_vertices, folded.num_edges) == (1, 2)
        assert is_rose(folded)

    def test_greatest_folds_the_greatest_letter(self):
        # both folds of the wedge a2 a1 | a2 a2 a1 sit at the base: least
        # takes the a1^-1 pair of the last letters, greatest the a2 pair
        # of the first letters
        g = wedge_of_loops(tup("a2 a1", "a2 a2 a1"))
        assert first_fold(g)[1] == FoldRecord(kept=-5, removed=-2)
        folded, record = first_fold(g, "greatest")
        assert record == FoldRecord(kept=1, removed=3)
        assert (folded.num_vertices, folded.num_edges) == (3, 4)

    def test_defer_rose_skips_the_lift_making_fold(self):
        # the least fold identifies the a1 loop with the a1 edge into the
        # base, which turns the first a2 edge into a second loop there;
        # defer_rose folds the two a2 edges leaving the base instead
        g = wedge_of_loops(tup("a1", "a2 a1", "a2 a2"))
        least, least_record = first_fold(g)
        assert least_record == FoldRecord(kept=-3, removed=-1)
        assert least.has_rose_lift()
        folded, record = first_fold(g, "defer_rose")
        assert record == FoldRecord(kept=2, removed=4)
        assert (folded.num_vertices, folded.num_edges) == (2, 4)
        assert not folded.has_rose_lift()


class TestFoldAll:
    def test_hand_folding(self):
        trace = fold_all(wedge_of_loops(tup("a1 a2", "a1")))
        assert is_rose(trace.terminal)
        assert trace.num_folds == 1

    def test_already_folded_zero_folds(self):
        trace = fold_all(rose(3))
        assert trace.num_folds == 0

    def test_nielsen_basis_folds_to_rose(self, rng):
        for rank in (2, 3):
            for _ in range(20):
                t = nielsen_basis_tuple(rng, rank)
                trace = fold_all(wedge_of_loops(t))
                assert is_rose(trace.terminal)

    def test_fold_count_at_most_edges(self, rng):
        for _ in range(20):
            t = nielsen_basis_tuple(rng, 2)
            g = wedge_of_loops(t)
            trace = fold_all(g)
            assert trace.num_folds <= g.num_edges

    @pytest.mark.parametrize("policy", folding.POLICIES)
    def test_every_root_is_its_class_least_vertex(self, rng, policy):
        # the classes are replayed here from the records: each fold merges
        # the classes of its tokens' original end vertices
        graphs = [random_graph(rng, rng.choice((2, 3)), max_v=8, max_e=14) for _ in range(150)]
        graphs += [wedge_of_loops(nielsen_basis_tuple(rng, rng.choice((2, 3)))) for _ in range(15)]
        graphs += [wedge_of_loops(proper_factor_tuple(rng, 3)) for _ in range(15)]
        for g in graphs:
            trace = fold_all(g, policy)
            cls = [{v} for v in range(g.num_vertices)]
            for k, view in enumerate(trace.stage_views()):
                if k:
                    record = trace.records[k - 1]
                    merged = cls[g.omega(record.kept)] | cls[g.omega(record.removed)]
                    for v in merged:
                        cls[v] = merged
                assert [view.find(v) for v in range(g.num_vertices)] == [min(c) for c in cls]

    def test_betti_never_increases(self, rng):
        t = nielsen_basis_tuple(rng, 2, moves=8)
        trace = fold_all(wedge_of_loops(t))
        values = [betti(trace.stage(k).graph) for k in range(len(trace.records) + 1)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_confluence_across_policies(self, rng):
        for _ in range(30):
            t = nielsen_basis_tuple(rng, 2, moves=10)
            g = wedge_of_loops(t)
            a = fold_all(g, "least").terminal
            b = fold_all(g, "greatest").terminal
            assert isomorphic_labeled(a, b)

    def test_confluence_includes_deferring_policy(self, rng):
        for _ in range(10):
            t = nielsen_basis_tuple(rng, 2, moves=8)
            g = wedge_of_loops(t)
            a = fold_all(g, "least").terminal
            b = fold_all(g, "defer_rose").terminal
            assert isomorphic_labeled(a, b)

    def test_engine_matches_naive_reference(self, rng):
        # slow reference: rebuild the whole graph after every single fold,
        # scanning for the least foldable pair from scratch
        def naive_terminal(g):
            while True:
                pair = None
                for v in range(g.num_vertices):
                    by_letter = {}
                    for lab, tgt, tok in g.adjacency[v]:
                        by_letter.setdefault(lab, []).append(tok)
                    for lab in sorted(by_letter, key=lambda l: (abs(l), l < 0)):
                        if len(by_letter[lab]) >= 2:
                            pair = (v, sorted(by_letter[lab])[:2])
                            break
                    if pair:
                        break
                if pair is None:
                    return g
                v, (t1, t2) = pair
                h1, h2 = g.omega(t1), g.omega(t2)
                keep = {v: v}
                merged = {h2: h1} if h1 != h2 else {}
                remap = [merged.get(u, u) for u in range(g.num_vertices)]
                dense = {u: i for i, u in enumerate(sorted(set(remap)))}
                edges = tuple(
                    (dense[remap[s]], dense[remap[d]], l)
                    for k, (s, d, l) in enumerate(g.edges)
                    if k != abs(t2) - 1
                )
                base = dense[remap[g.base]] if g.base is not None else None
                g = LabeledGraph(g.rank, len(dense), edges, base)

        for _ in range(20):
            t = nielsen_basis_tuple(rng, 2, moves=10)
            g = wedge_of_loops(t)
            fast = fold_all(g).terminal
            slow = naive_terminal(g)
            assert isomorphic_labeled(fast, slow)

    def test_proper_factor_does_not_reach_rose(self, rng):
        for rank in (2, 3):
            for _ in range(20):
                t = proper_factor_tuple(rng, rank)
                assert not is_rose(fold_all(wedge_of_loops(t)).terminal)

    def test_terminal_is_folded(self, rng):
        t = nielsen_basis_tuple(rng, 3, moves=10)
        terminal = fold_all(wedge_of_loops(t)).terminal
        # no two edges leave a vertex with one letter
        assert all(len({lab for lab, _, _ in out}) == len(out) for out in terminal.adjacency)

    @pytest.mark.parametrize("policy", ["least", "greatest", "defer_rose"])
    def test_stages_match_stage(self, rng, policy):
        # ``stage(k)`` materializes a view of ``stage_views``, so both are
        # checked against a replay that shares no code with the engine
        for _ in range(6):
            t = nielsen_basis_tuple(rng, 2, moves=10)
            g = wedge_of_loops(t)
            trace = fold_all(g, policy=policy)
            streamed = [view.materialize()[0] for view in trace.stage_views()]
            replayed = [replayed_stage(g, trace.records[:k]) for k in range(len(trace.records) + 1)]
            assert streamed == replayed
            assert [trace.stage(k).graph for k in range(len(trace.records) + 1)] == replayed

    def test_push_path_preserves_labels(self, rng):
        t = nielsen_basis_tuple(rng, 2, moves=8)
        g = wedge_of_loops(t)
        trace = fold_all(g)
        for path in petal_paths(t, g):
            for k in (0, len(trace.records) // 2, len(trace.records)):
                image = trace.push_path(path, k, trace.stage(k))
                assert path_letters(image) == path_letters(path)


def stage_key_wedges() -> list[GenTuple]:
    """Small seeded tuples whose fold sequences pass through every kind of
    stage the group cache must follow: shared prefixes, repeated entries
    (parallel edges once folded), loops such as a1 and a1 a1, identity
    entries, at ranks 2 and 3."""
    tuples = [
        tup("a1", "a1 a1", "a2"),
        tup("a1", "a1", "a2 a1 a2^-1"),
        tup("a1 a2 a1^-1 a2", "1", "a1", "1", "a2"),
        tup("a1 a2 a3", "a1 a2 a3^-1", "a3 a3", "1", rank=3),
    ]
    rng = random.Random(11)
    for rank in (2, 3):
        for _ in range(8):
            first = random_reduced_letters(rng, rank, rng.randrange(3, 9))
            cut = rng.randrange(1, len(first))
            second = first
            while second[cut] in (first[cut], -first[cut - 1]):
                second = first[:cut] + random_reduced_letters(rng, rank, rng.randrange(1, 5))
            entries = [first, second]
            entries.append(first if rng.random() < 0.5 else (1,) * rng.randrange(1, 3))
            entries.append(() if rng.random() < 0.5 else (rng.choice((-1, 1)) * rank,))
            rng.shuffle(entries)
            tuples.append(GenTuple(rank, tuple(Word(rank, e) for e in entries)))
    return tuples


def profile_star(arm_loops: list[tuple[int, ...]]) -> LabeledGraph:
    """A based centre with an a1-edge to each arm vertex; arm i carries the
    loops ``arm_loops[i]`` and closes back to the centre with a2, so the
    centre branches over arms whose label profiles are equal or not."""
    edges = []
    for arm, loops in enumerate(arm_loops, start=1):
        edges.append((0, arm, 1))
        edges += [(arm, arm, label) for label in loops]
        edges.append((arm, 0, 2))
    return LabeledGraph(2, len(arm_loops) + 1, tuple(edges), base=0)


class TestStageKeys:
    """The keys of ``FoldTrace.stage_views`` (stages read off the fold
    engine, label groups cached per root) against the copying encoder on
    every materialized ``stage(k)``."""

    POLICIES = ("least", "greatest", "defer_rose")

    def assert_keys_match(self, g: LabeledGraph) -> None:
        for policy in self.POLICIES:
            trace = fold_all(g, policy=policy)
            for k, view in enumerate(trace.stage_views()):
                stage = trace.stage(k).graph
                assert canonical_key(view) == oracle_canonical_key(stage), (policy, k)
                assert view.materialize()[0] == stage, (policy, k)
            assert k == len(trace.records)

    @pytest.mark.parametrize(
        "t",
        stage_key_wedges(),
        ids=lambda t: ", ".join(format_word(e) or "1" for e in t.entries),
    )
    def test_wedges(self, t):
        self.assert_keys_match(wedge_of_loops(t))

    @pytest.mark.parametrize("arms", [2, 3, 4])
    def test_branching_stars(self, arms):
        # arm vertices with equal profiles that differ deep inside the arms
        self.assert_keys_match(branching_star(arms))

    @pytest.mark.parametrize(
        "arm_loops",
        [
            [(2,), (2,), (2,)],
            [(2,), (2, 2), (), (-2,)],
            [(1,), (2,), (1, 2), (2, 1)],
            [(), (), (1, 1), (1,)],
        ],
        ids=["equal", "multiplicity", "letters", "mixed"],
    )
    def test_profile_stars(self, arm_loops):
        self.assert_keys_match(profile_star(arm_loops))

    @pytest.mark.parametrize(
        "t",
        [
            tup("a1 a2 a1^-1 a2 a2", "a1 a2 a1^-1 a2 a2", "a1 a2", "a2"),
            tup("a2^-1 a1 a1 a2 a1^-1 a2^-1", "a2^-1 a1 a1 a2 a1^-1 a2^-1", "a1 a2", "a2"),
            tup("a1 a2", "a1 a2", "a1 a2", "a2"),
        ],
        ids=lambda t: ", ".join(format_word(e) or "1" for e in t.entries),
    )
    def test_repeated_entries(self, t):
        # equal petals: the base's label groups split into cells of equal
        # members, whose orders tie until a later segment tells them apart
        self.assert_keys_match(wedge_of_loops(t))

    @pytest.mark.parametrize("arms", [2, 3, 4])
    def test_identical_arm_stars(self, arms):
        # every order of the arms gives the least encoding
        self.assert_keys_match(wedge_of_loops(tup(*["a1 a2 a1 a2^-1 a1"] * arms)))
        self.assert_keys_match(profile_star([(1, 2)] * arms))


def clone_quotient(q: _Quotient) -> _Quotient:
    other = copy.copy(q)
    other.parent = list(q.parent)
    other.alive = list(q.alive)
    other.slots = [None if toks is None else list(toks) for toks in q.slots]
    return other


def quotient_roots(q: _Quotient) -> list[int]:
    return [v for v in range(q.graph.num_vertices) if q.find(v) == v]


def quotient_has_rose_lift(q: _Quotient) -> bool:
    for root in quotient_roots(q):
        # generator a_gen has slot 2 * (gen - 1) of each vertex's row
        slots = q.slots[root * q.width : (root + 1) * q.width]
        gens = {
            gen
            for gen in range(1, q.graph.rank + 1)
            if any(q.head(tok) == root for tok in slots[2 * gen - 2] or ())
        }
        if len(gens) == q.graph.rank:
            return True
    return False


def foldable(q: _Quotient) -> list[tuple[int, int]]:
    """Every (root, letter) that at least two live oriented edges leave
    the root's class with, in (root, ``letter_key``) order, counted from
    the live edges rather than read off the slots."""
    count = Counter()
    for k, (src, dst, label) in enumerate(q.graph.edges):
        if q.alive[k]:
            count[q.find(src), label] += 1
            count[q.find(dst), -label] += 1
    return sorted((pair for pair, c in count.items() if c >= 2), key=lambda p: (p[0], letter_key(p[1])))


def letter_slot(q: _Quotient, root: int, letter: int) -> int:
    """The slot of the tokens leaving ``root`` with ``letter``: the letter
    order a1 < a1^-1 < a2 < ... indexes each vertex's ``width`` slots."""
    gen, inverse = letter_key(letter)
    return root * q.width + 2 * gen - 2 + inverse


def fold_at(q: _Quotient, root: int, letter: int) -> FoldRecord:
    """The fold of the tokens leaving ``root`` with ``letter``."""
    return FoldRecord(*q.pair(letter_slot(q, root, letter)))


def makes_lift_by_simulation(q: _Quotient, root: int, letter: int) -> bool:
    probe = clone_quotient(q)
    probe.fold(*probe.pair(letter_slot(probe, root, letter)))
    return quotient_has_rose_lift(probe)


def oracle_fold(g: LabeledGraph, policy: str) -> tuple[list[FoldRecord], int | None]:
    """A fold sequence by sorted candidates: after each fold, sort every
    candidate by its class's least vertex, found by scanning every vertex
    rather than read off the root, and its letter, and fold the least
    (the greatest under "greatest").  Under "defer_rose", until the first
    lift, fold the least candidate whose fold a copy of the quotient shows
    to make no lift, if there is one."""
    q = _Quotient(g)
    records: list[FoldRecord] = []
    defer = policy == "defer_rose"
    first_lift: int | None = 0 if defer and quotient_has_rose_lift(q) else None
    while True:
        candidates = sorted(
            ((min(v for v in range(g.num_vertices) if q.find(v) == root), letter_key(letter)), root, letter)
            for root, letter in foldable(q)
        )
        if not candidates:
            return records, first_lift
        pick = candidates[-1 if policy == "greatest" else 0][1:]
        if defer and first_lift is None:
            pick = next(
                (c[1:] for c in candidates if not makes_lift_by_simulation(q, *c[1:])),
                pick,
            )
        record = fold_at(q, *pick)
        q.fold(record.kept, record.removed)
        records.append(record)
        if defer and first_lift is None and quotient_has_rose_lift(q):
            first_lift = len(records)


class TestSortedOracle:
    """``fold_all(g, policy)`` pops slots off a heap; the oracle sorts
    every candidate after each fold."""

    @pytest.mark.parametrize("policy", ["least", "greatest"])
    def test_random_graphs(self, rng, policy):
        for _ in range(200):
            g = random_graph(rng, rng.choice((2, 3)), max_v=6, max_e=10)
            assert list(fold_all(g, policy).records) == oracle_fold(g, policy)[0]

    @pytest.mark.parametrize("policy", ["least", "greatest"])
    def test_random_wedges(self, rng, policy):
        for rank in (2, 3):
            for _ in range(15):
                g = wedge_of_loops(nielsen_basis_tuple(rng, rank, moves=10))
                assert list(fold_all(g, policy).records) == oracle_fold(g, policy)[0]


class TestDeferRoseOracle:
    """``fold_all(g, "defer_rose")`` tests candidates with the local lift
    test in the heap loop; the oracle sorts and simulates every fold."""

    def assert_matches(self, g: LabeledGraph) -> tuple[list[FoldRecord], int | None]:
        records, first_lift = oracle_fold(g, "defer_rose")
        trace = fold_all(g, "defer_rose")
        assert list(trace.records) == records
        assert trace.first_lift_stage == first_lift
        return records, first_lift

    def test_random_graphs(self, rng):
        lifts = {0: 0, "later": 0, None: 0}
        for _ in range(400):
            rank = rng.choice((2, 3))
            g = random_graph(rng, rank, max_v=6, max_e=10)
            if rng.random() < 0.5:
                g = LabeledGraph(g.rank, g.num_vertices, g.edges, base=0)
            _, first_lift = self.assert_matches(g)
            lifts[first_lift if first_lift in (0, None) else "later"] += 1
        assert all(count > 20 for count in lifts.values())

    def test_random_wedges(self, rng):
        for rank in (2, 3):
            for _ in range(15):
                self.assert_matches(wedge_of_loops(nielsen_basis_tuple(rng, rank, moves=10)))

    def test_every_fold_makes_a_lift(self):
        # the only fold merges the a1-loop vertex with the a2-loop vertex
        g = LabeledGraph(2, 2, ((0, 0, 1), (1, 1, 2), (0, 1, 1)), base=0)
        assert makes_lift_by_simulation(_Quotient(g), 0, 1)
        assert self.assert_matches(g) == ([FoldRecord(kept=1, removed=3)], 1)

    def test_input_with_a_lift(self):
        g = wedge_of_loops(tup("a1 a2", "a1", "a2"))
        assert self.assert_matches(g)[1] == 0

    def test_local_test_matches_simulation_on_delta(self, rng):
        # on delta every available fold makes a lift, by both tests
        checked = 0
        for rank in (2, 3):
            for _ in range(15):
                g = wedge_of_loops(nielsen_basis_tuple(rng, rank, moves=10))
                if g.has_rose_lift():
                    continue
                delta = fold_to_delta(g).delta
                self.assert_matches(delta)
                q = _Quotient(delta)
                for v, letter in foldable(q):
                    assert makes_lift_by_simulation(q, v, letter)
                    assert _makes_lift(q, fold_at(q, v, letter))
                    checked += 1
        assert checked > 0

    def test_lift_free_check_tests_every_fold_on_delta(self, rng, monkeypatch):
        # fold_to_delta's last postcondition passes each fold available on
        # delta to the local lift test; the folds are listed here from
        # delta's edges: per vertex and letter, the two least tokens
        checked = []
        monkeypatch.setattr(
            folding, "_makes_lift", lambda q, r: checked.append((q.graph, r)) or _makes_lift(q, r)
        )
        seen = 0
        for rank in (2, 3):
            for _ in range(15):
                g = wedge_of_loops(nielsen_basis_tuple(rng, rank, moves=10))
                if g.has_rose_lift():
                    continue
                checked.clear()
                delta = fold_to_delta(g).delta
                leaving = {}
                for k, (src, dst, label) in enumerate(delta.edges, 1):
                    leaving.setdefault((src, label), []).append(k)
                    leaving.setdefault((dst, -label), []).append(-k)
                folds = {FoldRecord(*sorted(toks)[:2]) for toks in leaving.values() if len(toks) >= 2}
                on_delta = [r for graph, r in checked if graph is delta]
                assert sorted(on_delta, key=repr) == sorted(folds, key=repr)
                seen += len(folds)
        assert seen > 0

    def test_fold_to_delta_matches_oracle_trace(self, rng):
        for rank in (2, 3):
            for _ in range(15):
                g = wedge_of_loops(nielsen_basis_tuple(rng, rank, moves=10))
                records, first_lift = oracle_fold(g, "defer_rose")
                try:
                    ext = fold_to_delta(g)
                except ValueError:
                    assert g.has_rose_lift() and not records
                    continue
                index = len(records) - 1 if first_lift == 0 else first_lift - 1
                q = _Quotient(g)
                for record in records[:index]:
                    q.fold(record.kept, record.removed)
                assert list(ext.trace.records) == records
                assert ext.degenerate == (first_lift == 0)
                assert ext.delta_stage_index == index
                assert ext.delta == q.materialize()[0]


class TestFoldToDelta:
    def test_degenerate_boundary(self):
        # the wedge already carries loops for both generators at the base,
        # so there is no pre-lift stage; the stage before the final fold
        # is returned and flagged
        ext = fold_to_delta(wedge_of_loops(tup("a1 a2", "a1", "a2")))
        assert ext.degenerate
        assert ext.delta_stage_index == ext.trace.num_folds - 1

    def test_rose_input_rejected(self):
        with pytest.raises(ValueError):
            fold_to_delta(rose(2))

    def test_non_generating_rejected(self):
        with pytest.raises(ValueError):
            fold_to_delta(wedge_of_loops(tup("a1")))

    def test_postconditions_on_random_bases(self, rng):
        found_nondegenerate = 0
        for _ in range(25):
            t = nielsen_basis_tuple(rng, 2, moves=8)
            g = wedge_of_loops(t)
            try:
                ext = fold_to_delta(g)
            except ValueError:
                # the random moves cancelled back to the rose itself
                assert g.has_rose_lift()
                continue
            assert len(ext.psi.edge_ids) <= 2 + 2
            assert is_rose(fold_all(ext.psi.graph).terminal)
            if not ext.degenerate:
                found_nondegenerate += 1
                assert not ext.delta.has_rose_lift()
                assert betti(ext.delta) <= 3
        assert found_nondegenerate > 0

    def test_degenerate_witness_takes_the_least_loops(self):
        # the base carries a1 loops 0 and 1 and the a2 loop 2
        ext = fold_to_delta(wedge_of_loops(tup("a1", "a1", "a2")))
        assert ext.degenerate and ext.psi.edge_ids == (0, 2)

    def test_degenerate_delta_without_a_lift_raises(self, monkeypatch):
        # a check, not an assert: ``python -O`` keeps it
        loops = LabeledGraph.rose_lift_loops
        monkeypatch.setattr(LabeledGraph, "has_rose_lift", lambda g: loops(g) is not None)
        monkeypatch.setattr(LabeledGraph, "rose_lift_loops", lambda g: None)
        with pytest.raises(RuntimeError, match="no rose lift"):
            fold_to_delta(wedge_of_loops(tup("a1 a2", "a1", "a2")))

    def test_pruning_drops_an_edge(self, monkeypatch):
        # the fold pair and the lift's loops are four edges; the three
        # left once edge 1 goes still fold onto the rose
        prune, given = folding._prune_psi, []
        monkeypatch.setattr(folding, "_prune_psi", lambda delta, ids: given.append(list(ids)) or prune(delta, ids))
        ext = fold_to_delta(wedge_of_loops(tup("a1 a2", "a1 a2^-1", "a2^-1")))
        assert not ext.degenerate and given == [[0, 1, 2, 3]]
        assert ext.psi.edge_ids == (0, 2, 3)

    def test_witness_of_rank_plus_two_edges(self):
        # no edge of the fold pair and the lift's loops can go, so the
        # witness has rank + 2 edges, the most it may have
        ext = fold_to_delta(wedge_of_loops(tup("a2^-1 a1 a2", "a2^-1 a2^-1 a1^-1", "a2^-1 a1^-1")))
        assert not ext.degenerate and ext.psi.edge_ids == (0, 1, 2, 3)

    @pytest.mark.parametrize(
        "bad_subset,message",
        [
            (range(7), "exceeds rank\\+2 edges"),
            ((0, 4), "not connected"),  # the edges 0 -> 1 and 2 -> 3
            ((0,), "does not fold onto the rose"),
        ],
    )
    def test_witness_postconditions_raise(self, monkeypatch, bad_subset, message):
        # checks, not asserts: ``python -O`` keeps them
        g = wedge_of_loops(tup("a1 a2 a2", "a2", "a1 a2^-1 a1 a2^-1 a1"))
        ext = fold_to_delta(g)
        assert not ext.degenerate and ext.psi.edge_ids == (0, 1, 2)
        assert ext.delta.edges[:5:4] == ((0, 1, 1), (2, 3, 1)) and ext.delta.num_edges == 7
        monkeypatch.setattr(folding, "_prune_psi", lambda delta, ids: list(bad_subset))
        with pytest.raises(RuntimeError, match=message):
            fold_to_delta(g)


class TestInjectiveArcs:
    """The surgery's arc search: runs of path edges traversed exactly once."""

    def test_simple_path_is_one_arc(self):
        g = LabeledGraph(2, 3, ((0, 1, 1), (1, 2, 2)))
        path = EdgePath(g, (1, 2), 0)
        assert _arc_runs(g, [path], ()) == [(0, 0, 2)]

    def test_doubled_loop_excluded(self):
        g = rose(1, base=None)
        path = EdgePath(g, (1, 1), 0)
        assert _arc_runs(g, [path], ()) == []

    def test_figure_eight_partial(self):
        g = rose(2, base=None)
        path = EdgePath(g, (1, 2, 1), 0)
        runs = _arc_runs(g, [path], ())
        assert runs == [(0, 1, 1)]
        assert abs(token_letter(g, path.tokens[1])) == 2


class TestReplaceArc:
    def chain(self) -> LabeledGraph:
        # loop at 0, then a chain 0 -> 1 -> 2 with a loop at 2
        return LabeledGraph(
            2, 3, ((0, 0, 1), (0, 1, 1), (1, 2, 2), (2, 2, 1)), base=0
        )

    def test_shorten_chain(self):
        g = self.chain()
        out = replace_arc(g, (2, 3), w("a1"))
        assert out.num_edges == 3 and out.num_vertices == 2

    def test_identity_surgery(self):
        g = self.chain()
        out = replace_arc(g, (2, 3), w("a1 a2"))
        assert isomorphic_labeled(out, g)

    def test_empty_replacement_identifies_endpoints(self):
        g = self.chain()
        out = replace_arc(g, (2, 3), Word(2, ()))
        assert out.num_vertices == 1 and out.num_edges == 2

    def test_empty_replacement_of_a_loop_deletes_it(self):
        g = self.chain()
        out = replace_arc(g, (4,), Word(2, ()))
        assert out == LabeledGraph(2, 3, g.edges[:3], base=0)

    def test_base_in_interior_rejected(self):
        # 2-cycle based at 0: the arc 1 -> 0 -> 1 has the base inside
        g = LabeledGraph(2, 2, ((0, 1, 1), (1, 0, 2)), base=0)
        with pytest.raises(ValueError, match="base vertex"):
            replace_arc(g, (2, 1), w("a2"))

    @pytest.mark.parametrize("tokens, message", [
        ((), "empty arc"),
        ((2, 4), "do not concatenate"),
        ((2, -2), "repeats a topological edge"),
        ((1, 2), "degree != 2"),
    ])
    def test_malformed_arc_rejected(self, tokens, message):
        with pytest.raises(ValueError, match=message):
            replace_arc(self.chain(), tokens, w("a1"))

    def test_string_level_oracle(self, rng):
        # replacing the arc of a petal matches string surgery on its word
        for _ in range(10):
            u = random_cyclically_reduced(rng, 2, 20)
            body = u.letters[:12]
            head = random_reduced_letters(rng, 2, 4)
            tail = random_reduced_letters(rng, 2, 4)
            letters = head + body + tail
            if any(a == -b for a, b in zip(letters, letters[1:])):
                continue
            word = Word(2, letters)
            t = GenTuple(2, (word,))
            g = wedge_of_loops(t)
            tokens = tuple(range(4 + 1, 4 + 1 + 12))
            repl = Word(2, tuple(-l for l in reversed(u.letters[12:])))
            out = replace_arc(g, tokens, repl)
            # folding absorbs the junction backtracks but can leave spur
            # tips behind, so compare based cores
            rebuilt_t = fold_all(out).terminal
            rebuilt = core(rebuilt_t, relative_to=rebuilt_t.base)
            expected_word = free_reduce(2, head + repl.letters + tail)
            expected_t = fold_all(
                wedge_of_loops(GenTuple(2, (expected_word,)))
            ).terminal
            expected = core(expected_t, relative_to=expected_t.base)
            assert isomorphic_labeled(rebuilt, expected)

import random

import pytest

from conftest import random_cyclically_reduced, random_graph, rose
from test_graphs import branching_star, oracle_canonical_key
from rosefold.folding import (
    FoldRecord,
    _Engine,
    fold_all,
    fold_to_delta,
    petal_paths,
    replace_arc,
    wedge_of_loops,
)
from rosefold.graphs import (
    EdgePath,
    LabeledGraph,
    betti,
    is_connected,
    is_rose,
    isomorphic_labeled,
    make_arc,
)
from rosefold.surgery import _arc_runs
from rosefold.words import (
    GenTuple,
    Word,
    apply_nielsen,
    format_word,
    free_reduce,
    letter_key,
    parse_word,
    random_nielsen_moves,
    random_reduced_letters,
    standard_tuple,
)


def w(text: str, rank: int = 2) -> Word:
    return parse_word(text, rank)


def path_letters(path: EdgePath) -> tuple[int, ...]:
    return tuple(path.graph.letter(tok) for tok in path.tokens)


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
            assert path.start == 0 and path.end == 0


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
        for _ in range(6):
            t = nielsen_basis_tuple(rng, 2, moves=10)
            trace = fold_all(wedge_of_loops(t), policy=policy)
            replayed = [trace.stage(k) for k in range(len(trace.records) + 1)]
            streamed = list(trace.stages())
            assert len(streamed) == len(replayed)
            for a, b in zip(streamed, replayed):
                assert a.graph == b.graph
                assert a.vertex_map == b.vertex_map
                assert a.edge_map == b.edge_map

    def test_push_path_preserves_labels(self, rng):
        t = nielsen_basis_tuple(rng, 2, moves=8)
        g = wedge_of_loops(t)
        trace = fold_all(g)
        for path in petal_paths(t, g):
            for k in (0, len(trace.records) // 2, len(trace.records)):
                image = trace.push_path(path, k)
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
    """``FoldTrace.stage_keys`` (stages read off the fold engine, label
    groups cached per root) against the copying encoder on every
    materialized ``stage(k)``."""

    POLICIES = ("least", "greatest", "defer_rose")

    def assert_keys_match(self, g: LabeledGraph) -> None:
        for policy in self.POLICIES:
            trace = fold_all(g, policy=policy)
            keys = list(trace.stage_keys())
            assert len(keys) == len(trace.records) + 1
            for k, key in enumerate(keys):
                assert key == oracle_canonical_key(trace.stage(k).graph), (policy, k)

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

    def test_unbased_graphs_materialize(self, rng):
        # without a base the keys come from the materialized stages
        checked = 0
        while checked < 10:
            g = random_graph(rng, max_v=6, max_e=9)
            if not is_connected(g):
                continue
            checked += 1
            self.assert_keys_match(g)


def clone_engine(engine: _Engine) -> _Engine:
    other = _Engine.__new__(_Engine)
    other.graph = engine.graph
    other.parent = list(engine.parent)
    other.cls_min = list(engine.cls_min)
    other.size = list(engine.size)
    other.alive = list(engine.alive)
    other.adj = [{letter: set(toks) for letter, toks in bucket.items()} for bucket in engine.adj]
    return other


def engine_roots(engine: _Engine) -> list[int]:
    return [v for v in range(engine.graph.num_vertices) if engine.find(v) == v]


def engine_has_rose_lift(engine: _Engine) -> bool:
    for root in engine_roots(engine):
        gens = {
            letter
            for letter, toks in engine.adj[root].items()
            if letter > 0 and any(engine.head(tok) == root for tok in toks)
        }
        if len(gens) == engine.graph.rank:
            return True
    return False


def makes_lift_by_simulation(engine: _Engine, root: int, letter: int) -> bool:
    probe = clone_engine(engine)
    probe.apply_record(probe.pair(root, letter))
    return engine_has_rose_lift(probe)


def oracle_fold_deferring(g: LabeledGraph) -> tuple[list[FoldRecord], int | None]:
    """The lift-deferring policy by clone-and-simulate: sort every
    candidate after each fold and fold a copy of the engine to test it."""
    engine = _Engine(g)
    records: list[FoldRecord] = []
    first_lift: int | None = 0 if engine_has_rose_lift(engine) else None
    while True:
        candidates = sorted(
            ((engine.cls_min[root], letter_key(letter)), root, letter)
            for root in engine_roots(engine)
            for letter in engine.foldable_letters(root)
        )
        if not candidates:
            return records, first_lift
        pick = candidates[0][1:]
        if first_lift is None:
            pick = next(
                (c[1:] for c in candidates if not makes_lift_by_simulation(engine, *c[1:])),
                pick,
            )
        record = engine.pair(*pick)
        engine.apply_record(record)
        records.append(record)
        if first_lift is None and engine_has_rose_lift(engine):
            first_lift = len(records)


class TestDeferRoseOracle:
    """``fold_all(g, "defer_rose")`` tests candidates with the local lift
    test in the heap loop; the oracle sorts and simulates every fold."""

    def assert_matches(self, g: LabeledGraph) -> tuple[list[FoldRecord], int | None]:
        records, first_lift = oracle_fold_deferring(g)
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
        assert makes_lift_by_simulation(_Engine(g), 0, 1)
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
                engine = _Engine(delta)
                for v in range(delta.num_vertices):
                    for letter in engine.foldable_letters(v):
                        assert makes_lift_by_simulation(engine, v, letter)
                        assert engine.makes_lift(engine.pair(v, letter))
                        checked += 1
        assert checked > 0

    def test_fold_to_delta_matches_oracle_trace(self, rng):
        for rank in (2, 3):
            for _ in range(15):
                g = wedge_of_loops(nielsen_basis_tuple(rng, rank, moves=10))
                records, first_lift = oracle_fold_deferring(g)
                try:
                    ext = fold_to_delta(g)
                except ValueError:
                    assert g.has_rose_lift() and not records
                    continue
                index = len(records) - 1 if first_lift == 0 else first_lift - 1
                engine = _Engine(g)
                for record in records[:index]:
                    engine.apply_record(record)
                assert list(ext.trace.records) == records
                assert ext.degenerate == (first_lift == 0)
                assert ext.delta_stage_index == index
                assert ext.delta == engine.materialize()[0]


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
        assert abs(g.letter(path.tokens[1])) == 2


class TestReplaceArc:
    def chain(self) -> LabeledGraph:
        # loop at 0, then a chain 0 -> 1 -> 2 with a loop at 2
        return LabeledGraph(
            2, 3, ((0, 0, 1), (0, 1, 1), (1, 2, 2), (2, 2, 1)), base=0
        )

    def test_shorten_chain(self):
        g = self.chain()
        arc = make_arc(g, (2, 3))
        out = replace_arc(g, arc, w("a1"))
        assert out.num_edges == 3 and out.num_vertices == 2

    def test_identity_surgery(self):
        g = self.chain()
        arc = make_arc(g, (2, 3))
        out = replace_arc(g, arc, w("a1 a2"))
        assert isomorphic_labeled(out, g)

    def test_empty_replacement_identifies_endpoints(self):
        g = self.chain()
        arc = make_arc(g, (2, 3))
        out = replace_arc(g, arc, Word(2, ()))
        assert out.num_vertices == 1 and out.num_edges == 2

    def test_base_in_interior_rejected(self):
        # 2-cycle based at 0: the arc 1 -> 0 -> 1 has the base inside
        g = LabeledGraph(2, 2, ((0, 1, 1), (1, 0, 2)), base=0)
        arc = make_arc(g, (2, 1))
        with pytest.raises(ValueError):
            replace_arc(g, arc, w("a2"))

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
            arc = make_arc(g, tokens)
            repl = Word(2, tuple(-l for l in reversed(u.letters[12:])))
            out = replace_arc(g, arc, repl)
            # folding absorbs the junction backtracks but can leave spur
            # tips behind, so compare based cores
            from rosefold.graphs import core

            rebuilt_t = fold_all(out).terminal
            rebuilt = core(rebuilt_t, relative_to=rebuilt_t.base)
            expected_word = free_reduce(2, head + repl.letters + tail)
            expected_t = fold_all(
                wedge_of_loops(GenTuple(2, (expected_word,)))
            ).terminal
            expected = core(expected_t, relative_to=expected_t.base)
            assert isomorphic_labeled(rebuilt, expected)

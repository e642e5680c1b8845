import pytest

from rosefold.complexity import UWordIndex
from rosefold.folding import fold_all, wedge_of_loops
from rosefold.graphs import is_rose
from rosefold.surgery import SurgeryError, build_instance, run_surgery, surgery_demo
from rosefold.words import GenTuple, parse_word


class TestInstanceBuilder:
    def test_instance_generates(self):
        relators, t = build_instance(2, 40, seed=3)
        assert len(relators) == 2
        assert all(len(r) == 40 for r in relators)
        assert is_rose(fold_all(wedge_of_loops(t)).terminal)

    def test_first_entry_carries_relator_material(self):
        relators, t = build_instance(2, 40, seed=3)
        idx = UWordIndex(relators)
        maxstart = idx.max_factor_starting(t.entries[0])
        assert max(maxstart) >= 0.9 * 40


class TestPipeline:
    def test_demo_end_to_end(self):
        report = surgery_demo(rank=2, relator_length=40, seed=7)
        assert report.refolds_to_rose
        assert report.delta_after_refolds
        assert report.strictly_smaller
        assert report.psi_edges <= 4
        assert report.delta_betti <= 3

    def test_demo_deterministic(self):
        a = surgery_demo(rank=2, relator_length=40, seed=7)
        b = surgery_demo(rank=2, relator_length=40, seed=7)
        assert a.tuple_after == b.tuple_after
        assert a.pattern == b.pattern

    def test_several_seeds(self):
        for seed in (1, 2, 11, 23):
            report = surgery_demo(rank=2, relator_length=40, seed=seed)
            assert report.refolds_to_rose and report.strictly_smaller

    def test_rank_three(self):
        report = surgery_demo(rank=3, relator_length=36, seed=5)
        assert report.refolds_to_rose and report.strictly_smaller
        assert report.psi_edges <= 5

    def test_tuple_stays_generating(self):
        report = surgery_demo(rank=2, relator_length=40, seed=9)
        t = GenTuple(
            2, tuple(parse_word(s, 2) for s in report.tuple_after)
        )
        assert is_rose(fold_all(wedge_of_loops(t)).terminal)

    def test_arc_without_certificate_raises_at_once(self, monkeypatch):
        # a fault of the tables, not a failed instance: surgery_demo does
        # not retry past it as it does past a SurgeryError
        monkeypatch.setattr(UWordIndex, "is_u_word", lambda self, z: None)
        relators, t = build_instance(2, 40, seed=7)
        with pytest.raises(RuntimeError, match="no certificate") as err:
            run_surgery(relators, t)
        assert not isinstance(err.value, SurgeryError)
        with pytest.raises(RuntimeError, match="no certificate"):
            surgery_demo(rank=2, relator_length=40, seed=7)

    def test_relators_must_cover_alphabet(self):
        relators = [parse_word("a1 a1 a1", 2)]
        t = GenTuple(2, (parse_word("a1 a2", 2), parse_word("a2", 2)))
        with pytest.raises(SurgeryError):
            run_surgery(relators, t)

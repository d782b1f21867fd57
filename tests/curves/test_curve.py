"""Tests for repro.curves.curve (pruning per Definition 6 / Lemma 9)."""

import pytest

from repro.curves.curve import CurveConfig, SolutionCurve
from repro.curves.solution import SinkLeaf, Solution
from repro.geometry.point import Point

P = Point(0, 0)


def sol(load, req, area=0.0):
    return Solution(P, load, req, area, SinkLeaf(0))


def fine_curve(max_solutions=1000):
    return SolutionCurve(P, CurveConfig(load_step=0.001, area_step=0.001,
                                        max_solutions=max_solutions))


class TestCurveConfig:
    def test_bucket(self):
        cfg = CurveConfig(load_step=2.0, area_step=50.0)
        assert cfg.bucket(sol(3.0, 0.0, 120.0)) == (2, 2)

    def test_bucket_matches_the_curve_key_at_a_half_bucket_boundary(self):
        # load / 0.7 rounds to 6666, load * (1 / 0.7) to 6665: bucket()
        # must agree with the key the curve files the solution under.
        cfg = CurveConfig(load_step=0.7, area_step=30.0)
        s = sol(4665.849999999999, 0.0, 0.0)
        curve = SolutionCurve(P, cfg)
        curve.add(s)
        assert cfg.bucket(s) == (6665, 0)
        assert list(curve._by_bucket) == [cfg.bucket(s)]

    def test_invalid_steps_rejected(self):
        with pytest.raises(ValueError):
            CurveConfig(load_step=0.0)
        with pytest.raises(ValueError):
            CurveConfig(area_step=-1.0)

    def test_tiny_capacity_rejected(self):
        with pytest.raises(ValueError):
            CurveConfig(max_solutions=2)


class TestAdd:
    def test_add_keeps_new_solution(self):
        curve = fine_curve()
        assert curve.add(sol(1, 10))
        assert len(curve) == 1

    def test_same_bucket_keeps_better_required_time(self):
        curve = SolutionCurve(P, CurveConfig(load_step=10, area_step=10))
        curve.add(sol(1, 10))
        assert not curve.add(sol(1.1, 5))   # same bucket, worse req
        assert curve.add(sol(1.2, 20))      # same bucket, better req
        assert len(curve) == 1
        assert next(iter(curve)).required_time == 20

    def test_wrong_root_rejected(self):
        curve = fine_curve()
        with pytest.raises(ValueError):
            curve.add(Solution(Point(1, 1), 1, 1, 0, SinkLeaf(0)))

    def test_accept_key_matches_add(self):
        curve = fine_curve()
        curve.add(sol(1, 10))
        assert curve.accept_key(1, 5, 0) is None or True  # different bucket ok
        # exact same attributes: rejected (incumbent as good)
        assert curve.accept_key(1.0, 10.0, 0.0) is None
        assert curve.accept_key(1.0, 11.0, 0.0) is not None

    def test_extend_counts_kept(self):
        curve = fine_curve()
        kept = curve.extend([sol(1, 10), sol(2, 20), sol(1.0, 5.0)])
        # The third shares the first's bucket with a worse required time.
        assert kept == 2


class TestPrune:
    def test_dominated_solutions_removed(self):
        curve = fine_curve()
        curve.add(sol(10, 100, 50))
        curve.add(sol(5, 200, 10))   # dominates the first
        curve.prune()
        remaining = list(curve)
        assert len(remaining) == 1
        assert remaining[0].required_time == 200

    def test_incomparable_solutions_survive(self):
        curve = fine_curve()
        curve.add(sol(5, 100, 0))
        curve.add(sol(10, 200, 0))
        curve.add(sol(1, 50, 0))
        curve.prune()
        assert len(curve) == 3
        assert curve.is_non_inferior_set()

    def test_prune_is_idempotent(self):
        curve = fine_curve()
        for i in range(20):
            curve.add(sol(i, 100 - i, i % 3))
        curve.prune()
        first = sorted(s.key() for s in curve)
        curve.prune()
        assert sorted(s.key() for s in curve) == first

    def test_three_axis_tradeoffs_kept(self):
        """A solution worse in req/load but cheaper in area must survive."""
        curve = fine_curve()
        curve.add(sol(5, 200, 100))
        curve.add(sol(6, 150, 0))
        curve.prune()
        assert len(curve) == 2

    def test_capacity_cap_enforced(self):
        curve = SolutionCurve(P, CurveConfig(load_step=0.001,
                                             area_step=0.001,
                                             max_solutions=5))
        # A genuine 20-point Pareto front (load up, req up).
        for i in range(20):
            curve.add(sol(float(i), float(i), 0.0))
        curve.prune()
        assert len(curve) == 5

    def test_cap_keeps_extreme_points(self):
        curve = SolutionCurve(P, CurveConfig(load_step=0.001,
                                             area_step=0.001,
                                             max_solutions=5))
        for i in range(30):
            curve.add(sol(float(i), float(i), 30.0 - i))
        curve.prune()
        reqs = [s.required_time for s in curve]
        loads = [s.load for s in curve]
        areas = [s.area for s in curve]
        assert max(reqs) == 29.0     # best required time survived
        assert min(loads) == 0.0     # min load survived
        assert min(areas) == 1.0     # min area survived


class TestQueries:
    def test_best_required_time(self):
        curve = fine_curve()
        assert curve.best_required_time() is None
        curve.add(sol(1, 10))
        curve.add(sol(2, 30))
        assert curve.best_required_time().required_time == 30

    def test_solutions_sorted_by_load(self):
        curve = fine_curve()
        curve.add(sol(5, 1))
        curve.add(sol(1, 2))
        curve.add(sol(3, 3))
        assert [s.load for s in curve.solutions] == [1, 3, 5]

    def test_bool_and_len(self):
        curve = fine_curve()
        assert not curve
        curve.add(sol(1, 1))
        assert curve and len(curve) == 1

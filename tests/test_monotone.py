"""Radial monotonicity definitions, their equivalence, cones, left-of."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capunfold.forest import build_forest, choose_origin
from capunfold.generate import generate_budget_cap
from capunfold.monotone import (
    circle_crossing_oracle,
    is_radially_monotone,
    is_simple,
    left_of,
)
from lemmas import angle_monotone_implies_rm, cone_of, distances_nondecreasing

DEG = math.pi / 180


def random_chain(rng, k, step_spread):
    """Chain with edge directions drifting inside a bounded spread."""
    base = rng.uniform(0, 2 * math.pi)
    angs = base + rng.uniform(-step_spread / 2, step_spread / 2, size=k)
    steps = np.column_stack([np.cos(angs), np.sin(angs)]) * rng.uniform(
        0.2, 1.0, size=(k, 1)
    )
    return np.vstack([[0, 0], np.cumsum(steps, axis=0)])


class TestIsRadiallyMonotone:
    def test_straight_chain(self):
        pts = [[0, 0], [1, 0], [2, 0], [3.5, 0]]
        assert is_radially_monotone(pts) == (True, None)

    def test_staircase(self):
        pts = [[0, 0], [1, 0], [1, 1], [2, 1], [2, 2]]
        assert is_radially_monotone(pts) == (True, None)

    def test_double_back(self):
        pts = [[0, 0], [2, 0], [2, 1], [0.2, 1]]
        ok, witness = is_radially_monotone(pts)
        assert not ok
        j, i = witness
        assert j < i

    def test_nonsimple_rejected(self):
        pts = [[0, 0], [2, 0], [1, 1], [1, -1]]
        with pytest.raises(ValueError):
            is_radially_monotone(pts)

    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError):
            is_radially_monotone([[0, 0], [0, 0], [1, 0]])


class TestCircleOracle:
    def test_straight_chain_any_source(self):
        pts = np.array([[1.0, 0], [2, 0], [3, 0]])
        assert circle_crossing_oracle(pts, source=[0, 0])

    def test_double_back_detected(self):
        pts = np.array([[0.0, 0], [2, 0], [2, 1], [0.2, 1]])
        assert not circle_crossing_oracle(pts, source=[0, 0])

    def test_definition_equivalence_random(self):
        # Definition (angle form) agrees with the circle-count oracle on a
        # large randomized family covering both verdicts.
        rng = np.random.default_rng(42)
        agree = 0
        total = 0
        while total < 2000:
            k = int(rng.integers(2, 8))
            spread = rng.uniform(0.2, 2.4)
            pts = random_chain(rng, k, spread)
            if not is_simple(pts):
                continue
            total += 1
            verdict3, _ = is_radially_monotone(pts)
            oracle = all(
                circle_crossing_oracle(pts[j:], source=pts[j])
                for j in range(len(pts) - 1)
            )
            assert verdict3 == oracle, (pts, verdict3, oracle)
            agree += 1
        assert agree == total


class TestDistancesDefinition:
    def test_monotone_implies_sampled_distances_nondecreasing(self):
        # one-sided: sampling at vertices and midpoints can miss a tiny
        # interior dip, so only the forward implication is claimed
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(300):
            pts = random_chain(rng, int(rng.integers(2, 7)), rng.uniform(0.2, 2.2))
            if not is_simple(pts):
                continue
            ok, _ = is_radially_monotone(pts)
            if not ok:
                continue
            checked += 1
            assert all(
                distances_nondecreasing(pts[j:], pts[j])
                for j in range(len(pts) - 1)
            )
        assert checked > 50


class TestImplication:
    def test_staircase_87(self):
        # long staircase with direction spread 87deg
        rng = np.random.default_rng(0)
        steps = []
        for i in range(12):
            ang = 0.0 if i % 2 == 0 else 87 * DEG
            steps.append([math.cos(ang), math.sin(ang)])
        pts = np.vstack([[0, 0], np.cumsum(steps, axis=0)])
        assert angle_monotone_implies_rm(pts, theta=87 * DEG)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_random_theta_monotone_chains(self, seed):
        rng = np.random.default_rng(seed)
        theta = rng.uniform(5 * DEG, 90 * DEG)
        pts = random_chain(rng, int(rng.integers(2, 9)), theta)
        assert angle_monotone_implies_rm(pts, theta=theta)

    def test_forest_paths(self):
        cap = generate_budget_cap(120, seed=6)
        qs = choose_origin(cap)
        forest = build_forest(cap, qs)
        P = cap.vertices[:, :2]
        for leaf in forest.leaves():
            path = forest.path_to_root(leaf)
            assert angle_monotone_implies_rm(P[path], theta=qs.theta)

    def test_large_theta_rejected(self):
        with pytest.raises(ValueError):
            angle_monotone_implies_rm([[0, 0], [1, 0]], theta=120 * DEG)


class TestConeOf:
    def test_single_edge(self):
        c = cone_of([[0, 0], [1, 1]])
        assert c.measure == 0.0
        assert c.sigma_min == pytest.approx(math.pi / 4)

    def test_staircase(self):
        pts = [[0, 0], [1, 0], [1, 1], [2, 1], [2, 2]]
        assert cone_of(pts).measure == pytest.approx(math.pi / 2)

    def test_forest_paths_within_theta(self):
        cap = generate_budget_cap(90, seed=8)
        qs = choose_origin(cap)
        forest = build_forest(cap, qs)
        P = cap.vertices[:, :2]
        for leaf in forest.leaves():
            path = forest.path_to_root(leaf)
            if len(path) >= 2:
                assert cone_of(P[path]).measure <= qs.theta + 1e-9 < math.pi / 2


class TestLeftOf:
    def test_reflexive(self):
        pts = [[0, 0], [1, 0], [1, 1], [2, 1]]
        assert left_of(pts, pts) == (True, None)

    def test_rotated_ray(self):
        ray = np.array([[0, 0], [2, 0]])
        rot = 10 * DEG
        R = np.array([[math.cos(rot), -math.sin(rot)],
                      [math.sin(rot), math.cos(rot)]])
        assert left_of(ray @ R.T, ray) == (True, None)
        ok, r = left_of(ray, ray @ R.T)
        # arc from A-chain to B-chain is now clockwise: still < pi ccw? no:
        # ccw arc from (rotated) to (base) is 350deg -> violation
        assert not ok and r is not None

    def test_requires_common_source(self):
        with pytest.raises(ValueError):
            left_of([[0, 0], [1, 0]], [[0.5, 0], [1, 0.5]])

    def test_requires_monotone(self):
        bad = [[0, 0], [2, 0], [2, 1], [0.2, 1]]
        with pytest.raises(ValueError):
            left_of(bad, [[0, 0], [1, 0]])

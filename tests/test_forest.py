"""Quadrant system, origin choice, path growth, spanning forest."""

import math

import numpy as np
import pytest

from capunfold.forest import (
    ForestError,
    QuadrantSystem,
    SpanningForest,
    build_forest,
    choose_origin,
    gap_is_empty,
    grow_path,
    verify_angle_monotone,
    verify_forest,
)
from capunfold.generate import generate_budget_cap, generate_cap
from capunfold.mesh import compute_metrics
from fixtures import DEG, forest_reference, oracle_set, pentagonal_pyramid


class TestQuadrantSystem:
    def test_angles_partition(self):
        qs = QuadrantSystem(origin=0, theta=87 * DEG, gap_direction=1.0)
        assert qs.gap_angle / DEG == pytest.approx(12.0)
        # every direction lands in exactly one quadrant or the gap
        i = qs.quadrant_of(np.linspace(0, 2 * math.pi, 720, endpoint=False))
        assert ((-1 <= i) & (i <= 3)).all()

    def test_array_directions_match_scalar_calls(self):
        # the array kernel against the scalar float rule, direction by
        # direction, also within an ulp of every axis
        qs = QuadrantSystem(origin=0, theta=86 * DEG, gap_direction=2.2)
        axes = [qs.base + i * qs.theta + d for i in range(5) for d in (-1e-15, 0.0, 1e-15)]
        ang = np.concatenate([np.linspace(-7, 7, 2001), axes])
        got = qs.quadrant_of(ang)
        want = [int((a - qs.base) % (2 * math.pi) // qs.theta)
                for a in ang.tolist()]
        assert got.tolist() == [i if i < 4 else -1 for i in want]

    def test_gap_complements_quadrants(self):
        qs = QuadrantSystem(origin=0, theta=80 * DEG, gap_direction=0.3)
        widths = 4 * qs.theta + qs.gap_angle
        assert widths == pytest.approx(2 * math.pi)

    def test_quadrant_wedges_tile(self):
        qs = QuadrantSystem(origin=0, theta=85 * DEG, gap_direction=-0.7)
        for i in range(3):
            end = qs.quadrant(i).base + qs.quadrant(i).width
            assert end == pytest.approx(qs.quadrant(i + 1).base)


class TestVerifyAngleMonotone:
    def test_single_edge(self):
        beta = verify_angle_monotone([[0, 0], [1, 0.5]], theta=1e-12)
        assert beta == pytest.approx(math.atan2(0.5, 1))

    def test_staircase_90(self):
        pts = [[0, 0], [1, 0], [1, 1], [2, 1], [2, 2]]
        beta = verify_angle_monotone(pts, theta=math.pi / 2)
        assert beta == pytest.approx(0.0, abs=1e-12)

    def test_spread_91_fails_at_90(self):
        pts = [[0, 0], [1, 0], [1 + math.cos(91 * DEG), math.sin(91 * DEG)]]
        assert verify_angle_monotone(pts, theta=math.pi / 2) is None
        assert verify_angle_monotone(pts, theta=91.0001 * DEG) is not None

    def test_wraparound_directions(self):
        # edges around the -pi/pi seam must still certify
        pts = [[0, 0], [-1, 0.05], [-2, -0.05]]
        assert verify_angle_monotone(pts, theta=10 * DEG) is not None


class TestChooseOrigin:
    def test_pyramid_single_interior(self):
        cap = pentagonal_pyramid()
        qs = choose_origin(cap)
        assert qs.origin == 5
        assert gap_is_empty(cap, qs)

    @pytest.mark.parametrize("mode", ["closest_to_boundary", "central"])
    def test_random_caps_gap_empty(self, mode):
        for seed in range(5):
            cap = generate_budget_cap(60, seed=seed)
            qs = choose_origin(cap, mode=mode)
            assert gap_is_empty(cap, qs)
            assert 0 < qs.theta <= math.pi / 2

    def test_modes_pick_different_vertices(self):
        cap = generate_budget_cap(150, seed=2)
        near = choose_origin(cap, mode="closest_to_boundary")
        mid = choose_origin(cap, mode="central")
        P = cap.vertices[:, :2]
        r_near = np.linalg.norm(P[near.origin])
        r_mid = np.linalg.norm(P[mid.origin])
        assert r_mid <= r_near  # central origin sits at least as deep

    def test_given_theta_is_the_metrics_one(self):
        cap = generate_budget_cap(150, seed=1)
        theta = math.pi / 2 - compute_metrics(cap).alpha_planar
        for mode in ("closest_to_boundary", "central"):
            assert (choose_origin(cap, mode, theta=theta)
                    == choose_origin(cap, mode))

    def test_central_fallback_reuses_rim_distances(self, monkeypatch):
        from capunfold import forest as forest_mod

        # seen from the innermost vertex of a dense cap, no vertex-free
        # angular interval is wide enough for the gap cone, so central falls
        # back to the boundary-nearest vertex, from the same rim distances
        cap = generate_budget_cap(150, seed=2)
        P = cap.vertices[:, :2]
        dists, _ = forest_mod._rim_distances(P[cap.interior_vertices],
                                             P[cap.rim])
        innermost = int(cap.interior_vertices[np.argmax(dists)])
        calls = []
        rim_distances = forest_mod._rim_distances
        monkeypatch.setattr(forest_mod, "_rim_distances", lambda *a: (
            calls.append(1), rim_distances(*a))[1])
        qs = choose_origin(cap, mode="central")
        assert len(calls) == 1
        assert qs.origin != innermost
        assert qs == choose_origin(cap, mode="closest_to_boundary")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            choose_origin(pentagonal_pyramid(), mode="random")


class TestGrowPath:
    def test_pyramid_apex_reaches_rim_in_one_edge(self):
        cap = pentagonal_pyramid()
        qs = choose_origin(cap)
        path = grow_path(cap, set(), 5, qs.quadrant(0))
        assert len(path) == 2
        assert path[0] == 5
        assert path[1] in cap.rim_vertex_set

    def test_paths_certify(self):
        cap = generate_budget_cap(120, seed=4)
        qs = choose_origin(cap)
        forest = build_forest(cap, qs)
        P = cap.vertices[:, :2]
        for path in forest.leaf_paths:
            assert verify_angle_monotone(P[path], qs.theta) is not None

    def test_impossible_wedge_errors(self):
        cap = pentagonal_pyramid()
        from capunfold.geom import Wedge

        with pytest.raises(ForestError):
            # zero-width wedge aimed between edges: no admissible step
            grow_path(cap, set(), 5, Wedge(base=0.123, width=1e-9))


class TestBuildForest:
    def test_pyramid_single_edge_tree(self):
        cap = pentagonal_pyramid()
        qs = choose_origin(cap)
        forest = build_forest(cap, qs)
        assert forest.edges.tolist() == [[5, forest.parent[5]]]
        assert forest.parent[5] in cap.rim_vertex_set
        assert verify_forest(cap, forest) == []

    @pytest.mark.parametrize("seed", range(8))
    def test_random_caps_all_invariants(self, seed):
        cap = generate_budget_cap(20 + 23 * seed, seed=seed)
        qs = choose_origin(cap)
        forest = build_forest(cap, qs)
        assert verify_forest(cap, forest) == []
        # spanning + acyclic by explicit traversal
        assert set(forest.parent) == set(int(v) for v in cap.interior_vertices)
        for path in forest_reference(cap, forest.parent).paths:
            assert path[-1] in cap.rim_vertex_set

    def test_origin_is_leaf(self):
        for seed in range(5):
            cap = generate_budget_cap(90, seed=seed)
            qs = choose_origin(cap)
            forest = build_forest(cap, qs)
            assert qs.origin not in set(forest.parent.values())

    def test_deterministic(self):
        cap = generate_budget_cap(70, seed=9)
        qs = choose_origin(cap)
        a = build_forest(cap, qs)
        b = build_forest(cap, qs)
        assert a.parent == b.parent and a.roots == b.roots

    def test_tree_curvatures_sum_to_total(self):
        cap = generate_budget_cap(100, seed=3)
        forest = build_forest(cap, choose_origin(cap))
        total = sum(forest.tree_curvatures(cap))
        assert total == pytest.approx(compute_metrics(cap).omega_total, abs=1e-9)

    def test_steeper_cap_forest(self):
        cap = generate_cap(40, 33 * DEG, seed=5)
        qs = choose_origin(cap)
        forest = build_forest(cap, qs)
        assert verify_forest(cap, forest) == []


class TestForestTable:
    def test_matches_parent_walk_reference(self):
        for cap, forest in oracle_set():
            ref = forest_reference(cap, forest.parent)
            assert forest.edges.tolist() == [list(e) for e in ref.edges]
            assert forest.leaves.tolist() == ref.leaves
            assert [p.tolist() for p in forest.leaf_paths] == ref.paths
            child = forest.edges[:, 0]
            assert forest.root[child].tolist() == [ref.root[v] for v in child.tolist()]
            trees = np.split(child[forest.tree_order], forest.tree_starts[1:])
            assert [t.tolist() for t in trees] == ref.trees
            # the table's one arctan2 call gives each edge the same bits as
            # arctan2 over each path's steps
            assert forest.directions.tolist() == [ref.directions[v] for v in child.tolist()]

    @staticmethod
    def _rebuilt(cap, forest, parent):
        return SpanningForest(parent, forest.quadrant_of_vertex,
                              forest.system, cap)

    def test_cycle_no_leaf_reaches_is_rejected(self):
        cap = generate_budget_cap(200, seed=0)
        forest = build_forest(cap, choose_origin(cap, "central"))
        bad = dict(forest.parent)
        bad[0], bad[2] = 2, 0
        forest_reference(cap, bad)   # every leaf walk still ends on the rim
        with pytest.raises(ForestError, match="cycle through vertex 0"):
            self._rebuilt(cap, forest, bad)
        # the same links written into a built forest leave its table stale
        forest.parent.update(bad)
        assert verify_forest(cap, forest) == [
            "parent links changed after the forest table was built"]

    def test_cycle_on_a_leaf_path_is_rejected(self):
        cap = generate_budget_cap(200, seed=0)
        forest = build_forest(cap, choose_origin(cap, "central"))
        path = max(forest.leaf_paths, key=len).tolist()
        assert len(path) >= 5
        bad = dict(forest.parent)
        bad[path[3]] = path[2]
        with pytest.raises(ValueError, match="cycle through vertex"):
            forest_reference(cap, bad)
        with pytest.raises(ForestError,
                           match=f"cycle through vertex {min(path[2:4])}"):
            self._rebuilt(cap, forest, bad)

    def test_self_link_is_rejected(self):
        cap = generate_budget_cap(200, seed=0)
        forest = build_forest(cap, choose_origin(cap, "central"))
        bad = dict(forest.parent)
        v = int(forest.edges[len(bad) // 2, 0])
        bad[v] = v
        with pytest.raises(ForestError, match=f"cycle through vertex {v}"):
            self._rebuilt(cap, forest, bad)

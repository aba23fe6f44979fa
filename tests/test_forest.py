"""Quadrant system, origin choice, path growth, spanning forest."""

import dataclasses
import math

import numpy as np
import pytest

from capunfold import forest as forest_mod
from capunfold.forest import (
    ForestError,
    QuadrantSystem,
    SpanningForest,
    build_forest,
    choose_origin,
    gap_is_empty,
    verify_forest,
)
from capunfold.generate import generate_budget_cap, generate_cap
from capunfold.geom import Wedge
from capunfold.mesh import compute_metrics
from fixtures import (DEG, forest_growth_reference, forest_reference,
                      grow_path, large_net_cap, leaf_paths, oracle_set,
                      pentagonal_pyramid, quarter_turn)
from lemmas import verify_angle_monotone


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
        # seen from the innermost vertex of a dense cap, no vertex-free
        # angular interval is wide enough for the gap cone, so central falls
        # back to the boundary-nearest vertex, from the same rim distances
        cap = generate_budget_cap(150, seed=2)
        P = cap.vertices[:, :2]
        _, far, _ = forest_mod._rim_distances(P[cap.interior_vertices],
                                              P[cap.rim])
        innermost = int(cap.interior_vertices[far])
        calls = []
        rim_distances = forest_mod._rim_distances
        monkeypatch.setattr(forest_mod, "_rim_distances", lambda *a: (
            calls.append(1), rim_distances(*a))[1])
        qs = choose_origin(cap, mode="central")
        assert len(calls) == 1
        assert qs.origin != innermost
        assert qs == choose_origin(cap, mode="closest_to_boundary")

    def test_rim_distances_match_dense_reference(self):
        # the pruned kernel evaluates the pairs that can decide the nearest
        # and farthest point, with the arithmetic of a dense pass over all,
        # and aims q's gap cone with the bits of a segment-by-segment scan
        for cap, _ in oracle_set():
            P = cap.vertices[:, :2]
            pts, rim = P[cap.interior_vertices], P[cap.rim]
            got = forest_mod._rim_distances(pts, rim)
            assert got[:2] == rim_distances_reference(pts, rim)[:2]
            assert got == rim_scan_reference(pts, rim)

    def test_gap_direction_keeps_the_scan_bits(self):
        # elementwise arithmetic gives this cap's nearest vertex another
        # direction by 7.8e-16, which moves three faces to another strip
        cap = generate_budget_cap(200, seed=71)
        P = cap.vertices[:, :2]
        pts, rim = P[cap.interior_vertices], P[cap.rim]
        dense = rim_distances_reference(pts, rim)
        scan = rim_scan_reference(pts, rim)
        assert dense[:2] == scan[:2] and dense[2] != scan[2]
        assert forest_mod._rim_distances(pts, rim) == scan

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            choose_origin(pentagonal_pyramid(), mode="random")


def rim_distances_reference(pts, rim_pts):
    """Every point against every rim segment, elementwise: the index of the
    point nearest to the rim and of the farthest (first of ties), and the
    direction from the nearest toward the first of its nearest segments."""
    a = rim_pts[None, :, :]
    ab = np.roll(rim_pts, -1, axis=0)[None, :, :] - a
    p = pts[:, None, :]
    w = p - a
    t = np.clip((w[..., 0] * ab[..., 0] + w[..., 1] * ab[..., 1])
                / (ab[..., 0] * ab[..., 0] + ab[..., 1] * ab[..., 1]), 0.0, 1.0)
    delta = a + t[..., None] * ab - p
    d = np.sqrt(delta[..., 0] * delta[..., 0] + delta[..., 1] * delta[..., 1])
    seg = d.argmin(axis=1)
    best = d[np.arange(len(pts)), seg]
    near = int(best.argmin())
    dx, dy = delta[near, seg[near]]
    return near, int(best.argmax()), float(np.arctan2(dy, dx))


def rim_scan_reference(pts, rim_pts):
    """The rim segments one at a time, each against all points by a matvec,
    keeping a point's first nearest segment: the indices of the nearest and
    farthest point and the direction from the nearest toward the rim."""
    a = rim_pts
    ab = np.roll(rim_pts, -1, axis=0) - a
    denom = np.einsum("ij,ij->i", ab, ab)
    best_d = np.full(len(pts), np.inf)
    best_dir = np.zeros(len(pts))
    for j in range(len(a)):
        t = np.clip((pts - a[j]) @ ab[j] / denom[j], 0.0, 1.0)
        delta = a[j] + t[:, None] * ab[j] - pts
        d = np.linalg.norm(delta, axis=1)
        better = d < best_d
        best_d[better] = d[better]
        best_dir[better] = np.arctan2(delta[better, 1], delta[better, 0])
    near = int(np.argmin(best_d))
    return near, int(np.argmax(best_d)), float(best_dir[near])


class TestGrowPath:
    """The successor table against the neighbour-by-neighbour walk."""

    def test_pyramid_apex_reaches_rim_in_one_edge(self):
        cap = pentagonal_pyramid()
        qs = choose_origin(cap)
        nxt = forest_mod._successors(cap, qs, forest_mod._star_directions(cap))
        for i in range(4):
            path = grow_path(cap, set(), 5, qs.quadrant(i))
            assert len(path) == 2
            assert path == [5, nxt[i, 5]]
            assert path[1] in cap.rim_vertex_set

    def test_every_step_is_the_greedy_one(self):
        # a walk stopped after one step by a forest that holds every vertex
        for cap, forest in oracle_set()[::9]:
            qs = forest.system
            nxt = forest_mod._successors(cap, qs,
                                         forest_mod._star_directions(cap))
            everything = set(range(cap.n_vertices))
            for i in range(4):
                want = [grow_path(cap, everything, v, qs.quadrant(i))[1]
                        for v in cap.interior_vertices.tolist()]
                assert nxt[i, cap.interior_vertices].tolist() == want

    def test_paths_certify(self):
        cap = generate_budget_cap(120, seed=4)
        qs = choose_origin(cap)
        forest = build_forest(cap, qs)
        P = cap.vertices[:, :2]
        for path in leaf_paths(forest):
            assert verify_angle_monotone(P[path], qs.theta) is not None

    def test_impossible_wedge_errors(self):
        # a zero-width wedge aimed between the apex edges: no admissible step
        cap = pentagonal_pyramid()
        qs = ZeroWidth(*dataclasses.astuple(choose_origin(cap)))
        nxt = forest_mod._successors(cap, qs, forest_mod._star_directions(cap))
        assert (nxt[:, 5] == -1).all()
        with pytest.raises(ForestError) as ref:
            grow_path(cap, set(), 5, qs.quadrant(0))
        with pytest.raises(ForestError) as ref_build:
            forest_growth_reference(cap, qs)
        with pytest.raises(ForestError) as got:
            build_forest(cap, qs)
        assert str(ref.value).startswith("no admissible edge at vertex 5 ")
        assert str(got.value) == str(ref_build.value) == str(ref.value)


def quadrant_of_vertex(forest):
    """The forest's ``quadrant`` array keyed by child, as the reference
    growth records it."""
    return dict(zip(forest.edges[:, 0].tolist(), forest.quadrant.tolist()))


class ZeroWidth(QuadrantSystem):
    """A frame whose every quadrant is one zero-width wedge."""

    def quadrant(self, i):
        return Wedge(base=0.123, width=1e-9)


class Swapped(QuadrantSystem):
    """A frame whose quadrant i walks in the wedge of quadrant i + 2, so
    its vertices walk toward q."""

    def quadrant(self, i):
        return super().quadrant((i + 2) % 4)


class TestForestGrowth:
    """The level-wise closures against the path-by-path growth."""

    @staticmethod
    def _same(cap, forest):
        ref = forest_growth_reference(cap, forest.system)
        assert forest.parent == ref.parent
        assert quadrant_of_vertex(forest) == ref.quadrant_of_vertex
        assert forest.system == ref.system

    def test_oracle_set(self):
        for cap, forest in oracle_set():
            self._same(cap, forest)

    def test_large_net_at_four_quarter_turns(self):
        for k in range(4):
            cap = quarter_turn(large_net_cap(), k)
            self._same(cap, build_forest(cap, choose_origin(cap, "central")))

    @pytest.mark.parametrize("seed", [0, 3])
    def test_n20000(self, seed):
        cap = generate_budget_cap(20000, seed=seed)
        self._same(cap, build_forest(cap, choose_origin(cap, "central")))

    @pytest.mark.parametrize("n, seed", [(60, 0), (200, 1)])
    def test_walk_into_q_grows_alike_and_is_flagged(self, n, seed):
        # wedges turned toward q walk into it, and verify_forest reports
        # the broken invariant
        cap = generate_budget_cap(n, seed=seed)
        qs = Swapped(*dataclasses.astuple(choose_origin(cap, "central")))
        forest = build_forest(cap, qs)
        ref = forest_growth_reference(cap, qs)
        assert forest.system is qs
        assert forest.parent == ref.parent
        assert quadrant_of_vertex(forest) == ref.quadrant_of_vertex
        assert qs.origin in forest.edges[:, 1]
        assert "origin q is not a leaf" in verify_forest(cap, forest)


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
        assert np.array_equal(a.edges, b.edges)
        assert np.array_equal(a.quadrant, b.quadrant)

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


class TestVerifyForest:
    """Each check of ``verify_forest`` on a valid forest table, or its
    frame, edited to break it."""

    @pytest.fixture(scope="class")
    def grown(self):
        cap = generate_budget_cap(60, seed=0)
        forest = build_forest(cap, choose_origin(cap))
        assert verify_forest(cap, forest) == []
        return cap, forest

    @staticmethod
    def _issues(cap, forest, rows=None, edges=None, system=None):
        """Issues of ``forest`` cut to ``rows``, with ``edges`` in place of
        its edges and ``system`` in place of its frame."""
        rows = np.arange(len(forest.edges)) if rows is None else rows
        edges = forest.edges if edges is None else edges
        return verify_forest(cap, SpanningForest(
            edges[rows], forest.quadrant[rows], system or forest.system, cap))

    def test_not_spanning(self, grown):
        cap, forest = grown
        rows = forest.edges[:, 0] != forest.leaves[0]
        assert self._issues(cap, forest, rows) == [
            "forest does not span the interior vertices exactly"]

    def test_path_ends_off_the_rim(self, grown):
        # cut the edge from an inner vertex to the rim: its tree's leaves
        # now end on it
        cap, forest = grown
        E = forest.edges
        v = E[np.isin(E[:, 1], cap.rim) & np.isin(E[:, 0], E[:, 1]), 0][0]
        issues = self._issues(cap, forest, E[:, 0] != v)
        assert any(s.endswith(f"ends off the rim at {v}") for s in issues)

    def test_path_not_monotone(self, grown):
        cap, forest = grown
        qs = forest.system
        issues = self._issues(cap, forest,
                              system=dataclasses.replace(qs, theta=qs.theta / 2))
        assert any(s.endswith(f"is not {qs.theta / 2:.4f}-monotone")
                   for s in issues)

    def test_non_mesh_edge(self, grown):
        cap, forest = grown
        v = int(forest.leaves[0])
        r = int(np.setdiff1d(cap.rim, cap.vertex_fan(v)[0])[0])
        edges = forest.edges.copy()
        edges[edges[:, 0] == v, 1] = r
        assert (f"forest edge ({v}, {r}) is not a mesh edge"
                in self._issues(cap, forest, edges=edges))

    def test_interior_vertex_in_gap_cone(self, grown):
        cap, forest = grown
        qs = forest.system
        u = forest.leaves[forest.leaves != qs.origin][0]
        d = cap.vertices[u, :2] - cap.vertices[qs.origin, :2]
        aimed = dataclasses.replace(qs, gap_direction=math.atan2(d[1], d[0]))
        assert self._issues(cap, forest, system=aimed) == [
            "gap cone contains an interior vertex"]


class TestForestTable:
    def test_matches_parent_walk_reference(self):
        for cap, forest in oracle_set():
            ref = forest_reference(cap, forest.parent)
            assert forest.edges.tolist() == [list(e) for e in ref.edges]
            assert forest.leaves.tolist() == ref.leaves
            assert [p.tolist() for p in leaf_paths(forest)] == ref.paths
            child = forest.edges[:, 0]
            assert forest.root[child].tolist() == [ref.root[v] for v in child.tolist()]
            trees = np.split(child[forest.tree_order], forest.tree_starts[1:])
            assert [t.tolist() for t in trees] == ref.trees
            # the table's one arctan2 call gives each edge the same bits as
            # arctan2 over each path's steps
            assert forest.directions.tolist() == [ref.directions[v] for v in child.tolist()]
            # every path position but the root steps along its edge
            steps = [v for path in ref.paths for v in path[:-1]]
            assert forest.path_vertices[forest.path_steps].tolist() == steps
            assert forest.path_headings[forest.path_steps].tolist() == [
                ref.directions[v] for v in steps]

    @staticmethod
    def _rebuilt(cap, forest, parent):
        return SpanningForest(np.array(sorted(parent.items())),
                              forest.quadrant, forest.system, cap)

    def test_cycle_no_leaf_reaches_is_rejected(self):
        cap = generate_budget_cap(200, seed=0)
        forest = build_forest(cap, choose_origin(cap, "central"))
        bad = dict(forest.parent)
        bad[0], bad[2] = 2, 0
        forest_reference(cap, bad)   # every leaf walk still ends on the rim
        with pytest.raises(ForestError, match="cycle through vertex 0"):
            self._rebuilt(cap, forest, bad)

    def test_cycle_on_a_leaf_path_is_rejected(self):
        cap = generate_budget_cap(200, seed=0)
        forest = build_forest(cap, choose_origin(cap, "central"))
        path = max(leaf_paths(forest), key=len).tolist()
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

import math

import numpy as np

from capunfold.develop import layout_net
from capunfold.forest import build_forest, choose_origin
from capunfold.generate import generate_budget_cap, generate_cap
from capunfold.geom import EPS_GEOM
from capunfold import strips as strips_mod
from capunfold.strips import (
    Strip,
    StripError,
    _assign_faces,
    _crossing_pairs,
    _oblique,
    _path_graph,
    _quadrant_frame,
    _repair_connectivity,
    _segments_cross,
    _to_local,
    strip_certificates,
    waterfall_strips,
)

from fixtures import (adjacency_reference, flat_hex_disk, large_net_cap,
                      oracle_set, pentagonal_pyramid, quarter_turn)
from lemmas import verify_angle_monotone

DEG = math.pi / 180


def unfolded(seed=3, n=60, phi=25 * DEG, mode="central"):
    cap = generate_cap(n, phi=phi, seed=seed)
    forest = build_forest(cap, choose_origin(cap, mode))
    net = layout_net(cap, forest)
    system = waterfall_strips(cap, forest)
    return cap, forest, net, system


class TestWaterfallPaths:
    def test_paths_are_theta_monotone_and_noncrossing(self):
        for seed in range(5):
            cap, forest, net, system = unfolded(seed=seed)
            theta = forest.system.theta
            for i in range(4):
                ps = system.paths[i]
                for wp in ps:
                    assert verify_angle_monotone(wp.points, theta) is not None
                for j in range(len(ps)):
                    for k in range(j + 1, len(ps)):
                        assert not polylines_cross(ps[j].points, ps[k].points)

    def test_paths_run_from_origin_to_their_leaves(self):
        cap, forest, net, system = unfolded(seed=1)
        q = forest.system.origin
        P = cap.vertices[:, :2]
        for i in range(4):
            for wp in system.paths[i]:
                assert np.allclose(wp.points[0], P[q], atol=1e-12)
                assert np.allclose(wp.points[-1], P[wp.leaf], atol=1e-12)

    def test_every_nonorigin_leaf_gets_a_path(self):
        cap, forest, net, system = unfolded(seed=2)
        q = forest.system.origin
        got = {wp.leaf for i in range(4) for wp in system.paths[i]}
        assert got == set(forest.leaves.tolist()) - {q}

    def test_positive_clearance_and_radius(self):
        cap, forest, net, system = unfolded(seed=4)
        for i in range(4):
            if system.paths[i]:
                assert system.eps[i] > 0
                assert system.radius[i] > 0


class TestStripAssignment:
    def test_faces_partitioned(self):
        for seed in range(4):
            cap, forest, net, system = unfolded(seed=seed)
            assert set(system.strip_of) == set(range(cap.n_triangles))
            by_strip = {}
            for s in system.strips:
                for f in s.faces:
                    assert f not in by_strip
                    by_strip[f] = (s.quadrant, s.index)
            assert by_strip == system.strip_of

    def test_strip_count_per_quadrant(self):
        cap, forest, net, system = unfolded(seed=3)
        for i in range(4):
            idxs = [s.index for s in system.strips if s.quadrant == i]
            assert idxs == list(range(len(system.paths[i]) + 1))

    def test_pyramid_has_one_strip_per_quadrant(self):
        cap = pentagonal_pyramid()
        forest = build_forest(cap, choose_origin(cap, "central"))
        net = layout_net(cap, forest)
        system = waterfall_strips(cap, forest)
        assert all(not system.paths[i] for i in range(4))
        assert sum(len(s.faces) for s in system.strips) == 5
        cert = strip_certificates(cap, forest, system, net)
        assert cert["clean"], cert["errors"]


class TestCertificates:
    def test_random_caps_certify_clean(self):
        for seed in range(5):
            cap, forest, net, system = unfolded(seed=seed)
            cert = strip_certificates(cap, forest, system, net)
            assert cert["clean"], (seed, cert["errors"])
            assert cert["area_relative_error"] <= 1e-6
            assert cert["apex_angle_error"] <= 1e-9

    def test_budget_caps_certify_clean(self):
        for seed in range(3):
            cap = generate_budget_cap(80, seed=seed)
            forest = build_forest(cap, choose_origin(cap, "central"))
            net = layout_net(cap, forest)
            system = waterfall_strips(cap, forest)
            cert = strip_certificates(cap, forest, system, net)
            assert cert["clean"], (seed, cert["errors"])

    def test_boundary_mode_origin_also_works(self):
        cap, forest, net, system = unfolded(seed=7, mode="closest_to_boundary")
        cert = strip_certificates(cap, forest, system, net)
        assert cert["clean"], cert["errors"]


def assign_faces_reference(cap, forest, paths):
    """Face-by-face strip assignment: one scalar interpolation per face and
    path, stopping at the first path the centroid is not above."""
    qs = forest.system
    P = cap.vertices[:, :2]
    origin = P[qs.origin]
    cent = P[cap.triangles].mean(axis=1)
    d = cent - origin
    angles = np.arctan2(d[:, 1], d[:, 0])
    graphs = {i: [_path_graph(_oblique(_to_local(wp.points, origin,
                                                 _quadrant_frame(qs, i)), qs.theta))
                  for wp in paths[i]] for i in range(4)}
    out = {}
    for f in range(cap.n_triangles):
        qi = int((float(angles[f]) - qs.base) % (2 * math.pi) // qs.theta)
        qi = qi if qi < 4 else 0   # the gap sits below quadrant 0
        ab = _oblique(_to_local(cent[f], origin, _quadrant_frame(qs, qi)), qs.theta)[0]
        s = 0
        for g in graphs[qi]:
            if ab[1] > float(np.interp(ab[0], *g)):
                s += 1
            else:
                break
        out[f] = (qi, s)
    return out


def epsilon_reference(cap, forest, quadrant, leaves, ob, r):
    """Clearance unit with the leaf x forest-edge distances in a Python loop."""
    n = len(leaves)
    a_leaf, b_leaf = ob[:, 0], ob[:, 1]
    cands = [0.9 * r, float(b_leaf.min())]
    gaps = np.diff(np.sort(b_leaf))
    gaps = gaps[gaps > 0]
    if len(gaps):
        cands.append(float(gaps.min()))
    da = np.abs(a_leaf[:, None] - a_leaf[None, :])
    da = da[da > 0]
    if len(da):
        cands.append(float(da.min()))
    qs = forest.system
    P = cap.vertices[:, :2]
    rot = _quadrant_frame(qs, quadrant)
    edges = forest.edges.tolist()
    E = np.array(edges)
    A = _oblique(_to_local(P[E[:, 0]], P[qs.origin], rot), qs.theta)
    B = _oblique(_to_local(P[E[:, 1]], P[qs.origin], rot), qs.theta)
    for k, leaf in enumerate(leaves):
        a0, b0 = float(a_leaf[k]), float(b_leaf[k])
        for (u, v), pa, pb in zip(edges, A, B):
            if leaf in (u, v):
                continue
            lo, hi = sorted((pa[0], pb[0]))
            if not (lo <= a0 <= hi) or hi == lo:
                continue
            t = (a0 - pa[0]) / (pb[0] - pa[0])
            b_at = pa[1] + t * (pb[1] - pa[1])
            if 0 < b0 - b_at:
                cands.append(b0 - b_at)
    return min(cands) / (n + 1)


def reference_caps():
    for seed in range(3):
        yield generate_budget_cap(200, seed=seed)
    for seed in range(3):
        yield generate_cap(300, phi=33 * DEG, seed=seed)


class TestVectorizedAgainstReference:
    def test_assign_faces_matches_scalar_reference(self):
        for cap in reference_caps():
            forest = build_forest(cap, choose_origin(cap, "central"))
            system = waterfall_strips(cap, forest)
            assert (_assign_faces(cap, forest, system.paths)
                    == assign_faces_reference(cap, forest, system.paths))

    def test_epsilon_matches_loop_reference(self, monkeypatch):
        fast = strips_mod._epsilon
        seen = []

        def both(*args):
            eps = fast(*args)
            assert eps == epsilon_reference(*args)
            seen.append(eps)
            return eps

        monkeypatch.setattr(strips_mod, "_epsilon", both)
        for cap in reference_caps():
            waterfall_strips(cap, build_forest(cap, choose_origin(cap, "central")))
        assert len(seen) >= 10


def face_neighbors_reference(cap, edge_faces, f):
    tri = cap.triangles[f]
    for k in range(3):
        a, b = int(tri[k]), int(tri[(k + 1) % 3])
        for g in edge_faces[(min(a, b), max(a, b))]:
            if g != f:
                yield g


def components_reference(cap, edge_faces, faces):
    """Edge-connected components of a face set, each sorted, seeded from the
    smallest face left."""
    comps = []
    left = set(faces)
    while left:
        seed = min(left)
        comp = {seed}
        frontier = [seed]
        while frontier:
            f = frontier.pop()
            for g in face_neighbors_reference(cap, edge_faces, f):
                if g in left and g not in comp:
                    comp.add(g)
                    frontier.append(g)
        comps.append(sorted(comp))
        left -= comp
    return comps


def repair_reference(cap, strip_of):
    """Set-based connectivity repair: every pass recomputes the components of
    every strip and moves each minority component to the strip most of its
    outside neighbours hold (ties to the smallest label)."""
    strip_of = dict(strip_of)
    edge_faces = adjacency_reference(cap.triangles).edge_faces
    for _ in range(100):
        members = {}
        for f, lab in strip_of.items():
            members.setdefault(lab, []).append(f)
        moved = False
        for lab, faces in members.items():
            comps = components_reference(cap, edge_faces, faces)
            comps.sort(key=lambda c: (-len(c), min(c)))
            for comp in comps[1:]:
                votes = {}
                for f in comp:
                    for g in face_neighbors_reference(cap, edge_faces, f):
                        if strip_of[g] != lab:
                            votes[strip_of[g]] = votes.get(strip_of[g], 0) + 1
                if not votes:
                    continue
                target = max(sorted(votes), key=lambda k: votes[k])
                for f in comp:
                    strip_of[f] = target
                moved = True
        if not moved:
            return strip_of
    raise StripError("strip connectivity repair did not converge")


def polylines_cross(A, B):
    """Brute-force proper-crossing test between two polylines, over all
    their segment pairs at once."""
    return bool(_segments_cross(A[:-1][:, None], (A[1:] - A[:-1])[:, None],
                                B[:-1][None], (B[1:] - B[:-1])[None]).any())


def crossing_reference(polylines):
    """All-pairs crossing test, one :func:`polylines_cross` call per pair."""
    return [(j, k) for j in range(len(polylines))
            for k in range(j + 1, len(polylines))
            if polylines_cross(polylines[j], polylines[k])]


class TestArrayPassesAgainstReference:
    def test_repair_and_crossings_match_loop_references(self):
        for cap, forest in oracle_set():
            system = waterfall_strips(cap, forest)
            assigned = _assign_faces(cap, forest, system.paths)
            assert (_repair_connectivity(cap, assigned)
                    == repair_reference(cap, assigned) == system.strip_of)
            for i in range(4):
                pls = [wp.points for wp in system.paths[i]]
                assert _crossing_pairs(pls) == crossing_reference(pls)

    def test_direction_cones_match_per_path_reference(self):
        # one pass over all waterfall paths gives each the verdict of the
        # per-path check, also on the caps where some path fails it
        caps = [generate_budget_cap(300, seed=s) for s in (17, 23)]
        caps += [quarter_turn(large_net_cap(), k) for k in (0, 1)]
        sets = list(oracle_set()) + [
            (cap, build_forest(cap, choose_origin(cap, "central")))
            for cap in caps]
        failed = 0
        for cap, forest in sets:
            theta = forest.system.theta
            paths = waterfall_strips(cap, forest).paths
            pls = [wp.points for i in range(4) for wp in paths[i]]
            got = strips_mod._direction_spreads(pls) <= theta + EPS_GEOM
            want = [verify_angle_monotone(p, theta) is not None for p in pls]
            assert got.tolist() == want
            failed += want.count(False)
        assert failed >= 4

    def test_crossing_polylines_are_reported(self):
        zig = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0], [3.0, 1.0]])
        flat = np.array([[-1.0, 0.5], [4.0, 0.5]])
        high = np.array([[0.0, 2.0], [3.0, 2.0]])
        touch = np.array([[1.0, 1.0], [1.5, 1.8]])   # meets zig at a vertex
        pls = [zig, high, flat, touch]
        assert _crossing_pairs(pls) == crossing_reference(pls) == [(0, 2)]
        assert _crossing_pairs([flat, zig]) == [(0, 1)]
        assert _crossing_pairs([zig]) == []

    def test_crossing_sweep_matches_all_pairs_on_random_polylines(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            pls = [np.cumsum(rng.normal(size=(int(rng.integers(2, 7)), 2)),
                             axis=0) for _ in range(int(rng.integers(0, 9)))]
            assert _crossing_pairs(pls) == crossing_reference(pls)

    def test_strip_split_into_two_pockets_is_repaired(self):
        # a ring of six faces, face k next to k-1 and k+1: strips A and B
        # each come in two pockets
        cap = flat_hex_disk(lift=0.1)
        A, B = (0, 0), (0, 1)
        split = dict(zip(range(6), [A, A, B, A, B, B]))
        # A's pocket {3} joins B; B's pocket {2} then sees A on one side and
        # the updated face 3 (now B) on the other, so it joins A
        want = dict(zip(range(6), [A, A, A, B, B, B]))
        assert _repair_connectivity(cap, split) == want
        assert repair_reference(cap, split) == want

    def test_certificate_flags_a_split_strip(self):
        cap = flat_hex_disk(lift=0.1)
        forest = build_forest(cap, choose_origin(cap, "central"))
        net = layout_net(cap, forest)
        system = waterfall_strips(cap, forest)
        system.strips = [Strip(quadrant=0, index=0, faces=(0, 1, 3)),
                         Strip(quadrant=0, index=1, faces=(2, 4, 5))]
        cert = strip_certificates(cap, forest, system, net)
        assert not cert["strips_connected"]
        assert [e for e in cert["errors"] if "edge-connected" in e] == [
            "strip (0,0) content is not edge-connected: 2 of 3 reachable",
            "strip (0,1) content is not edge-connected: 1 of 3 reachable"]

import math
import tracemalloc
from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest

from capunfold import develop as develop_mod
from capunfold.develop import (
    Net,
    OverlapReport,
    _all_face_locals,
    _box_pairs,
    _contact_tolerance,
    _pairwise_penetration,
    _root_placement,
    banks_ordered,
    check_overlap,
    layout_net,
    net_congruent,
    path_turns,
    rasterize_overlap_oracle,
)
from capunfold.forest import build_forest, choose_origin
from capunfold.generate import generate_budget_cap, generate_cap
from capunfold.mesh import ConvexCap, compute_metrics
from capunfold.monotone import left_of

from fixtures import (adjacency_reference, bank_chains, certificate_caps,
                      certificate_pairs, develop_chain, flat_hex_disk,
                      leaf_paths, oracle_set, path_angles,
                      pentagonal_pyramid, turn_distortion)
from lemmas import turn_angle, within_bound

DEG = math.pi / 180


def sample_cap(seed=3, n=60, phi=25 * DEG):
    cap = generate_cap(n, phi=phi, seed=seed)
    forest = build_forest(cap, choose_origin(cap, "central"))
    return cap, forest


class TestPathAngles:
    def test_angle_identity_on_random_caps(self):
        for seed in range(4):
            cap, forest = sample_cap(seed=seed)
            for path in leaf_paths(forest):
                cp = path_angles(cap, path)
                for i in range(1, len(path) - 1):
                    total = cp.lam[i] + cp.omega[i] + cp.rho[i]
                    assert total == pytest.approx(2 * math.pi, abs=1e-9)
                    assert cp.lam[i] > 0 and cp.rho[i] > 0
                    assert cp.omega[i] >= -1e-12

    def test_rejects_non_edges_and_rim_interiors(self):
        cap = pentagonal_pyramid()
        with pytest.raises(ValueError):
            path_angles(cap, [0, 2])  # rim diagonal, not an edge
        with pytest.raises(ValueError):
            path_angles(cap, [5, 0, 1])  # vertex 0 is on the rim
        with pytest.raises(ValueError):
            path_angles(cap, [5])


class TestDevelopChain:
    def test_preserves_edge_lengths(self):
        cap, forest = sample_cap(seed=1)
        for path in leaf_paths(forest):
            for side in ("left", "right"):
                chain = develop_chain(cap, path, side)
                for i in range(len(path) - 1):
                    a, b = path[i], path[i + 1]
                    l3 = np.linalg.norm(cap.vertices[b] - cap.vertices[a])
                    l2 = np.linalg.norm(chain[i + 1] - chain[i])
                    assert l2 == pytest.approx(l3, rel=1e-12)

    def test_left_and_right_first_edges_differ_by_leaf_curvature(self):
        cap, forest = sample_cap(seed=2)
        for path in leaf_paths(forest):
            L = develop_chain(cap, path, "left")
            R = develop_chain(cap, path, "right")
            omega0 = 2 * math.pi - cap.fan_totals()[path[0]]
            dl = L[1] - L[0]
            dr = R[1] - R[0]
            got = math.atan2(dl[1], dl[0]) - math.atan2(dr[1], dr[0])
            got = (got + math.pi) % (2 * math.pi) - math.pi
            assert got == pytest.approx(omega0, abs=1e-9)

    def test_flat_cap_develops_to_projection(self):
        cap = flat_hex_disk(lift=0.0)
        # interior center vertex 6 to any rim vertex
        for side in ("left", "right"):
            chain = develop_chain(cap, [6, 0], side)
            assert np.allclose(chain, cap.vertices[[6, 0], :2], atol=1e-12)

    def test_bad_side_rejected(self):
        cap = pentagonal_pyramid()
        with pytest.raises(ValueError):
            develop_chain(cap, [5, 0], "up")


class TestTurnDistortion:
    def test_near_flat_cap_has_tiny_distortion(self):
        cap = generate_cap(70, phi=2 * DEG, seed=5)
        metrics = compute_metrics(cap)
        forest = build_forest(cap, choose_origin(cap, "central"))
        for path in leaf_paths(forest):
            td = turn_distortion(cap, path)
            assert td.max_abs < 0.05
            assert within_bound(td, metrics)

    def test_bound_holds_on_random_caps(self):
        for seed in range(6):
            cap, forest = sample_cap(seed=seed, phi=30 * DEG)
            metrics = compute_metrics(cap)
            for path in leaf_paths(forest):
                td = turn_distortion(cap, path)
                assert within_bound(td, metrics), (seed, path, td.max_abs)

    def test_single_edge_path_has_no_turns(self):
        cap = pentagonal_pyramid()
        td = turn_distortion(cap, [5, 0])
        assert td.max_abs == 0.0

    def test_prefixes_match_scalar_turn_angle(self):
        # one vectorized pass over a path's own edges gives the prefixes
        # the scalar turn_angle of each interior vertex gives, within ulps,
        # and the pass over the forest table gives their largest magnitude
        for cap, forest in oracle_set()[::7]:
            P = cap.vertices[:, :2]
            worst = 0.0
            for path in leaf_paths(forest):
                td = turn_distortion(cap, path)
                cp = path_angles(cap, path)
                k = len(path) - 1
                planar = [turn_angle(P[a], P[b], P[c])
                          for a, b, c in zip(path, path[1:], path[2:])]
                left = np.cumsum(math.pi - cp.lam[1:k] - planar)
                right = np.cumsum(cp.rho[1:k] - math.pi - planar)
                assert td.prefix_left == pytest.approx(left, rel=0, abs=1e-13)
                assert td.prefix_right == pytest.approx(right, rel=0, abs=1e-13)
                worst = max([worst, *np.abs(left), *np.abs(right)])
            got = develop_mod.turn_distortion(forest, path_turns(cap, forest))
            assert got == pytest.approx(worst, rel=0, abs=1e-13)


class TestLayoutNet:
    def test_flat_cap_net_is_identity(self):
        cap = flat_hex_disk(lift=0.0)
        forest = build_forest(cap, choose_origin(cap, "central"))
        net = layout_net(cap, forest)
        for f, img in net.placed.items():
            assert np.allclose(img, cap.vertices[cap.triangles[f], :2], atol=1e-9)

    def test_pyramid_net_opens_apex_by_its_curvature(self):
        cap = pentagonal_pyramid()
        forest = build_forest(cap, choose_origin(cap, "central"))
        net = layout_net(cap, forest)
        assert len(net.placed) == 5
        assert net_congruent(cap, net)
        # apex angle images sum to the full cone 2*pi - omega = 300 degrees
        total = 0.0
        for f in range(5):
            img = net.images[f]
            tri = cap.triangles[f]
            i = int(np.where(tri == 5)[0][0])
            a = img[(i + 1) % 3] - img[i]
            b = img[(i + 2) % 3] - img[i]
            total += math.acos(np.dot(a, b) / np.linalg.norm(a) / np.linalg.norm(b))
        assert total == pytest.approx(cap.fan_totals()[5], abs=1e-9)

    def test_random_caps_place_all_faces_congruently(self):
        for seed in range(4):
            cap, forest = sample_cap(seed=seed)
            net = layout_net(cap, forest)
            assert net.images.shape == (cap.n_triangles, 3, 2)
            assert net_congruent(cap, net)

    def test_layout_leaves_no_attribute_on_the_cap(self):
        cap, forest = sample_cap(seed=5)
        before = dict(vars(cap))
        layout_net(cap, forest)
        assert vars(cap).keys() == before.keys()

    def test_origin_image_angle_sum(self):
        cap, forest = sample_cap(seed=7)
        net = layout_net(cap, forest)
        q = forest.system.origin
        total = 0.0
        for f in adjacency_reference(cap.triangles).vertex_faces[q]:
            img = net.images[f]
            tri = cap.triangles[f]
            i = int(np.where(tri == q)[0][0])
            a = img[(i + 1) % 3] - img[i]
            b = img[(i + 2) % 3] - img[i]
            total += math.acos(
                np.clip(np.dot(a, b) / np.linalg.norm(a) / np.linalg.norm(b), -1, 1))
        assert total == pytest.approx(cap.fan_totals()[q], abs=1e-9)


class TestBanks:
    def test_banks_share_leaf_image_and_are_ordered(self):
        for seed in range(5):
            cap, forest = sample_cap(seed=seed)
            net = layout_net(cap, forest)
            verdicts = banks_ordered(cap, net, forest)
            assert len(verdicts) == len(leaf_paths(forest)) > 1
            assert verdicts == [(True, None)] * len(verdicts), (seed, verdicts)

    def test_chain_development_matches_bank_without_junctions(self):
        # a single-edge-tree path: the net bank and the pure chain development
        # agree up to a rigid motion, so segment lengths match
        cap = pentagonal_pyramid()
        forest = build_forest(cap, choose_origin(cap, "central"))
        net = layout_net(cap, forest)
        path = leaf_paths(forest)[
            forest.leaves.tolist().index(forest.system.origin)]
        L, R = bank_chains(cap, net, path)
        for chain, bank in ((develop_chain(cap, path, "left"), L),
                            (develop_chain(cap, path, "right"), R)):
            dl = [np.linalg.norm(np.diff(c, axis=0), axis=1) for c in (chain, bank)]
            assert np.allclose(dl[0], dl[1], atol=1e-12)

    def test_per_path_chain_order_certificate(self):
        from capunfold.monotone import left_of

        for seed in range(5):
            cap, forest = sample_cap(seed=seed)
            for path in leaf_paths(forest):
                L = develop_chain(cap, path, "left")
                R = develop_chain(cap, path, "right")
                [(ok, radius)] = left_of([(L, R)])
                assert ok, (seed, path, radius)


class TestOverlap:
    @staticmethod
    def _net_of(tris):
        return Net(images=np.asarray(tris, dtype=float), cut_edges=set())

    def test_detects_genuine_overlap(self):
        net = self._net_of([
            [[0, 0], [1, 0], [0, 1]],
            [[0.1, 0.1], [1.1, 0.1], [0.1, 1.1]],
        ])
        rep = check_overlap(net)
        assert not rep.clean and rep.pairs[0][:2] == (0, 1)
        assert rasterize_overlap_oracle(net)

    def test_contact_along_shared_edge_is_clean(self):
        net = self._net_of([
            [[0, 0], [1, 0], [0, 1]],
            [[1, 0], [1, 1], [0, 1]],
        ])
        assert check_overlap(net).clean
        assert not rasterize_overlap_oracle(net)

    def test_contact_at_shared_vertex_is_clean(self):
        net = self._net_of([
            [[0, 0], [1, 0], [0, 1]],
            [[0, 0], [-1, 0], [0, -1]],
        ])
        assert check_overlap(net).clean

    def test_random_cap_nets_are_clean(self):
        for seed in range(4):
            cap = generate_budget_cap(50, seed=seed)
            forest = build_forest(cap, choose_origin(cap, "central"))
            net = layout_net(cap, forest)
            rep = check_overlap(net)
            assert rep.clean, (seed, rep.pairs[:3])
            assert not rasterize_overlap_oracle(net)

    def test_tolerance_does_not_grow_with_translation(self):
        # a face copied onto its neighbour overlaps it by a whole face; the
        # contact tolerance, from the net's size, must stay below that
        # wherever the cap lies
        cap = generate_budget_cap(2000, seed=0)
        g = int(cap.face_neighbors()[10].max())
        for shift in ((0.0, 0.0), (1e6, -1e6)):
            far = ConvexCap(cap.vertices + [*shift, 0.0], cap.triangles)
            forest = build_forest(far, choose_origin(far, "central"))
            net = layout_net(far, forest)
            assert check_overlap(net).clean, shift
            net.images[g] = net.images[10]
            assert [p[:2] for p in check_overlap(net).pairs] == \
                [(min(10, g), max(10, g))], shift

    def test_oracle_agrees_with_exact_check_on_steep_cap(self):
        cap = generate_cap(60, phi=33 * DEG, seed=11)
        forest = build_forest(cap, choose_origin(cap, "central"))
        net = layout_net(cap, forest)
        assert check_overlap(net).clean == (not rasterize_overlap_oracle(net))


def dense_box_pairs(lo, hi, e):
    """Reference broad phase: every pair's grown boxes tested in one dense
    m x m matrix (quadratic memory)."""
    ok_x = (lo[:, None, 0] <= hi[None, :, 0] + e) & (lo[None, :, 0] <= hi[:, None, 0] + e)
    ok_y = (lo[:, None, 1] <= hi[None, :, 1] + e) & (lo[None, :, 1] <= hi[:, None, 1] + e)
    return np.argwhere(np.triu(ok_x & ok_y, k=1))


def reference_penetration(A, B):
    """Reference narrow phase, the separating-axis depth as the overlap test
    first computed it: (k, 3, 2) triangle batches, einsum projections and
    min/max over each triangle's vertex axis; 0 where separated."""
    edges = np.concatenate([A[:, [1, 2, 0]] - A, B[:, [1, 2, 0]] - B], axis=1)
    normals = np.stack([-edges[..., 1], edges[..., 0]], axis=-1)  # (k, 6, 2)
    nn = np.linalg.norm(normals, axis=-1, keepdims=True)
    degenerate = nn[..., 0] == 0
    nn[nn == 0] = 1.0
    normals = normals / nn
    pa = np.einsum("kac,kvc->kav", normals, A)   # (k, 6, 3)
    pb = np.einsum("kac,kvc->kav", normals, B)
    sep = np.maximum(pb.min(axis=2) - pa.max(axis=2),
                     pa.min(axis=2) - pb.max(axis=2))   # (k, 6)
    sep[degenerate] = -np.inf   # a zero-length edge contributes no axis
    best = sep.max(axis=1)
    return np.where(best >= 0, 0.0, -best)


def kernel_penetration(A, B):
    """:func:`_pairwise_penetration` on (k, 3, 2) batches."""
    return _pairwise_penetration(np.ascontiguousarray(A.transpose(1, 2, 0)),
                                 np.ascontiguousarray(B.transpose(1, 2, 0)))


def dense_check_overlap(net, eps=None):
    """Reference overlap test: dense broad phase, one unchunked reference
    narrow phase."""
    tris = net.images
    e = _contact_tolerance(tris) if eps is None else eps
    cand = dense_box_pairs(tris.min(axis=1), tris.max(axis=1), e)
    pairs = []
    if len(cand):
        depths = reference_penetration(tris[cand[:, 0]], tris[cand[:, 1]])
        for (i, j), depth in zip(cand[depths > e], depths[depths > e]):
            pairs.append((int(i), int(j), float(depth)))
    return OverlapReport(pairs=tuple(sorted(pairs)))


def grid_net(k):
    """Flat k x k grid of unit squares, each split into two triangles."""
    tris = []
    for x in range(k):
        for y in range(k):
            tris.append([[x, y], [x + 1, y], [x, y + 1]])
            tris.append([[x + 1, y], [x + 1, y + 1], [x, y + 1]])
    return Net(images=np.array(tris, float), cut_edges=set())


class TestSparseBroadPhase:
    @staticmethod
    def _nets():
        for seed in range(3):
            cap = generate_budget_cap(50, seed=seed)
            yield layout_net(cap, build_forest(cap, choose_origin(cap, "central")))
        for seed in (11, 4):
            cap = generate_cap(60, phi=70 * DEG, seed=seed)
            yield layout_net(cap, build_forest(cap, choose_origin(cap, "central")))
        yield grid_net(6)

    @pytest.mark.parametrize("eps", [None, 0.0, 1e-3, -1e-3, -0.05, 0.3])
    def test_same_candidates_and_report_as_dense_oracle(self, eps):
        for net in self._nets():
            tris = net.images
            e = _contact_tolerance(tris) if eps is None else eps
            lo, hi = tris.min(axis=1), tris.max(axis=1)
            assert np.array_equal(_box_pairs(lo, hi, e), dense_box_pairs(lo, hi, e))
            assert check_overlap(net, eps) == dense_check_overlap(net, eps)

    def test_steep_cap_reports_pairs_like_dense_oracle(self):
        cap = generate_cap(200, phi=70 * DEG, seed=0)
        net = layout_net(cap, build_forest(cap, choose_origin(cap, "central")))
        rep = check_overlap(net, eps=-1e-3)
        assert len(rep.pairs) > 100
        assert rep == dense_check_overlap(net, eps=-1e-3)

    def test_random_boxes_of_mixed_sizes(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = int(rng.integers(0, 120))
            lo = rng.uniform(-50, 50, (m, 2)) * rng.uniform(1e-3, 1e3)
            hi = lo + rng.exponential(2.0, (m, 2)) ** 3
            for e in (0.0, 1e-7, -0.5, 2.0):
                assert np.array_equal(_box_pairs(lo, hi, e),
                                      dense_box_pairs(lo, hi, e))

    def test_memory_grows_linearly_with_faces(self):
        peaks = []
        for k in (50, 100):   # 5 000 and 20 000 triangles
            net = grid_net(k)
            tracemalloc.start()
            try:
                assert check_overlap(net).clean
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # linear growth gives 4x, a dense m x m broad phase 16x
        assert peaks[1] / peaks[0] < 6, peaks
        assert peaks[1] < 100e6, peaks


class TestNarrowPhase:
    """The pair-contiguous separating-axis kernel against the reference."""

    def test_random_pairs_bit_identical(self):
        rng = np.random.default_rng(7)
        k = 20000
        A = rng.normal(size=(k, 3, 2)) * rng.uniform(1e-3, 1e3, (k, 1, 1))
        B = A + rng.normal(size=(k, 3, 2)) * rng.uniform(0.0, 2.0, (k, 1, 1))
        A[::7, 1] = A[::7, 0]          # zero-length edge in A
        B[::11, 2] = B[::11, 1]        # zero-length edge in B
        A[::97] = A[::97, :1]          # all three corners of A coincide
        B[::13] = A[::13]              # identical triangles
        B[::17, 0] = A[::17, 2]        # one shared vertex
        B[::19, :2] = A[::19, 1:]      # one shared edge
        want = reference_penetration(A, B)
        assert (want > 0).any() and (want == 0).any()
        assert kernel_penetration(A, B).tobytes() == want.tobytes()

    def test_steep_net_candidates_bit_identical(self):
        cap = generate_cap(200, phi=70 * DEG, seed=0)
        forest = build_forest(cap, choose_origin(cap, "central"))
        tris = layout_net(cap, forest).images
        cand = _box_pairs(tris.min(axis=1), tris.max(axis=1), 1e-3)
        A, B = tris[cand[:, 0]], tris[cand[:, 1]]
        want = reference_penetration(A, B)
        assert len(cand) > 500 and (want > 0).sum() > 100
        assert kernel_penetration(A, B).tobytes() == want.tobytes()


def layout_reference(cap, forest):
    """Face-by-face breadth-first unfolding over a deque: each face is placed
    from the first placed face that reaches it across an uncut edge, sides
    taken in order 0, 1, 2.  Returns the placements in visiting order and
    each face's parent."""
    cut = {(min(a, b), max(a, b)) for a, b in forest.edges.tolist()}
    edge_faces = adjacency_reference(cap.triangles).edge_faces
    local = _all_face_locals(cap)
    placed = {0: _root_placement(cap, 0, local[0])}
    parent = {}
    queue = deque([0])
    while queue:
        f = queue.popleft()
        tri = cap.triangles[f]
        for i in range(3):
            a, b = int(tri[i]), int(tri[(i + 1) % 3])
            key = (min(a, b), max(a, b))
            fs = edge_faces[key]
            if key in cut or len(fs) == 1:
                continue
            g = fs[0] if fs[1] == f else fs[1]
            if g in placed:
                continue
            placed[g] = unfold_face_reference(cap, local[g], placed[f], f, g)
            parent[g] = f
            queue.append(g)
    return placed, parent


def unfold_face_reference(cap, local, placed_f, f, g):
    """Rigidly place face ``g``, with isometric 2D coordinates ``local``,
    onto its shared edge with placed face ``f``, anchored at the shared
    vertex with the smaller label."""
    tri_f, tri_g = cap.triangles[f], cap.triangles[g]
    u, w = sorted(set(tri_f) & set(tri_g))
    src = np.array([local[list(tri_g).index(v)] for v in (u, w)])
    dst = np.array([placed_f[list(tri_f).index(v)] for v in (u, w)])
    ds, dd = src[1] - src[0], dst[1] - dst[0]
    ang = math.atan2(dd[1], dd[0]) - math.atan2(ds[1], ds[0])
    c, s = math.cos(ang), math.sin(ang)
    return (local - src[0]) @ np.array([[c, -s], [s, c]]).T + dst[0]


def record_levels(monkeypatch):
    """Wrap ``develop._place_level`` to record the faces of each pass and
    the parent each face was placed from."""
    passes, parent = [], {}
    place = develop_mod._place_level

    def recording(pos, local, G, F, *sides):
        passes.append(G.tolist())
        parent.update(zip(G.tolist(), F.tolist()))
        return place(pos, local, G, F, *sides)

    monkeypatch.setattr(develop_mod, "_place_level", recording)
    return passes, parent


class TestLayoutAgainstReference:
    def test_same_tree_and_placements_as_face_by_face_layout(self, monkeypatch):
        _, parent = record_levels(monkeypatch)
        for cap, forest in oracle_set():
            parent.clear()
            net = layout_net(cap, forest)
            ref, ref_parent = layout_reference(cap, forest)
            assert sorted(ref) == list(range(cap.n_triangles))
            assert parent == ref_parent
            P = cap.vertices[:, :2]
            diam = float(np.linalg.norm(P.max(axis=0) - P.min(axis=0)))
            worst = max(float(np.abs(net.images[f] - ref[f]).max())
                        for f in ref)
            assert worst <= 1e-12 * diam

    def test_cut_isolating_the_root_face_raises(self):
        cap = flat_hex_disk(lift=0.1)
        a, b, c = (int(v) for v in cap.triangles[0])
        cuts = SimpleNamespace(edges=np.array([(a, b), (b, c), (c, a)]))
        with pytest.raises(RuntimeError, match="placed 1 of 6 faces"):
            layout_net(cap, cuts)


def develop_chain_reference(cap, cp, side):
    """The per-vertex loop :func:`develop_chain` replaced: one heading
    update and one step per path edge."""
    vs = cp.vertices
    V = cap.vertices
    lengths = [float(np.linalg.norm(V[b] - V[a])) for a, b in zip(vs, vs[1:])]
    d0 = V[vs[1], :2] - V[vs[0], :2]
    heading = math.atan2(d0[1], d0[0])
    if side == "left" and vs[0] not in cap.rim_vertex_set:
        heading += 2 * math.pi - cap.fan_totals()[vs[0]]
    pts = [np.array(V[vs[0], :2], dtype=float)]
    for i, L in enumerate(lengths):
        pts.append(pts[-1] + L * np.array([math.cos(heading), math.sin(heading)]))
        if i + 1 < len(lengths):
            if side == "left":
                heading += math.pi - cp.lam[i + 1]
            else:
                heading += cp.rho[i + 1] - math.pi
    return np.array(pts)


def bank_chains_reference(cap, net, vs):
    """The per-vertex loop :func:`bank_chains` replaced: one
    ``vertex_image`` call per corner, then the radial upper envelope of
    each double point."""
    T = cap.triangles

    def vertex_image(face, v, triangles):
        i = int(np.where(triangles[face] == v)[0][0])
        return net.images[face, i]

    a, b = vs[:-1], vs[1:]
    out = []
    for fs in (cap.side_faces(a, b).tolist(), cap.side_faces(b, a).tolist()):
        pts = [(vs[0], vertex_image(fs[0], vs[0], T))]
        for i in range(len(vs) - 1):
            pts.append((vs[i + 1], vertex_image(fs[i], vs[i + 1], T)))
            if i + 2 < len(vs):
                nxt = vertex_image(fs[i + 1], vs[i + 1], T)
                if not np.allclose(nxt, pts[-1][1], atol=1e-12):
                    pts.append((vs[i + 1], nxt))
        src = pts[0][1]
        kept = []
        for v, p in pts:
            if kept and kept[-1][0] == v:
                if np.linalg.norm(p - src) > np.linalg.norm(kept[-1][1] - src):
                    kept[-1] = (v, p)
            else:
                kept.append((v, p))
        out.append(np.array([p for _, p in kept]))
    return out


def table_chains(cap, forest, net=None):
    """The left and right developments of every leaf path, and with a net
    its two banks, from the passes over the forest table, split per path."""
    split = forest.path_offsets[1:-1]
    turns = path_turns(cap, forest)
    out = [np.split(develop_mod.develop_chain(cap, forest, turns, side), split)
           for side in ("left", "right")]
    if net is not None:
        out += [np.split(b, split) for b in develop_mod._banks(cap, net, forest)]
    return out


class TestChainsAgainstReference:
    def test_developments_and_banks_match_the_vertex_loops(self):
        for cap, forest in oracle_set():
            P = cap.vertices[:, :2]
            diam = float(np.linalg.norm(P.max(axis=0) - P.min(axis=0)))
            net = layout_net(cap, forest)
            left, right, bank_l, bank_r = table_chains(cap, forest, net)
            for k, path in enumerate(leaf_paths(forest)):
                cp = path_angles(cap, path)
                for side, chain in (("left", left[k]), ("right", right[k])):
                    ref = develop_chain_reference(cap, cp, side)
                    assert chain.shape == ref.shape
                    assert np.abs(chain - ref).max() <= 1e-12 * diam
                for bank, ref in zip((bank_l[k], bank_r[k]),
                                     bank_chains_reference(cap, net, path)):
                    assert np.array_equal(bank, ref)

    def test_batched_banks_ordered_is_the_per_path_verdicts(self):
        cap, forest = oracle_set()[0]
        net = layout_net(cap, forest)
        want = []
        for path in leaf_paths(forest):
            L, R = bank_chains(cap, net, path)
            R = R.copy()
            R[0] = L[0]
            want += left_of([(L, R)], check="source")
        assert banks_ordered(cap, net, forest) == want

    def test_table_matches_per_path_references(self):
        # every leaf path at once over the forest table gives the chains,
        # banks, turn distortion and verdicts of the path-by-path
        # references, on the oracle caps, the large-net cap at four quarter
        # turns and the turned cap
        pairs = certificate_pairs()
        k = 0
        for cap, forest, net in certificate_caps():
            n = len(leaf_paths(forest))
            chains, banks = pairs["chains"][k:k + n], pairs["banks"][k:k + n]
            k += n
            left, right, bank_l, bank_r = table_chains(cap, forest, net)
            # a chain's first heading is the forest table's np.arctan2,
            # which is math.atan2 up to an ulp
            for got, want in zip(zip(left, right), chains):
                for g, w in zip(got, want):
                    assert g.shape == w.shape
                    assert np.abs(g - w).max() <= 4e-15
            for got, want in zip(zip(bank_l, bank_r), banks):
                assert np.array_equal(got[0], want[0])
                # the right bank's leaf image is the left one's in a pair
                assert np.array_equal(got[1][1:], want[1][1:])
            assert develop_mod.turn_distortion(
                forest, path_turns(cap, forest)) == max(
                turn_distortion(cap, p).max_abs for p in leaf_paths(forest))
            assert left_of(list(zip(left, right))) == left_of(chains)
            assert banks_ordered(cap, net, forest) == \
                left_of(banks, check="source")
        assert k == len(pairs["chains"]) > 4000

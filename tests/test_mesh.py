"""Cap mesh structure: adjacency, validation, curvature, circuit turns."""

import math
import re

import numpy as np
import pytest

from capunfold.geom import omega_bound
from capunfold.mesh import ConvexCap, compute_metrics, validate_cap
from fixtures import (DEG, adjacency_reference, fan_reference, flat_hex_disk,
                      oracle_set, pentagonal_pyramid, rim_fan, square_pyramid)
from lemmas import edge_point, enclosed_curvature, total_turn, vertex_point


class TestAdjacency:
    def test_pyramid_counts(self):
        cap = pentagonal_pyramid()
        assert cap.n_vertices == 6
        assert cap.n_triangles == 5
        assert cap.n_edges == 10
        assert len(adjacency_reference(cap.triangles).boundary_edges) == 5
        assert list(cap.interior_vertices) == [5]

    def test_rim_is_ccw(self):
        cap = pentagonal_pyramid()
        assert list(cap.rim) == [0, 1, 2, 3, 4]
        pts = cap.vertices[cap.rim, :2]
        nxt = np.roll(pts, -1, axis=0)
        area2 = (pts[:, 0] * nxt[:, 1] - pts[:, 1] * nxt[:, 0]).sum()
        assert area2 > 0

    def test_double_directed_edge_rejected(self):
        V = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], float)
        T = np.array([[0, 1, 2], [0, 1, 3]])  # both faces own 0->1
        with pytest.raises(ValueError):
            ConvexCap(V, T)

    def test_two_loops_rejected(self):
        # two disjoint triangles: boundary splits into two loops
        V = np.zeros((6, 3))
        V[:3, :2] = [[0, 0], [1, 0], [0, 1]]
        V[3:, :2] = [[10, 0], [11, 0], [10, 1]]
        T = np.array([[0, 1, 2], [3, 4, 5]])
        with pytest.raises(ValueError):
            ConvexCap(V, T)

    @pytest.mark.parametrize("T, message", [
        ([[0, 1, 2], [0, 1, 3]], "directed edge (0, 1) appears twice"),
        # three faces on one edge repeat one of its directions
        ([[0, 1, 2], [1, 0, 3], [0, 1, 4]], "directed edge (0, 1) appears twice"),
        ([[0, 2, 1], [0, 1, 3], [1, 2, 3], [2, 0, 3]], "mesh has no boundary"),
        ([[0, 1, 2], [3, 4, 5]], "boundary splits into multiple loops"),
        ([[0, 1, 6]], "triangle indices out of range"),
    ])
    def test_constructor_errors(self, T, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ConvexCap(np.zeros((6, 3)), T)


class TestFaceGraph:
    """The sorted-side adjacency against the face loop of
    :func:`fixtures.adjacency_reference`."""

    def test_matches_reference(self):
        caps = [pentagonal_pyramid(), square_pyramid(), flat_hex_disk(0.1)]
        caps += [cap for cap, _ in oracle_set()]
        for cap in caps:
            ref = adjacency_reference(cap.triangles)
            T = cap.triangles
            a, b = T.ravel().tolist(), T[:, [1, 2, 0]].ravel().tolist()
            ab = [ref.directed.get(side, -1) for side in zip(a, b)]
            ba = [ref.directed.get(side, -1) for side in zip(b, a)]
            assert cap.side_faces(a, b).tolist() == ab
            assert cap.side_faces(b, a).tolist() == ba
            assert (cap.side_faces(a, a) == -1).all()
            assert cap.face_neighbors().tolist() == np.reshape(ba, (-1, 3)).tolist()
            for v in range(cap.n_vertices):
                faces, corners = cap.vertex_corners(v)
                assert faces.tolist() == ref.vertex_faces.get(v, [])
                assert (T[faces, corners] == v).all()
            rim_vertices = {u for e in ref.boundary_edges for u in e}
            assert cap.n_edges == ref.n_edges
            assert cap.rim.tolist() == ref.rim
            assert cap.rim_vertex_set == rim_vertices
            assert cap.interior_vertices.tolist() == sorted(
                set(range(cap.n_vertices)) - rim_vertices)


class TestStarTable:
    """The lockstep star walk against the per-vertex dict walk of
    :func:`fixtures.fan_reference`."""

    def test_matches_reference(self):
        pyramid = pentagonal_pyramid()
        isolated = ConvexCap(np.vstack([pyramid.vertices, [[0.0, 0.0, 2.0]]]),
                             pyramid.triangles)
        caps = [pyramid, flat_hex_disk(0.0), isolated, rim_fan(400)]
        caps += [cap for cap, _ in oracle_set()]
        for cap in caps:
            for v in range(cap.n_vertices):
                neighbors, theta = cap.vertex_fan(v)
                ref_neighbors, ref_theta = fan_reference(cap, v)
                assert neighbors == ref_neighbors
                assert np.array_equal(theta, ref_theta)
                assert cap.fan_total(v) == ref_theta[-1]
        neighbors, theta = isolated.vertex_fan(6)
        assert neighbors == [] and theta.tolist() == [0.0]
        assert len(rim_fan(400).vertex_fan(400)[0]) == 400

    def test_pinched_vertex_raises_at_construction(self):
        from capunfold.generate import generate_budget_cap

        cap = generate_budget_cap(200, seed=0)
        T = cap.triangles.copy()
        T[T == 0] = 168
        with pytest.raises(ValueError,
                           match="fan at vertex 168 is not a single chain"):
            ConvexCap(cap.vertices, T)


class TestValidation:
    def test_good_caps_pass(self):
        for cap in (pentagonal_pyramid(), square_pyramid(), flat_hex_disk(0.1)):
            assert validate_cap(cap) == []

    def test_strict_acute_vs_non_obtuse(self):
        # square pyramid of height 0.3 has obtuse base angles? no: check both
        cap = pentagonal_pyramid()  # equilateral faces: strictly acute
        assert validate_cap(cap, angle_mode="strict_acute") == []
        # a right-angled flat disk passes non_obtuse but not strict_acute
        disk = flat_hex_disk(0.0)
        sq = ConvexCap(
            np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], float),
            np.array([[0, 1, 2], [0, 2, 3]]),
        )
        assert validate_cap(sq) == []
        assert any("acute" in s for s in validate_cap(sq, angle_mode="strict_acute"))
        assert validate_cap(disk) == []

    def test_clockwise_face_detected(self):
        cap = pentagonal_pyramid()
        T = cap.triangles.copy()
        T[0] = T[0][::-1]
        with pytest.raises(ValueError):
            # flipping one face creates a doubled directed edge
            ConvexCap(cap.vertices, T)

    def test_reflex_fold_detected(self):
        # pull the hex-disk center below the rim plane: saddle-free but the
        # cap must bulge upward
        cap = flat_hex_disk(-0.2)
        issues = validate_cap(cap)
        assert any("below the rim" in s for s in issues)

    def test_nonplanar_rim_detected(self):
        cap = pentagonal_pyramid()
        V = cap.vertices.copy()
        V[2, 2] += 0.05
        issues = validate_cap(ConvexCap(V, cap.triangles))
        assert any("rim is not planar" in s for s in issues)

    def test_messages_print_plain_integers(self):
        from capunfold.generate import generate_cap

        cap = generate_cap(200, phi=0.1, seed=0)
        V = cap.vertices.copy()
        V[3, :2] += 0.08
        bad = ConvexCap(V, cap.triangles)
        assert validate_cap(bad) == [
            "reflex fold across edge (10, 11): height 1.084e-02",
            "negative curvature at interior vertex 10",
            "obtuse face angle 138.460deg at (201, 2)"]
        assert validate_cap(bad, "strict_acute")[-1] == (
            "face angle 138.460deg at (201, 2) is not strictly acute")
        with pytest.raises(ValueError) as err:
            ConvexCap(V, np.r_[cap.triangles, cap.triangles[:1]])
        assert "np." not in str(err.value)


class TestCurvature:
    def test_apex_defect_is_60deg(self):
        cap = pentagonal_pyramid()
        assert cap.vertex_curvature(5) / DEG == pytest.approx(60.0, abs=1e-9)

    def test_flat_disk_has_zero_defect(self):
        cap = flat_hex_disk(0.0)
        assert cap.vertex_curvature(6) == pytest.approx(0.0, abs=1e-12)

    def test_rim_angles(self):
        cap = pentagonal_pyramid()
        psi, psi_pl = np.array(cap.rim_angles())[:, 0]  # rim[0] == 0
        assert psi / DEG == pytest.approx(120.0, abs=1e-9)
        assert psi_pl / DEG == pytest.approx(108.0, abs=1e-9)
        assert psi >= psi_pl  # projection never widens a rim corner

    def test_fan_total_matches_curvatures(self):
        from capunfold.generate import generate_budget_cap

        cap = generate_budget_cap(200, seed=0)
        fans = [cap.fan_total(int(v)) for v in cap.interior_vertices]
        assert np.array_equal(fans, 2 * math.pi - cap.curvatures())

    def test_face_neighbors_match_edge_faces(self):
        from capunfold.generate import generate_budget_cap

        for cap in (pentagonal_pyramid(), flat_hex_disk(0.1),
                    generate_budget_cap(200, seed=4)):
            nbr = cap.face_neighbors()
            assert nbr.shape == (cap.n_triangles, 3)
            assert cap.face_neighbors() is nbr and not nbr.flags.writeable
            for f, tri in enumerate(cap.triangles):
                for k in range(3):
                    a, b = int(tri[k]), int(tri[(k + 1) % 3])
                    other = [g for g in adjacency_reference(cap.triangles)
                             .edge_faces[(min(a, b), max(a, b))] if g != f]
                    assert nbr[f, k] == (other[0] if other else -1)

    def test_face_angles_computed_once(self):
        cap = pentagonal_pyramid()
        ang = cap.face_angles()
        assert cap.face_angles() is ang
        assert not ang.flags.writeable

    def test_metrics(self):
        cap = pentagonal_pyramid()
        m = compute_metrics(cap)
        assert m.phi_actual / DEG == pytest.approx(37.3774, abs=1e-3)
        assert m.alpha / DEG == pytest.approx(30.0, abs=1e-9)
        assert m.alpha_planar / DEG == pytest.approx(18.0, abs=1e-9)
        assert m.omega_total / DEG == pytest.approx(60.0, abs=1e-9)
        assert m.omega_total <= omega_bound(m.phi_actual)


def pyramid_circuit(cap):
    """Closed ccw circuit around the apex: a straight chord between two rim
    edge midpoints, lifted to the surface (crossing two apex edges), closed
    back along the rim."""
    P = cap.vertices[:, :2]
    d2 = 0.5 * (P[2] + P[3])
    a2 = 0.5 * (P[4] + P[0])

    def cross_t(e_end):
        A = np.column_stack([a2 - d2, -P[e_end]])
        _, t = np.linalg.solve(A, -d2)
        return t

    return [
        edge_point(2, 3, 0.5),
        edge_point(5, 3, cross_t(3)),
        edge_point(5, 4, cross_t(4)),
        edge_point(4, 0, 0.5),
        vertex_point(0),
        vertex_point(1),
        vertex_point(2),
    ]


class TestCircuits:
    def test_worked_example_turns(self):
        # [DERIVED] chord joins rim at arccos(1/4) = 75.5225deg; each apex-edge
        # crossing turns by -15.5225deg; rim vertices turn 60deg.
        cap = pentagonal_pyramid()
        circuit = pyramid_circuit(cap)
        tt = total_turn(cap, circuit)
        expected = 2 * 75.5225 + 2 * (-15.5225) + 3 * 60.0
        assert tt / DEG == pytest.approx(expected, abs=1e-3)

    def test_gauss_bonnet_closes(self):
        cap = pentagonal_pyramid()
        circuit = pyramid_circuit(cap)
        total = total_turn(cap, circuit) + enclosed_curvature(cap, circuit)
        assert total == pytest.approx(2 * math.pi, abs=1e-9)

    def test_rim_circuit_3d_and_planar(self):
        cap = pentagonal_pyramid()
        rim = [vertex_point(int(v)) for v in cap.rim]
        tt = total_turn(cap, rim)
        assert tt / DEG == pytest.approx(5 * 60.0, abs=1e-9)
        assert tt + enclosed_curvature(cap, rim) == pytest.approx(
            2 * math.pi, abs=1e-12
        )
        # projected rim turns are 72deg each
        psi, psi_pl = np.array(cap.rim_angles())[:, 0]  # rim[0] == 0
        assert (math.pi - psi_pl) / DEG == pytest.approx(72.0, abs=1e-9)

    def test_flat_disk_circuit_turns_2pi(self):
        cap = flat_hex_disk(0.0)
        rim = [vertex_point(int(v)) for v in cap.rim]
        assert total_turn(cap, rim) == pytest.approx(2 * math.pi, abs=1e-12)

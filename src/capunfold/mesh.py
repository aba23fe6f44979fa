"""Triangulated convex cap: topology, validation, curvature, and circuits.

A cap is a triangle mesh that is a topological disk, bulges upward over a
planar rim, and projects injectively onto the xy-plane.  Triangles are
oriented counterclockwise as seen from above (+z).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geom import EPS_GEOM, corner_angles, turn_angle


# --------------------------------------------------------------------------
# core data structure
# --------------------------------------------------------------------------


class ConvexCap:
    """Immutable triangle mesh with precomputed adjacency.

    Parameters
    ----------
    vertices : (n, 3) float array
    triangles : (m, 3) int array, counterclockwise seen from +z
    """

    def __init__(self, vertices, triangles):
        self.vertices = np.asarray(vertices, dtype=float)
        self.triangles = np.asarray(triangles, dtype=int)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise ValueError("vertices must be (n, 3)")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise ValueError("triangles must be (m, 3)")
        self._build_adjacency()

    # -- adjacency ---------------------------------------------------------

    def _build_adjacency(self):
        V, T = self.vertices, self.triangles
        self.n_vertices = len(V)
        self.n_triangles = len(T)

        # undirected edge -> list of incident face indices
        edge_faces: dict[tuple[int, int], list[int]] = {}
        # directed edge (a, b) -> face having a->b as a ccw side
        directed: dict[tuple[int, int], int] = {}
        for f, (a, b, c) in enumerate(T):
            for u, v in ((a, b), (b, c), (c, a)):
                key = (min(u, v), max(u, v))
                edge_faces.setdefault(key, []).append(f)
                if (u, v) in directed:
                    raise ValueError(
                        f"directed edge {(u, v)} appears twice: inconsistent "
                        "orientation or non-manifold mesh"
                    )
                directed[(u, v)] = f
        self.edge_faces = edge_faces
        self.directed_edge_face = directed
        self.n_edges = len(edge_faces)

        self.boundary_edges = {e for e, fs in edge_faces.items() if len(fs) == 1}
        self.interior_edges = {e for e, fs in edge_faces.items() if len(fs) == 2}
        bad = [e for e, fs in edge_faces.items() if len(fs) > 2]
        if bad:
            raise ValueError(f"non-manifold edges: {bad[:5]}")

        rim_vertices = set()
        for a, b in self.boundary_edges:
            rim_vertices.add(a)
            rim_vertices.add(b)
        self.rim_vertex_set = rim_vertices
        self.interior_vertices = np.array(
            sorted(set(range(self.n_vertices)) - rim_vertices), dtype=int
        )

        # faces incident to each vertex
        vf: list[list[int]] = [[] for _ in range(self.n_vertices)]
        for f, tri in enumerate(T):
            for v in tri:
                vf[v].append(f)
        self.vertex_faces = vf

        self.rim = self._trace_rim()
        self._fan_cache: dict[int, tuple[list[int], np.ndarray]] = {}
        self._angles_cache: np.ndarray | None = None
        self._neighbors_cache: np.ndarray | None = None

    def _trace_rim(self) -> np.ndarray:
        """Ordered rim vertex loop, counterclockwise seen from above.

        A ccw face lies to the left of each of its directed edges, so
        following boundary edges in their stored direction keeps the surface
        on the left: counterclockwise for a cap seen from above.
        """
        nxt = {}
        for a, b in self.boundary_edges:
            if (a, b) in self.directed_edge_face:
                nxt[a] = b
            else:
                nxt[b] = a
        if not nxt:
            raise ValueError("mesh has no boundary: not a disk with rim")
        start = min(nxt)
        loop = [start]
        cur = nxt[start]
        while cur != start:
            loop.append(cur)
            if len(loop) > len(nxt) + 1:
                raise ValueError("boundary is not a single simple loop")
            cur = nxt[cur]
        if len(loop) != len(nxt):
            raise ValueError("boundary splits into multiple loops")
        return np.array(loop, dtype=int)

    # -- local geometry ----------------------------------------------------

    def face_normal(self, f: int) -> np.ndarray:
        a, b, c = self.vertices[self.triangles[f]]
        n = np.cross(b - a, c - a)
        norm = np.linalg.norm(n)
        if norm == 0:
            raise ValueError(f"degenerate face {f}")
        return n / norm

    def face_angles(self) -> np.ndarray:
        """All corner angles, shape (m, 3) matching ``triangles``; computed
        once per cap and returned read-only."""
        if self._angles_cache is None:
            ang = corner_angles(self.vertices[self.triangles])
            ang.flags.writeable = False
            self._angles_cache = ang
        return self._angles_cache

    def face_neighbors(self) -> np.ndarray:
        """Face across each side, shape (m, 3): entry ``[f, k]`` is the face
        holding the reverse of side ``triangles[f, k] -> triangles[f, k+1]``,
        or -1 on the rim; computed once per cap and returned read-only."""
        if self._neighbors_cache is None:
            T, n = self.triangles, self.n_vertices
            a, b = T.ravel(), T[:, [1, 2, 0]].ravel()
            order = np.argsort(a * n + b)
            keys = (a * n + b)[order]
            pos = np.minimum(np.searchsorted(keys, b * n + a), len(keys) - 1)
            hit = keys[pos] == b * n + a
            nbr = np.where(hit, order[pos] // 3, -1).reshape(-1, 3)
            nbr.flags.writeable = False
            self._neighbors_cache = nbr
        return self._neighbors_cache

    def vertex_fan(self, v: int) -> tuple[list[int], np.ndarray]:
        """Neighbors of ``v`` in ccw order with cumulative intrinsic angles.

        Returns ``(neighbors, theta)`` where ``theta[j]`` is the angle swept
        from the first fan edge to edge ``v -> neighbors[j]`` when the corner
        wedges are unrolled in order.  Interior vertices get a full cycle
        (first neighbor repeated implicitly, total angle ``2*pi - omega``);
        rim vertices get an open fan from one boundary edge to the other
        (total angle ``psi``, the 3D rim angle).
        """
        cached = self._fan_cache.get(v)
        if cached is not None:
            return cached
        # in a ccw triangle (v, a, b) the wedge at v runs ccw from v->a to v->b
        ang = self.face_angles()
        succ = {}
        wedge = {}
        for f in self.vertex_faces[v]:
            tri = self.triangles[f]
            i = int(np.where(tri == v)[0][0])
            a, b = int(tri[(i + 1) % 3]), int(tri[(i + 2) % 3])
            succ[a] = b
            wedge[a] = ang[f, i]
        if v in self.rim_vertex_set:
            start = next(iter(set(succ) - set(succ.values())))
        else:
            start = min(succ)
        neighbors = [start]
        theta = [0.0]
        cur = start
        while cur in succ:
            nxt = succ[cur]
            theta.append(theta[-1] + wedge[cur])
            if nxt == start:
                break
            neighbors.append(nxt)
            cur = nxt
        if len(neighbors) != len(succ) + (1 if v in self.rim_vertex_set else 0):
            raise ValueError(f"fan at vertex {v} is not a single chain")
        # for an interior vertex theta has one extra entry: the cone angle
        result = (neighbors, np.array(theta))
        self._fan_cache[v] = result
        return result

    def fan_total(self, v: int) -> float:
        """Total intrinsic angle around ``v`` (cone angle / rim angle psi)."""
        _, theta = self.vertex_fan(v)
        return float(theta[-1])

    def fan_coordinate(self, v: int, direction: np.ndarray, face: int) -> float:
        """Intrinsic angular coordinate of a tangent ``direction`` at ``v``.

        The direction must lie in the corner wedge of ``face`` at ``v``; the
        coordinate is measured in the unrolled fan of :meth:`vertex_fan`.
        """
        neighbors, theta = self.vertex_fan(v)
        tri = self.triangles[face]
        i = int(np.where(tri == v)[0][0])
        a = int(tri[(i + 1) % 3])  # wedge runs ccw from v->a
        j = neighbors.index(a)
        e = self.vertices[a] - self.vertices[v]
        d = np.asarray(direction, dtype=float)
        cosang = np.dot(e, d) / (np.linalg.norm(e) * np.linalg.norm(d))
        return float(theta[j] + math.acos(np.clip(cosang, -1.0, 1.0)))

    def vertex_curvature(self, v: int) -> float:
        """Angle defect ``2*pi`` minus the cone angle (interior vertices)."""
        if v in self.rim_vertex_set:
            raise ValueError(f"vertex {v} is on the rim; curvature undefined")
        return 2 * math.pi - self.fan_total(v)

    def angle_sums(self) -> np.ndarray:
        """Total incident face angle at every vertex (vectorized)."""
        sums = np.zeros(self.n_vertices)
        np.add.at(sums, self.triangles.ravel(), self.face_angles().ravel())
        return sums

    def curvatures(self) -> np.ndarray:
        """Angle defects of all interior vertices (order of
        ``interior_vertices``)."""
        if len(self.interior_vertices) == 0:
            return np.zeros(0)
        return 2 * math.pi - self.angle_sums()[self.interior_vertices]

    def rim_angles(self, v: int) -> tuple[float, float]:
        """Return ``(psi, psi_planar)`` at rim vertex ``v``: the intrinsic
        surface angle and the angle of the projected rim corner."""
        if v not in self.rim_vertex_set:
            raise ValueError(f"vertex {v} is not on the rim")
        psi = self.fan_total(v)
        rim = self.rim
        i = int(np.where(rim == v)[0][0])
        prev_v = rim[(i - 1) % len(rim)]
        next_v = rim[(i + 1) % len(rim)]
        p = self.vertices[v][:2]
        u = self.vertices[prev_v][:2] - p
        w = self.vertices[next_v][:2] - p
        cosang = np.dot(u, w) / (np.linalg.norm(u) * np.linalg.norm(w))
        psi_pl = math.acos(np.clip(cosang, -1.0, 1.0))
        return psi, psi_pl


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CapMetrics:
    """Scalar shape summary of a cap (all angles in radians)."""

    phi_actual: float  # max tilt of any face normal from vertical
    alpha: float  # pi/2 minus the max 3D face angle (acuteness margin)
    alpha_planar: float  # same for the projected triangles
    omega_total: float  # total interior curvature
    n_vertices: int
    n_triangles: int


def compute_metrics(cap: ConvexCap) -> CapMetrics:
    V, T = cap.vertices, cap.triangles
    n = np.cross(V[T[:, 1]] - V[T[:, 0]], V[T[:, 2]] - V[T[:, 0]])
    nz = n[:, 2] / np.linalg.norm(n, axis=1)
    tilts = np.arccos(np.clip(nz, -1.0, 1.0))
    ang3 = cap.face_angles()
    ang2 = corner_angles(V[:, :2][T])
    return CapMetrics(
        phi_actual=float(max(tilts)),
        alpha=float(math.pi / 2 - ang3.max()),
        alpha_planar=float(math.pi / 2 - ang2.max()),
        omega_total=float(cap.curvatures().sum()) if len(cap.interior_vertices) else 0.0,
        n_vertices=cap.n_vertices,
        n_triangles=cap.n_triangles,
    )


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------


def validate_cap(cap: ConvexCap, angle_mode: str = "non_obtuse") -> list[str]:
    """Check every structural invariant; return a list of problems (empty
    means valid).

    ``angle_mode`` is ``"non_obtuse"`` (face angles <= 90deg) or
    ``"strict_acute"`` (< 90deg).
    """
    if angle_mode not in ("non_obtuse", "strict_acute"):
        raise ValueError(f"unknown angle_mode {angle_mode!r}")
    e = EPS_GEOM
    issues: list[str] = []
    V, T = cap.vertices, cap.triangles

    if T.min() < 0 or T.max() >= cap.n_vertices:
        return ["triangle indices out of range"]

    # disk topology
    euler = cap.n_vertices - cap.n_edges + cap.n_triangles
    if euler != 1:
        issues.append(f"Euler characteristic {euler} != 1 (not a disk)")

    # injective upward projection: every projected triangle positively
    # oriented, and their areas tile the projected rim polygon exactly
    P = V[:, :2]
    a, b, c = P[T[:, 0]], P[T[:, 1]], P[T[:, 2]]
    u, w = b - a, c - a
    areas2 = u[:, 0] * w[:, 1] - u[:, 1] * w[:, 0]  # twice signed area
    scale = max(1.0, float(np.abs(P).max()) ** 2)
    if np.any(areas2 <= e * scale):
        k = int(np.argmin(areas2))
        issues.append(
            f"projected face {k} is degenerate or clockwise "
            f"(signed area {areas2[k] / 2:.3e})"
        )
    rim_pts = P[cap.rim]
    nxt = np.roll(rim_pts, -1, axis=0)
    rim_area2 = float(
        (rim_pts[:, 0] * nxt[:, 1] - rim_pts[:, 1] * nxt[:, 0]).sum()
    )
    if not math.isclose(float(areas2.sum()), rim_area2,
                        rel_tol=1e-9, abs_tol=e * scale):
        issues.append(
            "projected faces overlap: summed face area "
            f"{areas2.sum() / 2:.6g} != rim polygon area {rim_area2 / 2:.6g}"
        )

    # rim planarity
    rim_z = V[cap.rim, 2]
    z_spread = float(np.ptp(rim_z))
    if z_spread > e * max(1.0, float(np.abs(V).max())):
        issues.append(f"rim is not planar (z spread {z_spread:.3e})")
    if np.any(V[cap.interior_vertices, 2] < rim_z.max() - e):
        issues.append("an interior vertex lies below the rim plane")

    # convex dihedrals: across each interior edge the far vertex of one face
    # lies (weakly) below the plane of the other
    diam = float(np.linalg.norm(V.max(axis=0) - V.min(axis=0))) or 1.0
    if cap.interior_edges:
        edges = np.array(sorted(cap.interior_edges))
        f1 = np.array([cap.edge_faces[tuple(ed)][0] for ed in edges])
        f2 = np.array([cap.edge_faces[tuple(ed)][1] for ed in edges])
        opp = np.array(
            [_opposite_vertex(cap, f, a_, b_) for f, (a_, b_) in zip(f2, edges)]
        )
        tri1 = T[f1]
        normals = np.cross(V[tri1[:, 1]] - V[tri1[:, 0]], V[tri1[:, 2]] - V[tri1[:, 0]])
        normals /= np.linalg.norm(normals, axis=1)[:, None]
        heights = np.einsum("ij,ij->i", normals, V[opp] - V[edges[:, 0]])
        if np.any(heights > e * diam):
            k = int(np.argmax(heights))
            issues.append(
                f"reflex fold across edge {tuple(edges[k])}: "
                f"height {heights[k]:.3e}"
            )

    # nonnegative curvature at interior vertices
    curv = cap.curvatures()
    if len(curv) and curv.min() < -e:
        v = cap.interior_vertices[int(np.argmin(curv))]
        issues.append(f"negative curvature at interior vertex {v}")

    # angle condition
    ang = cap.face_angles()
    if angle_mode == "strict_acute":
        if ang.max() >= math.pi / 2 - e:
            k = np.unravel_index(np.argmax(ang), ang.shape)
            issues.append(
                f"face angle {math.degrees(ang.max()):.3f}deg at {k} is not "
                "strictly acute"
            )
    else:
        if ang.max() > math.pi / 2 + e:
            k = np.unravel_index(np.argmax(ang), ang.shape)
            issues.append(
                f"obtuse face angle {math.degrees(ang.max()):.3f}deg at {k}"
            )

    return issues


def _opposite_vertex(cap: ConvexCap, f: int, a: int, b: int) -> int:
    tri = cap.triangles[f]
    for v in tri:
        if v != a and v != b:
            return int(v)
    raise ValueError(f"face {f} does not contain edge ({a}, {b})")


# --------------------------------------------------------------------------
# surface circuits and their total turn
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CircuitPoint:
    """A point of a surface polyline: a mesh vertex or a point on an edge."""

    kind: str  # "vertex" | "edge"
    index: int = -1  # vertex id when kind == "vertex"
    edge: tuple[int, int] = (-1, -1)  # endpoints when kind == "edge"
    t: float = 0.0  # position along edge[0] -> edge[1]


def vertex_point(v: int) -> CircuitPoint:
    return CircuitPoint(kind="vertex", index=int(v))


def edge_point(a: int, b: int, t: float) -> CircuitPoint:
    return CircuitPoint(kind="edge", edge=(int(a), int(b)), t=float(t))


def circuit_position(cap: ConvexCap, p: CircuitPoint) -> np.ndarray:
    if p.kind == "vertex":
        return cap.vertices[p.index]
    a, b = p.edge
    return (1 - p.t) * cap.vertices[a] + p.t * cap.vertices[b]


def _carrier_faces(cap: ConvexCap, p: CircuitPoint) -> set[int]:
    if p.kind == "vertex":
        return set(cap.vertex_faces[p.index])
    a, b = p.edge
    return set(cap.edge_faces[(min(a, b), max(a, b))])


def _segment_face(cap: ConvexCap, p: CircuitPoint, q: CircuitPoint) -> int:
    common = _carrier_faces(cap, p) & _carrier_faces(cap, q)
    if not common:
        raise ValueError(f"circuit segment {p} -> {q} does not lie in a face")
    return min(common)


def _face_frame(cap: ConvexCap, f: int):
    """Orientation-preserving isometry of face ``f`` into the plane."""
    a, b, c = cap.vertices[cap.triangles[f]]
    ex = b - a
    ex = ex / np.linalg.norm(ex)
    n = cap.face_normal(f)
    ey = np.cross(n, ex)

    def to2d(p):
        d = p - a
        return np.array([np.dot(d, ex), np.dot(d, ey)])

    return to2d


def _turn_across_edge(cap: ConvexCap, p_prev, p, p_next, f_in, f_out) -> float:
    """Signed turn at an edge point, unfolding ``f_out`` flat onto ``f_in``."""
    to2d = _face_frame(cap, f_in)
    a2, p2 = to2d(p_prev), to2d(p)
    if f_in == f_out:
        c2 = to2d(p_next)
        return turn_angle(a2, p2, c2)
    # shared edge endpoints in both frames define the unfolding isometry
    shared = set(cap.triangles[f_in]) & set(cap.triangles[f_out])
    if len(shared) != 2:
        raise ValueError("faces do not share an edge")
    u, w = sorted(shared)
    to2d_out = _face_frame(cap, f_out)
    src = np.array([to2d_out(cap.vertices[u]), to2d_out(cap.vertices[w])])
    dst = np.array([to2d(cap.vertices[u]), to2d(cap.vertices[w])])
    c_src = to2d_out(p_next)
    c2 = _apply_rigid(src, dst, c_src)
    return turn_angle(a2, p2, c2)


def _apply_rigid(src: np.ndarray, dst: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Apply the orientation-preserving rigid map taking segment ``src`` to
    ``dst`` to the point ``p`` (all 2D)."""
    ds, dd = src[1] - src[0], dst[1] - dst[0]
    ang = math.atan2(dd[1], dd[0]) - math.atan2(ds[1], ds[0])
    c, s = math.cos(ang), math.sin(ang)
    R = np.array([[c, -s], [s, c]])
    return dst[0] + R @ (p - src[0])


def _turn_at_vertex(cap: ConvexCap, v: int, p_prev, p_next, f_in, f_out) -> float:
    """Signed turn at a vertex: ``pi`` minus the intrinsic angle on the left
    of the traversal, measured ccw in the unrolled fan."""
    u_dir = p_prev - cap.vertices[v]
    w_dir = p_next - cap.vertices[v]
    theta_u = cap.fan_coordinate(v, u_dir, f_in)
    theta_w = cap.fan_coordinate(v, w_dir, f_out)
    left = theta_u - theta_w
    if v not in cap.rim_vertex_set:
        total = cap.fan_total(v)
        left = left % total
    return math.pi - left


def total_turn(cap: ConvexCap, circuit: list[CircuitPoint],
               closed: bool = True) -> float:
    """Sum of signed turn angles along a surface polyline.

    Each consecutive segment must lie within a single face.  For a closed
    counterclockwise circuit, Gauss-Bonnet gives
    ``total_turn + enclosed_curvature == 2*pi``.
    """
    pts = list(circuit)
    n = len(pts)
    if closed:
        rng = range(n)
    else:
        rng = range(1, n - 1)
    pos = [circuit_position(cap, p) for p in pts]
    turns = 0.0
    for i in rng:
        p_prev, p, p_next = pts[i - 1], pts[i], pts[(i + 1) % n]
        f_in = _segment_face(cap, p_prev, p)
        f_out = _segment_face(cap, p, pts[(i + 1) % n])
        if p.kind == "vertex":
            turns += _turn_at_vertex(
                cap, p.index, pos[i - 1], pos[(i + 1) % n], f_in, f_out
            )
        else:
            turns += _turn_across_edge(
                cap, pos[i - 1], pos[i], pos[(i + 1) % n], f_in, f_out
            )
    return turns


def enclosed_curvature(cap: ConvexCap, circuit: list[CircuitPoint]) -> float:
    """Total angle defect of interior vertices strictly inside the projected
    circuit polygon (circuit vertices themselves excluded)."""
    poly = np.array([circuit_position(cap, p)[:2] for p in circuit])
    on_circuit = {p.index for p in circuit if p.kind == "vertex"}
    total = 0.0
    for v in cap.interior_vertices:
        v = int(v)
        if v in on_circuit:
            continue
        if _point_in_polygon(cap.vertices[v, :2], poly):
            total += cap.vertex_curvature(v)
    return total


def _point_in_polygon(pt: np.ndarray, poly: np.ndarray) -> bool:
    x, y = pt
    inside = False
    n = len(poly)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        if (y1 > y) != (y2 > y):
            xi = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if x < xi:
                inside = not inside
    return inside

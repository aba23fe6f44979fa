"""Checkers of the paper's lemmas, used by the tests as oracles.

- Gauss-Bonnet on surface circuits: ``total_turn + enclosed_curvature ==
  2*pi`` for a closed counterclockwise circuit, from the signed planar
  :func:`turn_angle` at each point.
- Angle-monotone chains with theta <= 90deg are radially monotone, and
  radial monotonicity by sampled distances.
- The direction cone of a chain, and the turn-distortion bound.

The circuit code reads the cap's adjacency from
:func:`fixtures.adjacency_reference`, not from the library's face graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from capunfold.geom import EPS_GEOM, normalize_angle, unwrap_directions
from capunfold.mesh import ConvexCap

from fixtures import adjacency_reference, chain_radially_monotone
from monotone_reference import _as_chain


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


def _carrier_faces(adj, p: CircuitPoint) -> set[int]:
    if p.kind == "vertex":
        return set(adj.vertex_faces[p.index])
    a, b = p.edge
    return set(adj.edge_faces[(min(a, b), max(a, b))])


def _segment_face(adj, p: CircuitPoint, q: CircuitPoint) -> int:
    common = _carrier_faces(adj, p) & _carrier_faces(adj, q)
    if not common:
        raise ValueError(f"circuit segment {p} -> {q} does not lie in a face")
    return min(common)


def face_normal(cap: ConvexCap, f: int) -> np.ndarray:
    a, b, c = cap.vertices[cap.triangles[f]]
    n = np.cross(b - a, c - a)
    norm = np.linalg.norm(n)
    if norm == 0:
        raise ValueError(f"degenerate face {f}")
    return n / norm


def _face_frame(cap: ConvexCap, f: int):
    """Orientation-preserving isometry of face ``f`` into the plane."""
    a, b, c = cap.vertices[cap.triangles[f]]
    ex = b - a
    ex = ex / np.linalg.norm(ex)
    n = face_normal(cap, f)
    ey = np.cross(n, ex)

    def to2d(p):
        d = p - a
        return np.array([np.dot(d, ex), np.dot(d, ey)])

    return to2d


def turn_angle(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> float:
    """Signed CCW exterior (turn) angle at b for the planar polyline a->b->c,
    in (-pi, pi].

    Zero for collinear continuation, +pi/2 for a left right-angle turn.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    d_in, d_out = b - a, c - b
    return normalize_angle(math.atan2(d_out[1], d_out[0])
                           - math.atan2(d_in[1], d_in[0]))


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


def fan_coordinate(cap: ConvexCap, v: int, direction: np.ndarray,
                   face: int) -> float:
    """Intrinsic angular coordinate of a tangent ``direction`` at ``v``.

    The direction must lie in the corner wedge of ``face`` at ``v``; the
    coordinate is measured in the unrolled fan of ``cap.vertex_fan(v)``.
    """
    neighbors, theta = cap.vertex_fan(v)
    tri = cap.triangles[face]
    i = int(np.where(tri == v)[0][0])
    a = int(tri[(i + 1) % 3])  # wedge runs ccw from v->a
    j = neighbors.index(a)
    e = cap.vertices[a] - cap.vertices[v]
    d = np.asarray(direction, dtype=float)
    cosang = np.dot(e, d) / (np.linalg.norm(e) * np.linalg.norm(d))
    return float(theta[j] + math.acos(np.clip(cosang, -1.0, 1.0)))


def _turn_at_vertex(cap: ConvexCap, v: int, p_prev, p_next, f_in, f_out) -> float:
    """Signed turn at a vertex: ``pi`` minus the intrinsic angle on the left
    of the traversal, measured ccw in the unrolled fan."""
    u_dir = p_prev - cap.vertices[v]
    w_dir = p_next - cap.vertices[v]
    theta_u = fan_coordinate(cap, v, u_dir, f_in)
    theta_w = fan_coordinate(cap, v, w_dir, f_out)
    left = theta_u - theta_w
    if v not in cap.rim_vertex_set:
        total = cap.fan_totals()[v]
        left = left % total
    return math.pi - left


def total_turn(cap: ConvexCap, circuit: list[CircuitPoint],
               closed: bool = True) -> float:
    """Sum of signed turn angles along a surface polyline.

    Each consecutive segment must lie within a single face.  For a closed
    counterclockwise circuit, Gauss-Bonnet gives
    ``total_turn + enclosed_curvature == 2*pi``.
    """
    adj = adjacency_reference(cap.triangles)
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
        f_in = _segment_face(adj, p_prev, p)
        f_out = _segment_face(adj, p, pts[(i + 1) % n])
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
            total += 2 * math.pi - cap.fan_totals()[v]
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


# --------------------------------------------------------------------------
# radial monotonicity by distances, and the angle-monotone implication
# --------------------------------------------------------------------------


def distances_nondecreasing(points, source) -> bool:
    """Definition by distances: sampled at vertices and edge midpoints."""
    pts = _as_chain(points)
    src = np.asarray(source, dtype=float)
    samples = []
    for i in range(len(pts) - 1):
        samples.append(pts[i])
        samples.append(0.5 * (pts[i] + pts[i + 1]))
    samples.append(pts[-1])
    d = np.linalg.norm(np.asarray(samples) - src, axis=1)
    return bool(np.all(np.diff(d) >= -EPS_GEOM * max(1.0, d.max())))


def verify_angle_monotone(points, theta: float) -> float | None:
    """Certify that all edge directions of a planar polyline fit in a wedge
    of width ``theta``: return the wedge base ``beta``, or ``None``.

    Directions are unwrapped relative to the first edge, which is exact for
    any ``theta < pi``.
    """
    pts = np.asarray(points, dtype=float)
    if len(pts) < 2:
        raise ValueError("polyline needs at least one edge")
    d = np.diff(pts, axis=0)
    ang = np.arctan2(d[:, 1], d[:, 0])
    rel = ang[0] + unwrap_directions(ang)
    spread = float(rel.max() - rel.min())
    if spread <= theta + EPS_GEOM:
        return float(rel.min())
    return None


def angle_monotone_implies_rm(points, theta: float) -> bool:
    """Check the implication: a theta-monotone chain with theta <= 90deg is
    radially monotone.  A counterexample is a hard failure."""
    if theta > math.pi / 2 + EPS_GEOM:
        raise ValueError("implication only claimed for theta <= pi/2")
    beta = verify_angle_monotone(points, theta)
    if beta is None:
        raise ValueError("chain is not theta-monotone; implication vacuous")
    ok, witness = chain_radially_monotone(points)
    if not ok:
        raise AssertionError(
            f"theta-monotone chain failed radial monotonicity at {witness}"
        )
    return True


# --------------------------------------------------------------------------
# direction cones and the turn-distortion bound
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Cone:
    sigma_min: float
    sigma_max: float

    @property
    def measure(self) -> float:
        return self.sigma_max - self.sigma_min


def cone_of(points) -> Cone:
    """Smallest direction interval covering all edge directions, unwrapped
    relative to the first edge."""
    pts = _as_chain(points)
    d = np.diff(pts, axis=0)
    ang = np.arctan2(d[:, 1], d[:, 0])
    rel = ang[0] + unwrap_directions(ang)
    return Cone(sigma_min=float(rel.min()), sigma_max=float(rel.max()))


def within_bound(td, metrics) -> bool:
    """Whether a turn distortion (anything with a ``max_abs``, as
    ``fixtures.turn_distortion`` gives) keeps the bound
    3*delta_perp(Phi) + 2*Omega of its cap's
    :class:`capunfold.mesh.CapMetrics`."""
    return td.max_abs <= 3 * metrics.delta_perp_max + 2 * metrics.omega_total + 1e-9

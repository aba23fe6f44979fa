"""Triangulated convex cap: topology, validation, curvature and metrics.

A cap is a triangle mesh that is a topological disk, bulges upward over a
planar rim, and projects injectively onto the xy-plane.  Triangles are
oriented counterclockwise as seen from above (+z).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geom import EPS_GEOM, corner_angles


# --------------------------------------------------------------------------
# core data structure
# --------------------------------------------------------------------------


class ConvexCap:
    """Immutable triangle mesh, its face graph and its vertex stars.

    The one adjacency kept is the list of directed sides ``a -> b`` of all
    faces, sorted once by ``a*n + b``: :meth:`side_faces`,
    :meth:`face_neighbors`, the rim and the edge count all come from it.
    :meth:`vertex_corners` reads one sort of the corners by vertex.  The
    counterclockwise star of every vertex is walked once, in flat arrays:
    :meth:`vertex_fan`, the cone and rim angles and the curvatures read it.

    Parameters
    ----------
    vertices : (n, 3) float array
    triangles : (m, 3) int array, counterclockwise seen from +z
    """

    def __init__(self, vertices, triangles):
        self.vertices = np.asarray(vertices, dtype=float)
        self.triangles = T = np.asarray(triangles, dtype=int)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise ValueError("vertices must be (n, 3)")
        if T.ndim != 2 or T.shape[1] != 3:
            raise ValueError("triangles must be (m, 3)")
        self.n_vertices = n = len(self.vertices)
        self.n_triangles = len(T)
        if T.size and (T.min() < 0 or T.max() >= n):
            raise ValueError("triangle indices out of range")

        # side k of face f runs from corner k to corner k+1 (flat index 3f+k);
        # three faces on one edge always repeat one of its two directions
        a, b = T.ravel(), T[:, [1, 2, 0]].ravel()
        order = np.argsort(a * n + b, kind="stable")
        keys = (a * n + b)[order]
        twice = order[1:][keys[1:] == keys[:-1]]
        if len(twice):
            k = int(twice.min())
            raise ValueError(
                f"directed edge {(int(a[k]), int(b[k]))} appears twice: "
                "inconsistent orientation or non-manifold mesh")
        # a sentinel above every key keeps each search inside the arrays
        self._side_keys = np.append(keys, n * n)
        self._side_index = np.append(order, -1)
        across = self._side_index_of(b, a)
        self._neighbors = (across // 3).reshape(-1, 3)
        self._neighbors.flags.writeable = False
        self._corners = np.argsort(a, kind="stable")
        self._corner_start = np.concatenate(
            [[0], np.cumsum(np.bincount(a, minlength=n))])

        rim = across < 0
        self.n_edges = (3 * self.n_triangles + int(rim.sum())) // 2
        self.rim = _trace_rim(a[rim], b[rim])
        self.rim_vertex_set = set(a[rim].tolist())
        self.interior_vertices = np.setdiff1d(np.arange(n), a[rim])
        self._angles = corner_angles(self.vertices[T])
        self._walk_stars(a, b, across)

    def _walk_stars(self, v_of, a_of, across):
        """Walk every vertex star at once, one array step per star position.
        Slot ``p`` of ``v`` (``_star_start[v] + p``) holds the neighbour where
        wedge ``p`` starts and the angle swept before it, summed one wedge at
        a time as a walk around ``v`` alone sums it; a last slot closes the
        star."""
        # in a ccw triangle (v, a, b) the wedge at v runs ccw from v->a to
        # v->b; the next wedge is v's corner in the face across side b->v,
        # whose flat index is that of the side v->b.  Past an open end the
        # walk reads corner -1, the appended last entries, and stays there.
        b_of = self.triangles[:, [2, 0, 1]].ravel()
        succ = np.append(across.reshape(-1, 3)[:, [2, 0, 1]], -1)
        wedge = np.append(self._angles, 0.0)
        # a rim star starts at the corner whose side v->a has no face across,
        # an interior star at its smallest neighbour: its first side in the
        # sorted sides
        start = self._side_index[self._corner_start[:-1]]
        start[v_of[across < 0]] = np.flatnonzero(across < 0)
        # stars by falling degree, so those still walking form a prefix
        degree = np.diff(self._corner_start)
        walked = np.argsort(-degree, kind="stable")[:np.count_nonzero(degree)]
        self._star_start = off = np.concatenate([[0], np.cumsum(degree + 1)])
        corner = np.full(off[-1], -1)
        self._star_theta = theta = np.zeros(off[-1])
        s, cur = off[walked], start[walked]
        for k in np.cumsum(np.bincount(degree)[:0:-1])[::-1].tolist():
            cur, s = cur[:k], s[:k]
            corner[s] = cur
            theta[s + 1] = theta[s] + wedge[cur]
            cur, s = succ[cur], s + 1
        broken = v_of[np.bincount(corner + 1, minlength=len(v_of) + 1)[1:] != 1]
        if len(broken):
            raise ValueError(
                f"fan at vertex {int(broken.min())} is not a single chain")
        self._star_nbr = nbr = np.append(a_of, -1)[corner]
        nbr[off[walked + 1] - 1] = b_of[corner[off[walked + 1] - 2]]
        for arr in (self._angles, nbr, theta):
            arr.flags.writeable = False

    # -- adjacency ---------------------------------------------------------

    def _side_index_of(self, a, b) -> np.ndarray:
        """Flat index ``3f + k`` of the directed side ``a -> b``, or -1."""
        key = np.asarray(a) * self.n_vertices + np.asarray(b)
        pos = np.searchsorted(self._side_keys, key)
        return np.where(self._side_keys[pos] == key, self._side_index[pos], -1)

    def side_faces(self, a, b) -> np.ndarray:
        """Face holding the directed side ``a -> b`` (counterclockwise), or
        -1 where no face does; elementwise over arrays of vertex ids."""
        return self._side_index_of(a, b) // 3

    def face_neighbors(self) -> np.ndarray:
        """Face across each side, shape (m, 3): entry ``[f, k]`` is the face
        holding the reverse of side ``triangles[f, k] -> triangles[f, k+1]``,
        or -1 on the rim; read-only."""
        return self._neighbors

    def vertex_corners(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """Faces around ``v`` in ascending order, and ``v``'s corner in each."""
        c = self._corners[self._corner_start[v]:self._corner_start[v + 1]]
        return c // 3, c % 3

    # -- local geometry ----------------------------------------------------

    def face_angles(self) -> np.ndarray:
        """All corner angles, shape (m, 3) matching ``triangles``; read-only."""
        return self._angles

    def vertex_fan(self, v: int) -> tuple[list[int], np.ndarray]:
        """Neighbors of ``v`` in ccw order with cumulative intrinsic angles.

        Returns ``(neighbors, theta)`` where ``theta[j]`` is the angle swept
        from the first fan edge to edge ``v -> neighbors[j]`` when the corner
        wedges are unrolled in order.  Interior vertices get a full cycle
        (first neighbor repeated implicitly, total angle ``2*pi - omega``);
        rim vertices get an open fan from one boundary edge to the other
        (total angle ``psi``, the 3D rim angle).  ``theta`` is a read-only
        view of the star table.
        """
        s, e = self._star_start[v], self._star_start[v + 1]
        # for an interior vertex theta has one extra entry: the cone angle
        closed = v not in self.rim_vertex_set
        return self._star_nbr[s:e - closed].tolist(), self._star_theta[s:e]

    def fan_totals(self) -> np.ndarray:
        """Total intrinsic angle around every vertex: the cone angle inside,
        the rim angle psi on the rim."""
        return self._star_theta[self._star_start[1:] - 1]

    def fan_total(self, v: int) -> float:
        """Total intrinsic angle around ``v`` (cone angle / rim angle psi)."""
        return float(self._star_theta[self._star_start[v + 1] - 1])

    def vertex_curvature(self, v: int) -> float:
        """Angle defect ``2*pi`` minus the cone angle (interior vertices)."""
        if v in self.rim_vertex_set:
            raise ValueError(f"vertex {v} is on the rim; curvature undefined")
        return 2 * math.pi - self.fan_total(v)

    def curvatures(self) -> np.ndarray:
        """Angle defects of all interior vertices (order of
        ``interior_vertices``)."""
        return 2 * math.pi - self.fan_totals()[self.interior_vertices]

    def rim_angles(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(psi, psi_planar)`` at every rim vertex, in the order of
        ``rim``: the intrinsic surface angle and the angle of the projected
        rim corner."""
        r = self.rim
        corners = self.vertices[np.c_[r, np.roll(r, 1), np.roll(r, -1)], :2]
        return self.fan_totals()[r], corner_angles(corners)[:, 0]


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
        omega_total=float(cap.curvatures().sum()),
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

    # convex dihedrals: across each interior edge lo-hi, between faces
    # f < g, the far vertex of g lies (weakly) below the plane of f; edges
    # are taken in (lo, hi) order
    diam = float(np.linalg.norm(V.max(axis=0) - V.min(axis=0))) or 1.0
    nbr = cap.face_neighbors()
    f, k = np.nonzero(nbr > np.arange(cap.n_triangles)[:, None])
    lo = np.minimum(T[f, k], T[f, (k + 1) % 3])
    hi = np.maximum(T[f, k], T[f, (k + 1) % 3])
    s = np.lexsort((hi, lo))
    f, g, lo, hi = f[s], nbr[f, k][s], lo[s], hi[s]
    opp = T[g].sum(axis=1) - lo - hi
    normals = np.cross(V[T[f, 1]] - V[T[f, 0]], V[T[f, 2]] - V[T[f, 0]])
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    heights = np.einsum("ij,ij->i", normals, V[opp] - V[lo])
    if np.any(heights > e * diam):
        k = int(np.argmax(heights))
        issues.append(f"reflex fold across edge {(int(lo[k]), int(hi[k]))}: "
                      f"height {heights[k]:.3e}")

    # nonnegative curvature at interior vertices
    curv = cap.curvatures()
    if len(curv) and curv.min() < -e:
        v = cap.interior_vertices[int(np.argmin(curv))]
        issues.append(f"negative curvature at interior vertex {v}")

    # angle condition
    ang = cap.face_angles()
    if angle_mode == "strict_acute":
        if ang.max() >= math.pi / 2 - e:
            k = divmod(int(np.argmax(ang)), 3)
            issues.append(
                f"face angle {math.degrees(ang.max()):.3f}deg at {k} is not "
                "strictly acute"
            )
    else:
        if ang.max() > math.pi / 2 + e:
            k = divmod(int(np.argmax(ang)), 3)
            issues.append(
                f"obtuse face angle {math.degrees(ang.max()):.3f}deg at {k}"
            )

    return issues


def _trace_rim(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rim vertex loop from the rim sides ``a -> b``, counterclockwise seen
    from above: a ccw face lies left of each of its sides, so following the
    rim sides in their own direction keeps the surface on the left."""
    if not len(a):
        raise ValueError("mesh has no boundary: not a disk with rim")
    nxt = dict(zip(a.tolist(), b.tolist()))
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

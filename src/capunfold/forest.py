"""Boundary-rooted spanning forest of angle-monotone paths on the projected cap.

Directions seen from the origin vertex q are split into four quadrant wedges
of width theta = pi/2 - alpha' plus a leftover gap cone of angle
2*pi - 4*theta = 4*alpha', aimed so it contains no interior vertex.  Paths
are grown along triangulation edges whose planar directions stay inside one
quadrant's wedge; every leaf-to-root path is therefore theta-angle-monotone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geom import (EPS_GEOM, Wedge, normalize_angle, unwrap_directions,
                   wedge_contains)
from .mesh import ConvexCap, compute_metrics

_PERTURB = 1e-6  # axis rotation step when a vertex lands on an axis


class ForestError(RuntimeError):
    """Raised when forest growth contradicts the non-obtuse premise."""


@dataclass(frozen=True)
class QuadrantSystem:
    """Origin vertex plus the angular frame splitting directions into four
    theta-wedges and one empty gap cone."""

    origin: int
    theta: float
    gap_direction: float
    axis_rotation: float = 0.0

    @property
    def gap_angle(self) -> float:
        return 2 * math.pi - 4 * self.theta

    @property
    def base(self) -> float:
        """CCW end of the gap cone = start of quadrant 0."""
        return self.gap_direction + 0.5 * self.gap_angle

    def quadrant(self, i: int) -> Wedge:
        if not 0 <= i < 4:
            raise ValueError("quadrant index must be 0..3")
        return Wedge(base=self.base + i * self.theta, width=self.theta)

    def quadrant_of(self, direction):
        """Quadrant index of an absolute direction, or -1 for the gap cone;
        an array of directions gives an int array of indices.

        Quadrants are half-open: closed on their clockwise axis, open on
        their counterclockwise axis.
        """
        rel = (direction - self.base) % (2 * math.pi)
        if isinstance(rel, np.ndarray):
            i = (rel // self.theta).astype(int)
            return np.where(i < 4, i, -1)
        i = int(rel // self.theta)
        return i if i < 4 else -1

    def gap_wedge(self) -> Wedge:
        return Wedge(base=self.gap_direction - 0.5 * self.gap_angle,
                     width=self.gap_angle)


@dataclass
class SpanningForest:
    """Parent-pointer forest over the interior vertices, rooted on the rim."""

    parent: dict[int, int]
    roots: set[int]
    quadrant_of_vertex: dict[int, int]
    system: QuadrantSystem

    def path_to_root(self, v: int) -> list[int]:
        path = [v]
        seen = {v}
        while path[-1] in self.parent:
            nxt = self.parent[path[-1]]
            if nxt in seen:
                raise ForestError(f"cycle through vertex {nxt}")
            path.append(nxt)
            seen.add(nxt)
        return path

    def edges(self) -> list[tuple[int, int]]:
        return sorted(self.parent.items())

    def children(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for v, p in self.parent.items():
            out.setdefault(p, []).append(v)
        return out

    def leaves(self) -> list[int]:
        parents = set(self.parent.values())
        return sorted(v for v in self.parent if v not in parents)

    def trees(self) -> list[list[int]]:
        """Interior vertices grouped by tree, one group per used root."""
        kids = self.children()
        groups = []
        for r in sorted(self.roots):
            stack = list(kids.get(r, []))
            group = []
            while stack:
                v = stack.pop()
                group.append(v)
                stack.extend(kids.get(v, []))
            if group:
                groups.append(sorted(group))
        return groups

    def tree_curvatures(self, cap: ConvexCap) -> list[float]:
        omega = 2 * math.pi - cap.fan_totals()
        return [sum(omega[t].tolist()) for t in self.trees()]


# --------------------------------------------------------------------------
# angle-monotonicity certificate
# --------------------------------------------------------------------------


def verify_angle_monotone(points: np.ndarray, theta: float) -> float | None:
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


# --------------------------------------------------------------------------
# origin selection
# --------------------------------------------------------------------------


def choose_origin(cap: ConvexCap, mode: str = "closest_to_boundary",
                  theta: float | None = None) -> QuadrantSystem:
    """Pick the quadrant origin q and aim the empty gap cone.

    ``closest_to_boundary`` aims the gap along the shortest segment from q to
    the rim polygon; ``central`` takes the innermost vertex and scans gap
    directions, falling back to ``closest_to_boundary``.
    """
    if len(cap.interior_vertices) == 0:
        raise ForestError("cap has no interior vertices (trivial cap)")
    if mode not in ("closest_to_boundary", "central"):
        raise ValueError(f"unknown origin mode {mode!r}")
    if theta is None:
        theta = math.pi / 2 - compute_metrics(cap).alpha_planar
    if not 0 < theta <= math.pi / 2:
        raise ForestError(f"invalid wedge width theta={theta}")

    P = cap.vertices[:, :2]
    rim_pts = P[cap.rim]
    dists, dirs = _rim_distances(P[cap.interior_vertices], rim_pts)

    if mode == "central":
        k = int(np.argmax(dists))
        q = int(cap.interior_vertices[k])
        # an empty gap cone must fit inside an interior-vertex-free angular
        # interval around q, so only centers of wide-enough intervals are
        # worth settling
        needed = 2 * math.pi - 4 * theta
        angles = np.sort(_angles_from(cap, q, cap.interior_vertices))
        candidates: list[float] = []
        if len(angles):
            widths = np.diff(np.concatenate([angles, [angles[0] + 2 * math.pi]]))
            for j in np.argsort(widths)[::-1]:
                if widths[j] <= needed:
                    break
                candidates.append(float(angles[j] + widths[j] / 2))
        else:
            candidates.append(0.0)
        for gap_dir in candidates:
            qs = _settle_axes(cap, QuadrantSystem(q, theta, float(gap_dir)))
            if qs is not None:
                return qs
    # closest_to_boundary, also the fallback of central
    k = int(np.argmin(dists))
    q = int(cap.interior_vertices[k])
    qs = _settle_axes(cap, QuadrantSystem(q, theta, float(dirs[k])))
    if qs is not None:
        return qs
    raise ForestError("could not aim an empty gap cone from the "
                      "boundary-nearest vertex")


def _rim_distances(pts: np.ndarray, rim_pts: np.ndarray):
    """Distance from each point to the rim polyline and the direction toward
    the nearest rim point."""
    a = rim_pts
    b = np.roll(rim_pts, -1, axis=0)
    ab = b - a
    denom = np.einsum("ij,ij->i", ab, ab)
    best_d = np.full(len(pts), np.inf)
    best_dir = np.zeros(len(pts))
    for j in range(len(a)):
        t = np.clip((pts - a[j]) @ ab[j] / denom[j], 0.0, 1.0)
        proj = a[j] + t[:, None] * ab[j]
        delta = proj - pts
        d = np.linalg.norm(delta, axis=1)
        better = d < best_d
        best_d[better] = d[better]
        best_dir[better] = np.arctan2(delta[better, 1], delta[better, 0])
    return best_d, best_dir


def _angles_from(cap: ConvexCap, q: int, vertices) -> np.ndarray:
    P = cap.vertices[:, :2]
    vs = np.asarray([v for v in vertices if int(v) != q], dtype=int)
    d = P[vs] - P[q]
    return np.arctan2(d[:, 1], d[:, 0])


def _gap_empty_angles(angles: np.ndarray, qs: QuadrantSystem) -> bool:
    gap = qs.gap_wedge()
    rel = np.mod(angles - gap.base, 2 * math.pi)
    e = EPS_GEOM
    return not bool(np.any((rel > -e) & (rel < gap.width + e)))


def gap_is_empty(cap: ConvexCap, qs: QuadrantSystem) -> bool:
    """No interior vertex other than q falls inside the gap cone."""
    angles = _angles_from(cap, int(qs.origin), cap.interior_vertices)
    return _gap_empty_angles(angles, qs)


def _any_on_axis(angles: np.ndarray, qs: QuadrantSystem) -> bool:
    tol = EPS_GEOM * 10
    for i in range(5):
        ax = qs.base + i * qs.theta
        rel = np.mod(angles - ax + math.pi, 2 * math.pi) - math.pi
        if bool(np.any(np.abs(rel) < tol)):
            return True
    return False


def _settle_axes(cap: ConvexCap, qs: QuadrantSystem,
                 max_steps: int = 100) -> QuadrantSystem | None:
    """Nudge the frame so no vertex sits on an axis and the gap stays empty."""
    q = int(qs.origin)
    interior_angles = _angles_from(cap, q, cap.interior_vertices)
    all_angles = _angles_from(cap, q, range(cap.n_vertices))
    for k in range(max_steps):
        step = _PERTURB * ((k + 1) // 2) * (1 if k % 2 else -1)
        cand = QuadrantSystem(
            origin=qs.origin,
            theta=qs.theta,
            gap_direction=qs.gap_direction + step,
            axis_rotation=step,
        )
        if not _gap_empty_angles(interior_angles, cand):
            continue
        if not _any_on_axis(all_angles, cand):
            return cand
    return None


# --------------------------------------------------------------------------
# path growth
# --------------------------------------------------------------------------


def grow_path(
    cap: ConvexCap,
    in_forest: set[int],
    v: int,
    wedge: Wedge,
    avoid: int | None = None,
) -> list[int]:
    """Walk from interior vertex ``v`` along edges whose planar directions
    lie in ``wedge`` until reaching the rim or an existing forest vertex.

    ``avoid`` (the quadrant origin) is stepped into only when it is the sole
    admissible neighbor; callers treat that as a retry signal upstream.
    """
    P = cap.vertices[:, :2]
    path = [v]
    cur = v
    visited = {v}
    for _ in range(cap.n_vertices + 1):
        neighbors, _ = cap.vertex_fan(cur)
        admissible = []
        for u in neighbors:
            d = P[u] - P[cur]
            ang = math.atan2(d[1], d[0])
            if wedge_contains(wedge, ang):
                off = abs(normalize_angle(ang - wedge.bisector))
                admissible.append((off, u))
        if not admissible:
            raise ForestError(
                f"no admissible edge at vertex {cur} for wedge "
                f"[{wedge.base:.6f}, +{wedge.width:.6f}]; "
                f"neighbor star: {neighbors}"
            )
        admissible.sort()
        chosen = None
        for _, u in admissible:
            if u != avoid:
                chosen = u
                break
        if chosen is None:
            chosen = admissible[0][1]  # forced through the origin
        if chosen in visited:
            raise ForestError(f"path revisited vertex {chosen}")
        path.append(chosen)
        visited.add(chosen)
        if chosen in cap.rim_vertex_set or chosen in in_forest:
            return path
        cur = chosen
    raise ForestError("path growth failed to terminate")


# --------------------------------------------------------------------------
# forest construction
# --------------------------------------------------------------------------


def build_forest(cap: ConvexCap, qs: QuadrantSystem,
                 max_retries: int = 50) -> SpanningForest:
    """Grow a boundary-rooted spanning forest of theta-monotone paths.

    The origin q is spanned first and kept a leaf; if some later path is
    forced through q, the whole construction retries with nudged axes.
    """
    attempt_qs = qs
    last_err: Exception | None = None
    for _ in range(max_retries):
        try:
            return _build_once(cap, attempt_qs)
        except _RetryThroughOrigin as err:
            last_err = err
            nudged = _settle_axes(
                cap,
                QuadrantSystem(
                    origin=attempt_qs.origin,
                    theta=attempt_qs.theta,
                    gap_direction=attempt_qs.gap_direction + 37 * _PERTURB,
                ),
            )
            if nudged is None:
                break
            attempt_qs = nudged
    raise ForestError(f"forest construction kept routing through the origin: "
                      f"{last_err}")


class _RetryThroughOrigin(ForestError):
    pass


def _build_once(cap: ConvexCap, qs: QuadrantSystem) -> SpanningForest:
    P = cap.vertices[:, :2]
    q = qs.origin
    origin_xy = P[q]
    parent: dict[int, int] = {}
    roots: set[int] = set()
    quadrant_of_vertex: dict[int, int] = {}
    in_forest: set[int] = set()

    def commit(path: list[int], quad: int) -> None:
        for a, b in zip(path, path[1:]):
            parent[a] = b
            quadrant_of_vertex.setdefault(a, quad)
        in_forest.update(path[:-1])
        end = path[-1]
        if end in cap.rim_vertex_set:
            roots.add(end)
        in_forest.add(end)

    # span the origin first so it stays a leaf of its tree
    quad0 = _best_quadrant_for_origin(cap, qs)
    path = grow_path(cap, in_forest, q, qs.quadrant(quad0))
    commit(path, quad0)

    for i in range(4):
        wedge = qs.quadrant(i)
        members = []
        for v in cap.interior_vertices:
            v = int(v)
            if v == q:
                continue
            d = P[v] - origin_xy
            if qs.quadrant_of(math.atan2(d[1], d[0])) == i:
                members.append((-float(np.hypot(*d)), v))
        members.sort()
        for _, v in members:
            if v in in_forest:
                continue
            path = grow_path(cap, in_forest, v, wedge, avoid=q)
            if q in path[1:]:
                raise _RetryThroughOrigin(
                    f"path from {v} forced through origin {q}"
                )
            commit(path, i)

    missing = set(int(v) for v in cap.interior_vertices) - set(parent)
    if missing:
        raise ForestError(f"forest failed to span vertices {sorted(missing)}")
    return SpanningForest(parent=parent, roots=roots,
                          quadrant_of_vertex=quadrant_of_vertex, system=qs)


def _best_quadrant_for_origin(cap: ConvexCap, qs: QuadrantSystem) -> int:
    """Quadrant whose wedge holds the edge at q best centered in it."""
    P = cap.vertices[:, :2]
    neighbors, _ = cap.vertex_fan(qs.origin)
    best = None
    for u in neighbors:
        d = P[u] - P[qs.origin]
        ang = math.atan2(d[1], d[0])
        i = qs.quadrant_of(ang)
        if i < 0:
            continue
        off = abs(normalize_angle(ang - qs.quadrant(i).bisector))
        if best is None or off < best[0]:
            best = (off, i)
    if best is None:
        raise ForestError(f"no edge at origin {qs.origin} lies in any quadrant")
    return best[1]


# --------------------------------------------------------------------------
# whole-forest verification
# --------------------------------------------------------------------------


def verify_forest(cap: ConvexCap, forest: SpanningForest) -> list[str]:
    """Re-derive every forest invariant; return a list of violations."""
    issues: list[str] = []
    qs = forest.system
    P = cap.vertices[:, :2]

    interior = set(int(v) for v in cap.interior_vertices)
    if set(forest.parent) != interior:
        issues.append("forest does not span the interior vertices exactly")
    for r in forest.roots:
        if r not in cap.rim_vertex_set:
            issues.append(f"root {r} is not on the rim")

    for v in forest.leaves():
        path = forest.path_to_root(v)
        if path[-1] not in cap.rim_vertex_set:
            issues.append(f"path from {v} ends off the rim at {path[-1]}")
        beta = verify_angle_monotone(P[path], qs.theta)
        if beta is None:
            issues.append(f"path from {v} is not {qs.theta:.4f}-monotone")

    E = np.array(forest.edges(), dtype=int).reshape(-1, 2)
    sides = cap.side_faces(np.r_[E[:, 0], E[:, 1]], np.r_[E[:, 1], E[:, 0]])
    for a, b in E[sides.reshape(2, -1).max(axis=0) < 0].tolist():
        issues.append(f"forest edge ({a}, {b}) is not a mesh edge")

    if not gap_is_empty(cap, qs):
        issues.append("gap cone contains an interior vertex")

    parents = set(forest.parent.values())
    if qs.origin in parents:
        issues.append("origin q is not a leaf")
    return issues

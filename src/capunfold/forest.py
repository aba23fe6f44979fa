"""Boundary-rooted spanning forest of angle-monotone paths on the projected cap.

Directions seen from the origin vertex q are split into four quadrant wedges
of width theta = pi/2 - alpha' plus a leftover gap cone of angle
2*pi - 4*theta = 4*alpha', aimed so it contains no interior vertex.  Paths
are grown along triangulation edges whose planar directions stay inside one
quadrant's wedge; every leaf-to-root path is therefore theta-angle-monotone.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .geom import (EPS_GEOM, Wedge, direction_spreads, normalize_angle,
                   unwrap_directions, wedge_contains)
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

    def quadrant_of(self, directions) -> np.ndarray:
        """Quadrant index of each absolute direction, or -1 for the gap
        cone, as an int array.

        Quadrants are half-open: closed on their clockwise axis, open on
        their counterclockwise axis.
        """
        i = (np.mod(directions - self.base, 2 * math.pi) // self.theta).astype(int)
        return np.where(i < 4, i, -1)

    def gap_wedge(self) -> Wedge:
        return Wedge(base=self.gap_direction - 0.5 * self.gap_angle,
                     width=self.gap_angle)


@dataclass
class SpanningForest:
    """Parent-pointer forest over the interior vertices, rooted on the rim.

    Its table is built once, from the parent links, with the forest:
    ``edges`` (the ``(child, parent)`` links sorted by child), their planar
    ``directions``, the sorted ``leaves``, each leaf's path to the rim
    (``leaf_paths``, views of ``path_vertices`` split at ``path_offsets``),
    the tree ``root`` of every vertex, the set of tree ``roots`` and the
    edges tree by tree (``tree_order``, roots then children ascending; tree
    ``t`` starts at ``tree_starts[t]``).  A cycle raises
    :class:`ForestError`; ``parent`` must not change afterwards.
    """

    parent: dict[int, int]
    roots: set[int] = field(init=False)
    quadrant_of_vertex: dict[int, int]
    system: QuadrantSystem
    cap: InitVar[ConvexCap]
    edges: np.ndarray = field(init=False, repr=False, compare=False)
    directions: np.ndarray = field(init=False, repr=False, compare=False)
    leaves: np.ndarray = field(init=False, repr=False, compare=False)
    path_vertices: np.ndarray = field(init=False, repr=False, compare=False)
    path_offsets: np.ndarray = field(init=False, repr=False, compare=False)
    leaf_paths: tuple = field(init=False, repr=False, compare=False)
    root: np.ndarray = field(init=False, repr=False, compare=False)
    tree_order: np.ndarray = field(init=False, repr=False, compare=False)
    tree_starts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self, cap: ConvexCap) -> None:
        E = np.array(sorted(self.parent.items()), dtype=np.intp).reshape(-1, 2)
        child, par = E[:, 0], E[:, 1]
        up = np.arange(cap.n_vertices)
        up[child] = par
        # pointer jumping: after k rounds root[v] is v's 2**k-th ancestor or
        # its root, so a root that has a parent link lies on a cycle
        root = up
        for _ in range(len(up).bit_length()):
            root = root[root]
        cyclic = np.intersect1d(root[child], child)
        if len(cyclic):
            raise ForestError(f"cycle through vertex {cyclic[0]}")
        # walk all leaves at once, each staying put once on its root
        leaves = np.setdiff1d(child, par)
        walk = [leaves]
        while (up[walk[-1]] != walk[-1]).any():
            walk.append(up[walk[-1]])
        walk = np.stack(walk, axis=1)
        length = 1 + (walk[:, 1:] != walk[:, :-1]).sum(axis=1)
        offsets = np.concatenate([[0], np.cumsum(length)])
        flat = walk[np.arange(walk.shape[1]) < length[:, None]]
        d = cap.vertices[par, :2] - cap.vertices[child, :2]
        order = np.argsort(root[child], kind="stable")
        self.edges, self.leaves, self.root = E, leaves, root
        self.roots = set(root[child].tolist())
        self.directions = np.arctan2(d[:, 1], d[:, 0])
        self.path_vertices, self.path_offsets = flat, offsets
        self.leaf_paths = tuple(flat[i:j] for i, j in zip(offsets, offsets[1:]))
        self.tree_order = order
        self.tree_starts = np.flatnonzero(np.diff(root[child][order], prepend=-1))

    def tree_curvatures(self, cap: ConvexCap) -> list[float]:
        """Curvature enclosed by each tree, summed child by child."""
        omega = 2 * math.pi - cap.fan_totals()
        members = omega[self.edges[self.tree_order, 0]]
        return [sum(t.tolist()) for t in np.split(members, self.tree_starts[1:])]


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
    in_forest: dict[int, int] | set[int],
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
    parent: dict[int, int] = {}   # paths stop at its keys or on the rim
    quadrant_of_vertex: dict[int, int] = {}

    def commit(path: list[int], quad: int) -> None:
        for a, b in zip(path, path[1:]):
            parent[a] = b
            quadrant_of_vertex.setdefault(a, quad)

    # span the origin first so it stays a leaf of its tree
    quad0 = _best_quadrant_for_origin(cap, qs)
    path = grow_path(cap, parent, q, qs.quadrant(quad0))
    commit(path, quad0)

    # each quadrant's members, farthest from q first, ties by label
    others = cap.interior_vertices[cap.interior_vertices != q]
    d = P[others] - P[q]
    order = np.lexsort((others, -np.hypot(d[:, 0], d[:, 1])))
    quad = qs.quadrant_of(np.arctan2(d[:, 1], d[:, 0]))[order]
    for i in range(4):
        wedge = qs.quadrant(i)
        for v in others[order][quad == i].tolist():
            if v in parent:
                continue
            path = grow_path(cap, parent, v, wedge, avoid=q)
            if q in path[1:]:
                raise _RetryThroughOrigin(
                    f"path from {v} forced through origin {q}"
                )
            commit(path, i)

    missing = set(int(v) for v in cap.interior_vertices) - set(parent)
    if missing:
        raise ForestError(f"forest failed to span vertices {sorted(missing)}")
    return SpanningForest(parent=parent, quadrant_of_vertex=quadrant_of_vertex,
                          system=qs, cap=cap)


def _best_quadrant_for_origin(cap: ConvexCap, qs: QuadrantSystem) -> int:
    """Quadrant whose wedge holds the edge at q best centered in it."""
    P = cap.vertices[:, :2]
    neighbors, _ = cap.vertex_fan(qs.origin)
    d = P[neighbors] - P[qs.origin]
    ang = np.arctan2(d[:, 1], d[:, 0])
    i = qs.quadrant_of(ang)
    off = np.abs(unwrap_directions(ang, qs.base + i * qs.theta + 0.5 * qs.theta))
    off[i < 0] = np.inf
    if np.isinf(off.min(initial=np.inf)):
        raise ForestError(f"no edge at origin {qs.origin} lies in any quadrant")
    return int(i[off.argmin()])


# --------------------------------------------------------------------------
# whole-forest verification
# --------------------------------------------------------------------------


def verify_forest(cap: ConvexCap, forest: SpanningForest) -> list[str]:
    """Re-derive every forest invariant from the forest table; return a list
    of violations."""
    issues: list[str] = []
    qs = forest.system
    E = forest.edges

    if not np.array_equal(E[:, 0], cap.interior_vertices):
        issues.append("forest does not span the interior vertices exactly")
    if forest.parent != dict(E.tolist()):
        issues.append("parent links changed after the forest table was built")

    # every leaf path ends on the rim and its edge directions fit in theta
    ends = forest.root[forest.leaves]
    on_rim = np.isin(ends, cap.rim)
    steps = np.delete(forest.path_vertices, forest.path_offsets[1:] - 1)
    spreads = direction_spreads(
        forest.directions[np.searchsorted(E[:, 0], steps)],
        forest.path_offsets[:-1] - np.arange(len(forest.leaves)))
    monotone = spreads <= qs.theta + EPS_GEOM
    for j in np.flatnonzero(~on_rim | ~monotone).tolist():
        v = int(forest.leaves[j])
        if not on_rim[j]:
            issues.append(f"path from {v} ends off the rim at {int(ends[j])}")
        if not monotone[j]:
            issues.append(f"path from {v} is not {qs.theta:.4f}-monotone")

    sides = cap.side_faces(np.r_[E[:, 0], E[:, 1]], np.r_[E[:, 1], E[:, 0]])
    for a, b in E[sides.reshape(2, -1).max(axis=0) < 0].tolist():
        issues.append(f"forest edge ({a}, {b}) is not a mesh edge")

    if not gap_is_empty(cap, qs):
        issues.append("gap cone contains an interior vertex")

    if qs.origin in E[:, 1]:
        issues.append("origin q is not a leaf")
    return issues

"""Boundary-rooted spanning forest of angle-monotone paths on the projected cap.

Directions seen from the origin vertex q are split into four quadrant wedges
of width theta = pi/2 - alpha' plus a leftover gap cone of angle
2*pi - 4*theta = 4*alpha', aimed so it contains no interior vertex.  Paths
are grown along triangulation edges whose planar directions stay inside one
quadrant's wedge; every leaf-to-root path is therefore theta-angle-monotone.

The greedy step of a path depends only on the vertex and the wedge, so one
array pass over the cap's vertex-star table gives four successor arrays,
one per quadrant.  The forest is then q's own walk followed by four
level-wise closures: all still-unclaimed vertices of a quadrant walk its
successor array together, one array step per level, until each walk meets
the rim or a claimed vertex.  q is the interior vertex nearest to the rim
(or, in ``central`` mode, the farthest when its gap cone fits); only the
points and rim segments that can decide it are measured, pruned with a
k-d tree over the rim segments' midpoints.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import InitVar, dataclass, field
from itertools import chain
from types import MappingProxyType

import numpy as np
from scipy.spatial import cKDTree

from .geom import EPS_GEOM, Wedge, direction_spreads, unwrap_directions
from .mesh import ConvexCap, compute_metrics

_PERTURB = 1e-6  # axis rotation step when a vertex lands on an axis
_SETTLE_STEPS = 100  # axis rotations _settle_axes tries


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


@dataclass(eq=False)
class SpanningForest:
    """Parent-pointer forest over the interior vertices, rooted on the rim.

    ``edges`` holds one ``(child, parent)`` row per interior vertex, sorted
    by child, and ``quadrant`` the quadrant whose wedge each row's edge was
    grown in.  The rest of the table is built once from the edges: their
    planar ``directions``, the sorted ``leaves``, each leaf's path to the
    rim (``path_vertices`` split at ``path_offsets``; ``path_steps`` are the
    positions with an edge to the next, all but each root, and
    ``path_headings`` that edge's direction, 0 at a root), the tree
    ``root`` of every vertex and the edges tree by tree (``tree_order``,
    roots then children ascending; tree ``t`` starts at ``tree_starts[t]``).
    A cycle raises :class:`ForestError`.
    """

    edges: np.ndarray
    quadrant: np.ndarray
    system: QuadrantSystem
    cap: InitVar[ConvexCap]
    directions: np.ndarray = field(init=False, repr=False)
    leaves: np.ndarray = field(init=False, repr=False)
    path_vertices: np.ndarray = field(init=False, repr=False)
    path_offsets: np.ndarray = field(init=False, repr=False)
    path_steps: np.ndarray = field(init=False, repr=False)
    path_headings: np.ndarray = field(init=False, repr=False)
    root: np.ndarray = field(init=False, repr=False)
    tree_order: np.ndarray = field(init=False, repr=False)
    tree_starts: np.ndarray = field(init=False, repr=False)

    @property
    def parent(self) -> Mapping[int, int]:
        """Read-only ``child -> parent`` view of ``edges``, built on each
        access."""
        return MappingProxyType(dict(self.edges.tolist()))

    def __post_init__(self, cap: ConvexCap) -> None:
        child, par = self.edges[:, 0], self.edges[:, 1]
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
        self.leaves, self.root = leaves, root
        self.directions = np.arctan2(d[:, 1], d[:, 0])
        self.path_vertices, self.path_offsets = flat, offsets
        self.path_steps = np.delete(np.arange(len(flat)), offsets[1:] - 1)
        heading = np.zeros(cap.n_vertices)
        heading[child] = self.directions
        self.path_headings = heading[flat]
        self.tree_order = order
        self.tree_starts = np.flatnonzero(np.diff(root[child][order], prepend=-1))

    def tree_curvatures(self, cap: ConvexCap) -> list[float]:
        """Curvature enclosed by each tree, summed child by child."""
        omega = 2 * math.pi - cap.fan_totals()
        members = omega[self.edges[self.tree_order, 0]]
        return [sum(t.tolist()) for t in np.split(members, self.tree_starts[1:])]


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
        theta = compute_metrics(cap).theta
    if not 0 < theta <= math.pi / 2:
        raise ForestError(f"invalid wedge width theta={theta}")

    P = cap.vertices[:, :2]
    near, far, near_dir = _rim_distances(P[cap.interior_vertices], P[cap.rim])

    if mode == "central":
        q = int(cap.interior_vertices[far])
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
    q = int(cap.interior_vertices[near])
    qs = _settle_axes(cap, QuadrantSystem(q, theta, near_dir))
    if qs is not None:
        return qs
    raise ForestError("could not aim an empty gap cone from the "
                      "boundary-nearest vertex")


def _rim_distances(pts: np.ndarray, rim_pts: np.ndarray) -> tuple[int, int, float]:
    """Index of the point nearest to the rim polyline, index of the point
    farthest from it (first of ties), and the direction from the nearest
    point toward its nearest rim point.

    Only pairs that can decide these are evaluated.  The segment of a
    point's nearest midpoint bounds its distance above, that midpoint's
    distance less the longest half segment bounds it below, so only points
    whose bounds reach the least upper or the greatest lower bound are
    candidates; each gets its exact distance from the segments whose
    midpoints a k-d tree finds within its upper bound plus a half segment.
    """
    a = rim_pts
    ab = np.roll(rim_pts, -1, axis=0) - a
    half = 0.5 * float(np.sqrt((ab * ab).sum(axis=1)).max())
    slack = 1e-9 * float(np.ptp(a, axis=0).max())
    tree = cKDTree(a + 0.5 * ab)
    dm, jm = tree.query(pts)
    upper = _segment_distances(pts, a[jm], ab[jm])
    lower = dm - half
    cand = np.flatnonzero((lower <= upper.min() + slack)
                          | (upper >= lower.max() - slack))
    near = tree.query_ball_point(pts[cand], upper[cand] + half + slack,
                                 return_sorted=True)
    count = np.fromiter(map(len, near), dtype=np.intp, count=len(near))
    j = np.fromiter(chain.from_iterable(near), dtype=np.intp, count=count.sum())
    d = _segment_distances(pts[np.repeat(cand, count)], a[j], ab[j])
    starts = np.cumsum(count) - count
    best = np.minimum.reduceat(d, starts)
    k = int(np.argmin(best))
    return (int(cand[k]), int(cand[np.argmax(best)]),
            _scan_direction(pts, a, ab, int(cand[k]), near[k]))


def _scan_direction(pts, a, ab, k: int, segments) -> float:
    """Direction from point ``k`` toward its nearest rim point, found as a
    segment-by-segment scan finds it: the first of tied segments wins, and
    each ``t`` comes from a matvec over all points, whose bits depend on
    the row's place in the array."""
    denom = np.einsum("ij,ij->i", ab, ab)
    best, direction = math.inf, 0.0
    for j in segments:
        t = min(max(float(((pts - a[j]) @ ab[j])[k] / denom[j]), 0.0), 1.0)
        delta = a[j] + t * ab[j] - pts[k]
        d = math.sqrt(delta[0] * delta[0] + delta[1] * delta[1])
        if d < best:
            best, direction = d, float(np.arctan2(delta[1], delta[0]))
    return direction


def _segment_distances(p: np.ndarray, a: np.ndarray, ab: np.ndarray):
    """Distance from each point ``p`` to the segment from ``a`` along
    ``ab``, row by row."""
    w = p - a
    t = np.clip((w[:, 0] * ab[:, 0] + w[:, 1] * ab[:, 1])
                / (ab[:, 0] * ab[:, 0] + ab[:, 1] * ab[:, 1]), 0.0, 1.0)
    delta = a + t[:, None] * ab - p
    return np.sqrt(delta[:, 0] * delta[:, 0] + delta[:, 1] * delta[:, 1])


def _angles_from(cap: ConvexCap, q: int, vertices) -> np.ndarray:
    vs = np.asarray(vertices)
    d = cap.vertices[vs[vs != q], :2] - cap.vertices[q, :2]
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


def _settle_axes(cap: ConvexCap, qs: QuadrantSystem) -> QuadrantSystem | None:
    """Nudge the frame so no vertex sits on an axis and the gap stays empty."""
    q = int(qs.origin)
    interior_angles = _angles_from(cap, q, cap.interior_vertices)
    all_angles = _angles_from(cap, q, np.arange(cap.n_vertices))
    for k in range(_SETTLE_STEPS):
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
# forest construction
# --------------------------------------------------------------------------


def build_forest(cap: ConvexCap, qs: QuadrantSystem) -> SpanningForest:
    """Grow a boundary-rooted spanning forest of theta-monotone paths.

    q's own walk comes first, then each quadrant in order: every vertex
    still unclaimed in it walks its quadrant's successors to the rim or a
    claimed vertex, all walks advancing together one level at a time.  No
    walk reaches q, which stays a leaf: a seed lies in q + C_i and every
    step in wedge i widened by ``EPS_GEOM``, a pointed cone narrower than
    pi.  A vertex with no step raises :class:`ForestError` naming the
    smallest such label of the first level that has one.
    """
    P = cap.vertices[:, :2]
    q = qs.origin
    star = _star_directions(cap)
    nxt = _successors(cap, qs, star)
    parent = np.full(cap.n_vertices, -1)
    quadrant = np.full(cap.n_vertices, -1)
    stop = np.zeros(cap.n_vertices, dtype=bool)   # on the rim or claimed
    stop[cap.rim] = True

    others = cap.interior_vertices[cap.interior_vertices != q]
    d = P[others] - P[q]
    member = qs.quadrant_of(np.arctan2(d[:, 1], d[:, 0]))
    walks = [(_best_quadrant_for_origin(cap, qs, star), np.array([q]))]
    walks += [(i, others[member == i]) for i in range(4)]
    for i, seeds in walks:
        step = nxt[i]
        for front in _levels(step, seeds[~stop[seeds]], stop):
            to = step[front]
            if (to < 0).any():
                v = int(front[to < 0].min())
                wedge = qs.quadrant(i)
                raise ForestError(
                    f"no admissible edge at vertex {v} for wedge "
                    f"[{wedge.base:.6f}, +{wedge.width:.6f}]; "
                    f"neighbor star: {cap.vertex_fan(v)[0]}")
            parent[front], quadrant[front], stop[front] = to, i, True

    child = np.flatnonzero(parent >= 0)
    missing = np.setdiff1d(cap.interior_vertices, child)
    if len(missing):
        raise ForestError(f"forest failed to span vertices {missing.tolist()}")
    return SpanningForest(np.column_stack([child, parent[child]]),
                          quadrant[child], qs, cap)


def _star_directions(cap: ConvexCap):
    """Owner, neighbour and planar direction of every vertex-star entry."""
    owner = np.repeat(np.arange(cap.n_vertices), np.diff(cap._star_start))
    nbr = cap._star_nbr
    d = cap.vertices[nbr, :2] - cap.vertices[owner, :2]
    return owner, nbr, np.arctan2(d[:, 1], d[:, 0])


def _in_wedge(wedge: Wedge, ang: np.ndarray) -> np.ndarray:
    """Which directions lie in the closed wedge, within ``EPS_GEOM`` on
    both sides; elementwise over an array of angles."""
    delta = np.fmod(ang - wedge.base, 2.0 * math.pi)
    delta = np.where(delta < 0.0, delta + 2.0 * math.pi, delta)
    # a direction just below ``base`` wraps to delta ~ 2*pi
    return ((delta <= wedge.width + EPS_GEOM)
            | (delta >= 2.0 * math.pi - EPS_GEOM))


def _successors(cap: ConvexCap, qs: QuadrantSystem, star) -> np.ndarray:
    """The greedy step of every vertex in each quadrant wedge, shape (4, n).

    Entry ``[i, v]`` is the neighbour of ``v`` whose edge lies in quadrant
    ``i``'s closed wedge closest to its bisector (ties to the smaller
    label), or -1; q needs no rule, as no walk of a pointed wedge returns
    to it.  The step depends on nothing but the vertex and the wedge, so
    one pass over the vertex-star table finds all.
    """
    owner, nbr, ang = star
    n, first = cap.n_vertices, cap._star_start[:-1]
    out = np.full((4, n), -1)
    for i in range(4):
        wedge = qs.quadrant(i)
        off = np.abs(unwrap_directions(ang, wedge.bisector))
        key = np.where(_in_wedge(wedge, ang) & (nbr >= 0), off, np.inf)
        best = np.minimum.reduceat(key, first)
        won = (key == best[owner]) & (key < np.inf)
        step = np.minimum.reduceat(np.where(won, nbr, n), first)
        out[i] = np.where(step < n, step, -1)
    return out


def _levels(step: np.ndarray, seeds: np.ndarray, stop: np.ndarray):
    """Walk every seed along ``step`` at once, one level at a time, until
    each walk meets a vertex in ``stop``; yield each level's vertices.  The
    caller adds a yielded level to ``stop`` before asking for the next."""
    slot = np.empty(len(step), dtype=np.intp)
    front = seeds
    while len(front):
        yield front
        nxt = step[front]
        nxt = nxt[~stop[nxt]]
        # walks that merge keep one copy: the last write to a slot wins
        slot[nxt] = np.arange(len(nxt))
        front = nxt[slot[nxt] == np.arange(len(nxt))]


def _best_quadrant_for_origin(cap: ConvexCap, qs: QuadrantSystem, star) -> int:
    """Quadrant whose wedge holds the edge at q best centered in it."""
    # q's star entries, less the last one, which closes the star
    ang = star[2][cap._star_start[qs.origin]:cap._star_start[qs.origin + 1] - 1]
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

    # every leaf path ends on the rim and its edge directions fit in theta
    ends = forest.root[forest.leaves]
    on_rim = np.isin(ends, cap.rim)
    spreads = direction_spreads(
        forest.path_headings[forest.path_steps],
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

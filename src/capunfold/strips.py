"""Waterfall paths of the projected cap.

Each quadrant holds noncrossing, angle-monotone "waterfall"
polylines running from the forest leaves down to the origin q: a leaf drops
(in oblique coordinates aligned with the quadrant) onto an epsilon-offset of
the path before it, rides it to its own height level, heads to a target
point on a small circle around q, and finishes radially.  Leaves are taken
in order of height, so the path before lies above all earlier paths.

The paths are geometric polylines, not mesh polylines; the cuts remain
exactly the forest edges, and the non-overlap argument needs only the
paths' order.  Each path keeps the exact oblique points it was built from,
a staircase nondecreasing in both coordinates; the path certificates are
decided on those points (one merge per consecutive pair), and the global
points serve output only: the forest SVG draws them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .forest import SpanningForest
from .mesh import ConvexCap


class StripError(RuntimeError):
    """Waterfall construction failed (degenerate leaf placement)."""


@dataclass(frozen=True)
class WaterfallPath:
    """Polyline from q out to a leaf: the oblique (a, b) points of its
    quadrant's frame it was built from, and the global planar points
    derived from them."""

    leaf: int
    points: np.ndarray          # (k, 2), q first, leaf last
    ab: np.ndarray              # (k, 2), (0, 0) first, leaf last


@dataclass
class StripSystem:
    """The waterfall paths of each quadrant, with each quadrant's clearance
    unit and target-circle radius."""

    paths: dict[int, list[WaterfallPath]]   # per quadrant, in height order
    eps: dict[int, float]
    radius: dict[int, float]

    @property
    def strips(self) -> list[tuple[int, int]]:
        """``(quadrant, index)`` of every strip, quadrant by quadrant: a
        quadrant with k paths has k + 1 strips."""
        return [(i, s) for i in range(4)
                for s in range(len(self.paths[i]) + 1)]


# --------------------------------------------------------------------------
# piecewise-linear path graphs (oblique coordinates)
# --------------------------------------------------------------------------


def _path_graph(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nondecreasing PL function a -> max b reached, from a monotone
    polyline; vertical runs collapse to their upper end."""
    a, b = points[:, 0], np.maximum.accumulate(points[:, 1])
    keep = np.empty(len(a), dtype=bool)
    keep[:-1] = a[:-1] < a[1:] - 0.0
    keep[-1] = True
    # for duplicate abscissae keep the last (largest b)
    return a[keep], b[keep]


# --------------------------------------------------------------------------
# waterfall construction
# --------------------------------------------------------------------------


def waterfall_strips(cap: ConvexCap, forest: SpanningForest) -> StripSystem:
    leaves = forest.leaves[forest.leaves != forest.system.origin]
    quad = forest.quadrant[np.searchsorted(forest.edges[:, 0], leaves)]
    paths: dict[int, list[WaterfallPath]] = {}
    eps_q: dict[int, float] = {}
    rad_q: dict[int, float] = {}
    for i in range(4):
        paths[i], eps_q[i], rad_q[i] = _quadrant_paths(
            cap, forest, i, leaves[quad == i].tolist())
    return StripSystem(paths=paths, eps=eps_q, radius=rad_q)


def _to_local(P, origin, rot):
    c, s = math.cos(rot), math.sin(rot)
    R = np.array([[c, s], [-s, c]])
    return (np.atleast_2d(P) - origin) @ R.T


def _to_global(pts, origin, rot):
    c, s = math.cos(rot), math.sin(rot)
    R = np.array([[c, -s], [s, c]])
    return np.atleast_2d(pts) @ R.T + origin


def _oblique(pts, theta):
    x, y = pts[..., 0], pts[..., 1]
    return np.stack([x - y / math.tan(theta), y / math.sin(theta)], axis=-1)


def _cartesian(ab, theta):
    a, b = ab[..., 0], ab[..., 1]
    return np.stack([a + b * math.cos(theta), b * math.sin(theta)], axis=-1)


def _quadrant_paths(cap: ConvexCap, forest: SpanningForest, quadrant: int,
                    leaves: list[int]):
    qs = forest.system
    theta = qs.theta
    q = int(qs.origin)
    P = cap.vertices[:, :2]
    origin = P[q]
    rot = qs.quadrant(quadrant).base
    if not leaves:
        return [], 0.0, 0.0

    loc = _to_local(P[leaves], origin, rot)
    ob = _oblique(loc, theta)
    order = sorted(range(len(leaves)), key=lambda k: (ob[k, 1], -ob[k, 0]))
    leaves = [leaves[k] for k in order]
    ob = ob[order]
    a_leaf, b_leaf = ob[:, 0], ob[:, 1]
    n = len(leaves)

    if a_leaf.min() <= 0 or b_leaf.min() <= 0:
        raise StripError(
            f"quadrant {quadrant}: leaf on or beyond an axis (a_min="
            f"{a_leaf.min():.3g}, b_min={b_leaf.min():.3g})")

    r = 0.9 * float(a_leaf.min())
    eps = _epsilon(cap, forest, quadrant, leaves, ob, r)

    # points closer than this to the one before them merge; half the
    # larger side of the projected box, so the dedupe scales with the cap
    atol = 1e-8 * 0.5 * float(np.ptp(P, axis=0).max())
    prev = (np.array([0.0]), np.array([0.0]))   # baseline: the lower axis
    out: list[WaterfallPath] = []
    for i in range(1, n + 1):
        ai, bi = float(a_leaf[i - 1]), float(b_leaf[i - 1])
        level = i * eps
        gamma = math.asin(level * math.sin(theta) / r)
        c_cart = np.array([r * math.cos(gamma), r * math.sin(gamma)])
        c_ob = _oblique(c_cart, theta)
        a_c = float(c_ob[0])
        if a_c >= ai:
            raise StripError(
                f"quadrant {quadrant}: target circle reaches past leaf "
                f"{leaves[i - 1]}")
        # ride b = max(prev(a) + eps, level) over the previous path's
        # breakpoints from the circle target out to the leaf abscissa, then
        # drop (climb, read leaf-to-q) to the leaf
        inside = prev[0][(a_c < prev[0]) & (prev[0] < ai)]
        ride_a = np.unique(np.r_[a_c, ai, inside])
        ride_b = np.maximum(np.interp(ride_a, *prev) + eps, level)
        flat = ride_b == level
        ride = np.column_stack([ride_a, ride_b])[
            np.r_[True, ~(flat[1:] & flat[:-1])]]   # merge the flat run
        foot = ride[-1, 1]
        if foot >= bi:
            raise StripError(
                f"quadrant {quadrant}: drop foot {foot:.6g} above leaf "
                f"{leaves[i - 1]} at b={bi:.6g}")
        ab = np.vstack([[0.0, 0.0], [a_c, level], ride, [ai, bi]])
        close = (np.abs(np.diff(ab, axis=0))
                 <= atol + 1e-5 * np.abs(ab[:-1])).all(axis=1)
        ab = ab[np.r_[True, ~close]]
        pts = _to_global(_cartesian(ab, theta), origin, rot)
        out.append(WaterfallPath(leaf=leaves[i - 1], points=pts, ab=ab))
        prev = _path_graph(ab)
    return out, eps, r


def _epsilon(cap: ConvexCap, forest: SpanningForest, quadrant: int,
             leaves: list[int], ob: np.ndarray, r: float) -> float:
    """Clearance unit: 1/(n+1) of the smallest of the vertical leaf-to-forest
    distance, the horizontal leaf separation, the leaf height gaps, the
    lowest leaf height, and the circle radius headroom."""
    n = len(leaves)
    a_leaf, b_leaf = ob[:, 0], ob[:, 1]
    cands = [0.9 * r, float(b_leaf.min())]

    # the smallest positive gaps between leaf heights and between leaf
    # abscissae, each between sorted neighbours
    for x in (b_leaf, a_leaf):
        gaps = np.diff(np.sort(x))
        gaps = gaps[gaps > 0]
        if len(gaps):
            cands.append(float(gaps.min()))

    # vertical distance from each leaf down to the projected forest edges
    # whose abscissa span holds it (leaf x edge, edges at the leaf skipped)
    qs = forest.system
    P = cap.vertices[:, :2]
    rot = qs.quadrant(quadrant).base
    E = forest.edges
    A = _oblique(_to_local(P[E[:, 0]], P[qs.origin], rot), qs.theta)
    B = _oblique(_to_local(P[E[:, 1]], P[qs.origin], rot), qs.theta)
    lo = np.minimum(A[:, 0], B[:, 0])
    hi = np.maximum(A[:, 0], B[:, 0])
    a0, b0 = a_leaf[:, None], b_leaf[:, None]
    lv = np.asarray(leaves)[:, None]
    spans = ((lv != E[:, 0]) & (lv != E[:, 1])
             & (lo <= a0) & (a0 <= hi) & (hi != lo))
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (a0 - A[:, 0]) / (B[:, 0] - A[:, 0])
        drop = b0 - (A[:, 1] + t * (B[:, 1] - A[:, 1]))
    drop = drop[spans & (drop > 0)]
    if len(drop):
        cands.append(float(drop.min()))
    return min(cands) / (n + 1)


# --------------------------------------------------------------------------
# certificates
# --------------------------------------------------------------------------


def _staircase(ab: np.ndarray) -> bool:
    """No step of the path decreases a or b, and none is zero: the path is
    angle-monotone in its quadrant's wedge, so simple and radially
    monotone."""
    d = np.diff(ab, axis=0)
    return bool((d >= 0).all() and d.any(axis=1).all())


def _heights(ab: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lowest and highest b of a staircase from (0, 0) at each abscissa
    ``x`` >= 0, the path held at its leaf's height beyond its leaf."""
    a, b = ab[:, 0], ab[:, 1]
    lo = np.searchsorted(a, x, side="left")        # first vertex at or past x
    hi = np.searchsorted(a, x, side="right") - 1   # last vertex at or before x
    low, high = b[np.minimum(lo, len(a) - 1)], b[hi]
    inside = (lo > hi) & (lo < len(a))   # strictly between vertices hi, lo
    lo, hi, x = lo[inside], hi[inside], x[inside]
    low[inside] = high[inside] = (
        b[hi] + (x - a[hi]) / (a[lo] - a[hi]) * (b[lo] - b[hi]))
    return low, high


def _ordered(lower: np.ndarray, upper: np.ndarray) -> bool:
    """Is staircase ``upper`` nowhere below staircase ``lower``?  Both are
    linear between the abscissae of their vertices, so comparing the lowest
    point of one with the highest of the other at each of those decides."""
    x = np.union1d(lower[:, 0], upper[:, 0])
    return bool((_heights(upper, x)[0] >= _heights(lower, x)[1]).all())


def strip_certificates(system: StripSystem) -> list[tuple]:
    """Certificate rows ``(key, holds, is_error, message)`` for the waterfall
    paths: every path a staircase (``paths_monotone``), and every path
    nowhere below the one before it (``paths_ordered``), which orders them
    all and so keeps any two from crossing.  A failure is always an error,
    and its message names every failing path."""
    bent, crossed = [], []
    for i in range(4):
        ps = system.paths[i]
        monotone = [_staircase(wp.ab) for wp in ps]
        bent += [f"waterfall path to leaf {wp.leaf} not angle-monotone"
                 for wp, ok in zip(ps, monotone) if not ok]
        crossed += [f"quadrant {i}: path {j + 1} not left of path {j}"
                    for j in range(len(ps) - 1)
                    if not (monotone[j] and monotone[j + 1]
                            and _ordered(ps[j].ab, ps[j + 1].ab))]
    return [("paths_monotone", not bent, True, "; ".join(bent)),
            ("paths_ordered", not crossed, True, "; ".join(crossed))]

"""Waterfall strip partition of the projected cap.

Each quadrant is partitioned by noncrossing, angle-monotone "waterfall"
polylines running from the forest leaves down to the origin q: a leaf drops
(in oblique coordinates aligned with the quadrant) onto an epsilon-offset of
the envelope of the earlier paths, rides it to its own height level, heads to
a target point on a small circle around q, and finishes radially.

The paths are geometric polylines, not mesh polylines.  Strips therefore
store whole triangles, assigned by which side of the paths their projected
centroid lies; the actual cuts remain exactly the forest edges, and the
paths only dictate strip ordering and certificates.  Pocket repair and the
connectivity certificate find the components of all strips in one pass over
the cap's face-neighbour array; the noncrossing certificate sweeps each
quadrant's path segments once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .forest import QuadrantSystem, SpanningForest
from .geom import EPS_GEOM, corner_angles, direction_spreads, points_close
from .mesh import ConvexCap
from .monotone import left_of


class StripError(RuntimeError):
    """Waterfall construction failed (degenerate leaf placement)."""


@dataclass(frozen=True)
class WaterfallPath:
    """Polyline from q out to a leaf (global planar coordinates)."""

    leaf: int
    points: np.ndarray          # (k, 2), q first, leaf last


@dataclass(frozen=True)
class Strip:
    """Region between two consecutive waterfall paths (or a path and a
    quadrant axis), carrying whole triangles."""

    quadrant: int
    index: int
    faces: tuple[int, ...]


@dataclass
class StripSystem:
    strips: list[Strip]
    paths: dict[int, list[WaterfallPath]]   # per quadrant, in height order
    eps: dict[int, float]
    radius: dict[int, float]
    strip_of: dict[int, tuple[int, int]] = field(default_factory=dict)


# --------------------------------------------------------------------------
# piecewise-linear envelope helpers (oblique coordinates)
# --------------------------------------------------------------------------


def _pl_max(f, g):
    """Pointwise maximum of two nondecreasing piecewise-linear functions,
    each extended by constants beyond its breakpoints."""
    xs = np.unique(np.concatenate([f[0], g[0]]))
    yf = np.interp(xs, *f)
    yg = np.interp(xs, *g)
    pts_x = [xs[0]]
    pts_y = [max(yf[0], yg[0])]
    for i in range(len(xs) - 1):
        d0 = yf[i] - yg[i]
        d1 = yf[i + 1] - yg[i + 1]
        if d0 * d1 < 0:
            t = d0 / (d0 - d1)
            pts_x.append(xs[i] + t * (xs[i + 1] - xs[i]))
            pts_y.append(yf[i] + t * (yf[i + 1] - yf[i]))
        pts_x.append(xs[i + 1])
        pts_y.append(max(yf[i + 1], yg[i + 1]))
    return np.array(pts_x), np.array(pts_y)


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
    q = int(forest.system.origin)
    quad = {v: forest.quadrant_of_vertex[v] for v in forest.leaves.tolist()
            if v != q}
    paths: dict[int, list[WaterfallPath]] = {}
    eps_q: dict[int, float] = {}
    rad_q: dict[int, float] = {}
    for i in range(4):
        paths[i], eps_q[i], rad_q[i] = _quadrant_paths(
            cap, forest, i, [v for v, qi in quad.items() if qi == i])

    strip_of = _assign_faces(cap, forest, paths)
    strip_of = _repair_connectivity(cap, strip_of)

    strips: list[Strip] = []
    for i in range(4):
        members: dict[int, list[int]] = {s: [] for s in range(len(paths[i]) + 1)}
        for f, (qi, s) in strip_of.items():
            if qi == i:
                members.setdefault(s, []).append(f)
        for s in sorted(members):
            strips.append(Strip(quadrant=i, index=s,
                                faces=tuple(sorted(members[s]))))
    return StripSystem(strips=strips, paths=paths, eps=eps_q, radius=rad_q,
                       strip_of=strip_of)


def _quadrant_frame(qs: QuadrantSystem, quadrant: int) -> float:
    return qs.quadrant(quadrant).base


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
    rot = _quadrant_frame(qs, quadrant)
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

    env = (np.array([0.0]), np.array([0.0]))   # baseline: the lower axis
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
        # ride b = max(env(a) + eps, level) from the circle target out to
        # the leaf abscissa, then drop (climb, read leaf-to-q) to the leaf
        bks = [a_c, ai]
        bks += [float(x) for x in env[0] if a_c < x < ai]
        bks = sorted(set(bks))
        ride_a, ride_b = [], []
        for k in range(len(bks)):
            x = bks[k]
            y = max(float(np.interp(x, *env)) + eps, level)
            if k and ride_b[-1] == level == y:
                continue   # merge the flat run
            ride_a.append(x)
            ride_b.append(y)
        foot = ride_b[-1]
        if foot >= bi:
            raise StripError(
                f"quadrant {quadrant}: drop foot {foot:.6g} above leaf "
                f"{leaves[i - 1]} at b={bi:.6g}")
        ab_pts = [(0.0, 0.0), (a_c, level)]
        ab_pts += list(zip(ride_a, ride_b))
        ab_pts.append((ai, bi))
        ab = np.array([p for j, p in enumerate(ab_pts)
                       if j == 0 or not points_close(p, ab_pts[j - 1])])
        pts = _to_global(_cartesian(ab, theta), origin, rot)
        out.append(WaterfallPath(leaf=leaves[i - 1], points=pts))
        env = _pl_max(env, _path_graph(ab))
    return out, eps, r


def _epsilon(cap: ConvexCap, forest: SpanningForest, quadrant: int,
             leaves: list[int], ob: np.ndarray, r: float) -> float:
    """Clearance unit: 1/(n+1) of the smallest of the vertical leaf-to-forest
    distance, the horizontal leaf separation, the leaf height gaps, the
    lowest leaf height, and the circle radius headroom."""
    n = len(leaves)
    a_leaf, b_leaf = ob[:, 0], ob[:, 1]
    cands = [0.9 * r, float(b_leaf.min())]

    bs = np.sort(b_leaf)
    gaps = np.diff(bs)
    gaps = gaps[gaps > 0]
    if len(gaps):
        cands.append(float(gaps.min()))
    da = np.abs(a_leaf[:, None] - a_leaf[None, :])
    da = da[da > 0]
    if len(da):
        cands.append(float(da.min()))

    # vertical distance from each leaf down to the projected forest edges
    # whose abscissa span holds it (leaf x edge, edges at the leaf skipped)
    qs = forest.system
    P = cap.vertices[:, :2]
    rot = _quadrant_frame(qs, quadrant)
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
# whole-triangle strip assignment
# --------------------------------------------------------------------------


def _assign_faces(cap: ConvexCap, forest: SpanningForest,
                  paths: dict[int, list[WaterfallPath]]):
    """(quadrant, strip) of every face by its projected centroid: the strip
    index is the first path of the quadrant the centroid is not above, or
    the path count if it is above all of them."""
    qs = forest.system
    theta = qs.theta
    P = cap.vertices[:, :2]
    origin = P[qs.origin]
    cent = P[cap.triangles].mean(axis=1)
    d = cent - origin
    quad = qs.quadrant_of(np.arctan2(d[:, 1], d[:, 0]))
    quad[quad < 0] = 0   # the gap sits below every quadrant-0 path
    strip = np.zeros(cap.n_triangles, dtype=int)
    for i in range(4):
        faces = np.flatnonzero(quad == i)
        if not paths[i]:
            continue
        rot = _quadrant_frame(qs, i)
        a, b = _oblique(_to_local(cent[faces], origin, rot), theta).T
        above = np.array([
            b > np.interp(a, *_path_graph(
                _oblique(_to_local(wp.points, origin, rot), theta)))
            for wp in paths[i]])
        strip[faces] = np.where(above.all(axis=0), len(paths[i]),
                                above.argmin(axis=0))
    return {f: (int(quad[f]), int(strip[f])) for f in range(cap.n_triangles)}


def _repair_connectivity(cap: ConvexCap, strip_of: dict):
    """Strips are thinner than triangles near the target circle, so
    centroid-side assignment leaves stray pockets.  Merge every minority
    component of a strip into the most common strip among its outside
    neighbors (one vote per shared side, labels as already updated, ties
    to the smallest) until every strip is edge-connected.  A pass takes
    strips by first face, and a strip's components by size, then first
    face; one array pass finds all components."""
    labels = sorted(set(strip_of.values()))
    index = {lab: i for i, lab in enumerate(labels)}
    code = np.array([index[strip_of[f]] for f in range(len(strip_of))])
    nbr = cap.face_neighbors()
    for _ in range(100):
        comp = _label_components(cap, code)
        _, first = np.unique(comp, return_index=True)   # smallest face
        size = np.bincount(comp)
        lab = code[first]
        split = np.flatnonzero(np.bincount(lab)[lab] > 1)
        lab_first = np.full(len(labels), len(code))
        np.minimum.at(lab_first, lab, first)
        split = split[np.lexsort((first[split], -size[split],
                                  lab_first[lab[split]]))]
        moved = False
        for prev, c in zip(np.r_[-1, split[:-1]], split):
            if prev >= 0 and lab[prev] == lab[c]:   # not the majority
                faces = np.flatnonzero(comp == c)
                other = code[nbr[faces][nbr[faces] >= 0]]
                other = other[other != lab[c]]
                if not len(other):
                    continue
                vals, votes = np.unique(other, return_counts=True)
                code[faces] = vals[votes.argmax()]
                moved = True
        if not moved:
            return {f: labels[c] for f, c in enumerate(code.tolist())}
    raise StripError("strip connectivity repair did not converge")


def _label_components(cap: ConvexCap, code: np.ndarray) -> np.ndarray:
    """Component id of every face, joining equal-``code`` faces by sides."""
    m = cap.n_triangles
    f, g = np.repeat(np.arange(m), 3), cap.face_neighbors().ravel()
    same = (g >= 0) & (code[f] == code[g])
    graph = csr_matrix((np.ones(same.sum()), (f[same], g[same])), (m, m))
    return connected_components(graph, directed=False)[1]


# --------------------------------------------------------------------------
# certificates
# --------------------------------------------------------------------------


def _segments_cross(p1, d1, p3, d2):
    """Proper crossing of segments ``p1 + t d1`` and ``p3 + u d2``, per item."""
    tol = 1e-12
    den = d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0]
    w = p3 - p1
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (w[..., 0] * d2[..., 1] - w[..., 1] * d2[..., 0]) / den
        u = (w[..., 0] * d1[..., 1] - w[..., 1] * d1[..., 0]) / den
    ok = np.abs(den) >= tol
    return ok & (t > tol) & (t < 1 - tol) & (u > tol) & (u < 1 - tol)


_SWEEP_CHUNK = 1 << 15   # candidate segment pairs per exact-test batch


def _crossing_pairs(polylines: list[np.ndarray]) -> list[tuple[int, int]]:
    """Sorted pairs (j, k), j < k, of polylines that properly cross.  A sort
    by left end and sweep (after Bentley & Ottmann) finds the segment pairs
    whose x-extents meet; those of two polylines whose y-extents also meet
    get the exact test of :func:`_segments_cross`, in fixed-size batches."""
    if len(polylines) < 2:
        return []
    owner = np.repeat(np.arange(len(polylines)),
                      [len(p) - 1 for p in polylines])
    a = np.concatenate([p[:-1] for p in polylines])
    b = np.concatenate([p[1:] for p in polylines])
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    by_x = np.argsort(lo[:, 0], kind="stable")
    # segment by_x[p] meets by_x[p+1 : p+1+count[p]] in x
    pos = np.arange(len(by_x))
    count = np.searchsorted(lo[by_x, 0], hi[by_x, 0], side="right") - pos - 1
    batches = np.searchsorted(np.cumsum(count),
                              np.arange(_SWEEP_CHUNK, count.sum(), _SWEEP_CHUNK))
    found = []
    for p in np.split(pos, batches):
        first = np.repeat(np.cumsum(count[p]) - count[p], count[p])
        i = np.repeat(p, count[p])
        i, k = by_x[i], by_x[i + 1 + np.arange(len(i)) - first]
        keep = ((owner[i] != owner[k]) & (lo[i, 1] <= hi[k, 1])
                & (lo[k, 1] <= hi[i, 1]))
        i, k = i[keep], k[keep]
        hit = _segments_cross(a[i], b[i] - a[i], a[k], b[k] - a[k])
        found.append(np.sort(np.stack([owner[i[hit]], owner[k[hit]]], 1), 1))
    pairs = np.unique(np.concatenate(found), axis=0)
    return [(int(j), int(k)) for j, k in pairs]


def _direction_spreads(polylines) -> np.ndarray:
    """Width of the cone of edge directions of each planar polyline, all
    polylines in one pass."""
    sizes = np.array([len(p) for p in polylines], dtype=np.intp)
    if (sizes < 2).any():
        raise ValueError("polyline needs at least one edge")
    d = np.diff(np.concatenate(polylines or [np.zeros((0, 2))]), axis=0)
    d = np.delete(d, np.cumsum(sizes)[:-1] - 1, axis=0)
    return direction_spreads(np.arctan2(d[:, 1], d[:, 0]),
                             np.cumsum(sizes - 1) - (sizes - 1))


def strip_certificates(cap: ConvexCap, forest: SpanningForest,
                       system: StripSystem, net) -> dict:
    """Certificate bundle for the strip partition."""
    qs = forest.system
    theta = qs.theta
    out: dict = {"errors": []}

    # partition + area tiling
    assigned = set(system.strip_of)
    if assigned != set(range(cap.n_triangles)):
        out["errors"].append("strip assignment is not a partition of faces")
    P = cap.vertices[:, :2]
    tri = P[cap.triangles]
    areas = 0.5 * np.abs(
        (tri[:, 1, 0] - tri[:, 0, 0]) * (tri[:, 2, 1] - tri[:, 0, 1])
        - (tri[:, 1, 1] - tri[:, 0, 1]) * (tri[:, 2, 0] - tri[:, 0, 0]))
    rim = P[cap.rim]
    cap_area = 0.5 * abs(float(
        np.sum(rim[:, 0] * np.roll(rim[:, 1], -1)
               - np.roll(rim[:, 0], -1) * rim[:, 1])))
    out["area_relative_error"] = abs(float(areas.sum()) - cap_area) / cap_area
    if out["area_relative_error"] > 1e-6:
        out["errors"].append("strip areas do not tile the cap")

    # boundaries: theta-monotone, pairwise noncrossing, ordered; every
    # consecutive pair of every quadrant in one left_of call
    pairs = []
    for i in range(4):
        ps = system.paths[i]
        for j in range(len(ps) - 1):
            upper = ps[j + 1].points.copy()
            upper[0] = ps[j].points[0]
            pairs.append((upper, ps[j].points))
    # a waterfall path that is not radially monotone raises, as before
    ordered = iter(left_of(pairs, strict=True))
    monotone = iter(_direction_spreads(
        [wp.points for i in range(4) for wp in system.paths[i]]) <= theta + EPS_GEOM)
    out["paths_monotone"] = True
    out["paths_noncrossing"] = True
    out["paths_ordered"] = True
    for i in range(4):
        ps = system.paths[i]
        for wp in ps:
            if not next(monotone):
                out["paths_monotone"] = False
                out["errors"].append(
                    f"waterfall path to leaf {wp.leaf} not angle-monotone")
        for j, k in _crossing_pairs([wp.points for wp in ps]):
            out["paths_noncrossing"] = False
            out["errors"].append(
                f"waterfall paths cross in quadrant {i} "
                f"(leaves {ps[j].leaf}, {ps[k].leaf})")
        for j in range(len(ps) - 1):
            if not next(ordered)[0]:
                out["paths_ordered"] = False
                out["errors"].append(
                    f"quadrant {i}: path {j + 1} not left of path {j}")

    # strip content: each strip's faces share one edge-connected component
    out["strips_connected"] = True
    code = np.full(cap.n_triangles, -1)
    for k, strip in enumerate(system.strips):
        code[list(strip.faces)] = k
    comp = _label_components(cap, code)
    for strip in system.strips:
        faces = np.unique(np.asarray(strip.faces, dtype=int))
        seen = int((comp[faces] == comp[faces[0]]).sum()) if len(faces) else 0
        if seen != len(faces):
            out["strips_connected"] = False
            out["errors"].append(
                f"strip ({strip.quadrant},{strip.index}) content is not "
                f"edge-connected: {seen} of {len(faces)} reachable")

    # apex angles at q across all strips close up the cone at q
    q = int(qs.origin)
    fq, corner = cap.vertex_corners(q)
    apex = corner_angles(np.stack([net.placed[f] for f in fq.tolist()]))
    total = float(apex[np.arange(len(fq)), corner].sum())
    out["apex_angle_error"] = abs(
        total - (2 * math.pi - cap.vertex_curvature(q)))
    if out["apex_angle_error"] > 1e-9:
        out["errors"].append("strip apex angles at q do not close the cone")

    out["clean"] = not out["errors"]
    return out

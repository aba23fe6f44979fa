"""The per-pair radial monotonicity and left-of code that the batched
kernel in :mod:`capunfold.monotone` replaced, kept as its reference: one
chain or one pair per call, in the order the kernel must reproduce.  A pair
the kernel gives ``None`` raises here.

:func:`circle_crossing_oracle` is the definition by circles, the
independent reference for the kernel's ``"source"`` test and, from every
vertex, for its ``"angle"`` test.
"""

from __future__ import annotations

import math

import numpy as np

from capunfold.geom import EPS_GEOM


class NotRadiallyMonotoneError(ValueError):
    """A chain given to :func:`left_of` breaks its radial monotonicity
    precondition."""


def _as_chain(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if (pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 2
            or not np.isfinite(pts).all()):
        raise ValueError("chain must be a sequence of >= 2 finite planar "
                         "points")
    d = pts[1:] - pts[:-1]
    if np.any((d[:, 0] == 0.0) & (d[:, 1] == 0.0)):
        raise ValueError("chain has coincident consecutive points")
    return pts


def is_simple(points) -> bool:
    """True when no two non-adjacent segments properly intersect."""
    pts = _as_chain(points)
    n = len(pts) - 1
    if n < 3:
        return True

    def orient_mat(a0, a1, c):
        # orient(a0[j], a1[j], c[i]) over all (i, j)
        return ((a1[None, :, 0] - a0[None, :, 0])
                * (c[:, None, 1] - a0[None, :, 1])
                - (a1[None, :, 1] - a0[None, :, 1])
                * (c[:, None, 0] - a0[None, :, 0]))

    p, q = pts[:-1], pts[1:]
    M1 = orient_mat(p, q, p)   # M1[i, j] = orient(p_j, q_j, p_i)
    M2 = orient_mat(p, q, q)   # M2[i, j] = orient(p_j, q_j, q_i)
    o_ji_p, o_ji_q = M1, M2
    o_ij_p, o_ij_q = M1.T, M2.T
    cross = (((o_ji_p > 0) != (o_ji_q > 0))
             & ((o_ij_p > 0) != (o_ij_q > 0))
             & (o_ji_p * o_ji_q != 0) & (o_ij_p * o_ij_q != 0))
    ii, jj = np.nonzero(np.triu(cross, k=2))
    if len(ii) == 0:
        return True
    if np.allclose(pts[0], pts[-1]):
        keep = ~((ii == 0) & (jj == n - 1))
        ii, jj = ii[keep], jj[keep]
    return len(ii) == 0


def is_radially_monotone(points) -> tuple[bool, tuple[int, int] | None]:
    """Angle form of radial monotonicity, quantified over every source vertex.

    For each source ``v_j`` and each later vertex ``v_i``, the angle
    ``(v_j, v_i, v_{i+1})`` must be at least ``pi/2`` (up to eps): distance
    from ``v_j`` is then nondecreasing along every later edge.  Returns
    ``(True, None)`` or ``(False, (j, i))`` with the first violating pair.
    """
    pts = _as_chain(points)
    if not is_simple(pts):
        raise ValueError("chain is not simple")
    k = len(pts)
    if k < 3:
        return True, None
    # vectorized: cos of angle (v_j, v_i, v_{i+1}) must be <= sin(1e-9)
    w = pts[1:] - pts[:-1]                      # edge i -> i+1, index i
    u = pts[None, :, :] - pts[:-1, None, :]     # u[i, j] = v_j - v_i
    nu = np.linalg.norm(u, axis=2)
    nw = np.linalg.norm(w, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cosang = np.einsum("ijk,ik->ij", u, w) / (nu * nw[:, None])
    slack = math.sin(1e-9)
    ii, jj = np.nonzero(cosang > slack)
    bad = jj < ii   # only sources strictly before the turning vertex
    if bad.any():
        order = np.lexsort((ii[bad], jj[bad]))[0]
        return False, (int(jj[bad][order]), int(ii[bad][order]))
    return True, None


def left_of(A, B, check: str = "angle") -> tuple[bool, float | None]:
    """Is chain ``A`` weakly left of chain ``B`` seen from their common
    source?

    At every sampled radius where a circle about the source meets both
    chains, the counterclockwise arc from B's intersection to A's must be
    less than pi (equal points allowed).  Returns ``(True, None)`` or
    ``(False, violating_radius)``.  The sources must lie within
    ``EPS_GEOM`` times the pair's reach, the farthest point of either chain
    from A's source.

    ``check`` selects the monotonicity precondition test: ``"angle"`` (the
    strict vertex-angle form, on a simple chain) or ``"source"`` (circle
    components about the chain's first point).
    """
    a = _as_chain(A)
    b = _as_chain(B)
    reach = max(np.linalg.norm(a - a[0], axis=1).max(),
                np.linalg.norm(b - a[0], axis=1).max())
    if np.linalg.norm(b[0] - a[0]) > EPS_GEOM * reach:
        raise ValueError("chains must share their source point")
    if check not in ("angle", "source"):
        raise ValueError("check must be 'angle' or 'source'")
    for chain in (a, b):
        if check == "angle":
            ok, _ = is_radially_monotone(chain)
        else:
            ok = circle_crossing_oracle(chain, chain[0])
        if not ok:
            raise NotRadiallyMonotoneError(
                "left_of requires radially monotone chains")
    src = a[0]
    da = np.linalg.norm(a - src, axis=1)
    db = np.linalg.norm(b - src, axis=1)
    e = EPS_GEOM * float(max(da.max(), db.max()))
    vals = np.unique(np.concatenate([da, db]))
    vals = vals[vals > e]
    radii = np.sort(np.concatenate([vals, 0.5 * (vals[:-1] + vals[1:])]))
    r_max = min(da.max(), db.max())
    radii = radii[radii <= r_max + e]
    pa = _first_hits(a, da, src, np.minimum(radii, da.max()))
    pb = _first_hits(b, db, src, np.minimum(radii, db.max()))
    both = ~(np.isnan(pa[:, 0]) | np.isnan(pb[:, 0]))
    ang_a = np.arctan2(pa[:, 1] - src[1], pa[:, 0] - src[0])
    ang_b = np.arctan2(pb[:, 1] - src[1], pb[:, 0] - src[0])
    arc = np.mod(ang_a - ang_b, 2 * math.pi)
    slack = 1e-9
    viol = both & (arc >= math.pi) & (arc <= 2 * math.pi - slack)
    if viol.any():
        return False, float(radii[np.nonzero(viol)[0][0]])
    return True, None


def _first_hits(pts, dists, src, radii):
    """First point along a radially monotone chain at each distance in
    ``radii``: one (x, y) row per radius, NaN on miss.  The hit segment is
    the first with ``d0 <= r <= d1``; one whose ends lie less than 1e-15 of
    the chain's reach apart in distance gives its first point."""
    d0, d1 = dists[:-1], dists[1:]
    R = np.asarray(radii)[:, None]
    hit = (d0[None, :] <= R) & (R <= d1[None, :])
    out = np.full((len(radii), 2), np.nan)
    has = hit.any(axis=1)
    if not has.any():
        return out
    k = np.argmax(hit, axis=1)[has]
    r = np.asarray(radii)[has]
    a, b = pts[:-1][k], pts[1:][k]
    d = b - a
    f = a - src
    A = np.einsum("ij,ij->i", d, d)
    B = 2 * np.einsum("ij,ij->i", f, d)
    C = np.einsum("ij,ij->i", f, f) - r * r
    disc = B * B - 4 * A * C
    s = np.sqrt(np.maximum(disc, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (-B - s) / (2 * A)
        t2 = (-B + s) / (2 * A)
    tol = 1e-12
    t = np.where((t1 >= -tol) & (t1 <= 1 + tol), t1, t2)
    valid = (disc >= 0) & (t >= -tol) & (t <= 1 + tol)
    t = np.clip(t, 0.0, 1.0)
    nearest = np.where((np.abs(d0[k] - r) <= np.abs(d1[k] - r))[:, None], a, b)
    res = np.where(valid[:, None], a + t[:, None] * d, nearest)
    deg = np.abs(d1[k] - d0[k]) < 1e-15 * dists.max()
    res[deg] = a[deg]
    out[has] = res
    return out


# --------------------------------------------------------------------------
# the circle-crossing oracle
# --------------------------------------------------------------------------


def circle_crossing_oracle(points, source, radii=None) -> bool:
    """Definition-by-circles: the chain meets every circle centered on
    ``source`` in at most one connected component.

    Used as an independent oracle against the tests of
    :func:`capunfold.monotone._chain_checks`.
    Default radii: every vertex distance plus midpoints between consecutive
    distinct distances.
    """
    pts = _as_chain(points)
    src = np.asarray(source, dtype=float)
    dists = np.linalg.norm(pts - src, axis=1)
    if radii is None:
        vals = np.unique(dists)
        mids = 0.5 * (vals[:-1] + vals[1:])
        radii = np.concatenate([vals, mids])
    e = EPS_GEOM * max(1.0, float(dists.max()))
    d0, d1 = dists[:-1], dists[1:]
    seg = pts[1:] - pts[:-1]
    f = pts[:-1] - src
    A = np.einsum("ij,ij->i", seg, seg)
    B = 2 * np.einsum("ij,ij->i", f, seg)
    C0 = np.einsum("ij,ij->i", f, f)

    # fast path: distance from the source nondecreasing along every segment
    # means every circle is hit in exactly one point
    if np.all(B >= 0) and np.all(d1 >= d0):
        return True

    R = np.asarray(radii, dtype=float)
    R = R[R > 0]
    if len(R) == 0:
        return True
    ride = (np.abs(d0[None, :] - R[:, None]) <= e) \
        & (np.abs(d1[None, :] - R[:, None]) <= e)
    slow_rows = ride.any(axis=1)
    disc = B[None, :] ** 2 - 4 * A[None, :] * (C0[None, :] - R[:, None] ** 2)
    s = np.sqrt(np.maximum(disc, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (-B[None, :] - s) / (2 * A[None, :])
        t2 = (-B[None, :] + s) / (2 * A[None, :])
    idx = np.arange(len(seg), dtype=float)[None, :]
    params = []
    for t in (t1, t2):
        ok = ~ride & (disc >= 0) & (t >= -1e-12) & (t <= 1 + 1e-12)
        params.append(np.where(ok, idx + np.clip(t, 0.0, 1.0), np.inf))
    P = np.sort(np.concatenate(params, axis=1), axis=1)
    finite = np.isfinite(P)
    with np.errstate(invalid="ignore"):
        breaks = (P[:, 1:] - P[:, :-1] > 1e-9) & finite[:, 1:]
    if bool(np.any(breaks[~slow_rows])):
        return False
    for r in np.asarray(R)[slow_rows]:
        if _circle_components(pts, dists, src, float(r)) > 1:
            return False
    return True


def _circle_components(pts, dists, src, r) -> int:
    """Connected components of chain-circle intersection, by chain parameter."""
    e = EPS_GEOM * max(1.0, float(dists.max()))
    hits: list[tuple[float, float]] = []  # parameter intervals touching circle
    for i in range(len(pts) - 1):
        d0, d1 = dists[i] - r, dists[i + 1] - r
        if abs(d0) <= e and abs(d1) <= e:
            hits.append((i, i + 1.0))  # segment rides the circle
            continue
        ts = _segment_circle_ts(pts[i], pts[i + 1], src, r, e)
        for t in ts:
            hits.append((i + t, i + t))
    if not hits:
        return 0
    hits.sort()
    components = 1
    cur_end = hits[0][1]
    for start, end in hits[1:]:
        if start > cur_end + 1e-9:
            components += 1
        cur_end = max(cur_end, end)
    return components


def _segment_circle_ts(a, b, c, r, e) -> list[float]:
    d = b - a
    f = a - c
    A = float(np.dot(d, d))
    B = 2 * float(np.dot(f, d))
    C = float(np.dot(f, f)) - r * r
    disc = B * B - 4 * A * C
    if disc < 0:
        return []
    s = math.sqrt(disc)
    out = []
    for t in ((-B - s) / (2 * A), (-B + s) / (2 * A)):
        if -1e-12 <= t <= 1 + 1e-12:
            out.append(min(max(t, 0.0), 1.0))
    if len(out) == 2 and abs(out[0] - out[1]) < 1e-12:
        out = out[:1]
    return out

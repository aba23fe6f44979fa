"""Radial monotonicity of planar chains, and the left-of relation used to
certify that developed cut banks never cross.

A chain is radially monotone when, measured from each of its vertices, the
distance to every later point of the chain never decreases.  Two equivalent
formulations appear here: the angle test (the working predicate) and the
circle-crossing count (an independent oracle).  The sampled-distance
definition and direction cones are lemma checkers in ``tests/lemmas.py``.

One kernel evaluates every chain and pair of a call together: chains are
sorted by length and padded, by repeating their last point, into blocks of
about :data:`_BLOCK_CELLS` cells per array.  A chain of K points costs K*K
cells in the simplicity and angle tests and K in the oracle's fast path; a
pair costs 32*K in the radius sweep, whose arrays are linear in K because
each radius finds its first segment by binary search.  A pad segment has
zero length, so its orientation products are 0 and its cosines NaN, and it
can flag no crossing or violation; the radius sweep drops a first hit that
falls on a pad segment.
"""

from __future__ import annotations

import math

import numpy as np

from .geom import EPS_GEOM, points_close


class NotRadiallyMonotoneError(ValueError):
    """A chain given to :func:`left_of` breaks its radial monotonicity
    precondition."""


#: Cells per array in one block of the batched kernel (a chain longer than
#: a block is evaluated alone).
_BLOCK_CELLS = 2 ** 16

#: Cosine above which an angle (v_j, v_i, v_{i+1}) is too sharp.
_ANGLE_SLACK = math.sin(1e-9)


# --------------------------------------------------------------------------
# chains and blocks
# --------------------------------------------------------------------------


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


def _concat(chains) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All chains in one (total, 2) array, with each chain's offset and
    length in it."""
    lens = np.array([len(c) for c in chains], dtype=np.intp)
    flat = np.concatenate(chains) if len(chains) else np.zeros((0, 2))
    return flat, np.cumsum(lens) - lens, lens


def _blocks(sizes, cells) -> list[np.ndarray]:
    """Item indices grouped by size: items sorted by ``sizes``, each block
    as long as ``len(block) * cells(largest size in it)`` stays within
    :data:`_BLOCK_CELLS`, and at least one item long."""
    order = np.argsort(sizes, kind="stable")
    per_item = cells(np.asarray(sizes)[order])
    blocks, start = [], 0
    while start < len(order):
        # the product grows with the block, so the fitting ones are a prefix
        fits = np.arange(1, len(order) - start + 1) * per_item[start:]
        end = start + max(1, int(np.count_nonzero(fits <= _BLOCK_CELLS)))
        blocks.append(order[start:end])
        start = end
    return blocks


def _padded(flat, offsets, lens, idx, K) -> np.ndarray:
    """Chains ``idx`` as one (len(idx), K, 2) array, each padded to K points
    by repeating its last point."""
    t = np.minimum(np.arange(K), lens[idx, None] - 1)
    return flat[offsets[idx, None] + t]


# --------------------------------------------------------------------------
# simplicity and radial monotonicity, per chain
# --------------------------------------------------------------------------


def _chain_checks(flat, offsets, lens, check: str):
    """Per chain: simple?, precondition met?, and the first violating
    ``(j, i)`` of the angle test.  ``check`` is ``"simple"`` (simplicity
    only), ``"angle"`` (simplicity and the angle form) or ``"oracle"`` (the
    circle-crossing fast path only; a chain that misses it is left to
    :func:`circle_crossing_oracle`)."""
    n = len(lens)
    simple = np.ones(n, dtype=bool)
    ok = np.ones(n, dtype=bool)
    witness = np.zeros((n, 2), dtype=np.intp)
    cells = (lambda k: k) if check == "oracle" else (lambda k: k * k)
    for idx in _blocks(lens, cells):
        P = _padded(flat, offsets, lens, idx, int(lens[idx].max()))
        if check == "oracle":
            ok[idx] = _fast_path(P)
            continue
        simple[idx] = _simple(P, lens[idx])
        # in two-point chains no source comes before an edge
        if check == "angle" and P.shape[1] > 2:
            ok[idx], witness[idx] = _angle_test(P)
    return simple, ok, witness


def _simple(P, lens) -> np.ndarray:
    """No two non-adjacent segments properly intersect, per padded chain."""
    p, q = P[:, :-1], P[:, 1:]
    e = q - p

    def orient(c):
        # orient(p_j, q_j, c_i) at [chain, i, j], with one temporary
        m = c[:, :, None, 1] - p[:, None, :, 1]
        m *= e[:, None, :, 0]
        t = c[:, :, None, 0] - p[:, None, :, 0]
        t *= e[:, None, :, 1]
        m -= t
        return m

    M1 = orient(p)
    M2 = orient(q)
    # segment i's ends on strictly opposite sides of segment j's line
    flip = ((M1 > 0) != (M2 > 0)) & (M1 * M2 != 0)
    cross = flip & flip.swapaxes(1, 2)
    cross &= np.triu(np.ones(cross.shape[1:], dtype=bool), k=2)
    simple = ~cross.any(axis=(1, 2))
    for c in np.flatnonzero(~simple):
        # a closed chain's first and last segments meet at its end point
        last = lens[c] - 1
        if points_close(P[c, 0], P[c, last]):
            cross[c, 0, last - 1] = False
            simple[c] = not cross[c].any()
    return simple


def _angle_test(P) -> tuple[np.ndarray, np.ndarray]:
    """Angle form of radial monotonicity per padded chain: the cosine of
    the angle (v_j, v_i, v_{i+1}) must not exceed sin(1e-9) for any source
    j < i.  Returns the verdicts and each chain's first violating
    ``(j, i)``, by j and then i."""
    j, i = np.triu_indices(P.shape[1] - 1, k=1)   # in (j, i) order
    w = P[:, 1:] - P[:, :-1]                      # edge i -> i+1
    # u = v_j - v_i, one coordinate at a time
    ux = P[:, j, 0] - P[:, i, 0]
    cosang = ux * w[:, i, 0]
    ux *= ux
    uy = P[:, j, 1] - P[:, i, 1]
    ux += uy * uy                                 # |u|^2
    uy *= w[:, i, 1]
    cosang += uy
    del uy
    np.sqrt(ux, out=ux)
    ux *= np.linalg.norm(w, axis=2)[:, i]
    with np.errstate(divide="ignore", invalid="ignore"):
        cosang /= ux
    bad = cosang > _ANGLE_SLACK
    first = bad.argmax(axis=1)
    return ~bad.any(axis=1), np.column_stack([j[first], i[first]])


def _fast_path(P) -> np.ndarray:
    """Per padded chain: is the distance from its first point nondecreasing
    along, and at the ends of, every segment?  Then every circle about that
    point meets the chain once (the fast path of
    :func:`circle_crossing_oracle`)."""
    src = P[:, :1]
    d = np.linalg.norm(P - src, axis=2)
    s = P[:, 1:] - P[:, :-1]
    f = P[:, :-1] - src
    B = f[..., 0] * s[..., 0] + f[..., 1] * s[..., 1]
    return np.all(B >= 0, axis=1) & np.all(d[:, 1:] >= d[:, :-1], axis=1)


# --------------------------------------------------------------------------
# radial monotonicity
# --------------------------------------------------------------------------


def circle_crossing_oracle(points, source, radii=None) -> bool:
    """Definition-by-circles: the chain meets every circle centered on
    ``source`` in at most one connected component.

    Used as an independent oracle against the angle test of
    :func:`_chain_checks`.
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


# --------------------------------------------------------------------------
# left-of relation
# --------------------------------------------------------------------------


def left_of(A, B=None, check: str = "angle"):
    """Is chain ``A`` weakly left of chain ``B`` seen from their common
    source?

    At every sampled radius where a circle about the source meets both
    chains, the counterclockwise arc from B's intersection to A's must be
    less than pi (equal points allowed).  Returns ``(True, None)`` or
    ``(False, violating_radius)``.

    ``check`` selects the monotonicity precondition test: ``"angle"`` (the
    strict vertex-angle form) or ``"oracle"`` (circle components; tolerant
    of near-coincident double points on chains read out of a net).

    Given a list of ``(A, B)`` pairs as ``A`` and no ``B``, returns one
    verdict per pair, and never raises for a pair: ``None`` where the pair
    fails a precondition (a malformed chain, no common source, a chain that
    is not simple or not radially monotone).  The certificates call it so
    on the leaf developments and on the cut banks of every leaf path.
    """
    if B is not None:
        (out,) = _left_of_all([(A, B)], check)
        if isinstance(out, Exception):
            raise out
        return out
    return [None if isinstance(out, Exception) else out
            for out in _left_of_all(A, check)]


def _left_of_all(pairs, check: str) -> list:
    """Per pair, its verdict or the exception it raises alone, in the order
    of the per-pair checks: each chain's shape and points, the common
    source, then each chain's precondition."""
    if check not in ("angle", "oracle"):
        raise ValueError("check must be 'angle' or 'oracle'")
    chains, errors = [], []
    for pair in pairs:
        for X in pair:
            try:
                chains.append(_as_chain(X))
                errors.append(None)
            except ValueError as exc:
                chains.append(np.eye(2))   # a stand-in the kernel can carry
                errors.append(exc)
    flat, offsets, lens = _concat(chains)
    simple, ok, _ = _chain_checks(flat, offsets, lens, check)

    def precondition(c):
        if check == "angle" and not simple[c]:
            return ValueError("chain is not simple")
        if not (ok[c] or (check == "oracle"
                          and circle_crossing_oracle(chains[c], chains[c][0]))):
            return NotRadiallyMonotoneError(
                "left_of requires radially monotone chains")
        return None

    outs: list = []
    for a in range(0, len(chains), 2):
        b = a + 1
        if errors[a] or errors[b]:
            outs.append(errors[a] or errors[b])
        elif not points_close(chains[a][0], chains[b][0]):
            outs.append(ValueError("chains must share their source point"))
        else:
            outs.append(precondition(a) or precondition(b))

    pending = np.array([p for p, out in enumerate(outs) if out is None],
                       dtype=np.intp)
    size = np.maximum(lens[2 * pending], lens[2 * pending + 1])
    # a pair's sweep arrays are linear in K: (4K - 1) radii, and two hit
    # coordinates per radius on each chain
    for blk in _blocks(size, lambda k: 32 * k):
        p, K = pending[blk], int(size[blk].max())
        radius = _sweep(_padded(flat, offsets, lens, 2 * p, K),
                        _padded(flat, offsets, lens, 2 * p + 1, K),
                        lens[2 * p], lens[2 * p + 1])
        for i, r in zip(p.tolist(), radius.tolist()):
            outs[i] = (True, None) if r == math.inf else (False, r)
    return outs


def _sweep(A, B, la, lb) -> np.ndarray:
    """Smallest radius at which padded chain ``A[c]`` is not left of
    ``B[c]`` (inf where it always is), over every vertex distance of both
    chains and every midpoint of two consecutive ones, above ``EPS_GEOM``
    and within the shorter chain's reach.  A distance that repeats only
    repeats radii, so no deduplication is needed."""
    src = A[:, 0]
    da = np.linalg.norm(A - src[:, None], axis=2)
    db = np.linalg.norm(B - src[:, None], axis=2)
    ma, mb = da.max(axis=1), db.max(axis=1)
    vals = np.sort(np.concatenate([da, db], axis=1), axis=1)
    radii = np.concatenate([vals, 0.5 * (vals[:, :-1] + vals[:, 1:])], axis=1)
    e = EPS_GEOM * np.maximum(1.0, np.maximum(ma, mb))
    live = ((np.concatenate([vals, vals[:, :-1]], axis=1) > EPS_GEOM)
            & (radii <= (np.minimum(ma, mb) + e)[:, None]))
    pa = _first_hits(A, da, la, src, np.minimum(radii, ma[:, None]))
    pb = _first_hits(B, db, lb, src, np.minimum(radii, mb[:, None]))
    with np.errstate(invalid="ignore"):
        ang_a = np.arctan2(pa[..., 1] - src[:, None, 1],
                           pa[..., 0] - src[:, None, 0])
        ang_b = np.arctan2(pb[..., 1] - src[:, None, 1],
                           pb[..., 0] - src[:, None, 0])
        arc = np.mod(ang_a - ang_b, 2 * math.pi)
    slack = 1e-9
    viol = (live & ~(np.isnan(pa[..., 0]) | np.isnan(pb[..., 0]))
            & (arc >= math.pi) & (arc <= 2 * math.pi - slack))
    return np.where(viol, radii, np.inf).min(axis=1)


def _first_hits(P, D, lens, src, R) -> np.ndarray:
    """First point along each padded chain ``P[c]`` at each distance
    ``R[c, r]`` from ``src[c]``: (C, len(R[0]), 2), NaN on miss.  ``D``
    holds the chains' vertex distances from their sources, ``D[:, 0] == 0``.

    Segment k is hit when ``D[k] <= r <= D[k+1]`` or ``|D[k] - r| <
    1e-12``; pad segments are never hit.  On the running maximum ``top`` of
    ``D`` the first segment of the first kind is the first k with
    ``top[k+1] >= r``, and the first of the second kind the first k with
    ``top[k] >= near``, where ``near`` is the least distance within 1e-12
    below r: ``r - 1e-12`` rounded, or the next float up when that rounding
    does not fall within 1e-12 of r.  Both are binary searches, on
    monotone chains or not."""
    top = np.maximum.accumulate(D, axis=1)
    near = R - 1e-12
    near = np.where(np.abs(near - R) < 1e-12, near,
                    np.nextafter(near, math.inf))
    k = np.minimum(_row_searchsorted(top[:, 1:], R),
                   _row_searchsorted(top, near))
    c, i = np.nonzero(k < (lens - 1)[:, None])
    k = k[c, i]
    out = np.full(R.shape + (2,), np.nan)
    if not len(c):
        return out
    r = R[c, i]
    dk0, dk1 = D[c, k], D[c, k + 1]
    a, b = P[c, k], P[c, k + 1]
    d = b - a
    f = a - src[c]
    A = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
    B = 2 * (f[:, 0] * d[:, 0] + f[:, 1] * d[:, 1])
    C = (f[:, 0] * f[:, 0] + f[:, 1] * f[:, 1]) - r * r
    disc = B * B - 4 * A * C
    s = np.sqrt(np.maximum(disc, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (-B - s) / (2 * A)
        t2 = (-B + s) / (2 * A)
    tol = 1e-12
    t = np.where((t1 >= -tol) & (t1 <= 1 + tol), t1, t2)
    valid = (disc >= 0) & (t >= -tol) & (t <= 1 + tol)
    t = np.clip(t, 0.0, 1.0)
    nearest = np.where((np.abs(dk0 - r) <= np.abs(dk1 - r))[:, None], a, b)
    res = np.where(valid[:, None], a + t[:, None] * d, nearest)
    deg = np.abs(dk1 - dk0) < 1e-15
    res[deg] = a[deg]
    out[c, i] = res
    return out


def _row_searchsorted(a, v) -> np.ndarray:
    """``np.searchsorted(a[c], v[c])`` for every row c of the nondecreasing
    rows ``a``, in one call: complex numbers order lexicographically, so the
    keys ``c + 1j * a[c]`` of all rows form one sorted array."""
    rows = np.arange(len(a))[:, None]
    keys = np.empty(a.shape, dtype=complex)
    keys.real, keys.imag = rows, a
    query = np.empty(v.shape, dtype=complex)
    query.real, query.imag = rows, v
    return (np.searchsorted(keys.ravel(), query.ravel()).reshape(v.shape)
            - rows * a.shape[1])

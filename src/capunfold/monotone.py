"""Radial monotonicity of planar chains, and the left-of relation used to
certify that developed cut banks never cross.

A chain is radially monotone when, measured from each of its vertices, the
distance to every later point of the chain never decreases.  Each family of
chains given to :func:`left_of` has one precondition test: ``"angle"``
checks that form at every source vertex, by the angle it makes with every
later edge, and ``"source"`` checks it from the chain's first point only.
A chain that passes the angle test is simple: measured from v_i, every
point after v_{i+1} is at least as far as v_{i+1} (up to the angle slack),
so farther than every other point of segment i, and no later segment
crosses segment i.  The circle-crossing count, the simplicity test and the
sampled-distance definition are oracles in ``tests/``.

One kernel evaluates every chain and pair of a call together: chains are
sorted by length and padded, by repeating their last point, into blocks of
about :data:`_BLOCK_CELLS` cells per array.  A chain of K points costs K*K
cells in the angle test and K in the source test; a pair costs 32*K in the
radius sweep, whose arrays are linear in K because each radius finds its
first segment by binary search.  A pad segment has zero length, so its
cosines are NaN and its dot products 0, and it can flag no violation; the
radius sweep drops a first hit that falls on a pad segment.
"""

from __future__ import annotations

import math

import numpy as np

from .geom import EPS_GEOM


#: Cells per array in one block of the batched kernel (a chain longer than
#: a block is evaluated alone).
_BLOCK_CELLS = 2 ** 16

#: Cosine above which an angle (v_j, v_i, v_{i+1}) is too sharp.
_ANGLE_SLACK = math.sin(1e-9)


# --------------------------------------------------------------------------
# chains and blocks
# --------------------------------------------------------------------------


def _as_chain(points) -> np.ndarray | None:
    """``points`` as a (K, 2) float array, or None unless they are K >= 2
    finite planar points with no two consecutive ones equal."""
    try:
        pts = np.asarray(points, dtype=float)
    except ValueError:
        return None
    if (pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 2
            or not np.isfinite(pts).all()):
        return None
    d = pts[1:] - pts[:-1]
    if np.any((d[:, 0] == 0.0) & (d[:, 1] == 0.0)):
        return None
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
# radial monotonicity, per chain
# --------------------------------------------------------------------------


def _chain_checks(flat, offsets, lens, check: str):
    """Per chain: precondition met?, and the first violating ``(j, i)`` of
    the angle test.  ``check`` is ``"angle"`` (:func:`_angle_test`) or
    ``"source"`` (:func:`_fast_path`, which gives no witness)."""
    ok = np.ones(len(lens), dtype=bool)
    witness = np.zeros((len(lens), 2), dtype=np.intp)
    cells = (lambda k: k) if check == "source" else (lambda k: k * k)
    for idx in _blocks(lens, cells):
        P = _padded(flat, offsets, lens, idx, int(lens[idx].max()))
        if check == "source":
            ok[idx] = _fast_path(P)
        # in two-point chains no source comes before an edge
        elif P.shape[1] > 2:
            ok[idx], witness[idx] = _angle_test(P)
    return ok, witness


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
    point meets the chain once."""
    src = P[:, :1]
    d = np.linalg.norm(P - src, axis=2)
    s = P[:, 1:] - P[:, :-1]
    f = P[:, :-1] - src
    B = f[..., 0] * s[..., 0] + f[..., 1] * s[..., 1]
    return np.all(B >= 0, axis=1) & np.all(d[:, 1:] >= d[:, :-1], axis=1)


# --------------------------------------------------------------------------
# left-of relation
# --------------------------------------------------------------------------


def left_of(pairs, check: str = "angle") -> list:
    """Per chain pair ``(A, B)``: is chain ``A`` weakly left of chain ``B``
    seen from their common source?

    At every sampled radius where a circle about the source meets both
    chains, the counterclockwise arc from B's intersection to A's must be
    less than pi (equal points allowed).  Gives ``(True, None)`` or
    ``(False, violating_radius)`` per pair, and ``None`` where the pair
    fails a precondition: a malformed chain, sources that differ (as
    ``np.allclose`` has it) or a chain that fails ``check``, the radial
    monotonicity test of its family (see the module docstring).  The
    certificates call it on the leaf developments (``"angle"``) and on the
    cut banks (``"source"``) of every leaf path.
    """
    if check not in ("angle", "source"):
        raise ValueError("check must be 'angle' or 'source'")
    chains = [_as_chain(X) for pair in pairs for X in pair]
    malformed = np.array([c is None for c in chains], dtype=bool)
    # a stand-in the kernel can carry
    flat, offsets, lens = _concat([np.eye(2) if c is None else c
                                   for c in chains])
    ok, _ = _chain_checks(flat, offsets, lens, check)
    ok &= ~malformed
    a, b = flat[offsets[0::2]], flat[offsets[1::2]]
    shared = np.all(np.abs(a - b) <= 1e-8 + 1e-5 * np.abs(b), axis=1)
    pending = np.flatnonzero(shared & ok[0::2] & ok[1::2])
    outs: list = [None] * len(shared)
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
    chains and every midpoint of two consecutive ones, beyond ``EPS_GEOM``
    times the longer chain's reach and within the shorter one's.  A
    distance that repeats only repeats radii, so no deduplication is
    needed."""
    src = A[:, 0]
    da = np.linalg.norm(A - src[:, None], axis=2)
    db = np.linalg.norm(B - src[:, None], axis=2)
    ma, mb = da.max(axis=1), db.max(axis=1)
    vals = np.sort(np.concatenate([da, db], axis=1), axis=1)
    radii = np.concatenate([vals, 0.5 * (vals[:, :-1] + vals[:, 1:])], axis=1)
    e = EPS_GEOM * np.maximum(ma, mb)[:, None]
    live = ((np.concatenate([vals, vals[:, :-1]], axis=1) > e)
            & (radii <= np.minimum(ma, mb)[:, None] + e))
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

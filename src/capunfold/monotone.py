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

One kernel evaluates every chain and pair of a call together.  The pairs
come as a path table, two row-aligned point arrays split at one offsets
array, the layout of the forest's leaf paths; one array pass drops the
malformed chains, and the rest are sorted by length and padded, by
repeating their last point, into blocks of about :data:`_BLOCK_CELLS` cells
per array.  A chain of K points costs K*K cells in the angle test and K in
the source test; a pair costs 32*K in the radius sweep, whose arrays are
linear in K because each radius finds its first segment by binary search.
A pad segment has zero length, so its cosines are NaN and its dot products
0, and it can flag no violation; the radius sweep drops a first hit that
falls on a pad segment.
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


def _well_formed(flat, offsets) -> np.ndarray:
    """Per chain ``flat[offsets[c]:offsets[c + 1]]``: does it have at least
    two points, all finite, and no zero-length step?  A zero step gives NaN
    cosines, which the angle test would pass."""
    lo, hi = offsets[:-1], offsets[1:]
    # running counts of the rows that are not finite and of the rows equal
    # to the one before them, which a chain counts from its second row on
    nonfinite = np.r_[0, np.cumsum(~np.isfinite(flat).all(axis=1))]
    repeat = np.r_[0, 0, np.cumsum((flat[1:] == flat[:-1]).all(axis=1))]
    return ((hi - lo >= 2) & (nonfinite[hi] == nonfinite[lo])
            & (repeat[hi] == repeat[np.minimum(lo + 1, hi)]))


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


def _padded(flat, starts, lens, idx, K) -> np.ndarray:
    """Chains ``idx`` (chain c is ``lens[c]`` rows of ``flat`` from
    ``starts[c]``) as one (len(idx), K, 2) array, each padded by its last
    point."""
    t = np.minimum(np.arange(K), lens[idx, None] - 1)
    return flat[starts[idx, None] + t]


# --------------------------------------------------------------------------
# radial monotonicity, per chain
# --------------------------------------------------------------------------


def _chain_checks(flat, starts, lens, check: str):
    """Per well-formed chain: precondition met?, and the first violating
    ``(j, i)`` of the angle test.  ``check`` is ``"angle"``
    (:func:`_angle_test`) or ``"source"`` (:func:`_fast_path`, no witness)."""
    ok = np.ones(len(lens), dtype=bool)
    witness = np.zeros((len(lens), 2), dtype=np.intp)
    cells = (lambda k: k) if check == "source" else (lambda k: k * k)
    for idx in _blocks(lens, cells):
        P = _padded(flat, starts, lens, idx, int(lens[idx].max()))
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


def left_of(A, B, offsets, check: str = "angle") -> list:
    """Per chain pair p, rows ``offsets[p]:offsets[p + 1]`` of the aligned
    (N, 2) arrays ``A`` and ``B``: is chain A weakly left of chain B seen
    from their common source?

    At every sampled radius where a circle about the source meets both
    chains, the counterclockwise arc from B's intersection to A's must be
    less than pi (equal points allowed).  Gives ``(True, None)`` or
    ``(False, violating_radius)`` per pair, and ``None`` where the pair
    fails a precondition: a malformed chain (fewer than two points, a point
    that is not finite or a zero-length step), sources farther apart than
    ``EPS_GEOM`` times the pair's reach, or a chain that fails ``check``,
    the radial monotonicity test of its family (see the module docstring).
    The certificates call it on the leaf developments (``"angle"``) and on
    the cut banks (``"source"``) of the forest's path table.
    """
    if check not in ("angle", "source"):
        raise ValueError("check must be 'angle' or 'source'")
    offsets = np.asarray(offsets, dtype=np.intp)
    starts, lens = offsets[:-1], np.diff(offsets)
    # the A chains, then the B chains, as one table of 2 * pairs chains
    flat = np.concatenate([A, B])
    table = np.r_[offsets, len(A) + offsets[1:]]
    good = np.flatnonzero(_well_formed(flat, table))
    ok = np.zeros(2 * len(lens), dtype=bool)
    ok[good], _ = _chain_checks(flat, table[good], np.diff(table)[good],
                                check)
    pending = np.flatnonzero(ok[:len(lens)] & ok[len(lens):])
    outs: list = [None] * len(lens)
    # a pair's sweep arrays are linear in K: (4K - 1) radii, and two hit
    # coordinates per radius on each chain
    for blk in _blocks(lens[pending], lambda k: 32 * k):
        p = pending[blk]
        K = int(lens[p].max())
        radius = _sweep(_padded(A, starts, lens, p, K),
                        _padded(B, starts, lens, p, K), lens[p])
        for i, r in zip(p.tolist(), radius.tolist()):
            if not math.isnan(r):
                outs[i] = (True, None) if r == math.inf else (False, r)
    return outs


def _sweep(A, B, lens) -> np.ndarray:
    """Smallest radius at which padded chain ``A[c]`` is not left of
    ``B[c]``, both ``lens[c]`` points long (inf where it always is), over
    every vertex distance of both chains and every midpoint of two
    consecutive ones, beyond ``EPS_GEOM`` times the larger reach of the
    two and within the smaller; NaN where B's source lies farther than that
    bound from A's.  A distance that repeats only repeats radii, so no
    deduplication is needed."""
    src = A[:, 0]
    da = np.linalg.norm(A - src[:, None], axis=2)
    db = np.linalg.norm(B - src[:, None], axis=2)
    ma, mb = da.max(axis=1), db.max(axis=1)
    vals = np.sort(np.concatenate([da, db], axis=1), axis=1)
    radii = np.concatenate([vals, 0.5 * (vals[:, :-1] + vals[:, 1:])], axis=1)
    e = EPS_GEOM * np.maximum(ma, mb)[:, None]
    live = ((np.concatenate([vals, vals[:, :-1]], axis=1) > e)
            & (radii <= np.minimum(ma, mb)[:, None] + e))
    pa = _first_hits(A, da, lens, src, np.minimum(radii, ma[:, None]))
    pb = _first_hits(B, db, lens, src, np.minimum(radii, mb[:, None]))
    with np.errstate(invalid="ignore"):
        ang_a = np.arctan2(pa[..., 1] - src[:, None, 1],
                           pa[..., 0] - src[:, None, 0])
        ang_b = np.arctan2(pb[..., 1] - src[:, None, 1],
                           pb[..., 0] - src[:, None, 0])
        arc = np.mod(ang_a - ang_b, 2 * math.pi)
    slack = 1e-9
    viol = (live & ~(np.isnan(pa[..., 0]) | np.isnan(pb[..., 0]))
            & (arc >= math.pi) & (arc <= 2 * math.pi - slack))
    apart = np.hypot(*(B[:, 0] - src).T) > e[:, 0]
    return np.where(apart, np.nan, np.where(viol, radii, np.inf).min(axis=1))


def _first_hits(P, D, lens, src, R) -> np.ndarray:
    """First point along each padded chain ``P[c]`` at each distance
    ``R[c, r]`` from ``src[c]``: (C, len(R[0]), 2), NaN on miss.  ``D``
    holds the chains' vertex distances from their sources, ``D[:, 0] == 0``.

    The hit segment is the first k with ``top[k+1] >= r`` on the running
    maximum ``top`` of ``D``: one binary search, on monotone chains or not,
    for the first segment with ``D[k] <= r <= D[k+1]``.  Pad segments are
    never hit.  A segment whose ends lie less than 1e-15 of the chain's
    reach apart in distance gives its first point."""
    top = np.maximum.accumulate(D, axis=1)
    k = _row_searchsorted(top[:, 1:], R)
    c, i = np.nonzero(k < (lens - 1)[:, None])
    k = k[c, i]
    out = np.full(R.shape + (2,), np.nan)
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
    deg = np.abs(dk1 - dk0) < 1e-15 * top[c, -1]
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

"""Development of cut paths and of the whole cut-open cap into the plane.

Cutting every forest edge leaves a simply connected surface whose loops
enclose no interior vertex (the forest spans them all), so developing faces
across uncut edges is path-independent and the net is well defined by a
single breadth-first unfolding.  The leaf-to-rim cut paths additionally
get their classical left/right chain developments, turn-distortion
accounting and net banks for the left-of certificates, all paths at once
over the forest table.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order
from scipy.spatial import cKDTree

from .forest import SpanningForest
from .geom import EPS_GEOM, unwrap_directions
from .mesh import ConvexCap
from .monotone import left_of


# --------------------------------------------------------------------------
# leaf-path developments, every path at once over the forest table
# --------------------------------------------------------------------------


def _path_cumsum(x: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """``np.cumsum`` of every path's run ``x[offsets[j]:offsets[j+1]]`` in
    one pass: the runs are padded with zeros into one (paths, longest) array,
    whose rows add up in the order each run alone adds up."""
    lens = np.diff(offsets)
    inside = np.arange(lens.max(initial=0)) < lens[:, None]
    pad = np.zeros(inside.shape + x.shape[1:])
    pad[inside] = x
    return np.cumsum(pad, axis=1)[inside]


def path_turns(cap: ConvexCap, forest: SpanningForest) -> np.ndarray:
    """Turns of the left and right developments of every leaf path, (2,
    len(forest.path_vertices)) aligned with ``path_vertices``, ccw positive:
    ``pi - lam`` and ``rho - pi`` at an interior path vertex whose surface
    angle left of the path is ``lam`` and right of it ``rho``, 0 at each
    path's two ends.

    ``lam`` sweeps the vertex star counterclockwise from the outgoing edge
    back to the incoming one, so ``lam + omega + rho == 2*pi``.
    """
    pv = forest.path_vertices
    inner = np.setdiff1d(forest.path_steps, forest.path_offsets[:-1])
    v = pv[inner]
    cone = cap.fan_totals()[v]
    lam = (cap.star_angles(v, pv[inner - 1])
           - cap.star_angles(v, pv[inner + 1])) % cone
    turns = np.zeros((2, len(pv)))
    turns[0, inner] = math.pi - lam
    turns[1, inner] = (cone - lam) - math.pi
    return turns


def turn_distortion(forest: SpanningForest, turns: np.ndarray) -> float:
    """Largest difference, over every prefix of every leaf path and both
    sides, between the cumulative turning of the developed chain (``turns``
    of :func:`path_turns`) and that of the projected path, whose edge
    headings the forest table holds.  The bound it must keep,
    3*delta_perp(Phi) + 2*Omega, is the cap's (see
    :class:`capunfold.mesh.CapMetrics`)."""
    h, step = forest.path_headings, forest.path_steps
    # a path's planar turn at each step after its first
    planar = np.zeros(len(h))
    planar[step] = unwrap_directions(h[step], h[step - 1])
    planar[forest.path_offsets[:-1]] = 0.0
    prefix = _path_cumsum((turns - planar).T, forest.path_offsets)
    return float(np.abs(prefix).max(initial=0.0))


def develop_chain(cap: ConvexCap, forest: SpanningForest,
                  turns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Isometric planar developments of every leaf path along its left and
    its right bank, each (len(forest.path_vertices), 2) aligned with
    ``path_vertices``.

    The right chain starts along the projected direction of the first edge;
    the left chain starts rotated counterclockwise by the leaf curvature
    (opening the leaf cone flat separates the two copies of the first edge
    by exactly that defect).  Each then turns by its row of ``turns`` (see
    :func:`path_turns`) at every interior vertex.  Both run as the two
    columns of one pass; ``np.cumsum`` adds each column as it would alone.
    """
    V = cap.vertices
    pv, off, step = forest.path_vertices, forest.path_offsets, forest.path_steps
    first = off[:-1]
    heading = turns.T.copy()
    heading[first] = forest.path_headings[first, None]
    heading[first, 0] += 2 * math.pi - cap.fan_totals()[pv[first]]
    heading = _path_cumsum(heading, off)[step]
    lengths = np.linalg.norm(V[pv[step + 1]] - V[pv[step]], axis=1)
    x = np.empty((len(pv), 2, 2))
    x[first] = V[pv[first], None, :2]
    x[step + 1] = lengths[:, None, None] * np.stack([np.cos(heading),
                                                     np.sin(heading)], axis=2)
    x = _path_cumsum(x, off)
    return x[:, 0], x[:, 1]


# --------------------------------------------------------------------------
# global development (the net)
# --------------------------------------------------------------------------


@dataclass
class Net:
    """Planar placement of every face of the cut-open cap.

    ``images[f]`` holds the (3, 2) corner images of face ``f``, aligned
    with ``cap.triangles[f]``.
    """

    images: np.ndarray
    cut_edges: set[tuple[int, int]]

    @property
    def placed(self) -> Mapping[int, np.ndarray]:
        """Read-only ``face -> images[face]`` view, built on each access."""
        return MappingProxyType(dict(enumerate(self.images)))


def layout_net(cap: ConvexCap, forest: SpanningForest) -> Net:
    """Develop the whole cap across every non-forest edge by breadth-first
    unfolding; the result is independent of traversal order because every
    interior vertex is cut.  Faces hang from the first face that reaches
    them across an uncut side (sides in order 0, 1, 2), and each level of
    that tree is placed in one array pass."""
    T, n, m = cap.triangles, cap.n_vertices, cap.n_triangles
    lo, hi = forest.edges.min(axis=1), forest.edges.max(axis=1)
    nbr = cap.face_neighbors()
    T1 = T[:, [1, 2, 0]]
    side_key = np.minimum(T, T1) * n + np.maximum(T, T1)
    uncut = (nbr >= 0) & ~np.isin(side_key, lo * n + hi)
    indptr = np.concatenate([[0], np.cumsum(uncut.sum(axis=1))])
    graph = csr_matrix((np.ones(indptr[-1]), nbr[uncut], indptr), (m, m))
    order, pred = breadth_first_order(graph, 0, return_predecessors=True)
    if len(order) != m:
        raise RuntimeError(f"cut edges disconnect the surface: placed "
                           f"{len(order)} of {m} faces")

    # parent side kf, from corner kf to kf+1, is child side kg reversed
    G, F = order[1:], pred[order[1:]]
    kf = (nbr[F] == G[:, None]).argmax(axis=1)
    kg = (nbr[G] == F[:, None]).argmax(axis=1)

    # G[i] sits at BFS position i + 1 and its parent's position does not
    # decrease with i, so a level ends at the first face whose parent lies
    # past every face placed before that level
    rank = np.empty(m, dtype=int)
    rank[order] = np.arange(m)
    parent_rank = rank[F]

    local = _all_face_locals(cap)
    pos = np.empty((m, 3, 2))
    pos[0] = _root_placement(cap, 0, local[0])
    start = 0
    while start < len(G):
        stop = int(np.searchsorted(parent_rank, start + 1))
        lv = slice(start, stop)
        _place_level(pos, local, G[lv], F[lv], kg[lv], kf[lv])
        start = stop
    return Net(images=pos, cut_edges=set(zip(lo.tolist(), hi.tolist())))


def _all_face_locals(cap: ConvexCap) -> np.ndarray:
    """Isometric 2D coordinates of every face, (m, 3, 2), ccw."""
    V = cap.vertices
    T = cap.triangles
    o = V[T[:, 0]]
    e1 = V[T[:, 1]] - o
    e2 = V[T[:, 2]] - o
    ex = e1 / np.linalg.norm(e1, axis=1, keepdims=True)
    nrm = np.cross(e1, e2)
    nrm = nrm / np.linalg.norm(nrm, axis=1, keepdims=True)
    ey = np.cross(nrm, ex)
    local = np.zeros((len(T), 3, 2))
    local[:, 1, 0] = np.einsum("ij,ij->i", e1, ex)
    local[:, 2, 0] = np.einsum("ij,ij->i", e2, ex)
    local[:, 2, 1] = np.einsum("ij,ij->i", e2, ey)
    return local


def _root_placement(cap: ConvexCap, f: int, local: np.ndarray) -> np.ndarray:
    """Place the seed face ``f``, whose isometric 2D coordinates are
    ``local``, anchored at its projection: first vertex at its projected
    position, first edge along its projected direction.  For a flat cap
    this reproduces the projection exactly."""
    tri = cap.triangles[f]
    P = cap.vertices[tri, :2].astype(float)
    d_loc = local[1] - local[0]
    d_prj = P[1] - P[0]
    ang = math.atan2(d_prj[1], d_prj[0]) - math.atan2(d_loc[1], d_loc[0])
    c, s = math.cos(ang), math.sin(ang)
    R = np.array([[c, -s], [s, c]])
    return (local - local[0]) @ R.T + P[0]


def _place_level(pos, local, G, F, kg, kf) -> None:
    """Rigidly place the faces ``G`` so that side ``kg`` of each lands,
    reversed, on side ``kf`` of its already placed parent in ``F``."""
    src = local[G, (kg + 1) % 3]
    ds = local[G, kg] - src
    dst = pos[F, kf]
    dd = pos[F, (kf + 1) % 3] - dst
    ang = np.arctan2(dd[:, 1], dd[:, 0]) - np.arctan2(ds[:, 1], ds[:, 0])
    c, s = np.cos(ang)[:, None], np.sin(ang)[:, None]
    x = local[G, :, 0] - src[:, 0, None]
    y = local[G, :, 1] - src[:, 1, None]
    pos[G, :, 0] = c * x - s * y + dst[:, 0, None]
    pos[G, :, 1] = s * x + c * y + dst[:, 1, None]


def net_congruent(cap: ConvexCap, net: Net) -> bool:
    """Every placed triangle keeps its three 3D edge lengths, to 1e-9 of
    each length plus eight ulps of the largest coordinate of the cap or the
    net, so the bound follows the cap's units and position."""
    T, V, imgs = cap.triangles, cap.vertices, net.images
    roll = [1, 2, 0]
    l3 = np.linalg.norm(V[T[:, roll]] - V[T], axis=2)
    l2 = np.linalg.norm(imgs[:, roll] - imgs, axis=2)
    ulp = 8 * np.finfo(float).eps * max(np.abs(V).max(), np.abs(imgs).max())
    return bool(np.all(np.abs(l3 - l2) <= 1e-9 * l3 + ulp))


# --------------------------------------------------------------------------
# cut banks in the net
# --------------------------------------------------------------------------


def _banks(cap: ConvexCap, net: Net,
           forest: SpanningForest) -> tuple[np.ndarray, np.ndarray]:
    """Planar images of the left and right banks of every leaf path as
    placed in the net, each (len(forest.path_vertices), 2) aligned with
    ``path_vertices``.

    The left bank reads each path vertex out of the face lying left of the
    corresponding directed edge; where a junction splits the surrounding fan
    the two images of the same vertex both appear (a double point).  Each
    double point keeps only its image farther from the leaf (the radial
    upper envelope), which removes the micro radial dips the opened junction
    gaps introduce.
    """
    pv, off = forest.path_vertices, forest.path_offsets
    first, last, step = off[:-1], off[1:] - 1, forest.path_steps
    a, b = pv[step], pv[step + 1]
    # the face left of each path edge holds it forwards, the right one back
    faces = cap.side_faces(np.r_[a, b], np.r_[b, a])
    corners = cap.triangles[faces]
    img = net.images[faces]
    k = np.arange(len(faces))
    starts = img[k, (corners == np.r_[a, a][:, None]).argmax(axis=1)]
    ends = img[k, (corners == np.r_[b, b][:, None]).argmax(axis=1)]
    lens = np.diff(off)
    out = []
    for e in (slice(0, len(step)), slice(len(step), None)):
        # at each position, the image of its vertex in the face of the edge
        # leaving it (nxt) and of the edge arriving at it (prev)
        nxt = np.zeros((len(pv), 2))
        prev = np.zeros((len(pv), 2))
        nxt[step], prev[step + 1] = starts[e], ends[e]
        src = np.repeat(nxt[first], lens, axis=0)
        # at an interior path vertex the next face's image of it is a
        # second point unless it is within 1e-12 of this face's (as
        # np.allclose); the one farther from the leaf is kept
        apart = np.any(np.abs(nxt - prev) > 1e-12 + 1e-5 * np.abs(prev),
                       axis=1)
        farther = (np.linalg.norm(nxt - src, axis=1)
                   > np.linalg.norm(prev - src, axis=1))
        bank = np.where((apart & farther)[:, None], nxt, prev)
        bank[first], bank[last] = nxt[first], prev[last]
        out.append(bank)
    return out[0], out[1]


def banks_ordered(cap: ConvexCap, net: Net, forest: SpanningForest) -> list:
    """left_of certificate for the two net banks of every leaf path, from one
    :func:`left_of` call on the banks as the forest's path table holds them
    (split at ``path_offsets``): one verdict per path, ``None`` where the
    banks do not share the leaf image or a bank's distance from the leaf
    image decreases (left_of's ``"source"`` test).  :func:`_banks` has
    already dropped the nearer image of every double point.

    The banks share the leaf image when the right one lies within
    ``EPS_GEOM`` times the pair's reach of the left one, plus eight ulps of
    the net's largest coordinate (the rounding of a net laid out far from
    the origin)."""
    L, R = _banks(cap, net, forest)
    off = forest.path_offsets
    first = off[:-1]
    src = np.repeat(L[first], np.diff(off), axis=0)
    reach = np.maximum.reduceat(np.maximum(np.hypot(*(L - src).T),
                                           np.hypot(*(R - src).T)), first)
    ulp = 8 * np.finfo(float).eps * np.abs(net.images).max()
    shared = np.hypot(*(R[first] - L[first]).T) <= EPS_GEOM * reach + ulp
    R[first] = L[first]
    verdicts = left_of(L, R, off, check="source")
    return [v if ok else None for v, ok in zip(verdicts, shared.tolist())]


# --------------------------------------------------------------------------
# overlap detection
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class OverlapReport:
    pairs: tuple[tuple[int, int, float], ...]  # (face_i, face_j, depth)

    @property
    def clean(self) -> bool:
        return not self.pairs


_NARROW_CHUNK = 4096   # candidate pairs per narrow-phase batch
_RASTER_CELLS = 256    # raster oracle cells along the net box's longer side


def check_overlap(net: Net, eps: float | None = None) -> OverlapReport:
    """Triangle-overlap test with contact tolerance over every pair of
    placed faces whose bounding boxes, grown by eps, meet.

    A k-d tree over the box centres finds those candidate pairs (sparse
    broad phase), and the separating-axis depth runs over them in fixed-size
    chunks, so memory stays linear in the face count.  Shared developed
    edges and vertices count as contact; only genuine interior penetration
    deeper than eps is reported.
    """
    tris = net.images
    e = _contact_tolerance(tris) if eps is None else eps
    cand = _box_pairs(tris.min(axis=1), tris.max(axis=1), e)
    # (vertex, coordinate, face): a chunk's gather is pair-contiguous
    corners = np.ascontiguousarray(tris.transpose(1, 2, 0))
    pairs = []
    for k in range(0, len(cand), _NARROW_CHUNK):
        c = cand[k:k + _NARROW_CHUNK]
        depths = _pairwise_penetration(corners[..., c[:, 0]],
                                       corners[..., c[:, 1]])
        for (i, j), depth in zip(c[depths > e], depths[depths > e]):
            pairs.append((int(i), int(j), float(depth)))
    return OverlapReport(pairs=tuple(sorted(pairs)))


def _box_pairs(lo: np.ndarray, hi: np.ndarray, e: float) -> np.ndarray:
    """Sorted (i, j), i < j, of the boxes ``[lo, hi]`` that meet once each
    is grown by ``e``.  Two such boxes have centres at most
    ``2 * max half-extent + e`` apart per axis; the tree query keeps that
    radius (plus rounding slack) and the exact box test decides."""
    half = float((hi - lo).max()) / 2
    scale = float(max(np.abs(lo).max(), np.abs(hi).max())) + abs(e)
    r = 2 * half + max(e, 0.0) + 1e-12 * scale
    cand = cKDTree((lo + hi) / 2).query_pairs(r, p=np.inf,
                                              output_type="ndarray")
    i, j = cand[:, 0], cand[:, 1]
    meet = np.ones(len(cand), dtype=bool)
    for a in range(2):
        la, ha = lo[:, a], hi[:, a]
        meet &= (la[i] <= ha[j] + e) & (la[j] <= ha[i] + e)
    # i < j < m, so the key i*m + j sorts the pairs by i, then j
    m = len(lo)
    key = np.sort(i[meet] * m + j[meet])
    return np.column_stack(np.divmod(key, m))


def _pairwise_penetration(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Separating-axis penetration depth of k triangle pairs, given as
    (3, 2, k) (vertex, coordinate, pair) batches; 0 where the pair is
    separated.  The axes are the normals of A's edges, then B's."""
    E = np.concatenate([A[[1, 2, 0]] - A, B[[1, 2, 0]] - B])   # (6, 2, k)
    nx, ny = -E[:, 1], E[:, 0]
    nn = np.sqrt(nx * nx + ny * ny)
    degenerate = nn == 0
    nn[degenerate] = 1.0
    nx /= nn
    ny /= nn
    lo_a, hi_a = _extent(nx, ny, A)
    lo_b, hi_b = _extent(nx, ny, B)
    sep = np.maximum(lo_b - hi_a, lo_a - hi_b)   # (6, k)
    sep[degenerate] = -np.inf   # a zero-length edge contributes no axis
    best = sep.max(axis=0)
    return np.where(best >= 0, 0.0, -best)


def _extent(nx: np.ndarray, ny: np.ndarray, T: np.ndarray):
    """Least and greatest projection of the triangles ``T`` (3, 2, k) on
    each axis ``(nx, ny)`` (axes, k): one multiply-add over the k pairs per
    vertex, then an elementwise min and max of the three."""
    p0, p1, p2 = (nx * x + ny * y for x, y in T)
    return (np.minimum(np.minimum(p0, p1), p2),
            np.maximum(np.maximum(p0, p1), p2))


def _contact_tolerance(tris: np.ndarray) -> float:
    """1e-7 of the diagonal of the net's bounding box: the net's size, not
    its distance from the coordinate origin."""
    pts = tris.reshape(-1, 2)
    diagonal = float(np.hypot(*(pts.max(axis=0) - pts.min(axis=0))))
    return 1e-7 * (diagonal or 1.0)


def rasterize_overlap_oracle(net: Net) -> bool:
    """Coarse grid occupancy check: True when some cell center lies strictly
    inside two different placed triangles, of either orientation.  Second
    opinion for :func:`check_overlap`."""
    tris = net.images
    e1, e2 = tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]
    orient = np.sign(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    lo = tris.reshape(-1, 2).min(axis=0)
    hi = tris.reshape(-1, 2).max(axis=0)
    span = float(max(hi[0] - lo[0], hi[1] - lo[1])) or 1.0
    h = span / _RASTER_CELLS
    nx = int((hi[0] - lo[0]) / h) + 1
    ny = int((hi[1] - lo[1]) / h) + 1
    counts = np.zeros((nx, ny), dtype=np.int16)
    margin = 0.25 * h
    for tri, sign in zip(tris, orient):
        tlo = tri.min(axis=0)
        thi = tri.max(axis=0)
        i0 = max(int((tlo[0] - lo[0]) / h), 0)
        i1 = min(int((thi[0] - lo[0]) / h) + 1, nx - 1)
        j0 = max(int((tlo[1] - lo[1]) / h), 0)
        j1 = min(int((thi[1] - lo[1]) / h) + 1, ny - 1)
        if i1 < i0 or j1 < j0:
            continue
        xs = lo[0] + (np.arange(i0, i1 + 1) + 0.5) * h
        ys = lo[1] + (np.arange(j0, j1 + 1) + 0.5) * h
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        inside = np.ones(gx.shape, dtype=bool)
        for i in range(3):
            a, b = tri[i], tri[(i + 1) % 3]
            cross = (b[0] - a[0]) * (gy - a[1]) - (b[1] - a[1]) * (gx - a[0])
            inside &= sign * cross > margin * float(np.hypot(*(b - a)))
        counts[i0:i1 + 1, j0:j1 + 1] += inside
    return bool((counts >= 2).any())

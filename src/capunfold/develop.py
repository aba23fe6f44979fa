"""Development of cut paths and of the whole cut-open cap into the plane.

Cutting every forest edge leaves a simply connected surface whose loops
enclose no interior vertex (the forest spans them all), so developing faces
across uncut edges is path-independent and the net is well defined by a
single breadth-first unfolding.  Cut paths additionally get their classical
left/right chain developments, turn-distortion accounting, and bank
extraction for the left-of certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order
from scipy.spatial import cKDTree

from .forest import SpanningForest
from .geom import points_close, unwrap_directions
from .mesh import ConvexCap
from .monotone import left_of


# --------------------------------------------------------------------------
# cut-path surface angles
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CutPath:
    """Leaf-to-rim cut path with per-vertex surface angles.

    ``lam[i]``, ``rho[i]``, ``omega[i]`` are the left angle, right angle and
    curvature at interior path vertex ``i`` (1 <= i <= k-1); entries 0 and k
    are zero placeholders.
    """

    vertices: tuple[int, ...]
    lam: np.ndarray
    rho: np.ndarray
    omega: np.ndarray


def path_angles(cap: ConvexCap, vertices) -> CutPath:
    """Split the full surface angle at each interior path vertex into the
    part left of the path and the part right of it.

    At every such vertex ``lam + omega + rho == 2*pi``.
    """
    vs = [int(v) for v in vertices]
    if len(vs) < 2:
        raise ValueError("cut path needs at least one edge")
    a, b = vs[:-1], vs[1:]
    missing = np.flatnonzero(
        cap.side_faces(a + b, b + a).reshape(2, -1).max(axis=0) < 0)
    if len(missing):
        i = missing[0]
        raise ValueError(f"path edge ({a[i]}, {b[i]}) is not a mesh edge")
    k = len(vs) - 1
    lam = np.zeros(k + 1)
    rho = np.zeros(k + 1)
    omega = np.zeros(k + 1)
    for i in range(1, k):
        v = vs[i]
        if v in cap.rim_vertex_set:
            raise ValueError(f"path interior vertex {v} lies on the rim")
        cone = cap.fan_total(v)
        omega[i] = 2 * math.pi - cone
        neighbors, theta = cap.vertex_fan(v)
        t_prev = theta[neighbors.index(vs[i - 1])]
        t_next = theta[neighbors.index(vs[i + 1])]
        # ccw fan: the angle left of the travel direction sweeps from the
        # outgoing edge counterclockwise back to the incoming edge
        lam[i] = (t_prev - t_next) % cone
        rho[i] = cone - lam[i]
    return CutPath(vertices=tuple(vs), lam=lam, rho=rho, omega=omega)


def _cut_path(cap: ConvexCap, path) -> CutPath:
    """``path`` itself if it is a :class:`CutPath`, else its surface angles."""
    return path if isinstance(path, CutPath) else path_angles(cap, path)


def develop_chain(cap: ConvexCap, path, side: str) -> np.ndarray:
    """Isometric planar development of a cut path along one of its banks.

    ``path`` is a vertex list or the :class:`CutPath` of one.

    The right chain starts along the projected direction of the first edge;
    the left chain starts rotated counterclockwise by the leaf curvature
    (opening the leaf cone flat separates the two copies of the first edge
    by exactly that defect).  Turn at interior vertex i is ``pi - lam[i]``
    on the left and ``rho[i] - pi`` on the right (ccw positive).
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    cp = _cut_path(cap, path)
    vs = np.asarray(cp.vertices)
    V = cap.vertices
    lengths = np.linalg.norm(V[vs[1:]] - V[vs[:-1]], axis=1)
    d0 = V[vs[1], :2] - V[vs[0], :2]
    heading = math.atan2(d0[1], d0[0])
    k = len(vs) - 1
    if side == "left":
        leaf = int(vs[0])
        if leaf not in cap.rim_vertex_set:
            heading += cap.vertex_curvature(leaf)
        turns = math.pi - cp.lam[1:k]
    else:
        turns = cp.rho[1:k] - math.pi
    headings = np.cumsum(np.concatenate([[heading], turns]))
    steps = lengths[:, None] * np.column_stack([np.cos(headings),
                                                np.sin(headings)])
    return np.cumsum(np.vstack([V[vs[0], :2], steps]), axis=0)


# --------------------------------------------------------------------------
# turn distortion
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TurnDistortion:
    """Prefix-wise turn difference between a developed cut path and its
    planar projection; the bound it must keep, 3*delta_perp(Phi) + 2*Omega,
    is the cap's (see :class:`capunfold.mesh.CapMetrics`)."""

    prefix_left: np.ndarray
    prefix_right: np.ndarray

    @property
    def max_abs(self) -> float:
        vals = [0.0]
        if len(self.prefix_left):
            vals.append(float(np.abs(self.prefix_left).max()))
        if len(self.prefix_right):
            vals.append(float(np.abs(self.prefix_right).max()))
        return max(vals)


def turn_distortion(cap: ConvexCap, path) -> TurnDistortion:
    """Compare the cumulative turning of each developed chain against the
    projected path (a vertex list or its :class:`CutPath`), prefix by
    prefix."""
    cp = _cut_path(cap, path)
    k = len(cp.vertices) - 1
    d = np.diff(cap.vertices[list(cp.vertices), :2], axis=0)
    ang = np.arctan2(d[:, 1], d[:, 0])
    planar = unwrap_directions(ang[1:], ang[:-1])
    tau_left = math.pi - cp.lam[1:k]
    tau_right = cp.rho[1:k] - math.pi
    prefix_left = np.cumsum(tau_left - planar) if k > 1 else np.zeros(0)
    prefix_right = np.cumsum(tau_right - planar) if k > 1 else np.zeros(0)
    return TurnDistortion(prefix_left=prefix_left, prefix_right=prefix_right)


# --------------------------------------------------------------------------
# global development (the net)
# --------------------------------------------------------------------------


@dataclass
class Net:
    """Planar placement of every face of the cut-open cap.

    ``placed[f]`` is a (3, 2) array of corner images aligned with
    ``cap.triangles[f]``; ``strip_of`` (filled by the strip stage) maps a
    face to its (quadrant, strip) provenance.
    """

    placed: dict[int, np.ndarray]
    cut_edges: set[tuple[int, int]]
    strip_of: dict[int, tuple[int, int]] = field(default_factory=dict)

    def triangle_array(self) -> np.ndarray:
        order = sorted(self.placed)
        return np.stack([self.placed[f] for f in order]), order


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

    depth = [0] * m
    for g, f in zip(G.tolist(), F.tolist()):
        depth[g] = depth[f] + 1
    cuts = np.flatnonzero(np.diff(np.asarray(depth)[G])) + 1

    local = _all_face_locals(cap)
    pos = np.empty((m, 3, 2))
    pos[0] = _root_placement(cap, 0, local[0])
    for lv in np.split(np.arange(len(G)), cuts):
        _place_level(pos, local, G[lv], F[lv], kg[lv], kf[lv])
    return Net(placed=dict(zip(order.tolist(), pos[order])),
               cut_edges=set(zip(lo.tolist(), hi.tolist())))


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


def net_congruent(cap: ConvexCap, net: Net, tol: float = 1e-9) -> bool:
    """Every placed triangle keeps its three 3D edge lengths."""
    order = sorted(net.placed)
    imgs = np.stack([net.placed[f] for f in order])
    tris = cap.triangles[np.asarray(order)]
    V = cap.vertices
    roll = [1, 2, 0]
    l3 = np.linalg.norm(V[tris[:, roll]] - V[tris], axis=2)
    l2 = np.linalg.norm(imgs[:, roll] - imgs, axis=2)
    return bool(np.all(np.abs(l3 - l2) <= tol * np.maximum(1.0, l3)))


# --------------------------------------------------------------------------
# cut banks in the net
# --------------------------------------------------------------------------


def bank_chains(cap: ConvexCap, net: Net, vertices) -> tuple[np.ndarray, np.ndarray]:
    """Planar images of the two banks of a cut path as placed in the net.

    The left bank reads each path vertex out of the face lying left of the
    corresponding directed edge; where a junction splits the surrounding fan
    the two images of the same vertex both appear (a double point).  Each
    double point keeps only its image farther from the leaf (the radial
    upper envelope), which removes the micro radial dips the opened junction
    gaps introduce.
    """
    vs = np.asarray(vertices, dtype=np.intp)
    a, b = vs[:-1], vs[1:]
    steps = np.arange(len(a))
    out = []
    # the face left of each path edge holds it forwards, the right one back
    for fs in (cap.side_faces(a, b), cap.side_faces(b, a)):
        corners = cap.triangles[fs]
        img = np.stack([net.placed[f] for f in fs.tolist()])
        start = img[steps, (corners == a[:, None]).argmax(axis=1)]
        end = img[steps, (corners == b[:, None]).argmax(axis=1)]
        # at an interior path vertex the next face's image of it is a
        # second point unless it is within 1e-12 of this face's (as
        # points_close); the one farther from the leaf is kept
        prev, nxt = end[:-1], start[1:]
        apart = np.any(np.abs(nxt - prev) > 1e-12 + 1e-5 * np.abs(prev),
                       axis=1)
        farther = (np.linalg.norm(nxt - start[0], axis=1)
                   > np.linalg.norm(prev - start[0], axis=1))
        mid = np.where((apart & farther)[:, None], nxt, prev)
        out.append(np.vstack([start[:1], mid, end[-1:]]))
    return out[0], out[1]


def banks_ordered(cap: ConvexCap, net: Net, vertices):
    """left_of certificate for the two banks of one leaf-to-root cut path.

    Given a list of paths, one verdict per path, ``None`` where a bank is
    not radially monotone, from one :func:`left_of` call; a failure raises
    as it would on the first failing path alone."""
    many = len(vertices) == 0 or np.ndim(vertices[0]) > 0
    pairs = []
    try:
        for path in (vertices if many else [vertices]):
            L, R = bank_chains(cap, net, path)
            if not points_close(L[0], R[0], atol=1e-9):
                raise RuntimeError("cut banks do not share the leaf image")
            R = R.copy()
            R[0] = L[0]
            pairs.append((L, R))
    except Exception:
        left_of(pairs, check="oracle")   # an earlier path's failure first
        raise
    if many:
        return left_of(pairs, check="oracle")
    return left_of(*pairs[0], check="oracle")


# --------------------------------------------------------------------------
# overlap detection
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class OverlapReport:
    pairs: tuple[tuple[int, int, float], ...]  # (face_i, face_j, depth)

    @property
    def clean(self) -> bool:
        return not self.pairs


_NARROW_CHUNK = 8192   # candidate pairs per narrow-phase batch


def check_overlap(net: Net, eps: float | None = None) -> OverlapReport:
    """Triangle-overlap test with contact tolerance over every pair of
    placed faces whose bounding boxes, grown by eps, meet.

    A k-d tree over the box centres finds those candidate pairs (sparse
    broad phase), and the separating-axis depth runs over them in fixed-size
    chunks, so memory stays linear in the face count.  Shared developed
    edges and vertices count as contact; only genuine interior penetration
    deeper than eps is reported.
    """
    tris, order = net.triangle_array()
    e = _contact_tolerance(tris) if eps is None else eps
    cand = _box_pairs(tris.min(axis=1), tris.max(axis=1), e)
    pairs = []
    for k in range(0, len(cand), _NARROW_CHUNK):
        c = cand[k:k + _NARROW_CHUNK]
        depths = _pairwise_penetration(tris[c[:, 0]], tris[c[:, 1]])
        for (i, j), depth in zip(c[depths > e], depths[depths > e]):
            pairs.append((order[int(i)], order[int(j)], float(depth)))
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
    meet = ((lo[i] <= hi[j] + e) & (lo[j] <= hi[i] + e)).all(axis=1)
    cand = cand[meet]
    return cand[np.lexsort((cand[:, 1], cand[:, 0]))]


def _pairwise_penetration(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Vectorized separating-axis penetration depth for (k, 3, 2) triangle
    batches; 0 where the pair is separated."""
    k = len(A)
    edges = np.concatenate([A[:, [1, 2, 0]] - A, B[:, [1, 2, 0]] - B], axis=1)
    normals = np.stack([-edges[..., 1], edges[..., 0]], axis=-1)  # (k, 6, 2)
    nn = np.linalg.norm(normals, axis=-1, keepdims=True)
    degenerate = nn[..., 0] == 0
    nn[nn == 0] = 1.0
    normals = normals / nn
    pa = np.einsum("kac,kvc->kav", normals, A)   # (k, 6, 3)
    pb = np.einsum("kac,kvc->kav", normals, B)
    sep = np.maximum(pb.min(axis=2) - pa.max(axis=2),
                     pa.min(axis=2) - pb.max(axis=2))   # (k, 6)
    sep[degenerate] = -np.inf   # a zero-length edge contributes no axis
    best = sep.max(axis=1)
    return np.where(best >= 0, 0.0, -best)


def _contact_tolerance(tris: np.ndarray) -> float:
    scale = float(np.abs(tris).max()) or 1.0
    return 1e-7 * scale


def rasterize_overlap_oracle(net: Net, resolution: int = 256) -> bool:
    """Coarse grid occupancy check: True when some cell center lies strictly
    inside two different placed triangles.  Second opinion for
    :func:`check_overlap`."""
    tris, _ = net.triangle_array()
    lo = tris.reshape(-1, 2).min(axis=0)
    hi = tris.reshape(-1, 2).max(axis=0)
    span = float(max(hi[0] - lo[0], hi[1] - lo[1])) or 1.0
    h = span / resolution
    nx = int((hi[0] - lo[0]) / h) + 1
    ny = int((hi[1] - lo[1]) / h) + 1
    counts = np.zeros((nx, ny), dtype=np.int16)
    margin = 0.25 * h
    for tri in tris:
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
            inside &= cross > margin * float(np.hypot(*(b - a)))
        counts[i0:i1 + 1, j0:j1 + 1] += inside
    return bool((counts >= 2).any())

"""Hand-built caps with exactly known geometry, the generated caps the
oracle tests share, and one-path and one-chain views of the array kernels,
used across test modules."""

import functools
import math
from types import SimpleNamespace

import numpy as np

from capunfold.mesh import ConvexCap
from capunfold.monotone import _chain_checks
from monotone_reference import _as_chain

DEG = math.pi / 180


def pentagonal_pyramid() -> ConvexCap:
    """Five equilateral triangles around an apex: the cap of an icosahedron.

    Rim on the unit circle at z=0, apex at height 1/golden-ratio, every edge
    of length 2*sin(36deg).  Exact values: face tilt 37.3774deg, apex defect
    60deg, rim angles 120deg (surface) / 108deg (projected).
    """
    ang = (90 + 72 * np.arange(5)) * DEG
    rim = np.stack([np.cos(ang), np.sin(ang), np.zeros(5)], axis=1)
    apex = np.array([[0.0, 0.0, 0.6180339887498949]])
    vertices = np.vstack([rim, apex])
    triangles = np.array([(k, (k + 1) % 5, 5) for k in range(5)])
    return ConvexCap(vertices, triangles)


def square_pyramid(height: float = 0.3) -> ConvexCap:
    """Four triangles over a unit-circumradius square rim."""
    ang = (45 + 90 * np.arange(4)) * DEG
    rim = np.stack([np.cos(ang), np.sin(ang), np.zeros(4)], axis=1)
    apex = np.array([[0.0, 0.0, height]])
    vertices = np.vstack([rim, apex])
    triangles = np.array([(k, (k + 1) % 4, 4) for k in range(4)])
    return ConvexCap(vertices, triangles)


def flat_hex_disk(lift: float = 0.0) -> ConvexCap:
    """Six triangles around one interior vertex; flat when lift == 0."""
    ang = 60 * np.arange(6) * DEG
    rim = np.stack([np.cos(ang), np.sin(ang), np.zeros(6)], axis=1)
    center = np.array([[0.0, 0.0, lift]])
    vertices = np.vstack([rim, center])
    triangles = np.array([(k, (k + 1) % 6, 6) for k in range(6)])
    return ConvexCap(vertices, triangles)


def flat_grid(k: int) -> ConvexCap:
    """``k`` x ``k`` points on [-1, 1]^2 at z = 0, each square split along
    the same diagonal: rows and columns of vertices lie on the axes of a
    plain frame."""
    t = np.linspace(-1.0, 1.0, k)
    x, y = np.meshgrid(t, t)
    vertices = np.column_stack([x.ravel(), y.ravel(), np.zeros(k * k)])
    a = (np.arange(k - 1)[:, None] * k + np.arange(k - 1)).ravel()
    triangles = np.concatenate([np.column_stack([a, a + 1, a + k + 1]),
                                np.column_stack([a, a + k + 1, a + k])])
    return ConvexCap(vertices, triangles)


@functools.lru_cache(maxsize=None)
def oracle_set():
    """The caps on which the array passes are checked against their loop
    references, each with its central-origin forest: budget caps at n=200
    (seeds 0-99) and n=500 (seeds 0-9), and n=200 caps at 33 and 70 deg
    (seeds 0-14 each).  Built once per test session."""
    from capunfold.forest import build_forest, choose_origin
    from capunfold.generate import generate_budget_cap, generate_cap

    caps = [generate_budget_cap(200, seed=s) for s in range(100)]
    caps += [generate_budget_cap(500, seed=s) for s in range(10)]
    caps += [generate_cap(200, phi=phi * DEG, seed=s)
             for phi in (33, 70) for s in range(15)]
    return tuple((cap, build_forest(cap, choose_origin(cap, "central")))
                 for cap in caps)


def adjacency_reference(T) -> SimpleNamespace:
    """Cap adjacency built by a loop over the faces into Python containers:
    ``edge_faces`` (undirected edge -> incident faces, ascending),
    ``directed`` (directed side -> face), ``vertex_faces``,
    ``boundary_edges``, ``interior_edges``, ``n_edges`` and the
    counterclockwise ``rim`` loop.  Raises ``ValueError`` where the mesh is
    not an oriented disk."""
    T = np.asarray(T)
    edge_faces: dict[tuple[int, int], list[int]] = {}
    directed: dict[tuple[int, int], int] = {}
    vertex_faces: dict[int, list[int]] = {}
    for f, (a, b, c) in enumerate(T.tolist()):
        for u, v in ((a, b), (b, c), (c, a)):
            edge_faces.setdefault((min(u, v), max(u, v)), []).append(f)
            if (u, v) in directed:
                raise ValueError(f"directed edge {(u, v)} appears twice")
            directed[(u, v)] = f
        for v in (a, b, c):
            vertex_faces.setdefault(v, []).append(f)
    boundary = {e for e, fs in edge_faces.items() if len(fs) == 1}

    nxt = {}
    for a, b in boundary:
        if (a, b) in directed:
            nxt[a] = b
        else:
            nxt[b] = a
    if not nxt:
        raise ValueError("mesh has no boundary: not a disk with rim")
    loop = [min(nxt)]
    while nxt[loop[-1]] != loop[0]:
        loop.append(nxt[loop[-1]])
        if len(loop) > len(nxt):
            raise ValueError("boundary is not a single simple loop")
    if len(loop) != len(nxt):
        raise ValueError("boundary splits into multiple loops")
    return SimpleNamespace(
        edge_faces=edge_faces, directed=directed, vertex_faces=vertex_faces,
        boundary_edges=boundary,
        interior_edges={e for e, fs in edge_faces.items() if len(fs) == 2},
        n_edges=len(edge_faces), rim=loop)


def fan_reference(cap, v):
    """The ccw star of ``v`` walked one corner at a time through Python
    dicts: ``(neighbors, theta)`` as :meth:`ConvexCap.vertex_fan` returns
    it.  A vertex in no face has an empty star; a star that is not a single
    chain raises ``ValueError``."""
    # in a ccw triangle (v, a, b) the wedge at v runs ccw from v->a to v->b
    faces, i = cap.vertex_corners(v)
    tri, k = cap.triangles[faces], np.arange(len(faces))
    a = tri[k, (i + 1) % 3].tolist()
    succ = dict(zip(a, tri[k, (i + 2) % 3].tolist()))
    wedge = dict(zip(a, cap.face_angles()[faces, i].tolist()))
    if not succ:
        return [], np.array([0.0])
    if v in cap.rim_vertex_set:
        start = next(iter(set(succ) - set(succ.values())))
    else:
        start = min(succ)
    neighbors = [start]
    theta = [0.0]
    cur = start
    while cur in succ:
        nxt = succ[cur]
        theta.append(theta[-1] + wedge[cur])
        if nxt == start:
            break
        neighbors.append(nxt)
        cur = nxt
    if len(neighbors) != len(succ) + (1 if v in cap.rim_vertex_set else 0):
        raise ValueError(f"fan at vertex {v} is not a single chain")
    return neighbors, np.array(theta)


def leaf_paths(forest) -> list[np.ndarray]:
    """Each leaf's path to the rim: ``path_vertices`` split at
    ``path_offsets``."""
    off = forest.path_offsets
    return [forest.path_vertices[i:j] for i, j in zip(off[:-1], off[1:])]


def chain_table(chains):
    """Chains as the kernel of :mod:`capunfold.monotone` reads them: all
    their points in one array, and each chain's first row and length."""
    lens = np.array([len(c) for c in chains], dtype=np.intp)
    return (np.concatenate([np.zeros((0, 2)), *chains]),
            np.cumsum(lens) - lens, lens)


def pair_table(pairs):
    """Chain pairs of equal length as ``left_of``'s path table: the first
    chains' points, the second chains' points, and the pairs' offsets."""
    assert all(len(a) == len(b) for a, b in pairs)
    A, starts, _ = chain_table([a for a, _ in pairs])
    B, _, _ = chain_table([b for _, b in pairs])
    return A, B, np.r_[starts, len(A)]


def chain_radially_monotone(points) -> tuple[bool, tuple[int, int] | None]:
    """The angle kernel of :mod:`capunfold.monotone` on one chain:
    ``(True, None)``, or ``(False, (j, i))`` with the first violating pair.
    A malformed chain raises ``ValueError``."""
    ok, witness = _chain_checks(*chain_table([_as_chain(points)]), "angle")
    if ok[0]:
        return True, None
    return False, (int(witness[0, 0]), int(witness[0, 1]))


def forest_reference(cap, parent):
    """A spanning forest walked link by link through its ``parent`` dict:
    the sorted ``edges`` and ``leaves``, each leaf's path to its root
    (``paths``), the tree ``root`` of every child, the children of each
    tree (``trees``, roots ascending, each sorted) and the planar
    ``directions`` of the edges by child, from ``np.arctan2`` over each
    path's steps.  A walk that revisits a vertex raises ``ValueError``."""
    parents = set(parent.values())
    leaves = sorted(v for v in parent if v not in parents)
    P = cap.vertices[:, :2]
    paths, root, directions = [], {}, {}
    for leaf in leaves:
        path, seen = [leaf], {leaf}
        while path[-1] in parent:
            nxt = parent[path[-1]]
            if nxt in seen:
                raise ValueError(f"cycle through vertex {nxt}")
            path.append(nxt)
            seen.add(nxt)
        paths.append(path)
        d = np.diff(P[path], axis=0)
        for v, ang in zip(path, np.arctan2(d[:, 1], d[:, 0]).tolist()):
            root[v] = path[-1]
            directions[v] = ang
    trees: dict[int, list[int]] = {}
    for v in sorted(root):
        trees.setdefault(root[v], []).append(v)
    return SimpleNamespace(
        edges=sorted(parent.items()), leaves=leaves, paths=paths, root=root,
        trees=[trees[r] for r in sorted(trees)], directions=directions)


def wedge_contains(wedge, direction: float, slack: float = 1e-9) -> bool:
    """The scalar rule for a direction in a closed wedge, within ``slack``
    on both sides."""
    delta = math.fmod(direction - wedge.base, 2.0 * math.pi)
    if delta < 0.0:
        delta += 2.0 * math.pi
    if delta <= wedge.width + slack:
        return True
    # a direction just below ``base`` wraps to delta ~ 2*pi
    return delta >= 2.0 * math.pi - slack


def grow_path(cap, in_forest, v, wedge):
    """One greedy walk from interior vertex ``v``, neighbour by neighbour:
    each step takes the edge in ``wedge`` closest to its bisector (ties to
    the smaller label), until the walk reaches the rim or a vertex of
    ``in_forest``."""
    from capunfold.forest import ForestError
    from capunfold.geom import normalize_angle

    P = cap.vertices[:, :2]
    path, visited, cur = [v], {v}, v
    for _ in range(cap.n_vertices + 1):
        neighbors, _ = cap.vertex_fan(cur)
        admissible = []
        for u in neighbors:
            d = P[u] - P[cur]
            ang = math.atan2(d[1], d[0])
            if wedge_contains(wedge, ang):
                admissible.append((abs(normalize_angle(ang - wedge.bisector)), u))
        if not admissible:
            raise ForestError(
                f"no admissible edge at vertex {cur} for wedge "
                f"[{wedge.base:.6f}, +{wedge.width:.6f}]; "
                f"neighbor star: {neighbors}")
        chosen = min(admissible)[1]
        if chosen in visited:
            raise ForestError(f"path revisited vertex {chosen}")
        path.append(chosen)
        visited.add(chosen)
        if chosen in cap.rim_vertex_set or chosen in in_forest:
            return path
        cur = chosen
    raise ForestError("path growth failed to terminate")


def forest_growth_reference(cap, qs) -> SimpleNamespace:
    """:func:`capunfold.forest.build_forest` grown path by path: q's own
    walk first, then each quadrant's vertices, farthest from q first (ties
    by label), each walking by :func:`grow_path` to the rim or the forest
    grown so far.  Returns ``parent``, ``quadrant_of_vertex`` and
    ``system``."""
    from capunfold.forest import ForestError
    from capunfold.geom import unwrap_directions

    P = cap.vertices[:, :2]
    q = qs.origin
    parent, quadrant_of_vertex = {}, {}

    def commit(path, quad):
        for a, b in zip(path, path[1:]):
            parent[a] = b
            quadrant_of_vertex.setdefault(a, quad)

    neighbors, _ = cap.vertex_fan(q)
    d = P[neighbors] - P[q]
    ang = np.arctan2(d[:, 1], d[:, 0])
    i = qs.quadrant_of(ang)
    off = np.abs(unwrap_directions(
        ang, qs.base + i * qs.theta + 0.5 * qs.theta))
    off[i < 0] = np.inf
    if np.isinf(off.min(initial=np.inf)):
        raise ForestError(f"no edge at origin {q} lies in any quadrant")
    quad0 = int(i[off.argmin()])
    commit(grow_path(cap, parent, q, qs.quadrant(quad0)), quad0)
    others = cap.interior_vertices[cap.interior_vertices != q]
    d = P[others] - P[q]
    order = np.lexsort((others, -np.hypot(d[:, 0], d[:, 1])))
    quad = qs.quadrant_of(np.arctan2(d[:, 1], d[:, 0]))[order]
    for i in range(4):
        for v in others[order][quad == i].tolist():
            if v not in parent:
                commit(grow_path(cap, parent, v, qs.quadrant(i)), i)
    missing = set(cap.interior_vertices.tolist()) - set(parent)
    if missing:
        raise ForestError(f"forest failed to span vertices {sorted(missing)}")
    return SimpleNamespace(parent=parent,
                           quadrant_of_vertex=quadrant_of_vertex, system=qs)


def rim_fan(k: int, lift: float = 0.1) -> ConvexCap:
    """``k`` triangles around one centre vertex that touches every rim
    vertex: the longest star a cap of its size can have."""
    ang = 2 * math.pi * np.arange(k) / k
    rim = np.stack([np.cos(ang), np.sin(ang), np.zeros(k)], axis=1)
    vertices = np.vstack([rim, [[0.0, 0.0, lift]]])
    triangles = np.array([(j, (j + 1) % k, k) for j in range(k)])
    return ConvexCap(vertices, triangles)


def quarter_turn(cap, k):
    """``cap`` turned by k quarter turns about z: exact, coordinates only
    swap and change sign."""
    V = cap.vertices.copy()
    for _ in range(k):
        V[:, 0], V[:, 1] = -V[:, 1], V[:, 0].copy()
    return ConvexCap(V, cap.triangles)


@functools.lru_cache(maxsize=None)
def large_net_cap() -> ConvexCap:
    """``generate_budget_cap(5000, seed=0)``: 4921 vertices, 9600 faces."""
    from capunfold.generate import generate_budget_cap

    return generate_budget_cap(5000, seed=0)


def turned_defect_cap() -> ConvexCap:
    """``generate_budget_cap(500, seed=9)`` turned about z by
    5.612820548402247 rad: within the tilt budget.  While each waterfall
    path rode the envelope of all earlier paths, the rounded global points
    of one of its paths were not simple."""
    from capunfold.generate import generate_budget_cap

    cap = generate_budget_cap(500, seed=9)
    a = 5.612820548402247
    V = cap.vertices.copy()
    V[:, :2] = V[:, :2] @ np.array([[math.cos(a), math.sin(a)],
                                    [-math.sin(a), math.cos(a)]])
    return ConvexCap(V, cap.triangles)


def path_angles(cap, vertices) -> SimpleNamespace:
    """Surface angles of one cut path, vertex by vertex from
    :meth:`ConvexCap.vertex_fan`: ``lam[i]``, ``rho[i]``, ``omega[i]`` are
    the left angle, right angle and curvature at interior path vertex ``i``
    (1 <= i <= k-1), with ``lam + omega + rho == 2*pi``; entries 0 and k
    are zero placeholders.  The reference of
    :func:`capunfold.develop.path_turns`."""
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
    lam, rho, omega = np.zeros(k + 1), np.zeros(k + 1), np.zeros(k + 1)
    for i in range(1, k):
        v = vs[i]
        if v in cap.rim_vertex_set:
            raise ValueError(f"path interior vertex {v} lies on the rim")
        cone = cap.fan_totals()[v]
        omega[i] = 2 * math.pi - cone
        neighbors, theta = cap.vertex_fan(v)
        t_prev = theta[neighbors.index(vs[i - 1])]
        t_next = theta[neighbors.index(vs[i + 1])]
        # ccw fan: the angle left of the travel direction sweeps from the
        # outgoing edge counterclockwise back to the incoming edge
        lam[i] = (t_prev - t_next) % cone
        rho[i] = cone - lam[i]
    return SimpleNamespace(vertices=tuple(vs), lam=lam, rho=rho, omega=omega)


def develop_chain(cap, vertices, side: str) -> np.ndarray:
    """One cut path developed along one bank, the path's own arrays only:
    the reference of :func:`capunfold.develop.develop_chain`."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    cp = path_angles(cap, vertices)
    vs = np.asarray(cp.vertices)
    V = cap.vertices
    lengths = np.linalg.norm(V[vs[1:]] - V[vs[:-1]], axis=1)
    d0 = V[vs[1], :2] - V[vs[0], :2]
    heading = math.atan2(d0[1], d0[0])
    k = len(vs) - 1
    if side == "left":
        if int(vs[0]) not in cap.rim_vertex_set:
            heading += 2 * math.pi - cap.fan_totals()[int(vs[0])]
        turns = math.pi - cp.lam[1:k]
    else:
        turns = cp.rho[1:k] - math.pi
    headings = np.cumsum(np.concatenate([[heading], turns]))
    steps = lengths[:, None] * np.column_stack([np.cos(headings),
                                                np.sin(headings)])
    return np.cumsum(np.vstack([V[vs[0], :2], steps]), axis=0)


def turn_distortion(cap, vertices) -> SimpleNamespace:
    """Prefix-wise turn difference between each developed chain of one cut
    path and its planar projection (``prefix_left``, ``prefix_right``) and
    their largest magnitude ``max_abs``: the reference of
    :func:`capunfold.develop.turn_distortion`."""
    from capunfold.geom import unwrap_directions

    cp = path_angles(cap, vertices)
    k = len(cp.vertices) - 1
    d = np.diff(cap.vertices[list(cp.vertices), :2], axis=0)
    ang = np.arctan2(d[:, 1], d[:, 0])
    planar = unwrap_directions(ang[1:], ang[:-1])
    left = np.cumsum(math.pi - cp.lam[1:k] - planar)
    right = np.cumsum(cp.rho[1:k] - math.pi - planar)
    return SimpleNamespace(
        prefix_left=left, prefix_right=right,
        max_abs=max([0.0] + [float(np.abs(p).max()) for p in (left, right)
                             if len(p)]))


def bank_chains(cap, net, vertices) -> tuple[np.ndarray, np.ndarray]:
    """Planar images of the two banks of one cut path as placed in the net,
    each double point kept at its image farther from the leaf: the
    reference of the banks :func:`capunfold.develop.banks_ordered`
    checks."""
    vs = np.asarray(vertices, dtype=np.intp)
    a, b = vs[:-1], vs[1:]
    steps = np.arange(len(a))
    out = []
    for fs in (cap.side_faces(a, b), cap.side_faces(b, a)):
        corners = cap.triangles[fs]
        img = net.images[fs]
        start = img[steps, (corners == a[:, None]).argmax(axis=1)]
        end = img[steps, (corners == b[:, None]).argmax(axis=1)]
        prev, nxt = end[:-1], start[1:]
        apart = np.any(np.abs(nxt - prev) > 1e-12 + 1e-5 * np.abs(prev),
                       axis=1)
        farther = (np.linalg.norm(nxt - start[0], axis=1)
                   > np.linalg.norm(prev - start[0], axis=1))
        mid = np.where((apart & farther)[:, None], nxt, prev)
        out.append(np.vstack([start[:1], mid, end[-1:]]))
    return out[0], out[1]


@functools.lru_cache(maxsize=None)
def certificate_caps():
    """``(cap, forest, net)`` of the :func:`oracle_set` caps, the
    ``generate_budget_cap(5000, seed=0)`` cap at all four quarter turns and
    :func:`turned_defect_cap`, each with its central-origin forest."""
    from capunfold.develop import layout_net
    from capunfold.forest import build_forest, choose_origin

    caps = [quarter_turn(large_net_cap(), k) for k in range(4)]
    caps.append(turned_defect_cap())
    sets = list(oracle_set()) + [
        (cap, build_forest(cap, choose_origin(cap, "central")))
        for cap in caps]
    return tuple((cap, forest, layout_net(cap, forest))
                 for cap, forest in sets)


@functools.lru_cache(maxsize=None)
def certificate_pairs():
    """Every chain pair the certificates hand to ``left_of``, per family,
    built path by path by the references above over the
    :func:`certificate_caps`, in their order: ``"chains"`` (left and right
    developments of each leaf path, angle check) and ``"banks"`` (the two
    net banks of each leaf path, source check); and, as more test data for
    the kernel, ``"waterfall"`` (the global points of consecutive waterfall
    paths of each quadrant, both cut to the shorter one's length, angle
    check, which the certificates decide on the paths' whole oblique
    points instead; then two fixed pairs whose upper chain breaks a
    precondition, one not simple and one not radially monotone, since the
    waterfall paths of these caps break none)."""
    from capunfold.strips import waterfall_strips

    out = {"chains": [], "banks": [], "waterfall": []}
    for cap, forest, net in certificate_caps():
        for path in leaf_paths(forest):
            out["chains"].append((develop_chain(cap, path, "left"),
                                  develop_chain(cap, path, "right")))
            L, R = bank_chains(cap, net, path)
            R = R.copy()
            R[0] = L[0]
            out["banks"].append((L, R))
        system = waterfall_strips(cap, forest)
        for ps in (system.paths[i] for i in range(4)):
            for lower, upper in zip(ps, ps[1:]):
                k = min(len(upper.points), len(lower.points))
                up = upper.points[:k].copy()
                up[0] = lower.points[0]
                out["waterfall"].append((up, lower.points[:k]))
    lower = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
    for upper in ([[0, 0], [2, 0], [1, 1], [1, -1]],
                  [[0, 0], [2, 0], [2, 1], [0.2, 1]]):
        out["waterfall"].append((np.array(upper, dtype=float), lower))
    return out

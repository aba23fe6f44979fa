"""Hand-built caps with exactly known geometry, and the generated caps the
oracle tests share, used across test modules."""

import functools
import math
from types import SimpleNamespace

import numpy as np

from capunfold.mesh import ConvexCap

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

"""Output checker for cap unfoldings, written apart from capunfold.

Every check here recomputes its geometry from the cap's vertex and
triangle arrays with its own code; nothing is imported from the program
under test, so a fault in a shared helper cannot hide itself.  Each check
returns a list of problem strings; an empty list means the output passed.

Checks on a result (:func:`check_result`):

* every face is placed exactly once;
* each placed triangle keeps its three 3D side lengths;
* at every uncut interior edge the two faces give both endpoints the same
  image;
* the net's signed area equals the cap's surface area (a mirrored face
  would lower it);
* there are as many cut edges as interior vertices, they are exactly the
  forest's parent links, and those links lead from every interior vertex
  to the rim without a cycle;
* every leaf-to-root path's projected edge directions fit in a wedge of
  width pi/2 - alpha', alpha' taken from the planar corner angles;
* an independent pairwise triangle-interior test agrees with the
  program's overlap verdict;
* the status agrees with the tilt budget phi <= sqrt(2/(4 pi+3)) sqrt(alpha').

:func:`check_artifacts` checks the files ``capunfold unfold`` writes.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

# Lengths and images may differ by this share of the cap's diameter.
LENGTH_TOL = 1e-9
# Triangles are shrunk by this share of the net's diameter before the
# overlap test, so faces that only touch along an edge or at a vertex are
# not counted as overlapping.
CONTACT_TOL = 1e-9
# Directions may exceed the wedge by this many radians.
ANGLE_TOL = 1e-9

BUDGET_FACTOR = math.sqrt(2.0 / (4.0 * math.pi + 3.0))
EXIT_OF_STATUS = {"proven_clean": 0, "empirical_clean": 1, "overlap": 2}


# --------------------------------------------------------------------------
# cap geometry, recomputed from the arrays
# --------------------------------------------------------------------------


def diameter(points: np.ndarray) -> float:
    """Diagonal of the points' bounding box (at most sqrt(3) times the
    true diameter)."""
    span = points.max(axis=0) - points.min(axis=0)
    return float(np.linalg.norm(span))


def edge_faces(T: np.ndarray):
    """Undirected edges of a triangle mesh with their incident faces.

    Returns ``(interior, boundary)``: ``interior`` is a (k, 4) int array of
    rows ``(a, b, f, g)`` with ``a < b`` and faces ``f``, ``g`` on either
    side; ``boundary`` is a (j, 2) array of rim edges ``(a, b)``.
    """
    ends = np.sort(np.stack([T, np.roll(T, -1, axis=1)], axis=2)
                   .reshape(-1, 2), axis=1)
    faces = np.repeat(np.arange(len(T)), 3)
    keys = ends[:, 0] * (int(T.max()) + 1) + ends[:, 1]
    order = np.argsort(keys, kind="stable")
    ends, faces = ends[order], faces[order]
    _, first, counts = np.unique(keys[order], return_index=True,
                                 return_counts=True)
    if np.any(counts > 2):
        raise ValueError("an edge has more than two faces")
    two = first[counts == 2]
    interior = np.column_stack([ends[two], faces[two], faces[two + 1]])
    return interior, ends[first[counts == 1]]


def interior_vertices(n: int, boundary: np.ndarray) -> np.ndarray:
    rim = np.zeros(n, dtype=bool)
    rim[boundary.ravel()] = True
    return np.flatnonzero(~rim)


def corner_angles(P: np.ndarray, T: np.ndarray) -> np.ndarray:
    """(m, 3) corner angles of the triangles ``P[T]`` in any dimension."""
    tri = P[T]
    out = np.empty(T.shape)
    for i in range(3):
        u = tri[:, (i + 1) % 3] - tri[:, i]
        w = tri[:, (i + 2) % 3] - tri[:, i]
        cos = np.einsum("ij,ij->i", u, w) / (
            np.linalg.norm(u, axis=1) * np.linalg.norm(w, axis=1))
        out[:, i] = np.arccos(np.clip(cos, -1.0, 1.0))
    return out


def tilt_and_margin(V: np.ndarray, T: np.ndarray) -> tuple[float, float]:
    """``(phi, alpha')``: largest angle of a face normal from +z, and pi/2
    minus the largest corner angle of the projected triangles."""
    tri = V[T]
    nrm = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    cos = nrm[:, 2] / np.linalg.norm(nrm, axis=1)
    phi = float(np.arccos(np.clip(cos, -1.0, 1.0)).max())
    alpha_planar = math.pi / 2 - float(corner_angles(V[:, :2], T).max())
    return phi, alpha_planar


def phi_budget(alpha_planar: float) -> float:
    return BUDGET_FACTOR * math.sqrt(max(alpha_planar, 0.0))


def _signed_areas(tri2: np.ndarray) -> np.ndarray:
    u = tri2[:, 1] - tri2[:, 0]
    w = tri2[:, 2] - tri2[:, 0]
    return 0.5 * (u[:, 0] * w[:, 1] - u[:, 1] * w[:, 0])


# --------------------------------------------------------------------------
# checks on one result
# --------------------------------------------------------------------------


def placed_array(placed: dict, m: int) -> tuple[np.ndarray | None, list[str]]:
    """Stack the net's face images in face order, or report why not."""
    keys = sorted(placed)
    if keys != list(range(m)):
        missing = sorted(set(range(m)) - set(keys))
        extra = sorted(set(keys) - set(range(m)))
        return None, [f"faces placed {len(keys)} of {m}: missing "
                      f"{missing[:5]}, unknown {extra[:5]}"]
    imgs = np.stack([np.asarray(placed[f], dtype=float) for f in keys])
    if imgs.shape != (m, 3, 2) or not np.all(np.isfinite(imgs)):
        return None, ["face images are not finite (3, 2) arrays"]
    return imgs, []


def check_congruence(V, T, imgs) -> list[str]:
    tol = LENGTH_TOL * diameter(V)
    roll = [1, 2, 0]
    l3 = np.linalg.norm(V[T[:, roll]] - V[T], axis=2)
    l2 = np.linalg.norm(imgs[:, roll] - imgs, axis=2)
    bad = np.flatnonzero(np.any(np.abs(l3 - l2) > tol, axis=1))
    if len(bad):
        f = int(bad[0])
        return [f"{len(bad)} placed faces change a side length; face {f}: "
                f"3D {l3[f].tolist()} vs net {l2[f].tolist()}"]
    return []


def check_fold_edges(V, T, imgs, interior, cut_keys) -> list[str]:
    """Both faces at an uncut interior edge map its endpoints alike."""
    tol = LENGTH_TOL * diameter(V)
    uncut = ~np.isin(interior[:, 0] * len(V) + interior[:, 1], cut_keys)
    rows = interior[uncut]
    worst = 0.0
    for col in (0, 1):
        v = rows[:, col]
        f, g = rows[:, 2], rows[:, 3]
        kf = np.argmax(T[f] == v[:, None], axis=1)
        kg = np.argmax(T[g] == v[:, None], axis=1)
        gap = np.linalg.norm(imgs[f, kf] - imgs[g, kg], axis=1)
        if len(gap):
            worst = max(worst, float(gap.max()))
    if worst > tol:
        return [f"an uncut edge opens in the net by {worst:.3g} "
                f"(tolerance {tol:.3g})"]
    return []


def check_area(V, T, imgs) -> list[str]:
    tri = V[T]
    surface = 0.5 * float(np.linalg.norm(
        np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]), axis=1).sum())
    net = float(_signed_areas(imgs).sum())
    if abs(net - surface) > 1e-9 * surface:
        return [f"net signed area {net!r} differs from surface area "
                f"{surface!r}"]
    return []


def check_forest(n, interior, boundary, cut_edges, parent) -> list[str]:
    """Cut edges are the forest's links, one per interior vertex, and every
    interior vertex reaches the rim along them."""
    problems = []
    inner = interior_vertices(n, boundary)
    cuts = {(min(int(a), int(b)), max(int(a), int(b))) for a, b in cut_edges}
    if len(cuts) != len(inner):
        problems.append(f"{len(cuts)} cut edges for {len(inner)} interior "
                        "vertices")
    interior_keys = set(map(tuple, interior[:, :2].tolist()))
    if not cuts <= interior_keys:
        problems.append("a cut edge is not an interior edge of the mesh")
    links = {(min(v, p), max(v, p)) for v, p in parent.items()}
    if links != cuts:
        problems.append("cut edges differ from the forest's parent links")
    if set(parent) != set(inner.tolist()):
        problems.append("parent links do not start at exactly the interior "
                        "vertices")
    rim = set(boundary.ravel().tolist())
    state: dict[int, int] = {}      # 1 on the current walk, 2 reaches rim
    for start in inner.tolist():
        walk = []
        v = start
        while v not in rim and state.get(v) != 2:
            if state.get(v) == 1:
                return problems + [f"parent links cycle through {v}"]
            if v not in parent:
                return problems + [f"interior vertex {v} has no parent"]
            state[v] = 1
            walk.append(v)
            v = parent[v]
        for w in walk:
            state[w] = 2
    return problems


def leaf_paths(parent: dict) -> list[list[int]]:
    """Each leaf's path along parent links, cut short on a cycle."""
    parents = set(parent.values())
    paths = []
    for leaf in sorted(v for v in parent if v not in parents):
        path = [leaf]
        while path[-1] in parent and len(path) <= len(parent):
            path.append(parent[path[-1]])
        paths.append(path)
    return paths


def arc_width(angles: np.ndarray) -> float:
    """Width of the narrowest arc of directions holding all ``angles``."""
    a = np.sort(np.mod(angles, 2 * math.pi))
    gaps = np.diff(np.concatenate([a, [a[0] + 2 * math.pi]]))
    return float(2 * math.pi - gaps.max())


def check_wedges(V, T, parent) -> list[str]:
    _, alpha_planar = tilt_and_margin(V, T)
    theta = math.pi / 2 - alpha_planar
    P = V[:, :2]
    for path in leaf_paths(parent):
        if len(path) < 2:
            continue
        d = np.diff(P[path], axis=0)
        width = arc_width(np.arctan2(d[:, 1], d[:, 0]))
        if width > theta + ANGLE_TOL:
            return [f"path from leaf {path[0]} spans {math.degrees(width):.4f}"
                    f" deg of directions, wedge is "
                    f"{math.degrees(theta):.4f} deg"]
    return []


def overlapping_pairs(imgs: np.ndarray) -> np.ndarray:
    """Pairs of placed triangles whose interiors overlap by more than the
    contact tolerance: (k, 2) face indices, i < j.

    Each triangle is shrunk about its incenter so every side moves inward
    by the tolerance.  Two shrunk triangles overlap when a side of one
    properly crosses a side of the other, or a corner or the centroid of
    one lies strictly inside the other.  Candidate pairs come from a k-d
    tree on centroids with radius twice the largest centroid-to-corner
    distance.
    """
    delta = CONTACT_TOL * diameter(imgs.reshape(-1, 2))
    side = np.linalg.norm(np.roll(imgs, -1, axis=1) - imgs, axis=2)
    opposite = np.roll(side, -1, axis=1)       # side opposite each corner
    area = np.abs(_signed_areas(imgs))
    perimeter = side.sum(axis=1)
    inradius = 2 * area / perimeter
    incenter = np.einsum("ki,kic->kc", opposite, imgs) / perimeter[:, None]
    keep = inradius > delta
    scale = np.where(keep, (inradius - delta) / np.where(keep, inradius, 1), 0)
    tris = incenter[:, None] + scale[:, None, None] * (imgs - incenter[:, None])
    idx = np.flatnonzero(keep)
    tris = tris[idx]
    if len(tris) < 2:
        return np.zeros((0, 2), dtype=int)
    cent = tris.mean(axis=1)
    reach = float(np.linalg.norm(tris - cent[:, None], axis=2).max())
    pairs = cKDTree(cent).query_pairs(2 * reach, output_type="ndarray")
    if len(pairs) == 0:
        return np.zeros((0, 2), dtype=int)
    A, B = tris[pairs[:, 0]], tris[pairs[:, 1]]
    lo_a, hi_a = A.min(axis=1), A.max(axis=1)
    lo_b, hi_b = B.min(axis=1), B.max(axis=1)
    near = np.all((lo_a < hi_b) & (lo_b < hi_a), axis=1)
    pairs, A, B = pairs[near], A[near], B[near]
    hit = _interiors_meet(A, B)
    out = np.sort(idx[pairs[hit]], axis=1)
    return out[np.lexsort((out[:, 1], out[:, 0]))]


def _orient(a, b, c):
    return ((b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1])
            - (b[..., 1] - a[..., 1]) * (c[..., 0] - a[..., 0]))


def _strictly_inside(pts, tri):
    """pts (k, p, 2) strictly inside tri (k, 3, 2) of either orientation."""
    s = np.stack([_orient(tri[:, i, None], tri[:, (i + 1) % 3, None], pts)
                  for i in range(3)])
    return np.all(s > 0, axis=0) | np.all(s < 0, axis=0)


def _interiors_meet(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    hit = np.zeros(len(A), dtype=bool)
    for i in range(3):
        p1, p2 = A[:, i], A[:, (i + 1) % 3]
        for j in range(3):
            p3, p4 = B[:, j], B[:, (j + 1) % 3]
            d1, d2 = _orient(p3, p4, p1), _orient(p3, p4, p2)
            d3, d4 = _orient(p1, p2, p3), _orient(p1, p2, p4)
            hit |= (d1 * d2 < 0) & (d3 * d4 < 0)
    pa = np.concatenate([A, A.mean(axis=1, keepdims=True)], axis=1)
    pb = np.concatenate([B, B.mean(axis=1, keepdims=True)], axis=1)
    hit |= np.any(_strictly_inside(pa, B), axis=1)
    hit |= np.any(_strictly_inside(pb, A), axis=1)
    return hit


def check_overlap_verdict(imgs, program_clean: bool) -> list[str]:
    pairs = overlapping_pairs(imgs)
    if (len(pairs) == 0) != bool(program_clean):
        return [f"overlap verdicts differ: program clean={program_clean}, "
                f"checker finds {len(pairs)} overlapping pairs "
                f"{pairs[:3].tolist()}"]
    return []


def check_status(V, T, diagnostics: dict, regime: str) -> list[str]:
    """``regime`` is ``"budget"`` (tilt within budget, must be proven) or
    ``"steep"`` (over budget, must warn and come out empirical or
    overlap)."""
    phi, alpha_planar = tilt_and_margin(V, T)
    budget = phi_budget(alpha_planar)
    status = diagnostics.get("status")
    tilt_warned = any("exceeds budget" in w
                      for w in diagnostics.get("warnings", []))
    if regime == "budget":
        if not phi <= budget:
            return [f"input tilt {phi!r} exceeds the budget {budget!r}"]
        if status != "proven_clean":
            return [f"status {status!r} within the tilt budget, expected "
                    "'proven_clean'"]
        return []
    if regime != "steep":
        raise ValueError(f"unknown regime {regime!r}")
    problems = []
    if not phi > budget:
        problems.append(f"steep input tilt {phi!r} is within the budget")
    if status not in ("empirical_clean", "overlap"):
        problems.append(f"status {status!r} over the tilt budget")
    if not tilt_warned:
        problems.append("no tilt warning over the budget")
    return problems


def check_result(V, T, placed, cut_edges, parent, diagnostics,
                 regime: str) -> list[str]:
    """All checks on one unfolding of the cap ``(V, T)``."""
    V = np.asarray(V, dtype=float)
    T = np.asarray(T, dtype=int)
    parent = {int(v): int(p) for v, p in parent.items()}
    imgs, problems = placed_array(placed, len(T))
    interior, boundary = edge_faces(T)
    cut_keys = np.array([min(a, b) * len(V) + max(a, b)
                         for a, b in cut_edges], dtype=np.int64)
    problems += check_forest(len(V), interior, boundary, cut_edges, parent)
    if imgs is not None:
        problems += check_congruence(V, T, imgs)
        problems += check_fold_edges(V, T, imgs, interior, cut_keys)
        problems += check_area(V, T, imgs)
        problems += check_overlap_verdict(
            imgs, diagnostics.get("overlap", {}).get("clean"))
    problems += check_wedges(V, T, parent)
    problems += check_status(V, T, diagnostics, regime)
    return problems


# --------------------------------------------------------------------------
# checks on written files
# --------------------------------------------------------------------------


def read_obj(path: Path):
    """Vertices, triangles (0-based) and ``# cut a b`` pairs of an OBJ."""
    verts, tris, cuts = [], [], []
    for line in Path(path).read_text().splitlines():
        body, _, comment = line.partition("#")
        words = comment.split()
        if len(words) == 3 and words[0] == "cut":
            cuts.append((int(words[1]), int(words[2])))
        parts = body.split()
        if parts and parts[0] == "v":
            verts.append([float(x) for x in parts[1:4]])
        elif parts and parts[0] == "f":
            tris.append([int(p.split("/")[0]) - 1 for p in parts[1:]])
    return np.array(verts), np.array(tris, dtype=int), cuts


def check_artifacts(out_dir, V, T, cut_edges, status: str,
                    exit_code: int) -> list[str]:
    """Files written by ``capunfold unfold``: the exit code matches the
    status, ``cap.obj`` reloads to the cap with one ``# cut`` line per cut
    edge, ``net.svg`` is XML with one face polygon per triangle, and
    ``diagnostics.json`` repeats the status."""
    out_dir = Path(out_dir)
    problems = []
    if EXIT_OF_STATUS.get(status) != exit_code:
        problems.append(f"exit code {exit_code} for status {status!r}")
    verts, tris, cuts = read_obj(out_dir / "cap.obj")
    if not (np.array_equal(verts, V) and np.array_equal(tris, T)):
        problems.append("cap.obj does not reload to the cap")
    want = {(min(a, b), max(a, b)) for a, b in cut_edges}
    got = [(min(a, b), max(a, b)) for a, b in cuts]
    if len(got) != len(want) or set(got) != want:
        problems.append(f"cap.obj has {len(got)} cut lines for "
                        f"{len(want)} cut edges")
    svg = ET.parse(out_dir / "net.svg").getroot()
    faces = [el for el in svg.iter("{http://www.w3.org/2000/svg}polygon")
             if el.get("class") == "face"]
    if len(faces) != len(T):
        problems.append(f"net.svg has {len(faces)} face polygons for "
                        f"{len(T)} triangles")
    diag = json.loads((out_dir / "diagnostics.json").read_text())
    if diag.get("status") != status:
        problems.append(f"diagnostics.json status {diag.get('status')!r} "
                        f"differs from {status!r}")
    return problems

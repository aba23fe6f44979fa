"""Seeded generation of nearly flat, non-obtusely triangulated convex caps.

The construction starts from a hexagonal ring lattice (near-equilateral
triangles keep every face angle far from 90deg), jitters it for variety,
triangulates with Delaunay, and lifts onto a paraboloid or sphere.  A
Delaunay triangulation lifted onto either surface is automatically convex:
its empty-circumcircle property is exactly the upper-convex-hull property of
the lifted points.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import Delaunay

from .geom import corner_angles, phi_budget
from .mesh import ConvexCap, validate_cap

_MAX_TRIES = 20   # lattices a generator draws before it gives up


def generate_cap(
    n: int,
    phi: float = 0.1,
    seed: int = 0,
    jitter: float = 0.25,
    lift: str = "paraboloid",
    angle_mode: str = "non_obtuse",
) -> ConvexCap:
    """Build a random valid cap with roughly ``n`` vertices and maximum face
    tilt ``phi`` (radians, calibrated to 1e-4).

    Retries with fresh jitter until :func:`validate_cap` passes; raises
    ``RuntimeError`` if :data:`_MAX_TRIES` lattices all fail.
    """
    if not 0 < phi < math.pi / 2:
        raise ValueError("phi must be in (0, pi/2)")
    rng = np.random.default_rng(seed)
    last = None
    for _ in range(_MAX_TRIES):
        pts = _jittered_lattice(n, jitter, rng)
        cap = _lift_points(pts, _triangulate(pts), phi, lift)
        issues = validate_cap(cap, angle_mode=angle_mode)
        if not issues:
            return cap
        last = issues
    raise RuntimeError(f"cap generation failed after {_MAX_TRIES} tries: {last}")


def generate_budget_cap(
    n: int,
    seed: int = 0,
    safety: float = 0.9,
    jitter: float = 0.25,
    lift: str = "paraboloid",
    angle_mode: str = "non_obtuse",
) -> ConvexCap:
    """Build a cap whose actual tilt sits at ``safety`` times the tilt budget
    of its own planar acuteness margin.

    The margin alpha' depends only on the planar triangulation, never on the
    lift height, so the budget is computed from a flat trial build and the
    final cap is lifted to ``safety * phi_budget(alpha')``.
    """
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_TRIES):
        pts = _jittered_lattice(n, jitter, rng)
        faces = _triangulate(pts)
        alpha_planar = math.pi / 2 - corner_angles(pts[faces]).max()
        if alpha_planar <= 0:
            continue
        phi = safety * phi_budget(alpha_planar)
        cap = _lift_points(pts, faces, phi, lift)
        if not validate_cap(cap, angle_mode=angle_mode):
            return cap
    raise RuntimeError("budget cap generation failed")


# --------------------------------------------------------------------------
# internals
# --------------------------------------------------------------------------


def _ring_count(n: int) -> int:
    """Rings ``m`` such that the lattice size ``1 + 3m(m+1)`` is close to n."""
    m = int(round((-1 + math.sqrt(1 + 4 * (n - 1) / 3)) / 2))
    return max(m, 2)


def _jittered_lattice(n: int, jitter: float, rng: np.random.Generator) -> np.ndarray:
    """Concentric ring lattice on the unit disk with random perturbations.

    Ring ``k`` holds ``6k`` points at radius ``k/m``.  The unperturbed
    lattice keeps every Delaunay angle below roughly ``90deg - 30deg/m``, so
    positional jitter is scaled to a fraction of that margin; the bulk of the
    per-seed variety comes from independent random ring phases.  The
    outermost ring is the rim and is jittered only in angle, keeping the rim
    polygon convex (an angularly sorted polygon inscribed in a circle is
    always convex).
    """
    m = _ring_count(n)
    spacing = 1.0 / m
    margin = (math.pi / 6) / m  # planar angle margin of the bare lattice
    scale = 0.3 * jitter * margin * spacing  # displacement << margin * edge
    pts = [rng.normal(scale=scale, size=2)]
    for k in range(1, m + 1):
        count = 6 * k
        base = 2 * math.pi * np.arange(count) / count
        if k == m:
            # polar-angle slack: arc displacement stays within the margin
            slack = 0.3 * jitter * margin * spacing
            theta = base + rng.uniform(-slack, slack, size=count)
            ring = np.column_stack([np.cos(theta), np.sin(theta)])
        else:
            r = k * spacing
            ring = r * np.column_stack([np.cos(base), np.sin(base)])
            ring += rng.normal(scale=scale, size=(count, 2))
        pts.append(np.atleast_2d(ring))
    out = np.vstack(pts)
    # a global rotation changes no angle but varies the cap's orientation
    rot = rng.uniform(0, 2 * math.pi)
    c, s = math.cos(rot), math.sin(rot)
    return out @ np.array([[c, s], [-s, c]])


def _triangulate(pts: np.ndarray) -> np.ndarray:
    tri = Delaunay(pts)
    faces = tri.simplices.copy()
    a, b, c = pts[faces[:, 0]], pts[faces[:, 1]], pts[faces[:, 2]]
    u, w = b - a, c - a
    cw = (u[:, 0] * w[:, 1] - u[:, 1] * w[:, 0]) < 0
    faces[cw] = faces[cw][:, ::-1]
    return faces


def _lift_points(pts: np.ndarray, faces: np.ndarray, phi: float,
                 lift: str) -> ConvexCap:
    """Lift planar points, triangulated by ``faces`` (ccw, from
    :func:`_triangulate`), onto a convex surface, then rescale the height
    so the maximum face tilt equals ``phi`` exactly.

    A face whose height function has planar gradient ``g`` tilts by
    ``atan(|g|)``, and scaling all heights by ``s`` scales ``g`` by ``s``, so
    the calibration is ``s = tan(phi) / max |g|``.
    """
    r2 = np.einsum("ij,ij->i", pts, pts)
    if lift == "paraboloid":
        z0 = (math.tan(phi) / 2) * (1.0 - r2)
    elif lift == "sphere":
        R = 1.0 / math.sin(phi)
        z0 = np.sqrt(R * R - r2) - math.sqrt(R * R - 1.0)
    else:
        raise ValueError(f"unknown lift {lift!r}")
    z0 = np.maximum(z0, 0.0)

    a, b, c = faces[:, 0], faces[:, 1], faces[:, 2]
    u = pts[b] - pts[a]
    w = pts[c] - pts[a]
    det = u[:, 0] * w[:, 1] - u[:, 1] * w[:, 0]
    du = z0[b] - z0[a]
    dw = z0[c] - z0[a]
    gx = (du * w[:, 1] - dw * u[:, 1]) / det
    gy = (dw * u[:, 0] - du * w[:, 0]) / det
    gmax = float(np.sqrt(gx * gx + gy * gy).max())
    scale = math.tan(phi) / gmax if gmax > 0 else 1.0
    return ConvexCap(np.column_stack([pts, scale * z0]), faces)

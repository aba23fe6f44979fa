"""Geometry used everywhere else: angles, direction cones, wedges, and the
flatness/acuteness budget arithmetic for nearly flat convex caps.

All angles are radians internally.  Degrees only appear at I/O boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EPS_GEOM",
    "Wedge",
    "corner_angles",
    "delta_perp",
    "direction_spreads",
    "normalize_angle",
    "omega_bound",
    "phi_budget",
    "unwrap_directions",
]

#: Absolute tolerance for geometric predicates.
EPS_GEOM = 1e-9


def normalize_angle(theta: float) -> float:
    """Map an angle to the half-open interval (-pi, pi]."""
    t = math.fmod(theta, 2.0 * math.pi)
    if t <= -math.pi:
        t += 2.0 * math.pi
    elif t > math.pi:
        t -= 2.0 * math.pi
    return t


def unwrap_directions(ang, ref=None) -> np.ndarray:
    """Each direction minus ``ref`` (default: the first direction), mapped
    to (-pi, pi] as by :func:`normalize_angle`: an exact unwrap of
    directions that all lie within pi of the reference."""
    t = np.fmod(np.asarray(ang, dtype=float) - (ang[0] if ref is None else ref),
                2.0 * math.pi)
    return np.where(t <= -math.pi, t + 2.0 * math.pi,
                    np.where(t > math.pi, t - 2.0 * math.pi, t))


def direction_spreads(ang, starts) -> np.ndarray:
    """Width of the cone of each non-empty run ``ang[starts[j]:starts[j+1]]``
    of directions, each unwrapped against the run's first direction."""
    if not len(starts):
        return np.zeros(0)
    rel = unwrap_directions(ang, np.repeat(ang[starts],
                                           np.diff(starts, append=len(ang))))
    return np.maximum.reduceat(rel, starts) - np.minimum.reduceat(rel, starts)


def corner_angles(tris) -> np.ndarray:
    """Interior angles of a batch of triangles: (m, 3, d) corners, 2D or 3D,
    to (m, 3) angles, entry ``[f, i]`` at corner ``i`` of triangle ``f``."""
    tris = np.asarray(tris, dtype=float)
    u = tris[:, [1, 2, 0]] - tris
    w = tris[:, [2, 0, 1]] - tris
    cosang = np.einsum("mij,mij->mi", u, w) / (
        np.linalg.norm(u, axis=2) * np.linalg.norm(w, axis=2))
    return np.arccos(np.clip(cosang, -1.0, 1.0))


def delta_perp(phi: float) -> float:
    """Worst-case planar-projection distortion of one angle on a face tilted phi.

    Exact closed form; phi in [0, pi/2).  Small-angle behaviour is
    phi**2/2 + phi**4/12 + O(phi**6).
    """
    if not 0.0 <= phi < math.pi / 2:
        raise ValueError(f"phi must lie in [0, pi/2), got {phi}")
    s2 = math.sin(phi) ** 2
    return math.acos(s2 / (s2 - 2.0)) - math.pi / 2


def omega_bound(phi: float) -> float:
    """Upper bound 2*pi*(1 - cos(phi)) on the total curvature of a cap with tilt <= phi."""
    if phi < 0.0:
        raise ValueError("phi must be nonnegative")
    return 2.0 * math.pi * (1.0 - math.cos(phi))


def phi_budget(alpha: float) -> float:
    """Largest face tilt Phi for which the turn-distortion budget fits into
    an acuteness gap alpha: Phi = sqrt(2/(4*pi+3)) * sqrt(alpha).
    """
    if alpha < 0.0:
        raise ValueError("alpha must be nonnegative")
    return math.sqrt(2.0 / (4.0 * math.pi + 3.0)) * math.sqrt(alpha)


@dataclass(frozen=True)
class Wedge:
    """Closed cone of directions [base, base + width] (width in [0, 2*pi))."""

    base: float
    width: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.width < 2.0 * math.pi:
            raise ValueError(f"wedge width must lie in [0, 2*pi), got {self.width}")

    @property
    def bisector(self) -> float:
        return self.base + 0.5 * self.width


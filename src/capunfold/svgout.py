"""Deterministic SVG rendering of nets and forest overlays.

Stroke conventions: cut edges heavy, fold edges light, strip boundaries
dashed, quadrant axes dotted.  The canvas is the drawing's bounding box plus
a 5% margin, scaled to a fixed width.
"""

from __future__ import annotations

import math

import numpy as np

from .develop import Net
from .forest import SpanningForest
from .mesh import ConvexCap
from .strips import StripSystem

STYLE = {
    "cut": 'stroke="#c0392b" stroke-width="{w2}" fill="none"',
    "fold": 'stroke="#b0b0b0" stroke-width="{w1}" fill="none"',
    "rim": 'stroke="#34495e" stroke-width="{w2}" fill="none"',
    "strip-boundary": ('stroke="#2980b9" stroke-width="{w1}" fill="none" '
                       'stroke-dasharray="{d2} {d1}"'),
    "quadrant-axis": ('stroke="#7f8c8d" stroke-width="{w1}" fill="none" '
                      'stroke-dasharray="{d1} {d1}"'),
    "mesh-edge": 'stroke="#d5d8dc" stroke-width="{w1}" fill="none"',
    "forest-edge": 'stroke="#c0392b" stroke-width="{w2}" fill="none"',
    "waterfall": ('stroke="#2980b9" stroke-width="{w1}" fill="none" '
                  'stroke-dasharray="{d2} {d1}"'),
    "face": 'fill="#fdf6ec" stroke="none"',
    "origin": 'fill="#2c3e50" stroke="none"',
}


class _Canvas:
    """Maps drawing coordinates (y up) to an SVG viewport (y down)."""

    def __init__(self, points: np.ndarray, width: float = 800.0):
        lo = points.min(axis=0)
        hi = points.max(axis=0)
        span = np.maximum(hi - lo, 1e-12)
        margin = 0.05 * float(span.max())
        self.lo = lo - margin
        self.hi = hi + margin
        ext = self.hi - self.lo
        self.scale = width / float(ext[0])
        self.width = width
        self.height = float(ext[1]) * self.scale
        # stroke widths and dash lengths in canvas units
        self.w1 = 0.0015 * width
        self.w2 = 0.004 * width
        self.d1 = 0.006 * width
        self.d2 = 0.012 * width
        self.elements: list[str] = []

    def xy(self, p) -> tuple[float, float]:
        return (float((p[0] - self.lo[0]) * self.scale),
                float((self.hi[1] - p[1]) * self.scale))

    def _style(self, cls: str) -> str:
        return STYLE[cls].format(w1=f"{self.w1:.3f}", w2=f"{self.w2:.3f}",
                                 d1=f"{self.d1:.3f}", d2=f"{self.d2:.3f}")

    def line(self, p, q, cls: str):
        (x1, y1), (x2, y2) = self.xy(p), self.xy(q)
        self.elements.append(
            f'<line class="{cls}" x1="{x1:.3f}" y1="{y1:.3f}" '
            f'x2="{x2:.3f}" y2="{y2:.3f}" {self._style(cls)}/>')

    def polyline(self, pts, cls: str):
        coords = " ".join(f"{x:.3f},{y:.3f}" for x, y in map(self.xy, pts))
        self.elements.append(
            f'<polyline class="{cls}" points="{coords}" {self._style(cls)}/>')

    def polygon(self, pts, cls: str):
        coords = " ".join(f"{x:.3f},{y:.3f}" for x, y in map(self.xy, pts))
        self.elements.append(
            f'<polygon class="{cls}" points="{coords}" {self._style(cls)}/>')

    def dot(self, p, cls: str, r: float | None = None):
        x, y = self.xy(p)
        r = self.w2 * 1.5 if r is None else r
        self.elements.append(
            f'<circle class="{cls}" cx="{x:.3f}" cy="{y:.3f}" r="{r:.3f}" '
            f'{self._style(cls)}/>')

    def circle_outline(self, center, radius: float, cls: str):
        x, y = self.xy(center)
        self.elements.append(
            f'<circle class="{cls}" cx="{x:.3f}" cy="{y:.3f}" '
            f'r="{radius * self.scale:.3f}" {self._style(cls)}/>')

    def to_svg(self) -> str:
        body = "\n".join(self.elements)
        return (f'<svg xmlns="http://www.w3.org/2000/svg" '
                f'width="{self.width:.0f}" height="{self.height:.0f}" '
                f'viewBox="0 0 {self.width:.3f} {self.height:.3f}">\n'
                f"{body}\n</svg>\n")


def _net_points(net: Net) -> np.ndarray:
    tris, _ = net.triangle_array()
    return tris.reshape(-1, 2)


def render_net_svg(cap: ConvexCap, net: Net,
                   forest: SpanningForest | None = None,
                   width: float = 800.0) -> str:
    """Draw the planar net: faces filled, fold edges light, cut and rim
    edges heavy, strip boundaries dashed, quadrant axes through the origin
    image dotted (when a forest is given)."""
    cv = _Canvas(_net_points(net), width)

    for f in sorted(net.placed):
        cv.polygon(net.placed[f], "face")

    strip_segments = []
    nbr = cap.face_neighbors()
    for f in sorted(net.placed):
        tri = cap.triangles[f]
        img = net.placed[f]
        for k in range(3):
            a, b = int(tri[k]), int(tri[(k + 1) % 3])
            pa, pb = img[k], img[(k + 1) % 3]
            g = int(nbr[f, k])
            if g < 0:
                cv.line(pa, pb, "rim")
            elif (min(a, b), max(a, b)) in net.cut_edges:
                cv.line(pa, pb, "cut")
            elif f < g:
                if net.strip_of and net.strip_of.get(f) != net.strip_of.get(g):
                    strip_segments.append((pa, pb))
                else:
                    cv.line(pa, pb, "fold")
    for pa, pb in strip_segments:
        cv.line(pa, pb, "strip-boundary")

    if forest is not None:
        qs = forest.system
        q = int(qs.origin)
        # anchor the axes at the origin's image (unique: q is never cut open)
        fq, corner = cap.vertex_corners(q)
        p0 = net.placed[int(fq[0])][corner[0]]
        span = float(np.max(cv.hi - cv.lo))
        ray = 0.12 * span
        for i in range(5):
            ang = qs.base + i * qs.theta
            tip = p0 + ray * np.array([math.cos(ang), math.sin(ang)])
            cv.line(p0, tip, "quadrant-axis")
        cv.dot(p0, "origin")
    return cv.to_svg()


def render_forest_svg(cap: ConvexCap, forest: SpanningForest,
                      strips: StripSystem | None = None,
                      width: float = 800.0) -> str:
    """Draw the projected cap with the spanning forest highlighted and,
    optionally, the waterfall paths dashed."""
    P = cap.vertices[:, :2]
    cv = _Canvas(P, width)

    forest_set = {(min(v, p), max(v, p)) for v, p in forest.parent.items()}
    # every edge once: each rim side, and each interior side from face f < g
    T, nbr = cap.triangles, cap.face_neighbors()
    once = (nbr < 0) | (nbr > np.arange(len(T))[:, None])
    a, b = T[once], T[:, [1, 2, 0]][once]
    for lo, hi, rim in sorted(zip(np.minimum(a, b).tolist(),
                                  np.maximum(a, b).tolist(),
                                  (nbr[once] < 0).tolist())):
        if (lo, hi) not in forest_set:
            cv.line(P[lo], P[hi], "rim" if rim else "mesh-edge")
    for v, p in sorted(forest.parent.items()):
        cv.line(P[v], P[p], "forest-edge")

    qs = forest.system
    q = int(qs.origin)
    span = float(np.max(cv.hi - cv.lo))
    ray = 0.5 * span
    for i in range(5):
        ang = qs.base + i * qs.theta
        tip = P[q] + ray * np.array([math.cos(ang), math.sin(ang)])
        cv.line(P[q], tip, "quadrant-axis")

    if strips is not None:
        for i in range(4):
            for wp in strips.paths.get(i, []):
                cv.polyline(wp.points, "waterfall")
        for i, r in sorted(strips.radius.items()):
            cv.circle_outline(P[q], r, "quadrant-axis")
    cv.dot(P[q], "origin")
    return cv.to_svg()

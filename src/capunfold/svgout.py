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
from .strips import StripSystem, strip_partition

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
        sizes = {k: f"{getattr(self, k):.3f}" for k in ("w1", "w2", "d1", "d2")}
        self.style = {cls: st.format(**sizes) for cls, st in STYLE.items()}
        self.elements: list[str] = []

    def xy(self, p) -> np.ndarray:
        """Canvas coordinates of the drawing points ``p``, (..., 2)."""
        p = np.asarray(p, dtype=float)
        out = np.empty(p.shape)
        out[..., 0] = (p[..., 0] - self.lo[0]) * self.scale
        out[..., 1] = (self.hi[1] - p[..., 1]) * self.scale
        return out

    def lines(self, P, Q, classes):
        """One line from each row of ``P`` to the same row of ``Q``, of the
        class in the same place of ``classes``."""
        for (x1, y1), (x2, y2), cls in zip(self.xy(P).tolist(),
                                           self.xy(Q).tolist(), classes):
            self.elements.append(
                f'<line class="{cls}" x1="{x1:.3f}" y1="{y1:.3f}" '
                f'x2="{x2:.3f}" y2="{y2:.3f}" {self.style[cls]}/>')

    def line(self, p, q, cls: str):
        self.lines([p], [q], [cls])

    def polyline(self, pts, cls: str):
        coords = " ".join(f"{x:.3f},{y:.3f}"
                          for x, y in self.xy(pts).tolist())
        self.elements.append(
            f'<polyline class="{cls}" points="{coords}" {self.style[cls]}/>')

    def polygons(self, shapes, cls: str):
        """One polygon per (k, 2) point array in ``shapes``."""
        style = self.style[cls]
        for pts in self.xy(shapes).tolist():
            coords = " ".join(f"{x:.3f},{y:.3f}" for x, y in pts)
            self.elements.append(
                f'<polygon class="{cls}" points="{coords}" {style}/>')

    def dot(self, p, cls: str, r: float | None = None):
        x, y = self.xy(p).tolist()
        r = self.w2 * 1.5 if r is None else r
        self.elements.append(
            f'<circle class="{cls}" cx="{x:.3f}" cy="{y:.3f}" r="{r:.3f}" '
            f'{self.style[cls]}/>')

    def circle_outline(self, center, radius: float, cls: str):
        x, y = self.xy(center).tolist()
        self.elements.append(
            f'<circle class="{cls}" cx="{x:.3f}" cy="{y:.3f}" '
            f'r="{radius * self.scale:.3f}" {self.style[cls]}/>')

    def to_svg(self) -> str:
        body = "\n".join(self.elements)
        return (f'<svg xmlns="http://www.w3.org/2000/svg" '
                f'width="{self.width:.0f}" height="{self.height:.0f}" '
                f'viewBox="0 0 {self.width:.3f} {self.height:.3f}">\n'
                f"{body}\n</svg>\n")


def render_net_svg(cap: ConvexCap, net: Net,
                   forest: SpanningForest | None = None,
                   strips: StripSystem | None = None,
                   width: float = 800.0) -> str:
    """Draw the planar net: faces filled, fold edges light, cut and rim
    edges heavy, strip boundaries dashed (when strips are given), quadrant
    axes through the origin image dotted (when a forest is given).  The
    strips are partitioned here, so ``strips`` needs ``forest``."""
    if strips is not None and forest is None:
        raise ValueError("drawing strips needs the forest")
    cv = _Canvas(net.images.reshape(-1, 2), width)

    cv.polygons(net.images, "face")

    # each side of each face, in face order: rim sides, cut sides and fold
    # sides (drawn once, from the face f < g across it), then the fold
    # sides whose two faces lie in different strips
    T, nbr = cap.triangles, cap.face_neighbors()
    n = cap.n_vertices
    T1 = T[:, [1, 2, 0]]
    cut_keys = np.array(list(net.cut_edges), dtype=np.intp).reshape(-1, 2)
    rim = nbr < 0
    cut = ~rim & np.isin(np.minimum(T, T1) * n + np.maximum(T, T1),
                         cut_keys[:, 0] * n + cut_keys[:, 1])
    fold = ~rim & ~cut & (nbr > np.arange(len(T))[:, None])
    crosses = np.zeros(nbr.shape, dtype=bool)
    if strips is not None:
        lab = strip_partition(cap, forest, strips)
        crosses = (lab[nbr] != lab[:, None]).any(axis=2) & fold
    drawn = rim | cut | (fold & ~crosses)
    start, end = net.images, net.images[:, [1, 2, 0]]
    kind = np.where(rim, "rim", np.where(cut, "cut", "fold"))
    cv.lines(start[drawn], end[drawn], kind[drawn].tolist())
    cv.lines(start[crosses], end[crosses],
             ["strip-boundary"] * int(crosses.sum()))

    if forest is not None:
        qs = forest.system
        q = int(qs.origin)
        # anchor the axes at the origin's image (unique: q is never cut open)
        fq, corner = cap.vertex_corners(q)
        p0 = net.images[fq[0], corner[0]]
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

    # every edge once (each rim side, and each interior side from face
    # f < g) that is not a forest edge, by its key lo*n + hi; then the
    # forest edges, child to parent
    T, nbr, n = cap.triangles, cap.face_neighbors(), cap.n_vertices
    E = forest.edges
    once = (nbr < 0) | (nbr > np.arange(len(T))[:, None])
    a, b = T[once], T[:, [1, 2, 0]][once]
    key = np.minimum(a, b) * n + np.maximum(a, b)
    order = np.argsort(key)
    order = order[~np.isin(key[order], np.minimum(E[:, 0], E[:, 1]) * n
                           + np.maximum(E[:, 0], E[:, 1]))]
    lo, hi = np.divmod(key[order], n)
    cv.lines(P[lo], P[hi],
             np.where(nbr[once][order] < 0, "rim", "mesh-edge").tolist())
    cv.lines(P[E[:, 0]], P[E[:, 1]], ["forest-edge"] * len(E))

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

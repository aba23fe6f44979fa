"""Read and write triangle meshes as OFF or OBJ files.

Cut edges (the forest edges severed by the unfolding) ride along as comment
lines ``# cut i j`` so a mesh and its cut set round-trip through one file.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .mesh import ConvexCap

CutEdges = list[tuple[int, int]]


def load_mesh(path) -> tuple[ConvexCap, CutEdges]:
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".off":
        return load_off(path)
    if suffix == ".obj":
        return load_obj(path)
    raise ValueError(f"unsupported mesh format {suffix!r} (use .off or .obj)")


def save_mesh(path, cap: ConvexCap, cut_edges: CutEdges | None = None) -> None:
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".off":
        save_off(path, cap, cut_edges)
    elif suffix == ".obj":
        save_obj(path, cap, cut_edges)
    else:
        raise ValueError(f"unsupported mesh format {suffix!r} (use .off or .obj)")


# --------------------------------------------------------------------------
# OFF
# --------------------------------------------------------------------------


def load_off(path) -> tuple[ConvexCap, CutEdges]:
    cuts: CutEdges = []
    tokens: list[str] = []
    with open(path) as fh:
        for line in fh:
            body, _, comment = line.partition("#")
            cut = _parse_cut_comment(comment)
            if cut is not None:
                cuts.append(cut)
            tokens.extend(body.split())
    if tokens[:1] != ["OFF"] or len(tokens) < 4:
        raise ValueError(f"{path}: not an OFF file with a vertex and face count")
    nv, nf = int(tokens[1]), int(tokens[2])
    need = 4 + 3 * nv + 4 * nf
    if len(tokens) < need:
        raise ValueError(f"{path}: header declares {nv} vertices and {nf} "
                         f"faces, file ends {need - len(tokens)} numbers short")
    vertices = np.array(tokens[4:4 + 3 * nv], dtype=float).reshape(nv, 3)
    F = tokens[4 + 3 * nv:need]
    F = np.array(F, dtype=int).reshape(nf, 4)
    if (F[:, 0] != 3).any():
        k = int(F[F[:, 0] != 3, 0][0])
        raise ValueError(f"{path}: face with {k} sides; triangles only")
    return _cap(path, vertices, F[:, 1:], 0), cuts


def save_off(path, cap: ConvexCap, cut_edges: CutEdges | None = None) -> None:
    with open(path, "w") as fh:
        fh.write("OFF\n")
        fh.write(f"{cap.n_vertices} {cap.n_triangles} {cap.n_edges}\n")
        for v in cap.vertices:
            fh.write("%.17g %.17g %.17g\n" % tuple(v))
        for t in cap.triangles:
            fh.write("3 %d %d %d\n" % tuple(t))
        for a, b in cut_edges or []:
            fh.write(f"# cut {a} {b}\n")


# --------------------------------------------------------------------------
# OBJ
# --------------------------------------------------------------------------


def load_obj(path) -> tuple[ConvexCap, CutEdges]:
    vertices: list[list[float]] = []
    triangles: list[list[int]] = []
    cuts: CutEdges = []
    with open(path) as fh:
        for line in fh:
            body, _, comment = line.partition("#")
            cut = _parse_cut_comment(comment)
            if cut is not None:
                cuts.append(cut)
            parts = body.split()
            if not parts:
                continue
            if parts[0] == "v":
                vertices.append([float(x) for x in parts[1:4]])
            elif parts[0] == "f":
                idx = [int(p.split("/")[0]) - 1 for p in parts[1:]]
                if len(idx) != 3:
                    raise ValueError(f"{path}: non-triangle face; triangles only")
                triangles.append(idx)
    return _cap(path, np.array(vertices), triangles, 1), cuts


def save_obj(path, cap: ConvexCap, cut_edges: CutEdges | None = None) -> None:
    with open(path, "w") as fh:
        for v in cap.vertices:
            fh.write("v %.17g %.17g %.17g\n" % tuple(v))
        for t in cap.triangles:
            fh.write("f %d %d %d\n" % tuple(t + 1))
        for a, b in cut_edges or []:
            fh.write(f"# cut {a} {b}\n")


def _cap(path, vertices: np.ndarray, triangles, base: int) -> ConvexCap:
    """The cap of a loaded file whose first vertex is numbered ``base``."""
    T = np.array(triangles, dtype=int).reshape(-1, 3)
    bad = T[(T < 0) | (T >= len(vertices))]
    if len(bad):
        raise ValueError(f"{path}: face vertex index {int(bad[0]) + base} "
                         f"out of range for {len(vertices)} vertices")
    return ConvexCap(vertices, T)


def _parse_cut_comment(comment: str) -> tuple[int, int] | None:
    parts = comment.split()
    if len(parts) == 3 and parts[0] == "cut":
        return int(parts[1]), int(parts[2])
    return None

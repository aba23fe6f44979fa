"""The output checker flags hand-made faulty unfoldings.

Run with ``python3 -m pytest perfbench/test_checker.py``.

The fixture is a flat hexagon of 24 equilateral triangles (a two-ring
piece of the triangular lattice).  A flat cap develops onto its own
projection whatever the cut forest, so the net, the cut edges and the
forest can each be broken on its own.
"""

import copy
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checker  # noqa: E402

SQ3 = math.sqrt(3.0)
CLEAN = {"status": "proven_clean", "warnings": [], "overlap": {"clean": True}}


def hexagon():
    """Lattice points within hex distance 2 of the centre, the up and down
    triangles among them (counterclockwise), and a valid forest."""
    axial = [(i, j) for i in range(-2, 3) for j in range(-2, 3)
             if abs(i + j) <= 2]
    index = {a: k for k, a in enumerate(axial)}
    V = np.array([[i + j / 2, j * SQ3 / 2, 0.0] for i, j in axial])
    T = []
    for i, j in [(i, j) for i in range(-3, 3) for j in range(-3, 3)]:
        for tri in (((i, j), (i + 1, j), (i, j + 1)),
                    ((i + 1, j), (i + 1, j + 1), (i, j + 1))):
            if all(c in index for c in tri):
                T.append([index[c] for c in tri])
    T = np.array(T)
    # centre -> (1, 0) -> (2, 0); every other ring-1 vertex straight out
    parent = {index[(0, 0)]: index[(1, 0)]}
    for i, j in axial:
        if max(abs(i), abs(j), abs(i + j)) == 1:
            parent[index[(i, j)]] = index[(2 * i, 2 * j)]
    return V, T, parent, index


def net_of(V, T):
    return {f: V[T[f], :2].copy() for f in range(len(T))}


def cuts_of(parent):
    return {(min(v, p), max(v, p)) for v, p in parent.items()}


def check(V, T, placed, cuts, parent, diag=CLEAN):
    return checker.check_result(V, T, placed, cuts, parent, diag, "budget")


def test_fixture_passes():
    V, T, parent, _ = hexagon()
    assert len(T) == 24 and len(parent) == 7
    assert check(V, T, net_of(V, T), cuts_of(parent), parent) == []


def test_stretched_triangle():
    V, T, parent, _ = hexagon()
    placed = net_of(V, T)
    placed[5] = placed[5] * np.array([1.01, 1.0])
    problems = check(V, T, placed, cuts_of(parent), parent)
    assert any("side length" in p for p in problems), problems


def test_overlapping_triangles():
    V, T, parent, _ = hexagon()
    placed = net_of(V, T)
    placed[7] = placed[3] + np.array([0.25, 0.1])   # rigid, so congruent
    problems = check(V, T, placed, cuts_of(parent), parent)
    assert any("overlap verdicts differ" in p for p in problems), problems
    # the program reporting the overlap agrees with the checker
    diag = copy.deepcopy(CLEAN)
    diag["overlap"]["clean"] = False
    problems = check(V, T, placed, cuts_of(parent), parent, diag)
    assert not any("overlap" in p for p in problems), problems


def test_touching_triangles_do_not_overlap():
    V, T, _, _ = hexagon()
    assert len(checker.overlapping_pairs(np.stack(
        list(net_of(V, T).values())))) == 0


def test_cut_set_one_edge_short():
    V, T, parent, _ = hexagon()
    cuts = sorted(cuts_of(parent))[1:]
    problems = check(V, T, net_of(V, T), cuts, parent)
    assert any("6 cut edges for 7 interior vertices" in p
               for p in problems), problems


def test_parent_cycle():
    V, T, parent, index = hexagon()
    parent = dict(parent)
    parent[index[(1, 0)]] = index[(0, 0)]
    problems = check(V, T, net_of(V, T), cuts_of(parent), parent)
    assert any("cycle" in p for p in problems), problems


def test_path_wider_than_wedge():
    V, T, parent, index = hexagon()
    parent = dict(parent)
    # centre -> (1, 0) -> (0, 1) -> (0, 2): directions 0, 120 and 60 deg,
    # a 120 deg spread against the 60 deg wedge of equilateral triangles
    parent[index[(1, 0)]] = index[(0, 1)]
    problems = check(V, T, net_of(V, T), cuts_of(parent), parent)
    assert problems and all("spans 120.0000 deg" in p and "60.0000" in p
                            for p in problems), problems


def test_status_must_be_proven_within_budget():
    V, T, parent, _ = hexagon()
    diag = dict(CLEAN, status="empirical_clean")
    problems = check(V, T, net_of(V, T), cuts_of(parent), parent, diag)
    assert any("expected 'proven_clean'" in p for p in problems), problems


def test_arc_width_wraps_around():
    assert checker.arc_width(np.radians([350.0, 10.0])) == pytest.approx(
        math.radians(20.0))


def test_real_unfolding_passes():
    src = Path(__file__).resolve().parents[1] / "src"
    sys.path.insert(0, str(src))
    from capunfold.generate import generate_budget_cap
    from capunfold.pipeline import cut_and_unfold

    cap = generate_budget_cap(60, seed=4)
    res = cut_and_unfold(cap)
    assert checker.check_result(
        cap.vertices, cap.triangles, res.net.placed, res.net.cut_edges,
        res.forest.parent, res.diagnostics, "budget") == []


def write_artifacts(out, V, T, cuts, faces):
    lines = ["v %.17g %.17g %.17g" % tuple(v) for v in V]
    lines += ["f %d %d %d" % tuple(t + 1) for t in T]
    lines += [f"# cut {a} {b}" for a, b in sorted(cuts)]
    (out / "cap.obj").write_text("\n".join(lines) + "\n")
    polygons = '<polygon class="face" points="0,0 1,0 0,1"/>\n' * faces
    (out / "net.svg").write_text(
        f'<svg xmlns="http://www.w3.org/2000/svg">\n{polygons}</svg>\n')
    (out / "diagnostics.json").write_text('{"status": "empirical_clean"}\n')


def test_artifacts(tmp_path):
    V, T, parent, _ = hexagon()
    cuts = cuts_of(parent)
    write_artifacts(tmp_path, V, T, cuts, len(T))
    assert checker.check_artifacts(
        tmp_path, V, T, cuts, "empirical_clean", 1) == []
    problems = checker.check_artifacts(
        tmp_path, V, T, cuts, "empirical_clean", 0)
    assert any("exit code 0" in p for p in problems), problems
    write_artifacts(tmp_path, V, T, sorted(cuts)[1:], len(T) - 1)
    problems = checker.check_artifacts(
        tmp_path, V, T, cuts, "empirical_clean", 1)
    assert any("6 cut lines for 7 cut edges" in p for p in problems)
    assert any("23 face polygons for 24 triangles" in p for p in problems)

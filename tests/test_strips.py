import functools
import math
from fractions import Fraction

import numpy as np

from capunfold.forest import build_forest, choose_origin
from capunfold.generate import generate_budget_cap, generate_cap
from capunfold import strips as strips_mod
from capunfold.strips import (
    WaterfallPath,
    _cartesian,
    _oblique,
    _ordered,
    _path_graph,
    _staircase,
    _to_global,
    _to_local,
    strip_certificates,
    waterfall_strips,
)

from fixtures import (large_net_cap, oracle_set, pentagonal_pyramid,
                      quarter_turn)
from lemmas import verify_angle_monotone
import monotone_reference as reference

DEG = math.pi / 180


def failures(system) -> list[str]:
    """Messages of the failing strip certificate rows, in row order."""
    return [msg for _, holds, _, msg in strip_certificates(system)
            if not holds]


def verdicts(system) -> dict:
    return {key: holds for key, holds, _, _ in strip_certificates(system)}


def unfolded(seed=3, n=60, phi=25 * DEG, mode="central"):
    cap = generate_cap(n, phi=phi, seed=seed)
    forest = build_forest(cap, choose_origin(cap, mode))
    return cap, forest, waterfall_strips(cap, forest)


class TestWaterfallPaths:
    def test_paths_are_theta_monotone_and_noncrossing(self):
        for seed in range(5):
            cap, forest, system = unfolded(seed=seed)
            theta = forest.system.theta
            for i in range(4):
                ps = system.paths[i]
                for wp in ps:
                    assert verify_angle_monotone(wp.points, theta) is not None
                for j in range(len(ps)):
                    for k in range(j + 1, len(ps)):
                        assert not polylines_cross(ps[j].points, ps[k].points)

    def test_paths_run_from_origin_to_their_leaves(self):
        cap, forest, system = unfolded(seed=1)
        qs = forest.system
        P = cap.vertices[:, :2]
        for i in range(4):
            for wp in system.paths[i]:
                assert np.allclose(wp.points[0], P[qs.origin], atol=1e-12)
                assert np.allclose(wp.points[-1], P[wp.leaf], atol=1e-12)
                # the global points are the oblique ones, mapped once
                assert wp.ab[0].tolist() == [0.0, 0.0]
                assert np.array_equal(wp.points, _to_global(
                    _cartesian(wp.ab, qs.theta), P[qs.origin],
                    qs.quadrant(i).base))

    def test_every_nonorigin_leaf_gets_a_path(self):
        cap, forest, system = unfolded(seed=2)
        q = forest.system.origin
        got = {wp.leaf for i in range(4) for wp in system.paths[i]}
        assert got == set(forest.leaves.tolist()) - {q}

    def test_positive_clearance_and_radius(self):
        cap, forest, system = unfolded(seed=4)
        for i in range(4):
            if system.paths[i]:
                assert system.eps[i] > 0
                assert system.radius[i] > 0


class TestStripAssignment:
    def test_strip_count_per_quadrant(self):
        cap, forest, system = unfolded(seed=3)
        for i in range(4):
            idxs = [s for q, s in system.strips if q == i]
            assert idxs == list(range(len(system.paths[i]) + 1))

    def test_pyramid_has_one_strip_per_quadrant(self):
        cap = pentagonal_pyramid()
        forest = build_forest(cap, choose_origin(cap, "central"))
        system = waterfall_strips(cap, forest)
        assert all(not system.paths[i] for i in range(4))
        assert system.strips == [(0, 0), (1, 0), (2, 0), (3, 0)]
        assert failures(system) == []


class TestCertificates:
    def test_random_caps_certify_clean(self):
        for seed in range(5):
            cap, forest, system = unfolded(seed=seed)
            assert failures(system) == [], seed

    def test_budget_caps_certify_clean(self):
        for seed in range(3):
            cap = generate_budget_cap(80, seed=seed)
            forest = build_forest(cap, choose_origin(cap, "central"))
            system = waterfall_strips(cap, forest)
            assert failures(system) == [], seed

    def test_boundary_mode_origin_also_works(self):
        cap, forest, system = unfolded(seed=7, mode="closest_to_boundary")
        assert failures(system) == []


def epsilon_reference(cap, forest, quadrant, leaves, ob, r):
    """Clearance unit with the leaf x forest-edge distances in a Python loop."""
    n = len(leaves)
    a_leaf, b_leaf = ob[:, 0], ob[:, 1]
    cands = [0.9 * r, float(b_leaf.min())]
    gaps = np.diff(np.sort(b_leaf))
    gaps = gaps[gaps > 0]
    if len(gaps):
        cands.append(float(gaps.min()))
    da = np.abs(a_leaf[:, None] - a_leaf[None, :])
    da = da[da > 0]
    if len(da):
        cands.append(float(da.min()))
    qs = forest.system
    P = cap.vertices[:, :2]
    rot = qs.quadrant(quadrant).base
    edges = forest.edges.tolist()
    E = np.array(edges)
    A = _oblique(_to_local(P[E[:, 0]], P[qs.origin], rot), qs.theta)
    B = _oblique(_to_local(P[E[:, 1]], P[qs.origin], rot), qs.theta)
    for k, leaf in enumerate(leaves):
        a0, b0 = float(a_leaf[k]), float(b_leaf[k])
        for (u, v), pa, pb in zip(edges, A, B):
            if leaf in (u, v):
                continue
            lo, hi = sorted((pa[0], pb[0]))
            if not (lo <= a0 <= hi) or hi == lo:
                continue
            t = (a0 - pa[0]) / (pb[0] - pa[0])
            b_at = pa[1] + t * (pb[1] - pa[1])
            if 0 < b0 - b_at:
                cands.append(b0 - b_at)
    return min(cands) / (n + 1)


def reference_caps():
    for seed in range(3):
        yield generate_budget_cap(200, seed=seed)
    for seed in range(3):
        yield generate_cap(300, phi=33 * DEG, seed=seed)


class TestVectorizedAgainstReference:
    def test_epsilon_matches_loop_reference(self, monkeypatch):
        fast = strips_mod._epsilon
        seen = []

        def both(*args):
            eps = fast(*args)
            assert eps == epsilon_reference(*args)
            seen.append(eps)
            return eps

        monkeypatch.setattr(strips_mod, "_epsilon", both)
        for cap in reference_caps():
            waterfall_strips(cap, build_forest(cap, choose_origin(cap, "central")))
        assert len(seen) >= 10


def segments_cross(p1, d1, p3, d2):
    """Proper crossing of segments ``p1 + t d1`` and ``p3 + u d2``, per item."""
    tol = 1e-12
    den = d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0]
    w = p3 - p1
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (w[..., 0] * d2[..., 1] - w[..., 1] * d2[..., 0]) / den
        u = (w[..., 0] * d1[..., 1] - w[..., 1] * d1[..., 0]) / den
    ok = np.abs(den) >= tol
    return ok & (t > tol) & (t < 1 - tol) & (u > tol) & (u < 1 - tol)


def polylines_cross(A, B):
    """Brute-force proper-crossing test between two polylines, over all
    their segment pairs at once."""
    return bool(segments_cross(A[:-1][:, None], (A[1:] - A[:-1])[:, None],
                               B[:-1][None], (B[1:] - B[:-1])[None]).any())


def crossing_reference(polylines):
    """All-pairs crossing test, one :func:`polylines_cross` call per pair."""
    return [(j, k) for j in range(len(polylines))
            for k in range(j + 1, len(polylines))
            if polylines_cross(polylines[j], polylines[k])]


def ordered_reference(lower, upper):
    """Is no point of staircase ``upper`` strictly below a point of
    ``lower`` at the same abscissa?  Every pair of segments, in exact
    rationals, each path extended by a level segment beyond its leaf."""
    far = max(lower[-1, 0], upper[-1, 0]) + 1

    def segments(ab):
        pts = [(Fraction(a), Fraction(b)) for a, b in ab.tolist()]
        pts.append((Fraction(far), pts[-1][1]))
        return list(zip(pts, pts[1:]))

    def span(seg, x):
        (a0, b0), (a1, b1) = seg
        if a0 == a1:
            return b0, b1
        y = b0 + (x - a0) / (a1 - a0) * (b1 - b0)
        return y, y

    for s in segments(upper):
        for t in segments(lower):
            x0, x1 = max(s[0][0], t[0][0]), min(s[1][0], t[1][0])
            if x0 <= x1 and any(span(s, x)[0] < span(t, x)[1]
                                for x in (x0, x1)):
                return False
    return True


def random_staircase(rng, k):
    """k steps from (0, 0), each a or b or both by 1 or 2, so that every
    height the certificate interpolates is exact."""
    steps = rng.integers(0, 3, size=(k, 2)).astype(float)
    steps[~steps.any(axis=1), 0] = 1.0
    return np.vstack([[0.0, 0.0], np.cumsum(steps, axis=0)])


def staircase_system(cap, forest, quadrant, abs_):
    """The strip system of ``cap`` with ``quadrant``'s paths replaced by
    the oblique staircases ``abs_``."""
    qs = forest.system
    origin = cap.vertices[qs.origin, :2]
    system = waterfall_strips(cap, forest)
    system.paths[quadrant] = [
        WaterfallPath(leaf=k, ab=ab, points=_to_global(
            _cartesian(ab, qs.theta), origin, qs.quadrant(quadrant).base))
        for k, ab in enumerate(abs_)]
    return system


class TestArrayPassesAgainstReference:
    def test_repair_and_crossings_match_loop_references(self):
        # the staircase order of every consecutive pair agrees with the
        # reference left_of on the global points, and no two paths of an
        # ordered quadrant cross by the all-pairs test
        for cap, forest in oracle_set():
            system = waterfall_strips(cap, forest)
            for i in range(4):
                ps = system.paths[i]
                got = [_ordered(lo.ab, up.ab) for lo, up in zip(ps, ps[1:])]
                pairs = []
                for lo, up in zip(ps, ps[1:]):
                    upper = up.points.copy()
                    upper[0] = lo.points[0]
                    pairs.append((upper, lo.points))
                assert got == [reference.left_of(*pair)[0] for pair in pairs]
                assert all(got)
                assert crossing_reference([wp.points for wp in ps]) == []

    def test_direction_cones_match_per_path_reference(self):
        # a staircase in its quadrant's oblique frame is a path whose global
        # edge directions fit in theta; the per-path cone check on the
        # global points agrees, except on the paths whose rounded points
        # leave the cone by about 1e-9 rad (the staircases hold exactly)
        caps = {(17,): generate_budget_cap(300, seed=17),
                (23,): generate_budget_cap(300, seed=23)}
        caps.update({(5000, k): quarter_turn(large_net_cap(), k)
                     for k in (0, 1, 2)})
        rounded = {(17,): [205]}
        sets = [(None, cap, forest) for cap, forest in oracle_set()] + [
            (name, cap, build_forest(cap, choose_origin(cap, "central")))
            for name, cap in caps.items()]
        for name, cap, forest in sets:
            theta = forest.system.theta
            paths = waterfall_strips(cap, forest).paths
            wps = [wp for i in range(4) for wp in paths[i]]
            assert all(_staircase(wp.ab) for wp in wps)
            cone = [wp.leaf for wp in wps
                    if verify_angle_monotone(wp.points, theta) is None]
            assert cone == rounded.get(name, []), name

    def test_crossing_polylines_are_reported(self):
        cap, forest, system = unfolded(seed=3)
        i = max(range(4), key=lambda k: len(system.paths[k]))
        ps = system.paths[i]
        assert len(ps) >= 3
        # consecutive paths swapped: the pair is out of order
        swapped = [wp.ab for wp in ps]
        swapped[1], swapped[2] = swapped[2], swapped[1]
        system_swapped = staircase_system(cap, forest, i, swapped)
        assert verdicts(system_swapped) == {"paths_monotone": True,
                                            "paths_ordered": False}
        assert (f"quadrant {i}: path 2 not left of path 1"
                in failures(system_swapped)[0].split("; "))
        # two staircases that properly cross, and one touching the lower
        # from above at a vertex
        r = system.radius[i]
        low = r * np.array([[0, 0], [1, 0], [1, 1], [3, 1], [3, 2.0]])
        cross = r * np.array([[0, 0], [2, 0.5], [2, 3.0]])
        touch = r * np.array([[0, 0], [0, 1], [1, 1], [4, 4.0]])
        system_cross = staircase_system(cap, forest, i, [low, cross])
        assert not verdicts(system_cross)["paths_ordered"]
        assert failures(system_cross) == [
            f"quadrant {i}: path 1 not left of path 0"]
        sys_cross = staircase_system(cap, forest, i, [low, cross, touch])
        assert crossing_reference(
            [wp.points for wp in sys_cross.paths[i]]) == [(0, 1), (1, 2)]
        assert (_ordered(low, cross), _ordered(low, touch)) == (False, True)
        assert ordered_reference(low, touch)
        assert not ordered_reference(low, cross)
        # a path that repeats a point or steps back in a is no staircase,
        # nor ordered
        assert not _staircase(np.vstack([low[:2], low[1:]]))
        back = r * np.array([[0, 0], [0, 2], [2, 3], [1.5, 4.0]])
        assert failures(staircase_system(cap, forest, i, [low, back])) == [
            "waterfall path to leaf 1 not angle-monotone",
            f"quadrant {i}: path 1 not left of path 0"]
        # one row per kind, whose message names every failing path
        assert failures(staircase_system(cap, forest, i,
                                         [low, back, back])) == [
            "waterfall path to leaf 1 not angle-monotone; "
            "waterfall path to leaf 2 not angle-monotone",
            f"quadrant {i}: path 1 not left of path 0; "
            f"quadrant {i}: path 2 not left of path 1"]

    def test_staircase_order_matches_exact_reference(self):
        rng = np.random.default_rng(2)
        verdicts = set()
        for _ in range(300):
            lower, upper = (random_staircase(rng, int(rng.integers(1, 7)))
                            for _ in range(2))
            assert _staircase(lower) and _staircase(upper)
            got = _ordered(lower, upper)
            assert got == ordered_reference(lower, upper), (lower, upper)
            verdicts.add(got)
        assert verdicts == {True, False}

def pl_max_reference(f, g):
    """Pointwise maximum of two nondecreasing piecewise-linear functions,
    each extended by constants beyond its breakpoints: the upper envelope
    the waterfall construction once carried over all earlier paths."""
    xs = np.unique(np.concatenate([f[0], g[0]]))
    yf = np.interp(xs, *f)
    yg = np.interp(xs, *g)
    pts_x = [xs[0]]
    pts_y = [max(yf[0], yg[0])]
    for i in range(len(xs) - 1):
        d0 = yf[i] - yg[i]
        d1 = yf[i + 1] - yg[i + 1]
        if d0 * d1 < 0:
            t = d0 / (d0 - d1)
            pts_x.append(xs[i] + t * (xs[i + 1] - xs[i]))
            pts_y.append(yf[i] + t * (yf[i + 1] - yf[i]))
        pts_x.append(xs[i + 1])
        pts_y.append(max(yf[i + 1], yg[i + 1]))
    return np.array(pts_x), np.array(pts_y)


@functools.lru_cache(maxsize=None)
def ride_paths():
    """Waterfall paths, per quadrant, of the :func:`oracle_set` caps and of
    the large-net cap at four quarter turns."""
    sets = list(oracle_set()) + [
        (cap, build_forest(cap, choose_origin(cap, "central")))
        for cap in (quarter_turn(large_net_cap(), k) for k in range(4))]
    return tuple(waterfall_strips(cap, forest).paths[i]
                 for cap, forest in sets for i in range(4))


class TestPredecessorRide:
    def test_paths_ride_their_predecessor(self):
        # apart from 0, its target and its leaf, every abscissa of a path
        # is one of the path before it (of the lower axis, for the first)
        pairs = 0
        for ps in ride_paths():
            prev = np.zeros((1, 2))
            for wp in ps:
                own = set(wp.ab[:, 0].tolist()) - {0.0, wp.ab[1, 0],
                                                   wp.ab[-1, 0]}
                assert own <= set(prev[:, 0].tolist()), wp.leaf
                prev = wp.ab
                pairs += 1
        assert pairs > 2000

    def test_previous_path_is_the_envelope_of_all_earlier(self):
        # leaves come in height order, so the upper envelope of paths
        # 0..i-1 is path i-1's graph at every breakpoint of the envelope
        updates = 0
        for ps in ride_paths():
            env = (np.array([0.0]), np.array([0.0]))
            for wp in ps:
                graph = _path_graph(wp.ab)
                env = pl_max_reference(env, graph)
                assert np.array_equal(np.interp(env[0], *graph), env[1])
                updates += 1
        assert updates > 2000

"""End-to-end acceptance suite: every headline guarantee of the artifact,
with wall-clock budgets measured inside the tests."""

import gc
import math
import re
import time
import tracemalloc

import numpy as np
import pytest

from capunfold import forest as forest_mod
from capunfold import monotone as monotone_mod
from capunfold import pipeline as pipeline_mod
from capunfold import strips as strips_mod
from capunfold.develop import layout_net
from capunfold.forest import build_forest, choose_origin
from capunfold.generate import generate_budget_cap, generate_cap
from capunfold.geom import delta_perp, omega_bound, phi_budget
from capunfold.mesh import ConvexCap, compute_metrics
from capunfold.pipeline import cut_and_unfold

from fixtures import (adjacency_reference, chain_radially_monotone,
                      large_net_cap, leaf_paths, pentagonal_pyramid,
                      quarter_turn)
from lemmas import (
    angle_monotone_implies_rm,
    enclosed_curvature,
    total_turn,
    verify_angle_monotone,
    vertex_point,
)
import monotone_reference as reference
from monotone_reference import circle_crossing_oracle
from test_develop import layout_reference, record_levels
from test_geom import sweep_projection_distortion
from test_mesh import pyramid_circuit
from test_monotone import random_chain

DEG = math.pi / 180


# --------------------------------------------------------------------------
# 1. projection distortion: published table + numeric sweep
# --------------------------------------------------------------------------


class TestDistortionFormula:
    def test_table_and_sweep(self):
        t0 = time.perf_counter()
        assert delta_perp(10 * DEG) / DEG == pytest.approx(0.9, abs=0.05)
        assert delta_perp(20 * DEG) / DEG == pytest.approx(3.6, abs=0.05)
        assert delta_perp(30 * DEG) / DEG == pytest.approx(8.2, abs=0.05)
        # 1-degree-grid sweep: the maximum sits at theta = alpha/2 with
        # alpha = 90deg, and matches delta_perp exactly.  (At tilts beyond
        # ~10deg the true maximizer drifts slightly below 90deg - see
        # test_geom.TestDeltaPerp.test_large_tilt_maximum_drifts_interior -
        # so the claim is checked in the small-tilt regime it applies to.)
        for phi_deg in (2.0, 5.0, 10.0):
            phi = phi_deg * DEG
            alphas, thetas, dist = sweep_projection_distortion(phi)
            ia, it = np.unravel_index(np.argmax(dist), dist.shape)
            assert alphas[ia] == pytest.approx(math.pi / 2, abs=1e-9)
            assert thetas[it] == pytest.approx(alphas[ia] / 2, abs=1.01 * DEG)
            assert dist.max() == pytest.approx(delta_perp(phi), rel=1e-9)
        assert time.perf_counter() - t0 < 1.0


# --------------------------------------------------------------------------
# 2. tilt budget values
# --------------------------------------------------------------------------


class TestBudgetFormula:
    def test_budget_at_4_degrees(self):
        assert phi_budget(4 * DEG) / DEG == pytest.approx(5.4, abs=0.05)

    @pytest.mark.xfail(
        strict=True,
        reason="phi_budget(3deg) = sqrt(2/(4pi+3)) * sqrt(3deg) = 4.70deg; "
               "the published headline value ~5.0deg is not reproduced by "
               "the formula itself (see the 4deg case, which is exact)")
    def test_budget_at_3_degrees(self):
        assert phi_budget(3 * DEG) / DEG == pytest.approx(5.0, abs=0.1)


# --------------------------------------------------------------------------
# 3. pentagonal-pyramid worked example
# --------------------------------------------------------------------------


class TestIcosahedronWorkedExample:
    def test_all_published_quantities(self):
        t0 = time.perf_counter()
        cap = pentagonal_pyramid()
        m = compute_metrics(cap)
        assert m.phi_actual / DEG == pytest.approx(37.4, abs=0.1)
        assert m.omega_total / DEG == pytest.approx(60.0, abs=1e-6)
        assert omega_bound(m.phi_actual) / DEG == pytest.approx(73.9, abs=0.1)

        # rim corner: 120deg on the surface (turn 60deg), 108deg projected
        # (turn 72deg)
        psi, psi_planar = np.array(cap.rim_angles())[:, 0]  # rim[0] == 0
        assert (math.pi - psi) / DEG == pytest.approx(60.0, abs=1e-9)
        assert (math.pi - psi_planar) / DEG == pytest.approx(72.0, abs=1e-9)

        # chord circuit: join turn where the chord leaves the rim, and the
        # two apex-edge crossings of the developed chord
        circuit = pyramid_circuit(cap)
        join = total_turn(cap, [vertex_point(2)] + circuit[:2], closed=False)
        assert join / DEG == pytest.approx(75.5, abs=0.1)
        tau_q = total_turn(cap, circuit[:4], closed=False)
        assert tau_q / DEG == pytest.approx(-31.0, abs=0.1)

        # Gauss-Bonnet: turns + enclosed curvature close to a full turn
        total = total_turn(cap, circuit) + enclosed_curvature(cap, circuit)
        assert abs(total - 2 * math.pi) < 1e-6
        assert time.perf_counter() - t0 < 1.0


# --------------------------------------------------------------------------
# 4. proven regime: 100 within-budget caps, every certificate passes
# --------------------------------------------------------------------------


class TestProvenRegime:
    def test_100_budget_caps_all_proven_clean(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(2024)
        failures = []
        for seed in range(100):
            n = int(rng.integers(20, 201))
            cap = generate_budget_cap(n, seed=seed)
            res = cut_and_unfold(cap)
            d = res.diagnostics
            ok = (res.clean and res.proven
                  and all(d["certificates"].values())
                  and d["metrics"]["omega_total"]
                  <= d["metrics"]["omega_bound"] + 1e-12
                  and not d["forest"]["violations"])
            if not ok:
                failures.append((seed, n, d["status"], d["warnings"],
                                 d["errors"]))
        assert not failures, failures
        assert time.perf_counter() - t0 < 60.0


# --------------------------------------------------------------------------
# 5. empirical regime: tilt ~33deg, at least 95% clean, never a crash
# --------------------------------------------------------------------------


class TestEmpiricalRegime:
    def test_100_steep_caps_mostly_clean(self):
        t0 = time.perf_counter()
        clean = 0
        for seed in range(100):
            cap = generate_cap(98, phi=33 * DEG, seed=seed)
            res = cut_and_unfold(cap)  # must not raise
            if res.clean:
                clean += 1
            else:
                # failures must carry overlap witnesses
                assert res.diagnostics["overlap"]["pair_count"] > 0
                assert res.diagnostics["overlap"]["pairs"]
        assert clean >= 95, f"only {clean}/100 clean"
        assert time.perf_counter() - t0 < 60.0


# --------------------------------------------------------------------------
# 6. definition equivalence: angle form vs circle-crossing oracle
# --------------------------------------------------------------------------

ADVERSARIAL_CHAINS = [
    [[0, 0], [1, 0], [2, 0], [3.5, 0]],                 # straight
    [[0, 0], [1, 0], [1, 1], [2, 1], [2, 2]],           # staircase
    [[0, 0], [2, 0], [2, 1], [0.2, 1]],                 # double-back
    [[0, 0], [1, 0], [1 + 1e-9, 1]],                    # near-vertical kink
    [[0, 0], [1, 0], [0.9999999, 1], [2, 1.5]],         # micro radial dip
    [[0, 0], [3, 0], [3, 3], [0.5, 3], [0.5, 0.5]],     # inward spiral
    [[0, 0], [1, 1], [2, 2], [3, 3.0000001]],           # near-collinear
]


class TestDefinitionEquivalence:
    @staticmethod
    def _oracle(pts):
        return all(circle_crossing_oracle(pts[j:], source=pts[j])
                   for j in range(len(pts) - 1))

    def test_10k_random_chains(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(7)
        total = 0
        while total < 10_000:
            k = int(rng.integers(2, 9))
            spread = rng.uniform(0.2, 2.6)
            pts = random_chain(rng, k, spread)
            if not reference.is_simple(pts):
                continue
            total += 1
            verdict, _ = chain_radially_monotone(pts)
            assert verdict == self._oracle(pts), pts
        assert time.perf_counter() - t0 < 30.0

    def test_adversarial_fixtures(self):
        for pts in ADVERSARIAL_CHAINS:
            pts = np.asarray(pts, dtype=float)
            verdict, _ = chain_radially_monotone(pts)
            assert verdict == self._oracle(pts), pts


# --------------------------------------------------------------------------
# 7. lemma suite: implication, rim angles, Gauss-Bonnet on random cycles
# --------------------------------------------------------------------------


def _random_disc_cycle(cap, rng):
    """Vertex cycle bounding a random edge-connected, simply connected set
    of faces; None when the grown region is not a clean disk."""
    edge_faces = adjacency_reference(cap.triangles).edge_faces
    faces = {int(rng.integers(0, cap.n_triangles))}
    for _ in range(int(rng.integers(1, 12))):
        frontier = set()
        for f in faces:
            tri = cap.triangles[f]
            for k in range(3):
                a, b = int(tri[k]), int(tri[(k + 1) % 3])
                for g in edge_faces[(min(a, b), max(a, b))]:
                    if g not in faces:
                        frontier.add(g)
        if not frontier:
            break
        faces.add(sorted(frontier)[int(rng.integers(0, len(frontier)))])

    # boundary of the region as directed edges (ccw around the region)
    succ = {}
    for f in faces:
        tri = cap.triangles[f]
        for k in range(3):
            a, b = int(tri[k]), int(tri[(k + 1) % 3])
            fs = edge_faces[(min(a, b), max(a, b))]
            if len(fs) == 1 or not all(g in faces for g in fs):
                if a in succ:
                    return None  # pinch vertex
                succ[a] = b
    start = next(iter(succ))
    cycle = [start]
    while True:
        nxt = succ[cycle[-1]]
        if nxt == start:
            break
        if nxt in cycle:
            return None
        cycle.append(nxt)
    if len(cycle) != len(succ):
        return None  # multiple boundary loops: not a disk
    return cycle


class TestLemmaSuite:
    def test_angle_monotone_paths_are_radially_monotone(self):
        for seed in range(20):
            cap = generate_budget_cap(60, seed=seed)
            forest = build_forest(cap, choose_origin(cap, "central"))
            theta = forest.system.theta
            P = cap.vertices[:, :2]
            for path in leaf_paths(forest):
                pts = P[path[::-1]]  # root-to-leaf: outward orientation
                assert verify_angle_monotone(pts, theta) is not None
                assert angle_monotone_implies_rm(pts, theta)

    def test_rim_angles_never_widen_under_projection(self):
        for seed in range(20):
            cap = generate_cap(60, phi=25 * DEG, seed=seed)
            psi, psi_planar = cap.rim_angles()
            assert np.all(psi + 1e-9 >= psi_planar)

    def test_gauss_bonnet_on_1000_random_cycles(self):
        rng = np.random.default_rng(11)
        checked = 0
        seed = 0
        while checked < 1000:
            cap = generate_cap(80, phi=30 * DEG, seed=seed)
            seed += 1
            for _ in range(200):
                cycle = _random_disc_cycle(cap, rng)
                if cycle is None:
                    continue
                circuit = [vertex_point(v) for v in cycle]
                resid = (total_turn(cap, circuit)
                         + enclosed_curvature(cap, circuit) - 2 * math.pi)
                assert abs(resid) <= 1e-6, (seed - 1, cycle, resid)
                checked += 1
                if checked == 1000:
                    break
        assert checked == 1000


# --------------------------------------------------------------------------
# 8. complexity sanity
# --------------------------------------------------------------------------


class TestComplexity:
    def test_wall_time_and_scaling(self):
        def timed(n):
            cap = generate_budget_cap(n, seed=3)
            t0 = time.perf_counter()
            res = cut_and_unfold(cap)
            dt = time.perf_counter() - t0
            assert res.clean
            return dt

        t100 = timed(100)
        t500 = timed(500)
        t1000 = timed(1000)
        assert t500 < 2.0, f"n=500 took {t500:.2f}s"
        slope = math.log(t1000 / t100) / math.log(10.0)
        assert slope <= 2.3, f"log-log slope {slope:.2f}"


class TestWorkCounts:
    """Counts of the work the whole-cap array passes do, which a quadratic
    or per-face loop would give away; no wall time is measured."""

    @staticmethod
    def _cap():
        cap = generate_budget_cap(2000, seed=3)
        return cap, build_forest(cap, choose_origin(cap, "central"))

    def test_staircase_order_evaluates_few_abscissae(self, monkeypatch):
        # each consecutive pair of waterfall paths is one merge of their
        # abscissae, not a test of every segment pair
        cap, forest = self._cap()
        system = strips_mod.waterfall_strips(cap, forest)
        heights = strips_mod._heights
        seen = []
        monkeypatch.setattr(strips_mod, "_heights", lambda ab, x: (
            seen.append((len(ab), len(x))), heights(ab, x))[1])
        rows = strips_mod.strip_certificates(system)
        assert ("paths_ordered", True) in [row[:2] for row in rows]
        pairs = [(lo, up) for i in range(4) for lo, up in
                 zip(system.paths[i], system.paths[i][1:])]
        assert len(pairs) > 100
        assert len(seen) == 2 * len(pairs)
        for (lo, up), (u, l) in zip(pairs, zip(seen[::2], seen[1::2])):
            assert (u[0], l[0]) == (len(up.ab), len(lo.ab))
            assert u[1] == l[1] <= len(lo.ab) + len(up.ab)

    def test_forest_grows_level_by_level(self, monkeypatch):
        # the forest walks every quadrant's vertices at once along its
        # successor array: no vertex star is read one vertex at a time, and
        # a quadrant takes no more levels than the longest leaf path
        cap = generate_budget_cap(2000, seed=3)
        qs = choose_origin(cap, "central")
        fans, levels = [], []
        fan = ConvexCap.vertex_fan
        monkeypatch.setattr(ConvexCap, "vertex_fan", lambda self, v: (
            fans.append(v), fan(self, v))[1])
        walk = forest_mod._levels

        def counted(*args):
            for front in walk(*args):
                levels.append(len(front))
                yield front

        monkeypatch.setattr(forest_mod, "_levels", counted)
        forest = build_forest(cap, qs)
        assert fans == []
        longest = max(len(p) for p in leaf_paths(forest))
        assert longest > 20
        assert len(levels) <= 4 * (longest + 1), (len(levels), longest)
        assert sum(levels) == len(cap.interior_vertices)  # each walked once

    def test_origin_choice_evaluates_few_rim_pairs(self, monkeypatch):
        # q comes from the points that can be nearest to or farthest from
        # the rim, each against the rim segments that can be nearest to it
        cap = generate_budget_cap(2000, seed=3)
        kernel = forest_mod._segment_distances
        pairs = []
        monkeypatch.setattr(forest_mod, "_segment_distances", lambda *a: (
            pairs.append(len(a[0])), kernel(*a))[1])
        choose_origin(cap, "central")
        interior = len(cap.interior_vertices)
        assert len(cap.rim) > 100
        assert sum(pairs) <= 2 * interior, (sum(pairs), interior)

    def test_layout_makes_one_pass_per_level(self, monkeypatch):
        cap, forest = self._cap()
        passes, _ = record_levels(monkeypatch)
        layout_net(cap, forest)
        _, parent = layout_reference(cap, forest)
        depth = {0: 0}
        for g in parent:   # visiting order: parents come first
            depth[g] = depth[parent[g]] + 1
        assert len(passes) == max(depth.values())
        assert sorted(f for level in passes for f in level) == sorted(parent)
        for k, level in enumerate(passes, start=1):
            assert {depth[g] for g in level} == {k}

    def test_cap_keeps_no_container_adjacency(self):
        # the face graph is a few arrays: building the 4,921-vertex cap
        # gives the cyclic collector almost nothing new to walk
        cap = generate_budget_cap(5000, seed=0)
        V, T = cap.vertices.copy(), cap.triangles.copy()
        gc.disable()
        try:
            before = len(gc.get_objects())
            built = ConvexCap(V, T)
            added = len(gc.get_objects()) - before
        finally:
            gc.enable()
        assert built.n_triangles == len(T) > 9000
        assert added < 100, added

    def test_unfolding_leaves_the_cap_no_container_caches(self):
        # every vertex star is in the cap's arrays from construction, so a
        # whole run adds nothing for the cyclic collector to walk
        cut_and_unfold(generate_budget_cap(200, seed=1))  # warm imports
        cap = generate_budget_cap(5000, seed=0)
        gc.collect()
        before = len(gc.get_objects())
        cut_and_unfold(cap)
        gc.collect()
        added = len(gc.get_objects()) - before
        assert cap.n_vertices > 4900
        assert added <= 10, added

    def test_certify_checks_chains_in_few_padded_blocks(self, monkeypatch):
        # each left_of family (leaf developments, banks) is one kernel
        # call: its chains, then its pairs, go through the numpy passes in
        # blocks of similar length, not one pass per pair
        cap, forest = self._cap()
        blocks = monotone_mod._blocks
        calls = []
        monkeypatch.setattr(monotone_mod, "_blocks", lambda sizes, cells: (
            calls.append((np.asarray(sizes), cells, blocks(sizes, cells))),
            calls[-1][2])[1])
        sweep = monotone_mod._sweep
        sweeps = []
        monkeypatch.setattr(monotone_mod, "_sweep", lambda *a: (
            sweeps.append(len(a[0])), sweep(*a))[1])
        cut_and_unfold(cap)
        B = monotone_mod._BLOCK_CELLS
        assert len(calls) == 4   # chains and pairs of two families
        assert len(sweeps) <= 12, sweeps
        pairs = sum(len(sizes) for sizes, _, _ in calls[1::2])
        assert pairs == 2 * len(leaf_paths(forest)) > 200
        assert sum(len(out) for _, _, out in calls) < pairs / 4
        for sizes, cells, out in calls:
            assert sorted(np.concatenate(out)) == list(range(len(sizes)))
            padded = [len(b) * cells(sizes[b].max()) for b in out]
            assert all(p <= B for p, b in zip(padded, out) if len(b) > 1)
            # a block ends only where the next item would not fit
            for b, nxt in zip(out, out[1:]):
                assert (len(b) + 1) * cells(sizes[nxt[0]]) > B
            # never more blocks than padding all to the longest would need
            per_block = max(1, B // cells(sizes.max()))
            assert len(out) <= math.ceil(len(sizes) / per_block)

    def test_certify_reads_stars_and_sides_in_array_passes(self, monkeypatch):
        # the leaf-path certificates read the vertex-star table and the face
        # graph over the whole forest table: no vertex_fan call, and as many
        # side_faces calls on a 4,921-vertex cap as on a 217-vertex one
        calls = {"vertex_fan": 0, "side_faces": 0}
        certifying = []
        for name in calls:
            method = getattr(ConvexCap, name)

            def counted(self, *args, _name=name, _method=method):
                calls[_name] += bool(certifying)
                return _method(self, *args)

            monkeypatch.setattr(ConvexCap, name, counted)
        certify = pipeline_mod._certify

        def traced(*args):
            certifying.append(True)
            try:
                return certify(*args)
            finally:
                certifying.pop()

        monkeypatch.setattr(pipeline_mod, "_certify", traced)
        seen = []
        for cap in (generate_budget_cap(200, seed=0), large_net_cap()):
            leaves = len(cut_and_unfold(cap).forest.leaves)
            seen.append((leaves, dict(calls)))
            calls.update(dict.fromkeys(calls, 0))
        (few, small), (many, large) = seen
        assert many > 5 * few > 100, seen
        assert small == large and large["vertex_fan"] == 0, seen
        assert large["side_faces"] <= 2, seen

    def test_certify_memory_on_the_large_net_cap(self, monkeypatch):
        certify = pipeline_mod._certify
        peak = []

        def traced(*args):
            tracemalloc.start()
            try:
                return certify(*args)
            finally:
                peak.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        monkeypatch.setattr(pipeline_mod, "_certify", traced)
        cut_and_unfold(quarter_turn(large_net_cap(), 0))
        assert peak[0] < 8 * 2**20, peak


def test_proven_clean_carries_no_errors():
    # the caps whose rounded waterfall points once failed the cone check
    large = generate_budget_cap(5000, seed=0)
    caps = {"n=300 seed=17": generate_budget_cap(300, seed=17),
            "n=300 seed=23": generate_budget_cap(300, seed=23)}
    caps.update({f"n=5000 seed=0 turn={k}": quarter_turn(large, k)
                 for k in range(3)})
    wrong = {}
    for name, cap in caps.items():
        d = cut_and_unfold(cap).diagnostics
        if d["status"] != "proven_clean" or d["errors"]:
            wrong[name] = (d["status"], d["errors"])
    assert not wrong, wrong


def _leaf_labels(errors, label):
    """``errors`` with every ``leaf N`` read through ``label``."""
    return [re.sub(r"leaf (\d+)", lambda m: f"leaf {label[int(m[1])]}", e)
            for e in errors]


def test_verdicts_do_not_depend_on_frame_or_labels():
    # a certificate's verdict may not hang on units, orientation or labels:
    # each cap under three seeded general rotations about z, translations
    # of 10 units and vertex relabellings, the third also mirrored (x -> -x,
    # corners reversed), gives the same status, errors and warnings; the
    # caps at 33 and 70 degrees carry over-budget warnings and, at 70,
    # failed path certificates
    rng = np.random.default_rng(12)
    caps = [generate_budget_cap(300, seed=seed) for seed in range(100)]
    caps += [generate_cap(300, phi=phi * DEG, seed=seed)
             for phi in (33, 70) for seed in range(5)]
    differ = []
    for k, cap in enumerate(caps):
        want = cut_and_unfold(cap).diagnostics
        for t in range(3):
            a = rng.uniform(0.0, 2 * math.pi)
            shift = rng.normal(size=3)
            shift *= 10.0 / np.linalg.norm(shift)
            perm = rng.permutation(cap.n_vertices)   # new label of each
            V = cap.vertices.copy()
            V[:, :2] = V[:, :2] @ np.array([[math.cos(a), math.sin(a)],
                                            [-math.sin(a), math.cos(a)]])
            V += shift
            T = cap.triangles
            if t == 2:
                V[:, 0] = -V[:, 0]
                T = T[:, ::-1]
            W = np.empty_like(V)
            W[perm] = V
            got = cut_and_unfold(ConvexCap(W, perm[T])).diagnostics
            back = np.argsort(perm)
            if (got["status"], _leaf_labels(got["errors"], back),
                    _leaf_labels(got["warnings"], back)) != (
                    want["status"], want["errors"], want["warnings"]):
                differ.append((k, t, a, got["status"], got["errors"],
                               got["warnings"]))
    assert not differ, differ

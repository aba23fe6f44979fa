import functools
import importlib
import json
import math
import re
import types
from pathlib import Path

import numpy as np
import pytest

from capunfold.generate import generate_budget_cap, generate_cap
from capunfold import develop, pipeline
from capunfold.mesh import ConvexCap
from capunfold.pipeline import (
    SCHEMA_VERSION,
    PipelineError,
    UnfoldResult,
    cut_and_unfold,
)

from fixtures import (flat_grid, flat_hex_disk, pentagonal_pyramid,
                      turned_defect_cap)
import monotone_reference as reference

DEG = math.pi / 180

#: The certificate rows, in pipeline order.
CERTIFICATES = [
    "within_budget", "rim_angle_ok", "net_congruent",
    "within_distortion_bound", "chains_monotone", "chains_ordered",
    "banks_monotone", "banks_ordered", "curvature_below_pi",
    "spread_below_pi", "paths_monotone", "paths_ordered"]

#: Offsets (x, -x, 0) at which a cap must keep its verdict.
TRANSLATIONS = (1e6, 1e7, 2e7)


@functools.lru_cache(maxsize=None)
def unscaled_verdict(seed):
    """``generate_budget_cap(200, seed)`` with its status and errors."""
    cap = generate_budget_cap(200, seed=seed)
    d = cut_and_unfold(cap).diagnostics
    return cap, (d["status"], d["errors"])


class TestEndToEnd:
    def test_flat_cap_unfolds_to_its_projection(self):
        cap = flat_hex_disk(lift=0.0)
        res = cut_and_unfold(cap)
        assert res.clean and res.proven
        assert res.diagnostics["status"] == "proven_clean"
        # a flat cap develops onto itself
        for f in range(cap.n_triangles):
            tri = cap.vertices[cap.triangles[f], :2]
            assert np.allclose(res.net.placed[f], tri, atol=1e-9)

    @pytest.mark.parametrize("k", [5, 7, 9])
    def test_flat_grid_needs_the_axis_nudge(self, k):
        # the nearest vertex to the rim sees whole rows and columns of
        # vertices on its plain axes; unnudged, a leaf sits on an axis and
        # the strips stage fails
        res = cut_and_unfold(flat_grid(k), "closest_to_boundary")
        assert res.diagnostics["status"] == "proven_clean"
        assert res.forest.system.axis_rotation == 1e-6

    @pytest.mark.parametrize("k", [5, 9, 17])
    def test_turned_grid_is_proven(self, k):
        # turned about z, the right angles of the grid round to a margin
        # alpha' of about -1 ulp, which once gave a wedge wider than pi/2
        # and failed the forest stage; the quadrant width is clamped to pi/2
        grid = flat_grid(k)
        margins = []
        for a in np.random.default_rng(k).uniform(0.0, 2 * math.pi, 6):
            V = grid.vertices.copy()
            V[:, :2] = V[:, :2] @ np.array([[math.cos(a), math.sin(a)],
                                            [-math.sin(a), math.cos(a)]])
            cap = ConvexCap(V, grid.triangles)
            for mode in ("central", "closest_to_boundary"):
                res = cut_and_unfold(cap, mode)
                assert res.diagnostics["status"] == "proven_clean", (a, mode)
                assert res.forest.system.theta == math.pi / 2
            margins.append(res.diagnostics["metrics"]["alpha_planar"])
        assert min(margins) < 0

    def test_pentagonal_pyramid_clean(self):
        res = cut_and_unfold(pentagonal_pyramid())
        assert res.diagnostics["status"] in ("proven_clean", "empirical_clean")
        assert res.clean
        assert res.diagnostics["overlap"]["pair_count"] == 0

    def test_budget_caps_proven_clean(self):
        for seed in (0, 1, 2):
            cap = generate_budget_cap(60, seed=seed)
            res = cut_and_unfold(cap)
            assert res.diagnostics["status"] == "proven_clean", (
                seed, res.diagnostics["warnings"], res.diagnostics["errors"])
            assert res.proven

    def test_over_budget_cap_is_empirical(self):
        cap = generate_cap(60, phi=33 * DEG, seed=4)
        res = cut_and_unfold(cap)
        assert not res.diagnostics["certificates"]["within_budget"]
        assert res.diagnostics["status"] in ("empirical_clean", "overlap")
        if res.clean:
            assert not res.proven
            assert res.diagnostics["warnings"]

    def test_over_budget_chains_that_are_not_monotone_warn(self):
        # the developed chains of these caps break left_of's radial
        # monotonicity precondition; that fails the certificate, not the run
        for seed in (0, 3, 7, 9, 12, 13, 21, 22, 23, 28):
            res = cut_and_unfold(generate_cap(200, phi=70 * DEG, seed=seed))
            diag = res.diagnostics
            assert diag["status"] == "empirical_clean", (seed, diag["errors"])
            c = diag["certificates"]
            assert not (c["chains_monotone"] and c["banks_monotone"]), seed
            # every failing verdict is None, a failed precondition
            assert c["chains_ordered"] and c["banks_ordered"], seed
            paths = [w for w in diag["warnings"] if "path" in w]
            assert paths and all("not radially monotone" in w
                                 for w in paths), (seed, paths)

    def test_boundary_origin_mode(self):
        cap = generate_cap(50, phi=20 * DEG, seed=5)
        res = cut_and_unfold(cap, origin_mode="closest_to_boundary")
        assert res.clean
        assert res.diagnostics["forest"]["origin_mode"] == "closest_to_boundary"

    @pytest.mark.parametrize("seed", [0, 1])
    def test_translated_cap_keeps_its_status(self, seed):
        # strip area and apex checks taken about the coordinate origin once
        # failed these caps when moved 1e6 from it, and a congruence bound
        # below the rounding of the net's coordinates did at 1e7
        cap = generate_budget_cap(200, seed=seed)
        want = cut_and_unfold(cap).diagnostics["status"]
        for shift in TRANSLATIONS:
            far = ConvexCap(cap.vertices + [shift, -shift, 0.0],
                            cap.triangles)
            d = cut_and_unfold(far).diagnostics
            assert (d["status"], d["errors"]) == (want, []), shift

    @pytest.mark.parametrize("scale", [10.0 ** k for k in range(-12, 10)])
    def test_scaled_cap_keeps_its_status(self, scale):
        # an absolute waterfall point dedupe once merged the points of
        # these caps scaled by 1e-8 or 1e-7, so paths read out of order
        for seed in range(10):
            cap, want = unscaled_verdict(seed)
            d = cut_and_unfold(ConvexCap(cap.vertices * scale,
                                         cap.triangles)).diagnostics
            assert (d["status"], d["errors"]) == want, seed

    @pytest.mark.parametrize("scale, shift", [
        (1e-12, 0.0), (1e-9, 0.0), (1.0, 0.0), (1e9, 0.0),
        *((1.0, shift) for shift in TRANSLATIONS)])
    def test_congruence_catches_a_corner_moved_half_a_side(self, scale,
                                                           shift):
        # an absolute congruence bound passed this move on caps scaled
        # below unit size
        for seed in range(10):
            cap, _ = unscaled_verdict(seed)
            cap = ConvexCap(cap.vertices * scale + [shift, -shift, 0.0],
                            cap.triangles)
            net = cut_and_unfold(cap).net
            assert develop.net_congruent(cap, net), seed
            images = net.images.copy()
            side = images[10, 1] - images[10, 0]
            images[10, 0] += 0.5 * side[::-1] * [-1.0, 1.0]
            moved = develop.Net(images, net.cut_edges)
            assert not develop.net_congruent(cap, moved), seed

    @pytest.mark.parametrize("scale, shift", [
        (1e-12, 0.0), (1.0, 0.0), (1e9, 0.0), (1.0, 2e7)])
    def test_banks_apart_at_the_leaf_read_none(self, monkeypatch, scale,
                                               shift):
        # a leaf-image test of 1e-9 + 1e-5 * |R| passed this move at scale
        # 1e-12 and at 2e7 from the coordinate origin
        cap, _ = unscaled_verdict(0)
        res = cut_and_unfold(cap)
        want = develop.banks_ordered(cap, res.net, res.forest)
        cap = ConvexCap(cap.vertices * scale + [shift, -shift, 0.0],
                        cap.triangles)
        res = cut_and_unfold(cap)
        assert develop.banks_ordered(cap, res.net, res.forest) == want
        banks = develop._banks

        def moved(cap, net, forest):
            L, R = banks(cap, net, forest)
            i = forest.path_offsets[:-1]
            R[i] += 0.5 * (R[i + 1] - R[i])[:, ::-1] * [-1.0, 1.0]
            return L, R

        monkeypatch.setattr(develop, "_banks", moved)
        got = develop.banks_ordered(cap, res.net, res.forest)
        assert got == [None] * len(want)


class TestDiagnostics:
    def test_diagnostics_json_serializable(self):
        res = cut_and_unfold(generate_budget_cap(40, seed=7))
        text = json.dumps(res.diagnostics)
        back = json.loads(text)
        assert back["schema_version"] == SCHEMA_VERSION
        assert set(back) == {"schema_version", "metrics", "forest", "paths",
                             "trees", "certificates", "overlap", "status",
                             "warnings", "errors"}

    def test_metric_fields(self):
        res = cut_and_unfold(generate_budget_cap(40, seed=8))
        m = res.diagnostics["metrics"]
        assert m["n_vertices"] == res.cap.n_vertices
        assert 0 < m["phi_actual"] <= m["phi_budget"] + 1e-12
        assert m["omega_total"] <= m["omega_bound"] + 1e-12
        assert res.diagnostics["certificates"]["rim_angle_ok"]

    def test_certificates_reported(self):
        res = cut_and_unfold(generate_budget_cap(40, seed=9))
        c = res.diagnostics["certificates"]
        assert list(c) == CERTIFICATES
        assert all(c.values()), c

    def test_every_certificate_is_documented(self):
        # each row key is in the README's certificate table, so a check
        # that bypasses the table or the documentation shows here
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n## Certificates\n")[1].split("\n## ")[0]
        table = re.findall(r"^\| `(\w+)` \|", section, re.MULTILINE)
        assert table == CERTIFICATES

    @pytest.mark.parametrize("cap", [
        generate_budget_cap(60, seed=3),
        generate_cap(200, phi=70 * DEG, seed=0)], ids=["proven", "70deg"])
    def test_diagnostics_are_deterministic(self, cap):
        # two runs of one cap give the same bytes, failing rows included
        a, b = (json.dumps(cut_and_unfold(cap).diagnostics, sort_keys=True)
                for _ in range(2))
        assert a == b

    def test_unfold_writes_the_same_diagnostics_twice(self, tmp_path):
        from capunfold.cli import main

        for out in ("a", "b"):
            assert main(["unfold", "--n", "60", "--seed", "3",
                         "--out-dir", str(tmp_path / out)]) == 0
        a, b = ((tmp_path / out / "diagnostics.json").read_bytes()
                for out in ("a", "b"))
        assert a == b

    def test_raster_oracle_field(self):
        res = cut_and_unfold(generate_budget_cap(30, seed=2), rasterize=True)
        assert res.diagnostics["overlap"]["raster_oracle_overlap"] is False


class TestFailures:
    def test_invalid_cap_raises_stage_tagged_error(self):
        cap = flat_hex_disk(lift=0.1)
        bad = ConvexCap(cap.vertices, cap.triangles[:, ::-1])  # all inverted
        with pytest.raises(PipelineError) as exc:
            cut_and_unfold(bad)
        assert exc.value.stage == "validate"

    @pytest.mark.parametrize("name, stage", [
        ("layout_net", "develop"),
        ("waterfall_strips", "strips"),
        ("strip_certificates", "certify"),
        ("check_overlap", "overlap"),
    ])
    def test_stage_failure_is_tagged(self, monkeypatch, name, stage):
        cause = RuntimeError(f"{name} failed")

        def fail(*args, **kwargs):
            raise cause

        monkeypatch.setattr(pipeline, name, fail)
        with pytest.raises(PipelineError) as exc:
            cut_and_unfold(generate_budget_cap(30, seed=0))
        assert exc.value.stage == stage
        assert exc.value.__cause__ is cause

    def test_trivial_cap_rejected(self):
        # a single triangle has no interior vertex to root a forest at
        vertices = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                             [0.0, 1.0, 0.0]])
        cap = ConvexCap(vertices, np.array([[0, 1, 2]]))
        with pytest.raises(PipelineError) as exc:
            cut_and_unfold(cap)
        assert exc.value.stage == "forest"

    def test_bad_origin_mode(self):
        with pytest.raises(PipelineError) as exc:
            cut_and_unfold(generate_budget_cap(30, seed=0), origin_mode="nope")
        assert exc.value.stage == "forest"

    def test_origin_reuses_the_metrics_stage(self, monkeypatch):
        from capunfold import forest as forest_mod

        def again(cap):
            raise AssertionError("metrics computed a second time")

        monkeypatch.setattr(forest_mod, "compute_metrics", again)
        res = cut_and_unfold(generate_budget_cap(60, seed=1))
        assert res.diagnostics["forest"]["theta"] == (
            math.pi / 2 - res.diagnostics["metrics"]["alpha_planar"])

    def test_result_type(self):
        res = cut_and_unfold(generate_budget_cap(30, seed=1))
        assert isinstance(res, UnfoldResult)
        assert set(res.net.placed) == set(range(res.cap.n_triangles))


class TestResultApi:
    """The mappings and counts that ``perfbench`` reads off a result."""

    @pytest.fixture(params=[(60, 1, None), (200, 0, None), (120, 4, 33)],
                    ids=["budget-60", "budget-200", "steep-120"])
    def res(self, request):
        n, seed, phi = request.param
        cap = (generate_budget_cap(n, seed=seed) if phi is None
               else generate_cap(n, phi=math.radians(phi), seed=seed))
        return cut_and_unfold(cap)

    def test_placed_views_the_images(self, res):
        placed, images = res.net.placed, res.net.images
        assert images.shape == (res.cap.n_triangles, 3, 2)
        assert sorted(placed) == list(range(res.cap.n_triangles))
        assert all(np.array_equal(placed[f], images[f]) for f in placed)
        with pytest.raises(TypeError):
            placed[0] = images[1]

    def test_parent_views_the_edges(self, res):
        parent = res.forest.parent
        assert parent == dict(res.forest.edges.tolist())
        with pytest.raises(TypeError):
            parent[0] = 1

    def test_one_strip_per_gap_between_paths(self, res):
        paths = res.strips.paths
        assert len(res.strips.strips) == sum(len(paths[i]) + 1
                                             for i in range(4))


def load_tracer():
    """``perfbench/tracer.py``, read and executed without importing it (no
    bytecode is written next to it)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    module = types.ModuleType("perfbench_tracer")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


class TestTracerTargets:
    def test_every_target_resolves(self):
        for module, attr, _, _ in load_tracer().TARGETS:
            assert callable(getattr(importlib.import_module(module), attr)), \
                (module, attr)

    def test_left_of_time_stays_in_its_layer(self):
        tracer = load_tracer().Tracer(memory=False)
        tracer.install()
        try:
            res = tracer.operation(0, cut_and_unfold,
                                   generate_budget_cap(200, seed=0))
        finally:
            tracer.uninstall()
        m = tracer.per_op_metrics()
        # one batched call for the chains and one inside banks_ordered
        assert m["monotone.left_of.calls"] == 2
        # one development call for both banks of every leaf path
        assert m["develop.chain.calls"] == 1
        assert m["develop.banks.calls"] == 1
        assert m["monotone.left_of_s"] > 0
        # one strip more than paths in each quadrant
        paths = sum(len(p) for p in res.strips.paths.values())
        assert m["strips.count"] == paths + 4


def break_leaf_paths(monkeypatch, crossed=None, moved=None, swapped=None):
    """Make the left development of leaf path ``crossed`` not simple, move
    the right bank's leaf image of leaf path ``moved`` off the left one's,
    and swap the left and right developments and banks of leaf path
    ``swapped``; all three are indices into ``forest.leaves``."""
    develop_chain, banks = pipeline.develop_chain, develop._banks

    def swap(forest, L, R):
        if swapped is not None:
            i, j = forest.path_offsets[swapped:swapped + 2]
            L[i:j], R[i:j] = R[i:j].copy(), L[i:j].copy()
        return L, R

    def chain(cap, forest, turns):
        left, right = develop_chain(cap, forest, turns)
        if crossed is not None:
            i = forest.path_offsets[crossed]
            left[i + 1:i + 4] = left[i] + np.array([[2, 0], [1, 1], [1, -1.0]])
        return swap(forest, left, right)

    def moved_banks(cap, net, forest):
        L, R = banks(cap, net, forest)
        if moved is not None:
            R[forest.path_offsets[moved]] += 1e-3
        return swap(forest, L, R)

    monkeypatch.setattr(pipeline, "develop_chain", chain)
    monkeypatch.setattr(develop, "_banks", moved_banks)


class TestLeafPathVerdicts:
    """A leaf path that fails its certificate fails the verdict of its
    family, whichever leaf it is; nothing raises."""

    CAP = (200, 0)   # generate_budget_cap(200, seed=0): within budget

    def _leaves(self):
        """The cap, and two of its leaf paths with at least four vertices."""
        cap = generate_budget_cap(*self.CAP)
        forest = pipeline.build_forest(
            cap, pipeline.choose_origin(cap, "central"))
        lens = np.diff(forest.path_offsets)
        return cap, np.flatnonzero(lens >= 4)[[1, 3]].tolist()

    def test_failing_leaves_fail_their_verdicts(self, monkeypatch):
        cap, (crossed, moved) = self._leaves()
        for kw, want in (({"crossed": crossed}, ["chains_monotone"]),
                         ({"moved": moved}, ["banks_monotone"]),
                         ({"swapped": moved},
                          ["chains_ordered", "banks_ordered"]),
                         ({"crossed": crossed, "moved": moved},
                          ["chains_monotone", "banks_monotone"])):
            break_leaf_paths(monkeypatch, **kw)
            d = cut_and_unfold(cap).diagnostics
            monkeypatch.undo()
            got = [k for k, holds in d["certificates"].items() if not holds]
            assert got == want, kw
            assert d["status"] == "certificate_failed"
            assert len(d["errors"]) == len(want), d["errors"]
            assert not d["warnings"]

    def test_each_failure_names_its_kind(self, monkeypatch):
        # a path that fails left_of's precondition reads as one, and only a
        # pair seen in the wrong order reads as out of order
        cap, (crossed, moved) = self._leaves()
        for kw, want in (
                ({"crossed": crossed},
                 ["developed chains not radially monotone on some path"]),
                ({"moved": moved},
                 ["cut banks not radially monotone from a shared leaf image "
                  "on some leaf path"]),
                ({"swapped": moved},
                 ["left development not left of right development on some "
                  "path", "cut banks out of order on some leaf path"])):
            break_leaf_paths(monkeypatch, **kw)
            d = cut_and_unfold(cap).diagnostics
            monkeypatch.undo()
            assert d["errors"] == want, kw

    def test_bad_leaf_in_the_cli_exits_three(self, tmp_path, monkeypatch):
        from capunfold.cli import main

        _, (crossed, moved) = self._leaves()
        break_leaf_paths(monkeypatch, crossed=crossed, moved=moved)
        n, seed = self.CAP
        assert main(["unfold", "--n", str(n), "--seed", str(seed),
                     "--out-dir", str(tmp_path)]) == 3
        d = json.loads((tmp_path / "diagnostics.json").read_text())
        assert d["status"] == "certificate_failed"
        c = d["certificates"]
        assert not (c["chains_monotone"] or c["banks_monotone"])


def test_turned_cap_certifies():
    # its rounded waterfall points once made a path read as not simple; a
    # path that rides only its predecessor has no such micro-segment, and
    # the reference left_of decides every consecutive pair of global points
    res = cut_and_unfold(turned_defect_cap())
    d = res.diagnostics
    assert (d["status"], d["errors"]) == ("proven_clean", [])
    pairs = []
    for i in range(4):
        ps = res.strips.paths[i]
        for lower, upper in zip(ps, ps[1:]):
            up = upper.points.copy()
            up[0] = lower.points[0]
            pairs.append((up, lower.points))
    assert pairs
    for up, lo in pairs:
        reference.left_of(up, lo)   # raises where a precondition fails


def inject_strip_error(monkeypatch):
    """Make the last strip certificate row fail with one error."""
    certify = pipeline.strip_certificates

    def failing(*args):
        *rows, (key, _, error, _) = certify(*args)
        return [*rows, (key, False, error, "injected strip error")]

    monkeypatch.setattr(pipeline, "strip_certificates", failing)


@pytest.mark.parametrize("cap", [generate_budget_cap(60, seed=0),
                                 pentagonal_pyramid()],
                         ids=["proven", "empirical"])
def test_certificate_error_fails_the_status(monkeypatch, cap):
    # a clean net whose errors list is not empty is neither proven nor
    # empirically clean, with or without warnings
    inject_strip_error(monkeypatch)
    res = cut_and_unfold(cap)
    d = res.diagnostics
    assert d["errors"] == ["injected strip error"]
    assert not d["certificates"]["paths_ordered"]
    assert d["status"] == "certificate_failed"
    assert res.clean and not res.proven

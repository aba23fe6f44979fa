import json
import math

import numpy as np
import pytest

from capunfold.generate import generate_budget_cap, generate_cap
from capunfold import pipeline
from capunfold.mesh import ConvexCap
from capunfold.pipeline import (
    SCHEMA_VERSION,
    PipelineError,
    UnfoldResult,
    cut_and_unfold,
)

from fixtures import flat_hex_disk, pentagonal_pyramid

DEG = math.pi / 180


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
        assert not res.diagnostics["metrics"]["within_budget"]
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
            assert not (diag["paths"]["chains_ordered"]
                        and diag["paths"]["banks_ordered"]), seed

    def test_boundary_origin_mode(self):
        cap = generate_cap(50, phi=20 * DEG, seed=5)
        res = cut_and_unfold(cap, origin_mode="closest_to_boundary")
        assert res.clean
        assert res.diagnostics["forest"]["origin_mode"] == "closest_to_boundary"


class TestDiagnostics:
    def test_diagnostics_json_serializable(self):
        res = cut_and_unfold(generate_budget_cap(40, seed=7))
        text = json.dumps(res.diagnostics)
        back = json.loads(text)
        assert back["schema_version"] == SCHEMA_VERSION
        for key in ("metrics", "forest", "paths", "trees", "strips",
                    "overlap", "status", "warnings", "errors"):
            assert key in back

    def test_metric_fields(self):
        res = cut_and_unfold(generate_budget_cap(40, seed=8))
        m = res.diagnostics["metrics"]
        assert m["n_vertices"] == res.cap.n_vertices
        assert 0 < m["phi_actual"] <= m["phi_budget"] + 1e-12
        assert m["omega_total"] <= m["omega_bound"] + 1e-12
        assert m["rim_angle_ok"]

    def test_certificates_reported(self):
        res = cut_and_unfold(generate_budget_cap(40, seed=9))
        d = res.diagnostics
        assert d["paths"]["within_distortion_bound"]
        assert d["paths"]["chains_ordered"] and d["paths"]["banks_ordered"]
        assert d["trees"]["curvature_below_pi"]
        assert d["trees"]["spread_below_pi"]
        assert d["strips"]["clean"]

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

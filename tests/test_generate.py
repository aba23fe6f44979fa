"""Random cap generation: validity, calibration, determinism."""

import math

import numpy as np
import pytest

from capunfold.generate import generate_budget_cap, generate_cap
from capunfold.geom import omega_bound, phi_budget
from capunfold.mesh import compute_metrics, validate_cap

DEG = math.pi / 180


class TestGenerateCap:
    @pytest.mark.parametrize("n,phi_deg", [(20, 5), (60, 5), (200, 4), (40, 33)])
    def test_valid_and_calibrated(self, n, phi_deg):
        cap = generate_cap(n, phi_deg * DEG, seed=11)
        assert validate_cap(cap) == []
        m = compute_metrics(cap)
        assert m.phi_actual == pytest.approx(phi_deg * DEG, rel=1e-9)
        assert m.omega_total <= omega_bound(m.phi_actual) + 1e-12
        # target n is a size hint, not a contract
        assert 0.5 * n <= m.n_vertices <= 2 * n

    def test_deterministic(self):
        a = generate_cap(50, 0.1, seed=3)
        b = generate_cap(50, 0.1, seed=3)
        np.testing.assert_array_equal(a.vertices, b.vertices)
        np.testing.assert_array_equal(a.triangles, b.triangles)

    def test_seeds_differ(self):
        a = generate_cap(50, 0.1, seed=3)
        b = generate_cap(50, 0.1, seed=4)
        assert not np.array_equal(a.vertices, b.vertices)

    def test_sphere_lift(self):
        cap = generate_cap(60, 5 * DEG, seed=0, lift="sphere")
        assert validate_cap(cap) == []
        m = compute_metrics(cap)
        assert m.phi_actual == pytest.approx(5 * DEG, rel=1e-9)

    def test_bad_phi_rejected(self):
        with pytest.raises(ValueError):
            generate_cap(50, 0.0)
        with pytest.raises(ValueError):
            generate_cap(50, math.pi / 2)

    def test_strict_acute_mode(self):
        cap = generate_cap(30, 5 * DEG, seed=0, angle_mode="strict_acute")
        assert validate_cap(cap, angle_mode="strict_acute") == []


class TestBudgetCap:
    @pytest.mark.parametrize("seed", range(5))
    def test_within_budget(self, seed):
        cap = generate_budget_cap(80, seed=seed)
        assert validate_cap(cap) == []
        m = compute_metrics(cap)
        assert 0 < m.phi_actual <= phi_budget(m.alpha_planar)

    def test_unknown_keyword_rejected(self):
        with pytest.raises(TypeError):
            generate_budget_cap(60, jiter=0.9)

    def test_safety_scales_tilt(self):
        shallow = compute_metrics(generate_budget_cap(80, seed=1, safety=0.5))
        steep = compute_metrics(generate_budget_cap(80, seed=1, safety=0.9))
        assert shallow.phi_actual < steep.phi_actual

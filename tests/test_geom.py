"""Unit tests for the scalar geometry layer.

Expected values are either asserted directly (trivial identities), verified
against the published closed forms, or frozen from an independent numeric
oracle (the tilted-plane sweep in sweep_projection_distortion).
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from capunfold.geom import (
    Wedge,
    corner_angles,
    delta_perp,
    normalize_angle,
    omega_bound,
    phi_budget,
    points_close,
    turn_angle,
    unwrap_directions,
)
from capunfold.forest import _in_wedge

from fixtures import wedge_contains

DEG = math.pi / 180.0


def project_angle(u, v) -> float:
    """Angle between the xy-projections of two 3D vectors."""
    u = np.asarray(u, dtype=float)[:2]
    v = np.asarray(v, dtype=float)[:2]
    return math.atan2(abs(u[0] * v[1] - u[1] * v[0]), float(np.dot(u, v)))


def tilted_angle(phi: float, alpha: float, theta: float) -> float:
    """Oracle: projected image of an angle alpha drawn on a plane tilted phi.

    The plane normal is tilted phi from z; the angle's first ray sits at
    in-plane position -theta and the second at alpha - theta, so theta =
    alpha/2 makes the pair symmetric about the tilt axis.
    """
    e1 = np.array([math.cos(phi), 0.0, -math.sin(phi)])
    e2 = np.array([0.0, 1.0, 0.0])

    def ray(t):
        return math.cos(t) * e1 + math.sin(t) * e2

    return project_angle(ray(-theta), ray(alpha - theta))


def sweep_projection_distortion(phi: float, n_alpha: int = 90, n_theta: int = 180):
    """Vectorized sweep of |alpha' - alpha| over a grid of (alpha, theta)."""
    alphas = np.linspace(1.0, 90.0, n_alpha) * DEG
    thetas = np.linspace(0.0, 180.0, n_theta, endpoint=False) * DEG
    A, T = np.meshgrid(alphas, thetas, indexing="ij")
    e1 = np.array([math.cos(phi), 0.0, -math.sin(phi)])
    e2 = np.array([0.0, 1.0, 0.0])

    def rays(t):
        return np.multiply.outer(np.cos(t), e1) + np.multiply.outer(np.sin(t), e2)

    u = rays(-T)[..., :2]
    v = rays(A - T)[..., :2]
    cross = np.abs(u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0])
    dot = np.einsum("...k,...k->...", u, v)
    proj = np.arctan2(cross, dot)
    return alphas, thetas, np.abs(proj - A)


class TestTurnAngle:
    def test_straight_is_zero(self):
        assert turn_angle([0, 0], [1, 0], [2, 0]) == pytest.approx(0.0, abs=1e-15)

    def test_left_right_quarter_turns(self):
        assert turn_angle([0, 0], [1, 0], [1, 1]) == pytest.approx(math.pi / 2)
        assert turn_angle([0, 0], [1, 0], [1, -1]) == pytest.approx(-math.pi / 2)

    def test_reversal_is_pi(self):
        assert abs(turn_angle([0, 0], [1, 0], [0, 0])) == pytest.approx(math.pi)

    @given(st.floats(-math.pi + 1e-6, math.pi - 1e-6))
    def test_matches_constructed_heading(self, tau):
        b = np.array([1.0, 0.0])
        c = b + np.array([math.cos(tau), math.sin(tau)])
        assert turn_angle([0, 0], b, c) == pytest.approx(tau, abs=1e-12)

    def test_regular_polygon_turns_sum_to_two_pi(self):
        for n in (3, 5, 8):
            pts = [np.array([math.cos(2 * math.pi * k / n), math.sin(2 * math.pi * k / n)]) for k in range(n)]
            total = sum(turn_angle(pts[i - 1], pts[i], pts[(i + 1) % n]) for i in range(n))
            assert total == pytest.approx(2 * math.pi)


class TestDeltaPerp:
    def test_published_table(self):
        # Published values 0.9 / 3.6 / 8.2 degrees at 10 / 20 / 30 degrees of tilt.
        assert delta_perp(10 * DEG) / DEG == pytest.approx(0.9, abs=0.05)
        assert delta_perp(20 * DEG) / DEG == pytest.approx(3.6, abs=0.05)
        assert delta_perp(30 * DEG) / DEG == pytest.approx(8.2, abs=0.05)

    def test_small_angle_series(self):
        # delta_perp(phi) = phi^2/2 + phi^4/12 + O(phi^6).
        for deg in (1.0, 2.0, 5.0):
            phi = deg * DEG
            series = phi**2 / 2 + phi**4 / 12
            assert delta_perp(phi) == pytest.approx(series, abs=1e-6)

    def test_zero_and_domain(self):
        assert delta_perp(0.0) == 0.0
        with pytest.raises(ValueError):
            delta_perp(math.pi / 2)
        with pytest.raises(ValueError):
            delta_perp(-0.1)

    def test_monotone_in_phi(self):
        phis = np.linspace(0, 80, 50) * DEG
        vals = [delta_perp(p) for p in phis]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_is_the_sweep_maximum_at_small_tilt(self):
        # [DERIVED] For small tilts (the regime the cutting algorithm operates
        # in: phi at most ~6deg), the 1-degree-grid sweep maximum sits exactly
        # at theta = alpha/2, alpha = 90deg, and equals delta_perp(phi).
        for phi_deg in (2.0, 5.0, 10.0):
            phi = phi_deg * DEG
            alphas, thetas, dist = sweep_projection_distortion(phi)
            bound = delta_perp(phi)
            assert dist.max() <= bound + 1e-12
            ia, it = np.unravel_index(np.argmax(dist), dist.shape)
            assert alphas[ia] == pytest.approx(math.pi / 2, abs=1e-9)
            assert thetas[it] == pytest.approx(alphas[ia] / 2, abs=1.01 * DEG)
            assert dist.max() == pytest.approx(bound, rel=1e-9)

    def test_large_tilt_maximum_drifts_interior(self):
        # [DERIVED] At larger tilts the bisected-angle distortion peaks
        # slightly below alpha = 90deg: the exact maximizer satisfies
        # cos^2(alpha/2) = 1 / (1 + cos phi), so delta_perp is exceeded by a
        # small margin (about 0.02deg at phi = 30deg).
        for phi_deg, argmax_deg in ((20.0, 88.0), (30.0, 86.0)):
            phi = phi_deg * DEG
            alphas, thetas, dist = sweep_projection_distortion(phi)
            ia, it = np.unravel_index(np.argmax(dist), dist.shape)
            assert alphas[ia] == pytest.approx(argmax_deg * DEG, abs=1e-9)
            a_star = 2 * math.acos(math.sqrt(1.0 / (1.0 + math.cos(phi))))
            assert alphas[ia] == pytest.approx(a_star, abs=1.01 * DEG)
            excess = dist.max() - delta_perp(phi)
            assert 0.0 < excess < 0.1 * DEG

    def test_figure_configuration(self):
        # Published figure: phi=30deg, alpha=70deg, bisected -> alpha' ~ 78deg.
        got = tilted_angle(30 * DEG, 70 * DEG, 35 * DEG)
        assert got / DEG == pytest.approx(78.0, abs=0.5)
        assert got >= 70 * DEG  # obtuse-ward distortion


class TestProjectAngle:
    def test_planar_vectors_unchanged(self):
        assert project_angle([1, 0, 0], [0, 1, 0]) == pytest.approx(math.pi / 2)

    def test_vertical_component_ignored(self):
        assert project_angle([1, 0, 5], [0, 2, -3]) == pytest.approx(math.pi / 2)

    def test_distortion_bounded_by_delta_perp(self):
        # delta_perp is exact at small tilt.  At large tilt the supremum sits
        # at the interior maximizer cos^2(a/2) = 1/(1 + cos phi); use its
        # closed-form value as the sharp bound there.
        rng = np.random.default_rng(7)
        for _ in range(200):
            phi = rng.uniform(0, 60 * DEG)
            a = rng.uniform(5 * DEG, 90 * DEG)
            t = rng.uniform(0, math.pi)
            a_star = 2 * math.acos(math.sqrt(1.0 / (1.0 + math.cos(phi))))
            sharp = 2 * math.atan(math.tan(a_star / 2) / math.cos(phi)) - a_star
            bound = max(delta_perp(phi), sharp)
            assert abs(tilted_angle(phi, a, t) - a) <= bound + 1e-9


class TestBudgets:
    def test_omega_bound_values(self):
        assert omega_bound(0.0) == 0.0
        # Published: the pentagonal-pyramid tilt (37.377deg) gives a 73.9deg
        # curvature bound.
        assert omega_bound(37.377 * DEG) / DEG == pytest.approx(73.9, abs=0.1)
        assert omega_bound(math.pi) == pytest.approx(4 * math.pi)

    def test_omega_bound_small_angle(self):
        for phi in (0.01, 0.05, 0.1):
            assert omega_bound(phi) == pytest.approx(math.pi * phi**2, rel=1e-3)

    def test_phi_budget_values(self):
        # Published: alpha = 4deg gives Phi ~ 5.4deg.
        assert phi_budget(4 * DEG) / DEG == pytest.approx(5.4, abs=0.05)
        # Exact value at 3deg (the abstract's "~5deg" rounds 4.70 up).
        assert phi_budget(3 * DEG) / DEG == pytest.approx(4.6994, abs=1e-3)

    def test_phi_budget_closes_the_loop(self):
        # The budget is exactly the tilt at which the quadratic model of
        # 3*delta_perp + 2*omega_bound spends the whole gap alpha.
        for alpha_deg in (1.0, 3.0, 8.0):
            alpha = alpha_deg * DEG
            phi = phi_budget(alpha)
            spent = (2 * math.pi + 1.5) * phi**2
            assert spent == pytest.approx(alpha, rel=1e-12)
            exact = 3 * delta_perp(phi) + 2 * omega_bound(phi)
            assert exact == pytest.approx(alpha, rel=5e-3)


def contains(wedge, direction):
    """The scalar wedge rule, checked against the forest successor
    kernel's array rule on the same direction."""
    want = wedge_contains(wedge, direction)
    assert bool(_in_wedge(wedge, np.array([direction]))[0]) == want
    return want


class TestWedge:
    def test_contains_basics(self):
        w = Wedge(base=0.0, width=math.pi / 2)
        assert contains(w, 0.0)
        assert contains(w, math.pi / 4)
        assert contains(w, math.pi / 2)
        assert not contains(w, math.pi / 2 + 1e-6)
        assert not contains(w, -1e-6 - 1e-9)

    def test_contains_wraps(self):
        w = Wedge(base=7 * math.pi / 4, width=math.pi / 2)
        assert contains(w, 0.0)
        assert contains(w, 2 * math.pi)
        assert contains(w, math.pi / 8)
        assert not contains(w, math.pi / 2)

    def test_eps_slack(self):
        w = Wedge(base=0.0, width=1.0)
        assert contains(w, 1.0 + 1e-12)
        assert wedge_contains(w, 1.0 + 0.5, slack=0.5)

    @given(st.floats(-10, 10), st.floats(0.1, 6.0), st.floats(0, 1))
    def test_interior_sample_always_contained(self, base, width, frac):
        width = min(width, 2 * math.pi - 1e-9)
        w = Wedge(base=base, width=width)
        assert contains(w, base + frac * width)

    def test_degenerate_ray(self):
        w = Wedge(base=1.0, width=0.0)
        assert contains(w, 1.0)
        assert not contains(w, 1.1)


def test_wedge_array_rule_matches_scalar_rule():
    # every direction, also within an ulp of both wedge ends and their wraps
    for base, width in ((0.3, 1.5), (-2.9, 1.52), (5.9, 0.01)):
        w = Wedge(base=base, width=width)
        ends = [base + k * 2 * math.pi + e + s * 1e-9 for k in (-1, 0, 1)
                for e in (0.0, width) for s in (-1, 0, 1)]
        ang = np.concatenate([np.linspace(-8, 8, 4001), ends,
                              np.nextafter(ends, np.inf),
                              np.nextafter(ends, -np.inf)])
        got = _in_wedge(w, ang)
        assert got.tolist() == [wedge_contains(w, a) for a in ang.tolist()]


class TestHelpers:
    def test_normalize_angle_range(self):
        for t in np.linspace(-20, 20, 401):
            n = normalize_angle(t)
            assert -math.pi < n <= math.pi + 1e-15
            assert math.cos(n) == pytest.approx(math.cos(t), abs=1e-12)
            assert math.sin(n) == pytest.approx(math.sin(t), abs=1e-12)

    def test_unwrap_directions_is_normalize_angle_bit_for_bit(self):
        rng = np.random.default_rng(5)
        ang = np.r_[rng.uniform(-7, 7, 500), math.pi, -math.pi, 0.0,
                    2 * math.pi, 3 * math.pi, -3 * math.pi]
        for first in (0.0, 1.0, math.pi, -math.pi, 2.5):
            a = np.r_[first, ang]
            want = [normalize_angle(x - a[0]) for x in a]
            assert unwrap_directions(a).tolist() == want
            assert unwrap_directions(a.tolist()).tolist() == want

    def test_signed_turn_antisymmetry(self):
        # a polyline walked backwards turns the other way
        a, b, c = [0.0, 0.0], [1.0, 0.2], [0.7, 1.1]
        assert turn_angle(c, b, a) == pytest.approx(-turn_angle(a, b, c))


class TestCornerAngles:
    def test_right_isosceles_2d(self):
        tri = [[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]]
        assert np.allclose(corner_angles(tri),
                           [[math.pi / 2, math.pi / 4, math.pi / 4]],
                           atol=1e-15)

    def test_equilateral_3d(self):
        tri = [[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]]
        ang = corner_angles(tri)
        assert ang.shape == (1, 3)
        assert np.allclose(ang, math.pi / 3, atol=1e-15)


class TestPointsClose:
    @pytest.mark.parametrize("atol", [1e-12, 1e-8])
    def test_matches_numpy_allclose(self, atol):
        rng = np.random.default_rng(2)
        q = rng.uniform(-3, 3, (4000, 2)) * 10.0 ** rng.integers(-9, 4, (4000, 1))
        tol = atol + 1e-5 * np.abs(q)
        p = q + tol * rng.choice([0.0, 0.5, 0.999999, 1.0, 1.000001, 3.0], (4000, 2)) \
            * rng.choice([-1.0, 1.0], (4000, 2))
        for a, b in zip(p, q):
            assert points_close(a, b, atol=atol) == np.allclose(a, b, atol=atol)
            assert points_close(tuple(a), tuple(b), atol=atol) == np.allclose(a, b, atol=atol)

"""Adaptive integrator: exactness, determinism, truncation logic."""

import math

import numpy as np
import pytest

from actconv import (
    KernelParams,
    QuadratureConfig,
    TailEnvelope,
    integrate_interval,
    integrate_real_line,
    psi,
    truncation_radius,
)
from actconv import quadrature
from actconv.quadrature import (
    G7_WEIGHTS,
    GK15_NODES,
    GK15_WEIGHTS,
    moment_truncation_radius,
)


class TestRuleTables:
    def test_weights_normalized(self):
        assert math.fsum(GK15_WEIGHTS) == pytest.approx(2.0, abs=1e-15)
        assert math.fsum(G7_WEIGHTS) == pytest.approx(2.0, abs=1e-15)

    def test_nodes_symmetric_ascending(self):
        assert np.all(np.diff(GK15_NODES) > 0)
        np.testing.assert_allclose(GK15_NODES, -GK15_NODES[::-1], atol=0)


class TestQuadratureConfig:
    def test_validation(self):
        for tol in (0.0, -1e-10, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite real > 0"):
                QuadratureConfig(tol)

    def test_derived_values(self):
        cfg = QuadratureConfig(1e-13)
        assert cfg.truncation_eps == 1e-15
        assert cfg.allowance(0.5) == cfg.allowance(-1.0) == 1e-13
        assert cfg.allowance(-4.0) == 4e-13
        # the radius of an integrand of size s < 1 is that of size 1
        p = KernelParams(2.0, 0.5)
        assert cfg.radius(p, 1e-3) == cfg.radius(p, 1.0) == truncation_radius(p, 1e-15)
        assert cfg.radius(p, 10.0) == truncation_radius(p, 1e-16)
        # a window radius exists at any finite tol
        assert QuadratureConfig(1e3).truncation_eps == 0.5
        assert QuadratureConfig(5e-324).truncation_eps == 1e-300


class TestIntegrateInterval:
    def test_constant(self):
        res = integrate_interval(lambda x: np.ones_like(x), 0.0, 1.0)
        assert res.value == pytest.approx(1.0, abs=0)
        assert res.converged

    def test_odd_function(self):
        res = integrate_interval(lambda x: x, -2.5, 2.5)
        assert abs(res.value) < 1e-10

    @pytest.mark.parametrize("degree", range(11))
    def test_polynomial_exactness_single_panel(self, degree):
        """The nested rule is exact on low-degree monomials without splitting."""
        res = integrate_interval(lambda x, d=degree: x**d, 0.0, 2.0)
        exact = 2.0 ** (degree + 1) / (degree + 1)
        assert res.subdivisions_used == 0
        assert res.value == pytest.approx(exact, rel=1e-14)

    def test_psi_window(self):
        p = KernelParams(1.0, 1.0)
        res = integrate_interval(lambda h: psi(p, h), -30.0, 30.0)
        assert abs(res.value - 1.0) < 1e-10

    def test_kinked_integrand(self):
        res = integrate_interval(np.abs, -1.0, 2.0)
        assert res.value == pytest.approx(2.5, abs=1e-12)

    def test_non_convergence_flagged(self, monkeypatch):
        monkeypatch.setattr(quadrature, "MAX_SUBDIVISIONS", 2)
        res = integrate_interval(lambda x: np.sin(50.0 * x * x), 0.0, 10.0)
        assert not res.converged
        assert res.subdivisions_used <= 2

    def test_non_finite_panel_not_bisected(self):
        """Bisection cannot repair a NaN sample: the panel is kept, and the
        result is NaN and flagged, long before the subdivision cap."""
        res = integrate_interval(lambda x: np.where(x > 0.9, np.nan, np.sin(x)), 0.0, 1.0)
        assert not res.converged
        assert math.isnan(res.value)
        assert res.subdivisions_used < 10

    def test_determinism(self):
        p = KernelParams(2.0, 0.5)
        a = integrate_interval(lambda h: psi(p, h) * np.cos(h), -20.0, 20.0)
        b = integrate_interval(lambda h: psi(p, h) * np.cos(h), -20.0, 20.0)
        assert a == b

    def test_limit_validation(self):
        with pytest.raises(ValueError):
            integrate_interval(lambda x: x, 1.0, 0.0)
        with pytest.raises(ValueError):
            integrate_interval(lambda x: x, 0.0, math.inf)

    def test_empty_interval(self):
        res = integrate_interval(lambda x: x, 1.0, 1.0)
        assert res.value == 0.0 and res.subdivisions_used == 0


class TestTruncationRadius:
    def test_inverts_tail_bound(self):
        # eps = 2 e^{-2} at q = 1, beta = 1 gives radius exactly 3
        p = KernelParams(1.0, 1.0)
        assert truncation_radius(p, 2.0 * math.exp(-2.0)) == pytest.approx(3.0, abs=1e-14)

    def test_frozen_value(self):
        assert truncation_radius(KernelParams(1.0, 1.0), 1e-12) == pytest.approx(
            29.324168296488494, abs=1e-12
        )

    def test_clamps_to_one(self):
        assert truncation_radius(KernelParams(1.0, 100.0), 0.9) >= 1.0

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            truncation_radius(KernelParams(1.0, 1.0), 0.0)
        with pytest.raises(ValueError):
            truncation_radius(KernelParams(1.0, 1.0), 1.0)

    @pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-10])
    def test_tail_below_eps(self, eps):
        p = KernelParams(2.0, 1.0)
        radius = truncation_radius(p, eps)
        outer = moment_truncation_radius(p, 0, min(eps * 1e-4, 1e-12))
        tail = 2.0 * integrate_interval(lambda h: psi(p, h), radius, max(outer, radius + 1), ).value
        assert tail <= eps

    def test_window_monotonicity(self):
        # pushing the window beyond the truncation radius moves the integral
        # by less than the allowed tail mass
        p = KernelParams(1.0, 1.0)
        radius = truncation_radius(p, 1e-12)
        a = integrate_interval(lambda h: psi(p, h), -radius, radius).value
        b = integrate_interval(lambda h: psi(p, h), -radius - 5.0, radius + 5.0).value
        assert abs(b - a) < 1e-12


class TestIntegrateRealLine:
    def test_psi_normalization(self, p11):
        res = integrate_real_line(lambda h: psi(p11, h), TailEnvelope(p11))
        assert abs(res.value - 1.0) < 1e-10
        assert res.error_estimate >= 1e-12  # includes the truncation allowance

    def test_odd_kernel_moment(self, p11):
        res = integrate_real_line(lambda h: h * psi(p11, h), TailEnvelope(p11, 30.0))
        assert abs(res.value) < 1e-10

    def test_first_absolute_moment_under_bound(self, p11):
        res = integrate_real_line(lambda h: np.abs(h) * psi(p11, h), TailEnvelope(p11, 30.0))
        assert res.value <= 5.667622235548095

"""Adaptive integrator: exactness, determinism, truncation logic."""

import math

import mpmath as mp
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

from _oracles import psi_mass_mp, tiled_width

# a 16 x 16 log grid of (q, beta) over the benchmark's range of normalization
# draws, and the corners of KernelParams past it
_MASS_GRID = [(q, beta) for q in np.geomspace(1e-6, 1e6, 16).tolist() for beta in np.geomspace(0.05, 20.0, 16).tolist()]
_MASS_EDGES = [(1e300, 700.0), (1.0, 700.0), (1.0, 1e-9), (1e6, 0.05)]


def _spy(f, sizes):
    """f, recording the size of every argument it is called with."""

    def spied(x):
        sizes.append(x.size)
        return f(x)

    return spied


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

    @pytest.mark.parametrize("f", [lambda h: psi(KernelParams(2.0, 0.5), h),
                                   lambda h: h**3 * psi(KernelParams(2.0, 0.5), h), np.sin],
                             ids=["psi", "h3-psi", "sin"])
    @pytest.mark.parametrize("breaks", [(), (-25.0, 20.0, 30.0), (-20.0, -20.0, 20.0, math.nan)])
    def test_breaks_outside_keep_the_bits(self, f, breaks):
        """Breaks at or outside the ends of (a, b) seed no panel: the result
        is the no-break call's, field by field."""
        assert integrate_interval(f, -20.0, 20.0, breaks=breaks) == integrate_interval(f, -20.0, 20.0)

    def test_break_at_the_kink(self):
        """|t - 0.3| is linear on each side of its kink, so panels seeded at
        the kink are exact without a split; bisection needs at least 20."""
        f = lambda t: np.abs(t - 0.3)
        cut = integrate_interval(f, -1.0, 2.0, breaks=(0.3,))
        assert cut.subdivisions_used == 0
        assert cut.value == pytest.approx(2.29, abs=1e-15)
        assert integrate_interval(f, -1.0, 2.0).subdivisions_used >= 20

    @pytest.mark.parametrize("f, a, b, breaks", [
        (np.cos, -3.0, 3.0, (0.5,)),
        (np.cos, -3.0, 3.0, (-1.5, 0.25, 2.0, 9.0)),
        (np.exp, -1.0, 2.0, tuple(np.linspace(-0.9, 1.9, 29).tolist())),
        (lambda h: psi(KernelParams(2.0, 0.5), h), -20.0, 20.0, (-4.0, 0.0, 4.0)),
        (lambda h: h**3 * psi(KernelParams(1e-3, 3.0), h), -20.0, 20.0, (-2.0, 1.0)),
    ], ids=["one-break", "three-breaks", "thirty-panels", "psi-splits", "h3-psi-splits"])
    def test_seeds_are_one_call(self, f, a, b, breaks):
        """The seed panels are evaluated in one call on their 15 nodes each,
        every later call is one panel's 15; with no split the value is, bit
        for bit, the left-to-right sum of one-panel calls on the pieces."""
        sizes = []
        res = integrate_interval(_spy(f, sizes), a, b, breaks=breaks)
        edges = [a, *(t for t in breaks if a < t < b), b]
        assert sizes == [15 * (len(edges) - 1)] + [15] * (2 * res.subdivisions_used)
        if res.subdivisions_used == 0:
            value = 0.0
            for lo, hi in zip(edges[:-1], edges[1:]):
                piece = integrate_interval(f, lo, hi)
                assert piece.subdivisions_used == 0
                value += piece.value
            assert res.value == value

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

    @pytest.mark.parametrize("q", [1e-300, 1e300, 1.7e308])
    def test_extreme_q_is_finite(self, q):
        """(q + 1/q) / eps overflows for q or 1/q above about 1e296; the
        logarithms are then taken apart.  KernelParams accepts any finite q."""
        p = KernelParams(q, 1.0)
        eps = 1e-12
        assert truncation_radius(p, eps) == pytest.approx(1.0 + math.log(p.q_sum) - math.log(eps), rel=1e-15)
        assert math.isfinite(QuadratureConfig().radius(p, 1.0))
        for k in (1, 3, 170):
            assert math.isfinite(moment_truncation_radius(p, k, eps))
        assert moment_truncation_radius(p, 3, eps) == pytest.approx(
            2.0 * (math.log(p.q_sum) + 1.0 + 4.0 * math.log(2.0) + math.log(6.0) - math.log(eps)), rel=1e-14
        )

    def test_finite_quotients_keep_their_bits(self):
        for q, beta in [(1.0, 1.0), (2.0, 0.5), (1e-6, 20.0), (1e-290, 1.0)]:
            p = KernelParams(q, beta)
            assert truncation_radius(p, 1e-12) == max(1.0, 1.0 + math.log(p.q_sum / 1e-12) / beta)
            arg = p.q_sum * math.exp(beta) * 2.0**4 * 6.0 / (beta**3 * 1e-13)
            radius = max(truncation_radius(p, 1e-13), (2.0 / beta) * math.log(max(arg, 2.0)))
            assert moment_truncation_radius(p, 3, 1e-13) == radius

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

    @pytest.mark.parametrize("q, beta", _MASS_GRID + _MASS_EDGES)
    def test_psi_mass(self, q, beta):
        """Converged and within 2 tol of psi's closed-form mass on [-R, R]."""
        params = KernelParams(q, beta)
        cfg = QuadratureConfig()
        res = integrate_real_line(lambda h: psi(params, h), TailEnvelope(params), cfg)
        with mp.workdps(50):
            mass = float(psi_mass_mp(q, beta, cfg.radius(params, 1.0)))
        assert res.converged
        assert abs(res.value - mass) <= 2.0 * cfg.tol

    def test_psi_mass_calls(self):
        """Seeded at psi's width, the grid's 256 integrals take 448
        integrand calls: most are resolved by their one seed call."""
        sizes = []
        for q, beta in _MASS_GRID:
            params = KernelParams(q, beta)
            integrate_real_line(_spy(lambda h, p=params: psi(p, h), sizes), TailEnvelope(params))
        assert len(sizes) == 448

    @pytest.mark.parametrize("q, beta, width", [
        (1.0, 1.0, 2.0), (2.0, 0.5, 4.0), (1e-6, 20.0, 1 / 8), (1.0, 1e-9, 2.0**30),
        # psi's width is 1/256, widened until [-R, R] (R = 2.03 and 1.04)
        # takes at most 128 panels
        (1e300, 700.0, 1 / 16), (1.0, 700.0, 1 / 32),
    ])
    def test_seed_width(self, q, beta, width):
        """The seeds of ``integrate_real_line`` over [-R, R]: the multiples
        of W inside it."""
        params = KernelParams(q, beta)
        radius = QuadratureConfig().radius(params, 1.0)
        count = math.ceil(radius / width)
        assert quadrature.kernel_breaks(params, -radius, radius) == [k * width for k in range(1 - count, count)]

    def test_width_follows_the_tiling(self):
        """The closed-form width from psi's strip against GK15 tilings of
        psi over beta in [0.05, 20], eight q, sup |f| in {1, 3} and tol
        from 1e-6 to 1e-14: the same W in at least 95% of the cases (3,803
        of 3,936), else half or twice it, and never wider at the default
        tol."""
        counts = {}
        for tol in (1e-6, 1e-8, 1e-10, 1e-12, 1e-13, 1e-14):
            cfg = QuadratureConfig(tol)
            for beta in np.geomspace(0.05, 20.0, 41).tolist():
                for q in (1e-6, 1e-3, 0.5, 1.0, 2.0, 31.6, 1e3, 1e6):
                    for size in (1.0, 3.0):
                        params = KernelParams(q, beta)
                        ratio = cfg.width(params, size) / tiled_width(params, cfg.radius(params, size) + 1.0, tol, size)
                        assert ratio in (0.5, 1.0, 2.0) and not (tol == 1e-10 and ratio > 1.0), (q, beta, size, tol)
                        counts[ratio] = counts.get(ratio, 0) + 1
        assert counts[1.0] >= 0.95 * sum(counts.values())

    def test_odd_kernel_moment(self, p11):
        res = integrate_real_line(lambda h: h * psi(p11, h), TailEnvelope(p11, 30.0))
        assert abs(res.value) < 1e-10

    def test_first_absolute_moment_under_bound(self, p11):
        res = integrate_real_line(lambda h: np.abs(h) * psi(p11, h), TailEnvelope(p11, 30.0))
        assert res.value <= 5.667622235548095

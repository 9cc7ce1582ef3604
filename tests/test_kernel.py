"""Kernel evaluators and their analytic constants.

Expected values marked "frozen" were computed independently with mpmath at
50 digits from the raw formulas (see the derived constants in docstrings),
not with the code under test.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actconv import (
    HypothesisNotMetError,
    KernelParams,
    QuadratureConfig,
    TailEnvelope,
    g,
    integrate_interval,
    integrate_real_line,
    moment_bound,
    nu,
    psi,
    psi_envelope,
    tail_mass_bound,
    truncation_radius,
)
from actconv.kernel import MAX_BETA, fermi_dirac, psi_average, psi_moments, upper_moment
from actconv.quadrature import moment_truncation_radius

from _oracles import (
    exponentials_normal,
    g_expr,
    g_mp,
    psi_average_expr,
    psi_average_mp,
    psi_expr,
    psi_mp,
    psi_raw_moments_mp,
)
from conftest import PARAM_GRID


class TestKernelParams:
    def test_rejects_nonpositive(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                KernelParams(bad, 1.0)
            with pytest.raises(ValueError):
                KernelParams(1.0, bad)

    def test_beta_limit(self):
        """psi_average and the wide form of g are built on e^-beta, a
        normal double up to beta = 708; the message names the limit."""
        assert KernelParams(3.0, MAX_BETA).beta == 700.0
        with pytest.raises(ValueError, match="at most 700"):
            KernelParams(1.0, np.nextafter(MAX_BETA, math.inf))
        with pytest.raises(ValueError, match="at most 700"):
            KernelParams(1.0, 800.0)

    def test_q_sum_floor(self):
        assert KernelParams(1.0, 1.0).q_sum == 2.0
        for q in (0.1, 0.5, 2.0, 7.3):
            assert KernelParams(q, 1.0).q_sum > 2.0

    def test_g_max_value_range(self):
        for p in PARAM_GRID:
            assert 0.0 < p.g_max_value < 0.5


class TestNu:
    def test_center_values(self):
        # nu(0) = (1 - q) / (1 + q)
        assert nu(KernelParams(3.0, 1.0), 0.0) == pytest.approx(-0.5, abs=1e-15)
        assert nu(KernelParams(1.0, 2.0), 0.0) == 0.0

    def test_saturation(self):
        assert abs(nu(KernelParams(2.0, 1.0), 50.0) - 1.0) < 1e-15
        assert abs(nu(KernelParams(2.0, 1.0), -50.0) + 1.0) < 1e-15

    def test_no_overflow_far_out(self):
        vals = nu(KernelParams(2.0, 1.0), np.array([-800.0, 800.0]))
        assert np.all(np.isfinite(vals))
        np.testing.assert_allclose(vals, [-1.0, 1.0], atol=1e-15)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            nu(KernelParams(1.0, 1.0), math.nan)
        with pytest.raises(ValueError):
            g(KernelParams(1.0, 1.0), math.inf)
        with pytest.raises(ValueError):
            psi(KernelParams(1.0, 1.0), np.array([0.0, math.nan]))

    @given(st.floats(-40.0, 40.0), st.floats(0.05, 20.0), st.floats(0.05, 5.0))
    @settings(max_examples=150, deadline=None)
    def test_reflection(self, x, q, beta):
        """nu_q(-x) = -nu_{1/q}(x)."""
        lhs = nu(KernelParams(q, beta), -x)
        rhs = -nu(KernelParams(1.0 / q, beta), x)
        assert lhs == pytest.approx(rhs, abs=1e-14)


class TestG:
    def test_peak_value_frozen(self):
        # global maximum at ln(q)/beta; frozen 50-digit value
        p = KernelParams(2.0, 1.0)
        assert g(p, math.log(2.0)) == pytest.approx(0.23105857863000488, abs=1e-16)
        assert p.g_max_value == pytest.approx(0.23105857863000488, abs=1e-16)

    def test_q_one_even(self):
        p = KernelParams(1.0, 1.0)
        assert g(p, 1.3) == g(p, -1.3)

    def test_deformed_symmetry_bit_exact(self):
        # the negative axis evaluates through the q -> 1/q reflection
        assert g(KernelParams(2.0, 1.0), -1.3) == g(KernelParams(0.5, 1.0), 1.3)

    @given(st.floats(-50.0, 50.0), st.floats(0.02, 50.0), st.floats(0.05, 5.0))
    @settings(max_examples=150, deadline=None)
    def test_deformed_symmetry_property(self, x, q, beta):
        lhs = g(KernelParams(q, beta), -x)
        rhs = g(KernelParams(1.0 / q, beta), x)
        assert lhs == pytest.approx(rhs, rel=1e-14, abs=5e-324)

    def test_strictly_positive(self):
        xs = np.linspace(-700.0, 700.0, 4001)
        for p in (KernelParams(1.0, 1.0), KernelParams(2.0, 0.5)):
            assert np.all(g(p, xs) > 0.0)

    def test_peak_location(self):
        """The root of g', found from 0 on g written out from nu at 50 digits."""
        for p in (KernelParams(2.0, 1.0), KernelParams(0.5, 2.0), KernelParams(1e3, 20.0), KernelParams(1.0, 1.0)):
            with mp.workdps(50):
                q, beta = mp.mpf(p.q), mp.mpf(p.beta)
                found = mp.findroot(lambda x: mp.diff(lambda t: g_mp(q, beta, t), x), 0)
            assert abs(float(found) - p.g_argmax) < 1e-6
            assert abs(g(p, p.g_argmax) - p.g_max_value) < 1e-10


class TestPsi:
    def test_even_bit_exact(self):
        p = KernelParams(2.0, 1.0)
        assert psi(p, 1.7) == psi(p, -1.7)
        rng = np.random.default_rng(42)
        xs = rng.uniform(-50.0, 50.0, size=10_000)
        np.testing.assert_array_equal(psi(p, xs), psi(p, -xs))

    def test_q_one_collapses_to_g(self):
        p = KernelParams(1.0, 1.0)
        xs = np.linspace(-10.0, 10.0, 201)
        np.testing.assert_allclose(psi(p, xs), g(p, xs), rtol=1e-15, atol=0)

    def test_even_average_of_g_bit_exact(self):
        """psi shares one exponential between g_q and g_{1/q} without
        changing a bit of (g_q(|x|) + g_{1/q}(|x|)) / 2."""
        rng = np.random.default_rng(7)
        xs = np.concatenate(([0.0], rng.uniform(-60.0, 60.0, size=5_000)))
        qs = 10.0 ** rng.uniform(-6.0, 6.0, 40)
        betas = 10.0 ** rng.uniform(math.log10(0.05), math.log10(20.0), 40)
        for q, beta in zip(qs, betas):
            p = KernelParams(q, beta)
            expected = 0.5 * (g(p, np.abs(xs)) + g(KernelParams(1.0 / q, beta), np.abs(xs)))
            np.testing.assert_array_equal(psi(p, xs), expected)

    def test_center_value_frozen(self):
        # (g_2(0) + g_{1/2}(0)) / 2 at beta = 1, 50-digit oracle
        assert psi(KernelParams(2.0, 1.0), 0.0) == pytest.approx(0.21037724063443275, abs=1e-16)
        assert psi(KernelParams(2.0, 1.0), 1.3) == pytest.approx(0.16314213708610462, abs=1e-15)

    @pytest.mark.parametrize("p", PARAM_GRID, ids=lambda p: f"q{p.q}b{p.beta}")
    def test_normalization(self, p):
        res = integrate_real_line(lambda h: psi(p, h), TailEnvelope(p))
        assert res.converged
        assert abs(res.value - 1.0) < 1e-8


class TestWideParameters:
    """Where g's closed form in w = q e^(-beta t) could overflow (|ln q|
    above 350, or beta + |ln q| above 700), g and psi take a form in ln w;
    psi(q = 1e6, beta = 700) was nan at 0 before."""

    @pytest.mark.parametrize(
        "q, beta",
        [(1e6, 700.0), (3.0, 700.0), (1e100, 650.0), (1e200, 500.0), (1e300, 700.0), (1e300, 1.0), (1e-300, 0.01)],
    )
    def test_psi_matches_mpmath(self, q, beta):
        """Around both peaks and at 0, against the raw definition at 800
        digits; the form in ln w is within |ln w| ulp of it."""
        peak = abs(math.log(q)) / beta
        xs = np.array([0.0, 0.5, 0.999, 1.0, 1.001, peak - 3.0 / beta, peak, peak + 0.3, peak + 5.0 / beta])
        xs = np.concatenate((xs, -xs))
        got = psi(KernelParams(q, beta), xs)
        with mp.workdps(800):
            expected = np.array([float(psi_mp(mp.mpf(q), mp.mpf(beta), mp.mpf(x))) for x in xs])
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, expected, rtol=2e-13, atol=0)
        np.testing.assert_allclose(0.5 * (g(KernelParams(q, beta), xs) + g(KernelParams(q, beta), -xs)), got,
                                   rtol=1e-15, atol=0)

    def test_narrow_parameters_keep_their_bits(self):
        """Elsewhere psi is still w sinh(beta) / (1 + 2 w cosh(beta) + w^2)
        averaged over w = q e and e / q, bit for bit, wherever e and w are
        normal numbers.  Beyond that, at (1e-100, 400) from |x| = 1.78 on,
        psi takes its tails from ln w (``TestKernelTails``), where this
        form gave 0 though psi is still as large as 1e-51."""
        xs = np.linspace(-30.0, 30.0, 601)
        for q, beta in [(1.0, 1.0), (2.0, 0.5), (1e-6, 20.0), (1e150, 0.5), (1e-100, 400.0)]:
            params = KernelParams(q, beta)
            e = np.exp(-beta * np.abs(xs))
            expected = 0.5 * sum(w * math.sinh(beta) / (1.0 + 2.0 * math.cosh(beta) * w + w * w)
                                 for w in (q * e, (1.0 / q) * e))
            normal = exponentials_normal(params, xs)
            assert normal.all() or (q, beta) == (1e-100, 400.0)
            np.testing.assert_array_equal(psi(params, xs)[normal], expected[normal])

    def test_psi_average_at_the_limit(self):
        assert np.all(np.isfinite(psi_average(KernelParams(1e300, MAX_BETA), np.linspace(-3.0, 2.0, 51))))


class TestOnePassKernels:
    """psi, g and psi_average run their arithmetic in place, and psi (and
    psi_average) compute one deformation at q = 1, without changing a bit
    of the expressions as first written (``_oracles.psi_expr`` and
    friends, one temporary per operation)."""

    @pytest.mark.parametrize("beta", [0.05, 1.0, 20.0, 700.0])
    @pytest.mark.parametrize("q", [1.0, 3.0, 1e-6, 1e6])
    def test_bits_of_the_expressions(self, q, beta):
        """On +-0, both peaks and their edges, random points and the tails
        out to where the exponentials leave the normal range (the wide form
        at beta = 700, q != 1), all but the elements that take the tails
        from ln w; scalars too, and psi(x) == psi(-x) exactly."""
        params = KernelParams(q, beta)
        rng = np.random.default_rng(11)
        peak = abs(math.log(q)) / beta
        reach = 720.0 / beta + peak  # past the normal range of e^(-beta |x|)
        spots = np.array([0.0, 1.0, peak - 1.0, peak, peak + 1.0, reach])
        xs = np.concatenate(([0.0, -0.0], spots, -spots, rng.uniform(-3.0, 3.0, 300),
                             rng.uniform(-reach, reach, 600), np.linspace(-reach, reach, 301)))
        normal = exponentials_normal(params, xs)
        assert normal.sum() > 800 and (~normal).sum() > 10
        for name, kernel, expr in [("psi", psi, psi_expr), ("g", g, g_expr)]:
            np.testing.assert_array_equal(kernel(params, xs)[normal], expr(params, xs)[normal], err_msg=name)
        np.testing.assert_array_equal(psi_average(params, xs), psi_average_expr(params, xs))
        for x in xs[normal][::50]:
            one = np.array([x])
            assert psi(params, x) == psi_expr(params, one)[0]
            assert g(params, x) == g_expr(params, one)[0]
            assert psi_average(params, x) == psi_average_expr(params, one)[0]
        np.testing.assert_array_equal(psi(params, xs), psi(params, -xs))


class TestKernelTails:
    """Where e^(-beta |x|), c e^(-beta |x|) or (in the wide form)
    e^-|ln w| is below the normal range, psi and g take g from ln w, and
    stay normal numbers wherever g is one."""

    @pytest.mark.parametrize(
        "q, beta",
        [(3.0, 700.0), (1.0, 100.0), (1e-6, 20.0), (1e150, 20.0), (1e-100, 355.0), (1e300, 20.0)],
        ids=lambda v: f"{v:g}",
    )
    def test_matches_mpmath(self, q, beta):
        """Against the raw definition at 800 digits, across the tails of
        both deformations (psi(1.3) at (3, 700) is 5.2e-92, and at (1, 100)
        psi(7.5) is 2.6e-283; both used to be 0): within 3e-13 wherever the
        value is normal, the rounding of beta |x| (below 1500) in ulps."""
        params = KernelParams(q, beta)
        reach = 1450.0 / beta + abs(math.log(q)) / beta
        xs = np.concatenate((np.linspace(-reach, reach, 121), [1.3, 7.5, -7.5]))
        with mp.workdps(800):
            q_mp, beta_mp = mp.mpf(q), mp.mpf(beta)
            expected_psi = np.array([float(psi_mp(q_mp, beta_mp, mp.mpf(x))) for x in xs])
            expected_g = np.array([float(g_mp(q_mp, beta_mp, mp.mpf(x))) for x in xs])
        tails = ~exponentials_normal(params, xs)
        for got, expected in [(psi(params, xs), expected_psi), (g(params, xs), expected_g)]:
            normal = expected >= 2.0**-1022
            assert (normal & tails).sum() >= 3
            np.testing.assert_allclose(got[normal], expected[normal], rtol=3e-13, atol=0)


class TestPsiAverage:
    @pytest.mark.parametrize(
        "q, beta", [(1.0, 1.0), (2.0, 0.5), (1e-6, 0.05), (1e6, 20.0), (1e-3, 3.0)], ids=lambda v: f"{v:g}"
    )
    def test_matches_mpmath(self, q, beta):
        """The closed form against 30-digit quadrature of psi over [v, v + 1]
        across the whole window [-R - 1, R] (truncation_eps 1e-12): within
        1e-16 absolutely, and within 1e-13 relatively where the value is
        below 1e-3 of the peak."""
        params = KernelParams(q, beta)
        radius = truncation_radius(params, 1e-12)
        vs = np.concatenate((np.linspace(-radius - 1.0, radius, 17), np.linspace(-2.0, 1.0, 9)))
        with mp.workdps(30):
            expected = np.array([float(psi_average_mp(q, beta, v)) for v in vs])
        got = psi_average(params, vs)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-16)
        tails = expected < 1e-3 * expected.max()
        assert tails.sum() >= 6
        np.testing.assert_allclose(got[tails], expected[tails], rtol=1e-13, atol=0)

    @pytest.mark.parametrize("q, beta", [(1.0, 400.0), (3.0, 700.0)], ids=["q1b400", "q3b700"])
    def test_sharp_limit(self, q, beta):
        """At large beta psi is the box 1/2 on [-1, 1], and its average the
        trapezoid min(1, 3/2 - |v + 1/2|) / 2, away from the kinks at
        |v + 1/2| = 1/2 and 3/2; beyond beta = 350 the product of the two
        logarithms' arguments overflows near the peak."""
        s = np.concatenate((np.linspace(0.0, 0.4, 9), np.linspace(0.6, 1.4, 17), np.linspace(1.6, 3.0, 8)))
        vs = np.concatenate((s - 0.5, -s - 0.5))
        trapezoid = np.clip(1.5 - np.abs(vs + 0.5), 0.0, 1.0) / 2.0
        np.testing.assert_allclose(psi_average(KernelParams(q, beta), vs), trapezoid, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("p", PARAM_GRID, ids=lambda p: f"q{p.q}b{p.beta}")
    def test_unit_mass(self, p):
        radius = truncation_radius(p, 1e-14)
        res = integrate_interval(lambda v: psi_average(p, v), -radius - 1.0, radius)
        assert res.converged and abs(res.value - 1.0) < 1e-12

    def test_scalar_and_guard(self):
        p = KernelParams(2.0, 0.5)
        assert psi_average(p, 0.3) == psi_average(p, np.array([0.3]))[0]
        with pytest.raises(ValueError):
            psi_average(p, math.nan)


class TestPsiMoments:
    @pytest.mark.parametrize("q, beta", [(1.0, 1.0), (2.0, 0.5), (1e-3, 3.0)], ids=lambda v: f"{v:g}")
    def test_matches_mpmath(self, q, beta):
        """The closed form against 20-digit quadrature of h^j psi(h)."""
        got = psi_moments(KernelParams(q, beta), 8)
        expected = [float(m) for m in psi_raw_moments_mp(q, beta, 8)]
        np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0)
        assert got[1::2] == [0.0] * 4

    def test_validation(self, p11):
        assert psi_moments(p11, 0) == [1.0]
        with pytest.raises(ValueError):
            psi_moments(p11, -1)


def _fermi_dirac_mp(s, x, steps=()):
    """F_s(x) = -Li_s(-e^x) at the working precision (log1p for s = 1,
    where polylog's 1 - z loses e^x below the precision), and its centred
    differences over the 2^m points of ``steps``."""
    points = [(mp.mpf(x), 1)]
    for h in steps:
        points = [(p + mp.mpf(h) / 2, sign) for p, sign in points] + [(p - mp.mpf(h) / 2, -sign) for p, sign in points]
    return mp.fsum(sign * (mp.log1p(mp.exp(p)) if s == 1 else -mp.polylog(s, -mp.exp(p))) for p, sign in points)


_FD_POINTS = np.concatenate((np.linspace(-40.0, 40.0, 81), [-700.0, 700.0, -0.3, 0.7, 0.0],
                             [np.nextafter(v, t) for v in (-1.0, 0.0, 1.0) for t in (-2.0, 2.0)]))


class TestFermiDirac:
    """``fermi_dirac``: the complete Fermi-Dirac integrals F_s = -Li_s(-e^x)
    and their centred differences, each within its returned rounding bound
    of 40-digit mpmath, and that bound tight."""

    @pytest.mark.parametrize("s", range(1, 7))
    def test_matches_polylog(self, s):
        """On [-40, 40], at +-700 and on both sides of |x| = 1 and x = 0:
        the error is within the bound, and the bound within 2e-13 of the
        value (the Taylor branch, whose bound is one constant, is loosest
        near |x| = 1)."""
        values, bounds = fermi_dirac(s, _FD_POINTS)
        with mp.workdps(40):
            for x, value, bound in zip(_FD_POINTS, values, bounds):
                exact = _fermi_dirac_mp(s, x)
                assert abs(value - exact) <= bound <= 2e-13 * exact, (x, value, exact, bound)

    @pytest.mark.parametrize("s, steps", [(1, (0.001,)), (2, (0.01,)), (2, (40.0,)), (3, (0.01, 0.005)),
                                          (3, (0.4, 0.2)), (3, (1400.0, 700.0)), (6, (0.1,))],
                             ids=lambda v: f"{v}")
    def test_differences_do_not_cancel(self, s, steps):
        """Narrow stencils (beta = 0.005 in the hinges' D_2beta D_beta F_3)
        difference in closed form, wide ones sum their points: both within
        their bound, relative 1e-11, of the 60-digit differences."""
        values, bounds = fermi_dirac(s, _FD_POINTS, steps)
        with mp.workdps(60):
            for x, value, bound in zip(_FD_POINTS, values, bounds):
                exact = _fermi_dirac_mp(s, x, steps)
                assert abs(value - exact) <= bound <= 1e-11 * abs(exact), (x, value, exact, bound)

    def test_shape_and_validation(self):
        values, bounds = fermi_dirac(2, np.zeros((2, 3)), (0.5,))
        assert values.shape == bounds.shape == (2, 3)
        for s, steps in [(0, ()), (7, ()), (1, (1.0, 1.0))]:
            with pytest.raises(ValueError, match="s in 1..6"):
                fermi_dirac(s, 0.0, steps)


def _upper_moment_mp(q, beta, k, y):
    """E(H - y)+^k = the integral of (h - y)^k psi(h) over [y, inf), split
    at psi's bends +-1 +- ln(q) / beta and at decay lengths past them."""
    c = abs(mp.log(q)) / beta
    ends = sorted({y, *(b for b in (-c - 1, -c + 1, c - 1, c + 1) if b > y)})
    ends += [ends[-1] + 4**i / beta for i in range(5)] + [mp.inf]
    return mp.quad(lambda h: (h - y) ** k * psi_mp(q, beta, h), ends)


class TestUpperMoment:
    """``upper_moment``, the law's E(H + T - y)+^k through ``fermi_dirac``,
    within its returned rounding bound of 30-digit quadrature of psi, and
    that bound tight; with a width w it is the difference (E(H - y +
    w/2)+^(k+1) - E(H - y - w/2)+^(k+1)) / (w (k + 1))."""

    @pytest.mark.parametrize("q, beta", [(1.0, 1.0), (1e6, 0.05), (3.0, 20.0)], ids=lambda v: f"{v:g}")
    @pytest.mark.parametrize("k, widths", [(0, ()), (1, ()), (4, ()), (1, (1.0,)), (3, (0.5,))],
                             ids=lambda v: f"{v}")
    def test_matches_mpmath(self, q, beta, k, widths):
        ys = np.array([-2.0, -0.3, 0.0, 0.7, 3.0])
        values, bounds = upper_moment(KernelParams(q, beta), k, ys, widths)
        with mp.workdps(30):
            for y, value, bound in zip(ys, values, bounds):
                if widths:
                    (w,) = widths
                    exact = (_upper_moment_mp(q, beta, k + 1, mp.mpf(y) - w / 2)
                             - _upper_moment_mp(q, beta, k + 1, mp.mpf(y) + w / 2)) / (w * (k + 1))
                else:
                    exact = _upper_moment_mp(q, beta, k, mp.mpf(y))
                assert abs(value - exact) <= bound <= 1e-12 * exact, (y, value, exact, bound)

    @pytest.mark.parametrize("q, beta", [(1.0, 1.0), (31.6, 0.273), (3.0, 700.0), (1e6, 0.05), (1e300, 700.0)],
                             ids=lambda v: f"{v:g}")
    def test_one_call_has_the_bits_of_one_call_per_edge(self, q, beta):
        """kernel-check takes its tail rows in one call over the window
        edges n^(1/2), n = 9..36: each value has the bits of its own call."""
        params, edges = KernelParams(q, beta), [3.0, 4.0, 5.0, 6.0]
        batched = upper_moment(params, 0, edges)
        for i, edge in enumerate(edges):
            assert [float(part[i]) for part in batched] == [float(part) for part in upper_moment(params, 0, edge)]


class TestPsiEnvelope:
    def test_values(self):
        p = KernelParams(1.0, 1.0)
        assert psi_envelope(p, 1.0) == pytest.approx(1.0, abs=1e-15)
        assert psi_envelope(p, 3.0) == pytest.approx(0.13533528323661269, abs=1e-16)

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            psi_envelope(KernelParams(1.0, 1.0), 0.99)

    @pytest.mark.parametrize("p", PARAM_GRID, ids=lambda p: f"q{p.q}b{p.beta}")
    def test_dominates_psi(self, p):
        xs = np.linspace(1.0, 40.0, 801)
        assert np.all(psi(p, xs) < psi_envelope(p, xs))


class TestTailMassBound:
    def test_frozen_values(self):
        assert tail_mass_bound(KernelParams(1.0, 1.0), 9, 0.5) == pytest.approx(
            0.2706705664732254, abs=1e-16
        )
        assert tail_mass_bound(KernelParams(2.0, 1.0), 9, 0.5) == pytest.approx(
            0.33833820809153173, abs=1e-16
        )

    def test_hypothesis_boundary(self):
        # n ** (1 - alpha) = 2 exactly is outside the hypothesis
        with pytest.raises(HypothesisNotMetError):
            tail_mass_bound(KernelParams(1.0, 1.0), 4, 0.5)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            tail_mass_bound(KernelParams(1.0, 1.0), 9, 1.5)
        with pytest.raises(ValueError):
            tail_mass_bound(KernelParams(1.0, 1.0), 0, 0.5)

    def test_dominates_numeric_tail(self, p11):
        # frozen oracle for the n=9, alpha=0.5 tail: 0.10877808312516276
        m = 9.0**0.5
        radius = moment_truncation_radius(p11, 0, 1e-12)
        numeric = 2.0 * integrate_interval(lambda h: psi(p11, h), m, radius).value
        assert numeric == pytest.approx(0.10877808312516276, abs=1e-12)
        assert numeric < tail_mass_bound(p11, 9, 0.5)


class TestMomentBound:
    def test_frozen_values(self, p11):
        assert moment_bound(p11, 1) == pytest.approx(5.667622235548095, abs=1e-14)
        assert moment_bound(p11, 3) == pytest.approx(32.734911230823545, abs=1e-13)

    def test_k_zero_rejected(self, p11):
        with pytest.raises(ValueError):
            moment_bound(p11, 0)

    def test_overflow_guard(self, p11):
        with pytest.raises(ValueError):
            moment_bound(p11, 171)

    @pytest.mark.parametrize("p", PARAM_GRID, ids=lambda p: f"q{p.q}b{p.beta}")
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_dominates_numeric_moment(self, p, k):
        radius = moment_truncation_radius(p, k, 1e-12)
        numeric = 2.0 * integrate_interval(lambda h: h**k * psi(p, h), 0.0, radius).value
        assert numeric <= moment_bound(p, k)

    def test_first_moments_frozen(self, p11):
        # 50-digit oracle values of the absolute moments themselves
        r1 = moment_truncation_radius(p11, 1, 1e-13)
        m1 = 2.0 * integrate_interval(lambda h: h * psi(p11, h), 0.0, r1).value
        assert m1 == pytest.approx(1.4676380740413221, abs=1e-11)
        r2 = moment_truncation_radius(p11, 2, 1e-13)
        m2 = 2.0 * integrate_interval(lambda h: h * h * psi(p11, h), 0.0, r2).value
        assert m2 == pytest.approx(3.6232014670297862, abs=1e-10)

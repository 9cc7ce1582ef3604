"""Arithmetic of the closed-form error bounds."""

import math

import mpmath as mp
import pytest

from actconv import (
    BoundKind,
    HypothesisNotMetError,
    KernelParams,
    central_moment_bound,
    iterated_bound,
    jackson_bound,
    mixed_iterated_bound,
    moment_bound,
    omega_argument,
    taylor_bound,
)
from actconv.kernel import tail_mass_bound

P11 = KernelParams(1.0, 1.0)
KINDS = ("basic", "kantorovich", "quadrature")


class TestOmegaArgument:
    def test_basic(self):
        assert omega_argument("basic", 16, 0.5) == pytest.approx(0.25, abs=1e-16)

    def test_averaging_kinds_add_one_over_n(self):
        for kind in ("kantorovich", "quadrature"):
            assert omega_argument(kind, 16, 0.5) == pytest.approx(0.25 + 1 / 16, abs=1e-16)


class TestJacksonBound:
    def test_zero_function(self):
        report = jackson_bound("basic", 0.0, P11, 16, 0.5, 0.0)
        assert report.value == 0.0

    def test_frozen_spot(self):
        # 0.25 + 4 / e^3, 50-digit oracle
        report = jackson_bound("basic", 0.25, P11, 16, 0.5, 1.0)
        assert report.value == pytest.approx(0.44914827347145577, abs=1e-15)
        assert report.kind is BoundKind.JACKSON_BASIC
        assert report.inputs["hypothesis_met"]

    def test_hypothesis_violation(self):
        with pytest.raises(HypothesisNotMetError):
            jackson_bound("basic", 0.25, P11, 4, 0.5, 1.0)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            jackson_bound("basic", -0.1, P11, 16, 0.5, 1.0)

    @pytest.mark.parametrize("kind", KINDS)
    def test_non_increasing_in_n(self, kind):
        from actconv.analysis import CATALOG

        f = CATALOG["sin"]
        values = [
            jackson_bound(kind, f.modulus(omega_argument(kind, n, 0.5)), P11, n, 0.5, 1.0).value
            for n in (9, 16, 25, 36, 49)
        ]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert all(v > 0 for v in values)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("fname", ["sin", "cos", "abs", "gauss"])
    def test_vanishing_along_sequence(self, kind, fname):
        """Bounds decrease strictly along the tested resolution sequence for
        every catalog function with vanishing modulus."""
        from actconv.analysis import CATALOG

        f = CATALOG[fname]
        values = [
            jackson_bound(kind, f.modulus(omega_argument(kind, n, 0.5)), P11, n, 0.5, f.sup_norm).value
            for n in (9, 16, 25, 36, 49)
        ]
        assert all(b < a for a, b in zip(values, values[1:]))


class TestCentralMomentBound:
    def test_basic_is_scaled_moment_bound(self):
        assert central_moment_bound("basic", 1, P11, 10) == pytest.approx(
            moment_bound(P11, 1) / 10.0, abs=1e-15
        )
        assert central_moment_bound("basic", 1, P11, 10) == pytest.approx(0.5667622235548095, abs=1e-14)

    def test_averaging_kinds_formula(self):
        for kind in ("kantorovich", "quadrature"):
            for k in (1, 2, 3):
                expected = 2.0 ** (k - 1) * (1.0 + moment_bound(P11, k)) / 10.0**k
                assert central_moment_bound(kind, k, P11, 10) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_decreasing_in_n(self, kind, k):
        assert central_moment_bound(kind, k, P11, 100) < central_moment_bound(kind, k, P11, 10)


class TestTaylorBound:
    def test_zero_inputs(self):
        for kind in KINDS:
            assert taylor_bound(kind, 0.0, P11, 16, 0.5, 2, 0.0).value == 0.0

    def test_basic_structure(self):
        # the two terms recomputed independently must reassemble the value
        n, alpha, N = 16, 0.5, 2
        omega_N, sup = 0.25, 1.0
        report = taylor_bound("basic", omega_N, P11, n, alpha, N, sup)
        first = omega_N / (n ** (alpha * N) * math.factorial(N))
        second = (
            2.0 ** (N + 2) * sup * math.e * 2.0 / (n**N * 1.0) * math.exp(-(n ** (1 - alpha)) / 2.0)
        )
        assert report.value == pytest.approx(first + second, rel=1e-15)

    def test_averaging_structure(self):
        n, alpha, N = 16, 0.5, 2
        omega_N, sup = 0.25, 1.0
        report = taylor_bound("kantorovich", omega_N, P11, n, alpha, N, sup)
        arg = 1.0 / n + 1.0 / n**alpha
        first = omega_N * arg**N / math.factorial(N)
        second = (
            (2.0**N * sup / (n**N * math.factorial(N)))
            * 2.0
            * math.e
            * math.exp(-(n ** (1 - alpha)) / 2.0)
            * (1.0 + 2.0 ** (N + 1) * math.factorial(N))
        )
        assert report.value == pytest.approx(first + second, rel=1e-15)
        same = taylor_bound("quadrature", omega_N, P11, n, alpha, N, sup)
        assert same.value == report.value

    def test_hypothesis_and_order_validation(self):
        with pytest.raises(HypothesisNotMetError):
            taylor_bound("basic", 0.1, P11, 4, 0.5, 1, 1.0)
        with pytest.raises(ValueError):
            taylor_bound("basic", 0.1, P11, 16, 0.5, 0, 1.0)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("N", [1, 2])
    def test_non_increasing_in_n(self, kind, N):
        from actconv.analysis import CATALOG

        f = CATALOG["sin"]
        deriv = f.derivative(N)
        values = [
            taylor_bound(
                kind, deriv.modulus(omega_argument(kind, n, 0.5)), P11, n, 0.5, N, deriv.sup_norm
            ).value
            for n in (9, 16, 25, 36, 49)
        ]
        assert all(b < a for a, b in zip(values, values[1:]))


def _tails(q, beta, n, N):
    """The tail terms of ``tail_mass_bound``, ``jackson_bound`` (sup|f| = 1)
    and ``taylor_bound`` (basic, then averaging; sup|f^(N)| = 1) at
    alpha = 0.5, in 50-digit mpmath."""
    with mp.workdps(50):
        q, beta, n = mp.mpf(q), mp.mpf(beta), mp.mpf(n)
        q_sum, m, fact = q + 1 / q, mp.sqrt(n), mp.factorial(N)
        mass = q_sum * mp.exp(-beta * (m - 1))
        decay = q_sum * mp.exp(beta) * mp.exp(-beta * m / 2)
        basic = 2 ** (N + 2) / (n**N * beta**N) * decay
        averaging = 2**N / (n**N * fact) * decay * (1 + 2 ** (N + 1) * fact / beta**N)
        return [float(v) for v in (mass, 2 * mass, basic, averaging)]


class TestExtremeTails:
    """Each tail is one exponential of a sum of logarithms: apart, (q + 1/q)
    e^beta overflows and e^{-beta m} underflows at (1e300, 700), and their
    product was nan (``taylor_bound``) or 0.0 (``tail_mass_bound``)."""

    @pytest.mark.parametrize("N", [1, 2])
    @pytest.mark.parametrize("n", [9, 36])
    @pytest.mark.parametrize("q, beta", [(1e300, 700.0), (1e-300, 700.0), (1.0, 1.0), (1e6, 0.05)])
    def test_tails_match_mpmath(self, q, beta, n, N):
        params = KernelParams(q, beta)
        got = [
            tail_mass_bound(params, n, 0.5),
            jackson_bound("basic", 0.0, params, n, 0.5, 1.0).value,
            taylor_bound("basic", 0.0, params, n, 0.5, N, 1.0).value,
            taylor_bound("kantorovich", 0.0, params, n, 0.5, N, 1.0).value,
        ]
        for value, exact in zip(got, _tails(q, beta, n, N)):
            assert math.isfinite(value)
            # below 2.2e-308 (at beta = 700) a double holds fewer digits:
            # allow a few of its steps of 2^-1074 there
            assert abs(value - exact) <= 1e-13 * exact + 4 * 2.0**-1074, (value, exact)


class TestIteratedBounds:
    def test_single_identity(self):
        single = jackson_bound("basic", 0.25, P11, 16, 0.5, 1.0)
        assert iterated_bound("basic", single, 1).value == single.value

    def test_triple_frozen(self):
        single = jackson_bound("basic", 0.25, P11, 16, 0.5, 1.0)
        assert iterated_bound("basic", single, 3).value == pytest.approx(
            1.3474448204143673, abs=1e-14
        )

    def test_r_validation(self):
        single = jackson_bound("basic", 0.25, P11, 16, 0.5, 1.0)
        with pytest.raises(ValueError):
            iterated_bound("basic", single, 0)

    def test_mixed_single_element(self):
        single = jackson_bound("basic", 0.25, P11, 16, 0.5, 1.0)
        mixed = mixed_iterated_bound("basic", [single])
        assert mixed.value == single.value
        assert mixed.inputs["coarse"] == single.value

    def test_mixed_sum_below_coarse(self):
        from actconv.analysis import CATALOG

        f = CATALOG["sin"]
        steps = [
            jackson_bound("basic", f.modulus(omega_argument("basic", n, 0.5)), P11, n, 0.5, 1.0)
            for n in (9, 16, 25)
        ]
        mixed = mixed_iterated_bound("basic", steps)
        assert mixed.value == pytest.approx(math.fsum(s.value for s in steps), abs=0)
        assert mixed.value <= mixed.inputs["coarse"]

    def test_mixed_empty_rejected(self):
        with pytest.raises(ValueError):
            mixed_iterated_bound("basic", [])

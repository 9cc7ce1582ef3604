"""Measurement layer: moduli, sup errors, sweeps, smoothness, rate fits."""

import math

import numpy as np
import pytest

from actconv import (
    KernelParams,
    MeasurementGrid,
    check_smoothness_preservation,
    estimate_modulus,
    fit_rate,
    get_test_function,
    run_convergence_sweep,
    sup_error,
)
from actconv.analysis import CATALOG, ConvergenceRecord
from actconv.operators import OperatorKind, OperatorSpec, TestFunction, apply_on_grid, central_moment

P11 = KernelParams(1.0, 1.0)


class TestMeasurementGrid:
    def test_uniform_default(self, grid):
        assert grid.points.size == 2001
        assert grid.spacing == pytest.approx(0.003, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            MeasurementGrid((-1, 1), np.array([0.0]))
        with pytest.raises(ValueError):
            MeasurementGrid((-1, 1), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            MeasurementGrid((-1, 1), np.array([-2.0, 0.0]))


class TestEstimateModulus:
    def test_identity(self, grid):
        # closed form present: returns it after validating the grid estimate
        assert estimate_modulus(CATALOG["id"], 0.3, grid) == pytest.approx(0.3, abs=1e-12)

    def test_identity_grid_only(self, grid):
        # bare callable: the grid estimate itself, within one spacing of theta
        est = estimate_modulus(lambda x: np.asarray(x, float), 0.3, grid)
        assert 0.3 - grid.spacing <= est <= 0.3 + 1e-12

    def test_constant(self, grid):
        assert estimate_modulus(CATALOG["one"], 0.1, grid) == 0.0

    def test_sin_frozen(self, grid):
        # omega(sin, theta) = 2 sin(theta / 2); frozen 2 sin(0.05)
        closed = estimate_modulus(CATALOG["sin"], 0.1, grid)
        assert closed == pytest.approx(0.09995833854135666, abs=1e-15)
        # raw grid estimate: pairs reach separation floor(theta/dx)*dx = 0.099
        # and the optimal pair center can sit half a spacing off-grid
        grid_est = estimate_modulus(np.sin, 0.1, grid)
        assert 2 * math.sin(0.099 / 2) - 1e-6 <= grid_est <= closed + 1e-9

    def test_coarse_grid_rejected(self):
        coarse = MeasurementGrid.uniform((-3, 3), 11)
        with pytest.raises(ValueError, match="coarse"):
            estimate_modulus(CATALOG["sin"], 0.1, coarse)

    def test_theta_validation(self, grid):
        with pytest.raises(ValueError):
            estimate_modulus(CATALOG["sin"], 0.0, grid)

    def test_monotone_in_theta(self, grid):
        estimates = [estimate_modulus(np.sin, t, grid) for t in (0.05, 0.1, 0.3, 0.6)]
        assert all(b >= a for a, b in zip(estimates, estimates[1:]))

    def test_subadditive_within_slack(self, grid):
        w = lambda t: estimate_modulus(np.sin, t, grid)
        assert w(0.5) <= w(0.2) + w(0.3) + 2 * grid.spacing

    def test_refinement_non_decreasing(self):
        coarse = MeasurementGrid.uniform((-3, 3), 1001)
        fine = MeasurementGrid.uniform((-3, 3), 2001)
        for theta in (0.1, 0.5):
            assert estimate_modulus(np.sin, theta, fine) >= estimate_modulus(np.sin, theta, coarse) - 1e-12


class TestSupError:
    def test_exact_match_is_zero(self, grid):
        assert sup_error(CATALOG["sin"], np.sin, grid) == 0.0

    def test_constant_offset(self, grid):
        assert sup_error(CATALOG["sin"], lambda x: np.sin(x) + 0.01, grid) == pytest.approx(
            0.01, abs=1e-15
        )

    def test_refinement_non_decreasing(self):
        coarse = MeasurementGrid.uniform((-3, 3), 501)
        fine = MeasurementGrid.uniform((-3, 3), 2001)
        approx = lambda x: np.sin(x) * 0.99
        assert sup_error(CATALOG["sin"], approx, fine) >= sup_error(CATALOG["sin"], approx, coarse) - 1e-12


class TestConvergenceSweep:
    def test_constant_all_satisfied(self, grid):
        records = run_convergence_sweep(CATALOG["one"], "basic", [9, 16], 0.5, P11, grid)
        assert all(r.satisfied for r in records)
        assert all(r.measured_sup_error <= 1e-9 for r in records)

    def test_sin_basic_decreasing(self, grid):
        records = run_convergence_sweep(CATALOG["sin"], "basic", [16, 9], 0.5, P11, grid)
        assert [r.n for r in records] == [9, 16]  # ordered by n regardless of input
        assert all(r.satisfied for r in records)
        assert records[1].measured_sup_error < records[0].measured_sup_error

    def test_abs_satisfied_without_smoothness(self, grid):
        records = run_convergence_sweep(CATALOG["abs"], "kantorovich", [9, 16], 0.5, P11, grid)
        assert all(r.satisfied for r in records)

    def test_hypothesis_not_met_recorded(self, grid):
        records = run_convergence_sweep(CATALOG["one"], "basic", [4, 9], 0.5, P11, grid)
        first = records[0]
        assert first.n == 4 and not first.hypothesis_met
        assert first.bound_value is None and first.satisfied is None
        assert math.isfinite(first.measured_sup_error)

    def test_failure_recorded_and_sweep_continues(self, grid, monkeypatch):
        from actconv import quadrature

        monkeypatch.setattr(quadrature, "MAX_SUBDIVISIONS", 4)
        records = run_convergence_sweep(CATALOG["abs"], "basic", [9, 16], 0.5, P11, grid)
        assert len(records) == 2
        assert all("QuadratureNonConvergedError" in r.note for r in records)
        assert all(r.satisfied is None for r in records)

    def test_no_closed_form_modulus_gives_no_bound(self, grid):
        """A grid-sampled modulus only bounds the true one from below, so it
        never becomes a right-hand side: the error is measured, unchecked."""
        f = TestFunction.from_callable("bare_sin", np.sin, 1.0)
        records = run_convergence_sweep(f, "basic", [9, 16], 0.5, P11, grid)
        for rec, reference in zip(records, run_convergence_sweep(CATALOG["sin"], "basic", [9, 16], 0.5, P11, grid)):
            assert rec.hypothesis_met and not rec.note
            assert rec.bound_value is None and rec.bound_kind == "" and rec.satisfied is None
            assert rec.measured_sup_error == reference.measured_sup_error

    @pytest.mark.parametrize("kind,weights", [("basic", None), ("quadrature", (0.25,) * 4)])
    def test_taylor_order_residual_and_bound(self, grid, kind, weights):
        """Order N measures max |B_n f - f - sum mu_k f^(k) / k!| and checks
        it against the Taylor bound of f^(N)."""
        f, order = CATALOG["sin"], 2
        records = run_convergence_sweep(f, kind, [16, 25], 0.5, P11, grid, weights, order=order)
        for rec in records:
            spec = OperatorSpec(OperatorKind(kind), rec.n, P11, weights=weights)
            correction = sum(
                f.derivatives[k - 1](grid.points) * (central_moment(spec, 0.0, k) / math.factorial(k))
                for k in range(1, order + 1)
            )
            residual = np.abs(apply_on_grid(f, spec, grid.points) - f.eval(grid.points) - correction).max()
            assert rec.measured_sup_error == pytest.approx(residual, rel=1e-12)
            assert rec.bound_kind == f"taylor-{kind}" and rec.satisfied is True

    def test_taylor_order_needs_derivatives(self, grid):
        with pytest.raises(ValueError, match="analytic derivative"):
            run_convergence_sweep(CATALOG["abs"], "basic", [16], 0.5, P11, grid, order=1)


class TestSmoothnessPreservation:
    def test_identity_near_equality(self, grid):
        spec = OperatorSpec(OperatorKind.BASIC, 16, P11)
        for rec in check_smoothness_preservation(CATALOG["id"], spec, [0.05, 0.1, 0.5], grid):
            assert rec.satisfied
            assert rec.omega_Bf == pytest.approx(rec.omega_f, abs=1e-9)

    def test_constant_zero(self, grid):
        spec = OperatorSpec(OperatorKind.BASIC, 16, P11)
        for rec in check_smoothness_preservation(CATALOG["one"], spec, [0.1], grid):
            assert rec.omega_f == 0.0 and rec.omega_Bf <= 4e-10

    @pytest.mark.parametrize("kind,weights", [
        ("basic", None), ("kantorovich", None), ("quadrature", (0.25,) * 4),
    ])
    def test_abs_all_kinds(self, grid, kind, weights):
        spec = OperatorSpec(OperatorKind(kind), 16, P11, weights=weights)
        for rec in check_smoothness_preservation(CATALOG["abs"], spec, [0.05, 0.1, 0.5], grid):
            assert rec.satisfied

    def test_theta_validation(self, grid):
        spec = OperatorSpec(OperatorKind.BASIC, 16, P11)
        with pytest.raises(ValueError):
            check_smoothness_preservation(CATALOG["sin"], spec, [-0.1], grid)


def _synthetic_records(ns, errors):
    return [
        ConvergenceRecord(
            function="synthetic",
            kind="basic",
            n=n,
            alpha=0.5,
            q=1.0,
            beta=1.0,
            measured_sup_error=e,
            bound_value=None,
            bound_kind="",
            hypothesis_met=True,
            satisfied=None,
        )
        for n, e in zip(ns, errors)
    ]


class TestFitRate:
    def test_inverse_n(self):
        ns = [9, 16, 25, 36, 49]
        records = _synthetic_records(ns, [3.0 / n for n in ns])
        assert fit_rate(records) == pytest.approx(-1.0, abs=0.05)

    def test_inverse_sqrt_n(self):
        ns = [9, 16, 25, 36, 49]
        records = _synthetic_records(ns, [2.0 / n**0.5 for n in ns])
        assert fit_rate(records) == pytest.approx(-0.5, abs=0.05)

    def test_zero_errors_sentinel(self):
        records = _synthetic_records([9, 16, 25], [0.0, 0.0, 0.0])
        assert fit_rate(records) == math.inf

    def test_too_few_positive(self):
        records = _synthetic_records([9, 16], [0.1, 0.05])
        with pytest.raises(ValueError):
            fit_rate(records)

    def test_sweep_rate_at_least_guaranteed_order(self, grid):
        records = run_convergence_sweep(CATALOG["sin"], "basic", [9, 16, 25, 36, 49], 0.5, P11, grid)
        assert fit_rate(records) <= -0.5 + 0.1


class TestCatalog:
    def test_lookup(self):
        assert get_test_function("sin").name == "sin"
        with pytest.raises(KeyError, match="unknown catalog function"):
            get_test_function("nope")

    def test_expected_members(self):
        assert {"sin", "cos", "abs", "gauss", "id", "one"} <= set(CATALOG)

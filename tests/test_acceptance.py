"""Acceptance gate: every headline guarantee, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Tolerances are pinned here, not configurable.
"""

import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

from actconv import (
    KernelParams,
    MeasurementGrid,
    QuadratureConfig,
    TailEnvelope,
    apply,
    apply_on_grid,
    central_moment,
    check_smoothness_preservation,
    integrate_interval,
    integrate_real_line,
    iterate,
    compose_mixed,
    jackson_bound,
    mixed_iterated_bound,
    moment_bound,
    omega_argument,
    psi,
    run_convergence_sweep,
    tail_mass_bound,
    taylor_bound,
)
from actconv.analysis import CATALOG
from actconv.cli import main as cli_main
from actconv.operators import RESIDUAL_CEILING, OperatorKind, OperatorSpec
from actconv.quadrature import moment_truncation_radius

from conftest import PARAM_GRID

P11 = KernelParams(1.0, 1.0)
GRID = MeasurementGrid.uniform()
KIND_WEIGHTS = (("basic", None), ("kantorovich", None), ("quadrature", (0.25, 0.25, 0.25, 0.25)))
SWEEP_NS = (9, 16, 25, 36, 49)


def _report(num: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_kernel_normalization():
    """Unit mass within 1e-8 for all 9 parameter pairs, each under 0.1 s."""
    worst_residual = 0.0
    worst_time = 0.0
    ok = True
    for p in PARAM_GRID:
        start = time.perf_counter()
        res = integrate_real_line(lambda h: psi(p, h), TailEnvelope(p))
        elapsed = time.perf_counter() - start
        worst_residual = max(worst_residual, abs(res.value - 1.0))
        worst_time = max(worst_time, elapsed)
        ok &= res.converged and abs(res.value - 1.0) < 1e-8 and elapsed < 0.1
    _report(1, ok, f"max |mass - 1| = {worst_residual:.3e}, max time {worst_time * 1e3:.1f} ms")


def test_criterion_02_tail_bound():
    """Numeric tail mass stays below the closed-form bound on the grid of
    parameters and resolutions; frozen spot value at q=1, beta=1, n=9."""
    ok = True
    spot = tail_mass_bound(P11, 9, 0.5)
    ok &= abs(spot - 0.2706705664732254) < 1e-12
    worst_ratio = 0.0
    for p in PARAM_GRID:
        radius = moment_truncation_radius(p, 0, 1e-13)
        for n in (9, 16, 25, 36):
            m = float(n) ** 0.5
            numeric = 2.0 * integrate_interval(lambda h: psi(p, h), m, max(radius, m + 1)).value
            bound = tail_mass_bound(p, n, 0.5)
            ok &= numeric < bound
            worst_ratio = max(worst_ratio, numeric / bound)
    _report(2, ok, f"spot bound {spot:.6f}, worst tail/bound ratio {worst_ratio:.3f}")


def test_criterion_03_moment_bounds():
    """k-th absolute moments below their closed-form bounds, k = 1..5."""
    ok = True
    worst_ratio = 0.0
    for p in PARAM_GRID:
        for k in range(1, 6):
            radius = moment_truncation_radius(p, k, 1e-13)
            numeric = 2.0 * integrate_interval(lambda h: h**k * psi(p, h), 0.0, radius).value
            bound = moment_bound(p, k)
            ok &= numeric <= bound
            worst_ratio = max(worst_ratio, numeric / bound)
    _report(3, ok, f"45 moment checks, worst moment/bound ratio {worst_ratio:.3f}")


def test_criterion_04_first_order_bounds_sweep():
    """Measured sup error below the first-order bound for four catalog
    functions, three operator kinds and five resolutions, within 2 minutes."""
    start = time.perf_counter()
    ok = True
    checked = 0
    worst_ratio = 0.0
    for fname in ("sin", "cos", "abs", "gauss"):
        f = CATALOG[fname]
        for kind, weights in KIND_WEIGHTS:
            records = run_convergence_sweep(f, kind, SWEEP_NS, 0.5, P11, GRID, weights=weights)
            for rec in records:
                checked += 1
                ok &= rec.satisfied is True
                worst_ratio = max(worst_ratio, rec.measured_sup_error / rec.bound_value)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 120.0
    _report(4, ok, f"{checked} sweep checks, worst err/bound {worst_ratio:.3f}, {elapsed:.1f} s")


def test_criterion_05_identity_facts():
    """Constants and the identity are reproduced; the local-average kind
    shifts the identity by exactly 1/(2n)."""
    ok = True
    worst = 0.0
    for n in (9, 32):
        spec_b = OperatorSpec(OperatorKind.BASIC, n, P11)
        spec_k = OperatorSpec(OperatorKind.KANTOROVICH, n, P11)
        ones = apply_on_grid(CATALOG["one"], spec_b, GRID.points)
        ids = apply_on_grid(CATALOG["id"], spec_b, GRID.points)
        shifted = apply_on_grid(CATALOG["id"], spec_k, GRID.points)
        errs = [
            float(np.abs(ones - 1.0).max()),
            float(np.abs(ids - GRID.points).max()),
            float(np.abs(shifted - GRID.points - 0.5 / n).max()),
        ]
        for x in (-1.2, 0.7):
            errs.append(abs(apply(CATALOG["one"], spec_b, x) - 1.0))
            errs.append(abs(apply(CATALOG["id"], spec_b, x) - x))
            errs.append(abs(apply(CATALOG["id"], spec_k, x) - x - 0.5 / n))
        worst = max(worst, max(errs))
        ok &= max(errs) < 1e-9
    _report(5, ok, f"worst identity residual {worst:.3e} (tolerance 1e-9)")


def test_criterion_06_smoothness_preservation():
    """Operator output is never rougher than the input: grid modulus of the
    output below that of the input plus 4x quadrature tolerance."""
    cfg = QuadratureConfig()
    ok = True
    worst_excess = -math.inf
    for fname, f in CATALOG.items():
        for kind, weights in KIND_WEIGHTS:
            spec = OperatorSpec(OperatorKind(kind), 16, P11, weights=weights)
            for rec in check_smoothness_preservation(f, spec, (0.05, 0.1, 0.5), GRID, cfg):
                ok &= rec.satisfied
                worst_excess = max(worst_excess, rec.omega_Bf - rec.omega_f)
    _report(6, ok, f"max (omega_out - omega_in) = {worst_excess:.3e} (slack 4e-10)")


def test_criterion_07_derivative_commuting():
    """Finite differences of the operator output match the operator applied
    to the derivative, at 21 points with step 1e-4, within 1e-6."""
    cfg = QuadratureConfig(1e-12)
    spec = OperatorSpec(OperatorKind.BASIC, 32, P11)
    step = 1e-4
    sin_f, cos_f = CATALOG["sin"], CATALOG["cos"]
    worst = 0.0
    for x in np.linspace(-2.0, 2.0, 21):
        fd = (apply(sin_f, spec, x + step, cfg) - apply(sin_f, spec, x - step, cfg)) / (2 * step)
        direct = apply(cos_f, spec, float(x), cfg)
        worst = max(worst, abs(fd - direct))
    _report(7, worst < 1e-6, f"max |finite difference - operator of derivative| = {worst:.3e}")


def test_criterion_08_taylor_residuals():
    """Taylor-corrected residuals below the refined bounds for orders 1 and
    2; odd correction moments of the point-sample kind vanish."""
    f = CATALOG["sin"]
    ok = True
    worst_ratio = 0.0
    fx = np.sin(GRID.points)
    for kind, weights in KIND_WEIGHTS:
        for n in (16, 25, 36):
            spec = OperatorSpec(OperatorKind(kind), n, P11, alpha=0.5, weights=weights)
            values = apply_on_grid(f, spec, GRID.points)
            correction = np.zeros_like(GRID.points)
            for order in (1, 2):
                moment = central_moment(spec, 0.0, order)
                correction = correction + np.asarray(f.derivatives[order - 1](GRID.points)) * (
                    moment / math.factorial(order)
                )
                deriv = f.derivative(order)
                bound = taylor_bound(
                    kind,
                    deriv.modulus(omega_argument(kind, n, 0.5)),
                    P11,
                    n,
                    0.5,
                    order,
                    deriv.sup_norm,
                )
                residual = float(np.abs(values - fx - correction).max())
                ok &= residual <= bound.value
                worst_ratio = max(worst_ratio, residual / bound.value)
    spec_b = OperatorSpec(OperatorKind.BASIC, 16, P11)
    worst_odd = max(abs(central_moment(spec_b, 0.0, k)) for k in (1, 3, 5))
    ok &= worst_odd < 1e-12
    _report(8, ok, f"worst residual/bound {worst_ratio:.3f}, max |odd moment| {worst_odd:.2e}")


def test_criterion_09_iterated_bounds():
    """Triangle bound for the triple self-composition and the per-step sum
    bound for a mixed ascending chain."""
    f = CATALOG["sin"]
    spec = OperatorSpec(OperatorKind.BASIC, 32, P11)
    ceiling = RESIDUAL_CEILING
    xs = GRID.points
    single = float(np.abs(apply_on_grid(f, spec, xs) - np.sin(xs)).max())
    triple = iterate(f, spec, 3, GRID.domain, 64)
    measured3 = float(np.abs(triple(xs) - np.sin(xs)).max())
    ok = measured3 <= 3.0 * single + 3.0 * ceiling

    chain = compose_mixed(f, "basic", [9, 16, 25], P11, 0.5, GRID.domain, 64)
    measured_chain = float(np.abs(chain(xs) - np.sin(xs)).max())
    per_step = [
        jackson_bound("basic", f.modulus(omega_argument("basic", k, 0.5)), P11, k, 0.5, 1.0)
        for k in (9, 16, 25)
    ]
    total = mixed_iterated_bound("basic", per_step)
    ok &= measured_chain <= total.value + 3.0 * ceiling
    _report(
        9,
        ok,
        f"|B^3 f - f| = {measured3:.3e} vs 3|Bf - f| = {3 * single:.3e}; "
        f"chain error {measured_chain:.3e} vs sum bound {total.value:.3e}",
    )


def test_criterion_10_cli_determinism(tmp_path):
    """Two default-config CLI sweeps produce byte-identical CSV files."""
    runner = CliRunner()
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    for out in (out1, out2):
        result = runner.invoke(cli_main, ["approx", "--out", str(out)], catch_exceptions=False)
        assert result.exit_code == 0, result.output
    names = sorted(p.name for p in out1.glob("*.csv"))
    ok = bool(names) and names == sorted(p.name for p in out2.glob("*.csv"))
    for name in names:
        ok &= (out1 / name).read_bytes() == (out2 / name).read_bytes()
    _report(10, ok, f"{len(names)} CSV file(s) byte-identical across runs")

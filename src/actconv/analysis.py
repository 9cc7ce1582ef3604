"""Empirical measurement layer: moduli, sup errors, sweeps, rate fits.

Also home of the function catalog.  Catalog entries carry closed-form
moduli of continuity (exact where elementary, otherwise certified upper
bounds), so bound checks stay sound: a grid-sampled modulus is only ever a
lower estimate of the true one and is used for diagnostics, never on the
right-hand side of a bound assertion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import bounds as bounds_mod
from .errors import HypothesisNotMetError
from .kernel import KernelParams, window_edge
from .operators import OperatorKind, OperatorSpec, TestFunction, apply_on_grid, central_moment
from .quadrature import DEFAULT_CONFIG, QuadratureConfig

__all__ = [
    "MeasurementGrid",
    "ConvergenceRecord",
    "SmoothnessRecord",
    "estimate_modulus",
    "sup_error",
    "run_convergence_sweep",
    "check_smoothness_preservation",
    "fit_rate",
    "CATALOG",
    "get_test_function",
    "DEFAULT_DOMAIN",
]

DEFAULT_DOMAIN = (-3.0, 3.0)


@dataclass(frozen=True)
class MeasurementGrid:
    """Strictly increasing sample points inside a closed interval."""

    domain: tuple[float, float]
    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        a, b = float(self.domain[0]), float(self.domain[1])
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("grid needs at least 2 points")
        if np.any(np.diff(pts) <= 0):
            raise ValueError("grid points must be strictly increasing")
        if pts[0] < a or pts[-1] > b:
            raise ValueError("grid points must lie inside the domain")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "domain", (a, b))

    @classmethod
    def uniform(cls, domain: tuple[float, float] = DEFAULT_DOMAIN, count: int = 2001) -> "MeasurementGrid":
        a, b = float(domain[0]), float(domain[1])
        return cls((a, b), np.linspace(a, b, count))

    @property
    def spacing(self) -> float:
        return float(np.diff(self.points).max())


@dataclass
class ConvergenceRecord:
    """One (function, operator, n) measurement paired with its bound;
    ``measured_sup_error`` is the residual of the sweep's Taylor order."""

    function: str
    kind: str
    n: int
    alpha: float
    q: float
    beta: float
    measured_sup_error: float
    bound_value: float | None
    bound_kind: str
    hypothesis_met: bool
    satisfied: bool | None
    note: str = ""


@dataclass(frozen=True)
class SmoothnessRecord:
    theta: float
    omega_f: float
    omega_Bf: float
    satisfied: bool


def _grid_modulus(points: np.ndarray, values: np.ndarray, theta: float) -> float:
    """Max |v_i - v_j| over grid pairs with |x_i - x_j| <= theta."""
    best = 0.0
    for m in range(1, points.size):
        gaps = points[m:] - points[:-m]
        ok = gaps <= theta
        if not ok.any():
            break
        diffs = np.abs(values[m:] - values[:-m])[ok]
        if diffs.size:
            best = max(best, float(diffs.max()))
    return best


def estimate_modulus(f, theta: float, grid: MeasurementGrid) -> float:
    """Modulus of continuity at theta.

    For a TestFunction with a closed-form modulus, the closed form is
    returned and the grid estimate is validated against it (the estimate,
    a lower bound, must not exceed the closed form beyond 1e-9 slack).
    For a bare callable (or a TestFunction without a closed form) the grid
    estimate itself is returned; it is a lower estimate of the true value.
    """
    if not theta > 0.0:
        raise ValueError(f"theta must be positive, got {theta!r}")
    if grid.spacing > theta / 4.0:
        raise ValueError(
            f"grid too coarse for theta={theta}: spacing {grid.spacing:.3g} exceeds theta/4"
        )
    evaluator = f.eval if isinstance(f, TestFunction) else f
    values = np.asarray(evaluator(grid.points), dtype=float)
    estimate = _grid_modulus(grid.points, values, theta)
    if isinstance(f, TestFunction) and f.modulus is not None:
        closed = float(f.modulus(theta))
        if estimate > closed + 1e-9:
            raise RuntimeError(
                f"grid modulus {estimate!r} exceeds the closed form {closed!r} for "
                f"{f.name} at theta={theta}; the closed form is not an upper bound"
            )
        return closed
    return estimate


def sup_error(f, approximation, grid: MeasurementGrid) -> float:
    """Max over the grid of |approximation(x) - f(x)|."""
    f_eval = f.eval if isinstance(f, TestFunction) else f
    a_vals = np.asarray(approximation(grid.points), dtype=float)
    f_vals = np.asarray(f_eval(grid.points), dtype=float)
    return float(np.abs(a_vals - f_vals).max())


def run_convergence_sweep(
    f: TestFunction,
    kind: OperatorKind | str | Sequence[OperatorKind | str],
    ns,
    alpha: float,
    params: KernelParams,
    grid: MeasurementGrid,
    weights: tuple[float, ...] | None = None,
    cfg: QuadratureConfig | None = None,
    order: int = 0,
) -> list[ConvergenceRecord]:
    """Measure the order-N residual and evaluate its bound for each n.

    The residual is max |B_n f - f - sum_{k=1..N} mu_k f^(k) / k!| over
    the grid, mu_k the operator's k-th central moment: the sup error for
    N = 0, the Taylor-corrected residual for N >= 1.  Where the hypothesis
    holds and f^(N) has a closed-form modulus, it is checked against
    ``jackson_bound`` (N = 0) or ``taylor_bound`` (N >= 1); otherwise the
    record carries no bound and ``satisfied`` is None.

    ``kind`` may also be a sequence of kinds, ``weights`` being the
    quadrature kind's (given without that kind, they raise ValueError as
    for a single kind); the result is then one list of records per kind,
    each that of the kind's own sweep bit for bit.  At each n one
    ``apply_on_grid`` call evaluates all kinds, which share its set-up, the
    trapezoidal rule's samples and the hinges' abscissae; should it fail,
    each kind is evaluated again alone, so a failure lands only in its own
    kind's records.

    Individual failures are recorded in the ``note`` field and the sweep
    continues; records come back ordered by n.
    """
    single = isinstance(kind, (OperatorKind, str))
    kinds = [OperatorKind(k) for k in ([kind] if single else kind)]
    # weights go to the quadrature kind; with no such kind every spec gets
    # them, and rejects them
    weighted = OperatorKind.QUADRATURE not in kinds
    cfg = cfg or DEFAULT_CONFIG
    fN = f.derivative(order) if order else f
    records: list[list[ConvergenceRecord]] = [[] for _ in kinds]
    for n in sorted(int(v) for v in ns):
        specs = [OperatorSpec(kind=k, n=n, params=params, alpha=alpha,
                              weights=weights if weighted or k is OperatorKind.QUADRATURE else None) for k in kinds]
        try:
            window_edge(n, alpha)
            hypothesis_met = True
        except HypothesisNotMetError:
            hypothesis_met = False
        rows = [None] * len(specs)
        if len(specs) > 1:
            try:
                rows = list(apply_on_grid(f, specs, grid.points, cfg))
            except Exception:  # evaluated kind by kind, each failure in its own records
                pass
        for spec, values, out in zip(specs, rows, records):
            out.append(_record(f, fN, spec, values, grid, order, hypothesis_met, cfg))
    return records[0] if single else records


def _record(f: TestFunction, fN: TestFunction, spec: OperatorSpec, values: np.ndarray | None,
            grid: MeasurementGrid, order: int, hypothesis_met: bool, cfg: QuadratureConfig) -> ConvergenceRecord:
    """One sweep record from the kind's values at the grid points (None:
    evaluate them here); a failure goes into its note."""
    kind, n, alpha, params = spec.kind, spec.n, spec.alpha, spec.params
    note = ""
    measured = math.nan
    bound_value: float | None = None
    bound_kind = ""
    satisfied: bool | None = None
    try:
        if values is None:
            values = apply_on_grid(f, spec, grid.points, cfg)
        correction = np.zeros_like(grid.points)
        for k in range(1, order + 1):
            moment = central_moment(spec, 0.0, k)
            correction += np.asarray(f.derivatives[k - 1](grid.points), dtype=float) * (
                moment / math.factorial(k)
            )
        measured = float(np.abs(values - np.asarray(f.eval(grid.points), dtype=float) - correction).max())
        if hypothesis_met and fN.modulus is not None:
            omega = float(fN.modulus(bounds_mod.omega_argument(kind, n, alpha)))
            if order:
                bound_value = bounds_mod.taylor_bound(kind, omega, params, n, alpha, order, fN.sup_norm)
            else:
                bound_value = bounds_mod.jackson_bound(omega, params, n, alpha, fN.sup_norm)
            bound_kind = f"{'taylor' if order else 'jackson'}-{kind.value}"
            satisfied = measured <= bound_value
    except Exception as exc:  # keep sweeping; the record carries the failure
        note = f"{type(exc).__name__}: {exc}"
    return ConvergenceRecord(
        function=f.name,
        kind=kind.value,
        n=n,
        alpha=alpha,
        q=params.q,
        beta=params.beta,
        measured_sup_error=measured,
        bound_value=bound_value,
        bound_kind=bound_kind,
        hypothesis_met=hypothesis_met,
        satisfied=satisfied,
        note=note,
    )


def check_smoothness_preservation(
    f: TestFunction,
    spec: OperatorSpec,
    thetas,
    grid: MeasurementGrid,
    cfg: QuadratureConfig | None = None,
) -> list[SmoothnessRecord]:
    """Grid-estimated moduli of f and of the operator output, per theta.

    Both sides use the same grid estimator, so the comparison is fair;
    the slack 4 * tol absorbs quadrature noise in the operator values.
    """
    cfg = cfg or DEFAULT_CONFIG
    thetas = [float(t) for t in thetas]
    if any(t <= 0 for t in thetas):
        raise ValueError("thetas must be positive")
    f_vals = np.asarray(f.eval(grid.points), dtype=float)
    b_vals = apply_on_grid(f, spec, grid.points, cfg)
    slack = 4.0 * cfg.tol
    out = []
    for theta in thetas:
        if grid.spacing > theta / 4.0:
            raise ValueError(f"grid too coarse for theta={theta}")
        omega_f = _grid_modulus(grid.points, f_vals, theta)
        omega_bf = _grid_modulus(grid.points, b_vals, theta)
        out.append(SmoothnessRecord(theta, omega_f, omega_bf, omega_bf <= omega_f + slack))
    return out


def fit_rate(records: list[ConvergenceRecord]) -> float:
    """Least-squares slope of log error against log n.

    All-zero errors report +inf (faster than any power); otherwise at
    least 3 positive-error records are required.
    """
    errors = [(r.n, r.measured_sup_error) for r in records if math.isfinite(r.measured_sup_error)]
    positive = [(n, e) for n, e in errors if e > 0.0]
    if errors and not positive:
        return math.inf
    if len(positive) < 3:
        raise ValueError(f"need >= 3 records with positive errors, got {len(positive)}")
    ns = np.log([n for n, _ in positive])
    es = np.log([e for _, e in positive])
    return float(np.polyfit(ns, es, 1)[0])


# ----------------------------------------------------------------------
# Function catalog
# ----------------------------------------------------------------------

_ABS_CLAMP = 3.0
_GAUSS_LIP = math.sqrt(2.0 / math.e)  # max |d/dx e^{-x^2}|


def _omega_trig(theta: float) -> float:
    return 2.0 * math.sin(0.5 * theta) if theta < math.pi else 2.0


def _omega_identity(theta: float) -> float:
    return theta


def _omega_abs(theta: float) -> float:
    return min(theta, 2.0 * _ABS_CLAMP)


def _omega_gauss(theta: float) -> float:
    # certified upper bound: Lipschitz constant sqrt(2/e), range height 1
    return min(_GAUSS_LIP * theta, 1.0)


def _omega_gauss_d1(theta: float) -> float:
    return min(2.0 * theta, 2.0 * _GAUSS_LIP)


def _omega_gauss_d2(theta: float) -> float:
    # |third derivative| of e^{-x^2} stays below 4
    return min(4.0 * theta, 4.0)


def _zero(theta: float) -> float:
    return 0.0


def _const_array(c):
    def evaluator(x, _c=float(c)):
        return np.full_like(np.asarray(x, dtype=float), _c)

    return evaluator


def _neg_sin(x):
    return -np.sin(x)


def _neg_cos(x):
    return -np.cos(x)


def _identity(x):
    return np.asarray(x, dtype=float) + 0.0


def _abs_clamped(x):
    return np.minimum(np.abs(np.asarray(x, dtype=float)), _ABS_CLAMP)


def _gauss(x):
    x = np.asarray(x, dtype=float)
    return np.exp(-x * x)


def _gauss_strip(y):
    """sup over real x of |exp(-(x + iy)^2)| = exp(y^2 - x^2) at x = 0."""
    y = np.asarray(y, dtype=float)
    return np.exp(y * y)


def _gauss_d1(x):
    x = np.asarray(x, dtype=float)
    return -2.0 * x * np.exp(-x * x)


def _gauss_d2(x):
    x = np.asarray(x, dtype=float)
    return (4.0 * x * x - 2.0) * np.exp(-x * x)


CATALOG: dict[str, TestFunction] = {
    "sin": TestFunction(
        name="sin",
        eval=np.sin,
        sup_norm=1.0,
        derivatives=(np.cos, _neg_sin, _neg_cos, np.sin),
        derivative_sup_norms=(1.0, 1.0, 1.0, 1.0),
        modulus=_omega_trig,
        derivative_moduli=(_omega_trig, _omega_trig, _omega_trig, _omega_trig),
        # |sin(x + iy)|^2 = sin^2 x + sinh^2 y <= cosh^2 y
        strip=np.cosh,
    ),
    "cos": TestFunction(
        name="cos",
        eval=np.cos,
        sup_norm=1.0,
        derivatives=(_neg_sin, _neg_cos, np.sin, np.cos),
        derivative_sup_norms=(1.0, 1.0, 1.0, 1.0),
        modulus=_omega_trig,
        derivative_moduli=(_omega_trig, _omega_trig, _omega_trig, _omega_trig),
        # |cos(x + iy)|^2 = cos^2 x + sinh^2 y <= cosh^2 y
        strip=np.cosh,
    ),
    # |x| clamped at the working-domain edge so it stays bounded; the kink
    # at 0 is what the non-smooth test cases are after
    "abs": TestFunction(
        name="abs",
        eval=_abs_clamped,
        sup_norm=_ABS_CLAMP,
        modulus=_omega_abs,
        kinks=(-_ABS_CLAMP, 0.0, _ABS_CLAMP),
        # min(|x|, 3) = 3 + |x| - (|x - 3| + |x + 3|) / 2: the smooth part is 3
        jumps=(-1.0, 2.0, -1.0),
        strip=_const_array(_ABS_CLAMP),
    ),
    "gauss": TestFunction(
        name="gauss",
        eval=_gauss,
        sup_norm=1.0,
        derivatives=(_gauss_d1, _gauss_d2),
        derivative_sup_norms=(_GAUSS_LIP, 2.0),
        modulus=_omega_gauss,
        derivative_moduli=(_omega_gauss_d1, _omega_gauss_d2),
        strip=_gauss_strip,
    ),
    # unbounded globally; sup_norm is the working-domain sup.  Used for the
    # identity-reproduction facts, not for bounded-function error bounds.
    "id": TestFunction(
        name="id",
        eval=_identity,
        sup_norm=3.0,
        derivatives=(_const_array(1.0), _const_array(0.0)),
        derivative_sup_norms=(1.0, 0.0),
        modulus=_omega_identity,
        derivative_moduli=(_zero, _zero),
    ),
    "one": TestFunction(
        name="one",
        eval=_const_array(1.0),
        sup_norm=1.0,
        derivatives=(_const_array(0.0), _const_array(0.0)),
        derivative_sup_norms=(0.0, 0.0),
        modulus=_zero,
        derivative_moduli=(_zero, _zero),
        strip=_const_array(1.0),
    ),
}


def get_test_function(name: str) -> TestFunction:
    try:
        return CATALOG[name]
    except KeyError:
        known = ", ".join(sorted(CATALOG))
        raise KeyError(f"unknown catalog function {name!r}; known: {known}") from None

"""Adaptive numerical integration over finite intervals and the real line.

The base rule is a nested 15-point Kronrod extension of 7-point Gauss: one
panel evaluation yields a high-order value plus an embedded lower-order
estimate whose difference serves as the panel error.  Panels are refined by
strict bisection with an error budget proportional to panel width, so
results are deterministic (identical inputs give bit-identical outputs).

Real-line integrals of kernel-dominated integrands are truncated to a
window [-R, R] chosen from the kernel's exponential envelope, with the
excluded tail mass folded into the reported error estimate.

Integrands are called with numpy arrays of abscissae (15 per panel) and
must return arrays of the same shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import KernelParams

__all__ = [
    "QuadratureConfig",
    "IntegralResult",
    "TailEnvelope",
    "truncation_radius",
    "moment_truncation_radius",
    "integrate_interval",
    "integrate_real_line",
    "GK15_NODES",
    "GK15_WEIGHTS",
    "G7_WEIGHTS",
]

# 15-point Kronrod abscissae (positive half, decreasing) and weights, with
# the embedded 7-point Gauss weights.  Standard values, accurate to ~1e-33.
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

#: the 15 Kronrod nodes on [-1, 1], ascending
GK15_NODES = np.concatenate((-_XGK[:7], _XGK[::-1]))
#: Kronrod weights aligned with GK15_NODES
GK15_WEIGHTS = np.concatenate((_WGK[:7], _WGK[::-1]))
#: embedded Gauss weights aligned with GK15_NODES (zero at Kronrod-only nodes)
G7_WEIGHTS = np.zeros(15)
G7_WEIGHTS[1:14:2] = np.concatenate((_WG[:3], _WG[::-1]))

GK15_NODES.setflags(write=False)
GK15_WEIGHTS.setflags(write=False)
G7_WEIGHTS.setflags(write=False)


#: the most splits of one ``integrate_interval`` call, and the most panels
#: per kernel window (width 2R/n) in the grid engine ``operators.apply_on_grid``
MAX_SUBDIVISIONS = 2000


@dataclass(frozen=True)
class QuadratureConfig:
    """The one accuracy knob of every integral: ``tol``, a finite real > 0.

    A result v is accepted once its error estimate is at most
    ``allowance(v)`` = tol max(1, |v|).  The kernel mass allowed outside a
    truncation window, ``truncation_eps``, is tol / 100 (kept within
    [1e-300, 1/2], where a window radius exists), so the truncated tail
    stays two digits below the allowance.  The refinement limit
    (``MAX_SUBDIVISIONS``) is a constant.
    """

    tol: float = 1e-10

    def __post_init__(self):
        # nan and +-inf fail the comparisons
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol must be a finite real > 0, got {self.tol!r}")

    @property
    def truncation_eps(self) -> float:
        """The kernel mass allowed outside a truncation window."""
        return min(max(self.tol / 100.0, 1e-300), 0.5)

    def allowance(self, value: float) -> float:
        """The error allowed in a result of size |value|: tol max(1, |value|)."""
        return self.tol * max(1.0, abs(value))

    def radius(self, params: KernelParams, size: float) -> float:
        """The truncation radius R for an integrand of at most ``size`` times
        the kernel: size (at least 1) times the kernel mass outside [-R, R]
        is at most ``truncation_eps``."""
        return truncation_radius(params, max(self.truncation_eps / max(size, 1.0), 1e-300))


DEFAULT_CONFIG = QuadratureConfig()


@dataclass(frozen=True)
class IntegralResult:
    value: float
    error_estimate: float
    subdivisions_used: int
    converged: bool = True


@dataclass(frozen=True)
class TailEnvelope:
    """Decay descriptor for a real-line integrand dominated by scale * psi."""

    params: KernelParams
    scale: float = 1.0


def truncation_radius(params: KernelParams, eps: float) -> float:
    """Radius R >= 1 with kernel mass outside [-R, R] at most eps:

        R = 1 + ln((q + 1/q) / eps) / beta,

    clamped to 1 when the envelope already sits below eps at its edge.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must lie in (0, 1), got {eps!r}")
    return max(1.0, 1.0 + math.log(params.q_sum / eps) / params.beta)


def moment_truncation_radius(params: KernelParams, k: int, eps: float) -> float:
    """Radius R with |h|^k-weighted kernel mass outside [-R, R] at most eps.

    Uses t^k <= 2^k k! e^(t/2) on the envelope, giving
    R = (2 / beta) ln((q + 1/q) e^beta 2^(k+1) k! / (beta^k eps)).
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return truncation_radius(params, eps)
    b = params.beta
    arg = params.q_sum * math.exp(b) * 2.0 ** (k + 1) * float(math.factorial(int(k))) / (b**k * eps)
    return max(truncation_radius(params, eps), (2.0 / b) * math.log(max(arg, 2.0)))


def _panel(f, a: float, b: float) -> tuple[float, float]:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    y = np.asarray(f(mid + half * GK15_NODES), dtype=float)
    i15 = half * float(GK15_WEIGHTS @ y)
    i7 = half * float(G7_WEIGHTS @ y)
    return i15, abs(i15 - i7)


def integrate_interval(f, a: float, b: float, cfg: QuadratureConfig | None = None) -> IntegralResult:
    """Adaptive nested-rule integration of f over [a, b].

    A panel is accepted once its embedded error fits the budget
    ``cfg.allowance(I0)`` * width / (b - a), I0 the one-panel value over
    [a, b]; otherwise it is bisected.  Exhausting ``MAX_SUBDIVISIONS``
    splits, or a panel whose error estimate is not finite
    (bisection cannot repair a NaN or infinite sample), returns the
    accumulated result flagged non-converged; the caller decides how to
    proceed.
    """
    cfg = cfg or DEFAULT_CONFIG
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integration limits must be finite")
    if a > b:
        raise ValueError(f"requires a <= b, got a={a}, b={b}")
    if a == b:
        return IntegralResult(0.0, 0.0, 0, True)

    span = b - a
    i0, e0 = _panel(f, a, b)
    tol = cfg.allowance(i0)
    min_width = span * 1e-15

    stack = [(a, b, i0, e0)]
    value = 0.0
    err = 0.0
    splits = 0
    converged = True
    while stack:
        pa, pb, pi, pe = stack.pop()
        width = pb - pa
        mid = 0.5 * (pa + pb)
        if pe <= tol * (width / span) or width <= min_width or mid <= pa or mid >= pb:
            value += pi
            err += pe
            continue
        if splits >= MAX_SUBDIVISIONS or not math.isfinite(pe):
            converged = False
            value += pi
            err += pe
            continue
        splits += 1
        li, le = _panel(f, pa, mid)
        ri, re = _panel(f, mid, pb)
        # push right first so the left half is processed next (ascending order)
        stack.append((mid, pb, ri, re))
        stack.append((pa, mid, li, le))
    return IntegralResult(value, err, splits, converged)


def integrate_real_line(f, decay: TailEnvelope, cfg: QuadratureConfig | None = None) -> IntegralResult:
    """Integrate f over the real line, truncating by the kernel envelope.

    ``decay`` asserts |f| <= decay.scale * psi outside the window; the
    window radius is ``cfg.radius(decay.params, decay.scale)``, so the
    excluded mass stays at or below ``truncation_eps``, which is added to
    the reported error estimate.
    """
    cfg = cfg or DEFAULT_CONFIG
    radius = cfg.radius(decay.params, float(decay.scale))
    res = integrate_interval(f, -radius, radius, cfg)
    return IntegralResult(
        res.value,
        res.error_estimate + cfg.truncation_eps,
        res.subdivisions_used,
        res.converged,
    )

"""Adaptive numerical integration over finite intervals and the real line.

The base rule is a nested 15-point Kronrod extension of 7-point Gauss: one
panel evaluation yields a high-order value plus an embedded lower-order
estimate whose difference serves as the panel error.  Panels are refined by
strict bisection with an error budget proportional to panel width, so
results are deterministic (identical inputs give bit-identical outputs).

Real-line integrals of kernel-dominated integrands are truncated to a
window [-R, R] chosen from the kernel's exponential envelope, with the
excluded tail mass folded into the reported error estimate, and seeded
with panels at the kernel's own scale.

Integrands are called with 1-d numpy arrays of abscissae: the seed panels
all at once, 15 nodes each, then 15 per split panel.  They must work
elementwise on arrays of any length and return arrays of the same shape.
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
    "kernel_breaks",
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


#: the most splits of one ``integrate_interval`` call
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

    def width(self, params: KernelParams, size: float) -> float:
        """The GK15 panel width W that resolves ``size`` times psi to tol:
        the largest power of two not above min(R, 4 pi / (beta (rho -
        1/rho))), R = ``radius(params, size)``, and at least 2^-10.  psi is
        analytic in |Im v| < pi / beta, reached by the Bernstein ellipse
        rho of a panel of width W, whose G7 error ~rho^-14 dominates
        |K15 - G7|; rho = (size min(10, 2 / beta) / tol)^(1/14), the
        constants fitted on GK15 tilings of psi (Trefethen, SIAM Review 50,
        2008).  At tol = 1e-10 and size 1, W is 4 at beta = 0.5, 2 at
        beta = 1, 1/2 at beta = 3 and 1/8 at beta = 20.  It only seeds the
        real-line integrals (``kernel_breaks``)."""
        rho = (size * min(10.0, 2.0 / params.beta) / self.tol) ** (1.0 / 14.0)
        limit = self.radius(params, size)
        if rho > 1.0:
            limit = min(limit, 4.0 * math.pi / (params.beta * (rho - 1.0 / rho)))
        # frexp(x) = (m, e) with x = m 2^e, 1/2 <= m < 1
        return max(2.0**-10, math.ldexp(1.0, math.frexp(limit)[1] - 1))


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
    Where the quotient overflows (q or 1/q above about 1e296 at eps =
    1e-12), the logarithms are taken apart.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must lie in (0, 1), got {eps!r}")
    ratio = params.q_sum / eps
    log_ratio = math.log(ratio) if ratio < math.inf else math.log(params.q_sum) - math.log(eps)
    return max(1.0, 1.0 + log_ratio / params.beta)


def moment_truncation_radius(params: KernelParams, k: int, eps: float) -> float:
    """Radius R with |h|^k-weighted kernel mass outside [-R, R] at most eps.

    Uses t^k <= 2^k k! e^(t/2) on the envelope, giving
    R = (2 / beta) ln((q + 1/q) e^beta 2^(k+1) k! / (beta^k eps)).
    Where that argument overflows, its logarithm is taken as a sum.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return truncation_radius(params, eps)
    b = params.beta
    try:
        arg = params.q_sum * math.exp(b) * 2.0 ** (k + 1) * float(math.factorial(int(k))) / (b**k * eps)
    except (OverflowError, ZeroDivisionError):
        arg = math.inf
    if arg < math.inf:
        log_arg = math.log(max(arg, 2.0))
    else:
        log_arg = (math.log(params.q_sum) + b + (k + 1) * math.log(2.0) + math.lgamma(k + 1)
                   - k * math.log(b) - math.log(eps))
    return max(truncation_radius(params, eps), (2.0 / b) * log_arg)


def _rule(half: float, y: np.ndarray) -> tuple[float, float]:
    """K15 and |K15 - G7| of a panel of half-width ``half`` from its 15 values."""
    i15 = half * float(GK15_WEIGHTS @ y)
    i7 = half * float(G7_WEIGHTS @ y)
    return i15, abs(i15 - i7)


def _panel(f, a: float, b: float) -> tuple[float, float]:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return _rule(half, np.asarray(f(mid + half * GK15_NODES), dtype=float))


def _seeds(f, edges: list[float]) -> list[tuple[float, float, float, float]]:
    """The panels (a, b, K15, |K15 - G7|) between consecutive ``edges``, all
    from one call of f on their 15 nodes each: every panel gets the bits
    ``_panel`` gives it."""
    lo = np.array(edges[:-1])
    hi = np.array(edges[1:])
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (lo + hi))[:, None] + half[:, None] * GK15_NODES
    y = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    return [(a, b, *_rule(h, row)) for a, b, h, row in zip(edges[:-1], edges[1:], half.tolist(), y)]


def integrate_interval(f, a: float, b: float, cfg: QuadratureConfig | None = None,
                       breaks=()) -> IntegralResult:
    """Adaptive nested-rule integration of f over [a, b].

    The seed panels run between a, the ``breaks`` that lie strictly
    inside (a, b) (sorted, without repeats; other points are ignored) and
    b, as QUADPACK's QAGP seeds them, so a kink of f at a break is never
    bisected.  The P seed panels are evaluated in one call of f on their
    15 P nodes; each keeps the bits a one-panel call gives it.  A panel is
    accepted once its embedded error fits the budget
    ``cfg.allowance(I0)`` * width / (b - a), I0 the sum of the seed
    panels' values, added left to right (the one-panel value over [a, b]
    when no break lies inside); otherwise it is bisected.  Exhausting
    ``MAX_SUBDIVISIONS`` splits, or a panel whose error estimate is not
    finite (bisection cannot repair a NaN or infinite sample), returns the
    accumulated result marked non-converged; the caller decides how to
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
    edges = [a, *sorted({float(t) for t in breaks if a < t < b}), b]
    seeds = _seeds(f, edges)
    tol = cfg.allowance(sum(seed[2] for seed in seeds))
    min_width = span * 1e-15

    stack = seeds[::-1]
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


#: the most seed panels of ``kernel_breaks``
_MAX_SEEDS = 128


def kernel_breaks(params: KernelParams, a: float, b: float, cfg: QuadratureConfig | None = None,
                  size: float = 1.0) -> list[float]:
    """The multiples inside (a, b) of the kernel's panel width W =
    ``cfg.width(params, size)``, the seed breaks of an integral of up to
    ``size`` times psi over [a, b].  W is widened to the narrowest power
    of two that cuts [a, b] into at most ``_MAX_SEEDS`` panels, so a sharp
    kernel (beta = 700, R about 1 to 2) is not cut into hundreds of
    panels.  A power of two keeps the multiples exact."""
    cfg = cfg or DEFAULT_CONFIG
    m, e = math.frexp((b - a) / _MAX_SEEDS)
    width = max(cfg.width(params, size), math.ldexp(1.0, e - 1 if m == 0.5 else e))
    return [k * width for k in range(math.floor(a / width) + 1, math.ceil(b / width))]


def integrate_real_line(f, decay: TailEnvelope, cfg: QuadratureConfig | None = None) -> IntegralResult:
    """Integrate f over the real line, truncating by the kernel envelope.

    ``decay`` asserts |f| <= decay.scale * psi outside the window; the
    window radius is ``cfg.radius(decay.params, decay.scale)``, so the
    excluded mass stays at or below ``truncation_eps``, which is added to
    the reported error estimate.  The window is seeded at
    ``kernel_breaks``, the multiples of the kernel's panel width W
    (``cfg.width``): GK15 panels of width W resolve psi, mostly without
    a split, and all seeds take one call of f.
    """
    cfg = cfg or DEFAULT_CONFIG
    scale = float(decay.scale)
    radius = cfg.radius(decay.params, scale)
    res = integrate_interval(f, -radius, radius, cfg, kernel_breaks(decay.params, -radius, radius, cfg, scale))
    return IntegralResult(
        res.value,
        res.error_estimate + cfg.truncation_eps,
        res.subdivisions_used,
        res.converged,
    )

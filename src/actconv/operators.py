"""The three convolution operators and their grid-based compositions.

All three operators average translates of a bounded continuous function
against the symmetrized kernel ``psi`` at resolution ``n``:

* basic:        point samples f(x - h/n),
* kantorovich:  local averages n * integral of f over [u, u + 1/n],
* quadrature:   convex combinations sum_s w_s f(u + s/(n r)).

Each is the integral of f(x - v/n) k(v) dv with a kernel k of its own
(``_Kernel``, the only code that knows how a kind averages f): psi for
basic, the unit-window average psi_average(v) = integral of psi(v + t)
over t in [0, 1] for kantorovich, and sum_s w_s psi(v + s/r) for
quadrature.  Everything else samples f itself, at its own kinks.

Every kind's kernel is analytic in the strip |Im v| < pi / beta, with
|k(v + iy)| <= k(v) / cos^2(beta y / 2): psi's denominator is (w + e^beta)
(w + e^-beta), w = q e^(-beta v), and |w + c| >= (|w| + c) cos(arg w / 2),
and the averaging kinds inherit the bound.  ``apply_on_grid`` has one
engine, the trapezoidal rule B f(x) ~ tau sum_{|j| <= J} k(j tau)
f(x - j tau / n), which converges exponentially (Trefethen & Weideman,
SIAM Review 56, 2014).  For f with a strip majorant
(``TestFunction.strip``) its error has an a-priori bound: tau is the
largest step whose proven error stays within tol, and a call no step can
serve is refused before anything is evaluated (see ``_rule``).  For f
without one (``id``, ``from_callable`` functions) tau is halved from a step
sized for a constant until two successive halvings agree (see
``_estimate``).
The kinds of a call share tau and the samples of f.  A kinked f declares
its slope jumps j_k (the catalog's abs): it is a + sum_k (j_k / 2) |u - k|
with a smooth, and the operators are linear and commute with
translation, so B f(x) = f(x - EW) + [B a(x) - a(x - EW)] + sum_k j_k
g(x - k), W = V / n with V ~ k, and g(y) = E(W - y)+ - (EW - y)+.  The
rule gives B a (a bounded entire a is constant, and then the bracket is
0 and the rule is sized but not run), and g at the abscissae n (x - k)
is a difference of complete Fermi-Dirac integrals (``_Kernel.hinge``,
see ``_kinked``), with no kernel call.  ``apply`` (and
the kind-specific wrappers) integrate a single point adaptively in the
kernel variable v by a nested Kronrod rule, with the window's seed panels
cut at the kinks of f, v = n (x - kink).

Accuracy is set by one knob, ``QuadratureConfig.tol``: ``apply`` and the
estimated rule accept a value v once its error estimate is within
``cfg.allowance(v)`` = tol max(1, |v|) (on a grid, v is the largest
|value|), the proven errors of the trapezoidal rule, with the rounding
of the hinges and those left out, are within tol, and every path
truncates every kind's kernel to one window [-R - 1, R + 1], R =
``cfg.radius(params, sup |f|)`` the radius beyond which psi's mass,
times sup |f|, is at most tol / 100 (averaging moves that mass left by
at most 1, see ``_Kernel``; scalar ``apply`` stops at R, above which no
kind has more; the hinges are whole).  The panel limit of ``apply``
(``quadrature.MAX_SUBDIVISIONS``), the grid engine's node budget
(``_NODE_BUDGET``) and the approximants' residual ceiling
(``RESIDUAL_CEILING``) are constants.

Iterated and mixed compositions chain the operators at ascending n.
Stages 1 to r - 1 are operators, not interpolants: for bounded g, B g(x +
iy) is the integral of g(x - v/n) k(v + iny) dv, so |B g(x + iy)| <= sup
|g| / cos^2(beta n y / 2) on |y| < pi / (beta n), and the next stage takes
B g at a proven step, only where its rule samples (``_stage``).  Stage r
samples the operator on the 2N - 1 Chebyshev extrema of the domain: the
even ones are the N interpolation nodes, the odd ones (theta-midpoints)
give the residual.  From N = 17, while the residual exceeds the allowance,
only the new midpoints are sampled, so every extremum is sampled once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import kernel, quadrature
from .errors import FlaggedApproximantError, NonFiniteSampleError, QuadratureNonConvergedError
from .kernel import KernelParams
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, integrate_interval

__all__ = [
    "OperatorKind",
    "OperatorSpec",
    "TestFunction",
    "GridApproximant",
    "apply",
    "apply_basic",
    "apply_kantorovich",
    "apply_quadrature_kind",
    "apply_on_grid",
    "apply_derivative",
    "central_moment",
    "make_grid_approximant",
    "iterate",
    "compose_mixed",
]


# how far quadrature weights may sum from 1
_WEIGHT_TOL = 1e-12
#: the largest interpolation residual of an approximant that is not flagged
RESIDUAL_CEILING = 1e-6
# the node counts of an approximant's first and last rounds
_FIRST_NODES = 17
_MAX_NODES = 1025


class OperatorKind(str, Enum):
    BASIC = "basic"
    KANTOROVICH = "kantorovich"
    QUADRATURE = "quadrature"


@dataclass(frozen=True)
class OperatorSpec:
    """Operator kind, resolution n, kernel parameters and bound exponent.

    ``weights`` is required for (and only for) the quadrature kind: a
    finite, nonnegative tuple summing to 1 within ``_WEIGHT_TOL``.
    """

    kind: OperatorKind
    n: int
    params: KernelParams
    alpha: float = 0.5
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", OperatorKind(self.kind))
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha!r}")
        if self.kind is OperatorKind.QUADRATURE:
            if not self.weights:
                raise ValueError("quadrature kind requires a nonempty weights tuple")
            w = tuple(float(v) for v in self.weights)
            # nan passes both the sign test and the sum test
            if not all(math.isfinite(v) and v >= 0.0 for v in w):
                raise ValueError(f"weights must be finite and nonnegative, got {w}")
            if abs(math.fsum(w) - 1.0) > _WEIGHT_TOL:
                raise ValueError(f"weights must sum to 1 within {_WEIGHT_TOL}, got {math.fsum(w)!r}")
            object.__setattr__(self, "weights", w)
        elif self.weights is not None:
            raise ValueError(f"weights are only meaningful for the quadrature kind, got kind={self.kind.value}")

    @property
    def r(self) -> int:
        """Number of quadrature shifts (1 outside the quadrature kind)."""
        return len(self.weights) if self.weights else 1


@dataclass(frozen=True)
class TestFunction:
    """A catalog function: vectorized evaluator plus known analytic facts.

    ``sup_norm`` bounds |f|: the grid engine's kernel radius, its strip
    majorants and slope bound, and a chain's stages (``_stage``) take it as
    a bound on the whole line, which the catalog's ``id`` (3, its sup on
    [-3, 3]) is not.  ``modulus`` (when
    present) is a closed-form value of, or certified upper bound on, the
    modulus of continuity, and ``kinks`` lists points where f is not
    smooth, with ``jumps`` the slope jumps f'(k+) - f'(k-) there, in their
    order: f is a + sum_k (j_k / 2) |u - k| with a smooth at the kinks.  A
    kinked f needs its jumps (else ValueError), and jumps must be finite
    and as many as the kinks.  ``derivatives`` hold analytic derivative
    evaluators with their own sup norms and moduli.  ``strip`` (when
    present) is a strip majorant of the smooth part a (f itself, without
    kinks): a extends to an entire function with sup over real x of
    |a(x + iy)| at most strip(y) for y >= 0, nondecreasing in y and
    evaluated elementwise on arrays; with it ``apply_on_grid`` takes the
    trapezoidal rule at a proven step, without it at an estimated one.  A
    strip finite at infinity bounds a on the whole plane, so a is constant
    (Liouville): a kinked f then needs no rule for a.  The derivatives of
    a kink-free f with a strip get one by Cauchy's estimate on discs of
    radius r: |a^(k)(x + iy)| <= k! strip(y + r) / r^k, the least over
    ``_DISC_RADII``; derivatives of a kinked f get none.
    """

    name: str
    eval: Callable[[np.ndarray], np.ndarray]
    sup_norm: float
    derivatives: tuple[Callable, ...] = ()
    derivative_sup_norms: tuple[float, ...] = ()
    modulus: Callable[[float], float] | None = None
    derivative_moduli: tuple = ()
    kinks: tuple[float, ...] = ()
    strip: Callable[[np.ndarray], np.ndarray] | None = None
    jumps: tuple[float, ...] = ()

    __test__ = False  # not a pytest test class despite the name

    def __post_init__(self):
        jumps = tuple(float(j) for j in self.jumps)
        if not all(math.isfinite(j) for j in jumps):
            raise ValueError(f"jumps must be finite, got {jumps}")
        if jumps and len(jumps) != len(self.kinks):
            raise ValueError(f"jumps must be as many as the kinks, got {len(jumps)} for {len(self.kinks)}")
        if self.kinks and not jumps:
            raise ValueError(f"{self.name} has kinks but no slope jumps")
        object.__setattr__(self, "jumps", jumps)

    def __call__(self, x):
        return self.eval(x)

    def derivative(self, k: int) -> "TestFunction":
        """The k-th derivative as a TestFunction (requires analytic data)."""
        if not (isinstance(k, (int, np.integer)) and k >= 1):
            raise ValueError(f"derivative order must be a positive integer, got {k!r}")
        if k > len(self.derivatives):
            raise ValueError(
                f"{self.name} carries {len(self.derivatives)} analytic derivative(s); "
                f"order {k} requires supplying one (no silent finite differencing)"
            )
        return TestFunction(
            name=f"{self.name}^({k})",
            eval=self.derivatives[k - 1],
            sup_norm=self.derivative_sup_norms[k - 1],
            derivatives=self.derivatives[k:],
            derivative_sup_norms=self.derivative_sup_norms[k:],
            modulus=self.derivative_moduli[k - 1] if k <= len(self.derivative_moduli) else None,
            derivative_moduli=self.derivative_moduli[k:],
            strip=None if self.strip is None or self.kinks else _cauchy(self.strip, k),
        )

    @classmethod
    def from_callable(cls, name: str, fn: Callable, sup_norm: float, **kwargs) -> "TestFunction":
        return cls(name=name, eval=fn, sup_norm=float(sup_norm), **kwargs)


def _cauchy(strip: Callable, k: int) -> Callable:
    """The strip majorant k! min_r strip(y + r) / r^k of the k-th
    derivative of a function with the strip majorant ``strip`` (see
    ``TestFunction``), taken in logarithms so that r^k cannot overflow."""

    def derived(y):
        y = np.asarray(y, dtype=float)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            logs = np.log(np.asarray(strip(y[..., None] + _DISC_RADII), dtype=float)) - k * np.log(_DISC_RADII)
            return np.exp(math.lgamma(k + 1) + logs.min(axis=-1))

    return derived


@dataclass(frozen=True)
class _Kernel:
    """The kernel k of one kind: the operator maps f to the integral of
    f(x - v/n) k(v) dv.  This is the only code that knows how a kind
    averages f.

    The operator samples f at x + (T - H)/n, H ~ psi and T the kind's
    offset: 0 (basic), uniform on [0, 1] (kantorovich), or s/r with weight
    w_s (quadrature).  So k(v) = E psi(v + T): psi, ``kernel.psi_average``,
    or sum_s w_s psi(v + s/r).  Averaging keeps k positive with unit mass
    and moves psi's mass left by at most 1, so every kind is truncated to
    the one window [-R - 1, R + 1] around psi's [-R, R]; the mass that
    basic gains there is below tol / 100."""

    kind: OperatorKind
    params: KernelParams
    weights: tuple[float, ...] | None = None

    def __call__(self, v):
        if self.kind is OperatorKind.BASIC:
            return kernel.psi(self.params, v)
        if self.kind is OperatorKind.KANTOROVICH:
            return kernel.psi_average(self.params, v)
        # one psi call per block of v on its (r, size) array of shifted
        # arguments, which holds at most the values of one block of the
        # grid engine; the weighted rows are added in order
        v = np.asarray(v, dtype=float)
        r = len(self.weights)
        shifts = np.arange(1, r + 1)[:, None] / r
        weights = np.asarray(self.weights)[:, None]
        flat = v.reshape(-1)
        out = np.empty(flat.size)
        step = max(1, 15 * _CHUNK_ROWS // r)
        for i in range(0, flat.size, step):
            out[i:i + step] = _node_sum(kernel.psi(self.params, flat[i:i + step] + shifts) * weights)
        return out.reshape(v.shape)

    def offset_moments(self, k: int) -> list[float]:
        """E[T^j] for j = 0..k."""
        if self.kind is OperatorKind.BASIC:
            return [1.0] + [0.0] * k
        if self.kind is OperatorKind.KANTOROVICH:
            return [1.0 / (j + 1) for j in range(k + 1)]
        r = len(self.weights)
        return [math.fsum(w * (s / r) ** j for s, w in enumerate(self.weights, start=1)) for j in range(k + 1)]

    def hinge(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """n g(s / n) = E(V - s)+ - (EV - s)+, V ~ k, at the abscissae s in
        closed form with a bound on its error: E(V - s)+ for s >= EV = -E T,
        else E(s - V)+.  V = H - T and H ~ -H, so basic and quadrature take
        E(H - y)+ (``kernel.upper_moment``) at y = s + T above and -(s + T)
        below, and kantorovich, T = 1/2 + a centred uniform of width 1,
        takes it at y = s + 1/2 above and -1 - s + 1/2 below.  The weighted
        sum of nonnegative terms rounds by at most (r + 1) ulp of it."""
        upper = s >= -self.offset_moments(1)[1]
        if self.kind is OperatorKind.KANTOROVICH:
            return kernel.upper_moment(self.params, 1, np.where(upper, s, -1.0 - s) + 0.5, (1.0,))
        weights = np.asarray(self.weights or (1.0,))[:, None]
        shifts = np.arange(1, weights.size + 1)[:, None] / weights.size if self.weights else np.zeros((1, 1))
        values, errors = kernel.upper_moment(self.params, 1, np.where(upper, s + shifts, -(s + shifts)))
        hinge = _node_sum(values * weights)
        return hinge, _node_sum(errors * weights) + (weights.size + 1) * _ULP * hinge


def _kernel(spec: OperatorSpec) -> _Kernel:
    return _Kernel(spec.kind, spec.params, spec.weights)


def _check_kind(spec: OperatorSpec, expected: OperatorKind):
    if spec.kind is not expected:
        raise ValueError(f"spec.kind must be {expected.value}, got {spec.kind.value}")


def _apply_scalar(f: TestFunction, spec: OperatorSpec, x: float, cfg: QuadratureConfig) -> float:
    if not math.isfinite(x):
        raise ValueError("x must be finite")
    k, n = _kernel(spec), spec.n

    def integrand(v):
        return np.asarray(f.eval(x - v / n), dtype=float) * k(v)

    radius = cfg.radius(spec.params, f.sup_norm)
    # no kind's kernel has mass above R beyond tol / 100; the kinks of
    # f(x - v / n) in the kernel variable, where panels are cut
    res = integrate_interval(integrand, -radius - 1.0, radius, cfg, [n * (x - kink) for kink in f.kinks])
    # the kernel is finite, so a non-finite integral comes from the samples
    if not math.isfinite(res.value):
        raise NonFiniteSampleError(
            f"{f.name} is not finite within the kernel window "
            f"(operator={spec.kind.value}, x={x}, n={n})"
        )
    if not res.converged:
        raise QuadratureNonConvergedError(
            f"operator quadrature did not converge (operator={spec.kind.value}, x={x}, n={n})"
        )
    return res.value


def apply(f: TestFunction, spec: OperatorSpec, x: float, cfg: QuadratureConfig | None = None) -> float:
    """Evaluate the operator named by ``spec.kind`` at a single point."""
    return _apply_scalar(f, spec, float(x), cfg or DEFAULT_CONFIG)


def apply_basic(f: TestFunction, spec: OperatorSpec, x: float, cfg: QuadratureConfig | None = None) -> float:
    """Point-sample convolution: integral of f(x - h/n) psi(h) dh."""
    _check_kind(spec, OperatorKind.BASIC)
    return apply(f, spec, x, cfg)


def apply_kantorovich(f: TestFunction, spec: OperatorSpec, x: float, cfg: QuadratureConfig | None = None) -> float:
    """Local-average convolution: n * inner averages of f over [., . + 1/n]."""
    _check_kind(spec, OperatorKind.KANTOROVICH)
    return apply(f, spec, x, cfg)


def apply_quadrature_kind(f: TestFunction, spec: OperatorSpec, x: float, cfg: QuadratureConfig | None = None) -> float:
    """Shifted-sample convolution with convex weights w_s at shifts s/(n r)."""
    _check_kind(spec, OperatorKind.QUADRATURE)
    return apply(f, spec, x, cfg)


def apply_derivative(f: TestFunction, spec: OperatorSpec, k: int, x: float, cfg: QuadratureConfig | None = None) -> float:
    """k-th derivative of the operator output, via the commuting identity
    (B f)^{(k)} = B(f^{(k)}).  Requires analytic derivatives on f."""
    return apply(f.derivative(k), spec, x, cfg)


# the block budget of the grid engine's sums: 15 _CHUNK_ROWS float64 values
# stay below glibc's default 128 KiB mmap threshold
_CHUNK_ROWS = 1024
# the most kernel nodes 2J + 1 of one grid call's trapezoidal rule
_NODE_BUDGET = 30_000


def _node_sum(terms: np.ndarray) -> np.ndarray:
    """Column sums of a (nodes, rows) array, adding the nodes in order for
    any row count: numpy reduces a lone column pairwise, so it is reduced
    beside a column of zeros."""
    if terms.shape[1] == 1:
        return np.add.reduce(np.concatenate((terms, np.zeros_like(terms)), axis=1))[:1]
    return np.add.reduce(terms)


def _sample(f: TestFunction, specs: Sequence[OperatorSpec], t: np.ndarray, c: np.ndarray) -> np.ndarray:
    """f at the nodes u = c + t, every value finite; the error names the
    kinds the samples serve."""
    u = c + t
    fu = np.asarray(f.eval(u), dtype=float)
    finite = np.isfinite(fu)
    if not finite.all():
        raise NonFiniteSampleError(
            f"{f.name} is not finite at u={float(u.flat[int(np.argmin(finite))])!r} "
            f"(operator={'/'.join(s.kind.value for s in specs)}, n={specs[0].n})"
        )
    return fu


def _drift(grid: np.ndarray) -> float:
    """How far the points of a sorted grid of two or more points lie from
    the points x0 + i h of the trapezoidal rule's sample lattice (see
    ``_rule``), h the mean spacing: the largest |(x_i - x0) - i h| as
    computed, plus one ulp of the span for the rounding of that difference.
    np.linspace rounds each point to a double, so far from the origin this
    is about ulp(x) / 2."""
    span = float(grid[-1] - grid[0])
    h = span / (grid.size - 1)
    return float(np.abs((grid - grid[0]) - np.arange(grid.size) * h).max()) + float(np.spacing(span))


# the strip half-widths a at which the trapezoidal step is sized: fractions
# of the kernels' half-width pi / beta, dense towards both ends, and
# multiples of n, about where the majorant of f(x - v / n) starts to grow
_STRIP_FRACTIONS = 1.0 / (1.0 + np.exp(-np.linspace(-12.0, 12.0, 481)))
_STRIP_MULTIPLES = 10.0 ** np.linspace(-3.0, 3.0, 241)
# the disc radii of the Cauchy estimates of derivatives from a strip majorant
_DISC_RADII = 10.0 ** np.linspace(-2.0, 3.0, 101)
# significant bits of the step tau / n off the uniform lattice: the samples
# c - j tau / n, c a multiple of tau / n, are then exact
_STEP_BITS = 8
_ULP = 2.0**-52


def _strip(strip: Callable, n: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Strip half-widths a in (0, pi / beta) and ln M(a): M(a) =
    strip(a / n) / cos^2(beta a / 2) bounds every kind's integrand
    f(x - v / n) k(v) on the lines Im v = +-a, integrated over Re v."""
    a = np.concatenate((_STRIP_FRACTIONS * (math.pi / beta), _STRIP_MULTIPLES * n))
    a = a[a < math.pi / beta]
    with np.errstate(over="ignore", divide="ignore"):
        return a, np.log(np.asarray(strip(a / n), dtype=float)) - 2.0 * np.log(np.cos(0.5 * beta * a))


def _step(strip: tuple[np.ndarray, np.ndarray], budget: float) -> float:
    """The largest step tau whose aliasing is within ``budget`` at some a:
    tau = 2 pi a / ln(1 + 2 M / budget) (inf for a zero majorant)."""
    a, log_m = strip
    with np.errstate(divide="ignore"):
        return float((2.0 * math.pi * a / np.logaddexp(0.0, math.log(2.0 / budget) + log_m)).max())


def _aliasing(strip: tuple[np.ndarray, np.ndarray], step: float) -> float:
    """The least bound 2 M / (e^(2 pi a / tau) - 1) over a on the aliasing
    error of the trapezoidal rule of step tau (Trefethen & Weideman, SIAM
    Review 56, 2014, Thm 5.1)."""
    a, log_m = strip
    z = 2.0 * math.pi * a / step
    return float(np.exp(math.log(2.0) + log_m - z - np.log(-np.expm1(-z))).min())


def _half(radius: float, step: float) -> int:
    """J: the nodes j tau, |j| <= J, reach a step past the kernel window."""
    return math.ceil(radius / step) + 1


def _rounding(additions: int, radius: float, beta: float, size: float) -> float:
    """The floating-point error of an ordered sum of kernel-weighted terms
    of total size ``size``: an ulp per addition, each kernel value's
    relative error from its argument and exponential (up to beta R), and a
    few ulp for each factor."""
    return (additions + 2.0 * beta * radius + 16) * _ULP * size


class _Rule(NamedTuple):
    """The trapezoidal rule of one ``apply_on_grid`` call: the step tau,
    J, the error bound (proven, or the target of ``_estimate``), and the
    sample lattice.  On the uniform lattice that is (x0, d, k, p): point i
    takes f at x0 + (p i - k j) d.  Otherwise it is None: point i takes f
    at c_i - j tau / n, c_i the multiple of ``anchor`` nearest x_i, and
    its kernel at n (x_i - c_i) + j tau."""

    step: float
    half: int
    bound: float
    lattice: tuple[float, float, int, int] | None
    anchor: float


def _refuse(specs: Sequence[OperatorSpec], why: str):
    raise QuadratureNonConvergedError(
        f"operator quadrature did not converge: {why}; refused before sampling "
        f"(operator={'/'.join(s.kind.value for s in specs)}, n={specs[0].n})"
    )


def _check(rule: _Rule, grid: np.ndarray, specs: Sequence[OperatorSpec]):
    """Refuse a rule of more than ``_NODE_BUDGET`` nodes, or one whose
    samples off the uniform lattice, integers times tau / n (at most
    ``_STEP_BITS`` significant bits), are not all doubles."""
    nodes = 2 * rule.half + 1
    if nodes > _NODE_BUDGET:
        _refuse(specs, f"the trapezoidal rule at step tau={rule.step:.6g} needs 2J + 1 = {nodes} kernel nodes, "
                       f"over the budget of {_NODE_BUDGET}")
    spacing, reach = rule.step / specs[0].n, float(np.abs(grid).max())
    if rule.lattice is None and ((reach + rule.anchor) / spacing + rule.half + 2.0) * 2**_STEP_BITS > 2.0**53:
        _refuse(specs, f"the samples at step tau / n={spacing:.6g} around |x|={reach:.6g} are not all doubles")


def _rule(f: TestFunction, specs: Sequence[OperatorSpec], grid: np.ndarray, radius: float,
          cfg: QuadratureConfig, tol: float) -> _Rule:
    """The trapezoidal rule of the kinds of ``specs`` on the sorted grid,
    or ``QuadratureNonConvergedError`` before anything is evaluated when
    its error bound exceeds ``tol`` (``cfg.tol``, or half of it for the
    smooth part of a kinked f) or it fails ``_check``.  This is the only
    code that chooses a call's sample layout.

    With a strip majorant of f the step is the largest (over the strip
    widths of ``_strip``) whose aliasing and rounding stay within nine
    tenths of what truncation and the lattice's drift leave of tol, and
    the bound is proven.  Without one it is the step so proven for a
    constant of size sup |f| (never above R): the first of ``_estimate``,
    whose bound is ``tol``, the target, its aliasing left to the estimate.
    The rest of tol is for the rounding of the sample positions.

    One slope bounds sup |(B f)'|: n sup |f| TV(k) <= n sup |f| 2 g_max
    (averaging does not raise the total variation), or, with a strip,
    sup |f'| <= strip(r) / r by Cauchy's estimate on a disc of radius r,
    whichever is less.  A grid of two or more points may take the lattice
    x0 + m h / p (h the mean spacing) while its drift (``_drift``) times
    the slope is within tol / 10: tau is then rounded down to k h n / p
    (p = 1 from 2 h n up, k = 1 below h n, and between the coarsest p > 1
    that gains on h n first), while the lattice is no longer than the
    (2J + 1) samples per point of the other layout and its position
    rounding, weighed by the slope, fits.  Otherwise tau / n is rounded
    down to ``_STEP_BITS`` significant bits: the samples are exact, and
    the kernel arguments n (x_i - c_i) + j tau round by delta <= ulp (R +
    4 tau), which moves a value by at most sup |f| TV(k) delta <= sup |f|
    2 g_max delta."""
    n, params, size = specs[0].n, specs[0].params, f.sup_norm
    beta = params.beta
    slope = 2.0 * n * params.g_max_value * size
    if f.strip is not None:
        slope = min(slope, float(_cauchy(f.strip, 1)(0.0)))
    drift = _drift(grid) * slope if grid.size > 1 else math.inf
    uniform = drift <= 0.1 * tol
    spare = tol - cfg.truncation_eps - (drift if uniform else 0.0)
    budget = 0.9 * spare
    strip = _strip(f.strip or (lambda y: np.full(np.shape(y), size)), n, beta)
    # the step whose aliasing fits the budget less the rounding at its own
    # J: J grows from round to round until it is stable
    step = _step(strip, budget)
    half = _half(radius, step)
    for _ in range(16):
        rest = budget - _rounding(2 * half, radius, beta, size)
        if rest <= 0.0:
            break
        step = _step(strip, rest)
        if _half(radius, step) == half:
            break
        half = _half(radius, step)
    # no wider than the window (a zero majorant would allow any step)
    step = min(step, radius)

    lattice = None
    x0, last = float(grid[0]), float(grid[-1])
    h = (last - x0) / (grid.size - 1) if grid.size > 1 else 0.0
    hn = h * n
    # a lattice no longer than the (2J + 1) samples per point of the other
    # layout has k < size or p < 2J + 2 (compared in floats: under a
    # subnormal step the ratios are too large for an int)
    if uniform and hn > 0.0 and step / hn < grid.size and hn / step < 2 * half + 2:
        cells = [(math.floor(step / hn), 1) if step >= hn else (1, math.ceil(hn / step))]
        if hn < step < 2.0 * hn:  # first the coarsest h / p with k h n / p in (h n, tau]
            p = math.ceil(hn / (step - hn))
            cells.insert(0, (math.floor(step * p / hn), p))
        for k, p in cells:
            shared, shared_half = k * n * (h / p), _half(radius, k * n * (h / p))
            # m h / p and x0 + m h / p rounded, and tau / n against k h / p
            position = slope * 4.0 * _ULP * (max(abs(x0), abs(last)) + (radius + 2.0 * shared) / n)
            if (p * (grid.size - 1) + 2 * k * shared_half + 1 <= (2 * shared_half + 1) * grid.size
                    and position <= spare - budget):
                lattice, step, half = (x0, h / p, k, p), shared, shared_half
                break
    if lattice is None:
        drift = 0.0
        mantissa, exponent = math.frexp(step / n)
        spacing = math.floor(math.ldexp(mantissa, _STEP_BITS)) * math.ldexp(1.0, exponent - _STEP_BITS)
        step, half = spacing * n, _half(radius, spacing * n)
        position = size * 2.0 * params.g_max_value * _ULP * (radius + 4.0 * step)
    rule = _Rule(step, half, tol, lattice, step / n)
    _check(rule, grid, specs)
    bound = ((_aliasing(strip, step) if f.strip else 0.0) + cfg.truncation_eps
             + _rounding(2 * half, radius, beta, size) + position + drift)
    if not bound <= tol:
        _refuse(specs, f"the trapezoidal rule's {'proven' if f.strip else 'non-aliasing'} error {bound:.3g} at "
                       f"step tau={step:.6g} with {2 * half + 1} kernel nodes exceeds tol={tol:.3g}")
    return rule._replace(bound=bound) if f.strip else rule


def _trapezoid(f: TestFunction, specs: Sequence[OperatorSpec], grid: np.ndarray, rule: _Rule,
               odd: bool = False) -> list[np.ndarray]:
    """The kinds of ``specs`` on the sorted grid by ``rule``, over all its
    nodes j, or (``odd``) the odd ones alone.  f is sampled once per
    lattice position that some point needs and shared by the kinds: on the
    lattice x0 + m h / p through one strided view with one kernel vector
    tau k(j tau) per kind; otherwise gathered per point, with the kernel
    evaluated once per (point, node) pair.  The sums run over blocks of at
    most 15 ``_CHUNK_ROWS`` terms (below the 128 KiB mmap threshold): all
    the nodes at a run of points where they fit, else a run of nodes at a
    run of points, with the points' running sums as the block's first row.
    ``_node_sum`` adds every point's terms in node order, one at a time, so
    each kind's values are those of its own call whatever the block
    size."""
    step, half, n = rule.step, rule.half, specs[0].n
    gap = 2 if odd else 1
    j = np.arange(-half + (odd and half % 2 == 0), half + 1, gap)
    kernels = [_kernel(spec) for spec in specs]
    if rule.lattice:
        x0, d, k, p = rule.lattice
        lattice = _sample(f, specs, d * np.arange(-k * half, p * (grid.size - 1) + k * half + 1), np.array(x0))
        # node j at point i: the sample at m = p i - k j, shifted by k J
        view = np.lib.stride_tricks.as_strided(
            lattice[k * (half - j[0]):], (j.size, grid.size), (-k * gap * lattice.itemsize, p * lattice.itemsize),
            writeable=False,
        )
        weights = [step * kern(j * step) for kern in kernels]
    else:
        # point i is anchored at c_i = a_i anchor, and its node j sits at the
        # index c_i / d - j of the lattice of d = tau / n; every index shares
        # the residue r of the first node's, so they are r + gap s for slots
        # s, point i reaching s = top_i - t for its node t.  The slots come
        # in ascending order, each point adding those above the previous top
        d = step / n
        a = np.rint(grid / rule.anchor)
        phase = n * (grid - a * rule.anchor)
        first = a.astype(np.int64) * round(rule.anchor / d) - j[0]
        r = int(first[0] % gap)
        top = (first - r) // gap
        fresh = np.maximum(top - (j.size - 1), np.append(top[0] - (j.size - 1), top[:-1] + 1))
        ends = np.cumsum(top - fresh + 1)
        slots = np.repeat(top + 1 - ends, top - fresh + 1) + np.arange(ends[-1])
        base = ends - 1  # where each point's top slot sits among them
        samples = _sample(f, specs, (r + gap * slots) * d, 0.0)
    values = [np.empty(grid.size) for _ in specs]
    budget = 15 * _CHUNK_ROWS
    if j.size <= budget:
        rows, cols = j.size, budget // j.size
    else:
        # 240 points at the default budget: long enough rows for numpy's loops
        cols = max(1, budget // 64)
        rows = max(1, budget // cols - 1)
    # node-major terms, one more row for the running sums where the nodes
    # are split: a product in the layout of the strided view could put the
    # nodes innermost, where numpy sums pairwise
    terms = np.empty((rows + (rows < j.size), cols))
    for i0 in range(0, grid.size, cols):
        i1 = min(i0 + cols, grid.size)
        for r0 in range(0, j.size, rows):
            r1 = min(r0 + rows, j.size)
            if rule.lattice:
                block_samples = view[r0:r1, i0:i1]
            else:
                block_samples = samples[base[None, i0:i1] - np.arange(r0, r1)[:, None]]
                arg = phase[None, i0:i1] + (j[r0:r1] * step)[:, None]
            block = terms[:r1 - r0 + (r0 > 0), :i1 - i0]
            for i, (out, kern) in enumerate(zip(values, kernels)):
                w = weights[i][r0:r1, None] if rule.lattice else step * kern(arg)
                if r0:
                    block[0] = out[i0:i1]
                np.multiply(block_samples, w, out=block[-(r1 - r0):])
                out[i0:i1] = _node_sum(block)
    return values


def _estimate(f: TestFunction, specs: Sequence[OperatorSpec], grid: np.ndarray, rule: _Rule, radius: float,
              tol: float) -> list[np.ndarray]:
    """The kinds of ``specs`` on the sorted grid for f without a strip
    majorant (``id``, ``from_callable`` functions): the trapezoidal rule
    from ``rule`` (see ``_rule``), halved while any kind runs on, each
    halving adding only the new odd nodes:
    T_(tau/2) = T_tau / 2 + (tau / 2) sum_odd.  A kind stops at its own
    level, once two successive halvings each change its values by at most
    tol max(1, max |T|): an estimate, as the rule converges exponentially
    (Trefethen & Weideman, SIAM Review 56, 2014), not a bound.  A level
    that fails ``_check`` is refused before it is sampled."""
    values = _trapezoid(f, specs, grid, rule)
    agreed = [0] * len(specs)
    running = list(range(len(specs)))
    while running:
        # on the uniform lattice k halves while it is even, else p doubles;
        # off it the anchors stay
        step, lattice = 0.5 * rule.step, rule.lattice
        if lattice:
            x0, d, k, p = lattice
            lattice = (x0, d, k // 2, p) if k % 2 == 0 else (x0, 0.5 * d, k, 2 * p)
        rule = rule._replace(step=step, half=_half(radius, step), lattice=lattice)
        _check(rule, grid, specs)
        for i, odd in zip(running, _trapezoid(f, [specs[i] for i in running], grid, rule, odd=True)):
            halved = 0.5 * values[i] + odd
            change = float(np.abs(halved - values[i]).max())
            agreed[i] = agreed[i] + 1 if change <= tol * max(1.0, float(np.abs(halved).max())) else 0
            values[i] = halved
        running = [i for i in running if agreed[i] < 2]
    return values


def _smooth(f: TestFunction) -> TestFunction:
    """The smooth part a = f - sum_k (j_k / 2) |u - k| of a kinked f, with
    f's name, sup norm and strip majorant."""

    def smooth(u):
        u = np.asarray(u, dtype=float)
        out = np.asarray(f.eval(u), dtype=float)
        for kink, jump in zip(f.kinks, f.jumps):
            out = out - 0.5 * jump * np.abs(u - kink)
        return out

    return TestFunction.from_callable(f.name, smooth, f.sup_norm, strip=f.strip)


def _kinked(f: TestFunction, specs: Sequence[OperatorSpec], grid: np.ndarray, radius: float,
            cfg: QuadratureConfig) -> list[np.ndarray]:
    """The kinds of ``specs`` on the sorted grid for f = a + sum_k (j_k / 2)
    |u - k| (see ``apply_on_grid``): the rule for a takes half of tol
    (proven with a strip majorant of a, else ``_estimate``), the
    rounding of the samples of a at most a quarter, and the rounding
    bound of the closed-form hinges (``_Kernel.hinge``) times |j_k| / n,
    with the hinges left out, the rest; a call that does not fit is
    refused before sampling.  A strip
    finite at infinity makes a constant, so B a - a(x - EW) is 0: the rule
    is sized and its bound counted as for any a, but it is not run and a
    is not sampled, so its samples' rounding is 0.  A strip that is inf
    or nan at infinity, or raises there, says nothing of a.  f without a
    strip whose samples cross no kink is f itself to ``_estimate``."""
    n, params = specs[0].n, specs[0].params
    smooth = _smooth(f)
    rule = _rule(smooth, specs, grid, radius, cfg, 0.5 * cfg.tol)
    kinks, jumps = np.array(f.kinks), np.array(f.jumps)
    s = n * (grid - kinks[:, None])
    # a halving reaches no further than the rule's J tau
    if f.strip is None and float(np.abs(s).min()) > rule.half * rule.step:
        return _estimate(f, specs, grid, rule, radius, 0.5 * cfg.tol)
    # a bounded entire a is constant (see above)
    try:
        with np.errstate(all="ignore"):
            constant = f.strip is not None and bool(
                np.isfinite(np.asarray(f.strip(np.array([math.inf])), dtype=float)).all())
    except (ArithmeticError, ValueError):
        constant = False
    # a sample of a rounds by a few ulp of the sum of |j_k| |u - k|, at u up
    # to the rule's J tau / n beyond the grid (no halving reaches further),
    # and B a and a(x - EW) each take such samples
    reach = np.maximum(np.abs(grid[0] - kinks), np.abs(grid[-1] - kinks)) + rule.half * rule.step / n
    noise = 0.0 if constant else (
        2.0 * (kinks.size + 2) * _ULP * (f.sup_norm + 0.5 * float(np.sum(np.abs(jumps) * reach))))
    if noise > 0.25 * cfg.tol:
        _refuse(specs, f"the samples of the smooth part of {f.name} round by {noise:.3g}, over a quarter of "
                       f"tol={cfg.tol:.3g}")
    # n g(s / n) <= (q + 1/q) e^(-beta (|s| - 2)) / (2 beta) (``kernel.psi_envelope``), so
    # the hinges beyond ``cut``, times sum |j_k| / n, add at most truncation_eps
    weight = float(np.abs(jumps).sum()) / n or 1.0
    cut = 1.0 + quadrature.truncation_radius(params, min(0.5, 2.0 * params.beta * cfg.truncation_eps / weight))
    kink, point = np.nonzero(np.abs(s) < cut)
    s, scale = s[kink, point], jumps[kink] / n
    hinges = [_kernel(spec).hinge(s) for spec in specs]
    share = cfg.tol - rule.bound - noise - cfg.truncation_eps
    error = max(float(np.bincount(point, np.abs(scale) * (e + kinks.size * _ULP * h), grid.size).max(initial=0.0))
                for h, e in hinges)
    if not error <= share:
        _refuse(specs, f"the hinges round by {error:.3g}, over their share {share:.3g} of tol={cfg.tol:.3g}")
    if constant:
        smooth_values = None
    elif smooth.strip is None:
        smooth_values = _estimate(smooth, specs, grid, rule, radius, 0.5 * cfg.tol)
    else:
        smooth_values = _trapezoid(smooth, specs, grid, rule)
    values = []
    for i, (spec, (hinge, _)) in enumerate(zip(specs, hinges)):
        shifted = grid + _kernel(spec).offset_moments(1)[1] / n  # x - EW = x + E T / n
        base = _sample(f, [spec], shifted, 0.0)
        if smooth_values is not None:
            base = base + (smooth_values[i] - _sample(smooth, [spec], shifted, 0.0))
        # each point's terms added kink by kink
        values.append(base + np.bincount(point, hinge * scale, grid.size))
    return values


def apply_on_grid(f: TestFunction, spec: OperatorSpec | Sequence[OperatorSpec], xs,
                  cfg: QuadratureConfig | None = None) -> np.ndarray:
    """Evaluate the operator at every point of ``xs`` in one pass.

    ``spec`` may also be a sequence of specs with one n and one ``params``
    (else a ValueError), such as the kinds of one sweep step: the result
    then has one row of values per spec, each bit for bit the values of its
    own call.  The set-up (sorting, the trapezoidal rule's layout, steps
    and samples, the hinges' abscissae) is shared;
    the kernel values and the hinges stay per kind.  The call raises if any
    kind fails.  ``xs`` need not be sorted.

    Every path takes the trapezoidal rule tau sum_{|j| <= J} k(j tau)
    f(x - j tau / n), J = ceil((R + 1) / tau) + 1.  f with a strip
    majorant and no kinks (the catalog's sin, cos, gauss and one, and their
    derivatives) takes it at the largest step whose proven error is within
    tol, or is refused before f or a kernel is evaluated (see ``_rule``).
    f without one (``id``, ``from_callable`` functions not given one)
    takes it from the step proven for a constant of size sup |f|, halved,
    adding only the new nodes, until two successive halvings each change a
    kind's values by at most ``cfg.allowance`` of its largest |value| (see
    ``_estimate``), or is refused once a level needs more than
    ``_NODE_BUDGET`` nodes.  On a grid whose points drift from x0 + i h
    (h the mean spacing) by no more than moves a value by a tenth of the
    rule's tol, by one bound on sup |(B f)'| (see ``_rule``), the kinds
    share one vector of samples of f on the lattice x0 + m h / p and each
    has one kernel vector.  Any other grid
    samples f once at each multiple of tau / n that some point needs (a
    chain's stage pays for every sample) and evaluates the kernel at
    n (x_i - c_i) + j tau for each (point, node) pair, c_i the multiple
    nearest x_i (see ``_trapezoid``).  f is called with 1-d arrays and
    must work elementwise.

    A kinked f (with its slope jumps, see ``TestFunction``) takes B f(x) =
    f(x - EW) + [B a(x) - a(x - EW)] + sum_k j_k g(x - k) (see the module
    docstring): B a by the rule above at half of tol, and g in closed form
    at the abscissae n (x - k) near a kink, one call per kind, refused
    only if its rounding misses what the rule leaves of tol (see
    ``_kinked``).  Where the strip of a is finite at infinity a is
    constant: the rule is sized, and refuses as above, but neither it nor
    a is evaluated.

    No path calls a BLAS routine: every sum runs in a fixed order, so the
    output depends neither on the block size nor on the BLAS thread count.
    """
    cfg = cfg or DEFAULT_CONFIG
    single = isinstance(spec, OperatorSpec)
    specs = [spec] if single else list(spec)
    if not specs or any((s.n, s.params) != (specs[0].n, specs[0].params) for s in specs):
        raise ValueError(f"specs must be a nonempty sequence with one n and one params, got "
                         f"{[(s.n, s.params) for s in specs]}")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if xs.size == 0:
        return np.empty(0) if single else np.empty((len(specs), 0))
    if not np.all(np.isfinite(xs)):
        raise ValueError("grid points must be finite")
    # the distinct points in ascending order, and each input point's place
    # among them (np.unique would import numpy.ma)
    order = np.argsort(xs, kind="stable")
    ranked = xs[order]
    distinct = np.concatenate(([True], ranked[1:] != ranked[:-1]))
    grid = ranked[distinct]
    slot = np.empty(xs.size, dtype=np.intp)
    slot[order] = np.cumsum(distinct) - 1

    # every kind's kernel window, [-R - 1, R + 1] (see ``_Kernel``)
    radius = cfg.radius(specs[0].params, f.sup_norm) + 1.0
    if f.kinks:
        values = _kinked(f, specs, grid, radius, cfg)
    elif f.strip is None:
        values = _estimate(f, specs, grid, _rule(f, specs, grid, radius, cfg, cfg.tol), radius, cfg.tol)
    else:
        values = _trapezoid(f, specs, grid, _rule(f, specs, grid, radius, cfg, cfg.tol))
    rows = np.stack([v[slot] for v in values])
    return rows[0] if single else rows


def central_moment(spec: OperatorSpec, x: float, k: int) -> float:
    """The operator applied to v -> (v - x)^k, evaluated at x, in closed form.

    The operator samples f at x + (T - H)/n, H ~ psi and T the kind's
    offset (see ``_Kernel``), so the moment is n^-k E[(T - H)^k]: by the
    binomial theorem over the moments of T (``_Kernel.offset_moments``)
    and of H (``kernel.psi_moments``).  It does not depend on x, and since
    psi is even, the odd ones of the basic kind are exactly 0.0.  They are
    the correction coefficients of the Taylor-refined error bounds.
    """
    if not (isinstance(k, (int, np.integer)) and k >= 1):
        raise ValueError(f"k must be a positive integer, got {k!r}")
    k = int(k)
    t = _kernel(spec).offset_moments(k)
    h = kernel.psi_moments(spec.params, k)
    # the odd moments of H vanish, so E[(T - H)^k] = E[(T + H)^k]: every term is nonnegative
    return math.fsum(math.comb(k, j) * t[j] * h[k - j] for j in range(k + 1)) * float(spec.n) ** -k


def _chebyshev_nodes(a: float, b: float, count: int) -> np.ndarray:
    """The ``count`` Chebyshev extrema of [a, b] in ascending order, the
    ends exactly a and b.  The even points of 2N - 1 extrema are the N
    extrema, bit for bit."""
    nodes = 0.5 * (a + b) - 0.5 * (b - a) * np.cos(np.pi * np.arange(count) / (count - 1))
    # roundoff may push the edge nodes outside [a, b]
    nodes[0], nodes[-1] = a, b
    return nodes


@dataclass
class GridApproximant:
    """Barycentric interpolant of operator output at the Chebyshev extrema
    of ``domain`` = [a, b], clamped outside.

    The nodes are ``_chebyshev_nodes(a, b, len(values))``: the barycentric
    weights (-1)^j, halved at the ends, are right for those nodes only.
    Evaluation at the nodes reproduces the stored values exactly;
    evaluation outside the domain returns the nearest endpoint value and
    latches ``extrapolated``.
    """

    domain: tuple[float, float]
    values: np.ndarray
    residual: float = math.nan
    flagged: bool = False
    extrapolated: bool = field(default=False, compare=False)
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    _bary_weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a, b = (float(v) for v in self.domain)
        values = np.asarray(self.values, dtype=float)
        if not b > a:
            raise ValueError(f"domain must satisfy b > a, got {self.domain!r}")
        if values.ndim != 1 or values.size < 2:
            raise ValueError("values must be a 1-d array with at least 2 entries")
        self.values = values
        self.nodes = _chebyshev_nodes(a, b, values.size)
        w = np.ones(values.size)
        w[1::2] = -1.0
        w[0] *= 0.5
        w[-1] *= 0.5
        self._bary_weights = w

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        scalar = arr.ndim == 0
        flat = arr.reshape(-1).copy()
        a, b = self.domain
        below = flat < a
        above = flat > b
        if below.any() or above.any():
            self.extrapolated = True
            flat[below] = a
            flat[above] = b
        out = np.empty_like(flat)

        # exact node hits return stored values verbatim
        idx = np.searchsorted(self.nodes, flat)
        idx_c = np.clip(idx, 0, self.nodes.size - 1)
        exact = self.nodes[idx_c] == flat
        out[exact] = self.values[idx_c[exact]]

        rest = ~exact
        if rest.any():
            xr = flat[rest]
            ratios = self._bary_weights / (xr[:, None] - self.nodes[None, :])
            # per-row sums: a point's value must not depend on how many points
            # come with it (the grid engine passes chunks of any size), which a
            # BLAS matrix-vector product does not guarantee
            out[rest] = (ratios * self.values).sum(axis=1) / ratios.sum(axis=1)
        result = out.reshape(arr.shape)
        return float(result) if scalar else result


def make_grid_approximant(
    f: TestFunction,
    spec: OperatorSpec,
    domain: tuple[float, float],
    cfg: QuadratureConfig | None = None,
) -> GridApproximant:
    """Interpolate the operator on N Chebyshev extrema over ``domain``,
    from its values on the 2N - 1 extrema: the even ones are the nodes,
    and at the odd ones, the theta-midpoints between nodes where the
    interpolation error peaks, the largest |interpolant - operator| is the
    residual.  N starts at 17; while the residual exceeds
    min(``cfg.allowance(max |values|)``, ``RESIDUAL_CEILING``) and N is
    below 1025, the 2N - 1 sampled extrema become the nodes and one
    ``apply_on_grid`` call samples the 2N - 2 new midpoints.  The
    approximant is flagged when the residual still exceeds
    ``RESIDUAL_CEILING``.  It is the last stage of a chain (``_chain``)."""
    a, b = float(domain[0]), float(domain[1])
    if not b > a:
        raise ValueError(f"domain must satisfy b > a, got {domain!r}")
    cfg = cfg or DEFAULT_CONFIG
    fine = _chebyshev_nodes(a, b, 2 * _FIRST_NODES - 1)
    values = apply_on_grid(f, spec, fine, cfg)
    while True:
        approx = GridApproximant((a, b), values[::2])
        approx.residual = float(np.abs(approx(fine[1::2]) - values[1::2]).max())
        target = min(cfg.allowance(float(np.abs(values).max())), RESIDUAL_CEILING)
        if approx.residual <= target or approx.values.size >= _MAX_NODES:
            break
        fine = _chebyshev_nodes(a, b, 2 * values.size - 1)
        sampled, values = values, np.empty(fine.size)
        values[::2] = sampled
        values[1::2] = apply_on_grid(f, spec, fine[1::2], cfg)
    approx.flagged = approx.residual > RESIDUAL_CEILING
    return approx


def _stage(g: TestFunction, spec: OperatorSpec, cfg: QuadratureConfig) -> TestFunction:
    """B g as a function: ``apply_on_grid`` at the points asked for, sup |g|
    as sup norm and strip majorant sup |g| / cos^2(beta n y / 2) below
    pi / (beta n), inf beyond (see the module docstring)."""
    size, beta, n = g.sup_norm, spec.params.beta, spec.n

    def strip(y):
        y = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return np.where(y < math.pi / (beta * n), size / np.cos(0.5 * beta * n * y) ** 2, math.inf)

    return TestFunction.from_callable(f"{g.name}.stage", lambda u: apply_on_grid(g, spec, u, cfg), size, strip=strip)


def _chain(f: TestFunction, specs: Sequence[OperatorSpec], domain: tuple[float, float],
           cfg: QuadratureConfig | None) -> GridApproximant:
    """Apply the ascending ``specs`` in order: stages 1 to r - 1 as
    ``_stage``, whose strip the next stage's ``_strip`` reads only below
    pi / (beta n_next) <= pi / (beta n), and stage r interpolated on
    ``domain``, with ``FlaggedApproximantError`` if its residual exceeds
    ``RESIDUAL_CEILING``.  A chain's error is at most the sum of its stage
    bounds plus the final residual, since each bound carries through the
    later stages' unit-mass sums."""
    cfg = cfg or DEFAULT_CONFIG
    current = f
    for spec in specs[:-1]:
        current = _stage(current, spec, cfg)
    approx = make_grid_approximant(current, specs[-1], domain, cfg)
    if approx.flagged:
        raise FlaggedApproximantError(f"stage {len(specs)} (n={specs[-1].n}) approximant residual "
                                      f"{approx.residual:.3e} exceeds ceiling {RESIDUAL_CEILING:.3e}")
    return approx


def iterate(
    f: TestFunction,
    spec: OperatorSpec,
    r: int,
    domain: tuple[float, float],
    cfg: QuadratureConfig | None = None,
) -> GridApproximant:
    """The r-fold self-composition of the operator: the chain of r equal
    resolutions (see ``compose_mixed``)."""
    if not (isinstance(r, (int, np.integer)) and r >= 1):
        raise ValueError(f"r must be a positive integer, got {r!r}")
    return _chain(f, [spec] * int(r), domain, cfg)


def compose_mixed(
    f: TestFunction,
    kind: OperatorKind | str,
    ns: Sequence[int],
    params: KernelParams,
    domain: tuple[float, float] = (-3.0, 3.0),
    weights: tuple[float, ...] | None = None,
    cfg: QuadratureConfig | None = None,
) -> GridApproximant:
    """Chain the operator at ascending resolutions k_1 <= ... <= k_r,
    applying the coarsest first; only the last stage is interpolated, and
    it must meet ``RESIDUAL_CEILING``, else ``FlaggedApproximantError``
    (see ``_chain``)."""
    ns = [int(v) for v in ns]
    if not ns:
        raise ValueError("ns must be a nonempty ascending list")
    if any(b < a for a, b in zip(ns, ns[1:])):
        raise ValueError(f"ns must be ascending (ties allowed), got {ns}")
    specs = [OperatorSpec(kind=OperatorKind(kind), n=n, params=params, weights=weights) for n in ns]
    return _chain(f, specs, domain, cfg)

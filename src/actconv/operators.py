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
|k(v + iy)| <= k(v) / cos^2(beta y / 2).  So for f with a strip majorant
(``TestFunction.strip``) and no kinks, ``apply_on_grid`` takes the
trapezoidal rule B f(x) ~ tau sum_{|j| <= J} k(j tau) f(x - j tau / n),
whose error has an a-priori bound (Trefethen & Weideman, SIAM Review 56,
2014): tau is the largest step whose proven error stays within tol, and
a call no step can serve is refused before anything is evaluated (see
``_rule``).  The kinds of a call share tau, and on a uniform grid the
samples of f as well, and each kind has one kernel vector k(j tau).
Every other call takes a nested Kronrod rule, on one of two paths:

* ``apply`` (and the kind-specific wrappers) integrate a single point
  adaptively in the kernel variable v, with the window's seed panels cut
  at the kinks of f, v = n (x - kink), as the grid engine cuts its panels,
* ``apply_on_grid``, for f with kinks or without a majorant, evaluates a
  whole grid of points at once by sharing
  one panel decomposition in the sample variable u, where the kinks of f
  sit at fixed locations; panels refine until the worst grid point meets
  tolerance.  The new panels of a refinement round are evaluated
  together, in chunks of (panel, grid point) rows, so f is called with
  (panels, 15) arrays holding the nodes of many panels: it must work
  elementwise on arrays of any shape.  Each seeding window (a run of grid
  points with their kernel windows) has an anchor c at its centre.  Panel
  nodes are held as offsets t from c, kernel arguments are formed as
  n ((x - c) - t), and f is evaluated at c + t; so the rounding does not
  grow with |x|.  On a uniform grid, as ``np.linspace`` builds it, the
  seed round runs on a lattice of panels anchored at the first point
  instead: the kernel term of a (panel, point) pair then depends only on
  their lattice offset, so the kernel is evaluated once, on a table of a
  few thousand values.  The lattice panels are sized to the kernels'
  scale W/n, W = ``QuadratureConfig.width``, the power of two at which
  GK15 panels resolve psi, and so every kind's kernel, to tolerance, in
  closed form from psi's analytic strip (at tol = 1e-10, about 2 / beta:
  32 at beta = 0.05, 2 at beta = 1, 1/8 at beta = 20): a cell of M grid
  steps, at most a quarter of the grid, holds m panels of width h M / m,
  the widest not above W/n with small M and m; a table of more kernel
  values than the W/n row seeds evaluate is refused.  f is sampled at
  the nodes of all lattice panels, about a thousand panels per call, and
  the terms of all cells at M consecutive offsets (a slab) reach the
  per-point totals by one in-place add.  W/n is the one seed width: a
  lattice that misses tolerance is tried once more at (W/2)/n, and the
  row seeds are W/n wide too.  The lattice places point i at
  x0 + i h, which differs from the double x_i by up to ulp(x_i) / 2, so
  grids far from the origin, where that drift would show in the result,
  take the row seeds.  Given several specs of one n and one params (the
  kinds of a sweep step), ``apply_on_grid`` returns one row per spec: the
  kinds share the windows, the checks and W, and each lattice round is one
  pass of the kinds still short of tolerance, with f sampled once and
  their kernel tables stacked; each row is bit for bit the kind's own
  call.

Accuracy is set by one knob, ``QuadratureConfig.tol``: the Kronrod paths
accept a value v once its error estimate is within ``cfg.allowance(v)`` =
tol max(1, |v|) (on a grid, v is the largest |value|), the trapezoidal
rule's proven error is within tol, and every path truncates
every kind's kernel to one window [-R - 1, R + 1], R =
``cfg.radius(params, sup |f|)`` the radius beyond which psi's mass, times
sup |f|, is at most tol / 100 (averaging moves that mass left by at most
1, see ``_Kernel``; scalar ``apply`` stops at R, above which no kind has
more).  The panel limit
(``quadrature.MAX_SUBDIVISIONS``) and the approximants' residual ceiling
(``RESIDUAL_CEILING``) are constants.

Iterated and mixed compositions are made tractable by interpolating each
stage on Chebyshev nodes.  A stage samples the operator on the 2N - 1
Chebyshev extrema: the even ones are the N interpolation nodes, and the
odd ones, the theta-midpoints between them, give the interpolation
residual carried on the approximant.  Each stage picks N itself: from
N = 17, while the residual exceeds the allowance, the samples become the
nodes of the next round and only the new midpoints are sampled, so every
extremum is sampled once.  Each stage's domain is padded by the reach of
the stages after it, so no stage samples its input where it is clamped.
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
from .quadrature import (
    DEFAULT_CONFIG,
    G7_WEIGHTS,
    GK15_NODES,
    GK15_WEIGHTS,
    QuadratureConfig,
    integrate_interval,
)

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
#: the largest interpolation residual of an approximant stage that is not flagged
RESIDUAL_CEILING = 1e-6
# the node counts of an approximant stage's first and last rounds
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

    ``sup_norm`` bounds |f| on the working domain, ``modulus`` (when
    present) is a closed-form value of, or certified upper bound on, the
    modulus of continuity, and ``kinks`` lists points where f is not
    smooth (used to seed panel boundaries).  ``derivatives`` hold
    analytic derivative evaluators with their own sup norms and moduli.
    ``strip`` (when present) is a strip majorant: f extends to an entire
    function with sup over real x of |f(x + iy)| at most strip(y) for
    y >= 0, nondecreasing in y and evaluated elementwise on arrays; with
    it, and no kinks, ``apply_on_grid`` takes the trapezoidal rule with a
    proven error.  Derivatives get none.
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

    __test__ = False  # not a pytest test class despite the name

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
            kinks=(),
        )

    @classmethod
    def from_callable(cls, name: str, fn: Callable, sup_norm: float, **kwargs) -> "TestFunction":
        return cls(name=name, eval=fn, sup_norm=float(sup_norm), **kwargs)


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
        # arguments, which holds at most the values of a row chunk's
        # (15, rows) arrays; the weighted rows are added in order
        v = np.asarray(v, dtype=float)
        r = len(self.weights)
        shifts = np.arange(1, r + 1)[:, None] / r
        weights = np.asarray(self.weights)[:, None]
        flat = v.reshape(-1)
        out = np.empty(flat.size)
        step = max(1, _CHUNK_ROWS * GK15_NODES.size // r)
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


# flat (panel, grid point) rows per kernel call: 1024 rows of 15 nodes keep
# each chunk's float64 temporaries below glibc's default 128 KiB mmap threshold
_CHUNK_ROWS = 1024
_MAX_REFINE_ROUNDS = 48
_GAUSS = slice(1, 14, 2)  # the G7 nodes among the GK15 nodes (G7_WEIGHTS is zero elsewhere)


def _node_sum(terms: np.ndarray) -> np.ndarray:
    """Column sums of a (nodes, rows) array, adding the nodes in order for
    any row count: numpy reduces a lone column pairwise."""
    return np.add.reduce(terms) if terms.shape[1] > 1 else sum(terms)


class _Panels(NamedTuple):
    """Panels [c + a, c + b] in ascending order, held as offsets a, b from
    the anchor c of their seeding window, the slice start:stop of the sorted
    grid within reach of each, and each panel's largest row error; then the
    flat rows, ordered by panel and then point: the K15 value and the
    K15 - G7 error estimate of the panel at the point.  The kernel mass a
    panel puts on the points outside its slice lies outside the truncation
    window."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    start: np.ndarray
    stop: np.ndarray
    worst: np.ndarray
    values: np.ndarray
    errors: np.ndarray


def _chunks(start: np.ndarray, stop: np.ndarray, max_panels: int):
    """Cut the flat rows of panels with grid slices start:stop into runs of
    at most ``_CHUNK_ROWS`` rows from at most ``max_panels`` panels; yield
    each run's rows c0:c1, its panels p0:p1 with their row counts in the
    run, and every row's grid point."""
    ends = np.cumsum(stop - start)
    begins = ends - (stop - start)
    shift = start - begins  # a row's grid point is the row plus its panel's shift
    c0, total = 0, int(ends[-1])
    while c0 < total:
        p0 = int(np.searchsorted(ends, c0, side="right"))
        c1 = min(c0 + _CHUNK_ROWS, int(ends[min(p0 + max_panels, ends.size) - 1]))
        p1 = int(np.searchsorted(ends, c1, side="left")) + 1
        counts = np.minimum(ends[p0:p1], c1) - np.maximum(begins[p0:p1], c0)
        yield c0, c1, p0, p1, counts, np.arange(c0, c1) + np.repeat(shift[p0:p1], counts)
        c0 = c1


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


def _evaluate(f: TestFunction, spec: OperatorSpec, grid: np.ndarray, offset: np.ndarray, reach: float,
              a: np.ndarray, b: np.ndarray, c: np.ndarray) -> _Panels:
    """Rows of the panels [c + a, c + b] on the sorted grid, a chunk at a
    time: one call of f for the nodes of the chunk's panels (at most
    ``_CHUNK_ROWS`` nodes) and one kernel call for its rows.  ``offset``
    holds each grid point's offset from the anchor of its window."""
    k, n = _kernel(spec), spec.n
    start = np.searchsorted(grid, c + a - reach, side="left")
    stop = np.searchsorted(grid, c + b + reach, side="right")
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    scale = n * half
    values = np.empty(int((stop - start).sum()))
    errors = np.empty_like(values)
    worst = np.zeros(a.size)
    for c0, c1, p0, p1, counts, point in _chunks(start, stop, max(1, _CHUNK_ROWS // GK15_NODES.size)):
        t = mid[p0:p1, None] + half[p0:p1, None] * GK15_NODES
        fu = _sample(f, [spec], t, c[p0:p1, None])
        # node-major (15, rows) arrays of n ((x - c) - t); the K15 terms
        # overwrite the kernel values
        arg = np.repeat(t.T, counts, axis=1)
        np.subtract(offset[point], arg, out=arg)
        arg *= n
        terms = k(arg)
        rows = np.repeat(scale[p0:p1], counts)
        g7 = rows * _node_sum(terms[_GAUSS] * np.repeat((G7_WEIGHTS * fu)[:, _GAUSS].T, counts, axis=1))
        terms *= np.repeat((GK15_WEIGHTS * fu).T, counts, axis=1)
        k15 = rows * _node_sum(terms)
        err = np.abs(k15 - g7)
        values[c0:c1] = k15
        errors[c0:c1] = err
        # a panel without rows in the chunk (one that reaches no grid point) keeps 0
        worst[p0:p1] = np.maximum(worst[p0:p1], np.maximum.reduceat(err, np.cumsum(counts) - counts) * (counts > 0))
    return _Panels(a, b, c, start, stop, worst, values, errors)


def _totals(panels: _Panels, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-point sums of the panels' values and error estimates, in list order."""
    values = np.zeros(size)
    errors = np.zeros(size)
    for c0, c1, _, _, _, point in _chunks(panels.start, panels.stop, _CHUNK_ROWS):
        np.add.at(values, point, panels.values[c0:c1])
        np.add.at(errors, point, panels.errors[c0:c1])
    return values, errors


def _contract(weighted: np.ndarray, table: np.ndarray) -> np.ndarray:
    """acc[r, q, e] = sum over nodes k of weighted[q, r, k] table[r, k, e]:
    weighted holds the samples at node k of the r-th panel of cell q, times
    the node's weight, and table the kernel at that node and lattice offset
    e.  One matrix product (cells x nodes) @ (nodes x offsets) per panel
    row r, which BLAS computes with gemm: every entry is its own row times
    its own column, with the nodes added in the same order whatever the
    shape, and threads split the rows and columns, never the nodes.  numpy
    hands a product with a single row or column to gemv or dot instead,
    whose bits differ, so such a product gets a zero row or column; the
    entries then depend neither on how many cells and offsets a block holds
    nor on the BLAS thread count."""
    cells, offsets = weighted.shape[0], table.shape[2]
    if cells == 1:
        weighted = np.concatenate((weighted, np.zeros_like(weighted)))
    if offsets == 1:
        table = np.concatenate((table, np.zeros_like(table)), axis=2)
    return np.matmul(weighted.transpose(1, 0, 2), table)[:, :cells, :offsets]


def _cell(h: float, n: int, width: float, size: int) -> tuple[int, int]:
    """The cell (M, m) of the lattice on a grid of ``size`` points with step
    h: M grid steps holding m panels of width h M / m, the widest not above
    W / n, W = ``width``, with M at most a quarter of the grid steps (and at
    least 1), so that the grid spans at least four cells: a wide kernel on
    a short grid gets narrower panels (at n = 4 and beta = 0.2 on 2001
    points over [-3, 3], W = 8 and M = 500, not 666).  Either M = 1 or
    m = 1 unless that leaves the panels below 0.8 W / n (only possible for
    M, m <= 4); then the widest h M / m with M <= 8 and m <= 4 is taken.
    At n = 400 on that grid and W = 2, for instance, panels of width h
    (0.6 W / n) become 5h/3 (W / n)."""
    if h * n <= width:
        # W / (h n) is inf for a subnormal h: the clamp comes first
        stride, m = int(min(width / (h * n), max(1, (size - 1) // 4))), 1
        if stride * h * n > width:
            stride -= 1
    else:
        stride, m = 1, math.ceil(h * n / width)
        if h * n / m > width:
            m += 1
    if stride > 4 or m > 4 or stride * h * n / m >= 0.8 * width:
        return stride, m
    for panels in range(2, 5):
        steps = int(min(8, (size - 1) // 4, panels * width / (h * n)))
        if steps * h / panels * n > width:
            steps -= 1
        if steps * m > stride * panels:  # a wider panel
            stride, m = steps, panels
    return stride, m


def _lattice(f: TestFunction, specs: Sequence[OperatorSpec], grid: np.ndarray, reach: float, cap: int,
             width: float) -> list | None:
    """The seed round of the kinds of ``specs`` (one n) on the grid
    x_i = x0 + i h, from one table of their kernels.

    The seed panels, of width w = h M / m (``_cell``: the widest such value
    not above W / n, W = ``width`` in the kernel variable), lie on a
    lattice anchored at x0.  A cell of m panels steps over ``stride`` = M
    grid points, so the kernel value at point i and node k of the cell's
    r-th panel depends only on (r, k) and the offset j = i - stride q of
    point i from cell q: each kind's kernel is evaluated once, on the table
    T[r, k, j, kind], the kinds stacked on the last axis.  Every kind's
    kernel is truncated to one window (see ``_Kernel``), so a panel reaches
    the points within ``reach`` of it whatever the kind, and the kinds
    share the cells, the offsets and the kink cuts.  f is sampled once, at
    the nodes of every lattice panel within reach of the grid, at most
    ``_CHUNK_ROWS`` panels per call, and the samples are weighted once.
    Each term, a K15 value and its |K15 - G7| estimate, is a contraction of
    the panel's 15 weighted samples with T, every kind at once.  The terms
    of cell q at the offsets [p M, (p + 1) M), slab p, land on the M points
    M (q + p) + s, 0 <= s < M, which no other cell's slab-p terms reach: a
    slab of all cells and kinds is one in-place add onto a contiguous run
    of the totals, held as (point, kind).  The table is zero at the offsets
    of the whole slabs beyond reach (a zero term changes no total).  The
    slabs are taken in groups at least 32 columns (offsets times kinds)
    wide (wider for wide cells, while a group's terms stay within 15
    ``_CHUNK_ROWS`` values); a group's cells that reach the grid are
    contracted in sub-blocks of at most 15 ``_CHUNK_ROWS`` (panel, column)
    terms, one matrix product per panel row r (``_contract``), whose
    entries do not depend on the sub-block's shape or the BLAS thread
    count, and a cell's panels are added in order as their terms are
    copied into slab order.  Groups go from the last slab down, and so do
    the slabs within a group, so every point receives its terms in
    ascending cell order, as ``np.add.at`` would add them, whatever the
    sub-block size and whichever kinds share the pass: each kind's totals
    are those it would get alone.

    A lattice panel that contains a kink of f is cut there, and the pieces
    go through ``_evaluate`` for each kind.  Returns, per kind, the
    per-point totals of values and error estimates; or None when the seeds
    would exceed the panel budget ``cap``."""
    n, size, kinds = specs[0].n, grid.size, len(specs)
    x0 = float(grid[0])
    span = float(grid[-1]) - x0
    h = span / (size - 1)
    stride, m = _cell(h, n, width, size)
    cell = stride * h
    # the cells within reach, counted in floats first (one of slack for the
    # rounding): under a subnormal h their number is too large for an int
    if (span + 2.0 * reach) / cell > cap + 1:
        return None
    w = cell / m
    # the cells within reach of the grid, and the offsets j of the points
    # within reach of a cell, clipped to the grid
    q_lo, q_hi = math.floor(-reach / cell), math.ceil((span + reach) / cell) - 1
    j_lo = max(math.ceil(-reach / h), -stride * q_hi)
    j_hi = min(math.floor((cell + reach) / h), size - 1 - stride * q_lo)
    cells = q_hi - q_lo + 1
    edges = np.arange(m * q_lo, m * (q_hi + 1) + 1) * w
    cuts = np.array(sorted({k - x0 for k in f.kinks if edges[0] < k - x0 < edges[-1]}), dtype=float)
    at = np.searchsorted(edges, cuts)  # edges[at - 1] < cut <= edges[at]
    inner = edges[at] != cuts
    cuts, at = cuts[inner], at[inner]
    if m * cells + cuts.size > cap:
        return None

    # the offsets in whole slabs of M = stride, the table zero outside
    # [j_lo, j_hi]
    p_lo, p_hi = j_lo // stride, j_hi // stride
    # a table of more kernel values per kind than the row seeds of this
    # width evaluate (15 per (panel, point) row) is refused: at n = 1 and
    # beta = 0.05 it spans the kernel window at grid-step resolution, and
    # takes hundreds of MiB and six times the rows' time
    seeds = max(2, min(max(math.ceil((span + 2.0 * reach) * n / width), 8), cap))
    ends = np.linspace(x0 - reach, x0 + span + reach, seeds + 1)
    rows = int((np.searchsorted(grid, ends[1:] + reach, side="right")
                - np.searchsorted(grid, ends[:-1] - reach, side="left")).sum())
    if m * (p_hi + 1 - p_lo) * stride > rows:
        return None
    offsets = np.arange(p_lo * stride, (p_hi + 1) * stride)
    nodes = (np.arange(m)[:, None] + 0.5) * w + 0.5 * w * GK15_NODES  # (m, 15) from the cell's left edge
    arg = n * (offsets * h - nodes[:, :, None])
    # filled a kind at a time: one kernel's values and temporaries live
    # beside the table, not every kind's
    table = np.empty(arg.shape + (kinds,))
    for t, spec in enumerate(specs):
        table[..., t] = _kernel(spec)(arg)
    table[:, :, :j_lo - offsets[0]] = 0.0
    table[:, :, j_hi + 1 - offsets[0]:] = 0.0

    # the samples of every lattice panel, taken as ``_evaluate`` takes them,
    # times the G7 and then (in place) the K15 weights
    a, b = edges[:-1], edges[1:]
    fu = np.empty((a.size, GK15_NODES.size))
    anchor = np.array(x0)
    for p0 in range(0, a.size, _CHUNK_ROWS):
        pa, pb = a[p0:p0 + _CHUNK_ROWS, None], b[p0:p0 + _CHUNK_ROWS, None]
        fu[p0:p0 + _CHUNK_ROWS] = _sample(f, specs, 0.5 * (pa + pb) + 0.5 * (pb - pa) * GK15_NODES, anchor)
    fu[at - 1] = 0.0  # a panel cut at a kink leaves the lattice
    fu = fu.reshape(cells, m, GK15_NODES.size)
    gauss = fu[:, :, _GAUSS] * (0.5 * n * w * G7_WEIGHTS[_GAUSS])
    fu *= 0.5 * n * w * GK15_WEIGHTS

    # a slab's columns: M offsets times the kinds.  Groups of slabs, from
    # the last slab down: at least 32 columns wide, and wider while the
    # group's terms of all cells stay within 15 _CHUNK_ROWS values (wide
    # cells, fewer groups and products)
    cols = stride * kinds
    group = max(-(-32 // cols), GK15_NODES.size * _CHUNK_ROWS // (cols * cells))
    # the totals (values, estimates) of point i and the t-th kind at
    # [:, cols (group + i // M) + kinds (i % M) + t]: the terms of a
    # group's cells reach at most a group's rows beyond the grid
    totals = np.zeros((2, (-(-size // stride) + 2 * group) * cols))
    # a group's terms of the cells that reach the grid, by slab, cell and
    # column within the slab
    buffer = np.empty((2, min(group, p_hi + 1 - p_lo), cells, cols))
    record = np.dtype(f"V{cols * buffer.itemsize}")
    for top in range(p_hi, p_lo - 1, -group):
        low = max(top - group + 1, p_lo)
        block = table[:, :, (low - p_lo) * stride:(top + 1 - p_lo) * stride].reshape(m, GK15_NODES.size, -1)
        first, last = max(q_lo, -top), min(q_hi, (size - 1) // stride - low)
        terms = buffer[:, :top + 1 - low, :last + 1 - first]
        # contracted in sub-blocks whose (m, cells, columns) products stay
        # within 15 _CHUNK_ROWS values
        per_block = max(1, GK15_NODES.size * _CHUNK_ROWS // (m * block.shape[2]))
        for q0 in range(first, last + 1, per_block):
            q1 = min(q0 + per_block, last + 1)
            k15 = _contract(fu[q0 - q_lo:q1 - q_lo], block)
            err = _contract(gauss[q0 - q_lo:q1 - q_lo], block[:, _GAUSS])
            np.subtract(k15, err, out=err)
            np.abs(err, out=err)
            for out, panel in zip(terms[:, :, q0 - first:q1 - first], (k15, err)):
                # each cell's panels summed in order, in place
                for r in range(1, m):
                    panel[0] += panel[r]
                # then copied into slab order a slab's columns at a time, as
                # one record each
                out.view(record)[..., 0] = panel[0].view(record).T
        for p in range(top, low - 1, -1):
            # slab p puts cell q's terms on the points M (q + p) + s, 0 <= s < M
            r0 = (group + first + p) * cols
            totals[:, r0:r0 + (last + 1 - first) * cols] += terms[:, p - low].reshape(2, -1)
    totals = totals.reshape(2, -1, kinds)[:, group * stride:group * stride + size]

    if cuts.size:
        # the pieces of the cut panels: runs of lattice edges and cuts that
        # start or end at a cut
        merged = np.concatenate((edges, cuts))
        rank = np.argsort(merged, kind="stable")
        merged, at_cut = merged[rank], rank >= edges.size
        piece = at_cut[:-1] | at_cut[1:]
        a, b = merged[:-1][piece], merged[1:][piece]
        for t, spec in enumerate(specs):
            totals[:, :, t] += _totals(_evaluate(f, spec, grid, grid - x0, reach, a, b, np.full(a.size, x0)), size)
    # per kind, its (values, errors)
    return list(totals.transpose(2, 0, 1))


def _drift(grid: np.ndarray) -> float:
    """How far the points of a uniform grid lie from the lattice points
    x0 + i h that ``_lattice`` evaluates at, h the mean spacing: the largest
    |(x_i - x0) - i h| as computed, plus one ulp of the span for the
    rounding of that difference.  np.linspace rounds each point to a
    double, so far from the origin this is about ulp(x) / 2."""
    span = float(grid[-1] - grid[0])
    h = span / (grid.size - 1)
    return float(np.abs((grid - grid[0]) - np.arange(grid.size) * h).max()) + float(np.spacing(span))


def _merge(panels: _Panels, halves: _Panels, split: np.ndarray) -> _Panels:
    """``panels`` with every split panel replaced in place by its two halves."""
    rows = np.concatenate(([0], np.cumsum(panels.stop - panels.start)))
    half_rows = np.concatenate(([0], np.cumsum(halves.stop - halves.start)))
    done = 2 * np.concatenate(([0], np.cumsum(split)))  # halves before each panel
    edges = [0, *(np.flatnonzero(np.diff(split)) + 1).tolist(), split.size]
    pieces = []
    for i, j in zip(edges[:-1], edges[1:]):
        # runs of kept panels and runs of split ones alternate
        src, rs, p, q = (halves, half_rows, done[i], done[j]) if split[i] else (panels, rows, i, j)
        pieces.append([col[p:q] for col in src[:-2]] + [col[rs[p]:rs[q]] for col in src[-2:]])
    return _Panels(*(np.concatenate(cols) for cols in zip(*pieces)))


class _Windows(NamedTuple):
    """The seeding windows on the sorted grid: window w holds the points
    bounds[w]:bounds[w + 1], their kernel windows span [lows[w], highs[w]],
    and it may use ``caps[w]`` panels; a panel reaches the points within
    ``reach`` = R/n of it, R the radius of the kernel window."""

    reach: float
    bounds: np.ndarray
    lows: np.ndarray
    highs: np.ndarray
    caps: list[int]

    @property
    def budget(self) -> int:
        return sum(self.caps)


def _windows(grid: np.ndarray, radius: float, n: int) -> _Windows:
    """Seed only the union of the points' kernel windows [x - R/n, x + R/n]:
    a panel anywhere else reaches no grid point.  Windows are split only at
    gaps over 3R/n, so no panel reaches a point of another window."""
    reach = radius / n
    bounds = np.concatenate(([0], np.flatnonzero(np.diff(grid) > 3.0 * reach) + 1, [grid.size]))
    lows = grid[bounds[:-1]] - reach
    highs = grid[bounds[1:] - 1] + reach
    caps = [quadrature.MAX_SUBDIVISIONS * math.ceil((hi - lo) * n / (2.0 * radius)) for lo, hi in zip(lows, highs)]
    return _Windows(reach, bounds, lows, highs, caps)


def _rows(f: TestFunction, spec: OperatorSpec, grid: np.ndarray, win: _Windows, seed: float,
          cfg: QuadratureConfig) -> np.ndarray:
    """The operator on the sorted grid from row seeds ``seed``/n wide, refined
    until the worst point meets tolerance."""
    n, reach, budget = spec.n, win.reach, win.budget
    anchors = 0.5 * (win.lows + win.highs)
    offset = grid - np.repeat(anchors, np.diff(win.bounds))
    seeds = []
    for lo, hi, c, cap in zip(win.lows.tolist(), win.highs.tolist(), anchors.tolist(), win.caps):
        count = max(2, min(max(math.ceil((hi - lo) * n / seed), 8), cap))
        edges = np.linspace(lo - c, hi - c, count + 1)
        inner = sorted({kink - c for kink in f.kinks if lo < kink < hi})[: max(0, cap - count)]
        if inner:
            # sorted, without repeats (np.unique would import numpy.ma)
            edges = np.sort(np.concatenate((edges, inner)))
            edges = edges[np.concatenate(([True], edges[1:] != edges[:-1]))]
        seeds.append(np.column_stack((edges[:-1], edges[1:], np.full(edges.size - 1, c))))

    # the list stays in ascending order (splits replace a panel by its
    # halves in place), so every total sums in one deterministic order
    seeds = np.concatenate(seeds)
    panels = _evaluate(f, spec, grid, offset, reach, *seeds.T)
    for _ in range(_MAX_REFINE_ROUNDS):
        total_val, total_err = _totals(panels, grid.size)
        tol = cfg.allowance(float(np.abs(total_val).max()))
        if float(total_err.max()) <= tol:
            return total_val
        a, b = panels.a, panels.b
        cutoff = max(0.25 * float(panels.worst.max()), tol / (4.0 * a.size))
        split = (panels.worst >= cutoff) & ((b - a) > 1e-14)
        n_split = int(split.sum())
        if not n_split or a.size + n_split > budget:
            break
        mid = 0.5 * (a[split] + b[split])
        halves = np.column_stack((a[split], mid, mid, b[split])).reshape(-1, 2)
        anchor = np.repeat(panels.c[split], 2)
        panels = _merge(panels, _evaluate(f, spec, grid, offset, reach, *halves.T, anchor), split)

    _, total_err = _totals(panels, grid.size)
    worst_x = float(grid[int(np.argmax(total_err))])
    raise QuadratureNonConvergedError(
        f"operator quadrature did not converge on the grid "
        f"(operator={spec.kind.value}, x={worst_x}, n={n})"
    )


def _met(lattice, cfg: QuadratureConfig) -> np.ndarray | None:
    """A lattice round's values if they meet tolerance, else None."""
    values, errors = lattice
    return values if float(errors.max()) <= cfg.allowance(float(np.abs(values).max())) else None


# the strip half-widths a at which the trapezoidal step is sized: fractions
# of the kernels' half-width pi / beta, dense towards both ends, and
# multiples of n, about where the majorant of f(x - v / n) starts to grow
_STRIP_FRACTIONS = 1.0 / (1.0 + np.exp(-np.linspace(-12.0, 12.0, 481)))
_STRIP_MULTIPLES = 10.0 ** np.linspace(-3.0, 3.0, 241)
# the disc radii of the Cauchy estimate of sup |f'| from the strip majorant
_DISC_RADII = 10.0 ** np.linspace(-2.0, 3.0, 101)
# significant bits of the step tau / n off the sample lattice: j tau / n is
# then exact, and so is x - j tau / n wherever the spacing of x allows
_STEP_BITS = 8
_ULP = 2.0**-52


def _strip(f: TestFunction, n: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Strip half-widths a in (0, pi / beta) and ln M(a): M(a) =
    strip(a / n) / cos^2(beta a / 2) bounds every kind's integrand
    f(x - v / n) k(v) on the lines Im v = +-a, integrated over Re v."""
    a = np.concatenate((_STRIP_FRACTIONS * (math.pi / beta), _STRIP_MULTIPLES * n))
    a = a[a < math.pi / beta]
    with np.errstate(over="ignore", divide="ignore"):
        return a, np.log(np.asarray(f.strip(a / n), dtype=float)) - 2.0 * np.log(np.cos(0.5 * beta * a))


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


def _rounding(half: int, radius: float, beta: float, size: float) -> float:
    """The floating-point error of the rule's value at sup |f| = ``size``:
    the ordered sum of 2J + 1 products, each kernel value's relative error
    from its argument and exponential (up to beta R), and a few ulp for
    each factor."""
    return (2 * half + 2.0 * beta * radius + 16) * _ULP * size


class _Rule(NamedTuple):
    """The trapezoidal rule of one ``apply_on_grid`` call: the step tau,
    J, the proven error bound, and the sample lattice (x0, d, k, p), on
    which point i takes f at x0 + (p i - k j) d, or None: f is sampled at
    x_i - j tau / n."""

    step: float
    half: int
    bound: float
    lattice: tuple[float, float, int, int] | None


def _rule(f: TestFunction, specs: Sequence[OperatorSpec], grid: np.ndarray, radius: float,
          drift: float | None, cfg: QuadratureConfig) -> _Rule:
    """The trapezoidal rule of the kinds of ``specs`` on the sorted grid,
    or ``QuadratureNonConvergedError`` when its proven error exceeds tol
    or its 2J + 1 nodes exceed 15 ``quadrature.MAX_SUBDIVISIONS``.  The
    step is the largest (over the strip widths of ``_strip``) whose
    aliasing and rounding stay within nine tenths of what truncation and
    ``drift`` leave of tol; the rest is for the rounding of the sample
    positions.  ``drift`` bounds the value error of the lattice on a
    uniform grid that may take it: tau is then rounded down to k h n or
    h n / p, while the lattice x0 + m h / p is no longer than the (2J + 1)
    samples per point of direct sampling.  Otherwise tau / n is rounded
    down to ``_STEP_BITS`` significant bits."""
    n, params, size = specs[0].n, specs[0].params, f.sup_norm
    beta, tol = params.beta, cfg.tol
    strip = _strip(f, n, beta)
    spare = tol - cfg.truncation_eps - (drift or 0.0)
    budget = 0.9 * spare
    # |f'| <= strip(r) / r by Cauchy's estimate on a disc of radius r
    with np.errstate(over="ignore"):
        slope = float((np.asarray(f.strip(_DISC_RADII), dtype=float) / _DISC_RADII).min())
    # the step whose aliasing fits the budget less the rounding at its own
    # J: J grows from round to round until it is stable
    step = _step(strip, budget)
    half = _half(radius, step)
    for _ in range(16):
        rest = budget - _rounding(half, radius, beta, size)
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
    # a lattice no longer than direct sampling's (2J + 1) samples per
    # point has k < size or p < 2J + 2 (compared in floats: under a
    # subnormal step the ratios are too large for an int)
    if drift is not None and hn > 0.0 and step / hn < grid.size and hn / step < 2 * half + 2:
        k, p = (math.floor(step / hn), 1) if step >= hn else (1, math.ceil(hn / step))
        shared, shared_half = k * n * (h / p), _half(radius, k * n * (h / p))
        # m h / p and x0 + m h / p rounded, and tau / n against k h / p
        position = 4.0 * _ULP * (max(abs(x0), abs(last)) + (radius + 2.0 * shared) / n)
        if (p * (grid.size - 1) + 2 * k * shared_half + 1 <= (2 * shared_half + 1) * grid.size
                and slope * position <= spare - budget):
            lattice, step, half = (x0, h / p, k, p), shared, shared_half
    if lattice is None:
        drift = None
        mantissa, exponent = math.frexp(step / n)
        quantum = math.ldexp(1.0, exponent - _STEP_BITS)
        spacing = math.floor(math.ldexp(mantissa, _STEP_BITS)) * quantum
        step, half = spacing * n, _half(radius, spacing * n)
        # x - j tau / n is exact where the spacing of x and the quantum of
        # tau / n are at least the spacing of the largest |x - j tau / n|
        reach = np.abs(grid) + half * spacing
        exact = np.minimum(np.spacing(np.abs(grid)), quantum) >= np.spacing(reach)
        position = float(np.where(exact, 0.0, 0.5 * np.spacing(reach)).max())
    bound = (_aliasing(strip, step) + cfg.truncation_eps + _rounding(half, radius, beta, size)
             + slope * position + (drift or 0.0))
    nodes, limit = 2 * half + 1, GK15_NODES.size * quadrature.MAX_SUBDIVISIONS
    names = f"operator={'/'.join(s.kind.value for s in specs)}, n={n}"
    if nodes > limit:
        raise QuadratureNonConvergedError(
            f"operator quadrature did not converge: the trapezoidal rule at step tau={step:.6g} "
            f"needs 2J + 1 = {nodes} kernel nodes, over the budget of {limit}; refused before "
            f"sampling ({names})"
        )
    if not bound <= tol:
        raise QuadratureNonConvergedError(
            f"operator quadrature did not converge: the trapezoidal rule's proven error {bound:.3g} "
            f"at step tau={step:.6g} with {nodes} kernel nodes exceeds tol={tol:.3g}; refused "
            f"before sampling ({names})"
        )
    return _Rule(step, half, bound, lattice)


def _trapezoid(f: TestFunction, specs: Sequence[OperatorSpec], grid: np.ndarray, rule: _Rule) -> list[np.ndarray]:
    """The kinds of ``specs`` on the sorted grid by ``rule``: one kernel
    vector tau k(j tau) per kind, and the samples of f shared by the
    kinds.  The sums run over blocks of at most 15 ``_CHUNK_ROWS`` terms,
    a run of nodes at a run of points, with the points' running sums as
    the block's first row: ``_node_sum`` adds every point's terms in node
    order, one at a time, so each kind's values are those of its own call
    whatever the block size."""
    step, half = rule.step, rule.half
    j = np.arange(-half, half + 1)
    weights = [step * _kernel(spec)(j * step) for spec in specs]
    if rule.lattice:
        x0, d, k, p = rule.lattice
        lattice = _sample(f, specs, d * np.arange(-k * half, p * (grid.size - 1) + k * half + 1), np.array(x0))
        item = lattice.itemsize
    else:
        offsets = -(j * (step / specs[0].n))[:, None]
    values = [np.empty(grid.size) for _ in specs]
    # about 64 nodes by 240 points: long enough rows for numpy's loops
    cols = max(1, GK15_NODES.size * _CHUNK_ROWS // 64)
    rows = max(1, GK15_NODES.size * _CHUNK_ROWS // cols - 1)
    # node-major terms: a product in the layout of a strided view could
    # put the nodes innermost, where numpy sums pairwise
    terms = np.empty((rows + 1, cols))
    for i0 in range(0, grid.size, cols):
        i1 = min(i0 + cols, grid.size)
        for r0 in range(0, j.size, rows):
            r1 = min(r0 + rows, j.size)
            if rule.lattice:
                # node j at point i: the sample at m = p i - k j, shifted by
                # k J; the view stays within the lattice
                samples = np.lib.stride_tricks.as_strided(
                    lattice[2 * k * half + p * i0 - k * r0:], (r1 - r0, i1 - i0), (-k * item, p * item),
                    writeable=False,
                )
            else:
                samples = _sample(f, specs, offsets[r0:r1], grid[None, i0:i1])
            block = terms[(0 if r0 else 1):r1 - r0 + 1, :i1 - i0]
            for out, w in zip(values, weights):
                if r0:
                    block[0] = out[i0:i1]
                np.multiply(samples, w[r0:r1, None], out=block[-(r1 - r0):])
                out[i0:i1] = _node_sum(block)
    return values


def _kronrod(f: TestFunction, specs: Sequence[OperatorSpec], grid: np.ndarray, radius: float,
             drift: float | None, cfg: QuadratureConfig) -> list[np.ndarray]:
    """The kinds of ``specs`` on the sorted grid by the Gauss-Kronrod
    engine: lattice rounds while ``drift`` allows them, then rows for the
    kinds they missed (see ``apply_on_grid``)."""
    n, params = specs[0].n, specs[0].params
    win = _windows(grid, radius, n)
    # a window radius above 65,535 (beta below about 4.3e-4 at tol = 1e-10)
    # takes the rows, seeded at 1/n, where a call no budget covers fails soonest
    narrow = radius <= 65535.0
    width = cfg.width(params, f.sup_norm)
    lattice_ok = narrow and drift is not None and win.lows.size == 1

    values = [None] * len(specs)
    if lattice_ok:
        # W/n, then (W/2)/n for the kinds it missed (W follows psi's strip,
        # not the grid's phase): each round one pass of the unmet kinds; a
        # lattice over the panel budget at W/n is over it at W/2 too
        for seed in (width, 0.5 * width):
            unmet = [i for i, v in enumerate(values) if v is None]
            outs = _lattice(f, [specs[i] for i in unmet], grid, win.reach, win.budget, seed) if unmet else None
            if outs is None:
                break
            for i, out in zip(unmet, outs):
                values[i] = _met(out, cfg)
    seed = width if narrow else 1.0
    for i, s in enumerate(specs):
        if values[i] is None:
            # otherwise (and on a uniform grid whose lattice rounds miss
            # tolerance) the seeds are evaluated as rows
            values[i] = _rows(f, s, grid, win, seed, cfg)
    return values


def apply_on_grid(f: TestFunction, spec: OperatorSpec | Sequence[OperatorSpec], xs,
                  cfg: QuadratureConfig | None = None) -> np.ndarray:
    """Evaluate the operator at every point of ``xs`` in one pass.

    ``spec`` may also be a sequence of specs with one n and one ``params``
    (else a ValueError), such as the kinds of one sweep step: the result
    then has one row of values per spec, each bit for bit the values of its
    own call.  Every kind's kernel has the same window and width W, so the
    set-up (sorting, the seeding windows, the uniformity and drift checks,
    W) is done once, and each lattice round is one pass of the kinds that
    have not met tolerance: one sampling of f and one table of their
    kernels (see ``_lattice``).  The kink pieces and the row path stay per
    kind.  The call raises if any kind fails.

    There are three paths.  f with a strip majorant and no kinks (the
    catalog's sin, cos, gauss and one) takes the trapezoidal rule
    tau sum_{|j| <= J} k(j tau) f(x - j tau / n), J = ceil((R + 1) / tau)
    + 1.  Every kind's kernel k is analytic in |Im v| < pi / beta: psi's
    denominator is (w + e^beta)(w + e^-beta), w = q e^(-beta v), and
    |w + c| >= (|w| + c) cos(arg w / 2), so |psi(v + iy)| <= psi(v) /
    cos^2(beta y / 2), which the averaging kinds inherit.  For any strip
    half-width a < pi / beta the rule's aliasing error is then at most
    2 M / (e^(2 pi a / tau) - 1), M = strip(a / n) / cos^2(beta a / 2)
    (Trefethen & Weideman, SIAM Review 56, 2014, Thm 5.1).  Its step tau
    is the largest whose aliasing, plus the truncated mass tol / 100, the
    rounding of the sum (about (2J + 1) u sup |f|), the rounding of the
    sample positions and, on a lattice, its drift, stays within tol; the
    call raises ``QuadratureNonConvergedError`` before f or a kernel is
    evaluated when no step does, or when its 2J + 1 nodes exceed 15
    ``quadrature.MAX_SUBDIVISIONS`` (see ``_rule``).  There is no error
    estimate and no refinement.  The kinds share tau; each has one kernel
    vector tau k(j tau).  On a uniform grid that passes the drift check
    below, tau is rounded down to k h n or h n / p, and all kinds share
    one vector of samples of f on the lattice x0 + m h / p; any other grid
    samples f at x_i - j tau / n, with tau / n rounded down to 8
    significant bits, so that j tau / n and the kernel arguments j tau are
    exact, and so is x_i - j tau / n wherever the spacing of x_i allows
    (far from the origin too).  The sums run in node order, block by
    block (see ``_trapezoid``), so each row is bit for bit its kind's own
    call whatever the block size, and no BLAS routine is involved.

    f with kinks (abs) or without a majorant (``id``, derivatives,
    ``from_callable`` functions such as an approximant stage) takes the
    Gauss-Kronrod engine below: the lattice on a uniform grid, the rows
    on any other.

    All points share a single panel decomposition in the sample variable
    u; panels are seeded at the kernels' scale W/n (see the lattice
    and row seeds below) plus the kinks of f, then bisected greedily until
    the worst point's accumulated error estimate is within
    ``cfg.allowance`` of the largest |value|,
    tol max(1, max |value|).  Each panel is evaluated only on the grid
    points within (R + 1)/n of it, R = ``cfg.radius(spec.params,
    f.sup_norm)`` the truncation radius of psi and [-R - 1, R + 1] every
    kind's kernel window (see ``_Kernel``), and panels are seeded only
    where they reach a grid point.  Seeds and splits together may use
    ``quadrature.MAX_SUBDIVISIONS`` panels per kernel window of width
    2 (R + 1)/n spanned by the points' windows [x - (R + 1)/n,
    x + (R + 1)/n].  ``xs`` need not be sorted.

    The seeds, and then each round's new halves, are evaluated as flat
    (panel, grid point) rows, about a thousand rows per kernel call, with
    one call of f for the nodes of the chunk's panels.  f thus receives
    (panels, 15) arrays, up to about a thousand nodes, not 15 nodes, and
    must work elementwise on arrays of any shape.  Node sums and per-point
    totals are added in a fixed order, so the output does not depend on the
    chunk size.

    Each seeding window [lo, hi] (windows are split at gaps wider than
    3 (R + 1)/n between sorted points) has the anchor c = (lo + hi) / 2.
    Panel edges and kink seeds are held as offsets from c, each point's
    x - c is computed once, and the kernel argument is n ((x - c) - t) for
    a node offset t; f is evaluated at c + t.  The rounding of the kernel
    argument is thus about n ulp(x - c), not n ulp(x), and the
    result far from the origin is as accurate as near it.  On a window
    symmetric about 0, c is exactly 0.

    Lattice seeds: when the sorted distinct points are exactly
    ``np.linspace(x0, x1, N)`` (N >= 2) and form one seeding window, the
    seed round runs on a lattice anchored at x0 (see ``_lattice``).  The
    lattice evaluates the operator at x0 + i h, not at the double x_i, so
    it is taken only when that drift (about ulp(x) / 2 far from the origin)
    can move no value by more than tol / 10; a uniform grid far from the
    origin, such as ``np.linspace(1e6, 1e6 + 6, N)``, takes the row path.
    The lattice panels have width h M / m, the widest not above W/n with
    M <= 8 and m <= 4 where M = 1 or m = 1 leaves them narrower than
    0.8 W/n, and M at most a quarter of the grid steps (see ``_cell``):
    W = ``cfg.width(params, sup |f|)`` is the power of two at which GK15
    panels of width W resolve psi, times sup |f|, to tol, and with it every
    kind's kernel (2 at q = beta = 1, 1/8 at beta = 20).  A window radius
    above 65,535 (beta below about 4.3e-4) takes the row path, and a
    lattice over the panel budget is refused, as is one whose table holds
    more kernel values per kind than the W/n row seeds evaluate (15 per
    (panel, point) row; at n = 1 and beta = 0.05 the table spans the
    kernel window at grid-step resolution).  When the W/n lattice misses
    tolerance, the (W/2)/n lattice runs next for the kinds it missed: W is
    an estimate from psi's strip, and for some f or grid phases it misses
    by a hair.  Each kind's kernel is evaluated once, on a table
    of kernel values per (node, lattice offset); each (panel, point) K15
    term and its |K15 - G7| estimate is a 15-node contraction of the panel's
    weighted samples with the table, one BLAS matrix product per group of
    offsets and sub-block of cells, never with a single row or column, so
    that each entry's nodes are added in one order whatever the block's
    shape, the kinds that share it and the BLAS thread count.  The totals
    are the same per-point sums as on rows, added in ascending cell order:
    the terms at the M offsets of a slab land on distinct points and are
    added in place at once, the slabs from the last offset down.  A lattice
    panel holding a kink is cut there and its pieces are evaluated as rows
    in the same round.  If a lattice round meets tolerance, its totals are
    the result; if none does, the call goes on from the row seeds (the
    lattice keeps no rows to refine), as refinement rounds, Chebyshev nodes
    and other grids do.

    Row seeds: each window [lo, hi] is cut into ceil((hi - lo) n / W)
    equal panels (at least 8, at most its panel budget), W/n wide as the
    lattice panels are.  Above a window radius of 65,535 they are 1/n wide
    instead, so that a call no budget covers fails soonest.
    """
    cfg = cfg or DEFAULT_CONFIG
    single = isinstance(spec, OperatorSpec)
    specs = [spec] if single else list(spec)
    if not specs or any((s.n, s.params) != (specs[0].n, specs[0].params) for s in specs):
        raise ValueError(f"specs must be a nonempty sequence with one n and one params, got "
                         f"{[(s.n, s.params) for s in specs]}")
    n, params = specs[0].n, specs[0].params
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
    radius = cfg.radius(params, f.sup_norm) + 1.0
    uniform = grid.size >= 2 and np.array_equal(grid, np.linspace(grid[0], grid[-1], grid.size))
    # a lattice moves each point by up to _drift(grid), which moves its
    # value by up to that times sup |(B f)'| <= n sup|f| TV(k); averaging
    # does not raise the total variation, and TV(psi) <= 2 g_max: a lattice
    # is taken only while that stays below tol / 10
    drift = _drift(grid) * 2.0 * n * params.g_max_value * f.sup_norm if uniform else math.inf
    if drift > 0.1 * cfg.tol:
        drift = None
    if f.strip is not None and not f.kinks:
        values = _trapezoid(f, specs, grid, _rule(f, specs, grid, radius, drift, cfg))
    else:
        values = _kronrod(f, specs, grid, radius, drift, cfg)
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
    ``RESIDUAL_CEILING``."""
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


def _chain(
    f: TestFunction,
    specs: Sequence[OperatorSpec],
    domain: tuple[float, float],
    cfg: QuadratureConfig | None,
) -> GridApproximant:
    """Apply the operators of ``specs`` in order, each stage consuming the
    previous stage's approximant (with its clamped extension) as a bounded
    continuous function.

    Stage k is built on the domain padded by the reach (R + 1)/n_j of
    every later stage j, R the truncation radius at sup |f|: so the last
    stage sits on the domain itself, and no stage samples its input where
    that input is clamped, only where the kernel mass left out is below
    the truncation tolerance.  Raises ``FlaggedApproximantError`` at the
    first stage whose residual exceeds ``RESIDUAL_CEILING``.
    """
    cfg = cfg or DEFAULT_CONFIG
    reach = [(cfg.radius(s.params, f.sup_norm) + 1.0) / s.n for s in specs]
    current = f
    for stage, spec in enumerate(specs, start=1):
        pad = math.fsum(reach[stage:])
        approx = make_grid_approximant(current, spec, (float(domain[0]) - pad, float(domain[1]) + pad), cfg)
        if approx.flagged:
            raise FlaggedApproximantError(
                f"stage {stage} (n={spec.n}) approximant residual {approx.residual:.3e} "
                f"exceeds ceiling {RESIDUAL_CEILING:.3e}",
                stage=stage,
            )
        current = TestFunction.from_callable(f"{f.name}.stage{stage}", approx, np.abs(approx.values).max())
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
    applying the coarsest first; every stage is interpolated and must meet
    ``RESIDUAL_CEILING``, else ``FlaggedApproximantError`` names it."""
    ns = [int(v) for v in ns]
    if not ns:
        raise ValueError("ns must be a nonempty ascending list")
    if any(b < a for a, b in zip(ns, ns[1:])):
        raise ValueError(f"ns must be ascending (ties allowed), got {ns}")
    specs = [OperatorSpec(kind=OperatorKind(kind), n=n, params=params, weights=weights) for n in ns]
    return _chain(f, specs, domain, cfg)

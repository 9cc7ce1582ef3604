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

Two evaluation paths share the same nested Kronrod rule:

* ``apply`` (and the kind-specific wrappers) integrate a single point
  adaptively in the kernel variable v,
* ``apply_on_grid`` evaluates a whole grid of points at once by sharing
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
  few thousand values.  The lattice panels are sized to the kernel's own
  scale W/n, W the power of two (from 2^-10 up) at which GK15 panels
  resolve the kind's kernel to tolerance (for psi at tol = 1e-10,
  about 2 / beta: 32 at beta = 0.05, 2 at beta = 1, 1/2 at beta = 5 and
  1/8 at beta = 20).  The lattice places point i at x0 + i h, which
  differs from the double x_i by up to ulp(x_i) / 2, so grids far from
  the origin, where that drift would show in the result, keep the row
  seeds.

Accuracy is set by one knob, ``QuadratureConfig.tol``: both paths accept
a value v once its error estimate is within ``cfg.allowance(v)`` =
tol max(1, |v|) (on a grid, v is the largest |value|), and both truncate
the kernel at ``cfg.radius(params, sup |f|)``, where the mass left out,
times sup |f|, is at most tol / 100.  The panel limit
(``quadrature.MAX_SUBDIVISIONS``) and the approximants' residual ceiling
(``RESIDUAL_CEILING``) are constants.

Iterated and mixed compositions are made tractable by interpolating each
stage on Chebyshev nodes.  One grid call per stage samples the operator
on the 2N - 1 Chebyshev extrema: the even ones are the N interpolation
nodes, and the odd ones, the theta-midpoints between them, give the
interpolation residual carried on the approximant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
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
    """

    name: str
    eval: Callable[[np.ndarray], np.ndarray]
    sup_norm: float
    derivatives: tuple[Callable, ...] = ()
    derivative_sup_norms: tuple[float, ...] = ()
    modulus: Callable[[float], float] | None = None
    derivative_moduli: tuple = ()
    kinks: tuple[float, ...] = ()

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
    and moves psi's mass left by at most ``shift``, so the truncation
    window [-R, R] of psi becomes [-R - shift, R]."""

    kind: OperatorKind
    params: KernelParams
    weights: tuple[float, ...] | None = None

    @property
    def shift(self) -> float:
        """The largest value of T."""
        return 0.0 if self.kind is OperatorKind.BASIC else 1.0

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
    res = integrate_interval(integrand, -radius - k.shift, radius, cfg)
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


def _sample(f: TestFunction, spec: OperatorSpec, t: np.ndarray, c: np.ndarray) -> np.ndarray:
    """f at the nodes u = c + t, every value finite."""
    u = c + t
    fu = np.asarray(f.eval(u), dtype=float)
    finite = np.isfinite(fu)
    if not finite.all():
        raise NonFiniteSampleError(
            f"{f.name} is not finite at u={float(u.flat[int(np.argmin(finite))])!r} "
            f"(operator={spec.kind.value}, n={spec.n})"
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
        fu = _sample(f, spec, t, c[p0:p1, None])
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
    """acc[r, q, e] = sum over nodes k of weighted[q, r, k] table[r, k, e],
    added in node order: weighted holds the samples at node k of the r-th
    panel of cell q, times the node's weight, and table the kernel at that
    node and lattice offset e."""
    acc = weighted[:, :, 0].T[:, :, None] * table[:, None, 0]
    term = np.empty_like(acc)
    for k in range(1, weighted.shape[2]):
        np.multiply(weighted[:, :, k].T[:, :, None], table[:, None, k], out=term)
        acc += term
    return acc


@lru_cache(maxsize=64)
def _kernel_width(k: _Kernel, radius: float, tol: float, scale: float) -> float:
    """The kernel's own panel scale W in v, a power of two at which GK15
    panels of width W tiling [-R, R] integrate the kind's kernel k with
    ``scale`` times the sum of their |K15 - G7| estimates within ``tol``
    (``cfg.tol``, the grid's allowance at values up to 1): W = 1 if it
    passes and then doubled while 2 W passes and fits in R, else halved
    until it passes or reaches 2^-10.  The sum is
    the largest over the tilings offset by 0, W/4, W/2 and 3W/4: aligned at
    0 alone, psi at beta = 20 would pass at W = 2, its edges at +-1 sitting
    on panel midpoints, where K15 and G7 both integrate the odd part
    exactly.  psi is analytic in the strip |Im v| < pi / beta, and so are
    its averages, so W scales like 1 / beta: for psi at tol = 1e-10
    and scale 1 it is 4 at beta = 0.5, 2 at beta = 1, 1/2 at
    (q, beta) = (1e-3, 3) and (1, 5), and 1/8 at (1, 20)."""

    def resolved(width: float) -> bool:
        i = np.arange(math.floor(-radius / width) - 1, math.ceil(radius / width) + 1)
        mids = (i + np.array([0.0, 0.25, 0.5, 0.75])[:, None] + 0.5) * width
        values = k(mids[:, :, None] + 0.5 * width * GK15_NODES)
        errors = 0.5 * width * np.abs((values * (GK15_WEIGHTS - G7_WEIGHTS)).sum(axis=2))
        return scale * float(errors.sum(axis=1).max()) <= tol

    width = 1.0
    while width > 2.0**-10 and not resolved(width):
        width *= 0.5
    if width == 1.0:
        while 2.0 * width <= radius and resolved(2.0 * width):
            width *= 2.0
    return width


def _lattice(f: TestFunction, spec: OperatorSpec, grid: np.ndarray, reach: float, cap: int, width: float):
    """The seed round on the grid x_i = x0 + i h, from one kernel table.

    The seed panels, of width w = h M or h / m (the widest such value not
    above W / n, W = ``width`` in the kernel variable), lie on a lattice
    anchored at x0.  A cell of m panels (one panel when w = h M) steps
    over ``stride`` grid points (M, or 1), so the kernel value at point i
    and node k of the cell's r-th panel depends only on (r, k) and the
    offset j = i - stride q of point i from cell q: the kind's kernel is
    evaluated once, on the table T[r, k, j].  Cells are taken in blocks of
    at most 15 ``_CHUNK_ROWS`` (panel, offset) terms.  Each term, a K15
    value and its |K15 - G7| estimate, is a contraction of the panel's 15
    weighted samples with T, adding the nodes in order; a cell's
    panels are added in order, and its terms go to the points by slice
    sums, over offsets or over cells, whichever is shorter.  A slice adds
    at most one term to a point, and every point receives its terms in
    ascending cell order either way, so the totals do not depend on the
    block size.

    A lattice panel that contains a kink of f is cut there, and the pieces
    go through ``_evaluate``.  Returns the per-point totals of values and
    error estimates; or None when the seeds would exceed the panel budget
    ``cap``, or when a cell spans more than a quarter of the grid, so that
    a table value would serve fewer than four cells: there the lattice was
    measured 1.5 to 5.8 times slower than rows, at four cells 0.8 to 1.4
    times, and from eight cells on 0.2 to 1.0 times (grids of 41 to 2001
    points, n = 1 and 4)."""
    n, size = spec.n, grid.size
    x0 = float(grid[0])
    span = float(grid[-1]) - x0
    h = span / (size - 1)
    if h * n <= width:
        # clamped at size: the four-cell test below refuses that stride as it
        # would any larger one, which a subnormal h makes too large (even
        # inf) for an int
        m, stride = 1, int(min(width / (h * n), size))
        if stride * h * n > width:
            stride -= 1
    else:
        m, stride = math.ceil(h * n / width), 1
        if h * n / m > width:
            m += 1
    if 4 * stride > size - 1:
        return None
    cell = stride * h
    w = cell / m
    q_lo, q_hi = math.floor(-reach / cell), math.ceil((span + reach) / cell) - 1
    cells = q_hi - q_lo + 1
    # offsets j of the points within reach of a cell, clipped to the grid
    j_lo = max(math.ceil(-reach / h), -stride * q_hi)
    j_hi = min(math.floor((cell + reach) / h), size - 1 - stride * q_lo)

    edges = np.arange(m * q_lo, m * (q_hi + 1) + 1) * w
    cuts = np.array(sorted({k - x0 for k in f.kinks if edges[0] < k - x0 < edges[-1]}), dtype=float)
    at = np.searchsorted(edges, cuts)  # edges[at - 1] < cut <= edges[at]
    inner = edges[at] != cuts
    cuts, at = cuts[inner], at[inner]
    if edges.size - 1 + cuts.size > cap:
        return None

    offsets = np.arange(j_lo, j_hi + 1)
    nodes = (np.arange(m)[:, None] + 0.5) * w + 0.5 * w * GK15_NODES  # (m, 15) from the cell's left edge
    table = _kernel(spec)(n * (offsets * h - nodes[:, :, None]))
    weights = 0.5 * n * w * GK15_WEIGHTS
    gauss = 0.5 * n * w * G7_WEIGHTS[_GAUSS]

    # the samples of every lattice panel, taken as ``_evaluate`` takes them
    a, b = edges[:-1], edges[1:]
    fu = np.empty((a.size, GK15_NODES.size))
    chunk = max(1, _CHUNK_ROWS // GK15_NODES.size)
    anchor = np.array(x0)
    for p0 in range(0, a.size, chunk):
        pa, pb = a[p0:p0 + chunk, None], b[p0:p0 + chunk, None]
        fu[p0:p0 + chunk] = _sample(f, spec, 0.5 * (pa + pb) + 0.5 * (pb - pa) * GK15_NODES, anchor)
    fu[at - 1] = 0.0  # a panel cut at a kink leaves the lattice
    fu = fu.reshape(cells, m, GK15_NODES.size)

    # a block's (m, cells, offsets) accumulators and (2, cells, offsets)
    # terms stay within 15 _CHUNK_ROWS values, the size of a row chunk's arrays
    per_block = max(1, GK15_NODES.size * _CHUNK_ROWS // (max(m, 2) * offsets.size))
    # a block's terms reach at most this far beyond either end of the grid
    pad = stride * (per_block - 1)
    totals = np.zeros((2, size + 2 * pad))  # values and error estimates
    for q0 in range(0, cells, per_block):
        q1 = min(q0 + per_block, cells)
        e0 = max(j_lo, -stride * (q_lo + q1 - 1)) - j_lo
        e1 = min(j_hi, size - 1 - stride * (q_lo + q0)) - j_lo + 1
        block = table[:, :, e0:e1]
        k15 = _contract(fu[q0:q1] * weights, block)
        err = _contract(fu[q0:q1, :, _GAUSS] * gauss, block[:, _GAUSS])
        np.subtract(k15, err, out=err)
        np.abs(err, out=err)
        # each cell's panels summed in order: (2, cells, offsets) terms
        terms = np.stack((_node_sum(k15.reshape(m, -1)), _node_sum(err.reshape(m, -1))))
        terms = terms.reshape(2, q1 - q0, e1 - e0)
        first = pad + stride * (q_lo + q0) + j_lo + e0  # buffer slot of cell q0's first offset
        if q1 - q0 <= e1 - e0:
            for row in range(q1 - q0):
                s = first + stride * row
                totals[:, s:s + e1 - e0] += terms[:, row]
        else:
            for col in range(e1 - e0 - 1, -1, -1):
                totals[:, first + col:first + col + stride * (q1 - q0 - 1) + 1:stride] += terms[:, :, col]
    values, errors = totals[:, pad:pad + size]

    if cuts.size:
        # the pieces of the cut panels: runs of lattice edges and cuts that
        # start or end at a cut
        merged = np.concatenate((edges, cuts))
        rank = np.argsort(merged, kind="stable")
        merged, at_cut = merged[rank], rank >= edges.size
        piece = at_cut[:-1] | at_cut[1:]
        a, b = merged[:-1][piece], merged[1:][piece]
        pieces = _evaluate(f, spec, grid, grid - x0, reach, a, b, np.full(a.size, x0))
        piece_values, piece_errors = _totals(pieces, size)
        values += piece_values
        errors += piece_errors
    return values, errors


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


def apply_on_grid(f: TestFunction, spec: OperatorSpec, xs, cfg: QuadratureConfig | None = None) -> np.ndarray:
    """Evaluate the operator at every point of ``xs`` in one pass.

    All points share a single panel decomposition in the sample variable
    u; panels are seeded at the kernel's resolution scale 1/n plus the
    kinks of f, then bisected greedily until the worst point's accumulated
    error estimate is within ``cfg.allowance`` of the largest |value|,
    tol max(1, max |value|).  Each panel is evaluated only on the grid
    points within R/n of it, R the truncation radius of the kind's kernel
    (psi's, ``cfg.radius(spec.params, f.sup_norm)``, plus 1 for the two
    averaging kinds, see ``_Kernel``), and panels are seeded only where
    they reach a grid point.  Seeds and splits together may use
    ``quadrature.MAX_SUBDIVISIONS`` panels per kernel window of width 2R/n
    spanned by the points' windows [x - R/n, x + R/n].  ``xs`` need not be
    sorted.

    The seeds, and then each round's new halves, are evaluated as flat
    (panel, grid point) rows, about a thousand rows per kernel call, with
    one call of f for the nodes of the chunk's panels.  f thus receives
    (panels, 15) arrays, up to about a thousand nodes, not 15 nodes, and
    must work elementwise on arrays of any shape.  Node sums and per-point
    totals are added in a fixed order, so the output does not depend on the
    chunk size.

    Each seeding window [lo, hi] (windows are split at gaps wider than
    3R/n between sorted points) has the anchor c = (lo + hi) / 2.  Panel
    edges and kink seeds are held as offsets from c, each point's x - c is
    computed once, and the kernel argument is n ((x - c) - t) for a node
    offset t; f is evaluated at c + t.  The rounding of
    the kernel argument is thus about n ulp(x - c), not n ulp(x), and the
    result far from the origin is as accurate as near it.  On a window
    symmetric about 0, c is exactly 0.

    Lattice seeds: when the sorted distinct points are exactly
    ``np.linspace(x0, x1, N)`` (N >= 2), form one seeding window and span
    at least four lattice cells, the seed round runs on a lattice anchored
    at x0 (see ``_lattice``).  The lattice evaluates the operator at
    x0 + i h, not at the double x_i, so it is taken only when that drift
    (about ulp(x) / 2 far from the origin) can move no value by more than
    tol / 10; a uniform grid far from the origin, such as
    ``np.linspace(1e6, 1e6 + 6, N)``, takes the row path.  The lattice
    panels have width h M or h / m, the widest not above W/n: W is the
    kernel's own scale, the power of two (from 2^-10 up) at which GK15
    panels of width W resolve the kind's kernel, times sup |f|, to tol
    (see ``_kernel_width``; for psi 2 at q = beta = 1, 4 at beta = 0.5,
    1/8 at beta = 20).  When W > 1 and the W/n lattice is refused (panel budget,
    or fewer than four cells) or misses tolerance, the 1/n lattice runs
    next, whose panels are never coarser than the row seeds; when W <= 1
    the W/n lattice is the only one tried.
    The kind's kernel is evaluated once, on a table of kernel values per
    (node, lattice offset); each (panel, point) K15 term and its
    |K15 - G7| estimate is a 15-node contraction of the panel's weighted
    samples with the table, and the totals are the same per-point sums as
    on rows, added in a fixed order.  A lattice panel holding a kink is cut
    there and its pieces are evaluated as rows in the same round.  If a
    lattice round meets tolerance, its totals are the result; if none
    does, the call goes on from the row seeds above (the lattice keeps no
    rows to refine), so refinement rounds, Chebyshev nodes and other grids
    take the row path exactly as before.
    """
    cfg = cfg or DEFAULT_CONFIG
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if xs.size == 0:
        return np.empty(0)
    if not np.all(np.isfinite(xs)):
        raise ValueError("grid points must be finite")
    k, n = _kernel(spec), spec.n
    radius = cfg.radius(spec.params, f.sup_norm) + k.shift
    reach = radius / n
    # the distinct points in ascending order, and each input point's place
    # among them (np.unique would import numpy.ma)
    order = np.argsort(xs, kind="stable")
    ranked = xs[order]
    distinct = np.concatenate(([True], ranked[1:] != ranked[:-1]))
    grid = ranked[distinct]
    slot = np.empty(xs.size, dtype=np.intp)
    slot[order] = np.cumsum(distinct) - 1

    # seed only the union of the points' kernel windows [x - R/n, x + R/n]:
    # a panel anywhere else reaches no grid point.  Windows are split only at
    # gaps over 3R/n, so no panel reaches a point of another window.
    bounds = np.concatenate(([0], np.flatnonzero(np.diff(grid) > 3.0 * reach) + 1, [grid.size]))
    lows = grid[bounds[:-1]] - reach
    highs = grid[bounds[1:] - 1] + reach
    caps = [quadrature.MAX_SUBDIVISIONS * math.ceil((hi - lo) * n / (2.0 * radius)) for lo, hi in zip(lows, highs)]
    budget = sum(caps)

    # the lattice moves each point by up to _drift(grid), which moves its
    # value by up to that times sup |(B f)'| <= n sup|f| TV(k); averaging
    # does not raise the total variation, and TV(psi) <= 2 g_max: keep that
    # below tol / 10
    slope = 2.0 * n * spec.params.g_max_value * f.sup_norm
    uniform = lows.size == 1 and grid.size >= 2 and np.array_equal(grid, np.linspace(grid[0], grid[-1], grid.size))
    if uniform and _drift(grid) * slope <= 0.1 * cfg.tol:
        # panels at the kernel's own scale W/n first, then (if W > 1) at 1/n
        width = _kernel_width(k, radius, cfg.tol, f.sup_norm)
        for w in (width, 1.0) if width > 1.0 else (width,):
            lattice = _lattice(f, spec, grid, reach, budget, w)
            if lattice is not None:
                values, errors = lattice
                if float(errors.max()) <= cfg.allowance(float(np.abs(values).max())):
                    return values[slot]
    # otherwise (and on a uniform grid whose lattice rounds miss tolerance)
    # the seeds are evaluated as rows
    anchors = 0.5 * (lows + highs)
    offset = grid - np.repeat(anchors, np.diff(bounds))
    seeds = []
    for lo, hi, c, cap in zip(lows.tolist(), highs.tolist(), anchors.tolist(), caps):
        count = max(2, min(max(math.ceil((hi - lo) * n), 8), cap))
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
            return total_val[slot]
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
    node_count: int = 64,
    cfg: QuadratureConfig | None = None,
) -> GridApproximant:
    """Interpolate the operator on ``node_count`` Chebyshev extrema over
    ``domain``, from one ``apply_on_grid`` call on the 2 node_count - 1
    extrema: the even ones are the nodes, and at the odd ones, the
    theta-midpoints between nodes where the interpolation error peaks, the
    largest |interpolant - operator| is recorded as the residual.  The
    approximant is flagged when the residual exceeds ``RESIDUAL_CEILING``."""
    a, b = float(domain[0]), float(domain[1])
    if not b > a:
        raise ValueError(f"domain must satisfy b > a, got {domain!r}")
    if node_count < 8:
        raise ValueError(f"node_count must be >= 8, got {node_count}")
    fine = _chebyshev_nodes(a, b, 2 * node_count - 1)
    values = apply_on_grid(f, spec, fine, cfg)
    approx = GridApproximant((a, b), values[::2])
    approx.residual = float(np.abs(approx(fine[1::2]) - values[1::2]).max())
    approx.flagged = approx.residual > RESIDUAL_CEILING
    return approx


def _chain(
    f: TestFunction,
    specs: Sequence[OperatorSpec],
    domain: tuple[float, float],
    node_count: int,
    cfg: QuadratureConfig | None,
) -> GridApproximant:
    """Apply the operators of ``specs`` in order, each stage consuming the
    previous stage's approximant (with its clamped extension) as a bounded
    continuous function.

    A chain of two or more stages builds every stage on the domain padded
    by the truncation radius over the smallest n, so clamping only ever
    sits in negligible-kernel-mass territory relative to the requested
    domain.  Raises ``FlaggedApproximantError`` at the first stage whose
    residual exceeds ``RESIDUAL_CEILING``.
    """
    if len(specs) > 1:
        pad = (cfg or DEFAULT_CONFIG).radius(specs[0].params, 1.0) / min(s.n for s in specs)
        domain = (float(domain[0]) - pad, float(domain[1]) + pad)
    current = f
    for stage, spec in enumerate(specs, start=1):
        approx = make_grid_approximant(current, spec, domain, node_count, cfg)
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
    node_count: int = 64,
    cfg: QuadratureConfig | None = None,
) -> GridApproximant:
    """The r-fold self-composition of the operator: the chain of r equal
    resolutions (see ``compose_mixed``)."""
    if not (isinstance(r, (int, np.integer)) and r >= 1):
        raise ValueError(f"r must be a positive integer, got {r!r}")
    return _chain(f, [spec] * int(r), domain, node_count, cfg)


def compose_mixed(
    f: TestFunction,
    kind: OperatorKind | str,
    ns: Sequence[int],
    params: KernelParams,
    alpha: float = 0.5,
    domain: tuple[float, float] = (-3.0, 3.0),
    node_count: int = 64,
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
    specs = [OperatorSpec(kind=OperatorKind(kind), n=n, params=params, alpha=alpha, weights=weights) for n in ns]
    return _chain(f, specs, domain, node_count, cfg)

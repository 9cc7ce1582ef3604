"""Closed-form evaluation of the deformed sigmoid kernel family.

The building blocks are a two-parameter sigmoid ``nu``, the bell-shaped
density ``g`` obtained as a central difference of the sigmoid, and the
symmetrized density ``psi`` (the even average of ``g`` at ``q`` and
``1/q``), with its unit-window average ``psi_average``.  Alongside the point
evaluators, this module carries the analytic constants attached to the
family: the global maximum of ``g``, an exponential envelope valid for
arguments >= 1, the moments of ``psi`` in closed form, closed-form upper
bounds for tail mass and absolute moments of ``psi``, and its upper
moments ``upper_moment`` exactly, through the complete Fermi-Dirac
integrals ``fermi_dirac``.

All evaluators accept scalars or numpy arrays and are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import HypothesisNotMetError

__all__ = [
    "KernelParams",
    "nu",
    "g",
    "psi",
    "psi_average",
    "psi_moments",
    "psi_envelope",
    "window_edge",
    "tail_mass_bound",
    "moment_bound",
    "fermi_dirac",
    "upper_moment",
]

# float(math.factorial(k)) overflows beyond this
_MAX_MOMENT_ORDER = 170
#: the largest beta: e^-beta, which ``psi_average`` and the wide form of g
#: are built on, is a normal double up to about 708
MAX_BETA = 700.0


@dataclass(frozen=True)
class KernelParams:
    """Deformation ``q`` and rate ``beta`` of the kernel family, both > 0,
    with beta at most ``MAX_BETA``."""

    q: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        for name in ("q", "beta"):
            value = getattr(self, name)
            try:
                value = float(value)
            except (TypeError, ValueError):
                raise ValueError(f"{name} must be a positive real, got {value!r}") from None
            if not math.isfinite(value) or value <= 0.0:
                raise ValueError(f"{name} must be a positive finite real, got {value!r}")
            object.__setattr__(self, name, value)
        if self.beta > MAX_BETA:
            raise ValueError(f"beta must be at most {MAX_BETA:g}, got {self.beta!r}")

    @property
    def q_sum(self) -> float:
        """q + 1/q; appears in every tail and moment constant. Always >= 2."""
        return self.q + 1.0 / self.q

    @property
    def g_max_value(self) -> float:
        """Height of the density g at its peak: (1 - e^-beta) / (2 (1 + e^-beta))."""
        e = math.exp(-self.beta)
        return (1.0 - e) / (2.0 * (1.0 + e))

    @property
    def g_argmax(self) -> float:
        """Location of the peak of g: ln(q) / beta."""
        return math.log(self.q) / self.beta

    @cached_property
    def _wide(self) -> bool:
        """Whether g and psi need their form in ln w: ``_g_of_w`` can
        overflow for w up to max(q, 1/q) (not while each of its terms stays
        below e^700)."""
        log_q = abs(math.log(self.q))
        return log_q > 350.0 or self.beta + log_q > 700.0


def _prepare(x):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("x must be finite")
    scalar = arr.ndim == 0
    return (arr.reshape(1) if scalar else arr), scalar


def _ret(out: np.ndarray, scalar: bool):
    return float(out[0]) if scalar else out


def nu(params: KernelParams, x) -> float | np.ndarray:
    """Sigmoid (1 - q e^{-beta x}) / (1 + q e^{-beta x}).

    Saturates to +-1 for large |beta x| without overflow: the negative axis
    is evaluated as (e^{beta x} - q) / (e^{beta x} + q).
    """
    arr, scalar = _prepare(x)
    bx = params.beta * arr
    out = np.empty_like(bx)
    pos = bx >= 0
    if pos.any():
        e = np.exp(-bx[pos])
        out[pos] = (1.0 - params.q * e) / (1.0 + params.q * e)
    neg = ~pos
    if neg.any():
        e = np.exp(bx[neg])
        out[neg] = (e - params.q) / (e + params.q)
    return _ret(out, scalar)


def _magnitude(x, shift: float = 0.0):
    """x as an array of at least one dimension, |x + shift| in a new
    buffer, its largest element, and whether x is a scalar.  Raises unless
    x is finite: the largest |x + shift| is finite exactly when every x
    is, so one reduction serves as the check."""
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    if scalar:
        arr = arr.reshape(1)
    if shift:
        t = np.add(arr, shift)
        np.abs(t, out=t)
    else:
        t = np.abs(arr)
    top = float(np.maximum.reduce(t, axis=None, initial=0.0))
    if not math.isfinite(top):
        raise ValueError("x must be finite")
    return arr, t, top, scalar


# e^-708 is a normal double (below e^-708.4 they are subnormal): no
# exponential that g is built on (e^{-beta |x|} and c e^{-beta |x|}, or
# e^-|ln w| in the wide form) leaves the normal range unless
# beta max|x| + |ln q| exceeds this
_NORMAL_DECAY = 708.0
# the smallest normal double
_TINY = 2.0**-1022


def _g_of_w(w: np.ndarray, beta: float, den: np.ndarray, sq: np.ndarray) -> np.ndarray:
    # Cancellation-free form of (nu(t+1) - nu(t-1)) / 4, valid for t >= 0.
    # With w = q e^{-beta t}: g = w sinh(beta) / (1 + 2 w cosh(beta) + w^2),
    # computed in place in w (den and sq are scratch) in that order of
    # operations.
    np.multiply(w, 2.0 * math.cosh(beta), out=den)
    den += 1.0
    np.multiply(w, w, out=sq)
    den += sq
    w *= math.sinh(beta)
    w /= den
    return w


def _g_of_log_w(s: np.ndarray, beta: float, den: np.ndarray, tmp: np.ndarray, deep: bool) -> np.ndarray | None:
    # The same g from s = ln w, for any w and beta: g(w) = g(1/w), so with
    # u = e^-|s| <= 1 and E = e^-beta, g = u (1 - E^2) / (2 (u + E) (1 + u E)),
    # where nothing overflows; in place in s (den and tmp are scratch), in
    # that order of operations.  Returns the elements whose u is below the
    # normal range if ``deep``, else None.
    np.abs(s, out=s)
    np.negative(s, out=s)
    u = np.exp(s, out=s)
    tails = u < _TINY if deep else None
    e = math.exp(-beta)
    np.add(u, e, out=den)
    den *= 2.0
    np.multiply(u, e, out=tmp)
    tmp += 1.0
    den *= tmp
    u *= -math.expm1(-2.0 * beta)
    u /= den
    return tails


def _g_tail(s: np.ndarray, beta: float) -> np.ndarray:
    # g from s = ln w where an exponential of the forms above is below the
    # normal range: it has lost bits there, or all of them, though g may
    # still be a normal number.  w = e^-|s| (by g(w) = g(1/w)) is then so
    # small that w^2 is lost next to 1: g = w sinh(beta) / (1 + 2 w
    # cosh(beta)), each product one exponential of a sum.
    s = -np.abs(s)
    return np.exp(s + math.log(math.sinh(beta))) / (1.0 + np.exp(s + math.log(2.0 * math.cosh(beta))))


def _deformations(params: KernelParams, x) -> tuple[np.ndarray, list[np.ndarray], bool]:
    """x as an array of at least one dimension, [g_q(|x|), g_{1/q}(|x|)],
    and whether x is a scalar.  Both are formed from one shared
    e^{-beta |x|} (beta |x| in the wide form), in place in four buffers,
    with the bits of g at t = |x| and c = q or 1/q; at q = 1 they coincide,
    and the list holds g_1(|x|) once, computed in three."""
    arr, shared, top, scalar = _magnitude(x)
    q, beta, wide = params.q, params.beta, params._wide
    deep = beta * top + abs(math.log(q)) > _NORMAL_DECAY
    if wide:
        shared *= beta
    else:
        shared *= -beta
        np.exp(shared, out=shared)
        # w = c e is at least e for c >= 1, so there e leaves the normal range first
        low = shared < _TINY if deep else None
    scratch = np.empty_like(shared), np.empty_like(shared)
    # g_{1/q} last, as it overwrites the shared buffer
    deformed = [shared] if q == 1.0 else [np.empty_like(shared), shared]
    for c, out in zip((q, 1.0 / q), deformed):
        if wide:
            tails = _g_of_log_w(np.subtract(math.log(c), shared, out=out), beta, *scratch, deep)
        else:
            if c != 1.0:
                np.multiply(shared, c, out=out)
            tails = low if c >= 1.0 or not deep else out < _TINY
            _g_of_w(out, beta, *scratch)
        if tails is not None:
            out[tails] = _g_tail(math.log(c) - beta * np.abs(arr[tails]), beta)
    return arr, deformed, scalar


def g(params: KernelParams, x) -> float | np.ndarray:
    """Density (nu(x+1) - nu(x-1)) / 4; strictly positive on the real line.

    The negative axis is routed through the reflection g_q(-x) = g_{1/q}(x),
    so the deformed symmetry holds bit-exactly: every point is taken at
    t = |x| with c = q or 1/q by its sign.
    """
    arr, deformed, scalar = _deformations(params, x)
    return _ret(np.where(arr >= 0.0, deformed[0], deformed[-1]), scalar)


def psi(params: KernelParams, x) -> float | np.ndarray:
    """Symmetrized density (g_q(x) + g_{1/q}(x)) / 2; even, positive, unit mass.

    Evaluated through |x|, so psi(x) == psi(-x) holds exactly in floating
    point, with the bits of two calls of g (see ``_deformations``); at
    q = 1, (g + g) / 2 is g exactly, so g is taken once.
    """
    _, deformed, scalar = _deformations(params, x)
    out = deformed[0]
    if len(deformed) == 2:
        out += deformed[1]
        out *= 0.5
    return _ret(out, scalar)


def psi_average(params: KernelParams, x) -> float | np.ndarray:
    """Average of psi over [x, x + 1]; even about -1/2, positive, unit mass.

    The antiderivative of nu is (2 / beta) ln cosh(beta (x - c) / 2) with
    c = ln(q) / beta, and the four log-cosh terms that each deformation
    contributes collapse to one logarithm:

        (1 / (4 beta)) ln((1 + z(t_q)) (1 + z(t_{1/q}))),  t_q = beta |x + 1/2| - ln q,
        z(t) = 2 sinh(beta / 2) sinh(beta) / (cosh(beta / 2) + cosh(t))
             = (1 - E) (1 - E^2) / (E + E^2 + e^(t - 3 beta / 2) + e^(-t - 3 beta / 2)),  E = e^-beta.

    The last form holds no e^beta, so it stays finite while E is a normal
    number (beta below about 700, as for psi).  One log1p of the product
    keeps the absolute error near 1e-16, and the relative error in the
    tails is that of the exponentials.  The arithmetic runs in place in
    three buffers; at q = 1, z(t_q) and z(t_{1/q}) coincide and z is
    computed once, in two.
    """
    _, y, _, scalar = _magnitude(x, 0.5)
    beta = params.beta
    e = math.exp(-beta)
    lift = math.expm1(-beta) * math.expm1(-2.0 * beta)
    floor = e + e * e
    log_q = math.log(params.q)
    # y = beta |x + 1/2| - 3 beta / 2
    y *= beta
    y -= 1.5 * beta

    def z(c: float, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
        """lift / (E + E^2 + e^(y - c) + e^(-y - 3 beta + c)) in ``out``;
        ``tmp`` may be y itself on its last use."""
        np.subtract(y, c, out=out)
        np.exp(out, out=out)
        np.negative(y, out=tmp)
        tmp -= 3.0 * beta
        tmp += c
        np.exp(tmp, out=tmp)
        out += floor
        out += tmp
        return np.divide(lift, out, out=out)

    # far out an exponential overflows and z is 0; each z is below 1 / E,
    # so the product is below e^(2 beta) + 2 e^beta, which overflows only at
    # beta above 354, near the peak, and there the logarithms are taken
    # apart
    with np.errstate(over="ignore"):
        tmp = np.empty_like(y)
        if log_q == 0.0:
            z_q = z_inv = z(log_q, tmp, y)
        else:
            z_q = z(log_q, np.empty_like(y), tmp)
            z_inv = z(-log_q, tmp, y)
        both = np.add(z_q, 1.0, out=y)
        both *= z_inv
        both += z_q
    big = np.isinf(both) if beta > 354.0 else None
    out = np.log1p(both, out=both)
    if big is not None:
        out[big] = np.log1p(z_q[big]) + np.log1p(z_inv[big])
    out /= 4.0 * beta
    return _ret(out, scalar)


def _moments_of_sum(a: list[float], b: list[float]) -> list[float]:
    """E[(X + Y)^m] for m < len(a), X and Y independent with the moment
    sequences a and b: the binomial theorem."""
    return [math.fsum(math.comb(m, j) * a[j] * b[m - j] for j in range(m + 1)) for m in range(len(a))]


def psi_moments(params: KernelParams, k: int) -> list[float]:
    """E[H^j] for H ~ psi and j = 0..k, in closed form; the odd ones are 0.0.

    psi is the law of U + L / beta + S ln(q) / beta, with U uniform on
    [-1, 1], L standard logistic and S = +-1 with probability 1/2 each, all
    independent.  E L^{2i} = (2^{2i} - 2) |B_{2i}| pi^{2i} = (2i)! a_i pi^{2i},
    where a_i are the Taylor coefficients of x / sin x (the logistic's moment
    generating function is pi s / sin(pi s)).  Every term is nonnegative, so
    the moments are accurate to a few ulps.
    """
    if not (isinstance(k, (int, np.integer)) and k >= 0):
        raise ValueError(f"k must be a nonnegative integer, got {k!r}")
    k = int(k)
    # sin(x) (x / sin x) = x gives a_i from a_0 .. a_{i-1}
    a = [1.0]
    for i in range(1, k // 2 + 1):
        a.append(math.fsum((-1) ** (m + 1) * a[i - m] / math.factorial(2 * m + 1) for m in range(1, i + 1)))
    c = math.log(params.q) / params.beta
    uniform, logistic, sign = ([0.0] * (k + 1) for _ in range(3))
    for j in range(0, k + 1, 2):
        uniform[j] = 1.0 / (j + 1)
        logistic[j] = math.factorial(j) * a[j // 2] * (math.pi / params.beta) ** j
        sign[j] = c**j
    return _moments_of_sum(_moments_of_sum(uniform, logistic), sign)


# eta(j) = F_j(0) = (1 - 2^(1 - j)) zeta(j) for j = 0..6, eta(0) = 1/2
_ETA = (0.5, math.log(2.0), math.pi**2 / 12.0, 0.75 * 1.2020569031595942, 7.0 * math.pi**4 / 720.0,
        0.9375 * 1.0369277551433699, 31.0 * math.pi**6 / 30240.0)
# Taylor terms of F_s (falling like pi^-k); series terms leaving an ulp at
# x = -1 and at ln(u/2) / 8; the widest stencil the Taylor branch takes
_TERMS, _SERIES_TERMS, _FEW_TERMS, _NARROW, _U = 64, 38, 8, 0.5, 2.0**-53


@lru_cache(maxsize=None)
def _taylor(s: int) -> np.ndarray:
    """The first ``_TERMS`` Taylor coefficients of F_s about 0: F_0(x) =
    1 / (1 + e^-x) = (1 + tanh(x / 2)) / 2, 2 tanh' = 1 - tanh^2 gives the
    odd coefficients of tanh(x / 2) one by one (the products of each sum
    share one sign), and F_s' = F_(s-1)."""
    if s:
        return np.concatenate(([_ETA[s]], _taylor(s - 1)[:-1] / np.arange(1, _TERMS)))
    t = [1.0, 0.5] + [0.0] * (_TERMS - 2)
    for k in range(2, _TERMS - 1, 2):
        t[k + 1] = -sum(t[i] * t[k - i] for i in range(1, k, 2)) / (2 * k + 2)
    return 0.5 * np.array(t)


def _shifted(coeffs: np.ndarray, steps: tuple[float, ...]) -> np.ndarray:
    """The coefficients of sum_i sigma_i p(x + o_i), the centred differences
    of widths ``steps`` of the polynomial p with ``coeffs`` (ascending): the
    sum of e_j p^(j)(x), e_j the Taylor coefficients of the stencil's symbol
    sum_i sigma_i e^(o_i t) = prod_h 2 sinh(h t / 2)."""
    if not steps:
        return coeffs
    j = np.arange(coeffs.size)
    factorial, e = np.cumprod(np.maximum(j, 1.0)), (j == 0) * 1.0
    for h in steps:
        e = np.convolve(e, np.where(j % 2, 2.0 * (0.5 * h) ** j / factorial, 0.0))[:j.size]
    out = np.zeros(coeffs.size)
    for i in np.flatnonzero(e):  # p^(i) has the coefficients (k + i)! / k! c_(k+i)
        out[:j.size - i] += e[i] * coeffs[i:] * (factorial[i:] / factorial[:j.size - i])
    return out


@lru_cache(maxsize=64)
def _polynomials(s: int, steps: tuple[float, ...]) -> tuple:
    """For D_h1 ... D_hm F_s: the coefficients (-1)^(k+1) prod_h -expm1(-k
    h) / k^s of its series in e^(x + w/2); the differenced P_s (the Taylor
    terms of s's parity, doubled); and, if the stencil is narrow, the
    differenced Taylor polynomial (highest first, its terms reaching 2^-60
    at |x| = 1 + w) and its rounding bound on |x| <= 1 + w/2."""
    k = np.arange(1, _SERIES_TERMS + 1)
    series = (-1.0) ** (k + 1) * np.prod([-np.expm1(-k * h) for h in steps], axis=0) / k**s
    c = _taylor(s)
    poly = _shifted(np.where(np.arange(s + 1) % 2 == s % 2, 2.0 * c[:s + 1], 0.0), steps)
    if sum(steps) > _NARROW:
        return series, poly, None, math.inf
    c = c[:min(_TERMS, s + 1 + math.ceil(60.0 * math.log(2.0) / math.log(math.pi / (1.0 + sum(steps)))))]
    size = np.add.reduce(_shifted(np.abs(c), steps) * (1.0 + 0.5 * sum(steps)) ** np.arange(c.size))
    return series, poly, _shifted(c, steps)[::-1], (2 * c.size + 16) * _U * size


def _series(coeffs: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sum_k c_k e^(k z) for z <= -1 (``_polynomials``), 38 terms or from
    z = ln(u/2) / 8 on 8, each leaving less than an ulp, as the rows of a
    table summed in order (a dummy column stops numpy summing a lone one
    pairwise): each value depends on its z alone.  Its rounding bound: 3
    ulp per term and |z| for z = x -+ w/2, of |c_1| e^z / (1 - e^z)."""
    values = np.empty(z.size)
    many = z > math.log(0.5 * _U) / _FEW_TERMS
    for part, terms in ((many, _SERIES_TERMS), (~many, _FEW_TERMS)):
        rows = np.exp(np.arange(1.0, terms + 1.0)[:, None] * np.append(z[part], -1.0))
        values[part] = np.add.reduce(rows * coeffs[:terms, None])[:-1]
    return values, (160.0 + np.abs(z)) * _U * abs(coeffs[0]) * np.exp(z) / -np.expm1(z) + 2.0**-1068


def fermi_dirac(s: int, x, steps: tuple[float, ...] = ()) -> tuple[np.ndarray, np.ndarray]:
    """The complete Fermi-Dirac integral F_s(x) = -Li_s(-e^x) (DLMF 25.12)
    for s = 1..6, elementwise, or with m <= s ``steps`` its centred
    differences D_h1 ... D_hm F_s(x), D_h F(x) = F(x + h/2) - F(x - h/2),
    and a bound on the rounding error of each value: a few ulp per
    operation times the terms' size, and the rounding of the points x +-
    h/2.  With the stencil's points all below -1, F_s is the series sum_k
    (-1)^(k+1) e^(kx) / k^s; above 1, P_s(x) - (-1)^s F_s(-x), P_s(x) = 2
    sum_(m <= s/2) eta(2m) x^(s-2m) / (s-2m)!; else its Taylor series about
    0 (radius pi).  Each branch differences its terms in closed form (e^(kx)
    by the symbol prod_h 2 sinh(kh/2), a polynomial by its derivatives), so
    a narrow stencil does not cancel; a wider one that straddles [-1, 1]
    sums its 2^m points."""
    if not (s in range(1, 7) and len(steps) <= s):
        raise ValueError(f"fermi_dirac takes s in 1..6 and at most s steps, got s={s!r}, {len(steps)} steps")
    steps = tuple(float(h) for h in steps)
    flat = np.asarray(x, dtype=float).reshape(-1)
    half = 0.5 * math.fsum(steps)
    series, poly, taylor, bound = _polynomials(s, steps)
    below, above = flat + half <= -1.0, flat - half >= 1.0
    middle = ~(below | above)
    # both tails in one series, above in e^-(x - w/2); the middle is overwritten
    values, errors = _series(series, np.where(below, flat + half, np.minimum(half - flat, -1.0)))
    # P_s and its differences have nonnegative coefficients, so at x >= 1 no term cancels
    lead = np.polyval(poly[::-1], flat[above])
    values[above] = lead + (-1) ** (s + len(steps) + 1) * values[above]
    errors[above] += (3 * s + 8) * _U * lead + _U * np.abs(values[above])
    if taylor is not None:
        values[middle], errors[middle] = np.polyval(taylor, flat[middle]), bound
    elif middle.any():
        # the 2^m points of the stencil, offsets sums of +-h/2, with their signs
        offsets, signs = np.zeros(1), np.ones(1)
        for h in steps:
            offsets, signs = np.concatenate((offsets + 0.5 * h, offsets - 0.5 * h)), np.concatenate((signs, -signs))
        points = flat[middle][:, None] + offsets
        parts, error = fermi_dirac(s, points)
        values[middle] = np.add.reduce(parts * signs, axis=1)
        errors[middle] = np.add.reduce(error + (np.abs(points) + s + signs.size) * _U * np.abs(parts), axis=1)
    return values.reshape(np.shape(x)), errors.reshape(np.shape(x))


def upper_moment(params: KernelParams, k: int, y, widths: tuple[float, ...] = ()) -> tuple[np.ndarray, np.ndarray]:
    """E(H + T - y)+^k (k = 0: P(H + T > y)) for H ~ psi and T the sum of
    independent centred uniforms of the given ``widths`` (none: T = 0),
    elementwise in y, for k + len(widths) <= 5, and a bound on the rounding
    error of each value.

    H = U + L / beta + S ln(q) / beta (``psi_moments``) and E(L - a)+^k =
    k! F_k(-a), so averaging over U, each width h and S gives k! sum_S
    D_2beta D_beta h1 ... F_(k+1+m)(-beta y + S ln q) / (4 beta^(k+1+m) h1
    ... hm) (``fermi_dirac``).  The bound adds to the closed form's a few
    ulp for the scaling, and for the rounding of y (one operation) and of
    the arguments, 4 ulp of |y| + 1 + sum h / 2 + |ln q| / beta in y, times
    the slope k E(H + T - y)+^(k-1), or the density for k = 0: at most
    beta value (L's hazard is at most 1, and F_(k-1) <= F_k), and at most k
    value^(1 - 1/k) (Lyapunov), or psi's peak 1/2 for k = 0."""
    beta, log_q = params.beta, math.log(params.q)
    y, order = np.asarray(y, dtype=float), k + 1 + len(widths)
    values, errors = fermi_dirac(order, np.stack((log_q - beta * y, -log_q - beta * y)),
                                 (2.0 * beta,) + tuple(beta * h for h in widths))
    scale = math.factorial(k) / (4.0 * beta**order * math.prod(widths))
    value = (values[0] + values[1]) * scale
    slope = np.minimum(beta * np.abs(value), 0.5 if k == 0 else k * np.abs(value) ** (1.0 - 1.0 / k))
    reach = np.abs(y) + 1.0 + 0.5 * math.fsum(widths) + abs(log_q) / beta
    return value, (errors[0] + errors[1]) * scale + 8.0 * _U * np.abs(value) + 4.0 * _U * reach * slope


def psi_envelope(params: KernelParams, x) -> float | np.ndarray:
    """Exponential majorant (q + 1/q) beta e^{-beta (x - 1)} / 2 for x >= 1.

    Strictly dominates psi on [1, inf); undefined (raises) below 1.
    """
    arr, scalar = _prepare(x)
    if np.any(arr < 1.0):
        raise ValueError("psi_envelope is only valid for x >= 1")
    out = 0.5 * params.q_sum * params.beta * np.exp(-params.beta * (arr - 1.0))
    return _ret(out, scalar)


def window_edge(n: int, alpha: float) -> float:
    """The edge m = n^{1-alpha} of the kernel window |h| < m that every tail
    term is taken outside of.

    Raises ``HypothesisNotMetError`` unless 0 < alpha < 1 and m > 2, the
    hypothesis of the tail bound and of every error bound built on it.
    """
    if not (0.0 < alpha < 1.0):
        raise HypothesisNotMetError(f"alpha must lie in (0, 1), got {alpha!r}")
    m = float(n) ** (1.0 - alpha)
    if not m > 2.0:
        raise HypothesisNotMetError(
            f"requires n**(1 - alpha) > 2; got n={n}, alpha={alpha}, n**(1 - alpha)={m:.6g}"
        )
    return m


def tail_mass_bound(params: KernelParams, n: int, alpha: float) -> float:
    """Upper bound (q + 1/q) e^{-beta (n^{1-alpha} - 1)} on the kernel mass
    outside the window |h| >= n^{1-alpha}, as one exponential of
    ln(q + 1/q) - beta (n^{1-alpha} - 1): apart, the exponential
    underflows to 0 (q = 1e300, beta = 700) where the product does not.

    Requires n^{1-alpha} > 2 (see ``window_edge``).
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError(f"n must be a positive integer, got {n!r}")
    return math.exp(math.log(params.q_sum) - params.beta * (window_edge(n, alpha) - 1.0))


def moment_bound(params: KernelParams, k: int) -> float:
    """Upper bound on the k-th absolute moment of psi, k >= 1:

        (1 - e^-beta) / (1 + e^-beta) * 1/(k+1)  +  (q + 1/q) e^beta k! / beta^k
    """
    if not (isinstance(k, (int, np.integer)) and k >= 1):
        raise ValueError(
            f"k must be a positive integer, got {k!r}; "
            "the k = 0 integral is the unit normalization of psi"
        )
    if k > _MAX_MOMENT_ORDER:
        raise ValueError(f"k = {k} overflows the float factorial (max {_MAX_MOMENT_ORDER})")
    e = math.exp(-params.beta)
    flat = (1.0 - e) / (1.0 + e) / (k + 1.0)
    tail = params.q_sum * math.exp(params.beta) * float(math.factorial(int(k))) / params.beta**k
    return flat + tail

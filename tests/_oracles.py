"""Regenerate the frozen expected values used across the test suite.

Evaluates the raw closed-form expressions with mpmath at 50 digits,
independently of the package code, so frozen constants can be audited or
refreshed:

    python3 tests/_oracles.py

The reference functions below (psi_mp, psi_average_mp, central_moment_mp,
...) also serve the tests directly, at the precision of the caller's
``mp.workdps`` context.  ``g_expr``, ``psi_expr`` and ``psi_average_expr``
are the package's kernel expressions as first written, one numpy temporary
per operation: the in-place kernels must give their bits.  ``tiled_width``
measures the kernel's panel width on GK15 tilings of psi, the reference of
the closed form ``QuadratureConfig.width``.
"""

import functools
import math

import mpmath as mp
import numpy as np


def nu_mp(q, beta, x):
    return (1 - q * mp.e ** (-beta * x)) / (1 + q * mp.e ** (-beta * x))


def g_mp(q, beta, x):
    return (nu_mp(q, beta, x + 1) - nu_mp(q, beta, x - 1)) / 4


def psi_mp(q, beta, x):
    return (g_mp(q, beta, x) + g_mp(1 / q, beta, x)) / 2


def psi_mass_mp(q, beta, radius):
    """The mass of psi on [-R, R] in closed form: nu(x) = tanh(beta (x - c) / 2),
    c = ln(q) / beta, has the antiderivative (2 / beta) ln cosh(beta (x - c) / 2),
    so g's mass is a sum of four of its values, at the working precision."""
    q, beta, radius = mp.mpf(q), mp.mpf(beta), mp.mpf(radius)

    def g_mass(c):
        def nu_int(x):
            return 2 / beta * mp.log(mp.cosh(beta * (x - c) / 2))
        return (nu_int(radius + 1) - nu_int(1 - radius) - nu_int(radius - 1) + nu_int(-radius - 1)) / 4

    return (g_mass(mp.log(q) / beta) + g_mass(-mp.log(q) / beta)) / 2


def _g_of_w_expr(w, beta):
    return w * math.sinh(beta) / (1.0 + 2.0 * math.cosh(beta) * w + w * w)


def _g_of_log_w_expr(s, beta):
    u = np.exp(-np.abs(s))
    e = math.exp(-beta)
    return u * -math.expm1(-2.0 * beta) / (2.0 * (u + e) * (1.0 + u * e))


def _g_right_expr(q, beta, t, wide):
    if wide:
        return _g_of_log_w_expr(math.log(q) - beta * t, beta)
    return _g_of_w_expr(q * np.exp(-beta * t), beta)


def g_expr(params, x):
    """``kernel.g`` on a 1-d array, each sign of x on its own."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = _g_right_expr(params.q, params.beta, x[pos], params._wide)
    out[~pos] = _g_right_expr(1.0 / params.q, params.beta, -x[~pos], params._wide)
    return out


def psi_expr(params, x):
    """``kernel.psi``: both deformations from one exponential of beta |x|."""
    if params._wide:
        decay = params.beta * np.abs(x)
        wq, wr = (_g_of_log_w_expr(math.log(c) - decay, params.beta) for c in (params.q, 1.0 / params.q))
        return 0.5 * (wq + wr)
    e = np.exp(-params.beta * np.abs(x))
    return 0.5 * (_g_of_w_expr(params.q * e, params.beta) + _g_of_w_expr((1.0 / params.q) * e, params.beta))


def tiled_width(params, radius, tol, scale):
    """The kernel's panel width measured on psi, the reference of
    ``QuadratureConfig.width``: the power of two W at which GK15 panels of
    width W tiling [-R, R] integrate psi with ``scale`` times their summed
    |K15 - G7| within ``tol``, the largest sum over the tilings offset by
    0, W/4, W/2 and 3W/4 (aligned at 0 alone, psi at beta = 20 would pass
    at W = 2, its edges at +-1 on panel midpoints).  W = 1 if it passes
    and then doubled while 2 W passes and fits in R, else halved until it
    passes or reaches 2^-10.  Each tiling is one array, so R / W should
    stay within a few thousand panels."""
    from actconv.quadrature import G7_WEIGHTS, GK15_NODES, GK15_WEIGHTS

    def resolved(width):
        i = np.arange(math.floor(-radius / width) - 1, math.ceil(radius / width) + 1)
        mids = (i + np.array([0.0, 0.25, 0.5, 0.75])[:, None] + 0.5) * width
        values = psi_expr(params, mids[:, :, None] + 0.5 * width * GK15_NODES)
        errors = 0.5 * width * np.abs((values * (GK15_WEIGHTS - G7_WEIGHTS)).sum(axis=2))
        return scale * float(errors.sum(axis=1).max()) <= tol

    width = 1.0
    while width > 2.0**-10 and not resolved(width):
        width *= 0.5
    if width == 1.0:
        while 2.0 * width <= radius and resolved(2.0 * width):
            width *= 2.0
    return width


def psi_average_expr(params, x):
    """``kernel.psi_average``: one log1p of (1 + z_q)(1 + z_1/q) - 1."""
    beta = params.beta
    e = math.exp(-beta)
    lift = math.expm1(-beta) * math.expm1(-2.0 * beta)
    y = beta * np.abs(x + 0.5) - 1.5 * beta
    log_q = math.log(params.q)
    with np.errstate(over="ignore"):
        z_q, z_inv = (lift / (e + e * e + np.exp(y - c) + np.exp(-y - 3.0 * beta + c)) for c in (log_q, -log_q))
        both = z_q + z_inv * (1.0 + z_q)
    out = np.log1p(both)
    big = np.isinf(both)
    out[big] = np.log1p(z_q[big]) + np.log1p(z_inv[big])
    return out / (4.0 * beta)


def exponentials_normal(params, x):
    """Where every exponential that ``psi_expr`` and ``g_expr`` are built on,
    for both deformations, is a normal double: e^(-beta |x|) and
    c e^(-beta |x|) for c = q and 1/q, or e^-|ln c - beta |x||, in the wide
    form.  Elsewhere the kernels take their tails from ln w instead."""
    tiny = 2.0**-1022
    t = np.abs(x)
    if params._wide:
        return np.all([np.exp(-np.abs(math.log(c) - params.beta * t)) >= tiny
                       for c in (params.q, 1.0 / params.q)], axis=0)
    e = np.exp(-params.beta * t)
    return np.minimum(e, min(params.q, 1.0 / params.q) * e) >= tiny


def moment_bound_mp(q, beta, k):
    return (1 - mp.e**-beta) / (1 + mp.e**-beta) / (k + 1) + (q + 1 / q) * mp.e**beta * mp.factorial(k) / beta**k


def psi_average_mp(q, beta, v):
    """Integral of psi over [v, v + 1], split where psi bends (at
    +-ln(q)/beta +-1), at the working precision."""
    q, beta, v = mp.mpf(q), mp.mpf(beta), mp.mpf(v)
    c = mp.log(q) / beta
    bends = sorted({b - v for b in (c - 1, c + 1, -c - 1, -c + 1) if 0 < b - v < 1})
    return mp.quad(lambda t: psi_mp(q, beta, v + t), [0, *bends, 1], method="gauss-legendre")


@functools.lru_cache(maxsize=None)
def psi_raw_moments_mp(q, beta, kmax, dps=20):
    """E[H^j] for H ~ psi, j = 0..kmax, by ``dps``-digit quadrature of the
    raw definition (the odd ones vanish by evenness)."""
    with mp.workdps(dps):
        q, beta = mp.mpf(q), mp.mpf(beta)
        c = abs(mp.log(q)) / beta
        points = sorted({mp.mpf(0)} | {p for p in (c - 1, c, c + 1) if p > 0}) + [mp.inf]
        return [2 * mp.quad(lambda h: h**j * psi_mp(q, beta, h), points) if j % 2 == 0 else mp.mpf(0)
                for j in range(kmax + 1)]


def central_moment_mp(kind, q, beta, k, weights=None, dps=20):
    """E[(T - H)^k] for H ~ psi and the kind's offset T (0, uniform on
    [0, 1], or s/r with weight w_s), by the binomial theorem over the
    moments of ``psi_raw_moments_mp``."""
    h = psi_raw_moments_mp(q, beta, 8 if k <= 8 else k, dps)
    with mp.workdps(dps):
        if kind == "basic":
            t = [mp.mpf(1)] + [mp.mpf(0)] * k
        elif kind == "kantorovich":
            t = [mp.mpf(1) / (j + 1) for j in range(k + 1)]
        else:
            r = len(weights)
            t = [mp.fsum(mp.mpf(w) * (mp.mpf(s) / r) ** j for s, w in enumerate(weights, 1)) for j in range(k + 1)]
        return mp.fsum(mp.binomial(k, j) * t[j] * (-1) ** (k - j) * h[k - j] for j in range(k + 1))


def psi_hat_mp(q, beta, w):
    """psi's characteristic function E e^(i w H): psi is the law of
    U + L + S ln(q) / beta, U uniform on [-1, 1], L logistic of scale
    1 / beta and S = +-1, so it is sinc(w) (pi w / beta) / sinh(pi w / beta)
    cos(w ln(q) / beta)."""
    z = mp.pi * w / beta
    return mp.sinc(w) * (z / mp.sinh(z) if z else mp.mpf(1)) * mp.cos(w * mp.log(q) / beta)


def gauss_operator_mp(kind, q, beta, n, x, weights=None, dps=30):
    """The operator of ``kind`` applied to exp(-u^2), at x, through the
    characteristic functions: exp(-u^2) = (1 / (2 sqrt(pi))) integral of
    exp(-t^2 / 4) e^(itu) dt and the operator samples f at x + (T - H)/n,
    so B f(x) = (1 / sqrt(pi)) integral over t > 0 of exp(-t^2 / 4)
    psi-hat(t / n) Re(e^(itx) E e^(itT/n)) dt.  The integrand is smooth,
    below e^-400 beyond t = 40 and below e^-100 where pi t / (beta n) >
    100, and it is integrated in pieces shorter than its oscillations."""
    with mp.workdps(dps):
        q, beta, x = mp.mpf(q), mp.mpf(beta), mp.mpf(x)

        def offset(w):
            if kind == "basic":
                return mp.mpf(1)
            if kind == "kantorovich":
                return (mp.expj(w) - 1) / (1j * w) if w else mp.mpf(1)
            r = len(weights)
            return mp.fsum(mp.mpf(wt) * mp.expj(w * s / r) for s, wt in enumerate(weights, 1))

        def integrand(t):
            w = t / n
            return mp.exp(-t * t / 4) * psi_hat_mp(q, beta, w) * mp.re(mp.expj(t * x) * offset(w))

        end = min(mp.mpf(40), 100 * beta * n / mp.pi + 1)
        frequency = 1 + abs(x) + (abs(mp.log(q)) + 1) / (beta * n) + mp.mpf(1) / n
        pieces = mp.linspace(0, end, int(mp.ceil(end * frequency)) + 1)
        return mp.quad(integrand, pieces, method="gauss-legendre") / mp.sqrt(mp.pi)


def _abs_clamped_integral_mp(u):
    """The integral of min(|t|, 3) over t in [0, u]."""
    if abs(u) <= 3:
        return u * abs(u) / 2
    return mp.sign(u) * (mp.mpf(9) / 2 + 3 * (abs(u) - 3))


def abs_operator_mp(kind, q, beta, n, x, weights=None, dps=30):
    """The operator of ``kind`` applied to the catalog's min(|u|, 3), at x:
    the operator samples f at x + (T - H)/n, H ~ psi and T the kind's
    offset, so B f(x) is the integral over h of psi(h) E f(x + (T - h)/n),
    the expectation over T in closed form (for kantorovich n times the
    integral of f over [z, z + 1/n], z = x - h/n).  mpmath.quad splits the
    real line where psi bends (+-ln(q)/beta +-1) and where the samples
    cross a kink k of f: at h = n (x - k) + t for the kind's offsets t (0
    and 1 for kantorovich's window ends)."""
    with mp.workdps(dps):
        q, beta, x, n = mp.mpf(q), mp.mpf(beta), mp.mpf(x), mp.mpf(n)
        if kind == "basic":
            offsets = [(mp.mpf(0), mp.mpf(1))]
        elif kind == "quadrature":
            r = len(weights)
            offsets = [(mp.mpf(s) / r, mp.mpf(w)) for s, w in enumerate(weights, 1)]
        else:
            offsets = []

        def sampled(h):
            z = x - h / n
            if kind == "kantorovich":
                return n * (_abs_clamped_integral_mp(z + 1 / n) - _abs_clamped_integral_mp(z))
            return mp.fsum(w * min(abs(z + t / n), 3) for t, w in offsets)

        # psi_mp with nu(x) = tanh(beta (x - c) / 2), c = ln(q) / beta
        c, b = mp.log(q) / beta, beta / 2

        def psi(h):
            return (mp.tanh(b * (h + 1 - c)) - mp.tanh(b * (h - 1 - c))
                    + mp.tanh(b * (h + 1 + c)) - mp.tanh(b * (h - 1 + c))) / 8

        shifts = [0, 1] if kind == "kantorovich" else [t for t, _ in offsets]
        points = {c - 1, c + 1, -c - 1, -c + 1}
        points |= {n * (x - k) + t for k in (-3, 0, 3) for t in shifts}
        return mp.quad(lambda h: psi(h) * sampled(h), [-mp.inf, *sorted(points), mp.inf])


def hinge_mp(kind, q, beta, s, radius, weights=None, dps=30):
    """The short side of the hinge n g(s / n) on the kernel window
    [-radius, radius], as the package sums it: the integral of (v - s) k(v)
    over [s, radius] for s at or above the kernel's mean -E T, else of
    (s - v) k(v) over [-radius, s], with k(v) = E psi(v + T) for the kind's
    offset T.  psi is a sum of four +-tanh(beta (v + a) / 2) / 8, so the
    kantorovich kernel, the integral of psi over [v, v + 1], is a sum of
    their antiderivatives ln cosh(beta (v + a) / 2) / (4 beta), each
    difference ln cosh(b (u + 1)) - ln cosh(b u) taken as b (|u + 1| - |u|),
    exactly +-b beyond [-1, 0], plus the decaying log1p(e^(-2 b |.|)) parts,
    so that the kernel does not cancel far out (``radius`` may be mp.inf);
    mpmath.quad splits the window where k bends (+-ln(q)/beta +-1, less the
    offsets)."""
    with mp.workdps(dps):
        q, beta, s, radius = mp.mpf(q), mp.mpf(beta), mp.mpf(s), mp.mpf(radius)
        c, b = mp.log(q) / beta, beta / 2
        if kind == "kantorovich":
            offsets, mean = [0, 1], mp.mpf(-0.5)
            shifts = ((1, 1 - c), (-1, -1 - c), (1, 1 + c), (-1, -1 + c))

            def decay(u):
                return mp.log1p(mp.exp(-2 * b * abs(u)))

            def ramp(u):
                return 1 if u >= 0 else (-1 if u <= -1 else 2 * u + 1)

            def kernel(v):
                return mp.fsum(sign * (b * ramp(v + a) + decay(v + a + 1) - decay(v + a))
                               for sign, a in shifts) / (8 * b)
        else:
            pairs = [(mp.mpf(0), mp.mpf(1))] if kind == "basic" else [
                (mp.mpf(i) / len(weights), mp.mpf(w)) for i, w in enumerate(weights, 1)]
            offsets, mean = [t for t, _ in pairs], -mp.fsum(t * w for t, w in pairs)

            def kernel(v):
                return mp.fsum(w * psi_mp(q, beta, v + t) for t, w in pairs)

        lo, hi, sign = (s, radius, 1) if s >= mean else (-radius, s, -1)
        bends = sorted({e * c + d - t for e in (1, -1) for d in (1, -1) for t in offsets} - {lo, hi})
        return mp.quad(lambda v: sign * (v - s) * kernel(v), [lo, *(p for p in bends if lo < p < hi), hi])


def main():
    mp.mp.dps = 50
    rows = [
        ("g(q=2, b=1, ln 2)", g_mp(2, 1, mp.log(2))),
        ("g max closed form (b=1)", (1 - mp.e**-1) / (2 * (1 + mp.e**-1))),
        ("psi(q=2, b=1, 0)", psi_mp(2, 1, 0)),
        ("psi(q=2, b=1, 1.3)", psi_mp(2, 1, mp.mpf("1.3"))),
        ("moment bound k=1 (q=1, b=1)", moment_bound_mp(1, 1, 1)),
        ("moment bound k=3 (q=1, b=1)", moment_bound_mp(1, 1, 3)),
        ("int |h| psi (q=1, b=1)", 2 * mp.quad(lambda h: h * psi_mp(1, 1, h), [0, 1, 5, 40, 120])),
        ("int h^2 psi (q=1, b=1)", 2 * mp.quad(lambda h: h**2 * psi_mp(1, 1, h), [0, 1, 5, 40, 120])),
        ("tail mass |h| >= 3 (q=1, b=1)", 2 * mp.quad(lambda h: psi_mp(1, 1, h), [3, 10, 60, 200])),
        ("tail bound n=9 (q=1, b=1)", 2 * mp.e**-2),
        ("tail bound n=9 (q=2, b=1)", mp.mpf("2.5") * mp.e**-2),
        ("jackson spot 0.25 + 4/e^3", mp.mpf("0.25") + 4 / mp.e**3),
        ("3 x jackson spot", 3 * (mp.mpf("0.25") + 4 / mp.e**3)),
        ("truncation radius eps=1e-12 (q=1, b=1)", 1 + mp.log(2 * mp.mpf(10) ** 12)),
        ("envelope at x=3 (q=1, b=1)", mp.e**-2),
        ("omega(sin, 0.1) = 2 sin(0.05)", 2 * mp.sin(mp.mpf("0.05"))),
        ("sqrt(2/e)", mp.sqrt(2 / mp.e)),
    ]
    for label, value in rows:
        print(f"{label:42s} {mp.nstr(value, 20)}")


if __name__ == "__main__":
    main()

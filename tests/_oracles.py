"""Regenerate the frozen expected values used across the test suite.

Evaluates the raw closed-form expressions with mpmath at 50 digits,
independently of the package code, so frozen constants can be audited or
refreshed:

    python3 tests/_oracles.py

The reference functions below (psi_mp, psi_average_mp, central_moment_mp,
...) also serve the tests directly, at the precision of the caller's
``mp.workdps`` context.
"""

import functools

import mpmath as mp


def nu_mp(q, beta, x):
    return (1 - q * mp.e ** (-beta * x)) / (1 + q * mp.e ** (-beta * x))


def g_mp(q, beta, x):
    return (nu_mp(q, beta, x + 1) - nu_mp(q, beta, x - 1)) / 4


def psi_mp(q, beta, x):
    return (g_mp(q, beta, x) + g_mp(1 / q, beta, x)) / 2


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

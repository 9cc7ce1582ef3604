"""Reference moments of the kernel psi, computed with mpmath at 40 digits.

The benchmark checks central moments and the kernel-check moment table
against these values.  They are computed from the raw definition

    nu(x)  = (1 - q e^(-beta x)) / (1 + q e^(-beta x))
    g(x)   = (nu(x + 1) - nu(x - 1)) / 4
    psi(x) = (g_q(x) + g_{1/q}(x)) / 2

by adaptive quadrature, and the even moments are cross-checked against the
closed form: psi is the law of S c + L + U with S = +-1, c = ln(q)/beta,
L logistic of scale 1/beta and U uniform on [-1, 1].

Regenerate the stored file with

    python3 perfbench/oracle.py

and verify it with ``git diff --exit-code perfbench/oracle.json`` after.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import mpmath as mp

DIGITS = 40
ORACLE_PATH = Path(__file__).with_name("oracle.json")
# (q, beta) pairs whose moments the workloads need
PARAMS = ((1.0, 1.0), (2.0, 0.5))
MAX_ORDER = 5


def _psi(q, beta, x):
    def nu(qq, t):
        e = qq * mp.exp(-beta * t)
        return (1 - e) / (1 + e)

    def g(qq, t):
        return (nu(qq, t + 1) - nu(qq, t - 1)) / 4

    return (g(q, x) + g(1 / q, x)) / 2


def _half_line(q, beta, fn):
    """Integral over [0, inf) with breakpoints at the peaks and along the tail."""
    c = abs(mp.log(q)) / beta
    width = 1 + 1 / beta
    points = sorted({mp.mpf(0), c, c + 1, c + 2} | {c + width * 2**j for j in range(2, 12)})
    return mp.quad(fn, points + [mp.inf])


def psi_moments(q: float, beta: float) -> dict:
    """E[H^k] and E|H|^k for H ~ psi, k = 0..MAX_ORDER (E[H^k] = 0 for odd k)."""
    q, beta = mp.mpf(q), mp.mpf(beta)
    raw, absolute = [], []
    for k in range(MAX_ORDER + 1):
        half = _half_line(q, beta, lambda h, k=k: h**k * _psi(q, beta, h))
        absolute.append(2 * half)
        raw.append(2 * half if k % 2 == 0 else mp.mpf(0))
    return {"raw": raw, "absolute": absolute}


def closed_form_even_moments(q: float, beta: float) -> tuple:
    """(E[H^0], E[H^2], E[H^4]) from the cumulants of S c + L + U."""
    q, beta = mp.mpf(q), mp.mpf(beta)
    c = mp.log(q) / beta
    k2 = mp.pi**2 / (3 * beta**2) + mp.mpf(1) / 3
    k4 = 2 * mp.pi**4 / (15 * beta**4) - mp.mpf(2) / 15
    y2, y4 = k2, k4 + 3 * k2**2
    return mp.mpf(1), c**2 + y2, c**4 + 6 * c**2 * y2 + y4


def compute() -> dict:
    mp.mp.dps = DIGITS
    entries = []
    for q, beta in PARAMS:
        moments = psi_moments(q, beta)
        closed = closed_form_even_moments(q, beta)
        for k, want in zip((0, 2, 4), closed):
            got = moments["raw"][k]
            if abs(got - want) > mp.mpf(10) ** (5 - DIGITS) * max(1, abs(want)):
                raise RuntimeError(f"quadrature and closed form disagree: q={q} beta={beta} k={k}")
        entries.append(
            {
                "q": q,
                "beta": beta,
                "raw": [mp.nstr(v, DIGITS) for v in moments["raw"]],
                "absolute": [mp.nstr(v, DIGITS) for v in moments["absolute"]],
            }
        )
    return {"digits": DIGITS, "generator": "python3 perfbench/oracle.py", "psi_moments": entries}


def load() -> dict:
    """Stored moments keyed by (q, beta): {"raw": [mpf...], "absolute": [mpf...]}."""
    data = json.loads(ORACLE_PATH.read_text())
    return {
        (e["q"], e["beta"]): {key: [mp.mpf(v) for v in e[key]] for key in ("raw", "absolute")}
        for e in data["psi_moments"]
    }


def main() -> int:
    ORACLE_PATH.write_text(json.dumps(compute(), indent=2) + "\n")
    print(f"wrote {ORACLE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

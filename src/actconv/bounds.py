"""Closed-form right-hand sides of every quantitative error estimate.

Each function here is pure arithmetic on pre-evaluated inputs and returns
a float (in particular, modulus-of-continuity values are supplied by the
caller, so their provenance stays explicit at the call site).  The
harness asserts measured errors against these values.
"""

from __future__ import annotations

import math

import numpy as np

from .kernel import KernelParams, moment_bound, tail_mass_bound, window_edge
from .operators import OperatorKind

__all__ = [
    "omega_argument",
    "jackson_bound",
    "central_moment_bound",
    "taylor_bound",
    "iterated_bound",
    "mixed_iterated_bound",
]


def omega_argument(kind: OperatorKind | str, n: int, alpha: float) -> float:
    """The modulus argument of the first-order bound: 1/n^alpha for the
    basic kind, 1/n + 1/n^alpha for the kantorovich and quadrature kinds."""
    kind = OperatorKind(kind)
    base = 1.0 / float(n) ** alpha
    if kind is OperatorKind.BASIC:
        return base
    return 1.0 / n + base


def jackson_bound(omega_at: float, params: KernelParams, n: int, alpha: float, sup_norm: float) -> float:
    """First-order error bound: omega value plus the exponential tail term

        omega_at + 2 (q + 1/q) sup_norm / e^{beta (n^{1-alpha} - 1)}.

    ``omega_at`` must already be the modulus at the argument returned by
    ``omega_argument`` for the operator's kind; the tail term is the same
    for every kind.  The tail mass (q + 1/q) e^{-beta (n^{1-alpha} - 1)}
    is ``kernel.tail_mass_bound``.
    """
    tail = 2.0 * sup_norm * tail_mass_bound(params, n, alpha)
    if not (omega_at >= 0 and sup_norm >= 0):
        raise ValueError(f"omega_at and sup_norm must be nonnegative, got {omega_at!r} and {sup_norm!r}")
    return omega_at + tail


def central_moment_bound(kind: OperatorKind | str, k: int, params: KernelParams, n: int) -> float:
    """Upper bound on |operator applied to (. - x)^k|:

        basic:                 bracket / n^k
        kantorovich/quadrature: 2^{k-1} (1 + bracket) / n^k

    where bracket is the k-th absolute-moment bound of the kernel.
    """
    kind = OperatorKind(kind)
    bracket = moment_bound(params, k)
    if kind is OperatorKind.BASIC:
        return bracket / float(n) ** k
    return 2.0 ** (k - 1) * (1.0 + bracket) / float(n) ** k


def taylor_bound(
    kind: OperatorKind | str,
    omega_N: float,
    params: KernelParams,
    n: int,
    alpha: float,
    N: int,
    sup_norm_fN: float,
) -> float:
    """Bound on the Taylor-corrected residual of order N.

    ``omega_N`` is the modulus of the N-th derivative at 1/n^alpha (basic)
    or 1/n + 1/n^alpha (kantorovich/quadrature).  The tail factor
    (q + 1/q) e^beta e^{-beta m / 2} is one exponential,
    e^{beta (1 - m/2) + ln(q + 1/q)}: apart, e^beta (q + 1/q) overflows
    where e^{-beta m / 2} underflows (q = 1e300, beta = 700).
    """
    kind = OperatorKind(kind)
    if not (isinstance(N, (int, np.integer)) and N >= 1):
        raise ValueError(f"N must be a positive integer, got {N!r}")
    m = window_edge(n, alpha)
    if not (omega_N >= 0 and sup_norm_fN >= 0):
        raise ValueError(f"omega_N and sup_norm_fN must be nonnegative, got {omega_N!r} and {sup_norm_fN!r}")
    beta = params.beta
    fact = float(math.factorial(N))
    tail = math.exp(beta * (1.0 - m / 2.0) + math.log(params.q_sum))
    if kind is OperatorKind.BASIC:
        return (
            omega_N / (float(n) ** (alpha * N) * fact)
            + 2.0 ** (N + 2) * sup_norm_fN / (float(n) ** N * beta**N) * tail
        )
    arg = 1.0 / n + 1.0 / float(n) ** alpha
    return (
        omega_N * arg**N / fact
        + (2.0**N * sup_norm_fN / (float(n) ** N * fact)) * tail * (1.0 + 2.0 ** (N + 1) * fact / beta**N)
    )


def iterated_bound(single_step: float, r: int) -> float:
    """Bound for the r-fold self-composition: r times the single-step bound."""
    if not (isinstance(r, (int, np.integer)) and r >= 1):
        raise ValueError(f"r must be a positive integer, got {r!r}")
    return float(r) * single_step


def mixed_iterated_bound(per_step: list[float]) -> float:
    """Bound for a mixed ascending chain: the sum of per-step bounds.

    The sum never exceeds the coarser ``iterated_bound`` r * (bound at the
    smallest resolution); a chain whose per-step bounds break that raises
    ValueError.
    """
    if not per_step:
        raise ValueError("per_step must be nonempty")
    total = math.fsum(per_step)
    coarse = iterated_bound(per_step[0], len(per_step))
    if total > coarse + 1e-12 * max(1.0, coarse):
        raise ValueError(
            f"per-step bounds are not ordered by a smallest-resolution first chain: "
            f"sum {total!r} exceeds coarse bound {coarse!r}"
        )
    return total

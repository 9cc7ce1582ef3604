"""Closed-form right-hand sides of every quantitative error estimate.

Each operation here is pure arithmetic on pre-evaluated inputs (in
particular, modulus-of-continuity values are supplied by the caller, so
their provenance stays explicit in the reports).  The harness asserts
measured errors against these values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .kernel import KernelParams, moment_bound, tail_mass_bound, window_edge
from .operators import OperatorKind

__all__ = [
    "BoundKind",
    "BoundReport",
    "omega_argument",
    "jackson_bound",
    "central_moment_bound",
    "taylor_bound",
    "iterated_bound",
    "mixed_iterated_bound",
]


class BoundKind(str, Enum):
    JACKSON_BASIC = "jackson-basic"
    JACKSON_KANTOROVICH = "jackson-kantorovich"
    JACKSON_QUADRATURE = "jackson-quadrature"
    TAYLOR_BASIC = "taylor-basic"
    TAYLOR_KANTOROVICH = "taylor-kantorovich"
    TAYLOR_QUADRATURE = "taylor-quadrature"
    ITERATED = "iterated"
    MIXED_ITERATED = "mixed-iterated"


_JACKSON = {
    OperatorKind.BASIC: BoundKind.JACKSON_BASIC,
    OperatorKind.KANTOROVICH: BoundKind.JACKSON_KANTOROVICH,
    OperatorKind.QUADRATURE: BoundKind.JACKSON_QUADRATURE,
}
_TAYLOR = {
    OperatorKind.BASIC: BoundKind.TAYLOR_BASIC,
    OperatorKind.KANTOROVICH: BoundKind.TAYLOR_KANTOROVICH,
    OperatorKind.QUADRATURE: BoundKind.TAYLOR_QUADRATURE,
}


@dataclass(frozen=True)
class BoundReport:
    """A theoretical bound value together with the inputs that produced it."""

    kind: BoundKind
    value: float
    inputs: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (self.value >= 0.0):
            raise ValueError(f"bound value must be nonnegative, got {self.value!r}")


def omega_argument(kind: OperatorKind | str, n: int, alpha: float) -> float:
    """The modulus argument of the first-order bound: 1/n^alpha for the
    basic kind, 1/n + 1/n^alpha for the kantorovich and quadrature kinds."""
    kind = OperatorKind(kind)
    base = 1.0 / float(n) ** alpha
    if kind is OperatorKind.BASIC:
        return base
    return 1.0 / n + base


def jackson_bound(
    kind: OperatorKind | str,
    omega_at: float,
    params: KernelParams,
    n: int,
    alpha: float,
    sup_norm: float,
) -> BoundReport:
    """First-order error bound: omega value plus the exponential tail term

        omega_at + 2 (q + 1/q) sup_norm / e^{beta (n^{1-alpha} - 1)}.

    ``omega_at`` must already be the modulus at the argument returned by
    ``omega_argument`` for this kind.  The tail mass (q + 1/q) e^{-beta
    (n^{1-alpha} - 1)} is ``kernel.tail_mass_bound``.
    """
    kind = OperatorKind(kind)
    tail = 2.0 * sup_norm * tail_mass_bound(params, n, alpha)
    if omega_at < 0 or sup_norm < 0:
        raise ValueError("omega_at and sup_norm must be nonnegative")
    return BoundReport(
        kind=_JACKSON[kind],
        value=omega_at + tail,
        inputs={
            "n": n,
            "alpha": alpha,
            "q": params.q,
            "beta": params.beta,
            "omega_at": omega_at,
            "sup_norm": sup_norm,
            "hypothesis_met": True,
        },
    )


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
) -> BoundReport:
    """Bound on the Taylor-corrected residual of order N.

    ``omega_N`` is the modulus of the N-th derivative at 1/n^alpha (basic)
    or 1/n + 1/n^alpha (kantorovich/quadrature).  The tail factor
    (q + 1/q) e^beta e^{-beta m / 2} is one exponential,
    e^{beta (1 - m/2) + ln(q + 1/q)}: apart, e^beta (q + 1/q) overflows
    where e^{-beta m / 2} underflows (q = 1e300, beta = 700).
    """
    kind = OperatorKind(kind)
    if not (isinstance(N, int) and N >= 1):
        raise ValueError(f"N must be a positive integer, got {N!r}")
    m = window_edge(n, alpha)
    if omega_N < 0 or sup_norm_fN < 0:
        raise ValueError("omega_N and sup_norm_fN must be nonnegative")
    beta = params.beta
    fact = float(math.factorial(N))
    tail = math.exp(beta * (1.0 - m / 2.0) + math.log(params.q_sum))
    if kind is OperatorKind.BASIC:
        value = (
            omega_N / (float(n) ** (alpha * N) * fact)
            + 2.0 ** (N + 2) * sup_norm_fN / (float(n) ** N * beta**N) * tail
        )
    else:
        arg = 1.0 / n + 1.0 / float(n) ** alpha
        value = (
            omega_N * arg**N / fact
            + (2.0**N * sup_norm_fN / (float(n) ** N * fact)) * tail * (1.0 + 2.0 ** (N + 1) * fact / beta**N)
        )
    return BoundReport(
        kind=_TAYLOR[kind],
        value=value,
        inputs={
            "n": n,
            "alpha": alpha,
            "q": params.q,
            "beta": params.beta,
            "N": N,
            "omega_N": omega_N,
            "sup_norm_fN": sup_norm_fN,
            "hypothesis_met": True,
        },
    )


def iterated_bound(kind: OperatorKind | str, single_step: BoundReport, r: int) -> BoundReport:
    """Bound for the r-fold self-composition: r times the single-step bound."""
    OperatorKind(kind)
    if not (isinstance(r, int) and r >= 1):
        raise ValueError(f"r must be a positive integer, got {r!r}")
    return BoundReport(
        kind=BoundKind.ITERATED,
        value=r * single_step.value,
        inputs={"r": r, "single_step": single_step.value, "single_step_kind": single_step.kind.value},
    )


def mixed_iterated_bound(kind: OperatorKind | str, per_step: list[BoundReport]) -> BoundReport:
    """Bound for a mixed ascending chain: the sum of per-step bounds.

    Also exposes the coarser value r * (bound at the smallest resolution)
    under ``inputs["coarse"]``; the sum never exceeds it.
    """
    OperatorKind(kind)
    if not per_step:
        raise ValueError("per_step must be nonempty")
    total = math.fsum(b.value for b in per_step)
    coarse = len(per_step) * per_step[0].value
    if total > coarse + 1e-12 * max(1.0, coarse):
        raise ValueError(
            f"per-step bounds are not ordered by a smallest-resolution first chain: "
            f"sum {total!r} exceeds coarse bound {coarse!r}"
        )
    return BoundReport(
        kind=BoundKind.MIXED_ITERATED,
        value=total,
        inputs={
            "r": len(per_step),
            "per_step": [b.value for b in per_step],
            "coarse": coarse,
        },
    )

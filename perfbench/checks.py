"""Output checks, computed apart from the program (numpy, mpmath, stdlib).

Closed forms used:

* psi-hat(w) = cos(w ln q / beta) * pi sin w / (beta sinh(pi w / beta)),
  the characteristic function of psi (sech^2 transform times the width-2
  box, averaged over the deformations q and 1/q).  Every kind maps
  sin(. + phase) to a sinusoid scaled by c_n = psi-hat(1/n).
* Central moments and the kernel-check moment table come from the mpmath
  moments in oracle.json, combined by the binomial theorem.
* Kernel tail masses use the antiderivative of the sigmoid,
  (2/beta) ln cosh(beta (x - c) / 2).
* For |x| only properties are checked: nonnegativity, evenness of the
  basic kind, exact reproduction of the affine pieces where the kernel's
  window avoids the kinks at 0 and +-3, and the first-order bound.

Every check returns a list of failure messages; an empty list means pass.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import mpmath as mp
import numpy as np

import oracle
from workloads import DEFAULT_ALPHA, DEFAULT_WEIGHTS, GRID, KINDS

# the program's quadrature tolerance (absolute and relative)
TOL = 1e-10
ABS_CLAMP = 3.0
ABS_KINKS = (-ABS_CLAMP, 0.0, ABS_CLAMP)
# kernel mass left outside the reproduction window
WINDOW_EPS = 1e-13
# per-stage residual ceiling of the grid approximants used by `iterate`
RESIDUAL_CEILING = 1e-6


def grid_points() -> np.ndarray:
    return np.linspace(*GRID)


def close(value, exact, tol: float = TOL) -> bool:
    return abs(float(value) - float(exact)) <= tol * max(1.0, abs(float(exact)))


# ----------------------------------------------------------------------
# closed forms
# ----------------------------------------------------------------------


def psi_hat(w: float, q: float, beta: float) -> float:
    return math.cos(w * math.log(q) / beta) * math.pi * math.sin(w) / (beta * math.sinh(math.pi * w / beta))


def quadrature_offsets(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Offsets s/(n r) and weights w_s of the quadrature kind's sample map."""
    r = len(DEFAULT_WEIGHTS)
    return np.arange(1, r + 1) / (n * r), np.asarray(DEFAULT_WEIGHTS)


def sin_output(kind: str, n: int, q: float, beta: float, x, phase: float = 0.0):
    """The operator of this kind applied to sin(. + phase), evaluated at x."""
    x = np.asarray(x, dtype=float) + phase
    c = psi_hat(1.0 / n, q, beta)
    if kind == "basic":
        return c * np.sin(x)
    if kind == "kantorovich":
        # n * int_0^{1/n} sin(u + t) dt = 2n sin(1/(2n)) sin(u + 1/(2n))
        return c * 2.0 * n * math.sin(0.5 / n) * np.sin(x + 0.5 / n)
    s, w = quadrature_offsets(n)
    return c * (np.sin(x[..., None] + s) @ w)


def first_moment(kind: str, n: int) -> float:
    """Mean offset of the kind's sample map (the kernel itself is even)."""
    if kind == "basic":
        return 0.0
    if kind == "kantorovich":
        return 0.5 / n
    s, w = quadrature_offsets(n)
    return float(s @ w)


@functools.cache
def _stored_moments() -> dict:
    return oracle.load()


def _psi_moments(q: float, beta: float) -> dict:
    return _stored_moments()[(q, beta)]


def central_moment(kind: str, n: int, q: float, beta: float, k: int):
    """E[(V - x)^k] for the kind's sampling law, as an mpmath number.

    The sample point is x - H/n + T with H ~ psi and T the kind's offset:
    0 (basic), uniform on [0, 1/n] (kantorovich), s/(n r) with weight w_s
    (quadrature).
    """
    mp.mp.dps = oracle.DIGITS
    m = _psi_moments(q, beta)["raw"]
    n = mp.mpf(n)
    h = [(-1) ** j * m[j] / n**j for j in range(k + 1)]  # E[(-H/n)^j]
    if kind == "basic":
        t = [mp.mpf(1)] + [mp.mpf(0)] * k
    elif kind == "kantorovich":
        t = [1 / ((j + 1) * n**j) for j in range(k + 1)]
    else:
        r = len(DEFAULT_WEIGHTS)
        t = [
            mp.fsum(mp.mpf(w) * (mp.mpf(s) / (n * r)) ** j for s, w in enumerate(DEFAULT_WEIGHTS, start=1))
            for j in range(k + 1)
        ]
    return mp.fsum(mp.binomial(k, j) * t[j] * h[k - j] for j in range(k + 1))


def tail_mass(q: float, beta: float, m: float):
    """Kernel mass outside [-m, m], in closed form (mpmath)."""
    mp.mp.dps = oracle.DIGITS
    beta = mp.mpf(beta)

    def right_tail(qq):
        # int_m^inf g_qq = (2 - N(m + 1) + N(m - 1)) / 4, with N the
        # antiderivative of nu, since nu(x + 1) - nu(x - 1) -> 2
        c = mp.log(qq) / beta

        def antideriv(x):
            return (2 / beta) * mp.log(mp.cosh(beta * (x - c) / 2))

        return (2 - antideriv(m + 1) + antideriv(m - 1)) / 4

    # g_q(-x) = g_{1/q}(x): the left tail of either term is the right tail of the other
    return right_tail(mp.mpf(q)) + right_tail(1 / mp.mpf(q))


def omega_argument(kind: str, n: int, alpha: float = DEFAULT_ALPHA) -> float:
    base = 1.0 / n**alpha
    return base if kind == "basic" else 1.0 / n + base


def omega_sin(theta: float) -> float:
    return 2.0 * math.sin(0.5 * theta) if theta < math.pi else 2.0


def omega_abs(theta: float) -> float:
    return min(theta, 2.0 * ABS_CLAMP)


def jackson(kind: str, n: int, omega, sup_norm: float, q: float = 1.0, beta: float = 1.0,
            alpha: float = DEFAULT_ALPHA) -> float:
    """omega(argument) + 2 (q + 1/q) ||f|| e^(-beta (n^(1 - alpha) - 1))."""
    tail = 2.0 * (q + 1.0 / q) * sup_norm * math.exp(-beta * (n ** (1.0 - alpha) - 1.0))
    return omega(omega_argument(kind, n, alpha)) + tail


def taylor_bound(kind: str, n: int, order: int, omega_n: float, sup_norm_fn: float,
                 q: float = 1.0, beta: float = 1.0, alpha: float = DEFAULT_ALPHA) -> float:
    """The Taylor-refined bound of order N, written out from its statement."""
    q_sum = q + 1.0 / q
    fact = math.factorial(order)
    decay = math.exp(-beta * n ** (1.0 - alpha) / 2.0)
    if kind == "basic":
        return (
            omega_n / (n ** (alpha * order) * fact)
            + 2.0 ** (order + 2) * sup_norm_fn * math.exp(beta) * q_sum / (n**order * beta**order) * decay
        )
    arg = omega_argument(kind, n, alpha)
    return omega_n * arg**order / fact + (2.0**order * sup_norm_fn / (n**order * fact)) * q_sum * math.exp(
        beta
    ) * decay * (1.0 + 2.0 ** (order + 1) * fact / beta**order)


def moment_bound(k: int, q: float = 1.0, beta: float = 1.0) -> float:
    e = math.exp(-beta)
    return (1.0 - e) / (1.0 + e) / (k + 1.0) + (q + 1.0 / q) * math.exp(beta) * math.factorial(k) / beta**k


def window_radius(q: float, beta: float, eps: float = WINDOW_EPS) -> float:
    """R with kernel mass outside [-R, R] at most eps, from the envelope
    psi(x) <= (q + 1/q) beta e^(-beta (x - 1)) / 2 for x >= 1."""
    return 1.0 + math.log((q + 1.0 / q) / eps) / beta


# ----------------------------------------------------------------------
# operator outputs
# ----------------------------------------------------------------------


def check_sin(label: str, kind: str, n: int, q: float, beta: float, xs, values, phase: float = 0.0) -> list[str]:
    exact = sin_output(kind, n, q, beta, xs, phase)
    err = np.abs(np.asarray(values, dtype=float) - exact)
    worst = float(err.max()) if err.size else 0.0
    if not worst <= TOL:
        return [f"{label}: max |value - closed form| = {worst:.3e} > {TOL:g}"]
    return []


def check_abs(label: str, kind: str, n: int, q: float, beta: float, xs, values, mirrored) -> list[str]:
    """Properties of the operator applied to min(|x|, 3).

    ``mirrored`` maps index i to the index of -x_i, for the evenness of
    the basic kind.
    """
    xs = np.asarray(xs, dtype=float)
    values = np.asarray(values, dtype=float)
    fails = []
    if not (np.all(values >= -TOL) and np.all(values <= ABS_CLAMP + TOL)):
        fails.append(f"{label}: output leaves [0, 3] (min {values.min():.3e}, max {values.max():.3e})")
    if kind == "basic":
        gap = float(np.abs(values - values[mirrored]).max())
        if not gap <= 2 * TOL:
            fails.append(f"{label}: basic output not even, max |B(x) - B(-x)| = {gap:.3e}")
    # samples reach up to 1/n past u for kantorovich and quadrature
    reach = 0.0 if kind == "basic" else 1.0 / n
    radius = window_radius(q, beta) / n
    lo, hi = xs - radius, xs + radius + reach
    clean = np.ones(xs.shape, dtype=bool)
    for kink in ABS_KINKS:
        clean &= ~((lo <= kink) & (kink <= hi))
    affine = np.sign(xs) * (xs + first_moment(kind, n))
    if clean.any():
        gap = float(np.abs(values[clean] - affine[clean]).max())
        if not gap <= TOL:
            fails.append(f"{label}: affine piece of |x| not reproduced, max gap {gap:.3e} over {int(clean.sum())} points")
    bound = jackson(kind, n, omega_abs, ABS_CLAMP, q, beta)
    err = float(np.abs(values - np.minimum(np.abs(xs), ABS_CLAMP)).max())
    if not err <= bound:
        fails.append(f"{label}: error {err:.3e} exceeds the first-order bound {bound:.3e}")
    return fails


def check_grid_op(op: dict, values) -> list[str]:
    """One apply_on_grid result on the default grid."""
    xs = grid_points()
    label = f"apply_on_grid {op['fn']}/{op['kind']}/n={op['n']}/q={op['q']}/beta={op['beta']}"
    values = np.asarray(values, dtype=float)
    if values.shape != xs.shape:
        return [f"{label}: shape {values.shape} != {xs.shape}"]
    if op["fn"] == "sin":
        return check_sin(label, op["kind"], op["n"], op["q"], op["beta"], xs, values)
    return check_abs(label, op["kind"], op["n"], op["q"], op["beta"], xs, values, np.arange(xs.size)[::-1])


def check_pointwise(ops: list[dict], values: list) -> list[str]:
    """All scalar-path results of one round, grouped by what they share."""
    fails = []
    groups: dict[tuple, list[int]] = {}
    for i, op in enumerate(ops):
        key = tuple(op.get(k) for k in ("op", "fn", "kind", "n", "q", "beta", "k"))
        groups.setdefault(key, []).append(i)
    for (kind_op, fn, kind, n, q, beta, k), idx in groups.items():
        if any(values[i] is None for i in idx):
            continue  # a failed operation, already reported by run.py
        label = f"{kind_op} {fn or ''}/{kind}/n={n}/q={q}/beta={beta}" + (f"/k={k}" if k else "")
        if kind_op in ("apply", "derivative"):
            xs = np.array([ops[i]["x"] for i in idx])
            vals = np.array([values[i] for i in idx], dtype=float)
            if fn == "sin":
                phase = 0.0 if kind_op == "apply" else k * math.pi / 2.0
                fails += check_sin(label, kind, n, q, beta, xs, vals, phase)
            else:
                # points come in (x, -x) pairs
                mirrored = np.arange(xs.size) ^ 1
                fails += check_abs(label, kind, n, q, beta, xs, vals, mirrored)
        elif kind_op == "moment":
            for i in idx:
                exact = central_moment(kind, n, q, beta, k)
                if not close(values[i], exact):
                    fails.append(f"{label}: {values[i]!r} != {mp.nstr(exact, 20)}")
        elif kind_op == "normalization":
            for i in idx:
                value, converged = values[i]
                if not (converged and close(value, 1.0)):
                    fails.append(f"normalization q={ops[i]['q']!r} beta={ops[i]['beta']!r}: {value!r} (converged={converged})")
    return fails


# ----------------------------------------------------------------------
# CLI artifacts (default configuration: q = beta = 1, alpha = 0.5, sin)
# ----------------------------------------------------------------------


def _read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _check_svg(path: Path) -> list[str]:
    try:
        root = ET.parse(path).getroot()
    except (OSError, ET.ParseError) as exc:
        return [f"{path.name}: not a readable SVG ({exc})"]
    return [] if root.tag.endswith("svg") else [f"{path.name}: root element is {root.tag}"]


def _sin_sup_error(kind: str, n: int) -> float:
    xs = grid_points()
    return float(np.abs(sin_output(kind, n, 1.0, 1.0, xs) - np.sin(xs)).max())


def _slope(ns, errors) -> float:
    return float(np.polyfit(np.log(ns), np.log(errors), 1)[0])


def check_kernel_check(out: Path) -> list[str]:
    rows = _read_csv(out / "kernel_check.csv")
    summary = _read_json(out / "kernel_check_summary.json")
    ns = (9, 16, 25, 36)
    moments = _psi_moments(1.0, 1.0)["absolute"]
    expected = [
        ("normalization |int psi - 1|", 0.0, TOL),
        ("evenness max |psi(x) - psi(-x)|", 0.0, 1e-14),
        ("deformed symmetry max |g_q(-x) - g_1/q(x)|", 0.0, 1e-14),
        ("peak location |argmax - ln(q)/beta|", 0.0, 1e-6),
        ("peak value |g(argmax) - closed form|", 0.0, 1e-12),
    ]
    expected += [(f"tail mass n={n} alpha={DEFAULT_ALPHA}", float(tail_mass(1.0, 1.0, math.sqrt(n))), None) for n in ns]
    expected += [(f"absolute moment k={k}", float(moments[k]), None) for k in range(1, 6)]
    limits = {f"tail mass n={n} alpha={DEFAULT_ALPHA}": 2.0 * math.exp(-(math.sqrt(n) - 1.0)) for n in ns}
    limits.update({f"absolute moment k={k}": moment_bound(k) for k in range(1, 6)})

    fails = []
    if [r["check"] for r in rows] != [e[0] for e in expected]:
        return [f"kernel-check: rows {[r['check'] for r in rows]}"]
    for row, check, (name, exact, atol) in zip(rows, summary["checks"], expected):
        measured = float(row["measured"])
        if check["check"] != name or check["measured"] != measured or row["status"] != "PASS":
            fails.append(f"kernel-check {name}: csv {row} / json {check}")
        if atol is not None:
            ok = abs(measured - exact) <= atol
        else:
            ok = close(measured, exact)
            if not close(float(row["limit"]), limits[name], 1e-12):
                fails.append(f"kernel-check {name}: limit {row['limit']} != {limits[name]!r}")
        if not ok:
            fails.append(f"kernel-check {name}: measured {measured!r}, exact {exact!r}")
    if summary["all_satisfied"] is not True:
        fails.append("kernel-check: all_satisfied is not true")
    return fails


def check_approx(out: Path) -> list[str]:
    ns = (9, 16, 25, 36, 49)
    summary = _read_json(out / "approx_summary.json")
    fails = []
    if summary["all_satisfied"] is not True or [r["kind"] for r in summary["results"]] != list(KINDS):
        fails.append("approx: summary is not all_satisfied over the three kinds")
    for kind, result in zip(KINDS, summary["results"]):
        rows = _read_csv(out / f"approx_sin_{kind}.csv")
        exact = [_sin_sup_error(kind, n) for n in ns]
        if [int(r["n"]) for r in rows] != list(ns):
            fails.append(f"approx {kind}: n column {[r['n'] for r in rows]}")
            continue
        for i, (row, record, n, err) in enumerate(zip(rows, result["records"], ns, exact)):
            label = f"approx sin/{kind}/n={n}"
            bound = jackson(kind, n, omega_sin, 1.0)
            measured = float(row["sup_error"])
            if not abs(measured - err) <= TOL:
                fails.append(f"{label}: sup_error {measured!r}, closed form {err!r}")
            if not close(float(row["bound"]), bound, 1e-12) or row["satisfied"] != "true" or not err <= bound:
                fails.append(f"{label}: bound {row['bound']} satisfied={row['satisfied']}, expected {bound!r}")
            want_rate = _slope(ns[: i + 1], exact[: i + 1]) if i >= 2 else math.nan
            rate = float(row["rate_so_far"])
            if not (math.isnan(rate) and math.isnan(want_rate) or abs(rate - want_rate) <= 1e-6):
                fails.append(f"{label}: rate_so_far {rate!r}, closed form {want_rate!r}")
            if record["sup_error"] != measured or record["note"] != "":
                fails.append(f"{label}: summary record {record}")
        fails += _check_svg(out / f"approx_sin_{kind}.svg")
    return fails


def check_taylor(out: Path) -> list[str]:
    ns, order = (16, 25, 36), 2
    xs = grid_points()
    summary = _read_json(out / "taylor_summary.json")
    fails = [] if summary["all_satisfied"] is True else ["taylor: summary is not all_satisfied"]
    for kind in KINDS:
        rows = _read_csv(out / f"taylor_sin_{kind}.csv")
        if [int(r["n"]) for r in rows] != list(ns):
            fails.append(f"taylor {kind}: n column {[r['n'] for r in rows]}")
            continue
        for row, n in zip(rows, ns):
            label = f"taylor sin/{kind}/n={n}"
            m1 = float(central_moment(kind, n, 1.0, 1.0, 1))
            m2 = float(central_moment(kind, n, 1.0, 1.0, 2))
            # sin' = cos, sin'' = -sin
            residual = sin_output(kind, n, 1.0, 1.0, xs) - np.sin(xs) - m1 * np.cos(xs) + 0.5 * m2 * np.sin(xs)
            exact = float(np.abs(residual).max())
            bound = taylor_bound(kind, n, order, omega_sin(omega_argument(kind, n)), 1.0)
            measured = float(row["residual"])
            if not abs(measured - exact) <= 10 * TOL:
                fails.append(f"{label}: residual {measured!r}, closed form {exact!r}")
            if not close(float(row["bound"]), bound, 1e-12) or row["satisfied"] != "true" or not exact <= bound:
                fails.append(f"{label}: bound {row['bound']} satisfied={row['satisfied']}, expected {bound!r}")
        fails += _check_svg(out / f"taylor_sin_{kind}.svg")
    return fails


def check_iterate(out: Path, chain: bool) -> list[str]:
    xs = grid_points()
    rows = _read_csv(out / "iterate_sin_basic.csv")
    summary = _read_json(out / "iterate_summary.json")
    ns = (9, 16, 25) if chain else (32, 32, 32)
    slack = len(ns) * RESIDUAL_CEILING
    factor = math.prod(psi_hat(1.0 / n, 1.0, 1.0) for n in ns)
    exact = float(np.abs((factor - 1.0) * np.sin(xs)).max())
    steps = [jackson("basic", n, omega_sin, 1.0) for n in ns]
    label = "iterate --chain 9,16,25" if chain else "iterate n=32 r=3"
    if len(rows) != 1 or summary["all_satisfied"] is not True:
        return [f"{label}: {len(rows)} csv rows, all_satisfied={summary['all_satisfied']}"]
    row = rows[0]
    fails = []
    measured = float(row["measured"])
    if not abs(measured - exact) <= slack:
        fails.append(f"{label}: measured {measured!r}, closed form {exact!r} (slack {slack:g})")
    if chain:
        want = {"chain": "9;16;25", "sum_bound": math.fsum(steps), "coarse_bound": 3 * steps[0]}
    else:
        want = {"r": "3", "n": "32", "single_step_bound": steps[0], "iterated_bound": 3 * steps[0]}
    for key, value in want.items():
        ok = row[key] == value if isinstance(value, str) else close(float(row[key]), value, 1e-12)
        if not ok:
            fails.append(f"{label}: {key} {row[key]!r}, expected {value!r}")
    if not close(float(row["slack"]), slack, 1e-12) or row["satisfied"] != "true":
        fails.append(f"{label}: slack {row['slack']} satisfied={row['satisfied']}")
    if summary["results"][0]["measured"] != measured:
        fails.append(f"{label}: summary measured {summary['results'][0]['measured']!r} != csv {measured!r}")
    return fails


def check_report(out: Path) -> list[str]:
    index = _read_json(out / "index.json")
    files = sorted(p.name for p in out.glob("*_summary.json"))
    want = [
        {"file": name, "command": _read_json(out / name)["command"], "all_satisfied": True} for name in files
    ]
    commands = sorted(e["command"] for e in want)
    fails = []
    if commands != ["approx", "iterate", "kernel-check", "taylor"]:
        fails.append(f"report: summaries present {files}")
    if index != {"command": "report", "summaries": want, "all_satisfied": True}:
        fails.append(f"report: index.json {index}")
    return fails


def check_cli_verb(label: str, out: Path) -> list[str]:
    checker = {
        "kernel-check": check_kernel_check,
        "approx": check_approx,
        "taylor": check_taylor,
        "iterate": lambda o: check_iterate(o, chain=False),
        "iterate-chain": lambda o: check_iterate(o, chain=True),
        "report": check_report,
    }[label]
    try:
        return checker(out)
    except (OSError, KeyError, ValueError, IndexError, TypeError) as exc:
        return [f"{label}: unreadable output ({type(exc).__name__}: {exc})"]

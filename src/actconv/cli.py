"""Command-line front end: experiment orchestration and artifact emission.

Verbs:

* ``kernel-check``  kernel sanity table (normalization, symmetry, peak,
                    tail mass vs bound, moments vs bounds)
* ``approx``        convergence sweeps with measured error vs bound
* ``taylor``        Taylor-corrected residuals vs their refined bounds
* ``iterate``       self-composed or mixed-chain operators vs bounds
* ``report``        aggregate earlier JSON summaries into one index

Outputs are deterministic: CSV uses '.' decimals with 17 significant
digits, JSON is sorted-key with fixed indentation, and SVG plots are
self-contained static files.  Exit status is 0 only when every
hypothesis-met bound check passed.

Each click option is the one definition of what it accepts (type, range
or choices).  Configuration may also come from a flat key=value file with
section headers ([common] plus one section per verb), whose values are
converted and checked by the same options; explicit flags win over the
config file, which wins over environment defaults.
"""

from __future__ import annotations

import configparser
import contextlib
import json
import math
from pathlib import Path
from typing import NamedTuple

import click
import numpy as np
from click.core import ParameterSource

from . import bounds as bounds_mod
from . import kernel
from .analysis import (
    CATALOG,
    MeasurementGrid,
    fit_rate,
    run_convergence_sweep,
)
from .errors import HypothesisNotMetError, NonFiniteSampleError, QuadratureNonConvergedError
from .kernel import KernelParams
from .operators import (
    RESIDUAL_CEILING, OperatorKind, OperatorSpec, apply_on_grid, compose_mixed, iterate as iterate_operator,
)
from .quadrature import QuadratureConfig
from .svgplot import Series, render_loglog

_DEFAULT_WEIGHTS = "0.25,0.25,0.25,0.25"


class _Range(click.FloatRange):
    """A FloatRange of finite reals: it also rejects nan, which passes every
    comparison with its ends, and +-inf, which an open end lets through."""

    def convert(self, value, param, ctx):
        value = super().convert(value, param, ctx)
        if not math.isfinite(value):
            self.fail(f"{value} is not a finite real.", param, ctx)
        return value


# what each option accepts, for flags and config-file values alike
_ALPHA = _Range(0.0, 1.0, min_open=True, max_open=True)
_POSITIVE = _Range(0.0, min_open=True)
_RESOLUTION = click.IntRange(min=1)
_KINDS = click.Choice([k.value for k in OperatorKind])
_FUNCTIONS = click.Choice(list(CATALOG))


def _fmt(x) -> str:
    if x is None:
        return "nan"
    return format(float(x), ".17g")


def _cell(value) -> str:
    """CSV form of a summary value: lower-case booleans, ';'-joined lists."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, list):
        return ";".join(str(v) for v in value)
    return str(value) if isinstance(value, int) else _fmt(value)


def _parse_list(text: str, flag: str, cast=float) -> tuple:
    """The comma-separated values of ``flag``, each converted by ``cast``."""
    try:
        values = tuple(cast(v) for v in text.split(",") if v.strip() != "")
    except ValueError:
        raise click.UsageError(f"{flag} expects comma-separated {cast.__name__} values, got {text!r}")
    if not values:
        raise click.UsageError(f"{flag} must not be empty")
    return values


def _parse_domain(text: str) -> tuple[float, float]:
    values = _parse_list(text, "--domain")
    if not (len(values) == 2 and all(map(math.isfinite, values)) and values[0] < values[1]):
        raise click.UsageError(f"--domain expects finite 'a,b' with b > a, got {text!r}")
    return values


def _parse_formats(text: str) -> set[str]:
    formats = {v.strip() for v in text.split(",") if v.strip()}
    if not formats:
        raise click.UsageError("--format must not be empty")
    unknown = formats - {"csv", "json", "svg"}
    if unknown:
        raise click.UsageError(f"--format accepts csv,json,svg; got {sorted(unknown)}")
    return formats


def _merge_config(ctx: click.Context, verb: str, values: dict) -> dict:
    """Fold config-file values under explicitly given flags.  A key names a
    flag or a parameter; its value goes through that option's click type,
    comma-split for a ``multiple`` option, exactly as a flag's would."""
    path = values.pop("config", None)
    if not path:
        return values
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise click.UsageError(f"cannot read config file {path!r}")
    params = {
        key.lstrip("-").replace("-", "_"): param
        for param in ctx.command.params
        if param.name != "config"
        for key in (param.name, *param.opts)
    }
    for section in ("common", verb):
        if not parser.has_section(section):
            continue
        for key, raw in parser.items(section):
            param = params.get(key.replace("-", "_"))
            if param is None:
                raise click.UsageError(f"unknown config key {key!r} in section [{section}]")
            if ctx.get_parameter_source(param.name) is ParameterSource.COMMANDLINE:
                continue
            value = tuple(v.strip() for v in raw.split(",") if v.strip()) if param.multiple else raw
            if param.multiple and not value:
                raise click.UsageError(f"config key {key!r} in section [{section}] must not be empty")
            try:
                values[param.name] = param.type_cast_value(ctx, value)
            except click.BadParameter as exc:
                raise click.UsageError(f"bad config value {key}={raw!r}: {exc.format_message()}")
    return values


def _out_dir(out: str) -> Path:
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write(path: Path, text: str):
    try:
        path.write_text(text)
    except OSError as exc:
        raise click.ClickException(f"cannot write {path}: {exc}")


def _strict(obj):
    """``obj`` with every non-finite float, such as a failed record's NaN
    measurement, replaced by None, which JSON writes as null."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _strict(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(value) for value in obj]
    return obj


def _json_text(obj) -> str:
    return json.dumps(_strict(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _make_params(q: float, beta: float) -> KernelParams:
    try:
        return KernelParams(q, beta)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _kinds(kw) -> list[tuple[str, tuple[float, ...] | None]]:
    """Every --kind with its weights, checked by OperatorSpec before any
    sweep runs; --weights is parsed whichever kinds are selected."""
    parsed = _parse_list(kw["weights"], "--weights")
    pairs = []
    for kind in map(OperatorKind, kw["kinds"]):
        weights = parsed if kind is OperatorKind.QUADRATURE else None
        try:
            OperatorSpec(kind, 1, KernelParams(), kw["alpha"], weights)
        except ValueError as exc:
            raise click.UsageError(str(exc))
        pairs.append((kind.value, weights))
    return pairs


def _sweep(f, kinds, kw, params, grid, cfg, order: int = 0):
    """Each kind with the records of its sweep, all kinds swept at once."""
    names = [kind for kind, _ in kinds]
    return zip(names, run_convergence_sweep(f, names, kw["ns"], kw["alpha"], params, grid,
                                            dict(kinds).get(OperatorKind.QUADRATURE.value), cfg, order))


class _Table(NamedTuple):
    """Rows of one CSV file, with the ``render_loglog`` arguments of its SVG
    plot when it has one."""

    stem: str
    header: list[str]
    rows: list[list[str]]
    plot: tuple | None = None


def _bound_plot(title: str, ylabel: str, label: str, points) -> tuple | None:
    """Plot arguments for a measured series and its dashed bound, from
    (n, measured, bound) triples; None when there is nothing to draw."""
    if not points:
        return None
    ns, measured, bound = (tuple(column) for column in zip(*points))
    return (title, "n", ylabel, [Series(label, ns, measured), Series("bound", ns, bound, dashed=True)])


def _emit(ctx, out: Path | None, formats: set[str], summary: dict, tables: list[_Table],
          offenders: list[str], passed: str):
    """Write each table's CSV and SVG and the sorted-key JSON summary under
    ``out`` (nothing when it is None), name every offender on stderr and
    exit 1 if there is one, else echo ``passed``."""
    if out is not None:
        for table in tables:
            if "csv" in formats:
                _write(out / f"{table.stem}.csv", _csv_text(table.header, table.rows))
            if "svg" in formats and table.plot:
                _write(out / f"{table.stem}.svg", render_loglog(*table.plot))
        if "json" in formats:
            name = summary["command"].replace("-", "_")
            _write(out / f"{name}_summary.json", _json_text({**summary, "all_satisfied": not offenders}))
    for line in offenders:
        click.echo(f"BOUND VIOLATION: {line}", err=True)
    if offenders:
        ctx.exit(1)
    click.echo(passed)


@click.group()
@click.version_option(package_name="actconv")
def main():
    """Verify convolution-operator error bounds numerically."""


# ----------------------------------------------------------------------
# kernel-check
# ----------------------------------------------------------------------


@main.command("kernel-check")
@click.option("--q", type=float, default=1.0, show_default=True)
@click.option("--beta", type=float, default=1.0, show_default=True)
@click.option("--alpha", type=_ALPHA, default=0.5, show_default=True)
@click.option("--n", "ns", type=_RESOLUTION, multiple=True, default=(9, 16, 25, 36), show_default=True)
@click.option("--quad-tol", type=_POSITIVE, default=1e-10, show_default=True)
@click.option("--out", envvar="ACTCONV_OUT", default=None, help="Write CSV/JSON artifacts here.")
@click.option("--format", "formats", default="csv,json", show_default=True)
@click.option("--config", type=click.Path(exists=False), default=None)
@click.pass_context
def kernel_check(ctx, **kw):
    """Check kernel identities and bounds; nonzero exit on any failure."""
    kw = _merge_config(ctx, "kernel-check", kw)
    params = _make_params(kw["q"], kw["beta"])
    cfg = QuadratureConfig(kw["quad_tol"])
    alpha = kw["alpha"]
    formats = _parse_formats(kw["formats"])

    rows: list[dict] = []
    offenders: list[str] = []

    def record(check: str, measured: float, limit: float, status: str | None = None, note: str = ""):
        if status is None:
            status = "PASS" if not note and measured <= limit else "FAIL"
        rows.append({"check": check, "measured": measured, "limit": limit, "status": status})
        if status == "FAIL":
            offenders.append(f"{check}: {note or f'measured {measured!r} exceeds limit {limit!r}'}")

    # the basic operator of resolution 1 applied to 1, at 0, is the mass of psi
    one = OperatorSpec(OperatorKind.BASIC, 1, params, alpha)
    try:
        mass = float(apply_on_grid(CATALOG["one"], one, [0.0], cfg)[0])
        record("normalization |int psi - 1|", abs(mass - 1.0), 1e-8)
    except QuadratureNonConvergedError as exc:
        record("normalization |int psi - 1|", math.nan, 1e-8, note=str(exc))

    xs = np.linspace(0.0, 40.0, 1601)
    record(
        "evenness max |psi(x) - psi(-x)|",
        float(np.abs(kernel.psi(params, xs) - kernel.psi(params, -xs)).max()),
        1e-14,
    )
    mirror = KernelParams(1.0 / params.q, params.beta)
    gx = kernel.g(params, -xs)
    gm = kernel.g(mirror, xs)
    record(
        "deformed symmetry max |g_q(-x) - g_1/q(x)|",
        float(np.abs(gx - gm).max() / max(np.abs(gm).max(), 1e-300)),
        1e-14,
    )

    target = params.g_argmax
    location, dominant = _peak_location(params, target)
    record(
        "peak location |argmax - ln(q)/beta|",
        abs(location - target),
        1e-6,
        None if dominant else "FAIL",
    )
    record("peak value |g(argmax) - closed form|", abs(kernel.g(params, target) - params.g_max_value), 1e-10)

    # psi is even: P(|H| > m) = 2 P(H > m) and E|H|^k = 2 E(H)+^k, upper moments at y = m and 0;
    # one call takes the tails at every window edge whose hypothesis holds
    bounds = {}
    for n in kw["ns"]:
        with contextlib.suppress(HypothesisNotMetError):
            bounds[n] = kernel.tail_mass_bound(params, n, alpha)
    tails = dict(zip(bounds, kernel.upper_moment(params, 0, [kernel.window_edge(n, alpha) for n in bounds])[0]))
    for n in kw["ns"]:
        if n in bounds:
            record(f"tail mass n={n} alpha={alpha}", 2.0 * float(tails[n]), bounds[n])
        else:
            record(f"tail mass n={n} alpha={alpha}", math.nan, math.nan, "hypothesis not met")

    for k in range(1, 6):
        moment = 2.0 * float(kernel.upper_moment(params, k, 0.0)[0])
        record(f"absolute moment k={k}", moment, kernel.moment_bound(params, k))

    width = max(len(r["check"]) for r in rows) + 2
    click.echo(f"kernel check  q={_fmt(params.q)}  beta={_fmt(params.beta)}")
    for r in rows:
        click.echo(
            f"  {r['check']:<{width}} measured={r['measured']:<12.6g} "
            f"limit={r['limit']:<12.6g} {r['status']}"
        )
    table = _Table(
        "kernel_check",
        ["check", "measured", "limit", "status"],
        [[r["check"], _fmt(r["measured"]), _fmt(r["limit"]), r["status"]] for r in rows],
    )
    summary = {
        "command": "kernel-check",
        "parameters": {"q": params.q, "beta": params.beta, "alpha": alpha, "ns": list(kw["ns"])},
        "checks": rows,
    }
    out = _out_dir(kw["out"]) if kw["out"] else None
    _emit(ctx, out, formats, summary, [table], offenders, "all kernel checks passed")


def _g_slope(params: KernelParams, x: float) -> float:
    """g'(x) = (nu'(x + 1) - nu'(x - 1)) / 4, with the sigmoid's slope
    nu'(x) = 2 beta e^-|z| / (1 + e^-|z|)^2, z = beta x - ln q.  Where g is
    flat to e^-beta near its peak, its values cannot place the peak, but
    the two slopes still differ in their leading digits."""

    def slope(y):
        e = math.exp(-abs(params.beta * y - math.log(params.q)))
        return 2.0 * params.beta * e / (1.0 + e) ** 2

    return 0.25 * (slope(x + 1.0) - slope(x - 1.0))


def _peak_location(params: KernelParams, center: float) -> tuple[float, bool]:
    """Where g' changes sign in [center - w, center + w], found by
    bisection on its sign to a relative 1e-12 (g is unimodal), and whether
    g(center) is at least g at every bracket point (101 points over the
    interval and every bisection midpoint) to within 4 ulp.  The half-width
    w = min(5, 1 + 600 / beta) keeps the inner slope at each end above
    e^-600, so at large beta the bracket's slopes do not underflow to 0."""
    half = min(5.0, 1.0 + 600.0 / params.beta)
    lo, hi = center - half, center + half
    points = list(np.linspace(lo, hi, 101))
    if not (_g_slope(params, lo) > 0.0 > _g_slope(params, hi)):
        return math.inf, False
    while hi - lo > 1e-12 * max(1.0, abs(center)):
        mid = 0.5 * (lo + hi)
        if _g_slope(params, mid) > 0.0:
            lo = mid
        else:
            hi = mid
        points.append(mid)
    peak = kernel.g(params, center)
    dominant = peak >= float(kernel.g(params, np.array(points)).max()) - 4.0 * math.ulp(peak)
    return 0.5 * (lo + hi), dominant


# ----------------------------------------------------------------------
# approx
# ----------------------------------------------------------------------


def _sweep_options(fn):
    fn = click.option("--config", type=click.Path(exists=False), default=None)(fn)
    fn = click.option("--quad-tol", type=_POSITIVE, default=1e-10, show_default=True)(fn)
    fn = click.option("--format", "formats", default="csv,json,svg", show_default=True)(fn)
    fn = click.option(
        "--out", envvar="ACTCONV_OUT", default="actconv_out", show_default=True,
        help="Output directory (env ACTCONV_OUT; flags win).",
    )(fn)
    fn = click.option("--grid-points", type=click.IntRange(min=2), default=2001, show_default=True)(fn)
    fn = click.option("--domain", default="-3,3", show_default=True)(fn)
    fn = click.option("--weights", default=_DEFAULT_WEIGHTS, show_default=True,
                      help="Quadrature-kind weights w1,...,wr.")(fn)
    fn = click.option("--beta", type=float, default=1.0, show_default=True)(fn)
    fn = click.option("--q", type=float, default=1.0, show_default=True)(fn)
    fn = click.option("--alpha", type=_ALPHA, default=0.5, show_default=True)(fn)
    return fn


def _grid_from(kw) -> MeasurementGrid:
    return MeasurementGrid.uniform(_parse_domain(kw["domain"]), kw["grid_points"])


def _offences(records) -> list[str]:
    """One line per sweep record that failed or exceeded its bound."""
    lines = []
    for rec in records:
        where = f"{rec.function}/{rec.kind}/n={rec.n}"
        if rec.note:
            lines.append(f"{where}: {rec.note}")
        elif rec.satisfied is False:
            lines.append(
                f"{where}: measured {rec.measured_sup_error!r} exceeds {rec.bound_kind} bound {rec.bound_value!r}"
            )
    return lines


def _verdict(rec) -> str:
    """A sweep record's satisfied cell: failed (its note names the error),
    skipped (no bound applies), true or false."""
    if rec.note:
        return "failed"
    return "skipped" if rec.satisfied is None else str(rec.satisfied).lower()


@main.command()
@click.option("--fn", "fns", type=_FUNCTIONS, multiple=True, default=("sin",), show_default=True)
@click.option("--kind", "kinds", type=_KINDS, multiple=True, default=tuple(k.value for k in OperatorKind), show_default=True)
@click.option("--n", "ns", type=_RESOLUTION, multiple=True, default=(9, 16, 25, 36, 49), show_default=True)
@_sweep_options
@click.pass_context
def approx(ctx, **kw):
    """Sweep measured sup error against the first-order bounds."""
    kw = _merge_config(ctx, "approx", kw)
    params = _make_params(kw["q"], kw["beta"])
    cfg = QuadratureConfig(kw["quad_tol"])
    grid = _grid_from(kw)
    formats = _parse_formats(kw["formats"])
    functions = [CATALOG[name] for name in kw["fns"]]
    kinds = _kinds(kw)
    out = _out_dir(kw["out"])

    offenders = []
    results = []
    tables = []
    for f in functions:
        for kind, records in _sweep(f, kinds, kw, params, grid, cfg):
            offenders += _offences(records)
            csv_rows = []
            rates = []
            for i, rec in enumerate(records):
                rate = math.nan
                if i >= 2:
                    try:
                        rate = fit_rate(records[: i + 1])
                    except ValueError:
                        rate = math.nan
                rates.append(rate)
                verdict = _verdict(rec)
                csv_rows.append(
                    [str(rec.n), _fmt(rec.measured_sup_error), _fmt(rec.bound_value), verdict, _fmt(rate)]
                )
                click.echo(
                    f"{f.name:>6s} {kind:<12s} n={rec.n:<3d} "
                    f"err={rec.measured_sup_error:.6e} bound={_fmt(rec.bound_value)} {verdict}"
                )
            plot = _bound_plot(
                f"sup error vs bound: {f.name}, {kind}", "sup error", "measured",
                [(r.n, r.measured_sup_error, r.bound_value) for r in records if r.bound_value is not None],
            )
            tables.append(
                _Table(f"approx_{f.name}_{kind}", ["n", "sup_error", "bound", "satisfied", "rate_so_far"], csv_rows, plot)
            )
            results.append(
                {
                    "function": f.name,
                    "kind": kind,
                    "records": [
                        {
                            "n": r.n,
                            "sup_error": r.measured_sup_error,
                            "bound": r.bound_value,
                            "satisfied": r.satisfied,
                            "hypothesis_met": r.hypothesis_met,
                            "note": r.note,
                        }
                        for r in records
                    ],
                    "rate_final": rates[-1] if rates else math.nan,
                }
            )

    summary = {
        "command": "approx",
        "parameters": {
            "q": params.q,
            "beta": params.beta,
            "alpha": kw["alpha"],
            "ns": sorted(int(n) for n in kw["ns"]),
            "functions": [f.name for f in functions],
            "kinds": list(kw["kinds"]),
            "domain": list(grid.domain),
            "grid_points": kw["grid_points"],
            "quad_tol": kw["quad_tol"],
        },
        "results": results,
    }
    _emit(ctx, out, formats, summary, tables, offenders, "all bounds satisfied")


# ----------------------------------------------------------------------
# taylor
# ----------------------------------------------------------------------


@main.command()
@click.option("--fn", "fns", type=_FUNCTIONS, multiple=True, default=("sin",), show_default=True)
@click.option("--kind", "kinds", type=_KINDS, multiple=True, default=tuple(k.value for k in OperatorKind), show_default=True)
@click.option("--n", "ns", type=_RESOLUTION, multiple=True, default=(16, 25, 36), show_default=True)
@click.option("--taylor-order", type=click.IntRange(min=1), default=2, show_default=True)
@_sweep_options
@click.pass_context
def taylor(ctx, **kw):
    """Check Taylor-corrected residuals against the refined bounds."""
    kw = _merge_config(ctx, "taylor", kw)
    order = kw["taylor_order"]
    params = _make_params(kw["q"], kw["beta"])
    cfg = QuadratureConfig(kw["quad_tol"])
    grid = _grid_from(kw)
    formats = _parse_formats(kw["formats"])
    functions = [CATALOG[name] for name in kw["fns"]]
    kinds = _kinds(kw)
    out = _out_dir(kw["out"])

    offenders = []
    results = []
    tables = []
    for f in functions:
        if len(f.derivatives) < order:
            click.echo(f"{f.name}: skipped (needs {order} analytic derivatives, has {len(f.derivatives)})")
            continue
        for kind, records in _sweep(f, kinds, kw, params, grid, cfg, order):
            offenders += _offences(records)
            for rec in records:
                bound = math.nan if rec.bound_value is None else rec.bound_value
                click.echo(
                    f"{f.name:>6s} {kind:<12s} n={rec.n:<3d} N={order} "
                    f"residual={rec.measured_sup_error:.6e} bound={bound:.6e} {_verdict(rec)}"
                )
            plot = _bound_plot(
                f"Taylor residual (N={order}): {f.name}, {kind}", "residual", "residual",
                [(r.n, r.measured_sup_error, r.bound_value) for r in records
                 if r.bound_value is not None and r.measured_sup_error],
            )
            csv_rows = [[str(r.n), _fmt(r.measured_sup_error), _fmt(r.bound_value), _verdict(r)] for r in records]
            tables.append(_Table(f"taylor_{f.name}_{kind}", ["n", "residual", "bound", "satisfied"], csv_rows, plot))
            recs = [
                {"n": r.n, "residual": r.measured_sup_error, "bound": r.bound_value, "satisfied": r.satisfied,
                 "note": r.note}
                for r in records
            ]
            results.append({"function": f.name, "kind": kind, "order": order, "records": recs})

    summary = {
        "command": "taylor",
        "parameters": {
            "q": params.q,
            "beta": params.beta,
            "alpha": kw["alpha"],
            "ns": sorted(int(n) for n in kw["ns"]),
            "functions": [f.name for f in functions],
            "kinds": list(kw["kinds"]),
            "taylor_order": order,
        },
        "results": results,
    }
    _emit(ctx, out, formats, summary, tables, offenders, "all taylor bounds satisfied")


# ----------------------------------------------------------------------
# iterate
# ----------------------------------------------------------------------


@main.command()
@click.option("--fn", "fns", type=_FUNCTIONS, multiple=True, default=("sin",), show_default=True)
@click.option("--kind", "kinds", type=_KINDS, multiple=True, default=("basic",), show_default=True)
@click.option("--n", "ns", type=_RESOLUTION, multiple=True, default=(32,), show_default=True)
@click.option("--iterations", type=click.IntRange(min=1), default=3, show_default=True, help="Self-composition count r.")
@click.option("--chain", default=None, help="Ascending resolutions k1,k2,... (overrides --iterations).")
@_sweep_options
@click.pass_context
def iterate(ctx, **kw):
    """Check iterated-operator errors against r-fold and per-step bounds."""
    kw = _merge_config(ctx, "iterate", kw)
    params = _make_params(kw["q"], kw["beta"])
    cfg = QuadratureConfig(kw["quad_tol"])
    grid = _grid_from(kw)
    formats = _parse_formats(kw["formats"])
    functions = [CATALOG[name] for name in kw["fns"]]
    domain = grid.domain
    chain = _parse_list(kw["chain"], "--chain", int) if kw["chain"] else None
    if chain and (chain[0] < 1 or any(b < a for a, b in zip(chain, chain[1:]))):
        raise click.UsageError(f"--chain must be ascending positive integers, got {list(chain)}")
    if not chain and len(kw["ns"]) != 1:
        raise click.UsageError("iterate without --chain expects exactly one --n")
    kinds = _kinds(kw)
    # every bound below holds only where the hypothesis holds at every resolution
    for n in chain or kw["ns"]:
        try:
            kernel.window_edge(n, kw["alpha"])
        except HypothesisNotMetError as exc:
            raise click.UsageError(f"no iterated bound at this resolution: {exc}")
    out = _out_dir(kw["out"])

    offenders = []
    results = []
    tables = []
    slack = (len(chain) if chain else kw["iterations"]) * RESIDUAL_CEILING
    for f in functions:
        for kind, weights in kinds:

            def _jackson(n: int):
                omega = f.modulus(bounds_mod.omega_argument(kind, n, kw["alpha"]))
                return bounds_mod.jackson_bound(omega, params, n, kw["alpha"], f.sup_norm)

            try:
                if chain:
                    approx = compose_mixed(f, kind, chain, params, domain, weights=weights, cfg=cfg)
                else:
                    n = int(kw["ns"][0])
                    r = kw["iterations"]
                    spec = OperatorSpec(kind=OperatorKind(kind), n=n, params=params, alpha=kw["alpha"], weights=weights)
                    approx = iterate_operator(f, spec, r, domain, cfg=cfg)
            except (QuadratureNonConvergedError, NonFiniteSampleError) as exc:
                raise click.ClickException(f"{f.name}/{kind}: {exc}")
            measured = float(np.abs(approx(grid.points) - f.eval(grid.points)).max())
            # one CSV row and one summary record: columns in CSV order
            if chain:
                steps = [_jackson(n) for n in chain]
                bound = bounds_mod.mixed_iterated_bound(steps)
                coarse = bounds_mod.iterated_bound(steps[0], len(chain))
                tag = [f"chain={list(chain)}"]
                fields = {"chain": list(chain), "measured": measured, "sum_bound": bound, "coarse_bound": coarse}
                detail = f"sum_bound={bound:.6e} coarse={coarse:.6e}"
            else:
                single = _jackson(n)
                bound = bounds_mod.iterated_bound(single, r)
                tag = [f"n={n}", f"r={r}"]
                fields = {"r": r, "n": n, "measured": measured, "single_step_bound": single,
                          "iterated_bound": bound}
                detail = f"single_bound={single:.6e} iterated_bound={bound:.6e}"
            satisfied = measured <= bound + slack
            fields.update(slack=slack, satisfied=satisfied)
            click.echo(
                f"{f.name:>6s} {kind:<12s} {' '.join(tag)} measured={measured:.6e} {detail} "
                f"slack={slack:.1e} {str(satisfied).lower()}"
            )
            if not satisfied:
                offenders.append(f"{f.name}/{kind}/{'/'.join(tag)}: {measured!r} > {bound!r} + slack")
            tables.append(_Table(f"iterate_{f.name}_{kind}", list(fields), [[_cell(v) for v in fields.values()]]))
            results.append({"function": f.name, "kind": kind, **fields})

    summary = {
        "command": "iterate",
        "parameters": {
            "q": params.q,
            "beta": params.beta,
            "alpha": kw["alpha"],
            "functions": [f.name for f in functions],
            "kinds": list(kw["kinds"]),
            "chain": list(chain) if chain else None,
            "iterations": None if chain else kw["iterations"],
            "ns": None if chain else [int(kw["ns"][0])],
        },
        "results": results,
    }
    _emit(ctx, out, formats, summary, tables, offenders, "all iterated bounds satisfied")


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------


@main.command()
@click.option("--out", envvar="ACTCONV_OUT", default="actconv_out", show_default=True)
@click.pass_context
def report(ctx, out):
    """Aggregate prior JSON summaries in the output directory into one index."""
    directory = Path(out)
    if not directory.is_dir():
        raise click.UsageError(f"output directory {out!r} does not exist")
    entries = []
    for path in sorted(directory.glob("*_summary.json")):
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise click.ClickException(f"cannot read summary {path}: {exc}")
        entries.append(
            {
                "file": path.name,
                "command": payload.get("command", "unknown"),
                "all_satisfied": bool(payload.get("all_satisfied", False)),
            }
        )
    if not entries:
        click.echo(f"no *_summary.json files under {out!r}")
        ctx.exit(1)
    all_ok = all(e["all_satisfied"] for e in entries)
    index = {"command": "report", "summaries": entries, "all_satisfied": all_ok}
    _write(directory / "index.json", _json_text(index))
    for e in entries:
        click.echo(f"{e['file']:<40s} {e['command']:<14s} satisfied={str(e['all_satisfied']).lower()}")
    click.echo(f"index written to {directory / 'index.json'}")
    if not all_ok:
        ctx.exit(1)


if __name__ == "__main__":
    main()

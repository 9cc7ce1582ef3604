"""CLI verbs: artifacts, exit codes, determinism, config precedence."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest
from click.testing import CliRunner

import numpy as np

from actconv import KernelParams, TestFunction, bounds, cli, operators, quadrature
from actconv.analysis import CATALOG
from actconv.cli import _g_slope, main


@pytest.fixture
def runner():
    return CliRunner()


def _run(runner, args, **kw):
    return runner.invoke(main, args, catch_exceptions=False, **kw)


def _reject(constant):
    raise ValueError(f"not strict JSON: {constant}")


def _strict_json(path):
    """A JSON artifact, parsed with NaN and Infinity rejected as strict
    JSON parsers reject them."""
    return json.loads(path.read_text(), parse_constant=_reject)


class TestKernelCheck:
    def test_defaults_pass(self, runner, tmp_path):
        result = _run(runner, ["kernel-check", "--out", str(tmp_path)])
        assert result.exit_code == 0
        assert "all kernel checks passed" in result.output
        assert (tmp_path / "kernel_check.csv").exists()
        payload = json.loads((tmp_path / "kernel_check_summary.json").read_text())
        assert payload["all_satisfied"] is True

    def test_makes_no_adaptive_integral(self, runner, tmp_path, monkeypatch):
        """The tail-mass and absolute-moment rows are closed forms
        (``kernel.upper_moment``) and the normalization row is the basic
        operator of resolution 1 applied to 1 at 0, on the trapezoidal rule:
        no run makes an ``integrate_interval`` call, and that operator call
        evaluates psi."""
        for module in (quadrature, operators):
            monkeypatch.setattr(module, "integrate_interval", lambda *args, **kw: pytest.fail("an adaptive integral"))
        psi, apply_on_grid, calls = operators.kernel.psi, cli.apply_on_grid, []
        inside = []  # set while an apply_on_grid call runs

        def counted_apply(*args, **kw):
            inside.append(1)
            try:
                return apply_on_grid(*args, **kw)
            finally:
                inside.pop()

        def counted_psi(*args):
            if inside:
                calls.append(1)
            return psi(*args)

        monkeypatch.setattr(operators.kernel, "psi", counted_psi)
        monkeypatch.setattr(cli, "apply_on_grid", counted_apply)
        for args in ([], ["--q", "3", "--beta", "700"]):
            calls.clear()
            result = _run(runner, ["kernel-check", *args, "--out", str(tmp_path)])
            assert result.exit_code == 0, result.output
            assert calls, args

    @pytest.mark.parametrize("q, beta", [(1.0, 1.0), (31.6, 0.273), (3.0, 700.0), (1e6, 0.05), (1e300, 700.0)])
    def test_tail_and_moment_rows_match_mpmath(self, runner, tmp_path, q, beta):
        """Each tail-mass and absolute-moment row equals the 30-digit mpmath
        integral of psi to 1e-13 relative, or both lie below the smallest
        double (the tails of the sharp kernels).  psi is taken as the mean
        of g_c(|h|) = w sinh(beta) / (1 + 2 w cosh(beta) + w^2), w = c
        e^(-beta |h|), c = q and 1/q, which holds its digits in the tails
        where the difference of sigmoids does not."""
        result = _run(runner, ["kernel-check", "--q", repr(q), "--beta", repr(beta), "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        checks = json.loads((tmp_path / "kernel_check_summary.json").read_text())["checks"]
        measured = {row["check"]: row["measured"] for row in checks}
        with mp.workdps(30):
            c = abs(mp.log(q)) / beta
            bends = sorted({b for b in (c - 1, c, c + 1) if b > 0})

            def psi(h):
                e = mp.exp(-beta * abs(h))
                return mp.fsum(w * mp.sinh(beta) / (1 + 2 * w * mp.cosh(beta) + w * w) for w in (q * e, e / q)) / 2

            def integral(lo, k):
                # panels at the bends and at the decay length 1 / beta from the
                # last one on; mp.quad's error test is absolute, so the
                # integrand is scaled to 1 at its lower end
                ends = [lo, *(b for b in bends if b > lo)]
                ends += [ends[-1] + 4**i / beta for i in range(5)] + [mp.inf]
                return 2 * psi(lo) * mp.quad(lambda h: h**k * psi(h) / psi(lo), ends)

            exact = {f"tail mass n={n} alpha=0.5": integral(mp.sqrt(n), 0) for n in (9, 16, 25, 36)}
            exact.update({f"absolute moment k={k}": integral(0, k) for k in range(1, 6)})
            for name, value in exact.items():
                assert abs(measured[name] - value) <= 1e-13 * value + 2.0**-1074, (name, measured[name], value)

    def test_invalid_q_rejected_before_compute(self, runner):
        result = _run(runner, ["kernel-check", "--q", "-1"])
        assert result.exit_code == 2
        assert "positive" in result.output

    def test_hypothesis_not_met_is_not_failure(self, runner):
        result = _run(runner, ["kernel-check", "--n", "4", "--n", "9"])
        assert result.exit_code == 0
        assert "hypothesis not met" in result.output

    @pytest.mark.parametrize("beta", ["1", "700"])
    def test_wrong_peak_closed_form_detected(self, runner, tmp_path, monkeypatch, beta):
        """The peak search finds the true argmax, so a closed form off by
        1e-5 fails its row."""
        shifted = property(lambda p: math.log(p.q) / p.beta + 1e-5)
        monkeypatch.setattr(KernelParams, "g_argmax", shifted)
        result = _run(runner, ["kernel-check", "--beta", beta, "--out", str(tmp_path)])
        assert result.exit_code == 1
        rows = (tmp_path / "kernel_check.csv").read_text().splitlines()
        peak = [row for row in rows if row.startswith("peak location")]
        assert len(peak) == 1 and peak[0].endswith(",FAIL")
        assert "BOUND VIOLATION: peak location" in result.output

    @pytest.mark.parametrize("q, beta", [("1", "200"), ("3", "700"), ("1e-6", "700"), ("1e6", "700")])
    def test_peak_found_at_sharp_kernels(self, runner, tmp_path, q, beta):
        """The bracket narrows to ln(q)/beta +- (1 + 600/beta) at large beta,
        so the slopes at its ends stay above underflow and the peak row
        passes."""
        result = _run(runner, ["kernel-check", "--q", q, "--beta", beta, "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        rows = (tmp_path / "kernel_check.csv").read_text().splitlines()
        peak = [row for row in rows if row.startswith("peak location")]
        assert len(peak) == 1 and peak[0].endswith(",PASS")

    def test_refused_normalization_fails_its_row(self, runner, tmp_path):
        """At 1e-18 the rounding of the normalization's trapezoidal rule
        alone exceeds tol: its call is refused, and the row reads FAIL with
        the refusal's message, not a traceback; the closed-form rows pass."""
        result = _run(runner, ["kernel-check", "--quad-tol", "1e-18", "--out", str(tmp_path)])
        assert result.exit_code == 1
        rows = (tmp_path / "kernel_check.csv").read_text().splitlines()[1:]
        assert rows[0] == "normalization |int psi - 1|,nan,1e-08,FAIL"
        assert all(row.endswith(",PASS") for row in rows[1:])
        assert "BOUND VIOLATION: normalization |int psi - 1|: operator quadrature did not converge" in result.output

    def test_huge_tolerance_fails_rows_not_the_verb(self, runner, tmp_path):
        """At tol = 100 the truncated kernel mass is capped at 1/2, so every
        window radius exists and the normalization row fails."""
        result = _run(runner, ["kernel-check", "--quad-tol", "100", "--out", str(tmp_path)])
        assert result.exit_code == 1
        assert "BOUND VIOLATION: normalization" in result.output


@pytest.mark.parametrize("q", ["1e-6", "1e6"])
@pytest.mark.parametrize("beta", ["0.05", "20"])
def test_kernel_check_corners_pass(runner, q, beta):
    """At beta = 20 g is flat to e^-20 near its peak; the location row
    reads the sign of g', which stays well conditioned there."""
    result = _run(runner, ["kernel-check", "--q", q, "--beta", beta])
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize("q, beta", [(1.0, 1.0), (1e-6, 20.0), (1e6, 0.05), (3.0, 2.0)])
def test_g_slope_is_the_derivative_of_g(q, beta):
    """The peak row bisects on the sign of ``_g_slope``; its value is g'
    itself, checked against g = (nu(x + 1) - nu(x - 1)) / 4 differentiated
    in mpmath (at beta = 20 g is flat to e^-20, too flat for a difference
    of doubles)."""

    def nu(x):
        w = q * mp.exp(-beta * x)
        return (1 - w) / (1 + w)

    for x in (-0.7, 0.1, 1.3):
        with mp.workdps(40):
            exact = float(mp.diff(lambda t: (nu(t + 1) - nu(t - 1)) / 4, mp.mpf(x)))
        assert _g_slope(KernelParams(q, beta), x) == pytest.approx(exact, rel=1e-9)


def test_no_scipy_at_runtime(tmp_path):
    """Neither importing the CLI nor a kernel-check run loads scipy."""
    code = (
        "import sys\n"
        "import actconv.cli\n"
        "before = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "from click.testing import CliRunner\n"
        "result = CliRunner().invoke(actconv.cli.main, ['kernel-check', '--out', sys.argv[1]])\n"
        "after = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "print(result.exit_code, before, after)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "[]", "[]"]


class TestApprox:
    def test_small_run_artifacts(self, runner, tmp_path):
        result = _run(
            runner,
            ["approx", "--fn", "one", "--kind", "basic", "--n", "9", "--n", "16",
             "--grid-points", "201", "--out", str(tmp_path)],
        )
        assert result.exit_code == 0
        csv_text = (tmp_path / "approx_one_basic.csv").read_text()
        assert csv_text.splitlines()[0] == "n,sup_error,bound,satisfied,rate_so_far"
        assert len(csv_text.splitlines()) == 3
        payload = json.loads((tmp_path / "approx_summary.json").read_text())
        assert payload["all_satisfied"] is True

    def test_constant_errors_tiny(self, runner, tmp_path):
        result = _run(
            runner,
            ["approx", "--fn", "one", "--kind", "basic", "--n", "9",
             "--grid-points", "101", "--out", str(tmp_path), "--format", "json"],
        )
        assert result.exit_code == 0
        payload = json.loads((tmp_path / "approx_summary.json").read_text())
        record = payload["results"][0]["records"][0]
        assert record["sup_error"] <= 1e-9 and record["satisfied"]

    def test_failed_record_reads_failed(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["approx", "--kind", "basic", "--n", "16", "--quad-tol", "1e-17",
             "--grid-points", "101", "--out", str(tmp_path)],
        )
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert "BOUND VIOLATION: sin/basic/n=16: QuadratureNonConvergedError" in result.output
        assert (tmp_path / "approx_sin_basic.csv").read_text().splitlines()[1] == "16,nan,nan,failed,nan"
        payload = _strict_json(tmp_path / "approx_summary.json")
        record = payload["results"][0]["records"][0]
        assert record["sup_error"] is None and payload["results"][0]["rate_final"] is None
        assert record["note"].startswith("QuadratureNonConvergedError")

    def test_violation_names_the_bound(self, runner, tmp_path, monkeypatch):
        """The bound is named from the verb and the operator kind."""
        monkeypatch.setattr(bounds, "jackson_bound", lambda *args: 0.0)
        result = runner.invoke(
            main,
            ["approx", "--kind", "basic", "--n", "16", "--grid-points", "101", "--out", str(tmp_path)],
        )
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert "BOUND VIOLATION: sin/basic/n=16: measured " in result.output
        assert "exceeds jackson-basic bound 0.0" in result.output

    def test_empty_ns_is_config_error(self, runner, tmp_path, monkeypatch):
        # config file supplies an empty n list; flags are absent
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("[approx]\nn =\n")
        result = runner.invoke(main, ["approx", "--config", str(cfg)])
        assert result.exit_code != 0

    def test_unknown_function_rejected(self, runner):
        result = _run(runner, ["approx", "--fn", "nosuch"])
        assert result.exit_code == 2

    def test_bad_weights_rejected(self, runner):
        result = _run(
            runner, ["approx", "--fn", "one", "--kind", "quadrature", "--weights", "0.5,0.6", "--n", "9"]
        )
        assert result.exit_code == 2
        assert "sum to 1" in result.output

    def test_svg_emitted(self, runner, tmp_path):
        result = _run(
            runner,
            ["approx", "--fn", "sin", "--kind", "basic", "--n", "9", "--n", "16", "--n", "25",
             "--grid-points", "201", "--out", str(tmp_path)],
        )
        assert result.exit_code == 0
        svg = (tmp_path / "approx_sin_basic.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_determinism_byte_identical(self, runner, tmp_path):
        args = ["approx", "--fn", "sin", "--kind", "basic", "--n", "9", "--n", "16",
                "--grid-points", "201"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert _run(runner, args + ["--out", str(out1)]).exit_code == 0
        assert _run(runner, args + ["--out", str(out2)]).exit_code == 0
        assert (out1 / "approx_sin_basic.csv").read_bytes() == (out2 / "approx_sin_basic.csv").read_bytes()
        assert (out1 / "approx_summary.json").read_bytes() == (out2 / "approx_summary.json").read_bytes()

    def test_env_var_out_dir(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv("ACTCONV_OUT", str(tmp_path / "envdir"))
        result = _run(
            runner,
            ["approx", "--fn", "one", "--kind", "basic", "--n", "9", "--grid-points", "101"],
        )
        assert result.exit_code == 0
        assert (tmp_path / "envdir" / "approx_one_basic.csv").exists()

    def test_flag_wins_over_env(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv("ACTCONV_OUT", str(tmp_path / "envdir"))
        result = _run(
            runner,
            ["approx", "--fn", "one", "--kind", "basic", "--n", "9",
             "--grid-points", "101", "--out", str(tmp_path / "flagdir")],
        )
        assert result.exit_code == 0
        assert (tmp_path / "flagdir" / "approx_one_basic.csv").exists()
        assert not (tmp_path / "envdir").exists()

    def test_config_wins_over_env(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv("ACTCONV_OUT", str(tmp_path / "envdir"))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[approx]\nout = {tmp_path / 'cfgdir'}\n")
        result = _run(
            runner,
            ["approx", "--config", str(cfg), "--fn", "one", "--kind", "basic", "--n", "9", "--grid-points", "101"],
        )
        assert result.exit_code == 0
        assert (tmp_path / "cfgdir" / "approx_one_basic.csv").exists()
        assert not (tmp_path / "envdir").exists()

    def test_config_file_and_flag_precedence(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "[common]\nout = {}\ngrid-points = 101\n\n[approx]\nfn = one\nkind = basic\nn = 9\n".format(
                tmp_path / "cfgdir"
            )
        )
        result = _run(runner, ["approx", "--config", str(cfg)])
        assert result.exit_code == 0
        assert (tmp_path / "cfgdir" / "approx_one_basic.csv").exists()
        # an explicit flag overrides the config value
        result = _run(runner, ["approx", "--config", str(cfg), "--out", str(tmp_path / "flagdir")])
        assert result.exit_code == 0
        assert (tmp_path / "flagdir" / "approx_one_basic.csv").exists()

    def test_unknown_config_key_rejected(self, runner, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[approx]\nnope = 1\n")
        result = runner.invoke(main, ["approx", "--config", str(cfg)])
        assert result.exit_code == 2


@pytest.mark.parametrize("verb", ["approx", "taylor", "iterate"])
@pytest.mark.parametrize(
    "bad",
    [["--kind", "basic", "--kind", "bogus"], ["--kind", "basic", "--kind", "quadrature", "--weights", "0.5,0.6"]],
    ids=["kind", "weights"],
)
def test_bad_kind_rejected_before_work(runner, tmp_path, verb, bad):
    result = _run(runner, [verb, "--fn", "sin", "--n", "9", "--grid-points", "101", "--out", str(tmp_path)] + bad)
    assert result.exit_code == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("verb", ["approx", "taylor", "iterate"])
def test_nan_weights_rejected_before_work(runner, tmp_path, verb):
    result = _run(runner, [verb, "--kind", "quadrature", "--weights", "nan,1", "--out", str(tmp_path)])
    assert result.exit_code == 2
    assert "finite and nonnegative" in result.output
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args, option",
    [
        (["kernel-check", "--n", "0"], "--n"),
        (["approx", "--n", "0"], "--n"),
        (["taylor", "--n", "0"], "--n"),
        (["iterate", "--iterations", "0"], "--iterations"),
        (["iterate", "--chain", "-1,9"], "--chain"),
        (["approx", "--domain", "0,inf"], "--domain"),
        (["kernel-check", "--alpha", "nan"], "--alpha"),
        (["approx", "--quad-tol", "nan"], "--quad-tol"),
        (["approx", "--quad-tol", "inf"], "--quad-tol"),
        (["approx", "--kind", "basic", "--weights", "foo"], "--weights"),
        (["approx", "--format", ""], "--format"),
        (["kernel-check", "--format", ","], "--format"),
    ],
    ids=["kernel-check-n", "approx-n", "taylor-n", "iterate-iterations", "iterate-chain", "domain", "alpha-nan",
         "quad-tol-nan", "quad-tol-inf", "weights-unused", "format-empty", "format-comma"],
)
def test_out_of_range_flag_rejected_before_work(runner, tmp_path, args, option):
    out = tmp_path / "out"
    result = _run(runner, args + ["--out", str(out)])
    assert result.exit_code == 2
    assert option in result.output
    assert not out.exists()


@pytest.mark.parametrize("verb", ["kernel-check", "approx", "taylor", "iterate"])
def test_beta_above_the_limit_is_a_usage_error(runner, tmp_path, verb):
    """Beyond beta = 700 e^-beta leaves the normal doubles; kernel-check
    died with an OverflowError traceback at --beta 800."""
    out = tmp_path / "out"
    result = _run(runner, [verb, "--beta", "800", "--out", str(out)])
    assert result.exit_code == 2
    assert "beta must be at most 700" in result.output
    assert not out.exists()


@pytest.mark.parametrize(
    "verb, line, option",
    [("approx", "n = 9,0", "--n"), ("kernel-check", "alpha = 1.5", "--alpha"),
     ("iterate", "iterations = 0", "--iterations")],
    ids=["n", "alpha", "iterations"],
)
def test_config_values_checked_like_flags(runner, tmp_path, verb, line, option):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[{verb}]\n{line}\nout = {tmp_path / 'out'}\n")
    result = _run(runner, [verb, "--config", str(cfg)])
    assert result.exit_code == 2
    assert option in result.output
    assert not (tmp_path / "out").exists()


def test_bad_config_kind_rejected_before_work(runner, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[approx]\nkind = basic,bogus\nn = 9\nout = {tmp_path / 'out'}\n")
    result = _run(runner, ["approx", "--config", str(cfg)])
    assert result.exit_code == 2
    assert "bogus" in result.output
    assert not (tmp_path / "out").exists()


class TestTaylor:
    def test_sin_passes(self, runner, tmp_path):
        result = _run(
            runner,
            ["taylor", "--fn", "sin", "--kind", "basic", "--n", "16", "--taylor-order", "2",
             "--grid-points", "201", "--out", str(tmp_path)],
        )
        assert result.exit_code == 0
        assert (tmp_path / "taylor_sin_basic.csv").exists()

    def test_abs_skipped_with_notice(self, runner, tmp_path):
        result = _run(
            runner,
            ["taylor", "--fn", "abs", "--kind", "basic", "--n", "16",
             "--grid-points", "201", "--out", str(tmp_path)],
        )
        assert result.exit_code == 0
        assert "skipped" in result.output

    def test_quadrature_failure_is_a_bound_violation(self, runner, tmp_path):
        """A record that fails to converge is reported and written like
        approx's: exit 1, no traceback, artifacts on disk."""
        result = runner.invoke(
            main,
            ["taylor", "--kind", "basic", "--n", "16", "--quad-tol", "1e-17",
             "--grid-points", "101", "--out", str(tmp_path)],
        )
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert "BOUND VIOLATION: sin/basic/n=16: QuadratureNonConvergedError" in result.output
        assert "n=16  N=2 residual=nan bound=nan failed" in result.output
        assert (tmp_path / "taylor_sin_basic.csv").read_text().splitlines()[1] == "16,nan,nan,failed"
        payload = _strict_json(tmp_path / "taylor_summary.json")
        assert payload["all_satisfied"] is False
        record = payload["results"][0]["records"][0]
        assert record["residual"] is None and record["bound"] is None and record["satisfied"] is None
        # the note tells a failed record from a skipped one
        assert record["note"].startswith("QuadratureNonConvergedError")

    def test_hypothesis_not_met_measured_without_bound(self, runner, tmp_path):
        result = _run(
            runner,
            ["taylor", "--kind", "basic", "--n", "4", "--grid-points", "201", "--out", str(tmp_path)],
        )
        assert result.exit_code == 0
        n, residual, bound, satisfied = (tmp_path / "taylor_sin_basic.csv").read_text().splitlines()[1].split(",")
        assert (n, bound, satisfied) == ("4", "nan", "skipped") and 0.0 < float(residual) < 1.0
        record = _strict_json(tmp_path / "taylor_summary.json")["results"][0]["records"][0]
        assert (record["bound"], record["satisfied"], record["note"]) == (None, None, "")

    @pytest.mark.xfail(strict=True, reason="the Taylor bound of a polynomial is 0.0, below the engine's residual")
    @pytest.mark.parametrize("fn", ["one", "id"])
    def test_polynomial_passes(self, runner, tmp_path, fn):
        result = runner.invoke(main, ["taylor", "--fn", fn, "--kind", "basic", "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output

    def test_order_zero_is_config_error(self, runner):
        result = _run(runner, ["taylor", "--taylor-order", "0"])
        assert result.exit_code == 2


class TestIterate:
    def test_r1_matches_approx_numbers(self, runner, tmp_path):
        shared = ["--fn", "sin", "--kind", "basic", "--grid-points", "401",
                  "--domain", "-2,2", "--out", str(tmp_path)]
        r_approx = _run(runner, ["approx", "--n", "32"] + shared)
        r_iter = _run(runner, ["iterate", "--n", "32", "--iterations", "1"] + shared)
        assert r_approx.exit_code == 0 and r_iter.exit_code == 0
        approx_err = json.loads((tmp_path / "approx_summary.json").read_text())["results"][0][
            "records"
        ][0]["sup_error"]
        iter_err = json.loads((tmp_path / "iterate_summary.json").read_text())["results"][0][
            "measured"
        ]
        assert abs(approx_err - iter_err) <= 1e-12

    def test_r3_satisfied(self, runner, tmp_path):
        result = _run(
            runner,
            ["iterate", "--fn", "sin", "--kind", "basic", "--n", "32", "--iterations", "3",
             "--grid-points", "401", "--out", str(tmp_path)],
        )
        assert result.exit_code == 0
        payload = json.loads((tmp_path / "iterate_summary.json").read_text())
        assert payload["results"][0]["satisfied"] is True

    def test_chain_sum_below_coarse(self, runner, tmp_path):
        result = _run(
            runner,
            ["iterate", "--fn", "sin", "--kind", "basic", "--chain", "9,16,25",
             "--grid-points", "401", "--out", str(tmp_path)],
        )
        assert result.exit_code == 0
        payload = json.loads((tmp_path / "iterate_summary.json").read_text())
        entry = payload["results"][0]
        assert entry["satisfied"] is True
        assert entry["sum_bound"] <= entry["coarse_bound"]

    def test_hard_inputs_pass(self, runner, tmp_path):
        """abs, gauss and cos at n = 9 under every kind: the earlier stages
        are sampled out to the later stages' kernel windows beyond the
        domain, and the interpolated last stage takes several rounds (abs
        needs 65 nodes), yet it meets its ceiling and every bound holds."""
        args = ["iterate", "--n", "9", "--fn", "abs", "--fn", "gauss", "--fn", "cos", "--out", str(tmp_path)]
        for kind in ("basic", "kantorovich", "quadrature"):
            args += ["--kind", kind]
        result = _run(runner, args)
        assert result.exit_code == 0, result.output
        payload = json.loads((tmp_path / "iterate_summary.json").read_text())
        assert len(payload["results"]) == 9 and all(r["satisfied"] for r in payload["results"])

    def test_residual_over_ceiling_is_a_click_error(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr(operators, "RESIDUAL_CEILING", 1e-18)
        result = runner.invoke(main, ["iterate", "--grid-points", "101", "--out", str(tmp_path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Error: sin/basic: approximant residual " in result.output
        assert "exceeds ceiling 1.000e-18 (operator=basic, n=32)" in result.output

    @pytest.mark.parametrize("failure", ["quadrature", "nan-sample"])
    def test_build_failure_is_a_click_error(self, runner, tmp_path, monkeypatch, failure):
        """Quadrature failures while a chain is built end like a residual
        over the ceiling: one error line naming f/kind, exit 1."""
        args = ["iterate", "--grid-points", "101", "--out", str(tmp_path)]
        if failure == "quadrature":
            args += ["--quad-tol", "1e-17"]
            expected = "operator quadrature did not converge"
        else:
            nan_sin = TestFunction.from_callable("sin", lambda x: np.where(np.asarray(x) > 0.5, np.nan, np.sin(x)), 1.0)
            monkeypatch.setitem(CATALOG, "sin", nan_sin)
            expected = "not finite"
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Error: sin/basic: " in result.output and expected in result.output

    def test_descending_chain_rejected(self, runner):
        result = _run(runner, ["iterate", "--chain", "25,9"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("resolution", [["--n", "4", "--iterations", "1"], ["--chain", "4,9"]],
                             ids=["n", "chain"])
    def test_hypothesis_checked_before_work(self, runner, tmp_path, resolution):
        # n**(1 - alpha) = 2 at n = 4, alpha = 0.5: no iterated bound applies
        out = tmp_path / "out"
        result = _run(runner, ["iterate", "--grid-points", "101", "--out", str(out)] + resolution)
        assert result.exit_code == 2
        assert "n=4" in result.output and "alpha=0.5" in result.output
        assert not out.exists()


class TestReport:
    def test_aggregates_summaries(self, runner, tmp_path):
        args = ["--fn", "one", "--kind", "basic", "--n", "9", "--grid-points", "101",
                "--out", str(tmp_path), "--format", "json"]
        assert _run(runner, ["approx"] + args).exit_code == 0
        assert _run(runner, ["taylor", "--taylor-order", "1", "--fn", "sin"] + args[2:]).exit_code == 0
        result = _run(runner, ["report", "--out", str(tmp_path)])
        assert result.exit_code == 0
        index = json.loads((tmp_path / "index.json").read_text())
        assert index["all_satisfied"] is True
        assert {e["command"] for e in index["summaries"]} == {"approx", "taylor"}

    def test_empty_dir_nonzero(self, runner, tmp_path):
        result = _run(runner, ["report", "--out", str(tmp_path)])
        assert result.exit_code == 1

"""The benchmark's output checks accept right answers and reject wrong ones.

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _shifted_sin(kind, n, q, beta, x, phase=0.0):
    """The closed form with c_{n+1} in place of c_n."""
    return checks.sin_output(kind, n, q, beta, x, phase) * (
        checks.psi_hat(1.0 / (n + 1), q, beta) / checks.psi_hat(1.0 / n, q, beta)
    )


@pytest.mark.parametrize("kind", workloads.KINDS)
@pytest.mark.parametrize("n", [100, 400])
def test_grid_sin_check_rejects_next_resolution(kind, n):
    op = {"op": "grid", "fn": "sin", "kind": kind, "n": n, "q": 1.0, "beta": 1.0}
    xs = checks.grid_points()
    assert checks.check_grid_op(op, checks.sin_output(kind, n, 1.0, 1.0, xs)) == []
    assert checks.check_grid_op(op, _shifted_sin(kind, n, 1.0, 1.0, xs))


def test_n1000_result_must_match_closed_form():
    op = workloads.grid_highres_ops()[-1]
    assert (op["fn"], op["kind"], op["n"]) == ("sin", "basic", 1000)
    xs = checks.grid_points()
    assert checks.check_grid_op(op, checks.sin_output("basic", 1000, 1.0, 1.0, xs)) == []
    assert checks.check_grid_op(op, _shifted_sin("basic", 1000, 1.0, 1.0, xs))


def _abs_output(kind, n, xs):
    """A stand-in with the properties of the operator on min(|x|, 3): the
    affine pieces shifted by the kind's first moment."""
    return np.minimum(np.abs(xs + checks.first_moment(kind, n)), checks.ABS_CLAMP)


@pytest.mark.parametrize("kind", workloads.KINDS)
def test_abs_check_rejects_broken_properties(kind):
    n = 400
    xs = checks.grid_points()
    op = {"op": "grid", "fn": "abs", "kind": kind, "n": n, "q": 1.0, "beta": 1.0}
    good = _abs_output(kind, n, xs)
    assert checks.check_grid_op(op, good) == []
    far = np.abs(xs) > 1.0
    assert checks.check_grid_op(op, np.where(far, good + 1e-8, good))  # affine piece not reproduced
    assert checks.check_grid_op(op, np.where(far, good, -1e-6))  # negative near the kink
    assert checks.check_grid_op(op, good + 0.2)  # beyond the first-order bound


def test_basic_abs_check_rejects_odd_part():
    xs = checks.grid_points()
    op = {"op": "grid", "fn": "abs", "kind": "basic", "n": 100, "q": 1.0, "beta": 1.0}
    good = _abs_output("basic", 100, xs)
    near = np.abs(xs) < 0.2
    assert checks.check_grid_op(op, np.where(near, good + 1e-6 * xs, good))


def test_pointwise_checks_reject_wrong_values():
    ops = workloads.pointwise_ops(seed=7)
    values = []
    for op in ops:
        if op["op"] == "apply" and op["fn"] == "sin":
            values.append(float(checks.sin_output(op["kind"], op["n"], op["q"], op["beta"], op["x"])))
        elif op["op"] == "apply":
            values.append(float(_abs_output(op["kind"], op["n"], np.array(op["x"]))))
        elif op["op"] == "derivative":
            values.append(float(checks.sin_output(op["kind"], op["n"], op["q"], op["beta"], op["x"],
                                                  op["k"] * math.pi / 2)))
        elif op["op"] == "moment":
            values.append(float(checks.central_moment(op["kind"], op["n"], op["q"], op["beta"], op["k"])))
        else:
            values.append([1.0, True])
    assert checks.check_pointwise(ops, values) == []

    def corrupt(kind_op, replace, index=None):
        i = index if index is not None else next(
            i for i, op in enumerate(ops) if op["op"] == kind_op and op.get("fn", "sin") == "sin")
        bad = list(values)
        bad[i] = replace(ops[i])
        return checks.check_pointwise(ops, bad)

    assert corrupt("apply", lambda op: float(_shifted_sin(op["kind"], op["n"], 1.0, 1.0, op["x"])))
    assert corrupt("derivative", lambda op: float(checks.sin_output(op["kind"], op["n"], 1.0, 1.0, op["x"])))
    # the moment at n + 1 and nothing else: kantorovich k = 4 at the largest drawn n, q = beta = 1
    top = max(op["n"] for op in ops if op["op"] == "moment")
    i4 = next(i for i, op in enumerate(ops) if op["op"] == "moment" and op["kind"] == "kantorovich"
              and op["k"] == 4 and op["n"] == top and op["q"] == 1.0)
    assert corrupt("moment", lambda op: float(checks.central_moment(op["kind"], op["n"] + 1, op["q"], op["beta"],
                                                                     op["k"])), index=i4)
    assert corrupt("normalization", lambda op: [1.0, False])
    assert corrupt("normalization", lambda op: [1.0 + 1e-9, True])
    # a failed operation (no value) is reported by run.py; the checks skip it
    assert corrupt("apply", lambda op: None) == []


def test_unexpected_failures_fail_the_run():
    ops = workloads.grid_highres_ops()
    ok = [{"status": "ok"}] * len(ops)
    expected = ok[:-1] + [{"status": "failed", "error": "QuadratureNonConvergedError"}]
    assert run.outcome_failures("grid-highres", ops, expected) == (1, [])
    other = ok[:-1] + [{"status": "failed", "error": "MemoryError"}]
    assert run.outcome_failures("grid-highres", ops, other)[1]
    early = [{"status": "failed", "error": "QuadratureNonConvergedError"}] + ok[1:]
    assert run.outcome_failures("grid-highres", ops, early)[1]


def test_psi_hat_is_the_characteristic_function():
    mp.mp.dps = 30
    for q, beta in ((1.0, 1.0), (2.0, 0.5), (0.5, 2.0)):
        for w in (1.0 / 9, 1.0 / 49, 0.7):
            numeric = 2 * oracle._half_line(mp.mpf(q), mp.mpf(beta),
                                            lambda h: mp.cos(w * h) * oracle._psi(mp.mpf(q), mp.mpf(beta), h))
            assert abs(numeric - checks.psi_hat(w, q, beta)) < 1e-13


def test_tail_mass_matches_quadrature():
    mp.mp.dps = 30
    for q, beta, m in ((1.0, 1.0, 3.0), (2.0, 0.5, 4.0)):
        numeric = 2 * mp.quad(lambda h: oracle._psi(mp.mpf(q), mp.mpf(beta), h), [m, m + 10, m + 100, mp.inf])
        assert abs(numeric - checks.tail_mass(q, beta, m)) < mp.mpf(10) ** -25


def test_stored_moments_match_closed_form():
    stored = oracle.load()
    mp.mp.dps = oracle.DIGITS
    for (q, beta), moments in stored.items():
        for k, want in zip((0, 2, 4), oracle.closed_form_even_moments(q, beta)):
            assert abs(moments["raw"][k] - want) < mp.mpf(10) ** -30 * max(1, abs(want))


def test_importtime_parser_counts_outermost_scipy_imports():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |     scipy._lib",
        "import time:         5 |          5 |       numpy.linalg",
        "import time:        20 |         25 |     scipy.sparse",
        "import time:       100 |        135 |   scipy",
        "import time:        40 |        175 | scipy.optimize",
        "import time:         7 |          7 | click",
        "import time:         3 |          3 |   scipy.special",
        "import time:         9 |         12 | actconv.operators",
    ])
    assert run.scipy_cumulative_us(log) == 175 + 3


def test_benchmark_json_lists_the_printed_metrics():
    bench = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER

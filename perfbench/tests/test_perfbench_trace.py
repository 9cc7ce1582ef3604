"""The tracer reaches every binding, and traced counts repeat exactly.

    python3 -m pytest -q perfbench/tests
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402

# metrics that count work; they must not depend on timing
COUNTS = ("calls", "points", "panels", "subdivisions", "artifact_bytes")


def test_install_wraps_every_binding_and_uninstall_restores():
    import numpy as np

    import actconv
    from actconv import analysis, cli, kernel, operators

    originals = (operators.apply_on_grid, cli.apply_on_grid, analysis.apply_on_grid, actconv.apply_on_grid,
                 cli.iterate_operator, kernel.psi)
    t = tracer.Tracer()
    t.install()
    try:
        wrapped = (operators.apply_on_grid, cli.apply_on_grid, analysis.apply_on_grid, actconv.apply_on_grid)
        assert all(w is wrapped[0] for w in wrapped) and wrapped[0] is not originals[0]
        assert cli.iterate_operator is operators.iterate is not originals[4]
        spec = operators.OperatorSpec("basic", 9, kernel.KernelParams())
        analysis.run_convergence_sweep(analysis.get_test_function("sin"), "basic", [9], 0.5, kernel.KernelParams(),
                                       analysis.MeasurementGrid.uniform(count=41))
        operators.apply(analysis.get_test_function("sin"), spec, 0.3)
    finally:
        t.uninstall()
    assert (operators.apply_on_grid, cli.apply_on_grid, analysis.apply_on_grid, actconv.apply_on_grid,
            cli.iterate_operator, kernel.psi) == originals
    summary = t.summary()
    assert summary["operators.apply_on_grid.calls"] == 1
    assert summary["operators.apply_on_grid.points"] == 41
    assert 0 < summary["operators.apply_on_grid.panels"] < summary["kernel.psi.calls"]
    assert summary["quadrature.integrate_interval.calls"] == 1
    assert summary["analysis.run_convergence_sweep.total_s"] >= summary["operators.apply_on_grid.total_s"] > 0
    assert np.isclose(summary["bounds.total_s"],
                      summary["bounds.omega_argument.total_s"] + summary["bounds.jackson_bound.total_s"])


def test_hook_time_is_deducted_from_enclosing_spans():
    t = tracer.Tracer()
    inner = t.wrap("inner", lambda: None, after=lambda result: time.sleep(0.05))
    outer = t.wrap("outer", inner)
    outer()
    summary = t.summary()
    assert summary["outer.total_s"] < 0.02 and summary["outer.self_s"] < 0.02

def _traced_counts(workload):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    return {name: m["value"] for name, m in result["metrics"].items() if name.rsplit(".", 1)[-1] in COUNTS}


@pytest.mark.parametrize("workload", ["pointwise-scalar", "cli-defaults"])
def test_traced_counts_repeat_exactly(workload):
    first = _traced_counts(workload)
    assert first == _traced_counts(workload)
    assert any(first.values())

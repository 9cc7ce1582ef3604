"""actconv benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload {cli-defaults,grid-highres,pointwise-scalar}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (the program is imported from
src/).  A run repeats whole rounds until S seconds have passed (but starts
no round expected to end after 1.5 S); each round
starts fresh interpreters one at a time (one per CLI verb, otherwise one
per round) and runs the workload's operations in a fixed order.  Each
round's outputs are checked against closed forms and mpmath values
(checks.py), never against the program's own earlier output.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
setup_s (median over the run's set-ups), wall_s (mean over its rounds),
both scaled to a host of nominal speed by the workers' numpy import time,
and peak_rss_mb (median over its rounds); with --trace 1
the run adds one untraced round for the tracing overhead, then reports
the per-layer metrics of its traced rounds (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "runs"
# every run reports the median of at least this many set-ups
MIN_SETUPS = 6
# seconds to import numpy in a fresh worker on a host of nominal speed (the
# machine in README.md takes this long in its fast spells); set-up and wall
# times are reported as on such a host
NOMINAL_NUMPY_IMPORT_S = 0.055
# when the host slows, a workload's time grows as the numpy import time to
# this power (measured across two changes of the host's speed, README.md)
SETUP_EXPONENT = 0.85
WALL_EXPONENT = {"cli-defaults": 0.7, "grid-highres": 0.6, "pointwise-scalar": 1.0}
# no round is started that is expected to end after this many times --seconds
ROUND_LIMIT = 1.5
IMPORTTIME_SAMPLES = 3
WORKER_TIMEOUT_S = 150

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# per-layer metrics and their units; every one is printed in a traced run
PER_LAYER = {
    "setup.import_s": "s",
    "setup.import.scipy_s": "s",
    "kernel.psi.calls": "count",
    "kernel.psi.points": "count",
    "kernel.psi.useful_ratio": "ratio",
    "kernel.psi.self_s": "s",
    "kernel.psi.points_per_s": "1/s",
    "quadrature.integrate_interval.calls": "count",
    "quadrature.integrate_interval.subdivisions": "count",
    "quadrature.integrate_interval.self_s": "s",
    "operators.apply_on_grid.calls": "count",
    "operators.apply_on_grid.points": "count",
    "operators.apply_on_grid.panels": "count",
    "operators.apply_on_grid.self_s": "s",
    "operators.apply_on_grid.total_s": "s",
    "operators.apply.total_s": "s",
    "operators.central_moment.total_s": "s",
    "operators.make_grid_approximant.total_s": "s",
    "operators.GridApproximant.eval_s": "s",
    "analysis.run_convergence_sweep.self_s": "s",
    "bounds.total_s": "s",
    **{f"cli.{label}.total_s": "s" for label, _ in workloads.CLI_VERBS},
    "cli.self_s": "s",
    "cli.artifact_bytes": "bytes",
    "svgplot.render_loglog.total_s": "s",
    "process.minflt": "count",
    "process.sys_s": "s",
    "process.user_s": "s",
    "operators.apply_on_grid.grid2001_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class WorkerError(RuntimeError):
    """A worker process crashed or timed out; the run cannot continue."""


def worker_env(out_dir: Path | None = None) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    if out_dir is not None:
        env["ACTCONV_OUT"] = str(out_dir)
    return env


def run_worker(workdir: Path, workload: str, seed: int, *, verb=None, trace=False, setup_only=False,
               out_dir=None) -> dict:
    workdir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--outdir", str(workdir)]
    if verb:
        cmd += ["--verb", verb]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, env=worker_env(out_dir), cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker timed out after {exc.timeout} s: {' '.join(cmd)}") from None
    result_path = workdir / "result.json"
    if proc.returncode != 0 or not result_path.is_file():
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise WorkerError(f"worker exited with {proc.returncode}: {' '.join(cmd)}\n{tail}")
    return json.loads(result_path.read_text())


def snapshot(directory: Path) -> dict:
    return {p.name: (p.stat().st_size, p.stat().st_mtime_ns) for p in directory.iterdir() if p.is_file()}


def written_bytes(before: dict, after: dict) -> int:
    return sum(size for name, (size, mtime) in after.items() if before.get(name) != (size, mtime))


def outcome_failures(workload: str, ops: list[dict], outcomes: list[dict]) -> tuple[int, list[str]]:
    """(number of failed operations, check failures) for one worker's operations.

    A failure is acceptable only where EXPECTED_FAILURES names it; any other
    failed operation is a check failure too.
    """
    failed, fails = 0, []
    for i, (op, outcome) in enumerate(zip(ops, outcomes)):
        if outcome["status"] == "ok":
            continue
        failed += 1
        expected = workloads.EXPECTED_FAILURES.get((workload, i))
        if outcome.get("error") != expected:
            fails.append(f"operation {i} {op} failed: {outcome.get('error')} {outcome.get('message', '')}")
    return failed, fails


def run_round(workload: str, seed: int, round_dir: Path, trace: bool) -> dict:
    """One pass over the workload's operations; returns timings, counts and failures."""
    ops = workloads.ops_for(workload, seed)
    workers, fails, failed, artifact_bytes = [], [], 0, 0
    if workload == "cli-defaults":
        out = round_dir / "out"
        out.mkdir(parents=True)
        for op in ops:
            before = snapshot(out)
            res = run_worker(round_dir / op["label"], workload, seed, verb=op["label"], trace=trace, out_dir=out)
            artifact_bytes += written_bytes(before, snapshot(out))
            n_failed, op_fails = outcome_failures(workload, [op], res["outcomes"])
            failed += n_failed
            fails += op_fails or checks.check_cli_verb(op["label"], out)
            workers.append(res)
        wall = sum(r["wall_s"] for r in workers)
    else:
        res = run_worker(round_dir / "ops", workload, seed, trace=trace)
        workers.append(res)
        failed, fails = outcome_failures(workload, ops, res["outcomes"])
        arrays_path = round_dir / "ops" / "arrays.npz"
        arrays = dict(np.load(arrays_path)) if arrays_path.is_file() else {}
        if workload == "grid-highres":
            for i, (op, outcome) in enumerate(zip(ops, res["outcomes"])):
                if outcome["status"] == "ok":
                    fails += checks.check_grid_op(op, arrays[str(i)])
        else:
            fails += checks.check_pointwise(ops, res["values"])
        wall = res["wall_s"]
    return {
        "workers": workers,
        "attempted": len(ops),
        "failed": failed,
        "fails": fails,
        "wall_s": wall,
        "peak_rss_mb": max(r["maxrss_kb"] for r in workers) / 1024.0,
        "artifact_bytes": artifact_bytes,
    }


def scipy_cumulative_us(importtime_log: str) -> int:
    """Sum of cumulative microseconds of scipy imports not nested in another scipy import."""
    # lines come children first ("import time: self | cumulative | <indent>name");
    # reversed, every module precedes the modules it imported
    entries = []
    for line in importtime_log.splitlines():
        if line.startswith("import time:") and "cumulative" not in line:
            _, cumulative, name = line.split("|")
            entries.append(((len(name) - len(name.lstrip())) // 2, name.strip(), int(cumulative)))
    total, stack = 0, []  # stack: (depth, inside a scipy import)
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside:
            total += cumulative
        stack.append((depth, inside or is_scipy))
    return total


def scipy_import_s() -> float:
    """Cumulative import time of the top-level scipy imports made by actconv.cli."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import actconv.cli"], env=worker_env(),
                          cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise WorkerError(f"-X importtime run failed:\n{proc.stderr[-2000:]}")
    return scipy_cumulative_us(proc.stderr) / 1e6


def per_layer_metrics(traced: list[dict], untraced: list[dict], setups: list[float], scipy: list[float]) -> dict:
    def med(values):
        return statistics.median(values) if values else 0.0

    summed = []
    for rnd in traced:
        acc: dict[str, float] = {}
        for res in rnd["workers"]:
            for key, value in res.get("trace", {}).items():
                acc[key] = acc.get(key, 0.0) + value
        acc["cli.artifact_bytes"] = rnd["artifact_bytes"]
        acc["cli.self_s"] = sum(acc.get(f"cli.{label}.self_s", 0.0) for label, _ in workloads.CLI_VERBS)
        acc["operators.GridApproximant.eval_s"] = acc.get("operators.GridApproximant.eval.total_s", 0.0)
        points, self_s = acc.get("kernel.psi.points", 0.0), acc.get("kernel.psi.self_s", 0.0)
        acc["kernel.psi.useful_ratio"] = acc.get("kernel.psi.useful", 0.0) / points if points else 0.0
        acc["kernel.psi.points_per_s"] = points / self_s if self_s else 0.0
        summed.append(acc)
    metrics = {name: med([acc.get(name, 0.0) for acc in summed]) for name in PER_LAYER}
    for key in ("minflt", "sys_s", "user_s"):
        metrics[f"process.{key}"] = med([sum(r["process"][key] for r in rnd["workers"]) for rnd in untraced])
    metrics["setup.import_s"] = med(setups)
    metrics["setup.import.scipy_s"] = med(scipy)
    metrics["trace.overhead_s"] = med([r["wall_s"] for r in traced]) - med([r["wall_s"] for r in untraced])
    metrics["trace.wall_s"] = med([r["wall_s"] for r in traced])
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="actconv benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "actconv" / "cli.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'actconv'}; run from a source checkout",
              file=sys.stderr)
        return 2

    # turn SIGTERM into SystemExit, so subprocess.run kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    run_dir = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        return measure(args, run_dir)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(args, run_dir: Path) -> int:
    untraced, traced = [], []
    start = time.perf_counter()
    index = 0
    while True:
        trace_this = bool(args.trace) and index > 0  # a traced run starts with one untraced round
        rnd = run_round(args.workload, args.seed, run_dir / f"round{index}", trace_this)
        (traced if trace_this else untraced).append(rnd)
        index += 1
        elapsed = time.perf_counter() - start
        if traced or not args.trace:
            # stop after S seconds, or before a round expected to end after 1.5 S
            if elapsed >= args.seconds or elapsed * (index + 1) / index > ROUND_LIMIT * args.seconds:
                break
    rounds = untraced + traced
    setups = [r["setup_s"] for rnd in rounds for r in rnd["workers"]]
    imports = [r["import_s"] for rnd in rounds for r in rnd["workers"]]
    numpy_imports = [r["numpy_import_s"] for rnd in rounds for r in rnd["workers"]]
    # set-up-only workers do what a round's workers do before their first operation
    verbs = [label for label, _ in workloads.CLI_VERBS] if args.workload == "cli-defaults" else [None]
    extra = 0
    while len(setups) < MIN_SETUPS:
        res = run_worker(run_dir / f"setup{extra}", args.workload, args.seed, verb=verbs[extra % len(verbs)],
                         setup_only=True)
        setups.append(res["setup_s"])
        imports.append(res["import_s"])
        numpy_imports.append(res["numpy_import_s"])
        extra += 1

    fails = [f for rnd in rounds for f in rnd["fails"]]
    attempted = sum(rnd["attempted"] for rnd in rounds)
    failed = sum(rnd["failed"] for rnd in rounds)
    if args.trace:
        scipy = [scipy_import_s() for _ in range(IMPORTTIME_SAMPLES)]
        metrics = per_layer_metrics(traced, untraced, imports, scipy)
        units = PER_LAYER
        trace_file = RUNS / f"trace-{args.workload}-seed{args.seed}.json"
        spans = {
            res_dir.name: json.loads((res_dir / "spans.json").read_text())
            for res_dir in sorted((run_dir / f"round{index - 1}").glob("*"))
            if (res_dir / "spans.json").is_file()
        }
        trace_file.write_text(json.dumps({"metrics": metrics, "last_round_spans": spans}))
    else:
        # the host runs at one speed or up to 2.5 times slower, in spells of
        # seconds to many minutes; importing numpy slows with it and does not
        # depend on the program (README.md, Host speed)
        speed = NOMINAL_NUMPY_IMPORT_S / statistics.median(numpy_imports)
        metrics = {
            "setup_s": statistics.median(setups) * speed**SETUP_EXPONENT,
            # the mean: the host's slow spells last about a second to a minute, and
            # only the whole measured time averages them (README.md, Steadiness)
            "wall_s": statistics.fmean(r["wall_s"] for r in untraced) * speed**WALL_EXPONENT[args.workload],
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        }
        units = END_TO_END

    blas = {r.get("blas_threads") for rnd in rounds for r in rnd["workers"]}
    print(f"# workload={args.workload} seed={args.seed} rounds={len(rounds)} "
          f"blas_threads={sorted(blas, key=str)} nproc={os.cpu_count()} "
          f"round_wall_s={[round(r['wall_s'], 3) for r in rounds]} setup_s={[round(s, 3) for s in setups]} "
          f"numpy_import_s={[round(s, 4) for s in numpy_imports]}",
          file=sys.stderr)
    for fail in fails[:50]:
        print(f"CHECK FAILED: {fail}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    result = {
        "correct": not fails,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not fails else 1


if __name__ == "__main__":
    sys.exit(main())

"""One fresh interpreter's share of a benchmark round.

Run by perfbench/run.py, never imported by it:

    python3 perfbench/worker.py --workload W --seed S --outdir D [--verb LABEL] [--trace] [--setup-only]

Set-up (timed) is importing actconv.cli plus building the workload's
inputs.  The operations then run once, in a fixed order, and the worker
writes D/result.json (timings, rusage, outcomes, scalar results),
D/arrays.npz (grid results) and, when traced, D/spans.json.  Results are
kept in memory until the last operation has run, so nothing else touches
the allocator between operations.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

import workloads


def _rusage() -> dict:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return {"minflt": r.ru_minflt, "user_s": r.ru_utime, "sys_s": r.ru_stime, "maxrss_kb": r.ru_maxrss}


def blas_threads():
    """OpenBLAS thread count of the numpy in use, or None if not found."""
    import ctypes
    import glob
    import os

    import numpy

    site = os.path.dirname(os.path.dirname(numpy.__file__))
    for path in glob.glob(os.path.join(site, "numpy.libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def build_calls(ops: list[dict]) -> list[tuple]:
    """(module, function name, args) per operation.

    The function is looked up on its module at call time, so a traced run
    calls the tracer's wrapper.
    """
    import numpy as np

    from actconv import kernel, operators, quadrature
    from actconv.analysis import get_test_function

    fns = {name: get_test_function(name) for name in ("sin", "abs")}
    xs = np.linspace(*workloads.GRID)
    specs: dict[tuple, object] = {}

    def spec_for(op):
        key = (op["kind"], op["n"], op["q"], op["beta"])
        if key not in specs:
            specs[key] = operators.OperatorSpec(
                kind=op["kind"], n=op["n"], params=kernel.KernelParams(op["q"], op["beta"]),
                alpha=workloads.DEFAULT_ALPHA, weights=workloads.weights_for(op["kind"]),
            )
        return specs[key]

    calls = []
    for op in ops:
        kind = op["op"]
        if kind == "grid":
            calls.append((operators, "apply_on_grid", (fns[op["fn"]], spec_for(op), xs)))
        elif kind == "apply":
            calls.append((operators, "apply", (fns[op["fn"]], spec_for(op), op["x"])))
        elif kind == "derivative":
            calls.append((operators, "apply_derivative", (fns[op["fn"]], spec_for(op), op["k"], op["x"])))
        elif kind == "moment":
            calls.append((operators, "central_moment", (spec_for(op), 0.0, op["k"])))
        elif kind == "normalization":
            params = kernel.KernelParams(op["q"], op["beta"])

            def density(h, _p=params):
                return kernel.psi(_p, h)

            calls.append((quadrature, "integrate_real_line", (density, quadrature.TailEnvelope(params))))
        else:
            raise ValueError(f"unknown operation {kind!r}")
    return calls


def _plain(value):
    """JSON form of an operation's result; arrays go to arrays.npz instead."""
    if hasattr(value, "converged"):  # IntegralResult
        return [value.value, value.converged]
    if isinstance(value, float):
        return value
    return None


def run_ops(calls) -> tuple[list[dict], list]:
    outcomes, results = [], []
    for module, name, args in calls:
        start = time.perf_counter()
        try:
            value = getattr(module, name)(*args)
            outcome = {"status": "ok"}
        except Exception as exc:  # an operation's failure is part of the measurement
            value = None
            outcome = {"status": "failed", "error": type(exc).__name__, "message": str(exc)}
        outcome["seconds"] = time.perf_counter() - start
        outcomes.append(outcome)
        results.append(value)
    return outcomes, results


def run_verb(argv: list[str], tracer, label: str) -> dict:
    from actconv import cli

    def invoke():
        return cli.main.main(args=argv, prog_name="actconv", standalone_mode=False)

    start = time.perf_counter()
    try:
        code = tracer.wrap(f"cli.{label}", invoke)() if tracer else invoke()
        outcome = {"status": "ok" if not code else "failed", "error": f"exit code {code}" if code else ""}
    except Exception as exc:  # click errors and crashes are a failed verb
        outcome = {"status": "failed", "error": type(exc).__name__, "message": str(exc)}
    outcome["seconds"] = time.perf_counter() - start
    return outcome


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--outdir", required=True, type=Path)
    parser.add_argument("--verb", help="cli-defaults: the verb label to run")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    # numpy first, timed on its own: it does not depend on the program, and
    # run.py uses it as the measure of the host's speed (README.md, Host speed)
    import numpy  # noqa: F401

    t_numpy = time.perf_counter()
    import actconv.cli  # noqa: F401  (the set-up every invocation pays)

    t1 = time.perf_counter()
    ops = workloads.ops_for(args.workload, args.seed)
    if args.workload == "cli-defaults":
        verb = {op["label"]: op["argv"] for op in ops}[args.verb]
        calls = None
    else:
        calls = build_calls(ops)
    t2 = time.perf_counter()
    result = {"numpy_import_s": t_numpy - t0, "import_s": t1 - t0, "setup_s": t2 - t0}

    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        before = _rusage()
        start = time.perf_counter()
        if calls is None:
            outcomes, values = [run_verb(verb, tracer, args.verb)], [None]
        else:
            outcomes, values = run_ops(calls)
        wall = time.perf_counter() - start
        after = _rusage()
        if tracer is not None:
            tracer.uninstall()
            result["trace"] = tracer.summary()
            (args.outdir / "spans.json").write_text(json.dumps(tracer.spans))
        result.update(
            wall_s=wall,
            outcomes=outcomes,
            values=[_plain(v) for v in values],
            process={key: after[key] - before[key] for key in ("minflt", "user_s", "sys_s")},
        )
        arrays = {str(i): v for i, v in enumerate(values) if v is not None and _plain(v) is None}
        if arrays:
            import numpy as np

            np.savez(args.outdir / "arrays.npz", **arrays)
    result["maxrss_kb"] = _rusage()["maxrss_kb"]
    result["blas_threads"] = blas_threads()
    (args.outdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    # everything is written: skip the interpreter's teardown (about 0.2 s a worker)
    os._exit(code)

"""Grid-engine work of three-kind sin calls on the default grid over a
sweep of kernels, for comparing kernel-width rules between source trees.

For q in {1e-3, 1, 31.6}, 27 beta log-spaced over [0.05, 20] and n in
{9, 100} (162 calls per tol), it counts the lattice K15 (panel, point)
terms, the row-path (panel, point) rows, the lattice rounds that miss
tolerance or are refused (per kind), and the lattice passes after a
call's first (second rounds), at tol 1e-8, 1e-10 and 1e-12, and prints
them as JSON:

    PYTHONPATH=src python3 scripts/width_sweep.py

Work is the K15 terms plus 15 times the rows (each row takes 15 kernel
values).  Run it on two checkouts to compare them.
"""

import json

import numpy as np

from actconv import CATALOG, KernelParams, QuadratureConfig, operators
from actconv.operators import OperatorKind, OperatorSpec


def sweep(cfg: QuadratureConfig) -> dict:
    counts = {"terms": 0, "rows": 0, "missed": 0, "refused": 0, "second": 0}
    passes = [0]  # lattice passes of the current call
    contract, evaluate, lattice = operators._contract, operators._evaluate, operators._lattice

    def counted_contract(weighted, table):
        acc = contract(weighted, table)
        if weighted.shape[2] == 15:  # the K15 contraction, not the G7 one
            counts["terms"] += acc.size
        return acc

    def counted_evaluate(*args):
        panels = evaluate(*args)
        counts["rows"] += panels.values.size
        return panels

    def counted_lattice(f, specs, *args):
        outs = lattice(f, specs, *args)
        passes[0] += 1
        counts["second"] += passes[0] > 1
        # a refused pass is None, or a None per kind in older trees
        if outs is None or all(out is None for out in outs):
            counts["refused"] += len(specs)
        else:
            counts["missed"] += sum(float(out[1].max()) > cfg.allowance(float(np.abs(out[0]).max())) for out in outs)
        return outs

    operators._contract, operators._evaluate, operators._lattice = counted_contract, counted_evaluate, counted_lattice
    try:
        xs = np.linspace(-3.0, 3.0, 2001)
        for q in (1e-3, 1.0, 31.6):
            for beta in np.geomspace(0.05, 20.0, 27).tolist():
                params = KernelParams(q, beta)
                for n in (9, 100):
                    specs = [OperatorSpec(OperatorKind.BASIC, n, params), OperatorSpec(OperatorKind.KANTOROVICH, n, params),
                             OperatorSpec(OperatorKind.QUADRATURE, n, params, weights=(0.25, 0.25, 0.25, 0.25))]
                    passes[0] = 0
                    operators.apply_on_grid(CATALOG["sin"], specs, xs, cfg)
    finally:
        operators._contract, operators._evaluate, operators._lattice = contract, evaluate, lattice
    counts["work"] = counts["terms"] + 15 * counts["rows"]
    return counts


if __name__ == "__main__":
    print(json.dumps({f"{tol:g}": sweep(QuadratureConfig(tol)) for tol in (1e-8, 1e-10, 1e-12)}, indent=1))

"""In-memory spans and counts around the program's public functions.

The tracer replaces each traced function at every module attribute that is
bound to it (``cli`` and ``analysis`` import functions by name, so patching
the defining module alone would miss their calls).  Nothing in the program
is edited; spans are kept in a list and written out when the worker ends.
The time of the tracer's own counting hooks is recorded in every span that
encloses them and deducted from its self and total time.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# module -> public functions to wrap; spans are named "<module>.<function>"
TRACED = {
    "kernel": ("nu", "g", "psi", "psi_envelope", "tail_mass_bound", "moment_bound"),
    "quadrature": ("truncation_radius", "moment_truncation_radius", "integrate_interval", "integrate_real_line"),
    "operators": (
        "apply", "apply_basic", "apply_kantorovich", "apply_quadrature_kind", "apply_on_grid",
        "apply_derivative", "central_moment", "make_grid_approximant", "iterate", "compose_mixed",
    ),
    "bounds": (
        "omega_argument", "jackson_bound", "central_moment_bound", "taylor_bound",
        "iterated_bound", "mixed_iterated_bound",
    ),
    "analysis": (
        "estimate_modulus", "sup_error", "run_convergence_sweep", "check_smoothness_preservation", "fit_rate",
    ),
    "svgplot": ("render_loglog",),
}

# kernel values below this contribute nothing at double precision
USEFUL_KERNEL_VALUE = 1e-16
DEFAULT_GRID_POINTS = 2001


class Tracer:
    """Spans as [name, start, end, parent index, hook seconds]; counts by metric name."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._open: dict[str, int] = defaultdict(int)
        self._grid_sizes: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn, before=None, after=None):
        spans, stack, open_names = self.spans, self._stack, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                self._run_hook(before, args, kwargs)
            index = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, 0.0])
            stack.append(index)
            open_names[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                open_names[name] -= 1
                stack.pop()
                spans[index][2] = perf_counter()
            if after is not None:
                self._run_hook(after, result)
            return result

        return traced

    def _run_hook(self, hook, *args):
        """Run a counting hook and charge its time to every open span."""
        start = perf_counter()
        hook(*args)
        spent = perf_counter() - start
        for index in self._stack:
            self.spans[index][4] += spent

    # -- counting hooks -------------------------------------------------

    def _psi_after(self, result):
        values = np.asarray(result)
        c = self.counts
        c["kernel.psi.calls"] += 1
        c["kernel.psi.points"] += values.size
        c["kernel.psi.useful"] += int(np.count_nonzero(values >= USEFUL_KERNEL_VALUE))
        if self._open["operators.apply_on_grid"]:
            c["operators.apply_on_grid.panels"] += 1

    def _grid_before(self, args, kwargs):
        xs = args[2] if len(args) > 2 else kwargs["xs"]
        self.counts["operators.apply_on_grid.calls"] += 1
        self.counts["operators.apply_on_grid.points"] += np.size(xs)
        self._grid_sizes.append(int(np.size(xs)))

    def _interval_after(self, result):
        self.counts["quadrature.integrate_interval.calls"] += 1
        self.counts["quadrature.integrate_interval.subdivisions"] += result.subdivisions_used

    # -- installation ---------------------------------------------------

    def install(self):
        """Wrap every traced function at every actconv binding of it."""
        import actconv.operators

        hooks = {
            "kernel.psi": (None, self._psi_after),
            "operators.apply_on_grid": (self._grid_before, None),
            "quadrature.integrate_interval": (None, self._interval_after),
        }
        replacements = {}
        for module_name, names in TRACED.items():
            module = sys.modules[f"actconv.{module_name}"]
            for fname in names:
                original = getattr(module, fname)
                label = f"{module_name}.{fname}"
                before, after = hooks.get(label, (None, None))
                replacements[id(original)] = (original, self.wrap(label, original, before, after))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "actconv" and not mod_name.startswith("actconv."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._undo.append((module, attr, value))
        approximant = actconv.operators.GridApproximant
        original_call = approximant.__call__
        approximant.__call__ = self.wrap("operators.GridApproximant.eval", original_call)
        self._undo.append((approximant, "__call__", original_call))

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- aggregation ----------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-name self and total seconds plus counts.

        A span's duration leaves out the time of the hooks run inside it.
        ``total`` counts a span only when no ancestor has the same name (or,
        for ``bounds``, no ancestor is a bounds function), so re-entry is not
        counted twice.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, hooks in spans:
            if parent >= 0:
                child[parent] += end - start - hooks
        out: dict[str, float] = defaultdict(float)
        grid_sizes = iter(self._grid_sizes)
        for i, (name, start, end, parent, hooks) in enumerate(spans):
            duration = end - start - hooks
            if name == "operators.apply_on_grid" and next(grid_sizes) == DEFAULT_GRID_POINTS:
                out["operators.apply_on_grid.grid2001_s"] += duration
            out[f"{name}.self_s"] += duration - child[i]
            group = "bounds" if name.startswith("bounds.") else name
            outermost = True
            p = parent
            while p >= 0:
                pname = spans[p][0]
                if pname == name or (group == "bounds" and pname.startswith("bounds.")):
                    outermost = False
                    break
                p = spans[p][3]
            if outermost:
                out[f"{name}.total_s"] += duration
                if group == "bounds":
                    out["bounds.total_s"] += duration
        out.update(self.counts)
        return dict(out)

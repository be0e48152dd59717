"""Spans and work counts recorded around the package's public entry points.

The benchmark does not edit the package.  For the length of one traced
repetition it replaces each measured function or method with a wrapper, at
every name the package looks it up by, and restores the originals
afterwards.  A wrapper records a span (layer name, start, end, the span that
caused it) and adds the call's work to the counters.

Layers and the entry points wrapped for them:

    config.build_instance   nonlin_eig.config.build_instance
    grid.build_stencil      nonlin_eig.grid.build_stencil
    plaplace.init           PLaplaceInstance.__init__
    plaplace.apply          PLaplaceInstance.neg_plaplacian
    plaplace.energy         PLaplaceInstance.dirichlet_energy
    plaplace.jacobian       PLaplaceInstance.jacobian_matrix
    newton.solve            newton.solve_p_poisson, newton.solve_prox
    newton.cg               newton.cg_solve
    linsolve                scipy.sparse.linalg.cg and .spsolve, the
                            solvers the package calls
    eigensolvers            eigensolvers.run_ipm / run_ppm /
                            run_balanced_ipm / run_geometric
    metrics                 the five metrics.* diagnostics
    cli.run                 cli.cmd_run

newton.damped_newton gets no span; its residual callback is counted so
that trial steps, backtracks and accepted steps are known.  A missing entry
point stops the run, so that a renamed one cannot read as a layer that takes
no time.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
from collections import Counter

import numpy as np
import scipy.sparse.linalg

SCIPY_SOLVERS = ("cg", "spsolve")
METRIC_FUNCTIONS = ("rayleigh_quotient", "dual_rayleigh_quotient",
                    "cosine_similarity", "duality_gap", "eigen_residual")
SCHEMES = ("run_ipm", "run_ppm", "run_balanced_ipm", "run_geometric")

# Per-layer metrics of one traced repetition: name -> (unit, better).
# Every metric whose unit is not "s" must repeat exactly between traced
# repetitions of the same inputs.
LAYER_METRICS = {
    "config.build_instance.calls": ("count", "lower"),
    "config.build_instance_s": ("s", "lower"),
    "config.build_instance.self_s": ("s", "lower"),
    "grid.build_stencil.calls": ("count", "lower"),
    "grid.build_stencil_s": ("s", "lower"),
    "plaplace.init.calls": ("count", "lower"),
    "plaplace.init_s": ("s", "lower"),
    "plaplace.apply.calls": ("count", "lower"),
    "plaplace.apply.s": ("s", "lower"),
    "plaplace.apply.edge_evals": ("count", "lower"),
    "plaplace.energy.calls": ("count", "lower"),
    "plaplace.energy.s": ("s", "lower"),
    "plaplace.jacobian.calls": ("count", "lower"),
    "plaplace.jacobian.s": ("s", "lower"),
    "plaplace.jacobian.nnz": ("count", "lower"),
    "newton.solves": ("count", "lower"),
    "newton.solve.s": ("s", "lower"),
    "newton.solve.self_s": ("s", "lower"),
    "newton.steps": ("count", "lower"),
    "newton.unconverged": ("count", "lower"),
    "newton.residual_evals": ("count", "lower"),
    "newton.backtracks": ("count", "lower"),
    "newton.step_accept_ratio": ("1", "higher"),
    "newton.inner_residual_max": ("1", "lower"),
    "newton.cg.calls": ("count", "lower"),
    "newton.cg.s": ("s", "lower"),
    "newton.cg.self_s": ("s", "lower"),
    "newton.cg.iters": ("count", "lower"),
    "newton.cg.unconverged": ("count", "lower"),
    "eigensolvers.calls": ("count", "lower"),
    "eigensolvers.outer_steps": ("count", "lower"),
    "eigensolvers.s": ("s", "lower"),
    "eigensolvers.step_s": ("s", "lower"),
    "eigensolvers.self_s": ("s", "lower"),
    "eigensolvers.balanced.solves_per_step": ("1", "lower"),
    "eigensolvers.balanced.fallback_steps": ("count", "lower"),
    "eigensolvers.geometric.linsolve.calls": ("count", "lower"),
    "eigensolvers.geometric.linsolve.s": ("s", "lower"),
    "metrics.calls": ("count", "lower"),
    "metrics.s": ("s", "lower"),
    "metrics.self_s": ("s", "lower"),
    "metrics.eigen_residual.calls": ("count", "lower"),
    "cli.write_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "tag")

    def __init__(self, name, parent, tag):
        self.name = name
        self.parent = parent
        self.tag = tag
        self.start = self.end = 0.0


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "nonlin_eig"
                                  or name.startswith("nonlin_eig."))]


def replace_everywhere(patches, fn, wrapper, extra_owners=()):
    """Bind wrapper at every package-level name (and extra owner) that
    currently holds fn."""
    for owner in [*_package_modules(), *extra_owners]:
        for attr, value in list(vars(owner).items()):
            if value is fn:
                patches.replace(owner, attr, wrapper)


def _lookup(owner, attr):
    fn = vars(owner).get(attr)
    if fn is None:
        raise SystemExit(f"perfbench: {owner.__name__}.{attr} not found; "
                         "update perfbench/tracer.py to the package")
    return fn


def _max_abs(r):
    return float(np.max(np.abs(r))) if np.size(r) else 0.0


class Tracer:
    """Spans and counters of one traced repetition."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.counts = Counter()
        self.step_times: list[float] = []
        self.inner_residuals: list[float] = []

    # --- recording ------------------------------------------------------------

    def _wrap(self, name, fn, after=None, tag=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, tag)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def install(self, patches):
        from nonlin_eig import cli, config, eigensolvers, grid, metrics, newton
        from nonlin_eig.plaplace import PLaplaceInstance
        counts = self.counts

        def funcs(module, attrs, name, after=None, extra=()):
            for attr in attrs:
                fn = _lookup(module, attr)
                wrapper = self._wrap(name, fn, after, tag=attr)
                replace_everywhere(patches, fn, wrapper, extra)

        def method(attr, name, after=None):
            fn = _lookup(PLaplaceInstance, attr)
            patches.replace(PLaplaceInstance, attr,
                            self._wrap(name, fn, after))

        def apply_done(args, result):
            inst = args[0]
            counts["plaplace.apply.edge_evals"] += \
                inst.n_interior * len(inst.stencil.offsets)

        def jacobian_done(args, result):
            counts["plaplace.jacobian.nnz"] += int(result.nnz)

        def solve_done(args, result):
            report = result[1]
            counts["newton.steps"] += int(report.iterations)
            counts["newton.unconverged"] += not report.converged
            self.inner_residuals.append(float(report.final_residual))

        def cg_done(args, result):
            A, b, rtol = args[0], args[1], args[2]
            x, iters = result
            counts["newton.cg.iters"] += int(iters)
            bn = float(np.linalg.norm(b))
            rn = float(np.linalg.norm(b - A @ x))
            if (rn > rtol * bn) if bn > 0.0 else (rn > 0.0):
                counts["newton.cg.unconverged"] += 1

        def scheme_done(args, result):
            counts["eigensolvers.outer_steps"] += len(result.records)
            self.step_times.extend(r.wall_time for r in result.records)
            if result.solver_tag == "balanced":
                counts["eigensolvers.balanced.outer_steps"] += \
                    len(result.records)
                counts["eigensolvers.balanced.fallback_steps"] += \
                    len(result.extras["fallback_steps"])

        funcs(config, ("build_instance",), "config.build_instance")
        funcs(grid, ("build_stencil",), "grid.build_stencil")
        method("__init__", "plaplace.init")
        method("neg_plaplacian", "plaplace.apply", apply_done)
        method("dirichlet_energy", "plaplace.energy")
        method("jacobian_matrix", "plaplace.jacobian", jacobian_done)
        funcs(newton, ("solve_p_poisson", "solve_prox"), "newton.solve",
              solve_done)
        funcs(newton, ("cg_solve",), "newton.cg", cg_done)
        funcs(scipy.sparse.linalg, SCIPY_SOLVERS, "linsolve",
              extra=(scipy.sparse.linalg,))
        funcs(eigensolvers, SCHEMES, "eigensolvers", scheme_done)
        funcs(metrics, METRIC_FUNCTIONS, "metrics")
        funcs(cli, ("cmd_run",), "cli.run")

        loop = _lookup(newton, "damped_newton")
        replace_everywhere(patches, loop, self._count_newton_loop(loop))

    def _count_newton_loop(self, fn):
        counts = self.counts

        def wrapper(x0, residual_fn, *args, **kwargs):
            best = [math.inf]

            def counted(x):
                r = residual_fn(x)
                rn = _max_abs(r)
                counts["newton.residual_evals"] += 1
                # The loop accepts a trial step when it lowers the residual
                # max-norm; the first evaluation is the starting point.
                if rn < best[0]:
                    counts["newton.accepted_steps"] += best[0] < math.inf
                    best[0] = rn
                return r

            counts["newton.loop_calls"] += 1
            return fn(x0, counted, *args, **kwargs)
        return wrapper

    # --- aggregation ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer metrics of the repetition (see LAYER_METRICS)."""
        spans, counts = self.spans, self.counts
        child = [0.0] * len(spans)
        for s in spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start

        def ancestors(i):
            i = spans[i].parent
            while i >= 0:
                yield spans[i]
                i = spans[i].parent

        calls, total, self_s = Counter(), Counter(), Counter()
        linsolve_calls, linsolve_s, balanced_solves = 0, 0.0, 0
        cli_write = 0.0
        last_scheme_end = {}
        for i, s in enumerate(spans):
            dur = s.end - s.start
            calls[s.name] += 1
            self_s[s.name] += dur - child[i]
            names = [a.name for a in ancestors(i)]
            if s.name not in names:
                total[s.name] += dur
            if s.name == "linsolve" and "newton.cg" not in names:
                linsolve_calls += 1
                linsolve_s += dur
            if s.name == "newton.solve":
                scheme = next((a for a in ancestors(i)
                               if a.name == "eigensolvers"), None)
                balanced_solves += scheme is not None \
                    and scheme.tag == "run_balanced_ipm"
            if s.name == "eigensolvers" and s.parent >= 0 \
                    and spans[s.parent].name == "cli.run":
                last_scheme_end[s.parent] = s.end
        for i, end in last_scheme_end.items():
            cli_write += spans[i].end - end

        balanced_steps = counts["eigensolvers.balanced.outer_steps"]
        trials = counts["newton.residual_evals"] - counts["newton.loop_calls"]
        return {
            "config.build_instance.calls": calls["config.build_instance"],
            "config.build_instance_s": total["config.build_instance"],
            "config.build_instance.self_s": self_s["config.build_instance"],
            "grid.build_stencil.calls": calls["grid.build_stencil"],
            "grid.build_stencil_s": total["grid.build_stencil"],
            "plaplace.init.calls": calls["plaplace.init"],
            "plaplace.init_s": total["plaplace.init"],
            "plaplace.apply.calls": calls["plaplace.apply"],
            "plaplace.apply.s": total["plaplace.apply"],
            "plaplace.apply.edge_evals": counts["plaplace.apply.edge_evals"],
            "plaplace.energy.calls": calls["plaplace.energy"],
            "plaplace.energy.s": total["plaplace.energy"],
            "plaplace.jacobian.calls": calls["plaplace.jacobian"],
            "plaplace.jacobian.s": total["plaplace.jacobian"],
            "plaplace.jacobian.nnz": counts["plaplace.jacobian.nnz"],
            "newton.solves": calls["newton.solve"],
            "newton.solve.s": total["newton.solve"],
            "newton.solve.self_s": self_s["newton.solve"],
            "newton.steps": counts["newton.steps"],
            "newton.unconverged": counts["newton.unconverged"],
            "newton.residual_evals": counts["newton.residual_evals"],
            "newton.backtracks": (trials - counts["newton.steps"]
                                  if counts["newton.loop_calls"] else 0),
            "newton.step_accept_ratio": (counts["newton.accepted_steps"]
                                         / trials if trials else 0.0),
            "newton.inner_residual_max": max(self.inner_residuals,
                                             default=0.0),
            "newton.cg.calls": calls["newton.cg"],
            "newton.cg.s": total["newton.cg"],
            "newton.cg.self_s": self_s["newton.cg"],
            "newton.cg.iters": counts["newton.cg.iters"],
            "newton.cg.unconverged": counts["newton.cg.unconverged"],
            "eigensolvers.calls": calls["eigensolvers"],
            "eigensolvers.outer_steps": counts["eigensolvers.outer_steps"],
            "eigensolvers.s": total["eigensolvers"],
            "eigensolvers.step_s": (statistics.median(self.step_times)
                                    if self.step_times else 0.0),
            "eigensolvers.self_s": self_s["eigensolvers"],
            "eigensolvers.balanced.solves_per_step": (
                balanced_solves / balanced_steps if balanced_steps else 0.0),
            "eigensolvers.balanced.fallback_steps":
                counts["eigensolvers.balanced.fallback_steps"],
            "eigensolvers.geometric.linsolve.calls": linsolve_calls,
            "eigensolvers.geometric.linsolve.s": linsolve_s,
            "metrics.calls": calls["metrics"],
            "metrics.s": total["metrics"],
            "metrics.self_s": self_s["metrics"],
            "metrics.eigen_residual.calls": sum(
                1 for s in spans if s.tag == "eigen_residual"),
            "cli.write_s": cli_write,
            "trace.spans": len(spans),
        }

"""The benchmark under perfbench/ drives the package from outside: its
tracer wraps the package's entry points by name, and its workloads write
configs that the package must accept.  A rename, or a config key the
package stops reading, is caught here rather than by a failed benchmark."""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from nonlin_eig import cli, config, eigensolvers, metrics
from nonlin_eig.functional import SolveReport
from nonlin_eig.grid import build_domain, eval_initial_guess
from nonlin_eig.plaplace import PLaplaceInstance

ROOT = Path(__file__).resolve().parents[1]


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_entry_points():
    tracer = load_perfbench("tracer")
    run_ipm, eigen_residual = eigensolvers.run_ipm, metrics.eigen_residual
    patches = tracer.Patches()
    try:
        tracer.Tracer().install(patches)
        assert eigensolvers.run_ipm is not run_ipm
        assert metrics.eigen_residual is not eigen_residual
    finally:
        patches.restore()
    assert eigensolvers.run_ipm is run_ipm
    assert metrics.eigen_residual is eigen_residual


def test_tracer_sees_one_stencil_build_inside_the_instance():
    # the instance builds its own stencil, through the name the tracer wraps
    tracer_module = load_perfbench("tracer")
    tracer, patches = tracer_module.Tracer(), tracer_module.Patches()
    domain = build_domain("square", 2.0, 0.1)
    try:
        tracer.install(patches)
        PLaplaceInstance(domain, 0.25, 3.0)
    finally:
        patches.restore()
    builds = [s for s in tracer.spans if s.name == "grid.build_stencil"]
    assert len(builds) == 1
    assert tracer.spans[builds[0].parent].name == "plaplace.init"


def traced(run):
    """(the tracer's per-layer metrics, the trace) of run() under the
    benchmark's tracer."""
    tracer_module = load_perfbench("tracer")
    tracer, patches = tracer_module.Tracer(), tracer_module.Patches()
    try:
        tracer.install(patches)
        trace = run()
    finally:
        patches.restore()
    return tracer.summary(), trace


def test_tracer_counts_match_the_ledger(small_grid):
    # the balanced scheme's bordered solves run two CG solves per Newton
    # step, and the default IPM loosens all but its last inner solve; the
    # tracer and the trace's ledger must both see the same work
    def counts_match(layers, trace):
        work = sum((rec.inner for rec in trace.records), SolveReport())
        return (layers["newton.cg.iters"] == work.cg_iterations_total
                and layers["newton.steps"] == work.iterations)

    u0 = eval_initial_guess("ex2", small_grid.domain).values
    layers, trace = traced(
        lambda: eigensolvers.run_balanced_ipm(small_grid, u0, 4))
    assert counts_match(layers, trace)
    assert layers["newton.cg.calls"] > layers["newton.solves"] > 0
    # every balanced step is one traced Newton solve
    assert layers["newton.solves"] == len(trace.records)
    assert layers["eigensolvers.balanced.fallback_steps"] == 0

    # the 19x19 L-shape at p = 5 stalls at step 0 on a refused root, which
    # the tracer counts from the trace's fallback_steps
    dom = build_domain("lshape", 2.0, 0.1)
    inst = PLaplaceInstance(dom, 0.25, 5.0)
    layers, trace = traced(lambda: eigensolvers.run_balanced_ipm(
        inst, eval_initial_guess("ex2", dom).values, 6))
    assert counts_match(layers, trace)
    assert trace.stop_reason == "stalled"
    assert layers["newton.solves"] == len(trace.records) == 1
    assert layers["eigensolvers.balanced.fallback_steps"] == 1

    u0 = eval_initial_guess("ex1", small_grid.domain).values
    layers, trace = traced(lambda: eigensolvers.run_ipm(small_grid, u0, 5))
    assert counts_match(layers, trace)
    assert layers["newton.solves"] == len(trace.records) == 5
    tolerances = trace.extras["inner_tolerances"]
    assert tolerances[0] > tolerances[-1]

    # every prox solve of the PPM is a step's: its eigenvalue is recovered
    # from the last step's lambda_tau, with no solve after the loop
    layers, trace = traced(
        lambda: eigensolvers.run_ppm(small_grid, u0, 0.5, 3))
    assert counts_match(layers, trace)
    assert layers["newton.solves"] == len(trace.records) == 3

    # the IPM and the PPM, 4 steps from the ex2 start on either side of
    # p = 2: the Newton-CG path at p = 3, the primal-dual one at p = 1.5.
    # The geometric scheme is left out until ROADMAP item 1 step B: the
    # tracer counts Newton steps only inside solve_p_poisson and
    # solve_prox spans, so it reads none of the polish's
    u0 = eval_initial_guess("ex2", small_grid.domain).values
    for p in (3.0, 1.5):
        inst = PLaplaceInstance(small_grid.domain, 0.25, p)
        for run in (lambda: eigensolvers.run_ipm(inst, u0, 4),
                    lambda: eigensolvers.run_ppm(inst, u0, 0.5, 4)):
            layers, trace = traced(run)
            assert counts_match(layers, trace)
            assert layers["newton.solves"] == len(trace.records) == 4
            assert layers["newton.steps"] > 0


def test_balanced_workload_takes_the_bordered_path(tmp_path):
    # the benchmark's ex2-square-p3-balanced run at seed 0, 4 steps on the
    # 99x99 square: every step roots its balance by one bordered solve,
    # and lambda keeps the workload's reference
    workloads = load_perfbench("workloads")
    workload = workloads.WORKLOADS["ex2-square-p3-balanced"]
    cfg = config.load_config(
        workloads.write_inputs(workload, ROOT, 0, tmp_path))
    pair, u0, _ = config.build_instance(cfg)
    trace = eigensolvers.run_balanced_ipm(pair, u0, cfg.solver["iters"],
                                          cfg.newton)
    assert len(trace.records) == 4
    assert all(rec.inner.iterations > 0 for rec in trace.records)
    assert trace.extras["fallback_steps"] == []
    assert trace.final_lambda == pytest.approx(
        workload.references["balanced"], rel=1e-9)
    # 1014 CG iterations with the border column warm-started and the first
    # Newton step forced, 1575 before: a ceiling 5% above
    assert sum(rec.inner.cg_iterations_total for rec in trace.records) \
        <= 1.05 * 1014


def test_benchmark_reads_back_a_cli_run(tmp_path):
    # the benchmark reads a CLI run's run.json, metrics.csv and final.csv
    # back through its own reader: an output format it cannot parse fails
    # here rather than in the benchmark
    workloads = load_perfbench("workloads")
    path = tmp_path / "ipm.json"
    path.write_text(json.dumps({
        "problem": {"kind": "plaplace", "shape": "square", "side": 2.0,
                    "h": 0.1, "r": 0.25, "p": 3.0},
        "initial": {"kind": "ex1"},
        "solver": {"kind": "ipm", "iters": 2},
        "output": {"dir": str(tmp_path / "out")}}))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["run", str(path)]) == 0
    cfg = config.load_config(path)
    pair, u0, _ = config.build_instance(cfg)
    out = workloads._read_outputs({"out": tmp_path / "out"}, pair)
    trace = eigensolvers.run_ipm(pair, u0, 2, cfg.newton)
    assert out.lambdas == {"ipm": trace.final_lambda}
    assert out.stop_reasons == {"ipm": "max_iter"}
    assert out.dual_rq == {"ipm": [rec.dual_rq for rec in trace.records]}
    assert out.final_u["ipm"][pair.domain.interior_mask] \
        == pytest.approx(trace.final_u, rel=1e-12)


def test_workload_configs_load_and_build(tmp_path):
    workloads = load_perfbench("workloads")
    for name, workload in workloads.WORKLOADS.items():
        work = tmp_path / name
        work.mkdir()
        path = workloads.write_inputs(workload, ROOT, 0, work)
        config.build_instance(config.load_config(path))


@pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.json")),
                         ids=lambda p: p.name)
def test_bundled_config_describes(path):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["describe", str(path)]) == 0

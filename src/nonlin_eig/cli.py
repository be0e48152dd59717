"""Command line entry point.

    nonlin-eig run <config.json> [--out DIR]
    nonlin-eig validate [--scale quick|full]
    nonlin-eig describe <config.json>

Exit codes: 0 success, 1 validation/config error, 2 invariant failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import eigensolvers, metrics, validation
from .config import ExperimentConfig, build_instance, load_config
from .grid import ConfigError, GridFunction, save_snapshot


def _run_solver(pair, u0, cfg: ExperimentConfig, snapshot_cb):
    solver = cfg.solver
    kind = solver["kind"]
    iters = solver["iters"]
    residual_tol = solver.get("residual_tol")
    if kind == "ipm":
        return eigensolvers.run_ipm(pair, u0, iters, cfg.newton,
                                    residual_tol=residual_tol,
                                    snapshot_cb=snapshot_cb)
    if kind == "ppm":
        return eigensolvers.run_ppm(pair, u0, solver["tau"], iters, cfg.newton,
                                    residual_tol=residual_tol,
                                    snapshot_cb=snapshot_cb)
    if kind == "balanced":
        return eigensolvers.run_balanced_ipm(pair, u0, iters, cfg.newton,
                                             snapshot_cb=snapshot_cb)
    return eigensolvers.run_geometric(pair, u0, iters,
                                      snapshot_cb=snapshot_cb)


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    pair, u0, resolved = build_instance(cfg)
    out_dir = Path(args.out or cfg.output["dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    snapshot_every = cfg.output["snapshot_every"]
    solver_kind = cfg.solver["kind"]

    def snapshot_cb(k, u):
        if snapshot_every and k % snapshot_every == 0:
            save_snapshot(out_dir / f"{solver_kind}_iter{k}.csv",
                          GridFunction(pair.lift_free(u), pair.domain))

    trace = _run_solver(pair, u0, cfg, snapshot_cb)

    metrics.records_to_csv(trace.records, out_dir / "metrics.csv")
    save_snapshot(out_dir / "final.csv",
                  GridFunction(pair.lift_free(trace.final_u), pair.domain))
    run_info = {
        "config": resolved,
        "output_dir": str(out_dir),
        "solver_tag": trace.solver_tag,
        "converged": trace.converged,
        "stop_reason": trace.stop_reason,
        "final_lambda": trace.final_lambda,
        "extras": trace.extras,  # lists and scalars only, in every scheme
    }
    (out_dir / "run.json").write_text(json.dumps(run_info, indent=2))
    print(f"{trace.solver_tag}: {len(trace.records)} iterations, "
          f"lambda = {trace.final_lambda:.10g}, stop_reason = {trace.stop_reason}")
    return 0


def cmd_describe(args) -> int:
    cfg = load_config(args.config)
    _, _, resolved = build_instance(cfg)
    print(json.dumps(resolved, indent=2))
    return 0


def cmd_validate(args) -> int:
    return 0 if validation.run_suite(scale=args.scale) else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="nonlin-eig",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="override output directory")
    p_run.set_defaults(fn=cmd_run)

    p_val = sub.add_parser("validate", help="run the invariant suite")
    p_val.add_argument("--scale", choices=("quick", "full"), default="quick")
    p_val.set_defaults(fn=cmd_validate)

    p_desc = sub.add_parser("describe", help="print resolved parameters")
    p_desc.add_argument("config")
    p_desc.set_defaults(fn=cmd_describe)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

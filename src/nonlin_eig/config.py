"""Experiment configuration: JSON schema, validation, and instantiation."""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .grid import ConfigError, build_domain, eval_initial_guess, load_snapshot
from .newton import NewtonSettings
from .plaplace import EPSILON, PLaplaceInstance

SOLVERS = ("ipm", "ppm", "balanced", "geometric")

# The keys each section may hold (None: the top level); any other key is
# rejected, so that a misspelled one does not fall back to its default.
KEYS = {
    None: ("problem", "initial", "solver", "newton", "output"),
    "problem": ("kind", "p", "shape", "h", "side", "r", "r_rule"),
    "initial": ("kind", "path"),
    "solver": ("kind", "iters", "tau", "residual_tol"),
    "newton": tuple(f.name for f in fields(NewtonSettings)),
    "output": ("dir", "snapshot_every"),
}
R_RULE_KEYS = {"h_pow": ("type", "exponent"), "consistency": ("type",)}
# The solver kinds that read each key; any other kind rejects it.  ipm keeps
# solver.tau, the one key left that nothing reads, for a later PPM run from
# the same config, as the benchmark's p = 1.5 IPM-then-PPM workload does.
READ_BY = {"newton": ("ipm", "ppm", "balanced"), "solver.tau": ("ipm", "ppm"),
           "solver.residual_tol": ("ipm", "ppm")}


@dataclass
class ExperimentConfig:
    problem: dict
    initial: dict
    solver: dict
    newton: NewtonSettings
    output: dict


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


def _number(value, kind=(int, float)):
    """A JSON number of the given Python type that a float holds finitely
    (json also parses NaN, Infinity and 1e400); true and false are not."""
    return isinstance(value, kind) and not isinstance(value, bool) \
        and abs(value) <= sys.float_info.max


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    return parse_config(raw)


def parse_config(raw: dict) -> ExperimentConfig:
    """Check raw, and fill its defaults into copies of its sections."""
    _require(isinstance(raw, dict), "config must be a JSON object")
    for name, allowed in KEYS.items():
        section = raw if name is None else raw.get(name, {})
        _require(isinstance(section, dict),
                 f"config section {name} must be a JSON object")
        for key in section:
            _require(key in allowed, "unknown config key "
                     + (key if name is None else f"{name}.{key}"))
    for key in ("problem", "solver"):
        _require(key in raw, f"missing config section {key!r}")
    problem = raw["problem"]
    _require(problem.get("kind") == "plaplace",
             f"problem.kind must be plaplace, got {problem.get('kind')!r}")
    _require(_number(problem.get("p")) and problem["p"] > 1,
             "problem.p must be a real > 1")
    _require(problem.get("shape") in ("square", "lshape"),
             "problem.shape must be square or lshape")
    for key in ("h", "side") + (("r",) if "r" in problem else ()):
        _require(_number(problem.get(key)) and problem[key] > 0,
                 f"problem.{key} must be a positive number")
    _require(("r" in problem) != ("r_rule" in problem),
             "problem needs exactly one of problem.r and problem.r_rule")
    if "r_rule" in problem:
        rule = problem["r_rule"]
        _require(isinstance(rule, dict), "problem.r_rule must be an object")
        _require(rule.get("type") in tuple(R_RULE_KEYS),  # a list is unhashable
                 f"unknown r_rule type {rule.get('type')!r}")
        for key in rule:
            _require(key in R_RULE_KEYS[rule["type"]],
                     f"unknown config key problem.r_rule.{key}")
        _require(rule["type"] != "h_pow" or (_number(rule.get("exponent"))
                                             and rule["exponent"] > 0),
                 "problem.r_rule.exponent must be a positive number")

    solver = {"iters": 30, **raw["solver"]}
    _require(solver.get("kind") in SOLVERS,
             f"solver.kind must be one of {SOLVERS}")
    for name, kinds in READ_BY.items():
        section, _, key = name.rpartition(".")
        _require(key not in (raw[section] if section else raw)
                 or solver["kind"] in kinds,
                 f"{name} does not apply to solver.kind {solver['kind']}")
    _require(_number(solver["iters"], int) and solver["iters"] >= 1,
             "solver.iters must be an integer >= 1")
    tol = solver.get("residual_tol", 1.0)
    _require(_number(tol) and tol > 0, "solver.residual_tol must be a positive number")
    if solver["kind"] == "ppm" or "tau" in solver:
        tau = solver.get("tau")
        _require(_number(tau) and tau > 0, "solver.tau must be a positive number")

    newton_raw = raw.get("newton", {})
    for key, kind in (("tol_abs", (int, float)), ("max_iter", int)):
        _require(key not in newton_raw or _number(newton_raw[key], kind),
                 f"newton.{key} must be "
                 + ("an integer" if kind is int else "a number"))
    newton = NewtonSettings(**newton_raw)

    initial = raw.get("initial", {"kind": "ex1"})
    _require(initial.get("kind") in ("ex1", "ex2", "file"),
             "initial.kind must be ex1, ex2 or file")
    _require(initial["kind"] != "file" or isinstance(initial.get("path"), str),
             "initial.path must name a CSV file")
    _require(initial["kind"] == "file" or "path" not in initial,
             "initial.path applies to initial.kind file only")

    output = {"dir": "runs/latest", "snapshot_every": 0, **raw.get("output", {})}
    _require(isinstance(output["dir"], str), "output.dir must be a string")
    _require(_number(output["snapshot_every"], int) and output["snapshot_every"] >= 0,
             "output.snapshot_every must be an integer >= 0")
    return ExperimentConfig(problem=problem, initial=initial, solver=solver,
                            newton=newton, output=output)


def resolve_radius(problem: dict) -> float:
    """The fixed r, or h^exponent by the r_rule ('consistency': h = r^1.6)."""
    if "r" in problem:
        return float(problem["r"])
    return float(problem["h"]) ** float(problem["r_rule"].get("exponent", 1.0 / 1.6))


def build_instance(cfg: ExperimentConfig):
    """Instantiate the grid p-Laplacian pair and its start from a config.

    The start is the field ex1 or ex2, or a CSV snapshot on the config's
    lattice.  Returns (pair, u0, resolved) where resolved echoes every
    derived parameter for run.json: the radius, node counts, and the fixed
    D_{2,p} (mean_value_constant) and smoothing epsilon, and the Newton
    settings for the solver kinds that read them (READ_BY["newton"]).  An
    SPD problem (functional.SpdInstance) runs through the library, not
    from a config.
    """
    problem = cfg.problem
    p, r = float(problem["p"]), resolve_radius(problem)
    domain = build_domain(problem["shape"], float(problem["side"]),
                          float(problem["h"]))
    pair = PLaplaceInstance(domain, r, p)
    init = cfg.initial
    if init["kind"] == "file":
        u0 = load_snapshot(init["path"], domain).values
    else:
        u0 = eval_initial_guess(init["kind"], domain).values
    newton = {"newton": asdict(cfg.newton)} \
        if cfg.solver["kind"] in READ_BY["newton"] else {}
    resolved = {
        "problem": dict(problem), "solver": dict(cfg.solver), **newton,
        "r": r, "d2p": pair.d2p, "epsilon": EPSILON,
        "stencil_offsets": int(len(pair.stencil.offsets)),
        "stencil_weight": pair.weight,
        "nx": domain.nx, "ny": domain.ny,
        "n_interior": domain.n_interior,
    }
    return pair, u0, resolved

"""Experiment configuration: JSON schema, validation, and instantiation."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .functional import SpdInstance
from .grid import ConfigError, build_domain, build_stencil, eval_initial_guess, \
    load_snapshot
from .newton import NewtonSettings
from .plaplace import PLaplaceInstance

SOLVERS = ("ipm", "ppm", "balanced", "geometric")

# The keys each section may hold (None: the top level); any other key is
# rejected, so that a misspelled one does not fall back to its default.
KEYS = {
    None: ("problem", "initial", "solver", "newton", "output"),
    "problem": ("kind", "p", "shape", "h", "side", "r", "r_rule", "matrix"),
    "initial": ("kind", "path", "vector"),
    "solver": ("kind", "iters", "tau", "residual_tol"),
    "newton": tuple(f.name for f in fields(NewtonSettings)),
    "output": ("dir", "snapshot_every"),
}


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
    """A JSON number of the given Python type; true and false are not."""
    return isinstance(value, kind) and not isinstance(value, bool)


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    return parse_config(raw)


def parse_config(raw: dict) -> ExperimentConfig:
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
    kind = problem.get("kind")
    _require(kind in ("spd", "plaplace"), f"problem.kind must be spd or plaplace, got {kind!r}")
    if kind == "plaplace":
        p = problem.get("p")
        _require(_number(p) and p > 1, "problem.p must be a real > 1")
        _require(problem.get("shape") in ("square", "lshape"),
                 "problem.shape must be square or lshape")
        for key in ("h", "side") + (("r",) if "r" in problem else ()):
            _require(_number(problem.get(key)) and problem[key] > 0,
                     f"problem.{key} must be a positive number")
        _require("r" in problem or "r_rule" in problem,
                 "problem needs either r or r_rule")
        rule = problem.get("r_rule", {"type": "consistency"})
        _require(isinstance(rule, dict), "problem.r_rule must be an object")
        _require(rule.get("type") in ("h_pow", "consistency"),
                 f"unknown r_rule type {rule.get('type')!r}")
        _require(rule["type"] != "h_pow" or (_number(rule.get("exponent"))
                                             and rule["exponent"] > 0),
                 "problem.r_rule.exponent must be a positive number")
    else:
        _require("matrix" in problem, "spd problem needs a matrix literal")

    solver = raw["solver"]
    _require(solver.get("kind") in SOLVERS,
             f"solver.kind must be one of {SOLVERS}")
    iters = solver.get("iters", 30)
    _require(_number(iters, int) and iters >= 1, "solver.iters must be an integer >= 1")
    _require(solver["kind"] in ("ipm", "ppm") or "residual_tol" not in solver,
             "solver.residual_tol applies to ipm and ppm only")
    _require(solver["kind"] != "balanced" or kind == "plaplace",
             "solver.kind balanced needs a plaplace problem")
    tol = solver.get("residual_tol", 1.0)
    _require(_number(tol) and tol > 0, "solver.residual_tol must be a positive number")
    if solver.get("kind") == "ppm" or "tau" in solver:
        tau = solver.get("tau")
        _require(_number(tau) and tau > 0, "solver.tau must be a positive number")

    newton_raw = raw.get("newton", {})
    newton_kw = {f.name: newton_raw.get(f.name, f.default)
                 for f in fields(NewtonSettings)}
    for key, value in newton_kw.items():
        kind = int if key.endswith("max_iter") else (int, float)
        _require(_number(value, kind) or (key == "cg_max_iter" and value is None),
                 f"newton.{key} must be {'an integer' if kind is int else 'a number'}")
    newton = NewtonSettings(**newton_kw)

    initial = raw.get("initial", {"kind": "ex1"})
    _require(initial.get("kind") in ("ex1", "ex2", "file"),
             "initial.kind must be ex1, ex2 or file")
    _require(initial["kind"] != "file" or isinstance(initial.get("path"), str),
             "initial.path must name a CSV file")

    output = raw.get("output", {})
    _require(isinstance(output.get("dir", ""), str), "output.dir must be a string")
    every = output.get("snapshot_every", 0)
    _require(_number(every, int) and every >= 0,
             "output.snapshot_every must be an integer >= 0")
    return ExperimentConfig(problem=problem, initial=initial, solver=solver,
                            newton=newton, output=output)


def resolve_radius(problem: dict) -> float:
    """Apply the r_rule if present; 'consistency' uses h = r^1.6."""
    if "r" in problem:
        return float(problem["r"])
    rule = problem["r_rule"]
    exponent = rule["exponent"] if rule["type"] == "h_pow" else 1.0 / 1.6
    return float(problem["h"]) ** float(exponent)


def build_instance(cfg: ExperimentConfig):
    """Instantiate the functional pair and initial vector from a config.

    The start is the SPD problem's initial.vector (all ones by default),
    the grid field ex1 or ex2, or a CSV file.  Returns (pair, u0, resolved)
    where resolved echoes every derived parameter for run.json: the radius,
    node counts, and the fixed D_{2,p} (mean_value_constant) and
    smoothing epsilon of the grid pair.
    """
    problem = cfg.problem
    resolved = {"problem": dict(problem), "solver": dict(cfg.solver),
                "newton": asdict(cfg.newton)}
    if problem["kind"] == "spd":
        pair = SpdInstance(problem["matrix"])
        init = cfg.initial
        if init["kind"] == "file":
            u0 = np.loadtxt(init["path"], delimiter=",", ndmin=1)
            _require(u0.shape == (pair.n,),
                     f"initial.path must hold {pair.n} numbers")
        else:
            vector = init.get("vector", [1.0] * pair.n)
            _require(isinstance(vector, list) and len(vector) == pair.n
                     and all(map(_number, vector)),
                     f"initial.vector must hold {pair.n} numbers")
            u0 = np.array(vector, dtype=float)
        resolved["n"] = pair.n
        return pair, u0, resolved

    p = float(problem["p"])
    h = float(problem["h"])
    side = float(problem["side"])
    r = resolve_radius(problem)
    _require(r >= h, f"resolved radius r={r} < h={h}")
    domain = build_domain(problem["shape"], side, h)
    stencil = build_stencil(domain, r, p)
    pair = PLaplaceInstance(domain, stencil, p)
    init = cfg.initial
    if init["kind"] == "file":
        u0 = load_snapshot(init["path"], domain).values
    else:
        u0 = eval_initial_guess(init["kind"], domain).values
    resolved.update({
        "r": r, "d2p": stencil.d2p, "epsilon": pair.epsilon,
        "stencil_offsets": int(len(stencil.offsets)),
        "stencil_weight": stencil.weight,
        "nx": domain.nx, "ny": domain.ny,
        "n_interior": domain.n_interior,
    })
    return pair, u0, resolved

"""Nonlinear eigenproblems of convex p-homogeneous functionals via duality.

Library + CLI implementing four iterative eigensolvers (inverse power
method, proximal power method, balanced inverse iteration, cosine-ascent
scheme) on an SPD quadratic pair and a 2-D grid p-Laplacian discretized by
mean-value finite differences.
"""

from .functional import (FunctionalPair, SolveReport, SpdInstance,
                         fenchel_conjugate_value, power_map)
from .grid import (ConfigError, GridDomain, GridFunction, Stencil,
                   build_domain, build_stencil, eval_initial_guess,
                   load_snapshot, mean_value_constant, save_snapshot)
from .plaplace import PLaplaceInstance
from .newton import NewtonSettings, solve_p_poisson, solve_prox
from .metrics import (IterationRecord, cosine_similarity, duality_gap,
                      dual_rayleigh_quotient, eigen_residual,
                      rayleigh_quotient)
from .eigensolvers import (EigenTrace, run_balanced_ipm, run_geometric,
                           run_ipm, run_ppm)
from .config import ExperimentConfig, build_instance, load_config, parse_config

__all__ = [
    "FunctionalPair", "SolveReport", "SpdInstance",
    "fenchel_conjugate_value", "power_map",
    "ConfigError", "GridDomain", "GridFunction", "Stencil", "build_domain",
    "build_stencil", "eval_initial_guess", "load_snapshot",
    "mean_value_constant", "save_snapshot",
    "PLaplaceInstance",
    "NewtonSettings", "solve_p_poisson", "solve_prox",
    "IterationRecord", "cosine_similarity", "duality_gap",
    "dual_rayleigh_quotient", "eigen_residual", "rayleigh_quotient",
    "EigenTrace", "run_balanced_ipm", "run_geometric", "run_ipm", "run_ppm",
    "ExperimentConfig", "build_instance", "load_config", "parse_config",
]

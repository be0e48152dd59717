"""Scalar diagnostics: primal/dual Rayleigh quotients, cosine similarity,
duality gap, and the l2 eigen-residual, plus the per-iteration record."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .functional import FunctionalPair, SolveReport, fenchel_conjugate_value
from .grid import rewrite


@dataclass
class IterationRecord:
    k: int
    rq: float
    dual_rq: float | None
    cosim: float
    gap: float
    residual: float
    inner: SolveReport  # the step's inner solves, summed if several
    wall_time: float


# metrics.csv column -> the field of the record's SolveReport it holds
REPORT_COLUMNS = {"inner_iters": "iterations", "jacobians": "jacobians",
                  "residual_evals": "residual_evals",
                  "backtracks": "backtracks",
                  "inner_residual": "final_residual",
                  "inner_converged": "converged",
                  "cg_iterations": "cg_iterations_total",
                  "cg_unconverged": "cg_unconverged"}
# columns are only appended, so that readers of a prefix keep working;
# inner_iters, the first report column, keeps its place before wall_time
CSV_HEADER = ["iter", "rq", "dual_rq", "cosim", "gap", "residual",
              "inner_iters", "wall_time", *list(REPORT_COLUMNS)[1:]]


def records_to_csv(records: list[IterationRecord], path) -> None:
    with rewrite(path) as f:
        w = csv.DictWriter(f, CSV_HEADER)
        w.writeheader()
        for r in records:
            w.writerow({"iter": r.k, "rq": r.rq,
                        "dual_rq": r.dual_rq,  # None writes ""
                        "cosim": r.cosim, "gap": r.gap,
                        "residual": r.residual, "wall_time": r.wall_time,
                        **{col: getattr(r.inner, name)
                           for col, name in REPORT_COLUMNS.items()}})


def rayleigh_quotient(pair: FunctionalPair, u) -> float:
    """R(u) = J(u) / H(u)."""
    Hu = pair.H(u)
    if Hu <= 0.0:
        raise ValueError("Rayleigh quotient undefined at u = 0")
    return pair.energy_J(u) / Hu


def dual_rayleigh_quotient(pair: FunctionalPair, zeta, v, Jv) -> float:
    """R*(zeta) = J*(zeta) / H*(zeta), J* through v in dJ*(zeta), Jv = J(v)."""
    nz = pair.dual_norm_H(zeta)
    if nz <= 0.0:
        raise ValueError("dual Rayleigh quotient undefined at zeta = 0")
    Hstar = nz ** pair.q / pair.q
    return fenchel_conjugate_value(pair, zeta, v, Jv) / Hstar


def cosine_similarity(pair: FunctionalPair, u, zeta) -> float:
    """<zeta, u> / (|u|_H |zeta|_{H*})."""
    nu = pair.norm_H(u)
    nz = pair.dual_norm_H(zeta)
    if nu <= 0.0 or nz <= 0.0:
        raise ValueError("cosine similarity undefined at zero input")
    return pair.pairing(zeta, u) / (nu * nz)


def duality_gap(pair: FunctionalPair, rq: float, dual_rq: float) -> float:
    """g(u, zeta) = R(u)^(-1/p) - sign(J*(zeta)) |R*(zeta)|^(1/q) for
    rq = R(u) and dual_rq = R*(zeta).

    Zero exactly at primal-dual eigenpairs when zeta in dJ(u); for
    p-homogeneous J it equals (1-cosim) R^(-1/p).
    """
    return float(rq ** (-1.0 / pair.p)
                 - np.sign(dual_rq) * abs(dual_rq) ** (1.0 / pair.q))


def eigen_residual(pair: FunctionalPair, u, zeta=None) -> float:
    """l2 norm of the normalized eigenproblem defect.

    || zeta/|zeta|_q - eta/|eta|_q ||_2 with zeta = dJ(u), eta = dH(u);
    the outer norm is plain Euclidean over the vector's entries (no volume
    weight), the inner normalizations use the weighted dual norm.  zeta is
    evaluated here unless the caller passes dJ(u).
    """
    if zeta is None:
        zeta = pair.subgrad_J(u)
    eta = pair.duality_map_H(u)
    nz = pair.dual_norm_H(zeta)
    ne = pair.dual_norm_H(eta)
    if nz <= 0.0 or ne <= 0.0:
        raise ValueError("eigen residual undefined: zero operator output")
    return float(np.linalg.norm(zeta / nz - eta / ne))

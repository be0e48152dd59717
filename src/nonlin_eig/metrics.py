"""Scalar diagnostics: primal/dual Rayleigh quotients, cosine similarity,
duality gap, and the l2 eigen-residual, plus the per-iteration record."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .functional import FunctionalPair, fenchel_conjugate_value


@dataclass
class IterationRecord:
    k: int
    rq: float
    dual_rq: float | None
    cosim: float
    gap: float
    residual: float
    inner_iters: int
    wall_time: float


CSV_HEADER = ["iter", "rq", "dual_rq", "cosim", "gap", "residual",
              "inner_iters", "wall_time"]


def records_to_csv(records: list[IterationRecord], path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(CSV_HEADER)
        for r in records:
            w.writerow([r.k, repr(r.rq),
                        "" if r.dual_rq is None else repr(r.dual_rq),
                        repr(r.cosim), repr(r.gap), repr(r.residual),
                        r.inner_iters, repr(r.wall_time)])


def rayleigh_quotient(pair: FunctionalPair, u) -> float:
    """R(u) = J(u) / H(u)."""
    Hu = pair.H(u)
    if Hu <= 0.0:
        raise ValueError("Rayleigh quotient undefined at u = 0")
    return pair.energy_J(u) / Hu


def dual_rayleigh_quotient(pair: FunctionalPair, zeta, v) -> float:
    """R*(zeta) = J*(zeta) / H*(zeta), with J* evaluated through v in dJ*(zeta)."""
    nz = pair.dual_norm_H(zeta)
    if nz <= 0.0:
        raise ValueError("dual Rayleigh quotient undefined at zeta = 0")
    Hstar = nz ** pair.q / pair.q
    return fenchel_conjugate_value(pair, zeta, v) / Hstar


def cosine_similarity(pair: FunctionalPair, u, zeta) -> float:
    """<zeta, u> / (|u|_H |zeta|_{H*})."""
    nu = pair.norm_H(u)
    nz = pair.dual_norm_H(zeta)
    if nu <= 0.0 or nz <= 0.0:
        raise ValueError("cosine similarity undefined at zero input")
    return pair.pairing(zeta, u) / (nu * nz)


def duality_gap(pair: FunctionalPair, u, zeta, v) -> float:
    """g(u, zeta) = R(u)^(-1/p) - sign(J*(zeta)) |R*(zeta)|^(1/q).

    Requires v in dJ*(zeta).  Zero exactly at primal-dual eigenpairs when
    zeta in dJ(u); for p-homogeneous J it equals (1-cosim) R^(-1/p).
    """
    R = rayleigh_quotient(pair, u)
    Rs = dual_rayleigh_quotient(pair, zeta, v)
    return R ** (-1.0 / pair.p) - np.sign(Rs) * abs(Rs) ** (1.0 / pair.q)


def eigen_residual(pair: FunctionalPair, u, zeta=None) -> float:
    """l2 norm of the normalized eigenproblem defect.

    || zeta/|zeta|_q - eta/|eta|_q ||_2 with zeta = dJ(u), eta = dH(u);
    the outer norm is plain Euclidean over the free coordinates (no volume
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
    diff = pair.free_flatten(zeta) / nz - pair.free_flatten(eta) / ne
    return float(np.linalg.norm(diff))

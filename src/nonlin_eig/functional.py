"""Abstract convex functional pair (J, H) with duality operations.

A pair consists of an energy J and an absolutely p-homogeneous norm
functional H = (1/p)|.|_H^p on the same space.  All duality bookkeeping
(Fenchel conjugate values, duality maps, dual norms) happens through this
interface so that the eigensolvers stay generic over the concrete problem.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
import scipy.linalg
import scipy.sparse

if TYPE_CHECKING:
    from .newton import NewtonSettings


@dataclass
class SolveReport:
    """Outcome of an inner (Newton/linear) solve; a + b sums their work,
    keeps the worse residual (NaN if either is) and converges if both do."""

    iterations: int = 0
    final_residual: float = 0.0
    converged: bool = True
    cg_iterations_total: int = 0
    cg_unconverged: int = 0  # CG calls that did not converge (info != 0)
    jacobians: int = 0  # Jacobian assemblies
    residual_evals: int = 0  # evaluations of the Newton residual
    backtracks: int = 0  # trial steps the line search rejected

    def __add__(self, other: SolveReport) -> SolveReport:
        return SolveReport(
            self.iterations + other.iterations,
            float(np.maximum(self.final_residual, other.final_residual)),
            self.converged and other.converged,
            self.cg_iterations_total + other.cg_iterations_total,
            self.cg_unconverged + other.cg_unconverged,
            self.jacobians + other.jacobians,
            self.residual_evals + other.residual_evals,
            self.backtracks + other.backtracks)


def power_map(t: np.ndarray, p: float) -> np.ndarray:
    """The gauge |t|^(p-2) t, elementwise; 0 at 0 for any p, NaN at NaN."""
    t = np.asarray(t, dtype=float)
    out = np.abs(t)
    keep = out != 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        out **= p - 2.0
        out *= t
    np.copyto(out, 0.0, where=~keep)
    return out


class FunctionalPair(ABC):
    """Convex pair (J, H) with H absolutely p-homogeneous, p > 1.

    Implementations are safe for concurrent read-only use: no operation
    mutates its inputs and every vector returned is fresh; jacobian_matrix
    may share storage between calls, so callers must not write to it.
    """

    p: float
    # per unknown, the number of its aggregate in the coarse space of
    # newton.two_level; None for a pair without one
    aggregates: np.ndarray | None = None

    @property
    def q(self) -> float:
        """Dual Hoelder exponent, 1/p + 1/q = 1."""
        return self.p / (self.p - 1.0)

    @abstractmethod
    def energy_J(self, u: np.ndarray) -> float:
        ...

    @abstractmethod
    def subgrad_J(self, u: np.ndarray) -> np.ndarray:
        """An element of the subdifferential of J at u (dual vector)."""

    @abstractmethod
    def inverse_subgrad_J(
        self,
        zeta: np.ndarray,
        settings: NewtonSettings | None = None,
        warm_start: np.ndarray | None = None,
    ) -> tuple[np.ndarray, SolveReport]:
        """Solve zeta in dJ(v) for v, i.e. apply the inverse operator dJ*."""

    @abstractmethod
    def prox_J(
        self,
        u_ref: np.ndarray,
        tau: float,
        settings: NewtonSettings | None = None,
    ) -> tuple[np.ndarray, SolveReport]:
        """argmin_v H(v - u_ref) + tau * J(v)."""

    @abstractmethod
    def duality_map_H(self, u: np.ndarray) -> np.ndarray:
        """The duality map dH(u) (dual vector)."""

    @abstractmethod
    def norm_H(self, u: np.ndarray) -> float:
        """|u|_H = (p H(u))^(1/p)."""

    @abstractmethod
    def dual_norm_H(self, zeta: np.ndarray) -> float:
        """|zeta|_{H*}."""

    @abstractmethod
    def pairing(self, zeta: np.ndarray, u: np.ndarray) -> float:
        """Dual pairing <zeta, u>."""

    def H(self, u: np.ndarray) -> float:
        return self.norm_H(u) ** self.p / self.p

    def as_vector(self, u) -> np.ndarray:
        """u as a vector of the pair's space; the schemes read their start
        through this."""
        return np.asarray(u, dtype=float)

    # --- derivatives: the bordered balanced solve and the geometric scheme -

    @abstractmethod
    def jacobian_matrix(self, u: np.ndarray):
        """Jacobian of dJ (second derivative of J) at u, scipy.sparse."""

    @abstractmethod
    def duality_map_H_prime(self, w: np.ndarray) -> np.ndarray:
        """Diagonal of the derivative of duality_map_H at w (nodewise)."""


class SpdInstance(FunctionalPair):
    """Quadratic pair J(u) = 0.5 <Au, u>, H(u) = 0.5 ||u||_2^2 with A SPD.

    Everything is available in closed form, which makes this instance the
    exactly checkable oracle for the iterative schemes.
    """

    def __init__(self, matrix) -> None:
        A = np.array(matrix, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("matrix must be square")
        asym = np.max(np.abs(A - A.T))
        scale = max(1.0, np.max(np.abs(A)))
        if asym > 1e-12 * scale:
            raise ValueError(f"matrix not symmetric (asymmetry {asym:.3e})")
        eigvals = scipy.linalg.eigvalsh(A)
        if eigvals[0] <= 0.0:
            raise ValueError(f"matrix not positive definite (min eig {eigvals[0]:.3e})")
        self.A = 0.5 * (A + A.T)
        self.p = 2.0
        self._cho = scipy.linalg.cho_factor(self.A)
        self._hess = scipy.sparse.csr_matrix(self.A)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def energy_J(self, u):
        u = np.asarray(u, dtype=float)
        return 0.5 * float(u @ (self.A @ u))

    def subgrad_J(self, u):
        return self.A @ np.asarray(u, dtype=float)

    def inverse_subgrad_J(self, zeta, settings=None, warm_start=None):
        v = scipy.linalg.cho_solve(self._cho, np.asarray(zeta, dtype=float))
        res = float(np.max(np.abs(self.A @ v - zeta))) if len(v) else 0.0
        return v, SolveReport(iterations=1, final_residual=res, converged=True)

    def prox_J(self, u_ref, tau, settings=None):
        u_ref = np.asarray(u_ref, dtype=float)
        M = np.eye(self.n) + tau * self.A
        v = np.linalg.solve(M, u_ref)
        res = float(np.max(np.abs(M @ v - u_ref)))
        return v, SolveReport(iterations=1, final_residual=res, converged=True)

    def duality_map_H(self, u):
        return np.asarray(u, dtype=float).copy()

    def norm_H(self, u):
        return float(np.linalg.norm(u))

    def dual_norm_H(self, zeta):
        return float(np.linalg.norm(zeta))

    def pairing(self, zeta, u):
        return float(np.dot(np.asarray(zeta, dtype=float).ravel(),
                            np.asarray(u, dtype=float).ravel()))

    def jacobian_matrix(self, u):
        return self._hess

    def duality_map_H_prime(self, w):
        return np.ones_like(np.asarray(w, dtype=float))


def fenchel_conjugate_value(pair: FunctionalPair, zeta: np.ndarray,
                            v: np.ndarray, Jv: float) -> float:
    """J*(zeta) evaluated through a subgradient pair zeta in dJ(v), given
    Jv = J(v).

    Returns <zeta, v> - J(v).  For absolutely p-homogeneous J this equals
    (1/q) <zeta, v> by the Euler identity; `validation.fenchel_route_defect`
    cross-checks the two routes.  Garbage in, garbage out if the
    precondition fails.
    """
    return pair.pairing(zeta, v) - Jv

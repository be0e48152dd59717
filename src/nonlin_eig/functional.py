"""Abstract convex functional pair (J, H) with duality operations.

A pair consists of an energy J and an absolutely p-homogeneous norm
functional H = (1/p)|.|_H^p on the same space.  All duality bookkeeping
(Fenchel conjugate values, duality maps, dual norms) happens through this
interface so that the eigensolvers stay generic over the concrete problem.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np
import scipy.linalg

if TYPE_CHECKING:
    from .newton import NewtonSettings


@dataclass
class SolveReport:
    """Outcome of an inner (Newton/linear) solve."""

    iterations: int = 0
    final_residual: float = 0.0
    converged: bool = True
    cg_iterations_total: int = 0
    cg_unconverged: int = 0  # CG calls that used up their iteration budget


def power_map(t: np.ndarray, p: float) -> np.ndarray:
    """The gauge |t|^(p-2) t, elementwise, with power_map(0) = 0 for any p."""
    t = np.asarray(t, dtype=float)
    out = np.abs(t)
    keep = out > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        out **= p - 2.0
        out *= t
    np.copyto(out, 0.0, where=~keep)
    return out


class FunctionalPair(ABC):
    """Convex pair (J, H) with H absolutely p-homogeneous, p > 1.

    Implementations must be safe for concurrent read-only use: every
    operation returns fresh arrays and never mutates its inputs.
    """

    p: float

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
        ...

    @abstractmethod
    def inverse_subgrad_J(
        self,
        zeta: np.ndarray,
        settings: NewtonSettings | None = None,
        warm_start: np.ndarray | None = None,
    ) -> tuple[np.ndarray, SolveReport]:
        """Solve zeta in dJ(v) for v, i.e. apply the inverse operator dJ*."""
        ...

    @abstractmethod
    def prox_J(
        self,
        u_ref: np.ndarray,
        tau: float,
        settings: NewtonSettings | None = None,
    ) -> tuple[np.ndarray, SolveReport]:
        """argmin_v H(v - u_ref) + tau * J(v)."""
        ...

    @abstractmethod
    def duality_map_H(self, u: np.ndarray) -> np.ndarray:
        """The duality map dH(u) (dual vector)."""
        ...

    @abstractmethod
    def norm_H(self, u: np.ndarray) -> float:
        """|u|_H = (p H(u))^(1/p)."""
        ...

    @abstractmethod
    def dual_norm_H(self, zeta: np.ndarray) -> float:
        """|zeta|_{H*}."""
        ...

    @abstractmethod
    def pairing(self, zeta: np.ndarray, u: np.ndarray) -> float:
        """Dual pairing <zeta, u>."""
        ...

    def H(self, u: np.ndarray) -> float:
        return self.norm_H(u) ** self.p / self.p

    # --- hooks used by the geometric (cosine-ascent) scheme -----------------

    def free_flatten(self, u: np.ndarray) -> np.ndarray:
        """Flatten a vector to the free (unconstrained) coordinates."""
        return np.asarray(u, dtype=float).ravel().copy()

    def lift_free(self, x: np.ndarray) -> np.ndarray:
        """Inverse of free_flatten."""
        return np.asarray(x, dtype=float).copy()

    def hess_J_matrix(self, u: np.ndarray):
        """Second derivative of J at u over free coordinates."""
        raise NotImplementedError

    def duality_map_H_prime(self, w: np.ndarray) -> np.ndarray:
        """Diagonal of the derivative of duality_map_H at w (nodewise)."""
        raise NotImplementedError


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

    def hess_J_matrix(self, u):
        return self.A

    def duality_map_H_prime(self, w):
        return np.ones_like(np.asarray(w, dtype=float))


def fenchel_conjugate_value(pair: FunctionalPair, zeta: np.ndarray, v: np.ndarray) -> float:
    """J*(zeta) evaluated through a subgradient pair, zeta in dJ(v).

    Returns <zeta, v> - J(v).  For absolutely p-homogeneous J this equals
    (1/q) <zeta, v> by the Euler identity; a debug assertion cross-checks
    the two routes.  Garbage in, garbage out if the precondition fails.
    """
    val = pair.pairing(zeta, v) - pair.energy_J(v)
    if __debug__:
        alt = pair.pairing(zeta, v) / pair.q
        scale = max(abs(val), abs(alt), 1e-300)
        if abs(val) > 1e-14 or abs(alt) > 1e-14:
            assert abs(val - alt) <= 1e-8 * scale, (
                f"Fenchel value mismatch: pair route {val}, Euler route {alt}"
            )
    return val


@dataclass
class GrowthReport:
    """Result of checking H(u) <= J(u) / lambda_star over a sample set."""

    ok: bool
    worst_ratio: float
    worst_index: int
    violations: list[int] = field(default_factory=list)


def check_growth_constant(pair: FunctionalPair, samples, lambda_star: float,
                          rel_slack: float = 1e-6) -> GrowthReport:
    """Verify the coercivity bound H(u) <= J(u)/lambda_star on samples.

    lambda_star is a ground-state eigenvalue estimate; a violation signals
    either a wrong estimate or solver non-convergence.
    """
    if lambda_star <= 0.0:
        raise ValueError("lambda_star must be positive")
    worst = np.inf
    worst_idx = -1
    violations = []
    for i, u in enumerate(samples):
        Hu = pair.H(u)
        Ju = pair.energy_J(u)
        if Hu <= 0.0:
            continue
        ratio = Ju / Hu
        if ratio < worst:
            worst = ratio
            worst_idx = i
        if Hu > (Ju / lambda_star) * (1.0 + rel_slack):
            violations.append(i)
    return GrowthReport(ok=not violations, worst_ratio=float(worst),
                        worst_index=worst_idx, violations=violations)

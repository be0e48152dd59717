"""Damped Newton solvers for the inner p-Poisson and proximal subproblems.

damped_newton is the package's one Newton loop.  It serves the CG solves
below and the direct solve of the geometric scheme's polish, and it
backtracks by halving the step, 31 tries at most.  Jacobi-preconditioned
CG suits the many-armed mean-value stencil, whose sparse Jacobian-vector
product is cheap where a factorization would be wasteful.  CG stops at the
relative tolerance max(cg_tol, 0.01 tol_abs / |r|_2) for the Newton
residual r, so near convergence it is not asked for a linear residual far
below the Newton tolerance, yet that residual stays two orders below it.

For p >= 2 (locally_quadratic), where Newton converges locally
quadratically, solve_p_poisson and solve_prox also loosen CG by
Eisenstat-Walker forcing (choice 2, "Choosing the forcing terms in an
inexact Newton method", SIAM J. Sci. Comput. 1996): from a solve's second
Newton step on, the relative tolerance is at least
eta = min(0.1, 0.9 (|r_k|_2 / |r_k-1|_2)^2).  While the residual falls
slowly CG need not solve far past what the step achieves; once it falls
fast, eta drops below the rule above, which again controls the last steps.
The stop test |r|_max <= tol_abs is the same, so a forced solve converges
as tightly as an unforced one.  The inverse power method also starts its
inner solves on the eigen-ray for p >= 2 only (eigensolvers.run_ipm).

Below p = 2 the Newton step does not contract, and both would cost more
than they save.  On a 30-step p=1.5 inverse power run (the ex1 L-shape at
h = 0.05, r = 0.2, at most 150 Newton steps per solve), the forcing raised
the worst inner residual from 1.3e-7 to 1.6e-4, with all 30 solves missing
their tolerance; the ray start made all 30 miss (14 from u), with 3878
Newton steps (2937 from u).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .functional import SolveReport, power_map


@dataclass
class NewtonSettings:
    tol_abs: float = 1e-12
    max_iter: int = 500
    cg_tol: float = 1e-10
    cg_max_iter: int | None = None  # None: max(50, 10 * unknowns)

    def __post_init__(self):
        if self.tol_abs <= 0:
            raise ValueError("tol_abs must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")

    def cg_budget(self, n: int) -> int:
        """The iteration budget of one CG solve in n unknowns."""
        return self.cg_max_iter or max(50, 10 * n)


def locally_quadratic(p: float) -> bool:
    """Whether the inner Newton solves at exponent p converge locally
    quadratically, p >= 2: there, and only there, CG is forced and the
    inverse power method starts on the eigen-ray (module docstring)."""
    return p >= 2


class CgResult(tuple):
    """(x, iterations) of one CG solve, which unpacks as that pair, with
    converged (SciPy's info == 0) read by name, as os.stat_result's extra
    fields are."""

    def __new__(cls, x: np.ndarray, iterations: int, converged: bool):
        result = super().__new__(cls, (x, iterations))
        result.converged = converged
        return result


def cg_solve(A, b, rtol: float, maxiter: int) -> CgResult:
    """Jacobi-preconditioned CG; returns the iterate even on non-convergence
    (converged=False: the iteration budget ran out or CG broke down)."""
    diag = A.diagonal() if scipy.sparse.issparse(A) else np.diag(A)
    inv = np.ones_like(diag, dtype=float)
    nonzero = np.abs(diag) > 1e-300
    inv[nonzero] = 1.0 / diag[nonzero]
    M = scipy.sparse.linalg.LinearOperator(A.shape, matvec=lambda x: inv * x)
    count = [0]

    def cb(xk):
        count[0] += 1

    x, info = scipy.sparse.linalg.cg(A, b, rtol=rtol, atol=0.0,
                                     maxiter=maxiter, M=M, callback=cb)
    return CgResult(x, count[0], info == 0)


def damped_newton(x0: np.ndarray, residual_fn, jacobian_fn,
                  settings: NewtonSettings, linear_solve=None,
                  forcing: bool = False) -> tuple[np.ndarray, SolveReport]:
    """Newton iteration with residual-decrease backtracking.

    A step is accepted when it lowers the residual max-norm; its length
    starts at 1 and is halved at most 30 times (31 tries).  If no try is
    accepted, or the starting residual is not finite, the iterate so far
    is returned with converged=False.  linear_solve(A, b) solves
    A delta = b for A = jacobian_fn(x); by default CG runs to the relative
    tolerance max(cg_tol, 0.01 * tol_abs / |r|_2), and CG calls that do
    not converge are counted in the report's cg_unconverged.  With forcing,
    from the second Newton step on that tolerance is raised to at least the
    Eisenstat-Walker term eta = min(0.1, 0.9 (|r_k|_2 / |r_k-1|_2)^2) of
    the module docstring.  Their safeguard max(eta, 0.9 eta_prev^2), taken
    only when 0.9 eta_prev^2 > 0.1, cannot fire under the cap 0.1 and is
    left out.
    """
    x = np.asarray(x0, dtype=float).copy()
    r = residual_fn(x)
    rn = float(np.max(np.abs(r))) if r.size else 0.0
    cg_total = cg_unconverged = 0
    maxiter_cg = settings.cg_budget(x.size)
    it = 0
    norm_prev = None  # |r|_2 at the previous Newton step
    while settings.tol_abs < rn < np.inf and it < settings.max_iter:
        A = jacobian_fn(x)
        if linear_solve is None:
            norm = np.linalg.norm(r)
            rtol = max(settings.cg_tol, 0.01 * settings.tol_abs / norm)
            if forcing and norm_prev is not None:
                rtol = max(rtol, min(0.1, 0.9 * (norm / norm_prev) ** 2))
            norm_prev = norm
            cg = cg_solve(A, -r, rtol, maxiter_cg)
            delta, cg_it = cg
            cg_total += cg_it
            cg_unconverged += not cg.converged
        else:
            delta = linear_solve(A, -r)
        it += 1
        t = 1.0
        for _ in range(31):
            xt = x + t * delta
            rt = residual_fn(xt)
            rtn = float(np.max(np.abs(rt)))
            if rtn < rn:
                x, r, rn = xt, rt, rtn
                break
            t *= 0.5
        else:  # no try lowered the residual
            break
    return x, SolveReport(iterations=it, final_residual=rn,
                          converged=rn <= settings.tol_abs,
                          cg_iterations_total=cg_total,
                          cg_unconverged=cg_unconverged)


def solve_p_poisson(inst, zeta: np.ndarray, u_init: np.ndarray,
                    settings: NewtonSettings | None = None
                    ) -> tuple[np.ndarray, SolveReport]:
    """Solve -Delta_p^h u = zeta at interior nodes, zero Dirichlet boundary.

    inst is a PLaplaceInstance; zeta and u_init are interior vectors.
    """
    if settings is None:
        settings = NewtonSettings()

    def residual(x):
        return inst.neg_plaplacian(x) - zeta

    return damped_newton(u_init, residual, inst.jacobian_matrix, settings,
                         forcing=locally_quadratic(inst.p))


def solve_prox(inst, u_ref: np.ndarray, tau: float,
               settings: NewtonSettings | None = None
               ) -> tuple[np.ndarray, SolveReport]:
    """Proximal step: solve |v-u|^(p-2)(v-u) + tau * (-Delta_p^h v) = 0.

    This is the optimality condition of argmin_v H(v - u_ref) + tau J(v);
    the caller applies the tau = tau_tilde^(p-1) reparameterization.
    inst is a PLaplaceInstance and u_ref an interior vector, from which
    the solve starts.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    if settings is None:
        settings = NewtonSettings()
    p = inst.p

    def residual(x):
        return power_map(x - u_ref, p) + tau * inst.neg_plaplacian(x)

    def jacobian(x):
        return scipy.sparse.diags(inst.duality_map_H_prime(x - u_ref)) \
            + tau * inst.jacobian_matrix(x)

    return damped_newton(u_ref, residual, jacobian, settings,
                         forcing=locally_quadratic(p))

"""Damped Newton solvers for the inner p-Poisson and proximal subproblems.

Linear steps are solved by conjugate gradient with Jacobi preconditioning;
the mean-value stencil can have many arms, so a matrix factorization would
be wasteful while the (sparse) Jacobian-vector product stays cheap.  CG
stops at the relative tolerance max(cg_tol, 0.01 tol_abs / |r|_2) for the
Newton residual r, so near convergence it is not asked for a linear
residual far below the Newton tolerance, yet that residual always stays
two orders below it and never keeps Newton from converging.
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
    cg_max_iter: int | None = None  # default 10 * number of unknowns
    damping_factor: float = 0.5
    max_halvings: int = 30

    def __post_init__(self):
        if self.tol_abs <= 0:
            raise ValueError("tol_abs must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


def cg_solve(A, b, rtol: float, maxiter: int) -> tuple[np.ndarray, int]:
    """Jacobi-preconditioned CG; returns the iterate even on non-convergence."""
    diag = A.diagonal() if scipy.sparse.issparse(A) else np.diag(A)
    inv = np.ones_like(diag, dtype=float)
    nonzero = np.abs(diag) > 1e-300
    inv[nonzero] = 1.0 / diag[nonzero]
    M = scipy.sparse.linalg.LinearOperator(A.shape, matvec=lambda x: inv * x)
    count = [0]

    def cb(xk):
        count[0] += 1

    x, _ = scipy.sparse.linalg.cg(A, b, rtol=rtol, atol=0.0, maxiter=maxiter,
                                  M=M, callback=cb)
    return x, count[0]


def damped_newton(x0: np.ndarray, residual_fn, jacobian_fn,
                  settings: NewtonSettings) -> tuple[np.ndarray, SolveReport]:
    """Newton iteration with residual-decrease backtracking.

    Steps are accepted when the max-norm of the residual decreases; if the
    backtracking budget runs out the best iterate so far is returned with
    converged=False.  Each linear step runs CG to the relative tolerance
    max(cg_tol, 0.01 * tol_abs / |r|_2), so its absolute residual never
    needs to fall more than two orders below tol_abs; CG calls that use up
    their iteration budget are counted in the report's cg_unconverged.
    """
    x = np.asarray(x0, dtype=float).copy()
    r = residual_fn(x)
    rn = float(np.max(np.abs(r))) if r.size else 0.0
    cg_total = cg_unconverged = 0
    maxiter_cg = settings.cg_max_iter or max(50, 10 * x.size)
    it = 0
    while rn > settings.tol_abs and it < settings.max_iter:
        A = jacobian_fn(x)
        rtol = max(settings.cg_tol,
                   0.01 * settings.tol_abs / np.linalg.norm(r))
        delta, cg_it = cg_solve(A, -r, rtol, maxiter_cg)
        cg_total += cg_it
        cg_unconverged += cg_it >= maxiter_cg
        t = 1.0
        accepted = False
        for _ in range(settings.max_halvings + 1):
            xt = x + t * delta
            rt = residual_fn(xt)
            rtn = float(np.max(np.abs(rt)))
            if rtn < rn:
                x, r, rn = xt, rt, rtn
                accepted = True
                break
            t *= settings.damping_factor
        it += 1
        if not accepted:
            break
    return x, SolveReport(iterations=it, final_residual=rn,
                          converged=rn <= settings.tol_abs,
                          cg_iterations_total=cg_total,
                          cg_unconverged=cg_unconverged)


def solve_p_poisson(inst, zeta: np.ndarray, u_init: np.ndarray,
                    settings: NewtonSettings | None = None
                    ) -> tuple[np.ndarray, SolveReport]:
    """Solve -Delta_p^h u = zeta at interior nodes, zero Dirichlet boundary.

    inst is a PLaplaceInstance; zeta and u_init are full-lattice fields.
    """
    if settings is None:
        settings = NewtonSettings()
    mask = inst.domain.interior_mask
    z_int = np.asarray(zeta, dtype=float)[mask]

    def residual(x):
        return inst.neg_plaplacian(inst.lift_free(x))[mask] - z_int

    def jacobian(x):
        return inst.jacobian_matrix(inst.lift_free(x))

    x0 = np.asarray(u_init, dtype=float)[mask]
    x, report = damped_newton(x0, residual, jacobian, settings)
    return inst.lift_free(x), report


def solve_prox(inst, u_ref: np.ndarray, tau: float,
               settings: NewtonSettings | None = None
               ) -> tuple[np.ndarray, SolveReport]:
    """Proximal step: solve |v-u|^(p-2)(v-u) + tau * (-Delta_p^h v) = 0.

    This is the optimality condition of argmin_v H(v - u_ref) + tau J(v);
    the caller applies the tau = tau_tilde^(p-1) reparameterization.
    Warm-started from u_ref.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    if settings is None:
        settings = NewtonSettings()
    mask = inst.domain.interior_mask
    u_int = np.asarray(u_ref, dtype=float)[mask]
    p = inst.p

    def residual(x):
        d = x - u_int
        field = inst.lift_free(x)
        return power_map(d, p) + tau * inst.neg_plaplacian(field)[mask]

    def jacobian(x):
        d = x - u_int
        diag = inst.kernel_derivative(d)
        field = inst.lift_free(x)
        return scipy.sparse.diags(diag) + tau * inst.jacobian_matrix(field)

    x, report = damped_newton(u_int.copy(), residual, jacobian, settings)
    return inst.lift_free(x), report

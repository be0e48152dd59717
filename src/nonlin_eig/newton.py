"""Newton solvers for the inner p-Poisson and proximal subproblems.

damped_newton is the package's one Newton loop and cg_solve its one
linear solver.  The loop serves the inner solves below, the balanced
scheme's bordered solve (solve_p_poisson with border, whose balance row
log_balance is defined here) and the geometric scheme's polish.  It
computes each step's CG tolerance, by the rules below, once, and hands it
to the step's linear solve: the default CG runs to it, the bordered solve
runs both of its CG solves to it, on one preconditioner per Newton system
(solve_p_poisson), and the polish keeps its own fixed tolerance
(eigensolvers._polish).
CG suits the many-armed mean-value stencil, whose sparse Jacobian-vector
product is cheap where a factorization of the Jacobian would be wasteful.
Jacobi preconditions it everywhere but in the bordered solve's halving
step (p >= 2) on a pair with aggregates, a lattice's square blocks: there
two_level adds to Jacobi a piecewise-constant coarse correction (Tang,
Nabben, Vuik & Erlangga, "Comparison of two-level preconditioners derived
from deflation, domain decomposition and multigrid methods", J. Sci.
Comput. 2009), which removes the smooth error that Jacobi barely damps.
Its one small coarse factorization per Newton system serves both CG
solves of the system.  In the inner IPM and PPM solves and below p = 2 it
did not pay for its setup, and the polish's matrix is indefinite.  CG
stops at the relative tolerance max(CG_RTOL, 0.01 tol_abs / |b|_2) for
the right-hand side b of the Newton system, within cg_budget iterations,
so near convergence it is not asked for a linear residual far below the
Newton tolerance, yet that residual stays two orders below it.

For p >= 2 (locally_quadratic), where Newton converges locally
quadratically, a step solves the Newton system of the residual and is
backtracked by halving, 31 tries at most.  damped_newton loosens the CG
of that step by Eisenstat-Walker forcing (choice 2, "Choosing the
forcing terms in an inexact Newton method", SIAM J. Sci. Comput. 1996):
the relative tolerance of a solve's first Newton step is at least
eta_0 = 0.1, the cap of the rule, and from the second step on at least
eta = min(0.1, 0.9 (|r_k|_2 / |r_k-1|_2)^2).  While the residual falls
slowly CG need not solve far past what the step achieves; once it falls
fast, eta drops below the rule above, which again controls the last steps.
The stop test |r|_max <= tol_abs is the same, so a forced solve converges
as tightly as an unforced one.  An affine residual, the p = 2 solves
(damped_newton's linear), keeps an unforced first step, as one exact step
solves it.

Below p = 2 that step does not contract.  On a lone edge the kernel
phi(d) = |d|^(p-2) d has phi / phi' = d / (p-1), so the step maps d to
d (p-2)/(p-1), which is -d at p = 1.5, and the halving does the work.
There the plain, the bordered and the prox solve take primal-dual steps,
as Chan, Golub & Mulet do for total variation ("A nonlinear primal-dual
method for total variation-based image restoration", SIAM J. Sci. Comput.
1999), on one flux state (_Flux): the flux sigma = phi(d) of every stencil
edge is a Newton unknown beside u, linearized through its inverse
psi(sigma) = |sigma|^(q-2) sigma, whose exponent q - 1 > 1 makes Newton
contract; the prox's state, given the reference u_ref, also carries the
nodal flux rho = phi(v - u_ref).  Eliminating the flux steps leaves one
n x n SPD system per step, the Jacobian on the edge weights 1/psi'(sigma)
in place of phi'(d) (the two agree at sigma = phi(d)), solved by the same
CG.  Steps are taken in full wherever the residual is finite, which a
plain solve's always is (the bordered solve's is not where a part of u
vanishes): the residual may rise for a step, so the loop keeps its best
iterate and stops once WANDER_STEPS steps have not improved it: far from
the solution a run of over ten steps, each of the order of u, may set no
new least residual before the residual falls for good.  The residual
has a rounding floor, as phi is only (p-1)-Hoelder: two nodes of equal
value that differ by one ulp read as a flux of order ulp^(p-1), so a
solve can stop on that floor above tol_abs.  There the steps shrink to
the rounding level of u, and the loop stops once STALL_STEPS such steps
have not improved its best.  The primal-dual step's CG is not forced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .functional import SolveReport, power_map
from . import plaplace  # EPSILON, read at call time


@dataclass
class NewtonSettings:  # the Newton stop
    tol_abs: float = 1e-12
    max_iter: int = 500

    def __post_init__(self):
        if not 0 < self.tol_abs < math.inf:
            raise ValueError("tol_abs must be positive and finite")
        if not 1 <= self.max_iter < math.inf:
            raise ValueError("max_iter must be >= 1 and finite")


CG_RTOL = 1e-10  # the least relative tolerance a Newton step asks of CG


def cg_budget(n: int) -> int:
    """The iteration budget of one CG solve in n unknowns."""
    return max(50, 10 * n)


def locally_quadratic(p: float) -> bool:
    """Whether Newton on the residual converges locally quadratically at
    exponent p, p >= 2: there the inner solves take that step, with forced
    CG; below they take the primal-dual step (module docstring)."""
    return p >= 2


WANDER_STEPS = 20  # primal-dual steps without a new least residual, at most
STALL_STEPS = 10  # of them at the rounding level, at most
ROUNDING_STEP = 2.0 ** -26  # that level: max|step| <= ROUNDING_STEP max|x|
HALVINGS = tuple(0.5 ** k for k in range(31))  # trial lengths of a step


class CgResult(tuple):
    """(x, iterations) of one CG solve, which unpacks as that pair, with its
    SolveReport (the iterations; cg_unconverged 1 if SciPy's info != 0)
    read by name as report, as os.stat_result's extra fields are."""

    def __new__(cls, x: np.ndarray, iterations: int, converged: bool):
        result = super().__new__(cls, (x, iterations))
        result.report = SolveReport(cg_iterations_total=iterations,
                                    cg_unconverged=int(not converged))
        return result


def _inverse_diagonal(A) -> np.ndarray:
    """1 / diag(A), with 1 in the rows of a zero diagonal entry."""
    diag = A.diagonal()
    inv = np.ones_like(diag, dtype=float)
    nonzero = np.abs(diag) > 1e-300
    inv[nonzero] = 1.0 / diag[nonzero]
    return inv


def jacobi(A) -> scipy.sparse.linalg.LinearOperator:
    """The Jacobi preconditioner of A, x -> x / diag(A), leaving the rows
    of a zero diagonal entry unscaled."""
    inv = _inverse_diagonal(A)
    return scipy.sparse.linalg.LinearOperator(A.shape,
                                              matvec=lambda x: inv * x)


def two_level(A, aggregates: np.ndarray) -> scipy.sparse.linalg.LinearOperator:
    """The additive two-level preconditioner of A on a partition of its
    unknowns, x -> D^-1 x + P (P^T A P)^-1 P^T x: Jacobi (D = diag(A), as
    in jacobi) plus the piecewise-constant coarse correction of Nicolaides
    ("Deflation of conjugate gradients with applications to boundary value
    problems", SIAM J. Numer. Anal. 1987), where P is the 0/1 map of
    unknown i to its aggregate aggregates[i].  It is SPD where A is.  The
    coarse matrix is formed as (P^T A) P by sparse products and factored by
    a dense Cholesky, which raises numpy.linalg.LinAlgError where it is not
    positive definite."""
    n = aggregates.size
    m = int(aggregates.max()) + 1
    P = scipy.sparse.csr_matrix((np.ones(n), aggregates, np.arange(n + 1)),
                                shape=(n, m))
    PT = P.T.tocsr()
    coarse = scipy.linalg.cho_factor((PT @ A @ P).toarray(),
                                     check_finite=False)
    inv = _inverse_diagonal(A)

    def apply(x):
        c = scipy.linalg.cho_solve(coarse, PT @ x, check_finite=False)
        return inv * x + P @ c

    return scipy.sparse.linalg.LinearOperator(A.shape, matvec=apply)


def cg_solve(A, b, rtol: float, maxiter: int, x0=None, M=None) -> CgResult:
    """CG preconditioned by M, jacobi(A) if None, from x0, 0 if None;
    returns the iterate even on non-convergence (report.cg_unconverged 1:
    the budget ran out or CG broke down)."""
    count = [0]

    def cb(xk):
        count[0] += 1

    x, info = scipy.sparse.linalg.cg(A, b, x0=x0, rtol=rtol, atol=0.0,
                                     maxiter=maxiter,
                                     M=jacobi(A) if M is None else M,
                                     callback=cb)
    return CgResult(x, count[0], info == 0)


def damped_newton(x0: np.ndarray, residual_fn, jacobian_fn,
                  settings: NewtonSettings | None, linear_solve=None,
                  flux=None, linear=False) -> tuple[np.ndarray, SolveReport]:
    """Newton iteration on residual_fn, globalized by halving or by a flux.

    Without flux each step solves A delta = -r for A = jacobian_fn(x) and a
    trial is accepted when it lowers the residual max-norm.  With flux, a
    primal-dual state of the module docstring, flux.system(x) gives the
    system A delta = b of the step (jacobian_fn is not called), a trial is
    accepted when its residual is finite, and flux.advance(t delta) moves
    the linearized flux along the step t delta taken; as the residual may
    rise for a step, the loop also stops once WANDER_STEPS steps, or
    STALL_STEPS steps at the rounding level (ROUNDING_STEP), have set no
    new least residual.  Either way the trial length starts at 1 and is
    halved at most 30 times (31 tries), and if no try is accepted the loop
    stops.  The loop returns the iterate of least residual, with
    converged=False unless that residual is <= tol_abs, and returns the
    start at once when its residual is not finite.

    linear_solve(A, b, rtol) -> (delta, SolveReport) solves the system; the
    returned report sums the reports of the solves, with the loop's own
    iterations, Jacobian assemblies (one per system formed), residual
    evaluations, backtracks (trial steps rejected), final_residual and
    converged.  rtol is the relative CG tolerance of the module docstring
    for that b, the one the default solve, CG within cg_budget, runs to;
    the default reports CG's iterations and, in cg_unconverged, whether
    it did not converge.  On the halving step (no flux) rtol is
    forced by the module docstring's Eisenstat-Walker terms, eta_0 = 0.1
    on the first Newton step unless linear says that residual_fn is
    affine, and eta from the second step on; their safeguard max(eta,
    0.9 eta_prev^2), taken only when 0.9 eta_prev^2 > 0.1, cannot fire
    under the cap 0.1 and is left out.  A delta that is not finite ends
    the loop at once with final_residual NaN and converged=False; its
    solve's work counts, the step does not.
    """
    settings = settings or NewtonSettings()
    x = np.asarray(x0, dtype=float).copy()
    r = residual_fn(x)
    rn = float(np.max(np.abs(r))) if r.size else 0.0
    best, best_rn, wandered, stalled = x, rn, 0, 0
    report = SolveReport()
    it = jacobians = backtracks = 0
    evals = 1
    norm_prev = None  # |b|_2 at the previous Newton step

    def cg(A, b, rtol):
        result = cg_solve(A, b, rtol, cg_budget(x.size))
        return result[0], result.report

    while (settings.tol_abs < rn < np.inf and it < settings.max_iter
           and wandered < WANDER_STEPS and stalled < STALL_STEPS):
        A, b = (jacobian_fn(x), -r) if flux is None else flux.system(x)
        jacobians += 1
        norm = np.linalg.norm(b)
        rtol = max(CG_RTOL, 0.01 * settings.tol_abs / norm)
        if flux is None and (norm_prev is not None or not linear):
            eta = 0.1 if norm_prev is None else 0.9 * (norm / norm_prev) ** 2
            rtol = max(rtol, min(0.1, eta))
        norm_prev = norm
        delta, solved = (linear_solve or cg)(A, b, rtol)
        report += solved
        if not np.all(np.isfinite(delta)):
            best_rn = np.nan
            break
        it += 1
        for t in HALVINGS:
            xt = x + t * delta
            rt = residual_fn(xt)
            evals += 1
            rtn = float(np.max(np.abs(rt)))
            if rtn < (rn if flux is None else np.inf):
                x, r, rn = xt, rt, rtn
                break
            backtracks += 1
        else:  # no try was accepted
            break
        if flux is not None:
            flux.advance(t * delta)
        if rn < best_rn:
            best, best_rn, wandered, stalled = x, rn, 0, 0
        else:
            wandered += 1
            stalled += bool(np.max(np.abs(t * delta))
                            <= ROUNDING_STEP * np.max(np.abs(x)))
    return best, replace(report, iterations=it, final_residual=best_rn,
                         converged=best_rn <= settings.tol_abs,
                         jacobians=jacobians, residual_evals=evals,
                         backtracks=backtracks)


def _linearize_flux(sigma: np.ndarray, t: np.ndarray, p: float) -> np.ndarray:
    """Newton-update the flux sigma of the argument t, sigma = phi(t) for
    phi = power_map(., p), in place; t is overwritten.

    Newton's step on t = psi(sigma), for the inverse psi = power_map(., q),
    moves sigma to sigma + slope (t - psi(sigma)), slope = 1/psi'(sigma),
    and the slope is returned: along a step dt of the argument, the
    linearized flux then moves by slope dt.  psi' is smoothed to
    (q-1)(sigma^2 + s^2)^((q-2)/2) by s = phi(plaplace.EPSILON), the
    smoothing of every kernel derivative, which keeps the slope finite
    where sigma = 0.
    """
    q = p / (p - 1.0)
    s = plaplace.EPSILON ** (p - 1.0)
    slope = sigma * sigma
    slope += s * s
    slope **= (2.0 - q) / 2.0
    slope *= p - 1.0
    t -= power_map(sigma, q)
    t *= slope
    sigma += t
    return slope


class _Flux:
    """Primal-dual state of -Delta_p^h u = zeta, or with a reference u_ref
    of the prox equation phi(u - u_ref) + tau (-Delta_p^h u) = 0 from
    u = u_ref.  It holds the flux sigma = phi(u(y) - u(x)) of every stencil
    edge, laid out as inst.edge_differences, so once per edge, with row 0
    the one flux phi(-u(x)) that x's cminus edges to non-interior nodes
    share; inst.edge_sum gives its -Delta_p^h.  With u_ref it also holds
    the nodal flux rho = phi(u - u_ref)."""

    def __init__(self, inst, zeta, x, u_ref=None, tau=None):
        self.inst, self.zeta, self.u_ref, self.tau = inst, zeta, u_ref, tau
        self.sigma = power_map(inst.edge_differences(x), inst.p)
        self.rho = None if u_ref is None else np.zeros_like(u_ref)

    def system(self, x: np.ndarray):
        """Newton-update the fluxes at the iterate x; returns the Newton
        system (A, b), A on the weights 1/psi' of the fluxes."""
        inst = self.inst
        self.slope = _linearize_flux(self.sigma, inst.edge_differences(x),
                                     inst.p)
        J = inst.jacobian_matrix(x, self.slope)
        lap = -inst.weight * inst.edge_sum(self.sigma)
        if self.u_ref is None:
            return J, self.zeta - lap
        self.rho_slope = _linearize_flux(self.rho, x - self.u_ref, inst.p)
        A = scipy.sparse.diags(self.rho_slope) + self.tau * J
        return A, -(self.rho + self.tau * lap)

    def advance(self, delta: np.ndarray) -> None:
        d = self.inst.edge_differences(delta)
        d *= self.slope
        self.sigma += d
        if self.rho is not None:
            self.rho += self.rho_slope * delta


def log_balance(pair, w):
    """(psi, g) at w for psi = log R(w^+) - log R(w^-) and its gradient g,
    or None where a part of w vanishes: the balance row of the bordered
    solve.  The gradient of log R(c) for the part c = max(sign w, 0) is
    dJ(c)/J(c) - dH(c)/H(c) on the part's support.  J of each part is
    taken by Euler, J(c) = <dJ(c), c>/p, from the dJ(c) that g needs
    anyway."""
    psi, g = 0.0, 0.0
    for sign in (1.0, -1.0):
        c = np.maximum(sign * w, 0.0)
        H = pair.H(c)
        if not H > 0.0:
            return None
        zc = pair.subgrad_J(c)
        J = pair.pairing(zc, c) / pair.p
        if not J > 0.0:
            return None
        psi += sign * math.log(J / H)
        g = g + (zc / J - pair.duality_map_H(c) / H) * (sign * w > 0.0)
    return psi, g


class _Border:
    """The balance row psi(u) = 0 (log_balance) and column of a bordered
    p-Poisson solve in x = (u, sigma); see solve_p_poisson.  With flux,
    the primal-dual state of the p-Poisson part, it is damped_newton's
    flux as well.  jacobian and system read the (psi, g) of the latest
    finite residual: damped_newton forms each system only at the iterate
    whose finite residual it evaluated last.  solve preconditions both CG
    solves of a system by one operator: two_level on the pair's aggregates
    without flux, jacobi with flux or where the pair has none."""

    def __init__(self, pair, zeta, zeta_plus, flux=None):
        self.pair, self.zeta, self.zp, self.flux = pair, zeta, zeta_plus, flux
        self.balance = None  # (psi, g) of the latest finite residual
        self.y = None  # the latest solve of A y = zeta_plus

    def residual(self, x):
        n = self.zp.size
        try:
            s = math.exp(x[n])
        except OverflowError:
            return np.full(n + 1, np.inf)
        balance = log_balance(self.pair, x[:n])
        if balance is None:
            return np.full(n + 1, np.inf)
        self.balance = balance
        r = np.empty(n + 1)
        r[:n] = self.pair.subgrad_J(x[:n]) - s * self.zp - self.zeta
        r[n] = balance[0]
        return r

    def jacobian(self, x):
        return (self.pair.jacobian_matrix(x[:-1]), self.balance[1],
                math.exp(x[-1]))

    def system(self, x):
        psi, g = self.balance
        s = math.exp(x[-1])
        A, b = self.flux.system(x[:-1])
        b += s * self.zp
        return (A, g, s), np.append(b, -psi)

    def advance(self, delta):
        self.flux.advance(delta[:-1])

    def solve(self, system, b, rtol):
        A, g, s = system
        budget = cg_budget(self.zp.size)
        aggregates = self.pair.aggregates if self.flux is None else None
        try:
            M = jacobi(A) if aggregates is None else two_level(A, aggregates)
        except np.linalg.LinAlgError:  # P^T A P is not positive definite
            return np.full(b.size, np.nan), SolveReport()
        z = cg_solve(A, b[:-1], rtol, budget, M=M)
        y = cg_solve(A, self.zp, rtol, budget, x0=self.y, M=M)
        self.y = y[0]
        report = z.report + y.report
        slope = s * self.pair.pairing(g, y[0])
        if not slope:
            return np.full(b.size, np.nan), report
        dsigma = (b[-1] - self.pair.pairing(g, z[0])) / slope
        return np.append(z[0] + (s * dsigma) * y[0], dsigma), report


def solve_p_poisson(inst, zeta: np.ndarray, u_init: np.ndarray,
                    settings: NewtonSettings | None = None, border=None
                    ) -> tuple[np.ndarray, SolveReport]:
    """Solve -Delta_p^h u = zeta at interior nodes, zero Dirichlet boundary.

    inst is a PLaplaceInstance; zeta and u_init are interior vectors.

    border = zeta_plus adds the unknown sigma and one equation:
    x = (u, sigma) solves
        dJ(u) - e^sigma zeta_plus = zeta,    psi(u) = 0,
    for the balance psi = log R(u^+) - log R(u^-) of this module's
    log_balance, with gradient g, d psi = <g, du>; where a part of u
    vanishes psi is undefined and the residual infinite.  u_init is the
    start of x and x is returned.  For p >= 2 inst may be any
    FunctionalPair: the solve reads its subgrad_J, jacobian_matrix and
    pairing.  The residual is the max-norm over both equations.  Each
    Newton system
        A du - e^sigma zeta_plus dsigma = b_u,    <g, du> = b_sigma,
    is solved by Keller's bordering ("Numerical solution of bifurcation
    and nonlinear eigenvalue problems", 1977): CG solves A z = b_u and
    A y = zeta_plus to the tolerance damped_newton hands its linear solve,
    with one preconditioner built per system; as zeta_plus is fixed, the
    solve for y starts from the previous Newton step's y.  Then
        dsigma = (b_sigma - <g, z>) / (e^sigma <g, y>),
        du = z + e^sigma dsigma y;
    a zero <g, y> gives a NaN step, which ends the solve.  For p >= 2
    (locally_quadratic) A = jacobian_matrix(u), the step is the halving
    one, forcing included, and the preconditioner is two_level on
    inst.aggregates where inst has them, jacobi otherwise; a coarse matrix
    that is not positive definite gives a NaN step as well.  Below p = 2
    the step is the primal-dual step of the plain solve, with A its
    Jacobian on the edge weights, b_u its right-hand side plus e^sigma
    zeta_plus and the preconditioner jacobi; a trial is halved only while
    its residual is infinite, as where a part of u vanishes.
    """
    quadratic = locally_quadratic(inst.p)
    flux = None if quadratic else _Flux(
        inst, zeta, u_init if border is None else u_init[:-1])
    if border is not None:
        bordered = _Border(inst, zeta, border, flux)
        return damped_newton(u_init, bordered.residual, bordered.jacobian,
                             settings, linear_solve=bordered.solve,
                             flux=None if quadratic else bordered)

    def residual(x):
        return inst.subgrad_J(x) - zeta

    return damped_newton(u_init, residual, inst.jacobian_matrix, settings,
                         flux=flux, linear=inst.p == 2)


def solve_prox(inst, u_ref: np.ndarray, tau: float,
               settings: NewtonSettings | None = None
               ) -> tuple[np.ndarray, SolveReport]:
    """Proximal step: solve |v-u|^(p-2)(v-u) + tau * (-Delta_p^h v) = 0.

    This is the optimality condition of argmin_v H(v - u_ref) + tau J(v);
    the caller applies the tau = tau_tilde^(p-1) reparameterization.
    inst is a PLaplaceInstance and u_ref an interior vector, from which
    the solve starts.
    """
    if not 0 < tau < math.inf:
        raise ValueError("tau must be positive and finite")

    def residual(x):
        return inst.duality_map_H(x - u_ref) + tau * inst.subgrad_J(x)

    def jacobian(x):
        return scipy.sparse.diags(inst.duality_map_H_prime(x - u_ref)) \
            + tau * inst.jacobian_matrix(x)

    return damped_newton(u_ref, residual, jacobian, settings,
                         flux=None if locally_quadratic(inst.p)
                         else _Flux(inst, None, u_ref, u_ref, tau),
                         linear=inst.p == 2)

"""The four iterative eigensolvers: inverse power method, proximal power
method, balanced higher-order inverse iteration, and the cosine-ascent
(geometric characterization) scheme.

All four run on one outer loop, `_iterate`.  It evaluates each iterate u^k
once, when it is formed (the normalized start, then each normalized step):
R(u^k), J(u^k), dJ(u^k) and the eigen-residual.  That evaluation feeds the
step, the record of u^k (R; the cosine similarity, the duality gap and the
eigen-residual), the residual_tol stop test and the final eigenpair, and a
record's wall_time covers it, the step and the record.  The loop passes
each new iterate to snapshot_cb.  It stops after iters steps (max_iter),
once a new iterate's eigen-residual is <= residual_tol (residual_tol) or
when a step stalls (stalled, keeping u^k), and sets converged from the
final eigen-residual (<= residual_tol, else 1e-6).  A scheme supplies only
its step, step(k, u, R(u), J(u), dJ(u), res) -> (v, dual_rq, report), for
the eigen-residual res of u (read by the inverse power method alone): the next
iterate before normalization or None for a stall, the record's dual
Rayleigh quotient or None, and the SolveReport of the step's inner solves,
summed if several.  The step's record holds that report as its inner,
alike for every scheme, and extras["failed_inner_solves"] lists the steps
whose report has not converged.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse

from .functional import (FunctionalPair, SolveReport,
                         fenchel_conjugate_value, power_map)
from .newton import (NewtonSettings, cg_solve, damped_newton,
                     locally_quadratic, solve_p_poisson)
from . import metrics

INNER_TOL_FACTOR = 1e-4  # inexact IPM solve tolerance per unit eigen-residual
BALANCE_TOL = 1e-6  # |phi| at the root of the balance
BALANCE_RANGE = 2.0 ** 12  # a balance root is taken in [1/this, this]
TAU0 = 2.0  # the first rung of the geometric step-size ladder TAU0 2^-j
LADDER_LEN = 12
SUFFICIENT_DECREASE = 0.2  # the fraction of F a geometric step must remove
N_SWEEPS = 10  # fixed-point sweeps per rung of the geometric ladder
POLISH = NewtonSettings(tol_abs=1e-10, max_iter=12)  # the geometric polish
POLISH_CG_RTOL, POLISH_CG_BUDGET = 1e-13, 200  # each polish CG solve's stop


@dataclass
class EigenTrace:
    """A run of one scheme.  Every inner solve belongs to a step, so the
    records' reports hold all of the run's inner work (inner_work)."""

    records: list[metrics.IterationRecord]
    final_u: np.ndarray  # a vector of the pair: interior nodes on a grid
    final_lambda: float
    solver_tag: str
    converged: bool
    stop_reason: str  # max_iter | residual_tol | stalled
    extras: dict = field(default_factory=dict)

    @property
    def inner_work(self) -> SolveReport:
        """The records' reports, summed."""
        return sum((r.inner for r in self.records), SolveReport())


def _normalize(pair: FunctionalPair, u: np.ndarray) -> np.ndarray:
    n = pair.norm_H(u)
    if not 0.0 < n < math.inf:
        raise ValueError(f"cannot normalize a vector of norm {n}")
    return u / n


def _evaluate(pair, u):
    """(R(u), J(u), dJ(u), eigen-residual of u), from one J and one dJ."""
    Ju, zJ = pair.energy_J(u), pair.subgrad_J(u)
    return Ju / pair.H(u), Ju, zJ, metrics.eigen_residual(pair, u, zJ)


def _iterate(pair, u0, iters, step, tag, extras, residual_tol=None,
             snapshot_cb=None) -> EigenTrace:
    """The outer loop of every scheme, described in the module docstring."""
    if residual_tol is not None and not 0 < residual_tol < math.inf:
        raise ValueError("residual_tol must be positive and finite")
    u = _normalize(pair, pair.as_vector(u0))
    records, stop_reason = [], "max_iter"
    t0 = time.perf_counter()
    rq, Ju, zJ, res = _evaluate(pair, u)
    for k in range(iters):
        v, dual_rq, report = step(k, u, rq, Ju, zJ, res)
        records.append(metrics.IterationRecord(
            k=k, rq=rq, dual_rq=dual_rq,
            cosim=metrics.cosine_similarity(pair, u, zJ),
            gap=metrics.duality_gap(  # of (u, dJ(u)): u is in dJ*(dJ(u))
                pair, rq, metrics.dual_rayleigh_quotient(pair, zJ, u, Ju)),
            residual=res, inner=report,
            wall_time=time.perf_counter() - t0))
        if v is None:
            stop_reason = "stalled"
            break
        u = _normalize(pair, v)
        if snapshot_cb is not None:
            snapshot_cb(k + 1, u)
        t0 = time.perf_counter()
        rq, Ju, zJ, res = _evaluate(pair, u)
        if residual_tol is not None and res <= residual_tol:
            stop_reason = "residual_tol"
            break
    extras["failed_inner_solves"] = [
        r.k for r in records if not r.inner.converged]
    tol = 1e-6 if residual_tol is None else residual_tol
    return EigenTrace(records=records, final_u=u, final_lambda=rq,
                      solver_tag=tag, converged=res <= tol,
                      stop_reason=stop_reason, extras=extras)


def ray_start(pair: FunctionalPair, u: np.ndarray, rq: float) -> np.ndarray:
    """R(u)^(-1/(p-1)) u for rq = R(u), the start of the inner solves of IPM
    and the balanced scheme.  It solves dJ(w) = dH(u) when u is an
    eigenvector: J is absolutely p-homogeneous, so there
    dJ(c u) = c^(p-1) dJ(u) = c^(p-1) R(u) dH(u)."""
    return rq ** (-1.0 / (pair.p - 1.0)) * u


def run_ipm(pair: FunctionalPair, u0: np.ndarray, iters: int,
            settings: NewtonSettings | None = None,
            residual_tol: float | None = None,
            snapshot_cb=None, exact: bool = False) -> EigenTrace:
    """Inverse power method: zeta = dH(u), solve zeta in dJ(v), normalize.

    Per iteration the record holds the metrics of the current iterate u^k
    together with the dual Rayleigh quotient of zeta^k (evaluated through
    the half-step v), which tracks the eigenvalue from the dual side.

    Each inner solve starts on the eigen-ray (ray_start), so late solves
    take one to three Newton steps.

    The inner solves are inexact for p >= 2 (locally_quadratic): step
    k < iters - 1 solves to tol_abs = max(settings.tol_abs,
    INNER_TOL_FACTOR res_k) for the eigen-residual res_k of u^k, as an
    inner tolerance proportional to the outer residual keeps the rate of
    inverse iteration (Golub & Ye, BIT 40, 2000; Berns-Mueller, Graham &
    Spence, Linear Algebra Appl. 416, 2006).  The last step solves to
    settings.tol_abs, so the final eigenpair is as accurate as with exact
    solves; a run that residual_tol stops earlier ends at an iterate that
    meets it.  Below p = 2 every solve keeps settings.tol_abs, as does
    exact=True, the setting of the paper's monotonicity and convergence
    theorems.  extras["inner_tolerances"] lists the tol_abs each step's
    solve was given, against which failed_inner_solves judges it.

    On a loose step the recorded dual_rq, (<zeta, v> - J(v)) / H*(zeta),
    is a lower bound of R*(zeta) by the Fenchel-Young inequality.  Its
    error is the Bregman distance of J between v and the exact solve,
    second order in the solve's error.  The Euler route <zeta, v> / q to
    J*(zeta) differs to first order, so the two routes agree to rounding
    only after exact solves.
    """
    settings = settings or NewtonSettings()
    inexact = not exact and locally_quadratic(pair.p)
    tolerances = []

    def step(k, u, rq, Ju, zJ, res):
        inner = settings
        if inexact and k < iters - 1:
            inner = replace(settings, tol_abs=max(
                settings.tol_abs, INNER_TOL_FACTOR * res))
        tolerances.append(inner.tol_abs)
        zeta = pair.duality_map_H(u)
        v, rep = pair.inverse_subgrad_J(zeta, inner,
                                        warm_start=ray_start(pair, u, rq))
        return v, metrics.dual_rayleigh_quotient(
            pair, zeta, v, pair.energy_J(v)), rep

    return _iterate(pair, u0, iters, step, "ipm",
                    {"inner_tolerances": tolerances}, residual_tol,
                    snapshot_cb)


def run_ppm(pair: FunctionalPair, u0: np.ndarray, tau_tilde: float,
            iters: int, settings: NewtonSettings | None = None,
            residual_tol: float | None = None,
            snapshot_cb=None) -> EigenTrace:
    """Proximal power method: v = prox of tau*J at u^k, then normalize.

    tau = tau_tilde^(p-1).  The record's dual_rq column carries the dual
    Rayleigh quotient R*_tau of the prox-as-inverse-iteration formulation
    (always < 1).  extras carries lambda_tau = J(u)/J_tau(u) per step and
    the eigenvalue recovered in closed form from the last step's,
    lambda = (lambda_tau/tau)(1-lambda_tau^(1-q))^(p-1)
    ("lambda_recovered"): the eigenvalue of the last record's iterate,
    beside its rq, with no solve after the loop (None after 0 steps).
    """
    if not 0 < tau_tilde < math.inf:
        raise ValueError("tau_tilde must be positive and finite")
    p, q = pair.p, pair.q
    tau = tau_tilde ** (p - 1.0)
    lam_taus = []

    def step(k, u, rq, Ju, zJ, res):
        v, rep = pair.prox_J(u, tau, settings)
        eta = pair.duality_map_H(u - v) / tau
        Jv = pair.energy_J(v)
        Jstar = fenchel_conjugate_value(pair, eta, v, Jv)
        Hstar = pair.dual_norm_H(eta) ** q / q
        lam_taus.append(Ju / (pair.H(v - u) / tau + Jv))  # J(u) / J_tau(u)
        return v, Jstar / (tau ** (q - 1.0) * Hstar + Jstar), rep

    extras = {"lambda_tau": lam_taus, "lambda_recovered": None, "tau": tau}
    trace = _iterate(pair, u0, iters, step, "ppm", extras, residual_tol,
                     snapshot_cb)
    if lam_taus:
        lam_tau = lam_taus[-1]
        extras["lambda_recovered"] = \
            (lam_tau / tau) * (1.0 - lam_tau ** (1.0 - q)) ** (p - 1.0)
    return trace


def balance_defect(pair, w):
    """phi = R(w^+) - R(w^-), NaN where a part of w vanishes."""
    rqs = []
    for c in (np.maximum(w, 0.0), np.maximum(-w, 0.0)):
        H = pair.H(c)
        if not H > 0.0:
            return math.nan
        rqs.append(pair.energy_J(c) / H)
    return rqs[0] - rqs[1]


def run_balanced_ipm(pair: FunctionalPair, u0: np.ndarray, iters: int,
                     settings: NewtonSettings | None = None,
                     snapshot_cb=None) -> EigenTrace:
    """Inverse iteration with the dual iterate's positive part rescaled so
    the Rayleigh quotients of the positive and negative parts of the solve
    match; targets the sign-changing second eigenfunction.

    The start, read by pair.as_vector, must change sign.  The balance s
    of zeta_s = s*zeta^+ - zeta^- roots the defect phi(s) = R(w^+) - R(w^-)
    of the solve w of dJ(w) = zeta_s (balance_defect).

    A step is one bordered Newton solve (solve_p_poisson, border zeta^+)
    for w and sigma = log s together, of dJ(w) - e^sigma zeta^+ = -zeta^-
    and psi(w) = 0 for psi = log R(w^+) - log R(w^-) (newton.log_balance):
    the halving step for p >= 2, the primal-dual step below.  It starts from
    s0 = |zeta^-|_*/|zeta^+|_* and the eigen-ray (ray_start) with its
    positive part scaled by s0^(1/(p-1)), which solves the first equation
    where u is an eigenvector.  The step takes the solve's root or stalls.
    It takes it if the solve's residual is finite, the solve converged or
    left its start, e^sigma lies in the balance range [1/BALANCE_RANGE,
    BALANCE_RANGE] and |phi| <= BALANCE_TOL; both parts of such a root
    are nonzero.  After the first step the start is balanced (scaling a
    part keeps its Rayleigh quotient), so a solve that returns it
    unconverged has found no root.  Otherwise the step stalls, and unless
    both zeta^+ and zeta^- have a positive, finite dual norm in floating
    point it stalls without a solve.  The step reports its solve, taken or
    not, so an unconverged solve is listed in failed_inner_solves; the
    final iterate is the last root taken, or the normalized start.

    extras list each step's e^sigma ("balance_roots") and |phi|
    ("balance_defects") of its solve, NaN where no solve ran or, for
    |phi|, where a part of the solve vanishes, and the step that stalled
    on a refused root ("fallback_steps", the last record's if any).
    """
    u0 = pair.as_vector(u0)
    if not (np.any(u0 > 0) and np.any(u0 < 0)):
        raise ValueError("balanced iteration needs a sign-changing start")
    refused, roots, defects = [], [], []

    def step(k, u, rq, Ju, zJ, res):
        zeta = pair.duality_map_H(u)
        zp = np.maximum(zeta, 0.0)
        zm = np.maximum(-zeta, 0.0)
        norm_p, norm_m = pair.dual_norm_H(zp), pair.dual_norm_H(zm)
        if not (0.0 < norm_p < math.inf and 0.0 < norm_m < math.inf):
            refused.append(k)  # a part has no dual norm in floating point
            roots.append(math.nan)
            defects.append(math.nan)
            return None, None, SolveReport()
        s0 = norm_m / norm_p
        ray = ray_start(pair, u, rq)
        x0 = np.append(ray, math.log(s0))
        x0[:-1][ray > 0.0] *= s0 ** (1.0 / (pair.p - 1.0))
        x, rep = solve_p_poisson(pair, -zm, x0, settings, border=zp)
        w, sigma = x[:-1], x[-1]
        defect = abs(balance_defect(pair, w))
        roots.append(math.exp(sigma))
        defects.append(defect)
        if (np.isfinite(rep.final_residual)
                and (rep.converged or not np.array_equal(x, x0))
                and abs(sigma) <= math.log(BALANCE_RANGE)
                and defect <= BALANCE_TOL):
            return w, None, rep
        refused.append(k)
        return None, None, rep

    extras = {"fallback_steps": refused, "balance_roots": roots,
              "balance_defects": defects}
    return _iterate(pair, u0, iters, step, "balanced", extras,
                    snapshot_cb=snapshot_cb)


def run_geometric(pair: FunctionalPair, u0: np.ndarray, iters: int,
                  snapshot_cb=None) -> EigenTrace:
    """Descent on F(u) = 1 - cosim(u, dJ(u)) via a semi-implicit step.

    Each step resolves, for a trial step size tau,
        dH((w - u)/tau) = [p dJ(w) - cosim * (G_H |z|_* + d2J(u) G_H* |u|_H)]
                          / (|u|_H |z|_*),
    where z = dJ(u) and G_H, G_H* are the gradients of the primal and dual
    norms at u and z.  A step screens the ladder TAU0 2^-j (LADDER_LEN
    rungs) with the cheap fixed-point sweep, stopping once a sweep halves
    F, then polishes once with damped Newton (settings POLISH) from the
    lowest sweep at its tau: a polish costs up to 12 linear solves, one in
    the far field (_polish), so polishing every rung spent nearly the whole
    run on polishes the sweeps then beat.  Sweeps and the polish are
    line-search candidates (for large tau the equation may have no
    solution, leaving only the partially resolved iterate).  The lowest F
    after normalization is accepted if it drops by the SUFFICIENT_DECREASE
    fraction; otherwise the scheme reports a stall, which at a
    non-eigenvector extremum of the cosine similarity leaves a large
    eigen-residual behind.
    extras["candidate"] names each accepted step's winner, "sweep" or
    "polish", extras["far_field"] the steps whose polish stopped in the
    far field and offered no candidate, and extras["F"] each record's
    1 - cosim.  The step reports its polish as _polish returned it, with
    the CG work of its linear solves, whichever candidate wins and on a
    stall too; the report is empty when no sweep was finite.
    """
    p, q = pair.p, pair.q
    winners, far_field = [], []

    def normalized_F(x):  # F of x normalized
        try:
            w = _normalize(pair, x)
        except ValueError:
            return np.nan
        return 1.0 - metrics.cosine_similarity(pair, w, pair.subgrad_J(w))

    def step(k, u, rq, Ju, zeta, res):
        nu = pair.norm_H(u)
        nz = pair.dual_norm_H(zeta)
        cos = pair.pairing(zeta, u) / (nu * nz)
        F_u = 1.0 - cos
        G_H = nu ** (1.0 - p) * pair.duality_map_H(u)
        G_Hs = nz ** (1.0 - q) * power_map(zeta, q)
        E = G_H * nz + (pair.jacobian_matrix(u) @ G_Hs) * nu
        D = nu * nz

        explicit = cos * E / D
        first = power_map(_implicit_rhs(pair, zeta, explicit, D), q)
        seed_F, seed = np.inf, None  # the lowest finite sweep
        for j in range(LADDER_LEN):
            tau = TAU0 * 0.5 ** j
            x = _sweep(pair, u, tau, explicit, D, first)
            F_w = normalized_F(x) if x is not None else np.nan
            if np.isfinite(F_w) and F_w < seed_F:
                seed_F, seed = F_w, (tau, x)
            if seed_F < F_u and seed_F <= 0.5 * F_u:
                break
        best_F, best_w, best_kind = F_u, None, None
        report = SolveReport()
        if seed is not None:
            tau, x = seed
            if seed_F < F_u:
                best_F, best_w, best_kind = seed_F, x, "sweep"
            x, report = _polish(pair, u, tau, explicit, D, x)
            if x is None and np.isfinite(report.final_residual):
                far_field.append(k)
            F_w = normalized_F(x) if x is not None else np.nan
            if np.isfinite(F_w) and F_w < best_F:
                best_F, best_w, best_kind = F_w, x, "polish"
        if best_w is None or best_F > (1.0 - SUFFICIENT_DECREASE) * F_u:
            return None, None, report
        winners.append(best_kind)
        return best_w, None, report

    extras = {"candidate": winners, "far_field": far_field}
    trace = _iterate(pair, u0, iters, step, "geometric", extras,
                     snapshot_cb=snapshot_cb)
    extras["F"] = [1.0 - r.cosim for r in trace.records]
    return trace


def _implicit_rhs(pair, zx, explicit, D):
    """Right-hand side of the semi-implicit step at x, for zx = dJ(x)."""
    return pair.p * zx / D - explicit


def _sweep(pair, u, tau, explicit, D, first):
    """Fixed-point sweep x <- u + tau rhs(x)^(q-1) of the semi-implicit
    step from x = u, N_SWEEPS times or until the next iterate overflows;
    the last finite x, or None if none is.  first is rhs(u)^(q-1), the
    same on every rung of the ladder, so the first pass (the explicit
    step) evaluates no dJ."""
    x, direction = None, first
    for i in range(N_SWEEPS):
        xn = u + tau * direction
        if not np.all(np.isfinite(xn)):
            break
        x = xn
        if i < N_SWEEPS - 1:
            direction = power_map(
                _implicit_rhs(pair, pair.subgrad_J(x), explicit, D), pair.q)
    return x


def _polish(pair, u, tau, explicit, D, x):
    """Damped Newton polish of the sweep result x at step size tau, under
    the Newton stop POLISH.

    Each Newton system M delta = b, M = diag - (p/D) H, is sparse and
    symmetric but often indefinite.  Jacobi-PCG (cg_solve to POLISH_CG_RTOL
    within POLISH_CG_BUDGET) runs on M as it is, and damped_newton's
    halving line search takes a step only where it lowers the residual, so
    a step CG did not resolve costs its work, not the iterate.  The budget
    caps the work of a system CG resolves slowly, whose truncated step the
    line search then judges.

    Far from its root the residual is (p-1)-homogeneous in w = x - u, so
    the Newton step is -w/(p-1) (Euler) and cuts the residual only by
    ((p-2)/(p-1))^(p-1), 4x at p = 3, while the step's relative deviation
    from -w/(p-1) grows by (p-1)/(p-2) per step.  For p > 2, if the first
    step's deviation would stay below 1 for all POLISH.max_iter steps,
    the polish stops after that one solve (far field).  At p = 2 Newton is
    exact, and below it the step flips the sign of w.

    Returns (x, the Newton report with the CG work of its solves), x None
    after a far-field stop, whose report keeps the seed's finite residual,
    and when the report's residual is not finite: the sweep's residual is
    not, or CG gave a non-finite step.  The p != 2 kernel degenerates where
    the nodewise step is small and for large tau the equation may have no
    solution, so Newton may not converge; the caller's line search
    arbitrates.
    """
    def resid(xv):
        return pair.duality_map_H((xv - u) / tau) \
            - _implicit_rhs(pair, pair.subgrad_J(xv), explicit, D)

    def jacobian(xv):
        M_diag = pair.duality_map_H_prime((xv - u) / tau) / tau
        return scipy.sparse.diags(M_diag) \
            - (pair.p / D) * pair.jacobian_matrix(xv)

    p = pair.p
    first, far = p > 2, None  # far: the seed's residual, in the far field

    def solve(M, b, rtol):  # at POLISH_CG_RTOL, not damped_newton's rtol
        nonlocal first, far
        cg = cg_solve(M, b, POLISH_CG_RTOL, POLISH_CG_BUDGET)
        if first:  # the step from the seed x
            first = False
            v = (x - u) / (p - 1.0)  # the far-field step is -v
            growth = ((p - 1.0) / (p - 2.0)) ** (POLISH.max_iter - 1)
            if np.linalg.norm(cg[0] + v) * growth < np.linalg.norm(v):
                far = float(np.max(np.abs(b)))
                return np.full_like(b, np.nan), cg.report
        return cg[0], cg.report

    y, report = damped_newton(x, resid, jacobian, POLISH, solve)
    if far is not None:
        return None, replace(report, final_residual=far)
    return (y if np.isfinite(report.final_residual) else None), report

"""The four iterative eigensolvers: inverse power method, proximal power
method, balanced higher-order inverse iteration, and the cosine-ascent
(geometric characterization) scheme.

All four run on one outer loop, `_iterate`.  It normalizes the start, times
each step, records each iterate u^k (R, the cosine similarity and the
duality gap from one dJ(u^k), and the eigen-residual, reused from the
residual_tol stop test) and passes each new iterate to snapshot_cb.  It
stops after iters steps (max_iter), once a new iterate's eigen-residual is
<= residual_tol (residual_tol) or when a step stalls (stalled, keeping
u^k), and sets converged from the final eigen-residual (<= residual_tol,
else 1e-6).  A scheme supplies only its step, step(k, u) -> (v, dual_rq,
inner_iters): the next iterate before normalization or None for a stall,
the record's dual Rayleigh quotient or None, and the step's inner work.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .functional import FunctionalPair, power_map
from .newton import NewtonSettings, damped_newton, solve_p_poisson
from . import metrics

SENTINEL = 1e12  # the balance defect where one part of the solve vanishes
BALANCE_TOL = 1e-6  # |phi| at the root of the balance
TAU0 = 2.0  # the first rung of the geometric step-size ladder TAU0 2^-j
LADDER_LEN = 12
SUFFICIENT_DECREASE = 0.2  # the fraction of F a geometric step must remove
N_SWEEPS = 10  # fixed-point sweeps per rung of the geometric ladder


@dataclass
class EigenTrace:
    records: list[metrics.IterationRecord]
    final_u: np.ndarray
    final_lambda: float
    solver_tag: str
    converged: bool
    stop_reason: str  # max_iter | residual_tol | stalled
    extras: dict = field(default_factory=dict)


def _normalize(pair: FunctionalPair, u: np.ndarray) -> np.ndarray:
    n = pair.norm_H(u)
    if n <= 0.0:
        raise ValueError("cannot normalize the zero vector")
    return u / n


def _iterate(pair, u0, iters, step, tag, extras, residual_tol=None,
             snapshot_cb=None) -> EigenTrace:
    """The outer loop of every scheme, described in the module docstring."""
    u = _normalize(pair, np.asarray(u0, dtype=float))
    records = []
    stop_reason = "max_iter"
    res = None  # eigen-residual of u, when the stop test computed it
    for k in range(iters):
        t0 = time.perf_counter()
        v, dual_rq, inner_iters = step(k, u)
        zJ = pair.subgrad_J(u)
        records.append(metrics.IterationRecord(
            k=k, rq=metrics.rayleigh_quotient(pair, u),
            dual_rq=dual_rq,
            cosim=metrics.cosine_similarity(pair, u, zJ),
            gap=metrics.duality_gap(pair, u, zJ, u),
            residual=(res if res is not None
                      else metrics.eigen_residual(pair, u)),
            inner_iters=inner_iters,
            wall_time=time.perf_counter() - t0))
        if v is None:
            stop_reason = "stalled"
            break
        u = _normalize(pair, v)
        if snapshot_cb is not None:
            snapshot_cb(k + 1, u)
        if residual_tol is not None:
            res = metrics.eigen_residual(pair, u)
            if res <= residual_tol:
                stop_reason = "residual_tol"
                break
    if res is None:
        res = metrics.eigen_residual(pair, u)
    tol = residual_tol if residual_tol is not None else 1e-6
    return EigenTrace(records=records, final_u=u,
                      final_lambda=metrics.rayleigh_quotient(pair, u),
                      solver_tag=tag, converged=res <= tol,
                      stop_reason=stop_reason, extras=extras)


def run_ipm(pair: FunctionalPair, u0: np.ndarray, iters: int,
            settings: NewtonSettings | None = None,
            residual_tol: float | None = None,
            snapshot_cb=None) -> EigenTrace:
    """Inverse power method: zeta = dH(u), solve zeta in dJ(v), normalize.

    Per iteration the record holds the metrics of the current iterate u^k
    together with the dual Rayleigh quotient of zeta^k (evaluated through
    the half-step v).  The eigenvalue is tracked both as R(u^k) and as
    |v|_H^(1-p); both histories live in extras.
    """
    lam_half, failed, inner_res = [], [], []

    def step(k, u):
        zeta = pair.duality_map_H(u)
        v, rep = pair.inverse_subgrad_J(zeta, settings, warm_start=u)
        inner_res.append(rep.final_residual)
        if not rep.converged:
            failed.append(k)
        lam_half.append(pair.norm_H(v) ** (1.0 - pair.p))
        return v, metrics.dual_rayleigh_quotient(pair, zeta, v), \
            rep.iterations

    extras = {"lambda_rq": [], "lambda_half_step": lam_half,
              "failed_inner_solves": failed, "inner_residuals": inner_res}
    trace = _iterate(pair, u0, iters, step, "ipm", extras, residual_tol,
                     snapshot_cb)
    extras["lambda_rq"] = [rec.rq for rec in trace.records]
    return trace


def run_ppm(pair: FunctionalPair, u0: np.ndarray, tau_tilde: float,
            iters: int, settings: NewtonSettings | None = None,
            residual_tol: float | None = None,
            snapshot_cb=None) -> EigenTrace:
    """Proximal power method: v = prox of tau*J at u^k, then normalize.

    tau = tau_tilde^(p-1).  The record's dual_rq column carries the dual
    Rayleigh quotient R*_tau of the prox-as-inverse-iteration formulation
    (always < 1).  extras carries lambda_tau = J(u)/J_tau(u) per step and
    the recovered eigenvalue lambda = (lambda_tau/tau)(1-lambda_tau^(1-q))^(p-1)
    at the final iterate.
    """
    if tau_tilde <= 0:
        raise ValueError("tau_tilde must be positive")
    p, q = pair.p, pair.q
    tau = tau_tilde ** (p - 1.0)
    lam_taus, failed = [], []

    def moreau_data(u_cur, v_cur):
        eta = pair.duality_map_H(u_cur - v_cur) / tau
        Jv = pair.energy_J(v_cur)
        Jstar = pair.pairing(eta, v_cur) - Jv
        Hstar = pair.dual_norm_H(eta) ** q / q
        rstar_tau = Jstar / (tau ** (q - 1.0) * Hstar + Jstar)
        J_tau = pair.H(v_cur - u_cur) / tau + Jv
        lam_tau = pair.energy_J(u_cur) / J_tau
        return rstar_tau, lam_tau

    def step(k, u):
        v, rep = pair.prox_J(u, tau, settings)
        if not rep.converged:
            failed.append(k)
        rstar_tau, lam_tau = moreau_data(u, v)
        lam_taus.append(lam_tau)
        return v, rstar_tau, rep.iterations

    extras = {"lambda_tau": lam_taus, "lambda_recovered": None, "tau": tau,
              "failed_inner_solves": failed}
    trace = _iterate(pair, u0, iters, step, "ppm", extras, residual_tol,
                     snapshot_cb)
    # eigenvalue recovery at the final iterate
    v, _ = pair.prox_J(trace.final_u, tau, settings)
    _, lam_tau = moreau_data(trace.final_u, v)
    extras["lambda_recovered"] = \
        (lam_tau / tau) * (1.0 - lam_tau ** (1.0 - q)) ** (p - 1.0)
    return trace


def illinois(f, a, b, fa, fb, ftol: float, max_iter: int = 60):
    """Illinois regula falsi (Dowell & Jarratt, BIT 1971) on [a, b], stopping
    on |f| <= ftol, with one f evaluation (here a Newton solve) per step.

    x replaces the latest end b when f(x) has its sign, and the kept end's
    value is halved so that the iteration cannot stall there.  While either
    end holds a +-SENTINEL it bisects and halves nothing.
    """
    if abs(fa) <= ftol:
        return a, fa, 0
    if abs(fb) <= ftol:
        return b, fb, 0
    if fa * fb > 0:
        raise ValueError("root not bracketed")
    best_x, best_f = (a, fa) if abs(fa) < abs(fb) else (b, fb)
    for evals in range(1, max_iter + 1):  # a: kept end, b: latest end
        bisect = max(abs(fa), abs(fb)) >= SENTINEL
        x = 0.5 * (a + b) if bisect else (a * fb - b * fa) / (fb - fa)
        fx = f(x)
        if abs(fx) < abs(best_f):
            best_x, best_f = x, fx
        if abs(fx) <= ftol:
            return x, fx, evals
        if fx * fb < 0:
            a, fa = b, fb
        elif not bisect:
            fa *= 0.5
        b, fb = x, fx
    return best_x, best_f, max_iter


def secant_predictor(cache: dict, s: float, warm: np.ndarray) -> np.ndarray:
    """Start for the solve at balance s: the straight line through the
    cached solutions at the two balances nearest s, or warm when fewer than
    two are cached."""
    if len(cache) < 2:
        return warm
    s0, s1 = sorted(cache, key=lambda t: abs(t - s))[:2]
    theta = (s - s0) / (s1 - s0)
    return cache[s0] + theta * (cache[s1] - cache[s0])


def run_balanced_ipm(inst, u0: np.ndarray, iters: int,
                     settings: NewtonSettings | None = None,
                     snapshot_cb=None) -> EigenTrace:
    """Inverse iteration with the dual iterate's positive part rescaled so
    the Rayleigh quotients of the positive and negative parts of the solve
    match; targets the sign-changing second eigenfunction.

    inst must be a PLaplaceInstance (the balancing uses clipped grid
    fields).  The balance s of zeta_s = s*zeta^+ - zeta^- roots the defect
    phi(s) = R(w^+) - R(w^-) of the solve w to |phi| <= BALANCE_TOL.
    phi > 0 as s -> 0, where w^+ vanishes, and phi < 0 as s -> inf, so the
    sign of phi(1) tells on which side of 1 to expand s = 2^(+-m); Illinois
    regula falsi roots the bracket.  Each solve starts from the secant
    predictor through the two cached solutions at the balances nearest s
    (continuation in s); the first two start from u and from the previous
    solution.  The scheme stalls when both parts of the solve vanish or the
    solve does not change sign.  extras lists each step's root s, its solve
    count, and the steps with a failed solve.
    """
    u0 = np.asarray(u0, dtype=float)
    if not (np.any(u0 > 0) and np.any(u0 < 0)):
        raise ValueError("balanced iteration needs a sign-changing start")
    fallback_steps, failed, roots, solves = [], [], [], []

    def partial_rq(w, sign):
        clipped = np.maximum(sign * w, 0.0)
        Hc = inst.H(clipped)
        if Hc <= 0.0:
            return None
        return inst.energy_J(clipped) / Hc

    def step(k, u):
        zeta = inst.duality_map_H(u)
        zp = np.maximum(zeta, 0.0)
        zm = np.maximum(-zeta, 0.0)
        inner_total, step_failed = 0, False
        cache: dict[float, np.ndarray] = {}

        def solve_w(s):
            nonlocal inner_total, step_failed
            if s in cache:
                return cache[s]
            last = next(reversed(cache.values()), u)
            w, rep = solve_p_poisson(inst, s * zp - zm,
                                     secant_predictor(cache, s, last),
                                     settings)
            inner_total += rep.iterations
            step_failed |= not rep.converged
            cache[s] = w
            return w

        def phi(s):
            # missing positive part -> need larger s (treat as huge positive
            # defect); missing negative part -> huge negative defect
            w = solve_w(s)
            rp = partial_rq(w, +1.0)
            rm = partial_rq(w, -1.0)
            if rp is None and rm is None:
                return np.nan
            if rp is None:
                return SENTINEL
            if rm is None:
                return -SENTINEL
            return rp - rm

        s_root = 1.0
        f1 = phi(1.0)
        if abs(f1) > BALANCE_TOL:  # False for NaN, which stalls below
            # bracket by expanding s = 2^(+-m) on the side of the root only
            a, fa = 1.0, f1
            b, fb = None, None
            for mexp in range(1, 13):
                c = (2.0 if f1 > 0 else 0.5) ** mexp
                fc = phi(c)
                if np.isnan(fc):
                    continue
                if fc * f1 < 0:
                    b, fb = c, fc
                    break
                a, fa = c, fc
            if b is None:  # no bracket; fall back to s = 1
                fallback_steps.append(k)
            else:
                (lo, flo), (hi, fhi) = sorted([(a, fa), (b, fb)])
                s_root, _, _ = illinois(phi, lo, hi, flo, fhi, BALANCE_TOL)
        w = solve_w(s_root)
        roots.append(s_root)
        solves.append(len(cache))
        if step_failed:
            failed.append(k)
        stalled = np.isnan(f1) or not (np.any(w > 0) and np.any(w < 0))
        return (None if stalled else w), None, inner_total

    extras = {"fallback_steps": fallback_steps, "failed_inner_solves": failed,
              "balance_roots": roots, "balance_solves": solves}
    return _iterate(inst, u0, iters, step, "balanced", extras,
                    snapshot_cb=snapshot_cb)


def run_geometric(pair: FunctionalPair, u0: np.ndarray, iters: int,
                  settings: NewtonSettings | None = None,
                  snapshot_cb=None) -> EigenTrace:
    """Descent on F(u) = 1 - cosim(u, dJ(u)) via a semi-implicit step.

    Each step resolves, for a trial step size tau,
        dH((w - u)/tau) = [p dJ(w) - cosim * (G_H |z|_* + d2J(u) G_H* |u|_H)]
                          / (|u|_H |z|_*),
    where z = dJ(u) and G_H, G_H* are the gradients of the primal and dual
    norms at u and z.  A step screens the ladder TAU0 2^-j (LADDER_LEN
    rungs) with the cheap fixed-point sweep, stopping once a sweep halves
    F, then polishes once with damped Newton from the lowest sweep at its
    tau: a polish costs up to settings.max_iter sparse LU solves, so
    polishing every rung spent nearly the whole run on polishes the sweeps
    then beat.  Sweeps and the polish are line-search candidates (for large
    tau the equation may have no solution, leaving only the partially
    resolved iterate).  The lowest F after normalization is accepted if it
    drops by the SUFFICIENT_DECREASE fraction; otherwise the scheme reports
    a stall, which at a non-eigenvector extremum of the cosine similarity
    leaves a large eigen-residual behind.  extras["candidate"] names each
    accepted step's winner, "sweep" or "polish".
    """
    if settings is None:
        settings = NewtonSettings(tol_abs=1e-10, max_iter=12)
    p, q = pair.p, pair.q
    F_hist, tau_hist, winners = [], [], []

    def normalized_F(x_free):  # F after normalizing, with the lifted field
        lifted = pair.lift_free(x_free)
        try:
            w = _normalize(pair, lifted)
        except ValueError:
            return np.nan, None
        return 1.0 - metrics.cosine_similarity(pair, w, pair.subgrad_J(w)), \
            lifted

    def step(k, u):
        zeta = pair.subgrad_J(u)
        nu = pair.norm_H(u)
        nz = pair.dual_norm_H(zeta)
        cos = pair.pairing(zeta, u) / (nu * nz)
        F_u = 1.0 - cos
        G_H = nu ** (1.0 - p) * pair.duality_map_H(u)
        G_Hs = nz ** (1.0 - q) * power_map(zeta, q)
        hess_u = pair.hess_J_matrix(u)
        E = pair.free_flatten(G_H) * nz \
            + (hess_u @ pair.free_flatten(G_Hs)) * nu
        D = nu * nz
        F_hist.append(F_u)

        u_free = pair.free_flatten(u)
        explicit = cos * E / D
        seed_F, seed = np.inf, None  # the lowest finite sweep
        for j in range(LADDER_LEN):
            tau = TAU0 * 0.5 ** j
            sweep = _sweep(pair, u_free, tau, explicit, D)
            F_w, w = normalized_F(sweep[0]) if sweep else (np.nan, None)
            if np.isfinite(F_w) and F_w < seed_F:
                seed_F, seed = F_w, (w, tau, *sweep)
            if seed_F < F_u and seed_F <= 0.5 * F_u:
                break
        best = (F_u, None, None, 0, None)  # F, lifted w, tau, count, kind
        if seed is not None:
            w, tau, x, sweeps = seed
            if seed_F < F_u:
                best = (seed_F, w, tau, sweeps, "sweep")
            polish = _polish(pair, u_free, tau, explicit, D, x, settings)
            F_w, w = normalized_F(polish[0]) if polish else (np.nan, None)
            if np.isfinite(F_w) and F_w < best[0]:
                best = (F_w, w, tau, sweeps + polish[1], "polish")
        best_F, best_w, best_tau, best_n, best_kind = best
        tau_hist.append(best_tau or 0.0)
        if best_w is None or best_F > (1.0 - SUFFICIENT_DECREASE) * F_u:
            return None, None, 0
        winners.append(best_kind)
        return best_w, None, best_n

    extras = {"F": F_hist, "tau": tau_hist, "candidate": winners}
    return _iterate(pair, u0, iters, step, "geometric", extras,
                    snapshot_cb=snapshot_cb)


def _implicit_rhs(pair, x_free, explicit, D):
    """Right-hand side of the semi-implicit step at the free vector x."""
    return pair.p * pair.free_flatten(pair.subgrad_J(pair.lift_free(x_free))) \
        / D - explicit


def _sweep(pair, u_free, tau, explicit, D):
    """Fixed-point sweep x <- u + tau rhs(x)^(q-1) of the semi-implicit
    step from x = u (its first pass is the explicit step), N_SWEEPS times
    or until the next iterate overflows; (x, sweeps done), or None if none
    is finite."""
    x = u_free.copy()
    sweeps = 0
    for _ in range(N_SWEEPS):
        xn = u_free + tau * power_map(_implicit_rhs(pair, x, explicit, D),
                                      pair.q)
        if not np.all(np.isfinite(xn)):
            break
        x = xn
        sweeps += 1
    return (x, sweeps) if sweeps else None


def _polish(pair, u_free, tau, explicit, D, x, settings):
    """Damped Newton polish of the sweep result x at step size tau.

    Returns (x, Newton steps), or None when the sweep's residual is not
    finite or a solve fails (a singular system gives NaN from SuperLU or
    LinAlgError from the dense solve).  The p != 2 kernel degenerates where
    the nodewise step is small and for large tau the equation may have no
    solution, so Newton may not converge; the caller's line search
    arbitrates.  The system diag - (p/D) H is symmetric but often
    indefinite, which rules out CG; SuperLU factors it under the
    minimum-degree ordering MMD_AT_PLUS_A, faster than COLAMD here.
    """
    p = pair.p

    def resid(xv):
        s_field = pair.lift_free((xv - u_free) / tau)
        return pair.free_flatten(pair.duality_map_H(s_field)) \
            - _implicit_rhs(pair, xv, explicit, D)

    def jacobian(xv):
        s_field = pair.lift_free((xv - u_free) / tau)
        M_diag = pair.duality_map_H_prime(s_field) / tau
        H = pair.hess_J_matrix(pair.lift_free(xv))
        if scipy.sparse.issparse(H):
            return scipy.sparse.diags(M_diag) - (p / D) * H
        return np.diag(M_diag) - (p / D) * np.asarray(H)

    def direct_solve(M, b):
        if scipy.sparse.issparse(M):
            delta = scipy.sparse.linalg.spsolve(M.tocsc(), b,
                                                permc_spec="MMD_AT_PLUS_A")
        else:
            delta = np.linalg.solve(M, b)
        if not np.all(np.isfinite(delta)):
            raise np.linalg.LinAlgError("non-finite polish step")
        return delta

    try:
        x, report = damped_newton(x, resid, jacobian, settings, direct_solve)
    except np.linalg.LinAlgError:
        return None
    return (x, report.iterations) if np.isfinite(report.final_residual) \
        else None

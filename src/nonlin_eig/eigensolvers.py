"""The four iterative eigensolvers: inverse power method, proximal power
method, balanced higher-order inverse iteration, and the cosine-ascent
(geometric characterization) scheme."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .functional import FunctionalPair, power_map
from .newton import NewtonSettings, damped_newton, solve_p_poisson
from . import metrics


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


def _finish(pair, records, u, tag, stop_reason, residual_tol, extras,
            res=None):
    if res is None:  # the eigen-residual of u, unless the caller has it
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
    u = _normalize(pair, np.asarray(u0, dtype=float))
    records = []
    lam_rq, lam_half, failed, inner_res = [], [], [], []
    stop_reason = "max_iter"
    res = None  # eigen-residual of u, when the stop test computed it
    for k in range(iters):
        t0 = time.perf_counter()
        zeta = pair.duality_map_H(u)
        v, rep = pair.inverse_subgrad_J(zeta, settings, warm_start=u)
        inner_res.append(rep.final_residual)
        if not rep.converged:
            failed.append(k)
        zJ = pair.subgrad_J(u)
        rq = metrics.rayleigh_quotient(pair, u)
        rec = metrics.IterationRecord(
            k=k, rq=rq,
            dual_rq=metrics.dual_rayleigh_quotient(pair, zeta, v),
            cosim=metrics.cosine_similarity(pair, u, zJ),
            gap=metrics.duality_gap(pair, u, zJ, u),
            residual=(res if res is not None
                      else metrics.eigen_residual(pair, u)),
            inner_iters=rep.iterations,
            wall_time=time.perf_counter() - t0)
        records.append(rec)
        lam_rq.append(rq)
        lam_half.append(pair.norm_H(v) ** (1.0 - pair.p))
        u = _normalize(pair, v)
        if snapshot_cb is not None:
            snapshot_cb(k + 1, u)
        if residual_tol is not None:
            res = metrics.eigen_residual(pair, u)
            if res <= residual_tol:
                stop_reason = "residual_tol"
                break
    extras = {"lambda_rq": lam_rq, "lambda_half_step": lam_half,
              "failed_inner_solves": failed, "inner_residuals": inner_res}
    return _finish(pair, records, u, "ipm", stop_reason, residual_tol, extras,
                   res)


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
    u = _normalize(pair, np.asarray(u0, dtype=float))
    records = []
    lam_taus, failed = [], []
    stop_reason = "max_iter"
    res = None  # eigen-residual of u, when the stop test computed it

    def moreau_data(u_cur, v_cur):
        eta = pair.duality_map_H(u_cur - v_cur) / tau
        Jv = pair.energy_J(v_cur)
        Jstar = pair.pairing(eta, v_cur) - Jv
        Hstar = pair.dual_norm_H(eta) ** q / q
        rstar_tau = Jstar / (tau ** (q - 1.0) * Hstar + Jstar)
        J_tau = pair.H(v_cur - u_cur) / tau + Jv
        lam_tau = pair.energy_J(u_cur) / J_tau
        return rstar_tau, lam_tau

    for k in range(iters):
        t0 = time.perf_counter()
        v, rep = pair.prox_J(u, tau, settings)
        if not rep.converged:
            failed.append(k)
        rstar_tau, lam_tau = moreau_data(u, v)
        lam_taus.append(lam_tau)
        zJ = pair.subgrad_J(u)
        rec = metrics.IterationRecord(
            k=k, rq=metrics.rayleigh_quotient(pair, u),
            dual_rq=rstar_tau,
            cosim=metrics.cosine_similarity(pair, u, zJ),
            gap=metrics.duality_gap(pair, u, zJ, u),
            residual=(res if res is not None
                      else metrics.eigen_residual(pair, u)),
            inner_iters=rep.iterations,
            wall_time=time.perf_counter() - t0)
        records.append(rec)
        u = _normalize(pair, v)
        if snapshot_cb is not None:
            snapshot_cb(k + 1, u)
        if residual_tol is not None:
            res = metrics.eigen_residual(pair, u)
            if res <= residual_tol:
                stop_reason = "residual_tol"
                break
    # eigenvalue recovery at the final iterate
    v, _ = pair.prox_J(u, tau, settings)
    _, lam_tau = moreau_data(u, v)
    lam_rec = (lam_tau / tau) * (1.0 - lam_tau ** (1.0 - q)) ** (p - 1.0)
    extras = {"lambda_tau": lam_taus, "lambda_recovered": lam_rec,
              "tau": tau, "failed_inner_solves": failed}
    return _finish(pair, records, u, "ppm", stop_reason, residual_tol, extras,
                   res)


SENTINEL = 1e12  # the balance defect where one part of the solve vanishes


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
                     balance_tol: float = 1e-6,
                     snapshot_cb=None) -> EigenTrace:
    """Inverse iteration with the dual iterate's positive part rescaled so
    the Rayleigh quotients of the positive and negative parts of the solve
    match; targets the sign-changing second eigenfunction.

    inst must be a PLaplaceInstance (the balancing uses clipped grid
    fields).  The balance s of zeta_s = s*zeta^+ - zeta^- roots the defect
    phi(s) = R(w^+) - R(w^-) of the solve w.  phi > 0 as s -> 0, where w^+
    vanishes, and phi < 0 as s -> inf, so the sign of phi(1) tells on which
    side of 1 to expand s = 2^(+-m); Illinois regula falsi roots the
    bracket.  Each solve starts from the secant predictor through the two
    cached solutions at the balances nearest s (continuation in s); the
    first two start from u and from the previous solution.  extras lists
    each step's root s, its solve count, and the steps with a failed solve.
    """
    if settings is None:
        settings = NewtonSettings()
    u = _normalize(inst, np.asarray(u0, dtype=float))
    if not (np.any(u > 0) and np.any(u < 0)):
        raise ValueError("balanced iteration needs a sign-changing start")
    records = []
    fallback_steps, failed, roots, solves = [], [], [], []
    stop_reason = "max_iter"

    def partial_rq(w, sign):
        clipped = np.maximum(sign * w, 0.0)
        Hc = inst.H(clipped)
        if Hc <= 0.0:
            return None
        return inst.energy_J(clipped) / Hc

    for k in range(iters):
        t0 = time.perf_counter()
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
        if np.isnan(f1):
            stop_reason = "stalled"
        elif abs(f1) > balance_tol:
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
                s_root, _, _ = illinois(phi, lo, hi, flo, fhi, balance_tol)
        w = solve_w(s_root)
        zJ = inst.subgrad_J(u)
        rec = metrics.IterationRecord(
            k=k, rq=metrics.rayleigh_quotient(inst, u),
            dual_rq=None,
            cosim=metrics.cosine_similarity(inst, u, zJ),
            gap=metrics.duality_gap(inst, u, zJ, u),
            residual=metrics.eigen_residual(inst, u),
            inner_iters=inner_total,
            wall_time=time.perf_counter() - t0)
        records.append(rec)
        roots.append(s_root)
        solves.append(len(cache))
        if step_failed:
            failed.append(k)
        if stop_reason == "stalled":
            break
        u_new = _normalize(inst, w)
        if not (np.any(u_new > 0) and np.any(u_new < 0)):
            stop_reason = "stalled"
            break
        u = u_new
        if snapshot_cb is not None:
            snapshot_cb(k + 1, u)
    extras = {"fallback_steps": fallback_steps, "failed_inner_solves": failed,
              "balance_roots": roots, "balance_solves": solves}
    return _finish(inst, records, u, "balanced", stop_reason, None, extras)


def run_geometric(pair: FunctionalPair, u0: np.ndarray, iters: int,
                  settings: NewtonSettings | None = None,
                  tau0: float = 2.0,
                  sufficient_decrease: float = 0.2,
                  ladder_len: int = 12,
                  snapshot_cb=None) -> EigenTrace:
    """Descent on F(u) = 1 - cosim(u, dJ(u)) via a semi-implicit step.

    Each step resolves, for a trial step size tau,
        dH((w - u)/tau) = [p dJ(w) - cosim * (G_H |z|_* + d2J(u) G_H* |u|_H)]
                          / (|u|_H |z|_*),
    where z = dJ(u) and G_H, G_H* are the gradients of the primal and dual
    norms at u and z.  A step screens the ladder tau0 2^-j with the cheap
    fixed-point sweep, stopping once a sweep halves F, then polishes once
    with damped Newton from the lowest sweep at its tau: a polish costs up
    to settings.max_iter sparse LU solves, so polishing every rung spent
    nearly the whole run on polishes the sweeps then beat.  Sweeps and the
    polish are line-search candidates (for large tau the equation may have
    no solution, leaving only the partially resolved iterate).  The lowest
    F after normalization is accepted if it drops by the
    sufficient_decrease fraction; otherwise the scheme reports a stall,
    which at a non-eigenvector extremum of the cosine similarity leaves a
    large eigen-residual behind.  extras["candidate"] names each accepted
    step's winner, "sweep" or "polish".
    """
    if settings is None:
        settings = NewtonSettings(tol_abs=1e-10, max_iter=12)
    p, q = pair.p, pair.q
    u = _normalize(pair, np.asarray(u0, dtype=float))
    records = []
    F_hist, tau_hist, winners = [], [], []
    stop_reason = "max_iter"

    def F_of(u_cur, zeta_cur):
        return 1.0 - metrics.cosine_similarity(pair, u_cur, zeta_cur)

    def normalized_F(x_free):  # F after normalizing, with (w, dJ(w))
        try:
            w = _normalize(pair, pair.lift_free(x_free))
        except ValueError:
            return np.nan, None
        zeta_w = pair.subgrad_J(w)
        return F_of(w, zeta_w), (w, zeta_w)

    zeta = pair.subgrad_J(u)
    F_u = F_of(u, zeta)

    for k in range(iters):
        t0 = time.perf_counter()
        nu = pair.norm_H(u)
        nz = pair.dual_norm_H(zeta)
        cos = pair.pairing(zeta, u) / (nu * nz)
        G_H = nu ** (1.0 - p) * pair.duality_map_H(u)
        G_Hs = nz ** (1.0 - q) * power_map(zeta, q)
        hess_u = pair.hess_J_matrix(u)
        E = pair.free_flatten(G_H) * nz \
            + (hess_u @ pair.free_flatten(G_Hs)) * nu
        D = nu * nz
        rec = metrics.IterationRecord(
            k=k, rq=metrics.rayleigh_quotient(pair, u),
            dual_rq=None,
            cosim=cos,
            gap=metrics.duality_gap(pair, u, zeta, u),
            residual=metrics.eigen_residual(pair, u),
            inner_iters=0,
            wall_time=0.0)
        records.append(rec)
        F_hist.append(F_u)

        u_free = pair.free_flatten(u)
        explicit = cos * E / D
        seed_F, seed = np.inf, None  # the lowest finite sweep
        for j in range(ladder_len):
            tau = tau0 * 0.5 ** j
            sweep = _sweep(pair, u_free, tau, explicit, D)
            F_w, w = normalized_F(sweep[0]) if sweep else (np.nan, None)
            if np.isfinite(F_w) and F_w < seed_F:
                seed_F, seed = F_w, (w, tau, *sweep)
            if seed_F < F_u and seed_F <= 0.5 * F_u:
                break
        best = (F_u, None, None, 0, None)  # F, (w, dJ(w)), tau, count, kind
        if seed is not None:
            w, tau, x, sweeps = seed
            if seed_F < F_u:
                best = (seed_F, w, tau, sweeps, "sweep")
            polish = _polish(pair, u_free, tau, explicit, D, x, settings)
            F_w, w = normalized_F(polish[0]) if polish else (np.nan, None)
            if np.isfinite(F_w) and F_w < best[0]:
                best = (F_w, w, tau, sweeps + polish[1], "polish")
        best_F, best_w, best_tau, best_n, best_kind = best
        rec.wall_time = time.perf_counter() - t0
        tau_hist.append(best_tau or 0.0)
        if best_w is None or best_F > (1.0 - sufficient_decrease) * F_u:
            stop_reason = "stalled"
            break
        u, zeta = best_w
        F_u = best_F
        rec.inner_iters = best_n
        winners.append(best_kind)
        if snapshot_cb is not None:
            snapshot_cb(k + 1, u)
    extras = {"F": F_hist, "tau": tau_hist, "candidate": winners}
    return _finish(pair, records, u, "geometric", stop_reason, None, extras)


def _implicit_rhs(pair, x_free, explicit, D):
    """Right-hand side of the semi-implicit step at the free vector x."""
    return pair.p * pair.free_flatten(pair.subgrad_J(pair.lift_free(x_free))) \
        / D - explicit


def _sweep(pair, u_free, tau, explicit, D, n_sweeps: int = 10):
    """Fixed-point sweep x <- u + tau rhs(x)^(q-1) of the semi-implicit
    step from x = u (its first pass is the explicit step) until the next
    iterate overflows; (x, sweeps done), or None if none is finite."""
    x = u_free.copy()
    sweeps = 0
    for _ in range(n_sweeps):
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

"""The paper's checkable invariants, shared by pytest and `nonlin-eig validate`.

Each measure returns the worst value of one invariant over an instance (or
a trace) and samples, NaN if any sample gives NaN; its caller compares that
against a bound.  The rows of `QUICK_CHECKS` and `FULL_CHECKS` (under a
minute) are `(name, measure, bound)` and pass when the worst is <= bound.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.sparse.linalg

from . import eigensolvers, metrics
from .functional import SpdInstance, fenchel_conjugate_value
from .grid import build_domain, build_stencil, eval_initial_guess
from .newton import NewtonSettings
from .plaplace import PLaplaceInstance


def random_fields(inst, count, seed):
    """`count` seeded standard-normal interior vectors, each read from a
    standard-normal lattice field."""
    rng = np.random.default_rng(seed)
    shape = inst.domain.ny, inst.domain.nx
    return [inst.as_vector(rng.standard_normal(shape)) for _ in range(count)]


def euler_defect(pair, fields):
    """Worst |p J(u) - <dJ(u), u>| / max(1, p J(u)): Euler's identity."""
    def defect(u):
        pj = pair.p * pair.energy_J(u)
        return abs(pj - pair.pairing(pair.subgrad_J(u), u)) / max(1.0, abs(pj))
    return np.max(list(map(defect, fields)))


def norm_duality_defect(pair, fields):
    """Worst |(|dH(u)|_{H*}) - |u|_H^(p-1)| / max(1, |u|_H^(p-1))."""
    def defect(u):
        rhs = pair.norm_H(u) ** (pair.p - 1.0)
        return abs(pair.dual_norm_H(pair.duality_map_H(u)) - rhs) / max(1.0, rhs)
    return np.max(list(map(defect, fields)))


def duality_map_cosim_defect(pair, fields):
    """Worst |cosim(u, dH(u)) - 1|: the duality map attains equality."""
    return np.max([abs(metrics.cosine_similarity(pair, u, pair.duality_map_H(u))
                       - 1.0) for u in fields])


def jacobian_fd_error(pair, us, vs, step=1e-6):
    """Worst relative l2 error of the Jacobian-vector product at u in
    direction v against central differences of dJ."""
    def error(u, v):
        jv = pair.jacobian_matrix(u) @ v
        fd = (pair.subgrad_J(u + step * v)
              - pair.subgrad_J(u - step * v)) / (2 * step)
        return float(np.linalg.norm(jv - fd) / np.linalg.norm(fd))
    return np.max(list(map(error, us, vs)))


def stencil_count_defect(domain, r):
    """|offsets of the radius-r stencil - lattice offsets in the punctured
    ball of radius r|."""
    m = int(r / domain.h) + 1
    count = sum(1 for dy in range(-m, m + 1) for dx in range(-m, m + 1)
                if (dx, dy) != (0, 0)
                and np.hypot(dx * domain.h, dy * domain.h) <= r * (1 + 1e-12))
    return abs(len(build_stencil(domain, r).offsets) - count)


def spd_oracle_error(runs):
    """Worst relative error of (SpdInstance, eigenvalue estimate) runs
    against the smallest eigenvalue of the dense matrix."""
    def error(pair, lam):
        exact = float(np.linalg.eigvalsh(pair.A)[0])
        return abs(lam - exact) / exact
    return np.max([error(pair, lam) for pair, lam in runs])


def duality_gap_at(pair, u):
    """The duality gap g(u, dJ(u)), through u in dJ*(dJ(u))."""
    Ju = pair.energy_J(u)
    return metrics.duality_gap(pair, Ju / pair.H(u), metrics.dual_rayleigh_quotient(
        pair, pair.subgrad_J(u), u, Ju))


def gap_negativity(pair, fields):
    """Largest -g(u, dJ(u)); the duality gap is nonnegative and vanishes
    exactly at eigenvectors."""
    return np.max([-duality_gap_at(pair, u) for u in fields])


def gap_formula_defect(pair, fields):
    """Worst relative disagreement of g(u, dJ(u)) with (1 - cosim) R^(-1/p)."""
    def defect(u):
        g = duality_gap_at(pair, u)
        alt = (1.0 - metrics.cosine_similarity(pair, u, pair.subgrad_J(u))) \
            * metrics.rayleigh_quotient(pair, u) ** (-1.0 / pair.p)
        return abs(g - alt) / max(abs(g), 1e-300)
    return np.max(list(map(defect, fields)))


def dual_rq_decrease(trace):
    """Largest relative drop (a - b) / |a| between consecutive dual Rayleigh
    quotients of a trace; the inverse power method never lowers it."""
    mus = [rec.dual_rq for rec in trace.records]
    return np.max([(a - b) / max(abs(a), 1e-300) for a, b in zip(mus, mus[1:])])


def eigenvalue_relation_defect(pair, fields):
    """Worst |mu - lambda^(1-q)| / |mu| with lambda = R(u), mu = R*(dJ(u)):
    the primal-dual eigenvalue relation at eigenvectors u."""
    def defect(u):
        lam = metrics.rayleigh_quotient(pair, u)
        zeta = pair.subgrad_J(u)
        v, _ = pair.inverse_subgrad_J(zeta, warm_start=u)
        mu = metrics.dual_rayleigh_quotient(pair, zeta, v, pair.energy_J(v))
        return abs(mu - lam ** (1.0 - pair.q)) / abs(mu)
    return np.max(list(map(defect, fields)))


def fenchel_young_defect(pair, us, ws):
    """Worst relative excess of <dJ(w), u> over J(u) + J*(dJ(w))."""
    def excess(u, w):
        zeta = pair.subgrad_J(w)
        lhs = pair.pairing(zeta, u)
        rhs = pair.energy_J(u) + fenchel_conjugate_value(pair, zeta, w,
                                                         pair.energy_J(w))
        return (lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)
    return np.max(list(map(excess, us, ws)))


def fenchel_route_defect(pair, zeta, v, Jv):
    """Relative disagreement of J*(zeta) = <zeta, v> - Jv with the Euler
    route <zeta, v> / q, for zeta in dJ(v); 0 when both are below 1e-14."""
    val = fenchel_conjugate_value(pair, zeta, v, Jv)
    alt = pair.pairing(zeta, v) / pair.q
    if abs(val) <= 1e-14 and abs(alt) <= 1e-14:
        return 0.0
    return abs(val - alt) / max(abs(val), abs(alt), 1e-300)


def p2_oracle(inst, k=1):
    """(lambda, eigenvector) of the k-th least eigenvalue of a p = 2
    instance's operator M: shift-invert Lanczos from the fixed v0 = 1
    (bit-repeatable) on SuperLU's MMD_AT_PLUS_A factor, much faster than
    eigsh's COLAMD."""
    M = inst.jacobian_matrix(np.zeros(inst.n_interior)).tocsc()
    solve = scipy.sparse.linalg.splu(M, permc_spec="MMD_AT_PLUS_A").solve
    vals, vecs = scipy.sparse.linalg.eigsh(
        M, k=k, sigma=0, v0=np.ones(M.shape[0]),
        OPinv=scipy.sparse.linalg.LinearOperator(M.shape, matvec=solve))
    i = np.argsort(vals)[k - 1]
    return float(vals[i]), vecs[:, i]


def _desk(measure, p=3.0, n=21, count=10, seed=0):
    """measure(instance, fields) on an n x n lattice over (-1, 1)^2, r = 2.5 h."""
    domain = build_domain("square", 2.0, 2.0 / (n - 1))
    inst = PLaplaceInstance(domain, 2.5 * domain.h, p)
    return measure(inst, random_fields(inst, count, seed))


@functools.cache
def _spd_ipm_runs():
    """IPM on three seeded 8x8 SPD pairs, run to a 1e-13 residual."""
    rng = np.random.default_rng(42)
    runs = []
    for _ in range(3):
        Q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        eigs = np.sort(rng.uniform(1.0, 100.0, size=8))
        pair = SpdInstance((Q * eigs) @ Q.T)
        runs.append((pair, eigensolvers.run_ipm(
            pair, rng.standard_normal(8), 400, residual_tol=1e-13)))
    return runs


def _ipm_dual_rq_monotone():
    domain = build_domain("lshape", 2.0, 0.1)
    inst = PLaplaceInstance(domain, 3.0 * domain.h, 3.0)
    u0 = eval_initial_guess("ex1", domain).values
    trace = eigensolvers.run_ipm(inst, u0, 10, NewtonSettings(), exact=True)
    return dual_rq_decrease(trace)


@functools.cache
def _example1_sweep():
    """30 IPM steps per p on the 81x81 L-shape, exact inner solves; shared by
    the full-scale rows."""
    domain = build_domain("lshape", 2.0, 0.025)
    u0 = eval_initial_guess("ex1", domain).values
    runs = []
    for p in (1.5, 2.0, 3.0, 5.0):
        inst = PLaplaceInstance(domain, 0.2, p)
        runs.append((inst, eigensolvers.run_ipm(inst, u0, 30, NewtonSettings(),
                                                exact=True)))
    return runs


QUICK_CHECKS = [
    ("euler-identity", lambda: np.max([
        _desk(euler_defect, p, count=20, seed=int(p * 10)) for p in (1.5, 3.0)]), 1e-10),
    ("norm-duality-link", lambda: np.max([
        _desk(norm_duality_defect, p, seed=7) for p in (1.5, 2.0, 3.0)]), 1e-10),
    ("duality-map-equality-case",
     lambda: _desk(duality_map_cosim_defect, count=5, seed=3), 1e-12),
    ("jacobian-finite-difference", lambda: _desk(
        lambda inst, f: jacobian_fd_error(inst, f[0::2], f[1::2]), n=13, seed=11),
     1e-5),
    ("stencil-enumeration", lambda: stencil_count_defect(
        build_domain("square", 2.0, 0.02), 0.02 ** 0.5), 0),
    ("spd-ipm-oracle", lambda: spd_oracle_error(
        (pair, trace.final_lambda) for pair, trace in _spd_ipm_runs()), 1e-8),
    ("spd-eigenvalue-relation", lambda: np.max([eigenvalue_relation_defect(
        pair, [trace.final_u]) for pair, trace in _spd_ipm_runs()]), 1e-6),
    ("duality-gap-nonnegative", lambda: _desk(gap_negativity, n=13, seed=5), 1e-10),
    ("duality-gap-cross-check", lambda: _desk(gap_formula_defect, n=13, seed=5), 1e-8),
    ("fenchel-young-inequality", lambda: _desk(
        lambda inst, f: fenchel_young_defect(inst, f[:5], f[5:]), n=13, seed=9),
     1e-10),
    ("ipm-dual-rq-monotone", _ipm_dual_rq_monotone, 1e-9),
]

FULL_CHECKS = QUICK_CHECKS + [
    ("example1-dual-rq-monotone", lambda: np.max([
        dual_rq_decrease(trace) for _, trace in _example1_sweep()]), 1e-9),
    ("example1-final-residual", lambda: np.max([
        metrics.eigen_residual(inst, trace.final_u)
        for inst, trace in _example1_sweep()]), 1e-5),
]


def run_suite(scale: str = "quick") -> bool:
    """Measure every row of the scale and print PASS/FAIL with the value."""
    checks = QUICK_CHECKS if scale == "quick" else FULL_CHECKS
    ok = True
    for name, measure, bound in checks:
        worst = measure()
        passed = worst <= bound  # False for NaN
        ok = ok and passed
        print(f"{'PASS' if passed else 'FAIL'}  {name}: {worst:.2e} (<= {bound:g})")
    return ok

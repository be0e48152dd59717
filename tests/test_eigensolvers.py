import math

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings, strategies as st

from nonlin_eig import eigensolvers, metrics, newton
from nonlin_eig.eigensolvers import (SENTINEL, EigenTrace, _part, _polish,
                                     _sweep, balance_root, log_balance_slope,
                                     ray_start, run_balanced_ipm,
                                     run_geometric, run_ipm, run_ppm,
                                     secant_predictor)
from nonlin_eig.functional import SolveReport, SpdInstance, power_map
from nonlin_eig.grid import build_domain, build_stencil, eval_initial_guess
from nonlin_eig.newton import NewtonSettings
from nonlin_eig.plaplace import PLaplaceInstance
from nonlin_eig.validation import (dual_rq_decrease, duality_gap_at,
                                   p2_oracle)


@pytest.fixture(scope="module")
def spd():
    return SpdInstance(np.diag([2.0, 5.0]))


@pytest.fixture(scope="module")
def small_grid():
    dom = build_domain("square", 2.0, 0.1)
    return PLaplaceInstance(dom, build_stencil(dom, 0.25, 3.0), 3.0)


class RootProbe:
    """A balance defect phi(s) = R+(s) - R-(s) given in closed form, with
    psi = log R+ - log R- and its slope in sigma = log s; records the
    balances evaluated.  Below `vanish` the positive part vanishes: phi
    holds the +SENTINEL and psi has no slope."""

    def __init__(self, r_plus, r_minus, dlog_plus, dlog_minus, vanish=0.0):
        self.parts = r_plus, r_minus, dlog_plus, dlog_minus
        self.vanish = vanish
        self.seen = []

    def defect(self, s):
        self.seen.append(s)
        if s < self.vanish:
            return SENTINEL
        r_plus, r_minus = self.parts[0](s), self.parts[1](s)
        return r_plus - r_minus

    def log_slope(self, s):
        if s < self.vanish:
            return None
        r_plus, r_minus, d_plus, d_minus = self.parts
        return (math.log(r_plus(s)) - math.log(r_minus(s)),
                d_plus(s) - d_minus(s))

    def mirrored(self):
        """The probe of s -> 1/s: the root moves to 1/root and the search
        halves where it doubled."""
        r_plus, r_minus, d_plus, d_minus = self.parts
        return RootProbe(lambda s: r_minus(1 / s), lambda s: r_plus(1 / s),
                         lambda s: -d_minus(1 / s), lambda s: -d_plus(1 / s))


def power_probe(root, **kw):
    """R+ = root / s, R- = 1: psi = log(root) - sigma, Newton is exact."""
    return RootProbe(lambda s: root / s, lambda s: 1.0,
                     lambda s: -1.0, lambda s: 0.0, **kw)


class TestBalanceRoot:
    def test_closed_form_root(self):
        # R+ = 1 + 1/s, R- = s: the root is the golden ratio and psi is
        # not linear in sigma
        probe = RootProbe(lambda s: 1 + 1 / s, lambda s: s,
                          lambda s: -1 / (s + 1), lambda s: 1.0)
        s, phi = balance_root(probe.defect, probe.log_slope)
        assert abs(phi) <= eigensolvers.BALANCE_TOL
        assert s == pytest.approx((1 + 5 ** 0.5) / 2, rel=1e-6)
        assert len(probe.seen) <= 4

    def test_sentinel_region_crossed_by_doubling(self):
        probe = power_probe(40.0, vanish=20.0)
        s, phi = balance_root(probe.defect, probe.log_slope)
        assert probe.seen[:6] == [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
        assert s == pytest.approx(40.0, rel=1e-12)

    def test_newton_point_outside_bracket_takes_midpoint(self):
        # phi holds the sentinel below 3 and at s = 4 the slope is so
        # small that the Newton point leaves the bracket (2, 4)
        probe = RootProbe(lambda s: 3.5 / s, lambda s: 1.0,
                          lambda s: -0.01, lambda s: 0.0, vanish=3.0)
        balance_root(probe.defect, probe.log_slope)
        assert probe.seen[:4] == [1.0, 2.0, 4.0, math.sqrt(8.0)]

    @pytest.mark.parametrize("mirror", [False, True])
    def test_step_at_most_doubles(self, mirror):
        probe = power_probe(100.0)
        probe = probe.mirrored() if mirror else probe
        s, _ = balance_root(probe.defect, probe.log_slope)
        seen = [1 / t for t in probe.seen] if mirror else probe.seen
        assert seen[:7] == [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
        assert len(seen) == 8 and seen[7] == pytest.approx(100.0, rel=1e-12)

    @pytest.mark.parametrize("mirror", [False, True])
    def test_leaving_the_range_falls_back(self, mirror):
        probe = power_probe(1e5)
        probe = probe.mirrored() if mirror else probe
        s, phi = balance_root(probe.defect, probe.log_slope)
        seen = [1 / t for t in probe.seen] if mirror else probe.seen
        assert seen == [2.0 ** m for m in range(13)]
        assert s is None and phi == probe.defect(1.0)

    def test_best_point_after_max_evals(self):
        probe = power_probe(100.0)
        s, phi = balance_root(probe.defect, probe.log_slope, max_evals=3)
        assert (s, phi) == (4.0, 24.0)


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
def test_log_balance_slope_matches_central_difference(small_grid, p):
    inst = PLaplaceInstance(small_grid.domain, build_stencil(
        small_grid.domain, 0.25, p), p)
    X, Y = inst.domain.coords()
    u = inst.as_vector(np.sin(np.pi * X)
                       + 0.5 * np.cos(np.pi * X / 2) * np.cos(np.pi * Y / 2))
    zeta = inst.duality_map_H(u / inst.norm_H(u))
    zp, zm = np.maximum(zeta, 0.0), np.maximum(-zeta, 0.0)
    settings = NewtonSettings()

    def solve(s):
        w, rep = newton.solve_p_poisson(inst, s * zp - zm, u, settings)
        assert rep.converged
        parts = (_part(inst, w, 1.0), _part(inst, w, -1.0))
        psi = math.log(parts[0][1] / parts[0][2]) \
            - math.log(parts[1][1] / parts[1][2])
        return w, parts, psi

    s, delta = 1.3, 1e-4
    w, parts, _ = solve(s)
    slope = log_balance_slope(inst, w, parts, zp, s, settings)[0]
    central = (solve(s * math.exp(delta))[2]
               - solve(s * math.exp(-delta))[2]) / (2 * delta)
    assert slope == pytest.approx(central, rel=1e-6)


@pytest.mark.parametrize("run", [
    lambda pair, u0, **kw: run_ipm(pair, u0, 6, **kw),
    lambda pair, u0, **kw: run_ppm(pair, u0, tau_tilde=0.5, iters=6, **kw),
], ids=["ipm", "ppm"])
def test_eigen_residual_once_per_step(spd, monkeypatch, run):
    u0 = np.array([1.0, 1.0])
    plain = run(spd, u0)
    calls = [0]
    original = metrics.eigen_residual

    def counted(pair, u, zeta=None):
        calls[0] += 1
        return original(pair, u, zeta)

    monkeypatch.setattr(metrics, "eigen_residual", counted)
    trace = run(spd, u0, residual_tol=1e-300)
    assert trace.stop_reason == "max_iter"
    # one per iterate: the start and each of the 6 steps, read by the
    # record, the stop test and the final trace alike
    assert calls[0] == 6 + 1
    assert [r.residual for r in trace.records] \
        == [r.residual for r in plain.records]


@pytest.mark.parametrize("run", [
    lambda pair, u0, s: run_ipm(pair, u0, 2, s),
    lambda pair, u0, s: run_ppm(pair, u0, tau_tilde=0.5, iters=1, settings=s),
], ids=["ipm", "ppm"])
def test_cg_settings_reach_inner_solves(small_grid, monkeypatch, run):
    seen = []
    original = newton.cg_solve

    def recording(A, b, rtol, maxiter):
        seen.append((rtol, maxiter))
        return original(A, b, rtol, maxiter)

    monkeypatch.setattr(newton, "cg_solve", recording)
    u0 = eval_initial_guess("ex1", small_grid.domain).values
    run(small_grid, u0, NewtonSettings(cg_tol=1e-3, cg_max_iter=7))
    assert seen
    assert all(maxiter == 7 for _, maxiter in seen)
    assert all(rtol >= 1e-3 for rtol, _ in seen)


@pytest.mark.parametrize("run,start", [
    (lambda inst, u0: run_ipm(inst, u0, 3), "ex1"),
    (lambda inst, u0: run_balanced_ipm(inst, u0, 3), "ex2"),
    (lambda inst, u0: run_ppm(inst, u0, 0.5, 3), "ex1"),
    (lambda inst, u0: run_geometric(inst, u0, 3), "ex2"),
], ids=["ipm", "balanced", "ppm", "geometric"])
def test_cg_work_per_step_in_extras(small_grid, monkeypatch, run, start):
    # every CG call, the balanced scheme's slope solves and the geometric
    # polish's CG attempts included; the polish lists its SuperLU solves
    calls, lu_calls = [], [0]
    original, spsolve = newton.cg_solve, scipy.sparse.linalg.spsolve

    def recording(A, b, rtol, maxiter):
        result = original(A, b, rtol, maxiter)
        calls.append((result[1], result.converged))
        return result

    def counted(*args, **kwargs):
        lu_calls[0] += 1
        return spsolve(*args, **kwargs)

    monkeypatch.setattr(newton, "cg_solve", recording)
    monkeypatch.setattr(eigensolvers, "cg_solve", recording)
    monkeypatch.setattr(scipy.sparse.linalg, "spsolve", counted)
    trace = run(small_grid, eval_initial_guess(start, small_grid.domain).values)
    if trace.solver_tag == "ppm":
        # the eigenvalue recovery's prox solve after the loop is no step's:
        # solve it again to count its CG calls, and drop both copies
        n = len(calls)
        small_grid.prox_J(trace.final_u, trace.extras["tau"])
        recovery = len(calls) - n
        assert recovery > 0
        del calls[n - recovery:]
    cg_iters, cg_bad = (trace.extras["cg_iterations"],
                        trace.extras["cg_unconverged"])
    assert len(cg_iters) == len(cg_bad) == len(trace.records) == 3
    assert len(trace.extras["inner_residuals"]) == 3
    assert sum(cg_iters) == sum(it for it, _ in calls) > 0
    assert sum(cg_bad) == sum(not ok for _, ok in calls) == 0
    if trace.solver_tag == "geometric":
        # the 19x19 p=3 polish systems need both solvers
        direct = trace.extras["polish_direct_solves"]
        assert len(direct) == 3 and sum(direct) == lu_calls[0] > 0
    else:
        assert lu_calls[0] == 0


@pytest.fixture(scope="module")
def square11():
    dom = build_domain("square", 2.0, 0.2)
    return PLaplaceInstance(dom, build_stencil(dom, 0.45, 3.0), 3.0)


@pytest.mark.parametrize("run,start", [
    (lambda inst, u0, cb: run_ipm(inst, u0, 4, residual_tol=1e-300,
                                  snapshot_cb=cb), "ex1"),
    (lambda inst, u0, cb: run_ppm(inst, u0, 0.5, 4, snapshot_cb=cb), "ex1"),
    (lambda inst, u0, cb: run_balanced_ipm(inst, u0, 3, snapshot_cb=cb),
     "ex2"),
    (lambda inst, u0, cb: run_geometric(inst, u0, 25, snapshot_cb=cb),
     "ex1"),
], ids=["ipm", "ppm", "balanced", "geometric"])
def test_each_iterate_evaluated_once(square11, monkeypatch, run, start):
    # J(u^k) and dJ(u^k) are evaluated once per iterate u^k, for its record,
    # the step, the residual_tol stop test and the final eigenpair alike;
    # calls are matched to the iterate objects themselves, since a step's
    # own candidates may equal the next iterate bit for bit
    calls = {"energy_J": [], "subgrad_J": []}
    for name, seen in calls.items():
        def counted(self, u, original=getattr(PLaplaceInstance, name),
                    seen=seen):
            seen.append(u)
            return original(self, u)
        monkeypatch.setattr(PLaplaceInstance, name, counted)
    starts = []  # the normalized start u^0 is _normalize's first result
    normalize = eigensolvers._normalize
    monkeypatch.setattr(eigensolvers, "_normalize", lambda pair, u: (
        starts.append(normalize(pair, u)) or starts[-1]))
    snapshots = []
    trace = run(square11, eval_initial_guess(start, square11.domain).values,
                lambda k, u: snapshots.append(u))
    iterates = starts[:1] + snapshots
    assert trace.final_u is iterates[-1] and len(iterates) > 2
    for name, seen in calls.items():
        counts = [sum(arg is u for arg in seen) for u in iterates]
        if trace.solver_tag == "ppm" and name == "energy_J":
            counts[-1] -= 1  # the eigenvalue recovery after the loop
        assert counts == [1] * len(iterates), name


@pytest.mark.parametrize("run,start", [
    (lambda inst, u0, cb: run_ipm(inst, u0, 5, snapshot_cb=cb), "ex1"),
    (lambda inst, u0, cb: run_ipm(inst, u0, 40, residual_tol=1e-6,
                                  snapshot_cb=cb), "ex1"),
    (lambda inst, u0, cb: run_ppm(inst, u0, 0.5, 5, snapshot_cb=cb), "ex1"),
    (lambda inst, u0, cb: run_balanced_ipm(inst, u0, 3, snapshot_cb=cb),
     "ex2"),
    (lambda inst, u0, cb: run_geometric(inst, u0, 25, snapshot_cb=cb),
     "ex1"),
], ids=["ipm", "ipm-residual-tol", "ppm", "balanced", "geometric"])
def test_records_hold_metrics_of_each_iterate(square11, run, start):
    # u^0 is the normalized start, u^k the field snapshot_cb(k, .) received
    u0 = eval_initial_guess(start, square11.domain).values
    iterates = [u0 / square11.norm_H(u0)]

    def snapshot(k, u):
        assert k == len(iterates)
        iterates.append(u.copy())

    trace = run(square11, u0, snapshot)
    assert len(trace.records) \
        == len(iterates) - 1 + (trace.stop_reason == "stalled")
    for k, (rec, u) in enumerate(zip(trace.records, iterates)):
        zJ = square11.subgrad_J(u)
        assert rec.k == k
        assert rec.rq == metrics.rayleigh_quotient(square11, u)
        assert rec.cosim == metrics.cosine_similarity(square11, u, zJ)
        assert rec.gap == duality_gap_at(square11, u)
        assert rec.residual == metrics.eigen_residual(square11, u)


class TestIpm:
    def test_spd_ground_state(self, spd):
        trace = run_ipm(spd, np.array([1.0, 1.0]), 60)
        assert isinstance(trace, EigenTrace)
        assert trace.solver_tag == "ipm"
        assert abs(trace.final_lambda - 2.0) <= 1e-10
        assert np.allclose(np.abs(trace.final_u), [1.0, 0.0], atol=1e-8)
        assert trace.converged

    def test_final_iterate_normalized(self, spd):
        trace = run_ipm(spd, np.array([0.3, 0.9]), 30)
        assert spd.norm_H(trace.final_u) == pytest.approx(1.0, rel=1e-12)

    def test_dual_rq_nondecreasing_spd(self, spd):
        trace = run_ipm(spd, np.array([1.0, 1.0]), 30)
        assert dual_rq_decrease(trace) <= 1e-9

    def test_lambda_histories_agree(self, small_grid):
        u0 = eval_initial_guess("ex1", small_grid.domain).values
        trace = run_ipm(small_grid, u0, 15)
        lam_half = trace.extras["lambda_half_step"]
        # R(u^k) and |v^k|^{1-p} both converge to the eigenvalue
        assert trace.records[-1].rq == pytest.approx(lam_half[-1], rel=1e-6)

    def test_inner_residuals_recorded(self, small_grid):
        u0 = eval_initial_guess("ex1", small_grid.domain).values
        trace = run_ipm(small_grid, u0, 5)
        assert len(trace.extras["inner_residuals"]) == 5
        assert all(r <= 1e-12 for r in trace.extras["inner_residuals"])

    @pytest.mark.parametrize("shape,h,r", [("square", 0.1, 0.25),
                                           ("lshape", 0.05, 0.2)])
    def test_ray_start_solves_p2_eigenvector(self, shape, h, r):
        dom = build_domain(shape, 2.0, h)
        inst = PLaplaceInstance(dom, build_stencil(dom, r, 2.0), 2.0)
        _, vec = p2_oracle(inst)
        u = vec / inst.norm_H(vec)
        zeta = inst.duality_map_H(u)
        start = ray_start(inst, u, metrics.rayleigh_quotient(inst, u))
        _, rep = newton.solve_p_poisson(inst, zeta, start)
        assert rep.converged and rep.iterations <= 1
        assert run_ipm(inst, u, 1).records[0].inner_iters == rep.iterations
        _, from_u = newton.solve_p_poisson(inst, zeta, u)
        assert from_u.converged and from_u.iterations > rep.iterations

    def test_residual_tol_stop(self, spd):
        trace = run_ipm(spd, np.array([1.0, 0.2]), 200, residual_tol=1e-12)
        assert trace.stop_reason == "residual_tol"
        assert len(trace.records) < 200

    def test_zero_start_rejected(self, spd):
        with pytest.raises(ValueError):
            run_ipm(spd, np.zeros(2), 5)


class TestPpm:
    def test_spd_recovered_eigenvalue(self, spd):
        trace = run_ppm(spd, np.array([1.0, 1.0]), tau_tilde=0.1, iters=80)
        assert trace.solver_tag == "ppm"
        assert abs(trace.extras["lambda_recovered"] - 2.0) <= 1e-8

    def test_dual_rq_tau_below_one(self, spd):
        trace = run_ppm(spd, np.array([1.0, 1.0]), tau_tilde=0.5, iters=20)
        assert all(r.dual_rq < 1.0 for r in trace.records)

    def test_stationary_at_eigenvector(self, spd):
        trace = run_ppm(spd, np.array([1.0, 0.0]), tau_tilde=0.2, iters=5)
        assert np.allclose(np.abs(trace.final_u), [1.0, 0.0], atol=1e-10)
        assert abs(trace.extras["lambda_recovered"] - 2.0) <= 1e-10

    def test_rejects_nonpositive_tau(self, spd):
        with pytest.raises(ValueError):
            run_ppm(spd, np.array([1.0, 1.0]), tau_tilde=0.0, iters=5)

    def test_grid_lambda_agreement_with_ipm(self, small_grid):
        u0 = eval_initial_guess("ex1", small_grid.domain).values
        t_ipm = run_ipm(small_grid, u0, 25)
        t_ppm = run_ppm(small_grid, u0, tau_tilde=0.5, iters=60)
        assert t_ppm.extras["lambda_recovered"] == pytest.approx(
            t_ipm.final_lambda, rel=1e-4)

    def test_unconverged_cg_listed(self, small_grid):
        u0 = eval_initial_guess("ex1", small_grid.domain).values
        trace = run_ppm(small_grid, u0, 0.5, 2,
                        NewtonSettings(max_iter=5, cg_max_iter=1))
        assert len(trace.extras["cg_unconverged"]) == 2
        assert sum(trace.extras["cg_unconverged"]) > 0
        assert trace.extras["failed_inner_solves"] == [0, 1]

    @pytest.mark.parametrize("settings,converged", [
        (None, True), (NewtonSettings(max_iter=1), False)])
    def test_recovery_solve_reported(self, small_grid, settings, converged):
        u0 = eval_initial_guess("ex1", small_grid.domain).values
        trace = run_ppm(small_grid, u0, 0.5, 1, settings)
        assert trace.extras["recovery_converged"] is converged


class TestSecantPredictor:
    def test_exact_on_affine_family(self):
        rng = np.random.default_rng(7)
        a, b = rng.standard_normal((2, 4, 5))
        cache = {s: a + s * b for s in (1.0, 2.0, 0.5, 4.0)}
        for s in (0.75, 1.3, 3.0, 8.0, 0.125):
            assert np.allclose(secant_predictor(cache, s, None), a + s * b,
                               rtol=1e-12, atol=1e-12)

    def test_warm_start_below_two_cached(self):
        warm = np.ones(3)
        assert secant_predictor({}, 2.0, warm) is warm
        assert secant_predictor({1.0: np.zeros(3)}, 2.0, warm) is warm


class TestBalanced:
    def test_needs_sign_changing_start(self, small_grid):
        u0 = np.where(small_grid.domain.interior_mask, 1.0, 0.0)
        with pytest.raises(ValueError):
            run_balanced_ipm(small_grid, u0, 3)

    def test_odd_symmetric_start_stays_balanced(self, small_grid):
        X, _ = small_grid.domain.coords()
        u0 = np.where(small_grid.domain.interior_mask,
                      np.sin(np.pi * X), 0.0)
        trace = run_balanced_ipm(small_grid, u0, 8)
        assert trace.solver_tag == "balanced"
        u = trace.final_u
        assert np.any(u > 0) and np.any(u < 0)
        up = np.maximum(u, 0.0)
        um = np.maximum(-u, 0.0)
        rp = small_grid.energy_J(up) / small_grid.H(up)
        rm = small_grid.energy_J(um) / small_grid.H(um)
        assert abs(rp - rm) <= 1e-6 * max(rp, rm)

    def test_four_steps_pinned(self, small_grid):
        # lambda recorded with the balance rooted by Illinois regula falsi,
        # which the Newton root in log s reproduces to 3.5e-11; the
        # eigen-residual recorded with the Newton root (0.4560111429534977
        # with Illinois, 2.0e-9 away)
        u0 = eval_initial_guess("ex2", small_grid.domain).values
        trace = run_balanced_ipm(small_grid, u0, 4)
        assert trace.final_lambda == pytest.approx(88.10019383023001,
                                                   rel=1e-10)
        assert metrics.eigen_residual(small_grid, trace.final_u) \
            == pytest.approx(0.45601114387115205, rel=1e-10)

    def test_four_steps_solve_count(self, small_grid):
        u0 = eval_initial_guess("ex2", small_grid.domain).values
        trace = run_balanced_ipm(small_grid, u0, 4)
        solves = trace.extras["balance_solves"]
        assert sum(solves) == 23
        assert sum(solves) < 39  # one-sided bracket and Illinois
        # Newton steps per outer step: [57, 28, 21, 24] with Illinois; the
        # tangent and scaled-ray starts each save some of them
        assert [rec.inner_iters for rec in trace.records] == [50, 12, 7, 7]
        assert len(trace.extras["balance_roots"]) == len(solves) == 4
        assert all(d <= eigensolvers.BALANCE_TOL
                   for d in trace.extras["balance_defects"])
        assert trace.extras["failed_inner_solves"] == []

    # 6 steps on the 19x19 grids, r = 0.25, from the ex2 start: the final
    # lambda, the steps that fell back to s = 1 and the stop reason,
    # recorded with the balance rooted by Illinois regula falsi
    @pytest.mark.parametrize("shape,p,lam,fallback,stop", [
        ("square", 2, 24.517331265631753, [], "max_iter"),
        ("square", 3, 87.95600051458665, [], "max_iter"),
        ("square", 4, 271.56281719878535, [], "max_iter"),
        ("square", 5, 1037.5430646817563, [0], "stalled"),
        ("lshape", 2, 19.66047566497462, [], "max_iter"),
        ("lshape", 3, 59.91645776523257, [], "max_iter"),
        ("lshape", 4, 330.4803358174672, [0], "stalled"),
        ("lshape", 5, 1379.2601429501779, [0], "stalled"),
    ])
    def test_trajectory_pinned(self, shape, p, lam, fallback, stop):
        dom = build_domain(shape, 2.0, 0.1)
        inst = PLaplaceInstance(dom, build_stencil(dom, 0.25, p), p)
        trace = run_balanced_ipm(inst, eval_initial_guess("ex2", dom).values,
                                 6)
        assert trace.final_lambda == pytest.approx(lam, rel=1e-8)
        assert trace.extras["fallback_steps"] == fallback
        assert trace.extras["failed_inner_solves"] == []
        assert trace.stop_reason == stop
        rooted = [d for k, d in enumerate(trace.extras["balance_defects"])
                  if k not in fallback]
        assert all(d <= eigensolvers.BALANCE_TOL for d in rooted)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_failed_inner_solves_listed(self, small_grid):
        u0 = eval_initial_guess("ex2", small_grid.domain).values
        trace = run_balanced_ipm(small_grid, u0, 2,
                                 settings=NewtonSettings(max_iter=1))
        assert trace.extras["failed_inner_solves"] == [0, 1]

    def test_final_normalized(self, small_grid):
        u0 = eval_initial_guess("ex2", small_grid.domain).values
        trace = run_balanced_ipm(small_grid, u0, 5)
        assert small_grid.norm_H(trace.final_u) == pytest.approx(1.0, rel=1e-12)


class TestGeometric:
    def test_spd_stationary_at_eigenvector(self, spd):
        trace = run_geometric(spd, np.array([1.0, 0.0]), 5)
        assert trace.solver_tag == "geometric"
        assert trace.records[0].cosim == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(np.abs(trace.final_u), [1.0, 0.0], atol=1e-8)

    def test_spd_cosim_increases(self, spd):
        trace = run_geometric(spd, np.array([1.0, 0.6]), 40)
        cs = [r.cosim for r in trace.records]
        for a, b in zip(cs, cs[1:]):
            assert b >= a - 1e-12
        assert cs[-1] > cs[0]

    def test_f_matches_one_minus_cosim(self, spd):
        trace = run_geometric(spd, np.array([1.0, 0.6]), 10)
        for rec, F in zip(trace.records, trace.extras["F"]):
            assert F == pytest.approx(1.0 - rec.cosim, abs=1e-12)

    def test_grid_polish_candidate_wins(self):
        # p=5 on the 19x19 square from the ex2 start: the first step takes
        # the Newton polish, counted as 10 sweeps + the default max_iter 12
        dom = build_domain("square", 2.0, 0.1)
        inst = PLaplaceInstance(dom, build_stencil(dom, 0.1 ** 0.5, 5.0), 5.0)
        u0 = eval_initial_guess("ex2", dom).values
        trace = run_geometric(inst, u0, 25)
        assert trace.records[0].inner_iters == 22
        Fs = trace.extras["F"]
        assert all(b <= a for a, b in zip(Fs, Fs[1:]))
        assert trace.final_lambda == pytest.approx(58899.63690247836,
                                                   rel=1e-9)

    def test_polishes_when_no_sweep_descends(self, spd, monkeypatch):
        # At an eigenvector no candidate lowers F = 0; the step still
        # polishes once, from the first of the equally low sweeps (tau0).
        taus = []

        def recording(pair, u, tau, *args):
            taus.append(tau)
            return polish(pair, u, tau, *args)

        polish = eigensolvers._polish
        monkeypatch.setattr(eigensolvers, "_polish", recording)
        trace = run_geometric(spd, np.array([1.0, 0.0]), 5)
        assert trace.stop_reason == "stalled" and taus == [2.0]

    def test_zero_sweeps_stall(self, spd, monkeypatch):
        # a zero candidate has no direction, so its F is NaN: with every
        # sweep at 0 the step has no seed to polish and stalls
        monkeypatch.setattr(eigensolvers, "_sweep",
                            lambda pair, u, *args: (np.zeros_like(u), 1))
        monkeypatch.setattr(eigensolvers, "_polish", None)
        trace = run_geometric(spd, np.array([1.0, 0.6]), 5)
        assert trace.stop_reason == "stalled" and len(trace.records) == 1

    def test_zero_polish_loses_to_the_sweep(self, monkeypatch):
        # the first step of test_grid_polish_candidate_wins takes the
        # polish; a polish that lands on 0 is no candidate, so a sweep wins
        dom = build_domain("square", 2.0, 0.1)
        inst = PLaplaceInstance(dom, build_stencil(dom, 0.1 ** 0.5, 5.0), 5.0)
        monkeypatch.setattr(eigensolvers, "_polish", lambda pair, u, *args:
                            (np.zeros_like(u), SolveReport()))
        trace = run_geometric(inst, eval_initial_guess("ex2", dom).values, 1)
        assert trace.extras["candidate"] == ["sweep"]

    # The 20 grid runs of the geometric sweep (19x19, r = sqrt(h), 25
    # steps): final lambda, record count and the winner of each accepted
    # step (s = sweep, p = polish), recorded with a polish at every rung of
    # the ladder, which one polish per step must reproduce.  All stall.
    # The two p = 1.5 ex1 values were recorded again once the norms and
    # the pairing summed over the interior nodes only instead of the
    # zero-padded lattice (before: 40.63222733667498, 40.73758720749166);
    # at p = 1.5 these trajectories follow the rounding of those sums.
    # The square p = 4 ex2 and L-shape p = 3 ex2 values were recorded again
    # once the polish solved its systems by verified CG where it can
    # (before: 7371.741864248301, 861.8148330949883; winners unchanged).
    @pytest.mark.parametrize("shape,p,start,lam,n_records,winners", [
        ("square", 1.5, "ex1", 40.63224395922126, 3, "ss"),
        ("square", 1.5, "ex2", 40.69395557216665, 2, "s"),
        ("square", 2, "ex1", 101.44863734808045, 2, "s"),
        ("square", 2, "ex2", 97.81286478987003, 2, "s"),
        ("square", 3, "ex1", 869.1100304324036, 2, "p"),
        ("square", 3, "ex2", 885.8575735660813, 7, "psssss"),
        ("square", 4, "ex1", 7476.541940244013, 2, "s"),
        ("square", 4, "ex2", 7371.741864239004, 5, "ppss"),
        ("square", 5, "ex1", 60741.46862433419, 2, "s"),
        ("square", 5, "ex2", 58899.63690247838, 2, "p"),
        ("lshape", 1.5, "ex1", 40.73758785771548, 2, "s"),
        ("lshape", 1.5, "ex2", 40.74194039446166, 3, "ss"),
        ("lshape", 2, "ex1", 101.10078751764041, 2, "s"),
        ("lshape", 2, "ex2", 98.04740781751401, 2, "s"),
        ("lshape", 3, "ex1", 853.0049718280575, 2, "s"),
        ("lshape", 3, "ex2", 861.8148330323462, 7, "ppssss"),
        ("lshape", 4, "ex1", 7029.324334188518, 2, "s"),
        ("lshape", 4, "ex2", 7080.883278552417, 2, "p"),
        ("lshape", 5, "ex1", 56979.381280957896, 2, "s"),
        ("lshape", 5, "ex2", 55311.666699214235, 2, "p"),
    ])
    def test_grid_trajectory_pinned(self, shape, p, start, lam, n_records,
                                    winners):
        dom = build_domain(shape, 2.0, 0.1)
        inst = PLaplaceInstance(dom, build_stencil(dom, 0.1 ** 0.5, p), p)
        u0 = eval_initial_guess(start, dom).values
        trace = run_geometric(inst, u0, 25)
        assert trace.final_lambda == pytest.approx(lam, rel=1e-12)
        assert trace.stop_reason == "stalled"
        assert len(trace.records) == n_records
        assert "".join(c[0] for c in trace.extras["candidate"]) == winners

    @pytest.mark.parametrize("shape", ["square", "lshape"])
    def test_one_polish_per_step(self, shape, monkeypatch):
        # p=3 from ex2 on the 19x19 grids: 7 outer steps, each of which
        # polishes once, the stalled one too, so it solves the polish
        # system at least once and at most max_iter = 12 times
        calls = [0]
        polish_solve = eigensolvers.polish_solve

        def counted(*args, **kwargs):
            calls[0] += 1
            return polish_solve(*args, **kwargs)

        monkeypatch.setattr(eigensolvers, "polish_solve", counted)
        dom = build_domain(shape, 2.0, 0.1)
        inst = PLaplaceInstance(dom, build_stencil(dom, 0.1 ** 0.5, 3.0), 3.0)
        u0 = eval_initial_guess("ex2", dom).values
        at_step = [0]  # calls so far, after each accepted step
        trace = run_geometric(inst, u0, 25, snapshot_cb=lambda k, u:
                              at_step.append(calls[0]))
        at_step.append(calls[0])  # the last, stalled, step has no callback
        per_step = [b - a for a, b in zip(at_step, at_step[1:])]
        assert len(per_step) == len(trace.records) == 7
        assert 1 <= min(per_step) and max(per_step) <= 12

    def test_grid_polish_solver_error_propagates(self, small_grid,
                                                 monkeypatch):
        def broken_spsolve(*args, **kwargs):
            raise ValueError("factorization failed")

        monkeypatch.setattr(eigensolvers, "cg_solve", failing_cg)
        monkeypatch.setattr(scipy.sparse.linalg, "spsolve", broken_spsolve)
        u0 = eval_initial_guess("ex2", small_grid.domain).values
        with pytest.raises(ValueError, match="factorization failed"):
            run_geometric(small_grid, u0, 3)


def failing_cg(A, b, rtol, maxiter):
    """A CG that never converges: every polish system goes to SuperLU."""
    return newton.CgResult(np.zeros_like(b), maxiter, False)


class TestPolishSolve:
    def test_workload_systems_take_cg(self, monkeypatch):
        # the polish systems of the 51x51 p=3 square from the ex2 start,
        # the second step's indefinite ones included, all pass CG's check
        dom = build_domain("square", 2.0, 0.04)
        inst = PLaplaceInstance(dom, build_stencil(dom, 0.2, 3.0), 3.0)
        systems = []
        polish_solve = eigensolvers.polish_solve

        def recording(M, b, settings):
            result = polish_solve(M, b, settings)
            systems.append((M, b, *result))
            return result

        monkeypatch.setattr(eigensolvers, "polish_solve", recording)
        trace = run_geometric(inst, eval_initial_guess("ex2", dom).values, 2)
        assert trace.extras["polish_direct_solves"] == [0, 0]
        assert len(systems) == 24
        for i, (M, b, delta, report) in enumerate(systems):
            assert report.direct_solves == report.cg_unconverged == 0
            assert 0 < report.cg_iterations_total <= 200
            assert np.linalg.norm(M @ delta - b) <= 1e-12 * np.linalg.norm(b)
            if i in (0, 11, 12, 23):  # the first and last of each polish
                lu = scipy.sparse.linalg.spsolve(M.tocsc(), b,
                                                 permc_spec="MMD_AT_PLUS_A")
                assert np.linalg.norm(delta - lu) \
                    <= 1e-10 * np.linalg.norm(lu)

    @staticmethod
    def mixed_sign_system():
        M = scipy.sparse.csr_matrix(np.array([[2.0, 1.0, 0.0],
                                              [1.0, -3.0, 1.0],
                                              [0.0, 1.0, 4.0]]))
        return M, np.array([1.0, 2.0, 3.0])

    def test_mixed_sign_diagonal_goes_to_superlu(self, monkeypatch):
        def no_cg(*args):
            raise AssertionError("CG attempted")

        monkeypatch.setattr(eigensolvers, "cg_solve", no_cg)
        M, b = self.mixed_sign_system()
        delta, report = eigensolvers.polish_solve(M, b, eigensolvers.POLISH)
        assert np.allclose(M @ delta, b, rtol=0.0, atol=1e-14)
        assert (report.direct_solves, report.cg_iterations_total,
                report.cg_unconverged) == (1, 0, 0)

    def test_unverified_cg_goes_to_superlu(self, monkeypatch):
        # a CG that claims convergence at a residual far above the check
        monkeypatch.setattr(eigensolvers, "cg_solve", lambda A, b, *args:
                            newton.CgResult(1.001 * np.linalg.solve(
                                A.toarray(), b), 7, True))
        M = scipy.sparse.csr_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
        b = np.array([1.0, 2.0])
        delta, report = eigensolvers.polish_solve(-M, -b, eigensolvers.POLISH)
        assert np.array_equal(delta, scipy.sparse.linalg.spsolve(
            (-M).tocsc(), -b, permc_spec="MMD_AT_PLUS_A"))
        assert (report.direct_solves, report.cg_iterations_total,
                report.cg_unconverged) == (1, 7, 1)

    def test_superlu_error_propagates(self, monkeypatch):
        def broken_spsolve(*args, **kwargs):
            raise ValueError("factorization failed")

        monkeypatch.setattr(scipy.sparse.linalg, "spsolve", broken_spsolve)
        M, b = self.mixed_sign_system()
        with pytest.raises(ValueError, match="factorization failed"):
            eigensolvers.polish_solve(M, b, eigensolvers.POLISH)


# The geometric sweep and polish as they were written with the polish's
# own backtracking Newton loop, before it ran on newton.damped_newton; kept
# as the reference _sweep and _polish must reproduce bit for bit.  The
# polish is counted as sweeps + the Newton steps that solved a system.  Its
# systems go to the same eigensolvers.polish_solve, so the Newton loop is
# checked bit for bit whichever solver that picks.
def _reference_candidates(pair, u, tau, explicit, D, settings, n_sweeps=10):
    p = pair.p

    def implicit_rhs(xv):
        return p * pair.subgrad_J(xv) / D - explicit

    x = u.copy()
    sweeps = 0
    for _ in range(n_sweeps):
        xn = u + tau * power_map(implicit_rhs(x), pair.q)
        if not np.all(np.isfinite(xn)):
            break
        x = xn
        sweeps += 1
    if sweeps == 0:
        return
    yield x, sweeps

    def resid(xv):
        return pair.duality_map_H((xv - u) / tau) - implicit_rhs(xv)

    G = resid(x)
    gn = float(np.max(np.abs(G))) if G.size else 0.0
    if not np.isfinite(gn):
        return
    steps = 0
    for it in range(settings.max_iter):
        if gn <= settings.tol_abs:
            break
        M_diag = pair.duality_map_H_prime((x - u) / tau) / tau
        M = scipy.sparse.diags(M_diag) - (p / D) * pair.hess_J_matrix(x)
        delta = eigensolvers.polish_solve(M, -G, settings)[0]
        if not np.all(np.isfinite(delta)):
            return
        steps += 1
        t = 1.0
        accepted = False
        for _ in range(31):
            xt = x + t * delta
            Gt = resid(xt)
            gt = float(np.max(np.abs(Gt)))
            if np.isfinite(gt) and gt < gn:
                x, G, gn = xt, Gt, gt
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
    yield x, sweeps + steps


LADDER = [2.0 * 0.5 ** j for j in range(12)]  # run_geometric's tau ladder
POLISH = eigensolvers.POLISH  # and its settings


def first_step(pair, u):
    """(u, explicit, D) of run_geometric's first step from u, for u
    normalized."""
    p, q = pair.p, pair.q
    u = pair.as_vector(u)
    u = u / pair.norm_H(u)
    zeta = pair.subgrad_J(u)
    nu, nz = pair.norm_H(u), pair.dual_norm_H(zeta)
    G_H = nu ** (1.0 - p) * pair.duality_map_H(u)
    G_Hs = nz ** (1.0 - q) * power_map(zeta, q)
    E = G_H * nz + (pair.hess_J_matrix(u) @ G_Hs) * nu
    D = nu * nz
    cos = pair.pairing(zeta, u) / D
    return u, cos * E / D, D


def candidates(pair, u, tau, explicit, D):
    """The sweep at tau, then its polish, as (vector, count) pairs."""
    first = power_map(
        eigensolvers._implicit_rhs(pair, pair.subgrad_J(u), explicit, D),
        pair.q)
    sweep = _sweep(pair, u, tau, explicit, D, first)
    if sweep is None:
        return []
    x, report = _polish(pair, u, tau, explicit, D, sweep[0], POLISH)
    if x is None:
        assert not report.converged
        return [sweep]
    return [sweep, (x, sweep[1] + report.iterations)]


def assert_same_candidates(pair, u, tau, explicit, D, expect=None):
    got = candidates(pair, u, tau, explicit, D)
    ref = list(_reference_candidates(pair, u, tau, explicit, D, POLISH))
    assert [n for _, n in got] == [n for _, n in ref]
    assert all(np.array_equal(a, b) for (a, _), (b, _) in zip(got, ref))
    if expect is not None:
        assert len(got) == expect
    return got


class TestPolishMatchesReference:
    @given(p=st.floats(1.5, 5.0), j=st.integers(0, 11),
           shape=st.sampled_from(["square", "lshape"]),
           cells=st.integers(9, 13),
           start=st.sampled_from(["ex1", "ex2", "random"]),
           seed=st.integers(0, 2 ** 16))
    @settings(max_examples=30, deadline=None)
    def test_grid(self, p, j, shape, cells, start, seed):
        h = 2.0 / cells
        dom = build_domain(shape, 2.0, h)
        inst = PLaplaceInstance(dom, build_stencil(dom, h ** 0.5, p), p)
        if start == "random":
            rng = np.random.default_rng(seed)
            u = np.where(dom.interior_mask,
                         rng.standard_normal(dom.interior_mask.shape), 0.0)
        else:
            u = eval_initial_guess(start, dom).values
        u, explicit, D = first_step(inst, u)
        assert_same_candidates(inst, u, LADDER[j], explicit, D)

    @pytest.mark.parametrize("tau", LADDER)
    def test_spd_dense(self, tau):
        rng = np.random.default_rng(5)
        B = rng.standard_normal((6, 6))
        pair = SpdInstance(B @ B.T + 0.5 * np.eye(6))
        u, explicit, D = first_step(pair, rng.standard_normal(6))
        assert_same_candidates(pair, u, tau, explicit, D, expect=2)

    def test_nan_step_drops_polish(self, small_grid, monkeypatch):
        monkeypatch.setattr(eigensolvers, "cg_solve", failing_cg)
        monkeypatch.setattr(scipy.sparse.linalg, "spsolve",
                            lambda A, b, **kw: np.full(len(b), np.nan))
        u = eval_initial_guess("ex2", small_grid.domain).values
        u, explicit, D = first_step(small_grid, u)
        assert_same_candidates(small_grid, u, 0.5, explicit, D, expect=1)

    @pytest.mark.parametrize("case", ["grid-nan", "spd-inf"])
    def test_overflowing_sweep_residual_drops_polish(self, small_grid, spd,
                                                     case):
        # The sweep stops when its next iterate overflows; the residual of
        # the last finite one is then NaN (grid, tau=1e20) or infinite
        # (SPD, explicit step 1e300).
        if case == "grid-nan":
            u = eval_initial_guess("ex1", small_grid.domain).values
            args = (small_grid, small_grid.as_vector(u), 1e20,
                    np.zeros(small_grid.n_interior), 1.0)
        else:
            args = (spd, np.array([0.8, 0.6]), 1.0, np.full(2, 1e300), 1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            got = assert_same_candidates(*args, expect=1)
        assert got[0][1] < 10

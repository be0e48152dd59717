import math

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings, strategies as st

from nonlin_eig import eigensolvers, metrics, newton
from nonlin_eig.eigensolvers import (SENTINEL, EigenTrace, _part, _polish,
                                     _sweep, balance_root, log_balance_slope,
                                     run_balanced_ipm, run_geometric,
                                     run_ipm, run_ppm, secant_predictor)
from nonlin_eig.functional import SpdInstance, power_map
from nonlin_eig.grid import build_domain, build_stencil, eval_initial_guess
from nonlin_eig.newton import NewtonSettings
from nonlin_eig.plaplace import PLaplaceInstance
from nonlin_eig.validation import dual_rq_decrease


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
    u = np.where(inst.domain.interior_mask, np.sin(np.pi * X)
                 + 0.5 * np.cos(np.pi * X / 2) * np.cos(np.pi * Y / 2), 0.0)
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
    slope, _ = log_balance_slope(inst, w, parts, zp, s, settings)
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
    # the start and the stop test after each of the 6 steps, which the
    # final trace reuses
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


@pytest.fixture(scope="module")
def square11():
    dom = build_domain("square", 2.0, 0.2)
    return PLaplaceInstance(dom, build_stencil(dom, 0.45, 3.0), 3.0)


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
        assert rec.gap == metrics.duality_gap(square11, u, zJ, u)
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
        lam_rq = trace.extras["lambda_rq"]
        lam_half = trace.extras["lambda_half_step"]
        # R(u^k) and |v^k|^{1-p} both converge to the eigenvalue
        assert lam_rq[-1] == pytest.approx(lam_half[-1], rel=1e-6)

    def test_inner_residuals_recorded(self, small_grid):
        u0 = eval_initial_guess("ex1", small_grid.domain).values
        trace = run_ipm(small_grid, u0, 5)
        assert len(trace.extras["inner_residuals"]) == 5
        assert all(r <= 1e-12 for r in trace.extras["inner_residuals"])

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

        def recording(pair, u_free, tau, *args):
            taus.append(tau)
            return polish(pair, u_free, tau, *args)

        polish = eigensolvers._polish
        monkeypatch.setattr(eigensolvers, "_polish", recording)
        trace = run_geometric(spd, np.array([1.0, 0.0]), 5)
        assert trace.stop_reason == "stalled" and taus == [2.0]

    # The 20 grid runs of the geometric sweep (19x19, r = sqrt(h), 25
    # steps): final lambda, record count and the winner of each accepted
    # step (s = sweep, p = polish), recorded with a polish at every rung of
    # the ladder, which one polish per step must reproduce.  All stall.
    @pytest.mark.parametrize("shape,p,start,lam,n_records,winners", [
        ("square", 1.5, "ex1", 40.63222733667498, 3, "ss"),
        ("square", 1.5, "ex2", 40.69395557216665, 2, "s"),
        ("square", 2, "ex1", 101.44863734808045, 2, "s"),
        ("square", 2, "ex2", 97.81286478987003, 2, "s"),
        ("square", 3, "ex1", 869.1100304324036, 2, "p"),
        ("square", 3, "ex2", 885.8575735660813, 7, "psssss"),
        ("square", 4, "ex1", 7476.541940244013, 2, "s"),
        ("square", 4, "ex2", 7371.741864248301, 5, "ppss"),
        ("square", 5, "ex1", 60741.46862433419, 2, "s"),
        ("square", 5, "ex2", 58899.63690247838, 2, "p"),
        ("lshape", 1.5, "ex1", 40.73758720749166, 2, "s"),
        ("lshape", 1.5, "ex2", 40.74194039446166, 3, "ss"),
        ("lshape", 2, "ex1", 101.10078751764041, 2, "s"),
        ("lshape", 2, "ex2", 98.04740781751401, 2, "s"),
        ("lshape", 3, "ex1", 853.0049718280575, 2, "s"),
        ("lshape", 3, "ex2", 861.8148330949883, 7, "ppssss"),
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
        # polishes once, the stalled one too, so it factors the polish
        # system at least once and at most max_iter = 12 times
        calls = [0]
        spsolve = scipy.sparse.linalg.spsolve

        def counted(*args, **kwargs):
            calls[0] += 1
            return spsolve(*args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "spsolve", counted)
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

        monkeypatch.setattr(scipy.sparse.linalg, "spsolve", broken_spsolve)
        u0 = eval_initial_guess("ex2", small_grid.domain).values
        with pytest.raises(ValueError, match="factorization failed"):
            run_geometric(small_grid, u0, 3)


# The geometric sweep and polish as they were written with the polish's
# own backtracking Newton loop, before it ran on newton.damped_newton; kept
# as the reference _sweep and _polish must reproduce bit for bit.  The
# polish is counted as sweeps + the Newton steps that solved a system.
def _reference_candidates(pair, u_free, tau, explicit, D, settings,
                          n_sweeps=10):
    p = pair.p

    def implicit_rhs(xv):
        return p * pair.free_flatten(pair.subgrad_J(pair.lift_free(xv))) / D \
            - explicit

    x = u_free.copy()
    sweeps = 0
    for _ in range(n_sweeps):
        xn = u_free + tau * power_map(implicit_rhs(x), pair.q)
        if not np.all(np.isfinite(xn)):
            break
        x = xn
        sweeps += 1
    if sweeps == 0:
        return
    yield x, sweeps

    def resid(xv):
        s_field = pair.lift_free((xv - u_free) / tau)
        return pair.free_flatten(pair.duality_map_H(s_field)) \
            - implicit_rhs(xv)

    G = resid(x)
    gn = float(np.max(np.abs(G))) if G.size else 0.0
    if not np.isfinite(gn):
        return
    steps = 0
    for it in range(settings.max_iter):
        if gn <= settings.tol_abs:
            break
        s_field = pair.lift_free((x - u_free) / tau)
        M_diag = pair.duality_map_H_prime(s_field) / tau
        H = pair.hess_J_matrix(pair.lift_free(x))
        if scipy.sparse.issparse(H):
            M = scipy.sparse.diags(M_diag) - (p / D) * H
            delta = scipy.sparse.linalg.spsolve(M.tocsc(), -G,
                                                permc_spec="MMD_AT_PLUS_A")
        else:
            M = np.diag(M_diag) - (p / D) * np.asarray(H)
            try:
                delta = np.linalg.solve(M, -G)
            except np.linalg.LinAlgError:
                return
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
POLISH = NewtonSettings(tol_abs=1e-10, max_iter=12)  # and its settings


def first_step(pair, u):
    """(u_free, explicit, D) of run_geometric's first step from u."""
    p, q = pair.p, pair.q
    u = u / pair.norm_H(u)
    zeta = pair.subgrad_J(u)
    nu, nz = pair.norm_H(u), pair.dual_norm_H(zeta)
    G_H = nu ** (1.0 - p) * pair.duality_map_H(u)
    G_Hs = nz ** (1.0 - q) * power_map(zeta, q)
    E = pair.free_flatten(G_H) * nz \
        + (pair.hess_J_matrix(u) @ pair.free_flatten(G_Hs)) * nu
    D = nu * nz
    cos = pair.pairing(zeta, u) / D
    return pair.free_flatten(u), cos * E / D, D


def candidates(pair, u_free, tau, explicit, D):
    """The sweep at tau, then its polish, as (free vector, count) pairs."""
    sweep = _sweep(pair, u_free, tau, explicit, D)
    if sweep is None:
        return []
    polish = _polish(pair, u_free, tau, explicit, D, sweep[0], POLISH)
    if polish is None:
        return [sweep]
    return [sweep, (polish[0], sweep[1] + polish[1])]


def assert_same_candidates(pair, u_free, tau, explicit, D, expect=None):
    got = candidates(pair, u_free, tau, explicit, D)
    ref = list(_reference_candidates(pair, u_free, tau, explicit, D, POLISH))
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
        u_free, explicit, D = first_step(inst, u)
        assert_same_candidates(inst, u_free, LADDER[j], explicit, D)

    @pytest.mark.parametrize("tau", LADDER)
    def test_spd_dense(self, tau):
        rng = np.random.default_rng(5)
        B = rng.standard_normal((6, 6))
        pair = SpdInstance(B @ B.T + 0.5 * np.eye(6))
        u_free, explicit, D = first_step(pair, rng.standard_normal(6))
        assert_same_candidates(pair, u_free, tau, explicit, D, expect=2)

    def test_nan_step_drops_polish(self, small_grid, monkeypatch):
        monkeypatch.setattr(scipy.sparse.linalg, "spsolve",
                            lambda A, b, **kw: np.full(len(b), np.nan))
        u = eval_initial_guess("ex2", small_grid.domain).values
        u_free, explicit, D = first_step(small_grid, u)
        assert_same_candidates(small_grid, u_free, 0.5, explicit, D,
                               expect=1)

    @pytest.mark.parametrize("case", ["grid-nan", "spd-inf"])
    def test_overflowing_sweep_residual_drops_polish(self, small_grid, spd,
                                                     case):
        # The sweep stops when its next iterate overflows; the residual of
        # the last finite one is then NaN (grid, tau=1e20) or infinite
        # (SPD, explicit step 1e300).
        if case == "grid-nan":
            u = eval_initial_guess("ex1", small_grid.domain).values
            args = (small_grid, small_grid.free_flatten(u), 1e20,
                    np.zeros(small_grid.n_interior), 1.0)
        else:
            args = (spd, np.array([0.8, 0.6]), 1.0, np.full(2, 1e300), 1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            got = assert_same_candidates(*args, expect=1)
        assert got[0][1] < 10

    def test_linalg_error_drops_polish(self, spd, monkeypatch):
        def singular(M, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        u_free, explicit, D = first_step(spd, np.array([1.0, 0.6]))
        assert_same_candidates(spd, u_free, 0.5, explicit, D, expect=1)

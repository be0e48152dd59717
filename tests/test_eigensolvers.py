import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings, strategies as st

from nonlin_eig import metrics, newton
from nonlin_eig.eigensolvers import (EigenTrace, _semi_implicit_candidates,
                                     ridders, run_balanced_ipm,
                                     run_geometric, run_ipm, run_ppm,
                                     secant_predictor)
from nonlin_eig.functional import SpdInstance, power_map
from nonlin_eig.grid import build_domain, build_stencil, eval_initial_guess
from nonlin_eig.newton import NewtonSettings
from nonlin_eig.plaplace import PLaplaceInstance


@pytest.fixture(scope="module")
def spd():
    return SpdInstance(np.diag([2.0, 5.0]))


@pytest.fixture(scope="module")
def small_grid():
    dom = build_domain("square", 2.0, 0.1)
    return PLaplaceInstance(dom, build_stencil(dom, 0.25, 3.0), 3.0)


class TestRidders:
    def test_polynomial_root(self):
        x, fx, evals = ridders(lambda t: t ** 3 - 2.0, 0.0, 2.0, -2.0, 6.0,
                               ftol=1e-12)
        assert abs(x - 2.0 ** (1 / 3)) <= 1e-10
        assert abs(fx) <= 1e-12

    def test_endpoint_root(self):
        x, fx, evals = ridders(lambda t: t, 0.0, 1.0, 0.0, 1.0, ftol=1e-12)
        assert x == 0.0 and evals == 0

    def test_not_bracketed(self):
        with pytest.raises(ValueError):
            ridders(lambda t: t, 1.0, 2.0, 1.0, 2.0, ftol=1e-12)


@pytest.mark.parametrize("run", [
    lambda pair, u0, **kw: run_ipm(pair, u0, 6, **kw),
    lambda pair, u0, **kw: run_ppm(pair, u0, tau_tilde=0.5, iters=6, **kw),
], ids=["ipm", "ppm"])
def test_eigen_residual_once_per_step(spd, monkeypatch, run):
    u0 = np.array([1.0, 1.0])
    plain = run(spd, u0)
    calls = [0]
    original = metrics.eigen_residual

    def counted(pair, u):
        calls[0] += 1
        return original(pair, u)

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
        mus = [r.dual_rq for r in trace.records]
        for a, b in zip(mus, mus[1:]):
            assert b >= a - 1e-9 * max(abs(a), 1.0)

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
        # recorded with every inner solve warm-started from the previous
        # solution and CG run to cg_tol alone
        u0 = eval_initial_guess("ex2", small_grid.domain).values
        trace = run_balanced_ipm(small_grid, u0, 4)
        assert trace.final_lambda == pytest.approx(88.10019383184857,
                                                   rel=1e-10)
        assert metrics.eigen_residual(small_grid, trace.final_u) \
            == pytest.approx(0.456011143567228, rel=1e-10)

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

    def test_grid_polish_solver_error_propagates(self, small_grid,
                                                 monkeypatch):
        def broken_spsolve(*args, **kwargs):
            raise ValueError("factorization failed")

        monkeypatch.setattr(scipy.sparse.linalg, "spsolve", broken_spsolve)
        u0 = eval_initial_guess("ex2", small_grid.domain).values
        with pytest.raises(ValueError, match="factorization failed"):
            run_geometric(small_grid, u0, 3)


# The geometric polish as it was written with its own backtracking Newton
# loop, before it ran on newton.damped_newton; kept as the reference the
# shared loop must reproduce bit for bit.
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
    yield x, sweeps + settings.max_iter


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


def assert_same_candidates(pair, u_free, tau, explicit, D, expect=None):
    got = list(_semi_implicit_candidates(pair, u_free, tau, explicit, D,
                                         POLISH))
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

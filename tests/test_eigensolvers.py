import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import assume, example, given, settings, strategies as st

from nonlin_eig import eigensolvers, metrics, newton
from nonlin_eig.eigensolvers import (EigenTrace, _normalize, _polish,
                                     _sweep, balance_defect, ray_start,
                                     run_balanced_ipm, run_geometric,
                                     run_ipm, run_ppm)
from nonlin_eig.functional import SolveReport, SpdInstance, power_map
from nonlin_eig.grid import build_domain, eval_initial_guess
from nonlin_eig.newton import NewtonSettings
from nonlin_eig.plaplace import PLaplaceInstance
from nonlin_eig.validation import (dual_rq_decrease, duality_gap_at,
                                   p2_oracle, random_fields)


@pytest.fixture(scope="module")
def spd():
    return SpdInstance(np.diag([2.0, 5.0]))


class BalanceFamily:
    """The plain solves w(s) of dJ(w) = s zeta^+ - zeta^- for zeta =
    dH(u), u the normalized start u0 of a balanced run on pair, each from
    the eigen-ray."""

    def __init__(self, pair, u0):
        self.pair = pair
        self.u = u = pair.as_vector(u0) / pair.norm_H(pair.as_vector(u0))
        zeta = pair.duality_map_H(u)
        self.zp, self.zm = np.maximum(zeta, 0.0), np.maximum(-zeta, 0.0)
        self.ray = ray_start(pair, u, pair.energy_J(u) / pair.H(u))

    def solve(self, s):
        w, rep = self.pair.inverse_subgrad_J(s * self.zp - self.zm,
                                             NewtonSettings(),
                                             warm_start=self.ray)
        return w, rep


@settings(max_examples=25, deadline=None)
@given(p=st.floats(2.0, 5.0), shape=st.sampled_from(["square", "lshape"]),
       cells=st.integers(6, 12), radius=st.floats(1.0, 3.2),
       sigma=st.floats(-3.0, 3.0), seed=st.integers(0, 2 ** 32 - 1))
def test_bordered_solve_matches_dense_solve(p, shape, cells, radius, sigma,
                                            seed):
    # one Newton system of the bordered balanced step, at a random
    # sign-changing w: bordering with CG against the dense (n+1) x (n+1)
    # system [[A, -e^sigma zeta^+], [<g, .>, 0]]
    h = 2.0 / cells
    inst = PLaplaceInstance(build_domain(shape, 2.0, h), radius * h, p)
    w, zeta, b = random_fields(inst, 3, seed)
    zp = np.maximum(zeta, 0.0)
    border = newton._Border(inst, -np.maximum(-zeta, 0.0), zp)
    x = np.append(w, sigma)
    assert np.all(np.isfinite(border.residual(x)))
    system = border.jacobian(x)
    rhs = np.append(b, 1.0)
    delta, report = border.solve(system, rhs, 1e-14)
    assert report.cg_unconverged == 0
    A, g, s = system
    n = w.size
    M = np.zeros((n + 1, n + 1))
    M[:n, :n] = A.toarray()
    M[:n, n] = -s * zp
    M[n, :n] = [inst.pairing(g, e) for e in np.eye(n)]
    dense = np.linalg.solve(M, rhs)
    assert np.max(np.abs(delta - dense)) <= 1e-10 * np.max(np.abs(dense))


def test_bordered_system_shares_one_preconditioner(small_grid, monkeypatch):
    # one preconditioner per Newton system, shared by its z and y solves:
    # two_level on the halving path (p >= 2) of a lattice pair, Jacobi on
    # the primal-dual path (p < 2) and for a pair without a lattice
    n = 20
    T = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    cases = [
        (small_grid, eval_initial_guess("ex2", small_grid.domain).values,
         "two_level"),
        (PLaplaceInstance(small_grid.domain, 0.25, 1.5),
         eval_initial_guess("ex2", small_grid.domain).values, "jacobi"),
        (SpdInstance(T), np.random.default_rng(0).standard_normal(n),
         "jacobi"),
    ]
    made, used = {"jacobi": [], "two_level": []}, []
    cg_solve = newton.cg_solve

    def counted(name, make):
        def preconditioner(*args):
            made[name].append(make(*args))
            return made[name][-1]
        return preconditioner

    def recording(A, b, rtol, maxiter, x0=None, M=None):
        used.append(M)
        return cg_solve(A, b, rtol, maxiter, x0, M)

    for name in made:
        monkeypatch.setattr(newton, name, counted(name, getattr(newton, name)))
    monkeypatch.setattr(newton, "cg_solve", recording)
    for pair, u0, kind in cases:
        for made_of_kind in made.values():
            made_of_kind.clear()
        used.clear()
        trace = run_balanced_ipm(pair, u0, 1)
        systems = trace.records[0].inner.jacobians
        assert len(made[kind]) == systems > 0
        assert sum(map(len, made.values())) == systems
        assert used[::2] == used[1::2] == made[kind]


@pytest.mark.parametrize("shape", ["square", "lshape"])
def test_two_level_run_reaches_the_jacobi_runs_lambda(monkeypatch, shape):
    # 4 balanced steps at p = 3, with two_level and with Jacobi in its place
    dom = build_domain(shape, 2.0, 0.1)
    inst = PLaplaceInstance(dom, 0.25, 3.0)
    u0 = eval_initial_guess("ex2", dom).values
    lam = run_balanced_ipm(inst, u0, 4).final_lambda
    monkeypatch.setattr(newton, "two_level",
                        lambda A, aggregates: newton.jacobi(A))
    assert lam == pytest.approx(run_balanced_ipm(inst, u0, 4).final_lambda,
                                rel=1e-10)


@pytest.mark.parametrize("p,formed", [(3.0, "jacobian"),
                                       (1.5, "system")])
def test_bordered_system_formed_at_last_finite_residual(monkeypatch, p,
                                                        formed):
    # _Border keeps the (psi, g) of its latest finite residual and forms
    # each Newton system with it, which is right because damped_newton
    # forms a system only at the very iterate whose residual it evaluated
    # last, and that residual was finite: the halving path (jacobian) at
    # p = 3, the primal-dual path (system) at p = 1.5
    calls = []  # (method, x, whether the residual was finite)
    methods = {name: getattr(newton._Border, name)
               for name in ("residual", "jacobian", "system")}

    def recording(name):
        def method(self, x):
            out = methods[name](self, x)
            finite = name == "residual" and bool(np.all(np.isfinite(out)))
            calls.append((name, x, finite))
            return out
        return method

    for name in methods:
        monkeypatch.setattr(newton._Border, name, recording(name))
    dom = build_domain("square", 2.0, 0.1)
    inst = PLaplaceInstance(dom, 0.25, p)
    trace = run_balanced_ipm(inst, eval_initial_guess("ex2", dom).values, 2)
    assert trace.extras["fallback_steps"] == []
    systems = [i for i, call in enumerate(calls) if call[0] != "residual"]
    assert {calls[i][0] for i in systems} == {formed}
    assert len(systems) == sum(rec.inner.jacobians for rec in trace.records)
    assert all(rec.inner.jacobians > 0 for rec in trace.records)
    for i in systems:
        name, x, finite = next(call for call in reversed(calls[:i])
                               if call[0] == "residual")
        assert x is calls[i][1] and finite


@settings(max_examples=25, deadline=None)
@given(p=st.floats(2.0, 5.0), shape=st.sampled_from(["square", "lshape"]),
       cells=st.integers(6, 12), radius=st.floats(1.0, 3.2),
       mix=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1))
@example(p=5.0, shape="lshape", cells=6, radius=1.0, mix=0.9375,
         seed=1800446336)
def test_warm_started_bordered_solve_matches_cold(p, shape, cells, radius,
                                                  mix, seed):
    # step 0's bordered solve, from the ex2 start mixed with a random
    # field: its CG for A y = zeta^+ starts from the previous Newton step's
    # y, and started from 0 instead the solve reaches the same (w, s).
    # Either may stall where the other converges, and the step then
    # stalls: on 200 such draws both converged on 179 (worst
    # disagreement 1.9e-12), only the warm-started one on 7, neither on 8.
    # On the example, with Jacobi-preconditioned CG in place of two_level,
    # both converged but to two roots, s = 544.48 warm and 220.18 cold
    h = 2.0 / cells
    inst = PLaplaceInstance(build_domain(shape, 2.0, h), radius * h, p)
    u0 = inst.as_vector(eval_initial_guess("ex2", inst.domain).values)
    u0 = u0 / np.max(np.abs(u0)) + mix * random_fields(inst, 1, seed)[0]
    assume(np.any(u0 > 0) and np.any(u0 < 0))
    cg_solve, solve = newton.cg_solve, eigensolvers.solve_p_poisson
    starts = []  # whether each CG call of the warm-started solve had one

    def warm(A, b, rtol, maxiter, x0=None, M=None):
        starts.append(x0 is not None)
        return cg_solve(A, b, rtol, maxiter, x0, M)

    def cold(A, b, rtol, maxiter, x0=None, M=None):
        return cg_solve(A, b, rtol, maxiter, None, M)

    def bordered_solve(cg):
        solves = []

        def recording(*args, **kwargs):
            solves.append(solve(*args, **kwargs))
            return solves[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(newton, "cg_solve", cg)
            mp.setattr(eigensolvers, "solve_p_poisson", recording)
            run_balanced_ipm(inst, u0, 1)
        return solves[0] if solves else (None, SolveReport(converged=False))

    x, report = bordered_solve(warm)
    x_ref, report_ref = bordered_solve(cold)
    assume(report.converged and report_ref.converged)
    assert starts.count(True) == report.iterations - 1
    s, s_ref = math.exp(x[-1]), math.exp(x_ref[-1])
    assert abs(s - s_ref) <= 1e-10 * s_ref
    assert np.max(np.abs(x[:-1] - x_ref[:-1])) \
        <= 1e-10 * np.max(np.abs(x_ref[:-1]))


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


@pytest.mark.parametrize("tol", [float("inf"), float("nan"), 0.0])
@pytest.mark.parametrize("run", [
    lambda pair, u0, **kw: run_ipm(pair, u0, 6, **kw),
    lambda pair, u0, **kw: run_ppm(pair, u0, tau_tilde=0.5, iters=6, **kw),
], ids=["ipm", "ppm"])
def test_residual_tol_must_be_positive_and_finite(spd, run, tol):
    # an infinite one used to stop after one step and report convergence
    with pytest.raises(ValueError, match="residual_tol must be positive"):
        run(spd, np.array([1.0, 1.0]), residual_tol=tol)


@pytest.mark.parametrize("run", [
    lambda pair, u0, s: run_ipm(pair, u0, 2, s),
    lambda pair, u0, s: run_ppm(pair, u0, tau_tilde=0.5, iters=1, settings=s),
], ids=["ipm", "ppm"])
def test_cg_settings_reach_inner_solves(small_grid, monkeypatch, run):
    # newton's CG tolerance floor and budget reach every CG call
    seen = []
    original = newton.cg_solve

    def recording(A, b, rtol, maxiter):
        seen.append((rtol, maxiter))
        return original(A, b, rtol, maxiter)

    monkeypatch.setattr(newton, "cg_solve", recording)
    monkeypatch.setattr(newton, "CG_RTOL", 1e-3)
    monkeypatch.setattr(newton, "cg_budget", lambda n: 7)
    u0 = eval_initial_guess("ex1", small_grid.domain).values
    run(small_grid, u0, NewtonSettings())
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
    # every CG call, the balanced scheme's bordered solves and the
    # geometric polish's solves included; no scheme factors a system
    calls, lu_calls = [], [0]
    original, spsolve = newton.cg_solve, scipy.sparse.linalg.spsolve

    def recording(A, b, rtol, maxiter, x0=None, M=None):
        result = original(A, b, rtol, maxiter, x0, M)
        calls.append((result[1], not result.report.cg_unconverged))
        return result

    def counted(*args, **kwargs):
        lu_calls[0] += 1
        return spsolve(*args, **kwargs)

    monkeypatch.setattr(newton, "cg_solve", recording)
    monkeypatch.setattr(eigensolvers, "cg_solve", recording)
    monkeypatch.setattr(scipy.sparse.linalg, "spsolve", counted)
    trace = run(small_grid, eval_initial_guess(start, small_grid.domain).values)
    assert len(trace.records) == 3
    assert sum(rec.inner.cg_iterations_total for rec in trace.records) \
        == sum(it for it, _ in calls) > 0
    assert sum(rec.inner.cg_unconverged for rec in trace.records) \
        == sum(not ok for _, ok in calls) == 0
    assert trace.inner_work.cg_iterations_total == sum(it for it, _ in calls)
    assert lu_calls[0] == 0


@pytest.fixture(scope="module")
def square11():
    dom = build_domain("square", 2.0, 0.2)
    return PLaplaceInstance(dom, 0.45, 3.0)


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

    def test_inner_residuals_recorded(self, small_grid):
        u0 = eval_initial_guess("ex1", small_grid.domain).values
        trace = run_ipm(small_grid, u0, 5, exact=True)
        assert len(trace.records) == 5
        assert all(rec.inner.final_residual <= 1e-12
                   for rec in trace.records)

    @pytest.mark.parametrize("shape,h,r", [("square", 0.1, 0.25),
                                           ("lshape", 0.05, 0.2)])
    def test_ray_start_solves_p2_eigenvector(self, shape, h, r):
        dom = build_domain(shape, 2.0, h)
        inst = PLaplaceInstance(dom, r, 2.0)
        _, vec = p2_oracle(inst)
        u = vec / inst.norm_H(vec)
        zeta = inst.duality_map_H(u)
        start = ray_start(inst, u, metrics.rayleigh_quotient(inst, u))
        _, rep = newton.solve_p_poisson(inst, zeta, start)
        assert rep.converged and rep.iterations <= 1
        assert run_ipm(inst, u, 1).records[0].inner.iterations \
            == rep.iterations
        _, from_u = newton.solve_p_poisson(inst, zeta, u)
        assert from_u.converged and from_u.iterations > rep.iterations

    def test_residual_tol_stop(self, spd):
        trace = run_ipm(spd, np.array([1.0, 0.2]), 200, residual_tol=1e-12)
        assert trace.stop_reason == "residual_tol"
        assert len(trace.records) < 200

    def test_zero_start_rejected(self, spd):
        with pytest.raises(ValueError):
            run_ipm(spd, np.zeros(2), 5)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_start_rejected(self, spd, value):
        with pytest.raises(ValueError, match="normalize"):
            run_ipm(spd, np.array([1.0, value]), 5)


@pytest.fixture(scope="module")
def lshape21_ipm():
    """30 IPM steps from the ex1 start on the 21x21 L-shape (h = 0.1,
    r = 0.2) per p: {exact: trace} for exact and inexact inner solves."""
    dom = build_domain("lshape", 2.0, 0.1)
    u0 = eval_initial_guess("ex1", dom).values
    runs = {}
    for p in (1.5, 2.0, 3.0, 5.0):
        inst = PLaplaceInstance(dom, 0.2, p)
        runs[p] = inst, {exact: run_ipm(inst, u0, 30, exact=exact)
                         for exact in (True, False)}
    return runs


class TestInexactIpm:
    @pytest.mark.parametrize("p", [2.0, 3.0, 5.0])
    def test_same_eigenpair_for_less_work(self, lshape21_ipm, p):
        inst, runs = lshape21_ipm[p]
        exact, inexact = runs[True], runs[False]
        assert dual_rq_decrease(inexact) <= 1e-9
        assert inexact.final_lambda == pytest.approx(exact.final_lambda,
                                                     rel=1e-10)
        assert metrics.eigen_residual(inst, inexact.final_u) \
            <= 1.01 * metrics.eigen_residual(inst, exact.final_u)
        assert sum(r.inner.iterations for r in inexact.records) \
            < sum(r.inner.iterations for r in exact.records)

    def test_ledger_lists_each_tolerance(self, lshape21_ipm):
        _, runs = lshape21_ipm[3.0]
        tol_abs = NewtonSettings().tol_abs
        extras = runs[False].extras
        tols = extras["inner_tolerances"]
        residuals = [rec.inner.final_residual for rec in runs[False].records]
        assert not extras["failed_inner_solves"]
        assert len(tols) == 30
        assert tols[-1] == tol_abs < tols[0]
        assert all(r <= tol for r, tol in zip(residuals, tols))
        assert runs[True].extras["inner_tolerances"] == [tol_abs] * 30

    def test_below_p2_solves_exactly(self, lshape21_ipm):
        _, runs = lshape21_ipm[1.5]
        exact, default = runs[True], runs[False]

        def fields(trace):
            return [replace(r, wall_time=0.0) for r in trace.records]

        assert fields(default) == fields(exact)
        assert np.array_equal(default.final_u, exact.final_u)

    @pytest.mark.parametrize("exact", [True, False])
    def test_p2_rate_is_lambda1_over_lambda3(self, lshape21_ipm, exact):
        # the ex1 start is symmetric under x <-> y, as the L-shape is, so
        # it has no component on the second mode, and inverse iteration
        # removes the third at lambda_1 / lambda_3 per step; loose inner
        # solves must keep that rate
        inst, runs = lshape21_ipm[2.0]
        res = [r.residual for r in runs[exact].records[10:]]
        rate = float(np.median([b / a for a, b in zip(res, res[1:])]))
        lam1, lam3 = p2_oracle(inst)[0], p2_oracle(inst, 3)[0]
        assert rate == pytest.approx(lam1 / lam3, rel=1e-6)


@pytest.mark.parametrize("run", [
    lambda inst, u0: run_ipm(inst, u0, 2),
    lambda inst, u0: run_balanced_ipm(inst, u0, 2),
    lambda inst, u0: run_ppm(inst, u0, 0.5, 2),
    lambda inst, u0: run_geometric(inst, u0, 2),
], ids=["ipm", "balanced", "ppm", "geometric"])
def test_nan_lattice_start_rejected(small_grid, run):
    u0 = eval_initial_guess("ex2", small_grid.domain).values
    u0[5, 5] = np.nan
    with pytest.raises(ValueError, match="normalize"):
        run(small_grid, u0)


class TestPpm:
    def test_spd_recovered_eigenvalue(self, spd):
        trace = run_ppm(spd, np.array([1.0, 1.0]), tau_tilde=0.1, iters=80)
        assert trace.solver_tag == "ppm"
        assert abs(trace.extras["lambda_recovered"] - 2.0) <= 1e-8

    def test_dual_rq_tau_below_one(self, spd):
        trace = run_ppm(spd, np.array([1.0, 1.0]), tau_tilde=0.5, iters=20)
        assert all(r.dual_rq < 1.0 for r in trace.records)

    def test_p2_rate_is_lambda1_over_lambda3(self, lshape21_ipm):
        # at p = 2 the PPM is power iteration on (I + tau M)^-1, which
        # removes the ex1 start's third mode (it has no second, see
        # TestInexactIpm) at (1 + tau lambda_1) / (1 + tau lambda_3) per
        # step; tau = tau_tilde at p = 2
        inst = lshape21_ipm[2.0][0]
        trace = run_ppm(inst, eval_initial_guess("ex1", inst.domain).values,
                        1.0, 30)
        res = [r.residual for r in trace.records[10:]]
        rate = float(np.median([b / a for a, b in zip(res, res[1:])]))
        lam1, lam3 = p2_oracle(inst)[0], p2_oracle(inst, 3)[0]
        assert rate == pytest.approx((1.0 + lam1) / (1.0 + lam3), rel=1e-6)

    def test_stationary_at_eigenvector(self, spd):
        trace = run_ppm(spd, np.array([1.0, 0.0]), tau_tilde=0.2, iters=5)
        assert np.allclose(np.abs(trace.final_u), [1.0, 0.0], atol=1e-10)
        assert abs(trace.extras["lambda_recovered"] - 2.0) <= 1e-10

    def test_rejects_nonpositive_tau(self, spd):
        with pytest.raises(ValueError):
            run_ppm(spd, np.array([1.0, 1.0]), tau_tilde=0.0, iters=5)

    @pytest.mark.parametrize("tau_tilde", [float("inf"), float("nan")])
    def test_rejects_non_finite_tau(self, spd, tau_tilde):
        # a non-finite tau_tilde used to return the start's eigenvalue
        with pytest.raises(ValueError, match="tau_tilde must be positive and finite"):
            run_ppm(spd, np.array([1.0, 1.0]), tau_tilde=tau_tilde, iters=5)

    def test_grid_lambda_agreement_with_ipm(self, small_grid):
        u0 = eval_initial_guess("ex1", small_grid.domain).values
        t_ipm = run_ipm(small_grid, u0, 25)
        t_ppm = run_ppm(small_grid, u0, tau_tilde=0.5, iters=60)
        assert t_ppm.extras["lambda_recovered"] == pytest.approx(
            t_ipm.final_lambda, rel=1e-4)

    def test_unconverged_cg_listed(self, small_grid, monkeypatch):
        monkeypatch.setattr(newton, "cg_budget", lambda n: 1)
        u0 = eval_initial_guess("ex1", small_grid.domain).values
        trace = run_ppm(small_grid, u0, 0.5, 2, NewtonSettings(max_iter=5))
        assert len(trace.records) == 2
        assert sum(rec.inner.cg_unconverged for rec in trace.records) > 0
        assert trace.extras["failed_inner_solves"] == [0, 1]

    @pytest.mark.parametrize("settings", [None, NewtonSettings(max_iter=1)],
                             ids=["converged", "unconverged"])
    def test_lambda_recovered_from_last_step(self, small_grid, monkeypatch,
                                             settings):
        # the closed form of the last step's lambda_tau, whether or not
        # its prox solve converged; no prox solve runs after the loop
        calls = [0]
        prox_J = PLaplaceInstance.prox_J

        def counted(self, *args):
            calls[0] += 1
            return prox_J(self, *args)

        monkeypatch.setattr(PLaplaceInstance, "prox_J", counted)
        u0 = eval_initial_guess("ex1", small_grid.domain).values
        trace = run_ppm(small_grid, u0, 0.5, 3, settings)
        assert calls[0] == len(trace.records) == 3
        assert trace.extras["failed_inner_solves"] \
            == ([] if settings is None else [0, 1, 2])
        p, q, tau = small_grid.p, small_grid.q, trace.extras["tau"]
        lam_tau = trace.extras["lambda_tau"][-1]
        assert trace.extras["lambda_recovered"] \
            == (lam_tau / tau) * (1.0 - lam_tau ** (1.0 - q)) ** (p - 1.0)
        assert run_ppm(small_grid, u0, 0.5, 0).extras["lambda_recovered"] \
            is None


class TestBalanced:
    def test_needs_sign_changing_start(self, small_grid):
        dom = small_grid.domain
        # the second start's one negative node, a corner, is not interior
        corner = np.abs(eval_initial_guess("ex1", dom).values)
        corner[0, 0] = -1.0
        assert not dom.interior_mask[0, 0]
        for u0 in (np.where(dom.interior_mask, 1.0, 0.0), corner):
            with pytest.raises(ValueError):
                run_balanced_ipm(small_grid, u0, 3)

    def test_spd_oracle_second_eigenvalue(self):
        # the 1-D Dirichlet Laplacian: the scheme's exact p = 2 oracle
        n = 20
        T = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        lam2 = np.linalg.eigvalsh(T)[1]
        rng = np.random.default_rng(0)
        for _ in range(5):
            trace = run_balanced_ipm(SpdInstance(T), rng.standard_normal(n),
                                     60)
            assert trace.final_lambda == pytest.approx(lam2, rel=1e-9)
            assert trace.extras["fallback_steps"] == []
            assert all(d <= eigensolvers.BALANCE_TOL
                       for d in trace.extras["balance_defects"])

    def test_stalls_on_a_nan_bordered_step(self):
        # this diagonal pair has no balance: the parts of any solve sit on
        # one node each, with Rayleigh quotients 2 and 5, so psi is
        # constant, its gradient vanishes and the first bordered step is
        # NaN.  The solve returns its start unconverged, and the scheme
        # stalls there with the solve listed as failed
        trace = run_balanced_ipm(SpdInstance(np.diag([2.0, 5.0])),
                                 np.array([1.0, -1.0]), 3)
        assert trace.stop_reason == "stalled"
        assert len(trace.records) == 1
        assert trace.records[0].inner.iterations == 0
        assert trace.extras["fallback_steps"] == [0]
        assert trace.extras["failed_inner_solves"] == [0]
        assert np.isnan(trace.records[0].inner.final_residual)
        assert trace.extras["balance_roots"] == [1.0]
        assert trace.extras["balance_defects"] == [3.0]

    @pytest.mark.parametrize("p,sign", [
        pytest.param(2.0, 1.0, id="2.0"), pytest.param(3.0, 1.0, id="3.0"),
        pytest.param(2.0, -1.0, id="negative-2.0"),
        pytest.param(3.0, -1.0, id="negative-3.0"),
        pytest.param(5.0, -1.0, id="negative-5.0")])
    def test_positive_part_without_norm_falls_back(self, p, sign):
        # one node of sign 1e-200 against a start of the other sign: that
        # part of zeta underflows to dual norm 0, which the bordered start
        # s0 = |zeta^-|_* / |zeta^+|_* divides by (+) or takes the log of
        # (-); no bordered solve runs, and the scheme stalls at the start
        dom = build_domain("square", 2.0, 0.2)
        inst = PLaplaceInstance(dom, 0.45, p)
        u0 = -sign * np.abs(
            inst.as_vector(eval_initial_guess("ex1", dom).values))
        u0[0] = sign * 1e-200
        trace = run_balanced_ipm(inst, u0, 3)
        assert trace.stop_reason == "stalled"
        assert trace.records[0].inner.iterations == 0
        assert trace.extras["fallback_steps"] == [0]
        assert trace.extras["failed_inner_solves"] == []
        assert np.isnan(trace.extras["balance_roots"][0])
        assert np.isnan(trace.extras["balance_defects"][0])
        assert np.array_equal(trace.final_u,
                              _normalize(inst, inst.as_vector(u0)))

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
        # which the bordered Newton solve reproduces to 1.3e-11; the
        # eigen-residual recorded with the bordered solve (0.45601114358251044
        # with the Newton root search bracketed by the balance range, 3.1e-10
        # away; 0.45601114387115205 when step 0 doubled s to a bracket;
        # 0.4560111429534977 with Illinois)
        u0 = eval_initial_guess("ex2", small_grid.domain).values
        trace = run_balanced_ipm(small_grid, u0, 4)
        assert trace.final_lambda == pytest.approx(88.10019383023001,
                                                   rel=1e-10)
        assert metrics.eigen_residual(small_grid, trace.final_u) \
            == pytest.approx(0.4560111434396051, rel=1e-10)

    def test_four_steps_solve_count(self, small_grid):
        u0 = eval_initial_guess("ex2", small_grid.domain).values
        trace = run_balanced_ipm(small_grid, u0, 4)
        # one bordered solve per step, where the root search took [7, 4,
        # 3, 4] solves.  Newton steps per outer step: [57, 28, 21, 24] with
        # Illinois, [49, 12, 7, 7] when step 0 doubled s, [36, 12, 7, 7]
        # with the root search's tangent and scaled-ray starts, [6, 5, 5, 5]
        # before the bordered solve forced its first step, [7, 5, 5, 4]
        # with Jacobi-preconditioned CG in place of two_level
        assert [rec.inner.iterations for rec in trace.records] == [7, 5, 4, 5]
        assert trace.extras["fallback_steps"] == []
        assert len(trace.extras["balance_roots"]) == 4
        assert all(d <= eigensolvers.BALANCE_TOL
                   for d in trace.extras["balance_defects"])
        assert trace.extras["failed_inner_solves"] == []

    @pytest.mark.parametrize("case", ["square-p3", "spd-p2", "square-p1.5"])
    def test_bordered_root_balances_the_plain_solve(self, small_grid, case):
        # one bordered step from the start gives (s*, w*): the plain solve
        # at s* reproduces w*, balanced, and phi changes sign across s*
        if case == "spd-p2":
            n = 20
            pair = SpdInstance(2.0 * np.eye(n) - np.eye(n, k=1)
                               - np.eye(n, k=-1))
            u0 = np.random.default_rng(0).standard_normal(n)
        else:
            p = 1.5 if case == "square-p1.5" else 3.0
            pair = PLaplaceInstance(small_grid.domain, 0.25, p)
            u0 = eval_initial_guess("ex2", small_grid.domain).values
        trace = run_balanced_ipm(pair, u0, 1)
        assert trace.records[0].inner.iterations > 0
        assert trace.extras["fallback_steps"] == []
        (s,) = trace.extras["balance_roots"]
        family = BalanceFamily(pair, u0)
        w, _ = family.solve(s)
        assert abs(balance_defect(pair, w)) <= eigensolvers.BALANCE_TOL
        w_star = trace.final_u
        assert np.max(np.abs(w / pair.norm_H(w) - w_star)) \
            <= 1e-8 * np.max(np.abs(w_star))
        below, above = (balance_defect(pair, family.solve(s * math.exp(d))[0])
                        for d in (-1e-3, 1e-3))
        assert below > 0.0 > above

    def test_root_outside_balance_range_refused(self):
        # on the 19x19 square at p = 5, from the ex2 start, the bordered
        # solve converges to s = 4463.5 > 2^12; taken, it led to lambda
        # 766.46, where the step stalls at the start's 1037.54
        dom = build_domain("square", 2.0, 0.1)
        inst = PLaplaceInstance(dom, 0.25, 5.0)
        u0 = eval_initial_guess("ex2", dom).values
        trace = run_balanced_ipm(inst, u0, 1)
        (s,) = trace.extras["balance_roots"]
        assert s > eigensolvers.BALANCE_RANGE
        assert trace.stop_reason == "stalled"
        assert trace.extras["fallback_steps"] == [0]
        assert trace.extras["failed_inner_solves"] == []
        assert np.array_equal(trace.final_u,
                              _normalize(inst, inst.as_vector(u0)))

    def test_bordered_solve_that_never_left_its_start_refused(self):
        # draw 7 of CHANGES.md's ledger (5): 12 cells on the L-shape,
        # p = 1.7376, the ex2 start plus 0.2252 of a random field.  The
        # second step's bordered solve starts balanced (scaling a part
        # keeps its Rayleigh quotient), runs away and returns that start
        # unconverged; it is not a root, so the step stalls and lists it.
        # That solve sets no new least residual for 10 steps: it returns
        # its start with WANDER_STEPS = 10, and under the default it
        # converges on its 22nd step
        h = 2.0 / 12
        dom = build_domain("lshape", 2.0, h)
        inst = PLaplaceInstance(dom, 2.706508518539426 * h,
                                1.737566826623267)
        u0 = inst.as_vector(eval_initial_guess("ex2", dom).values)
        u0 = (u0 / np.max(np.abs(u0))
              + 0.22520718999059186 * random_fields(inst, 1, 238506309)[0])
        u1 = run_balanced_ipm(inst, u0, 1).final_u
        attempts = []
        solve = eigensolvers.solve_p_poisson

        def recording(*args, **kwargs):
            x, rep = solve(*args, **kwargs)
            attempts.append((x, args[2], rep))
            return x, rep

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(eigensolvers, "solve_p_poisson", recording)
            run_balanced_ipm(inst, u1, 1)
            mp.setattr(newton, "WANDER_STEPS", 10)
            trace = run_balanced_ipm(inst, u1, 1)
        (_, _, patient), (x, x0, attempt) = attempts
        assert patient.converged and patient.iterations == 22
        assert np.array_equal(x, x0) and not attempt.converged
        assert abs(balance_defect(inst, x0[:-1])) <= eigensolvers.BALANCE_TOL
        assert trace.stop_reason == "stalled"
        assert trace.extras["fallback_steps"] == [0]
        assert trace.extras["failed_inner_solves"] == [0]
        assert trace.extras["balance_roots"] == [math.exp(x0[-1])]

    # 6 steps on the 19x19 grids, r = 0.25, from the ex2 start: the final
    # lambda, the step that stalled on a refused root and the stop reason,
    # recorded with the balance rooted by Illinois regula falsi.  The
    # refused roots at p = 5 on the square and p = 4 and 5 on the L-shape
    # lie outside the balance range; the L-shape's at p = 5 (s = 1.16e6)
    # did not converge with Jacobi-preconditioned CG in place of two_level
    @pytest.mark.parametrize("shape,p,lam,fallback,stop", [
        pytest.param("square", 2, 24.517331265631753, [], "max_iter",
                     id="square-p2"),
        pytest.param("square", 3, 87.95600051458665, [], "max_iter",
                     id="square-p3"),
        pytest.param("square", 4, 271.56281719878535, [], "max_iter",
                     id="square-p4"),
        pytest.param("square", 5, 1037.5430646817563, [0], "stalled",
                     id="square-p5"),
        pytest.param("lshape", 2, 19.66047566497462, [], "max_iter",
                     id="lshape-p2"),
        pytest.param("lshape", 3, 59.91645776523257, [], "max_iter",
                     id="lshape-p3"),
        pytest.param("lshape", 4, 330.4803358174672, [0], "stalled",
                     id="lshape-p4"),
        pytest.param("lshape", 5, 1379.2601429501779, [0], "stalled",
                     id="lshape-p5"),
    ])
    def test_trajectory_pinned(self, shape, p, lam, fallback, stop):
        dom = build_domain(shape, 2.0, 0.1)
        inst = PLaplaceInstance(dom, 0.25, p)
        trace = run_balanced_ipm(inst, eval_initial_guess("ex2", dom).values,
                                 6)
        assert trace.final_lambda == pytest.approx(lam, rel=1e-8)
        assert trace.extras["fallback_steps"] == fallback
        assert trace.extras["failed_inner_solves"] == []
        assert trace.stop_reason == stop
        rooted = [d for k, d in enumerate(trace.extras["balance_defects"])
                  if k not in fallback]
        assert all(d <= eigensolvers.BALANCE_TOL for d in rooted)

    # the same lattices and start below p = 2: lambda recorded with the
    # balance rooted by the safeguarded Newton search in log s, which
    # listed 6, 0, 5 and 1 of the 6 steps in failed_inner_solves
    @pytest.mark.parametrize("shape,p,lam", [
        pytest.param("square", 1.5, 11.497809999717441, id="square-p1.5"),
        pytest.param("square", 1.75, 17.06450123763941, id="square-p1.75"),
        pytest.param("lshape", 1.5, 10.256402167408748, id="lshape-p1.5"),
        pytest.param("lshape", 1.75, 14.369916736972982, id="lshape-p1.75"),
    ])
    def test_every_step_bordered_below_p2(self, shape, p, lam):
        dom = build_domain(shape, 2.0, 0.1)
        inst = PLaplaceInstance(dom, 0.25, p)
        trace = run_balanced_ipm(inst, eval_initial_guess("ex2", dom).values,
                                 6)
        extras = trace.extras
        assert len(trace.records) == 6
        assert extras["fallback_steps"] == []
        assert all(rec.inner.iterations > 0 for rec in trace.records)
        assert all(d <= eigensolvers.BALANCE_TOL
                   for d in extras["balance_defects"])
        # criterion 7's floor for the p = 1.5 inner solves
        assert max(rec.inner.final_residual for rec in trace.records) <= 1e-9
        assert trace.final_lambda == pytest.approx(lam, rel=1e-8)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_failed_inner_solves_listed(self, small_grid):
        # two Newton steps per solve: step 0's bordered solve ends short
        # of a balance, unconverged, so the scheme stalls there and lists it
        u0 = eval_initial_guess("ex2", small_grid.domain).values
        trace = run_balanced_ipm(small_grid, u0, 2,
                                 settings=NewtonSettings(max_iter=2))
        assert trace.stop_reason == "stalled" and len(trace.records) == 1
        assert trace.extras["fallback_steps"] == [0]
        assert trace.extras["failed_inner_solves"] == [0]
        assert trace.records[0].inner.final_residual > 1e-12

    # draws 5040 and 5093 of CHANGES.md's ledger (5) generator: (p, shape,
    # cells, radius, mix, field seed).  A step refuses its bordered root
    # and the run stalls on the last root taken, which is balanced.  The
    # deleted fallback solve at s = 1 went on from an unbalanced iterate
    # instead (|phi| 17 and 20; 5093 stopped at max_iter)
    @pytest.mark.parametrize("p,shape,cells,radius,mix,seed", [
        (1.3672240961470177, "square", 10, 1.2039056712587732,
         0.623706929880231, 2088551410),
        (4.2761362055298076, "square", 6, 1.5341915542868776,
         0.7464434291212312, 467406748),
    ], ids=["draw5040", "draw5093"])
    def test_refused_root_stalls_on_a_balanced_iterate(self, p, shape, cells,
                                                       radius, mix, seed):
        h = 2.0 / cells
        inst = PLaplaceInstance(build_domain(shape, 2.0, h), radius * h, p)
        u0 = inst.as_vector(eval_initial_guess("ex2", inst.domain).values)
        u0 = u0 / np.max(np.abs(u0)) + mix * random_fields(inst, 1, seed)[0]
        trace = run_balanced_ipm(inst, u0, 6)
        assert trace.stop_reason == "stalled"
        assert trace.extras["fallback_steps"] == [len(trace.records) - 1]
        assert abs(balance_defect(inst, trace.final_u)) \
            <= eigensolvers.BALANCE_TOL

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
        assert trace.extras["F"] == [1.0 - rec.cosim for rec in trace.records]

    def test_grid_polish_candidate_wins(self):
        # p=4 on the 19x19 square from the ex2 start: the first step's
        # polish stops in the far field and a sweep wins; the second step's
        # polish runs in its root's basin for its max_iter 12 Newton steps
        # and wins, and its record reports those steps.  This test ran
        # p = 5 before the far-field stop, whose first step the polish won
        # (winners "p", lambda 58899.63690247836); that polish now stops in
        # the far field.
        dom = build_domain("square", 2.0, 0.1)
        inst = PLaplaceInstance(dom, 0.1 ** 0.5, 4.0)
        u0 = eval_initial_guess("ex2", dom).values
        trace = run_geometric(inst, u0, 25)
        assert "".join(c[0] for c in trace.extras["candidate"]) == "spss"
        assert trace.extras["far_field"] == [0]
        assert trace.records[1].inner.iterations == 12
        Fs = trace.extras["F"]
        assert all(b <= a for a, b in zip(Fs, Fs[1:]))
        assert trace.final_lambda == pytest.approx(7371.741865715649,
                                                   rel=1e-9)

    def test_records_report_their_polish(self, spd, monkeypatch):
        # each record's inner is the report of its step's _polish call as
        # that call returned it, whichever candidate wins and on the stall
        # too.  p=4 on the 19x19 square from the ex2 start: the far-field
        # step 0 solves once and takes no Newton step, each later polish
        # takes its 12 (a sweep won steps 2 and 3, step 4 stalled)
        reports = []
        polish = eigensolvers._polish

        def recording(*args):
            x, report = polish(*args)
            reports.append(report)
            return x, report

        monkeypatch.setattr(eigensolvers, "_polish", recording)
        dom = build_domain("square", 2.0, 0.1)
        inst = PLaplaceInstance(dom, 0.1 ** 0.5, 4.0)
        trace = run_geometric(inst, eval_initial_guess("ex2", dom).values, 25)
        assert trace.stop_reason == "stalled"
        assert len(reports) == len(trace.records) == 5
        assert all(rec.inner is report
                   for rec, report in zip(trace.records, reports))
        assert [rec.inner.iterations for rec in trace.records] \
            == [0, 12, 12, 12, 12]
        assert trace.inner_work.iterations == 48
        # with no finite sweep the step polishes nothing, and its record's
        # report is empty
        monkeypatch.setattr(eigensolvers, "_sweep", lambda *args: None)
        trace = run_geometric(spd, np.array([1.0, 0.6]), 5)
        assert trace.stop_reason == "stalled"
        assert [rec.inner for rec in trace.records] == [SolveReport()]

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
                            lambda pair, u, *args: np.zeros_like(u))
        monkeypatch.setattr(eigensolvers, "_polish", None)
        trace = run_geometric(spd, np.array([1.0, 0.6]), 5)
        assert trace.stop_reason == "stalled" and len(trace.records) == 1

    def test_zero_polish_loses_to_the_sweep(self, monkeypatch):
        # the second step of test_grid_polish_candidate_wins takes the
        # polish; a polish that lands on 0 is no candidate, so a sweep wins
        dom = build_domain("square", 2.0, 0.1)
        inst = PLaplaceInstance(dom, 0.1 ** 0.5, 4.0)
        monkeypatch.setattr(eigensolvers, "_polish", lambda pair, u, *args:
                            (np.zeros_like(u), SolveReport()))
        trace = run_geometric(inst, eval_initial_guess("ex2", dom).values, 2)
        assert trace.extras["candidate"] == ["sweep", "sweep"]

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
    # Ten values were recorded again once the kernels summed each stencil
    # edge once (half-edge layout), which reorders every sum; record counts,
    # winners and stop reasons are unchanged.  Before → after (relative):
    #   square 1.5 ex1 40.63224395922126 → 40.632325606979386 (2.0e-6)
    #   square 1.5 ex2 40.69395557216665 → 40.69383603696968 (2.9e-6)
    #   square 3 ex1 869.1100304324036 → 869.1100303845451 (5.5e-11)
    #   square 4 ex1 7476.541940244013 → 7476.5159048305195 (3.5e-6)
    #   square 5 ex1 60741.46862433419 → 60741.42437458268 (7.3e-7)
    #   lshape 1.5 ex1 40.73758785771548 → 40.737587638836395 (5.4e-9)
    #   lshape 1.5 ex2 40.74194039446166 → 40.74193972179087 (1.7e-8)
    #   lshape 3 ex1 853.0049718280575 → 853.0049718259518 (2.5e-12)
    #   lshape 4 ex1 7029.324334188518 → 7029.3243346506315 (6.6e-11)
    #   lshape 5 ex1 56979.381280957896 → 56979.38188527551 (1.1e-8)
    # With the old kernels, a start perturbed by 1e-15 relative (standard
    # normal per node, seed 0) moves them further: square 4 ex1 to
    # 7471.776610801207 (6.4e-4), square 1.5 ex1 to 40.85171892622102 with
    # 2 records instead of 3, lshape 1.5 ex1 to 40.62273244499709 with 3
    # instead of 2; so these pins record rounding, not behaviour.
    # Seven rows were recorded again once a polish that its first Newton
    # step finds in the far field stops there and offers no candidate
    # (_polish): each first step the polish won goes to a sweep.  Before →
    # after (relative change; records and winners):
    #   square 3 ex1 869.1100303845451 → 869.1100303269587 (6.6e-11; p → s)
    #   square 3 ex2 885.8575735660813 → 885.8576560748525 (9.3e-8;
    #     psssss → ssssss)
    #   square 4 ex2 7371.741864239004 → 7371.741865715649 (2.0e-10;
    #     ppss → spss)
    #   square 5 ex2 58899.63690247838 → 58899.6369024742 (7.1e-14; p → s)
    #   lshape 3 ex2 861.8148330323462 → 860.8993247364976 (1.1e-3;
    #     7 → 4 records, ppssss → sps)
    #   lshape 4 ex2 7080.883278552417 → 7080.883278545367 (9.9e-13; p → s)
    #   lshape 5 ex2 55311.666699214235 → 55311.666699200134 (2.6e-13; p → s)
    # Without that stop the L-shape p = 3 ex2 run reaches the same
    # 4-record state (lambda 860.8995-860.8998, eigen-residual 0.1135) from
    # 2 of 4 starts u0 (1 + 1e-7 N(0, 1)) per node (seeds 0-3).
    # The four p = 1.5 rows were recorded again once D_{2,p} was computed
    # in closed form instead of by quadrature, which moved it by 9.8e-12
    # relative at p = 1.5, by at most 2.9e-16 at p = 2, 4 and 5 and not
    # at p = 3.  Before → after (relative); records, winners and stops
    # are unchanged:
    #   square 1.5 ex1 40.632325606979386 → 40.63232672734388 (2.8e-8)
    #   square 1.5 ex2 40.69383603696968 → 40.69397709096551 (3.5e-6)
    #   lshape 1.5 ex1 40.737587638836395 → 40.73758762969051 (2.2e-10)
    #   lshape 1.5 ex2 40.74193972179087 → 40.74193803231293 (4.1e-8)
    # Four rows were recorded again once one constant EPSILON smoothed
    # every kernel derivative, in place of EPSILON max(1, max|x|) of a
    # vector x that each derivative read; the smoothing reaches lambda
    # only through Newton iterates.  Before → after (relative); records,
    # winners and stops are unchanged:
    #   square 1.5 ex1 40.63232672734388 → 40.63232670605028 (5.2e-10)
    #   lshape 1.5 ex1 40.73758762969051 → 40.73749252784677 (2.3e-6)
    #   lshape 1.5 ex2 40.74193803231293 → 40.7332697169334 (2.1e-4)
    #   lshape 3 ex1 853.0049718259518 → 853.0049718238365 (2.5e-12)
    @pytest.mark.parametrize("shape,p,start,lam,n_records,winners", [
        pytest.param("square", 1.5, "ex1", 40.63232670605028, 3, "ss",
                     id="square-p1.5-ex1"),
        pytest.param("square", 1.5, "ex2", 40.69397709096551, 2, "s",
                     id="square-p1.5-ex2"),
        pytest.param("square", 2, "ex1", 101.44863734808045, 2, "s",
                     id="square-p2-ex1"),
        pytest.param("square", 2, "ex2", 97.81286478987003, 2, "s",
                     id="square-p2-ex2"),
        pytest.param("square", 3, "ex1", 869.1100303269587, 2, "s",
                     id="square-p3-ex1"),
        pytest.param("square", 3, "ex2", 885.8576560748525, 7, "ssssss",
                     id="square-p3-ex2"),
        pytest.param("square", 4, "ex1", 7476.5159048305195, 2, "s",
                     id="square-p4-ex1"),
        pytest.param("square", 4, "ex2", 7371.741865715649, 5, "spss",
                     id="square-p4-ex2"),
        pytest.param("square", 5, "ex1", 60741.42437458268, 2, "s",
                     id="square-p5-ex1"),
        pytest.param("square", 5, "ex2", 58899.6369024742, 2, "s",
                     id="square-p5-ex2"),
        pytest.param("lshape", 1.5, "ex1", 40.73749252784677, 2, "s",
                     id="lshape-p1.5-ex1"),
        pytest.param("lshape", 1.5, "ex2", 40.7332697169334, 3, "ss",
                     id="lshape-p1.5-ex2"),
        pytest.param("lshape", 2, "ex1", 101.10078751764041, 2, "s",
                     id="lshape-p2-ex1"),
        pytest.param("lshape", 2, "ex2", 98.04740781751401, 2, "s",
                     id="lshape-p2-ex2"),
        pytest.param("lshape", 3, "ex1", 853.0049718238365, 2, "s",
                     id="lshape-p3-ex1"),
        pytest.param("lshape", 3, "ex2", 860.8993247364976, 4, "sps",
                     id="lshape-p3-ex2"),
        pytest.param("lshape", 4, "ex1", 7029.3243346506315, 2, "s",
                     id="lshape-p4-ex1"),
        pytest.param("lshape", 4, "ex2", 7080.883278545367, 2, "s",
                     id="lshape-p4-ex2"),
        pytest.param("lshape", 5, "ex1", 56979.38188527551, 2, "s",
                     id="lshape-p5-ex1"),
        pytest.param("lshape", 5, "ex2", 55311.666699200134, 2, "s",
                     id="lshape-p5-ex2"),
    ])
    def test_grid_trajectory_pinned(self, shape, p, start, lam, n_records,
                                    winners):
        dom = build_domain(shape, 2.0, 0.1)
        inst = PLaplaceInstance(dom, 0.1 ** 0.5, p)
        u0 = eval_initial_guess(start, dom).values
        trace = run_geometric(inst, u0, 25)
        assert trace.final_lambda == pytest.approx(lam, rel=1e-12)
        assert trace.stop_reason == "stalled"
        assert len(trace.records) == n_records
        assert "".join(c[0] for c in trace.extras["candidate"]) == winners

    @pytest.mark.parametrize("shape,n_records", [("square", 7),
                                                 ("lshape", 4)],
                             ids=["square", "lshape"])
    def test_one_polish_per_step(self, shape, n_records, monkeypatch):
        # p=3 from ex2 on the 19x19 grids: 7 and 4 outer steps, each of
        # which polishes once, the stalled one too, so it solves the polish
        # system at least once and at most max_iter = 12 times.  The
        # L-shape run took 7 steps before a polish its first Newton step
        # finds in the far field stopped there (step 0's polish won then).
        calls = [0]
        cg_solve = eigensolvers.cg_solve

        def counted(*args, **kwargs):
            calls[0] += 1
            return cg_solve(*args, **kwargs)

        monkeypatch.setattr(eigensolvers, "cg_solve", counted)
        dom = build_domain(shape, 2.0, 0.1)
        inst = PLaplaceInstance(dom, 0.1 ** 0.5, 3.0)
        u0 = eval_initial_guess("ex2", dom).values
        at_step = [0]  # calls so far, after each accepted step
        trace = run_geometric(inst, u0, 25, snapshot_cb=lambda k, u:
                              at_step.append(calls[0]))
        at_step.append(calls[0])  # the last, stalled, step has no callback
        per_step = [b - a for a, b in zip(at_step, at_step[1:])]
        assert len(per_step) == len(trace.records) == n_records
        assert 1 <= min(per_step) and max(per_step) <= 12

    @pytest.mark.parametrize("p", [0, 1.5, 2.0], ids=["spd", "1.5", "2"])
    def test_no_far_field_stop_up_to_p2(self, spd, p, monkeypatch):
        # at p = 2 Newton is exact and below it the step flips the sign of
        # w = x - u, so no polish stops after its first solve: each takes a
        # Newton step per system it solves
        polishes = []
        polish = eigensolvers._polish

        def recording(*args):
            polishes.append(polish(*args))
            return polishes[-1]

        monkeypatch.setattr(eigensolvers, "_polish", recording)
        if p:
            dom = build_domain("square", 2.0, 0.1)
            inst = PLaplaceInstance(dom, 0.25, p)
            trace = run_geometric(inst, eval_initial_guess("ex1", dom).values,
                                  25)
        else:
            trace = run_geometric(spd, np.array([1.0, 0.6]), 40)
        assert trace.extras["far_field"] == []
        assert any(report.jacobians for _, report in polishes)
        for x, report in polishes:
            assert report.iterations == report.jacobians
            assert (x is None) == (not np.isfinite(report.final_residual))

    def test_grid_polish_solver_error_propagates(self, small_grid,
                                                 monkeypatch):
        def broken_cg(*args):
            raise ValueError("CG failed")

        monkeypatch.setattr(eigensolvers, "cg_solve", broken_cg)
        u0 = eval_initial_guess("ex2", small_grid.domain).values
        with pytest.raises(ValueError, match="CG failed"):
            run_geometric(small_grid, u0, 3)


class TestPolishLinearSolves:
    """Every Newton system of the polish goes to cg_solve as it is, at the
    polish's CG tolerance and budget, and the line search judges the
    step."""

    @staticmethod
    def polish(pair, u, tau, monkeypatch, solve=newton.cg_solve):
        """(sweep, polish x, polish report, [(M, b, result)] of the polish's
        linear solves) of run_geometric's first step from u at tau, each
        system solved by solve."""
        systems = []

        def recording(A, b, rtol, maxiter):
            assert (rtol, maxiter) == (eigensolvers.POLISH_CG_RTOL,
                                       eigensolvers.POLISH_CG_BUDGET)
            systems.append((A, b, solve(A, b, rtol, maxiter)))
            return systems[-1][2]

        monkeypatch.setattr(eigensolvers, "cg_solve", recording)
        u, explicit, D = first_step(pair, u)
        first = power_map(eigensolvers._implicit_rhs(
            pair, pair.subgrad_J(u), explicit, D), pair.q)
        sweep = _sweep(pair, u, tau, explicit, D, first)
        x, report = _polish(pair, u, tau, explicit, D, sweep)
        return sweep, x, report, systems

    @staticmethod
    def run_systems(inst, iters, monkeypatch):
        """(trace, [(M, b, delta, report)] of every polish system) of
        run_geometric from the ex2 start."""
        systems = []
        cg_solve = eigensolvers.cg_solve

        def recording(M, b, rtol, maxiter):
            result = cg_solve(M, b, rtol, maxiter)
            systems.append((M, b, result[0], result.report))
            return result

        monkeypatch.setattr(eigensolvers, "cg_solve", recording)
        u0 = eval_initial_guess("ex2", inst.domain).values
        return run_geometric(inst, u0, iters), systems

    @staticmethod
    def assert_superlu_agrees(M, b, delta):
        lu = scipy.sparse.linalg.spsolve(M.tocsc(), b,
                                         permc_spec="MMD_AT_PLUS_A")
        assert np.linalg.norm(delta - lu) <= 1e-10 * np.linalg.norm(lu)

    def test_workload_systems_take_cg(self, monkeypatch):
        # the polish systems of the 51x51 p=3 square from the ex2 start,
        # the second step's indefinite one included, converge under CG and
        # agree with SuperLU's solution.  Both polishes stop in the far
        # field after their first system: 2 systems, 24 before that stop
        dom = build_domain("square", 2.0, 0.04)
        inst = PLaplaceInstance(dom, 0.2, 3.0)
        trace, systems = self.run_systems(inst, 2, monkeypatch)
        assert [rec.inner.cg_unconverged for rec in trace.records] == [0, 0]
        assert trace.extras["far_field"] == [0, 1]
        assert len(systems) == 2
        for M, b, delta, report in systems:
            assert report.cg_unconverged == 0
            assert 0 < report.cg_iterations_total <= 200
            assert np.linalg.norm(M @ delta - b) <= 1e-12 * np.linalg.norm(b)
            self.assert_superlu_agrees(M, b, delta)

    def test_near_field_systems_take_cg(self, monkeypatch):
        # the second step of the 19x19 p=4 square from the ex2 start
        # polishes in its root's basin for all 12 Newton steps and wins;
        # its systems, most of them indefinite, converge under CG and agree
        # with SuperLU's solution
        dom = build_domain("square", 2.0, 0.1)
        inst = PLaplaceInstance(dom, 0.1 ** 0.5, 4.0)
        trace, systems = self.run_systems(inst, 2, monkeypatch)
        assert trace.extras["candidate"] == ["sweep", "polish"]
        assert trace.extras["far_field"] == [0]
        near = systems[1:]
        assert len(near) == trace.records[1].inner.jacobians == 12
        indefinite = 0
        for M, b, delta, report in near:
            assert report.cg_unconverged == 0
            assert 0 < report.cg_iterations_total <= 200
            eigs = np.linalg.eigvalsh(M.toarray())
            indefinite += eigs[0] < 0.0 < eigs[-1]
            self.assert_superlu_agrees(M, b, delta)
        assert indefinite >= 6

    @pytest.mark.parametrize("tau,n_systems", [(2.0, 1), (0.25, 12)])
    def test_far_field_polish_stops_after_one_solve(self, small_grid,
                                                    monkeypatch, tau,
                                                    n_systems):
        # p=3 on the 19x19 square from the ex2 start.  At tau = 2 the first
        # Newton step is -w/(p-1) for w = x - u to 1.4e-11 relative: the
        # polish is in the far field, where 12 steps would end outside its
        # root's basin, so it stops after that one solve and offers no
        # candidate, reporting the solve's work and the seed's residual.
        # At tau = 1/4 the step deviates by 5.3e-3, and 5.3e-3 2^11 > 1, so
        # the polish runs its 12 steps
        u0 = eval_initial_guess("ex2", small_grid.domain).values
        sweep, x, report, systems = self.polish(small_grid, u0, tau,
                                                monkeypatch)
        assert len(systems) == report.jacobians == n_systems
        assert report.cg_iterations_total \
            == sum(result[1] for _, _, result in systems)
        if n_systems > 1:
            assert x is not None and report.iterations == 12
            return
        u, explicit, D = first_step(small_grid, u0)
        w = (sweep - u) / (small_grid.p - 1.0)
        delta = systems[0][2][0]
        assert np.linalg.norm(delta + w) <= 1e-9 * np.linalg.norm(w)
        assert x is None and report.iterations == 0
        seed_residual = small_grid.duality_map_H((sweep - u) / tau) \
            - eigensolvers._implicit_rhs(
                small_grid, small_grid.subgrad_J(sweep), explicit, D)
        assert report.final_residual == np.max(np.abs(seed_residual))
        assert not report.converged
        # in a run, both steps' polishes stop so; the steps list in
        # extras["far_field"], and their records keep the finite residual
        trace = run_geometric(small_grid, u0, 3)
        assert trace.extras["far_field"] == [0, 1]
        assert trace.extras["candidate"] == ["sweep", "sweep"]
        for rec in trace.records[:2]:
            assert rec.inner.jacobians == 1
            assert np.isfinite(rec.inner.final_residual)

    def test_mixed_sign_system_takes_cg(self, monkeypatch):
        # the first polish system of the 6x6 SPD pair at tau = 1 has a
        # diagonal of both signs and is indefinite; CG solves it as it is
        # and the polish converges
        rng = np.random.default_rng(5)
        B = rng.standard_normal((6, 6))
        pair = SpdInstance(B @ B.T + 0.5 * np.eye(6))
        _, _, report, systems = self.polish(pair, rng.standard_normal(6), 1.0,
                                            monkeypatch)
        M, b, result = systems[0]
        diag, eigs = M.diagonal(), np.linalg.eigvalsh(M.toarray())
        assert diag.min() < 0.0 < diag.max() and eigs[0] < 0.0 < eigs[-1]
        assert not result.report.cg_unconverged
        assert np.linalg.norm(M @ result[0] - b) <= 1e-12 * np.linalg.norm(b)
        assert report.converged and report.cg_unconverged == 0

    def test_residual_raising_cg_step_is_refused(self, small_grid,
                                                 monkeypatch):
        # a CG that claims convergence on the reversed Newton step: no
        # length of it lowers the residual, so the line search refuses it,
        # the polish ends where the sweep did, and the sweep wins each step
        def uphill(A, b, rtol, maxiter):
            return newton.CgResult(-np.linalg.solve(A.toarray(), b), 7, True)

        u0 = eval_initial_guess("ex2", small_grid.domain).values
        sweep, x, report, systems = self.polish(small_grid, u0, 0.5,
                                                monkeypatch, uphill)
        assert len(systems) == 1 and np.array_equal(x, sweep)
        assert (report.iterations, report.cg_iterations_total,
                report.converged) == (1, 7, False)
        winners = run_geometric(small_grid, u0, 3).extras["candidate"]
        assert winners and set(winners) == {"sweep"}

    def test_negative_definite_system_takes_cg_as_is(self, small_grid,
                                                     monkeypatch):
        # at tau = 2 the 19x19 polish systems are negative definite; CG
        # runs on M itself, and its iterates on -M and -b are these negated
        # exactly, so delta is bit for bit that of CG on the flipped system
        u0 = eval_initial_guess("ex2", small_grid.domain).values
        _, _, _, systems = self.polish(small_grid, u0, 2.0, monkeypatch)
        M, b, result = systems[0]
        assert np.linalg.eigvalsh(M.toarray())[-1] < 0.0
        flipped, iters = newton.cg_solve(-M, -b, eigensolvers.POLISH_CG_RTOL,
                                         eigensolvers.POLISH_CG_BUDGET)
        assert iters == result[1] > 1 and np.array_equal(result[0], flipped)
        assert result.report == SolveReport(cg_iterations_total=iters)

    def test_cg_solve_error_leaves_polish(self, small_grid, monkeypatch):
        # the polish catches no failed linear solve: an error from its
        # cg_solve leaves _polish as it was raised
        def broken(*args):
            raise ValueError("factorization failed")

        u0 = eval_initial_guess("ex2", small_grid.domain).values
        with pytest.raises(ValueError, match="factorization failed"):
            self.polish(small_grid, u0, 0.5, monkeypatch, broken)


# The geometric sweep and polish as they were written with the polish's
# own backtracking Newton loop, before it ran on newton.damped_newton; kept
# as the reference _sweep and _polish must reproduce bit for bit.  The
# sweep is counted by its passes and the polish by the Newton steps that
# solved a system, which its report must count too.  Its systems go to the
# same eigensolvers.cg_solve, so the Newton loop is checked bit for bit
# whatever that returns.  It has since gained the
# far-field stop: for p > 2 a first step within ((p-2)/(p-1))^(max_iter-1)
# relative of -w/(p-1), w = x - u, ends the polish with no candidate.
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
        M = scipy.sparse.diags(M_diag) - (p / D) * pair.jacobian_matrix(x)
        delta = eigensolvers.cg_solve(M, -G, eigensolvers.POLISH_CG_RTOL,
                                      eigensolvers.POLISH_CG_BUDGET)[0]
        if not np.all(np.isfinite(delta)):
            return
        if it == 0 and p > 2:
            w = (x - u) / (p - 1)
            if np.linalg.norm(delta + w) < np.linalg.norm(w) \
                    * ((p - 2) / (p - 1)) ** (settings.max_iter - 1):
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
    yield x, steps


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
    E = G_H * nz + (pair.jacobian_matrix(u) @ G_Hs) * nu
    D = nu * nz
    cos = pair.pairing(zeta, u) / D
    return u, cos * E / D, D


def candidates(pair, u, tau, explicit, D):
    """The sweep at tau, then its polish, as (vector, count) pairs: the
    sweep's count is None, as _sweep returns only its iterate, and the
    polish's is its report's Newton steps."""
    first = power_map(
        eigensolvers._implicit_rhs(pair, pair.subgrad_J(u), explicit, D),
        pair.q)
    sweep = _sweep(pair, u, tau, explicit, D, first)
    if sweep is None:
        return []
    x, report = _polish(pair, u, tau, explicit, D, sweep)
    if x is None:
        assert not report.converged
        return [(sweep, None)]
    return [(sweep, None), (x, report.iterations)]


def assert_same_candidates(pair, u, tau, explicit, D, expect=None):
    """The reference's candidates, once _sweep and _polish reproduce its
    vectors and its polish's Newton steps."""
    got = candidates(pair, u, tau, explicit, D)
    ref = list(_reference_candidates(pair, u, tau, explicit, D, POLISH))
    assert len(got) == len(ref)
    assert [n for _, n in got[1:]] == [n for _, n in ref[1:]]
    assert all(np.array_equal(a, b) for (a, _), (b, _) in zip(got, ref))
    if expect is not None:
        assert len(got) == expect
    return ref


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
        inst = PLaplaceInstance(dom, h ** 0.5, p)
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
        monkeypatch.setattr(eigensolvers, "cg_solve", lambda A, b, *args:
                            newton.CgResult(np.full(len(b), np.nan), 1, False))
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
            ref = assert_same_candidates(*args, expect=1)
        assert ref[0][1] < 10

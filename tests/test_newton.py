from dataclasses import fields

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import example, given, settings, strategies as st

from nonlin_eig import newton, plaplace
from nonlin_eig.eigensolvers import run_balanced_ipm
from nonlin_eig.functional import SolveReport, power_map
from nonlin_eig.grid import build_domain, eval_initial_guess
from nonlin_eig.newton import (NewtonSettings, cg_solve, damped_newton,
                               solve_p_poisson, solve_prox)
from nonlin_eig.plaplace import PLaplaceInstance
from nonlin_eig.validation import random_fields


def make_instance(p, h=0.1, r=0.25, shape="square"):
    dom = build_domain(shape, 2.0, h)
    return PLaplaceInstance(dom, r, p)


class TestSettings:
    def test_defaults(self):
        s = NewtonSettings()
        assert s.tol_abs == 1e-12 and s.max_iter == 500
        # the Newton stop only: CG's floor and budget are newton's own
        assert [f.name for f in fields(NewtonSettings)] \
            == ["tol_abs", "max_iter"]
        assert newton.CG_RTOL == 1e-10

    def test_validation(self):
        with pytest.raises(ValueError):
            NewtonSettings(tol_abs=0.0)
        with pytest.raises(ValueError):
            NewtonSettings(max_iter=0)
        assert newton.cg_budget(3) == 50 and newton.cg_budget(7) == 70

    @pytest.mark.parametrize("bad", [
        {"tol_abs": float("inf")}, {"tol_abs": float("nan")},
        {"max_iter": float("inf")}, {"max_iter": float("nan")}])
    def test_non_finite_rejected(self, bad):
        # an infinite tol_abs would end every solve before its first step
        with pytest.raises(ValueError, match="finite"):
            NewtonSettings(**bad)


def random_interior(inst, rng, scale=1.0):
    """An interior vector read from a seeded standard-normal lattice field."""
    shape = inst.domain.ny, inst.domain.nx
    return scale * inst.as_vector(rng.standard_normal(shape))


class TestCgSolve:
    def test_negative_definite_matrix(self):
        # Jacobi scaling must keep the sign of the diagonal: -A is solved
        # as well as A.
        rng = np.random.default_rng(4)
        B = rng.standard_normal((6, 6))
        A = B @ B.T + 6.0 * np.eye(6)
        b = rng.standard_normal(6)
        x, iters = cg_solve(-A, b, 1e-12, 100)
        assert 0 < iters <= 100
        assert np.linalg.norm(-A @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_exhausted_budget_reported(self):
        # SciPy's info != 0 reaches the caller as report.cg_unconverged 1
        rng = np.random.default_rng(6)
        B = rng.standard_normal((6, 6))
        A = B @ B.T + 6.0 * np.eye(6)
        b = rng.standard_normal(6)
        result = cg_solve(A, b, 1e-12, 1)
        x, iters = result
        assert iters == 1
        assert result.report == SolveReport(cg_iterations_total=1,
                                            cg_unconverged=1)
        assert np.linalg.norm(A @ x - b) > 1e-12 * np.linalg.norm(b)
        assert cg_solve(A, b, 1e-12, 100).report.cg_unconverged == 0


    def test_warm_start_and_shared_preconditioner(self):
        # from the solution CG takes no iteration, and a preconditioner
        # handed in is used as it is
        rng = np.random.default_rng(7)
        B = rng.standard_normal((6, 6))
        A = scipy.sparse.csr_matrix(B @ B.T + 6.0 * np.eye(6))
        b = rng.standard_normal(6)
        x, iters = cg_solve(A, b, 1e-12, 100)
        assert cg_solve(A, b, 1e-12, 100, x0=x)[1] == 0
        applied = []
        M = newton.jacobi(A)

        def counted(v):
            applied.append(v)
            return M.matvec(v)

        shared = scipy.sparse.linalg.LinearOperator(A.shape, matvec=counted)
        x_shared, iters_shared = cg_solve(A, b, 1e-12, 100, M=shared)
        assert applied and iters_shared == iters
        assert np.array_equal(x_shared, x)


class TestTwoLevel:
    @staticmethod
    def first_bordered_system(shape, h):
        """The Newton system of step 0's first bordered step on the ex2
        start, p = 3, r = h^(1/1.6): A and its right-hand sides b_u and
        zeta^+, as the two CG solves of the step receive them."""
        dom = build_domain(shape, 2.0, h)
        inst = PLaplaceInstance(dom, h ** (1 / 1.6), 3.0)
        calls = []

        def recording(A, b, rtol, maxiter, x0=None, M=None):
            calls.append((A, b.copy()))
            return cg_solve(A, b, rtol, maxiter, x0, M)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(newton, "cg_solve", recording)
            run_balanced_ipm(inst, eval_initial_guess("ex2", dom).values, 1,
                             NewtonSettings(max_iter=1))
        (A, b_u), (A_y, zeta_plus) = calls
        assert A_y is A
        return inst, A, (b_u, zeta_plus)

    @pytest.mark.parametrize("shape", ["square", "lshape"])
    def test_symmetric_positive_and_the_stated_operator(self, shape):
        # on a p = 3 Jacobian at a random field, M = D^-1 + P (P^T A P)^-1
        # P^T, formed densely here, and x . M y = y . M x, x . M x > 0 on
        # random vectors
        inst = make_instance(3.0, shape=shape)
        rng = np.random.default_rng(5)
        A = inst.jacobian_matrix(random_interior(inst, rng))
        M = newton.two_level(A, inst.aggregates)
        n, m = inst.n_interior, inst.aggregates.max() + 1
        P = np.zeros((n, m))
        P[np.arange(n), inst.aggregates] = 1.0
        dense = np.diag(1.0 / A.diagonal()) \
            + P @ np.linalg.solve(P.T @ A.toarray() @ P, P.T)
        X = rng.standard_normal((n, 8))
        MX = np.column_stack([M.matvec(x) for x in X.T])
        assert np.max(np.abs(MX - dense @ X)) <= 1e-10 * np.max(np.abs(MX))
        G = X.T @ MX
        assert np.max(np.abs(G - G.T)) <= 1e-12 * np.max(np.abs(G))
        assert np.all(np.linalg.eigvalsh(G) > 0.0)

    @pytest.mark.parametrize("shape", ["square", "lshape"])
    def test_fewer_cg_iterations_than_jacobi(self, shape):
        # both solves of a 31 x 31 lattice's bordered system: the true
        # relative residual, recomputed, meets rtol in fewer iterations
        inst, A, rhs = self.first_bordered_system(shape, 0.0625)
        rtol = 1e-6
        for b in rhs:
            iterations = []
            for M in (newton.jacobi(A), newton.two_level(A, inst.aggregates)):
                result = cg_solve(A, b, rtol, 1000, M=M)
                x, count = result
                assert result.report.cg_unconverged == 0
                assert np.linalg.norm(A @ x - b) <= rtol * np.linalg.norm(b)
                iterations.append(count)
            assert iterations[1] < iterations[0]

    def test_failed_coarse_factorization_ends_the_step(self, monkeypatch):
        # a Jacobian whose coarse matrix is not positive definite (negated
        # here) ends the bordered solve at its first step, through
        # damped_newton's non-finite step, with no CG run and no Jacobi
        inst = make_instance(3.0)
        jacobian = inst.jacobian_matrix

        def no_jacobi(A):
            raise AssertionError("fell back to Jacobi")

        monkeypatch.setattr(inst, "jacobian_matrix", lambda u: -jacobian(u))
        monkeypatch.setattr(newton, "jacobi", no_jacobi)
        u = inst.as_vector(eval_initial_guess("ex2", inst.domain).values)
        x0 = np.append(u, 0.0)
        zeta = power_map(u, inst.p)
        x, rep = solve_p_poisson(inst, -np.maximum(-zeta, 0.0), x0,
                                 border=np.maximum(zeta, 0.0))
        assert np.array_equal(x, x0)
        assert rep.jacobians == 1 and rep.iterations == 0
        assert not rep.converged and np.isnan(rep.final_residual)
        assert rep.cg_iterations_total == 0


class TestDampedNewton:
    def test_backtracks_31_halvings_deep(self):
        # From x=0 the step is 1; the residual only drops at x <= 2^-30,
        # the 31st and last trial length.
        def residual(x):
            if x[0] == 0.0:
                return np.array([-1.0])
            return np.array([0.5 if x[0] <= 2.0 ** -30 else 2.0])

        x, rep = damped_newton(np.zeros(1), residual, lambda x: None,
                               NewtonSettings(tol_abs=0.6),
                               linear_solve=lambda A, b, rtol:
                               (b, SolveReport()))
        assert x[0] == 2.0 ** -30
        assert rep.iterations == 1 and rep.converged
        assert (rep.jacobians, rep.residual_evals, rep.backtracks) \
            == (1, 32, 30)

    def test_sums_the_reports_of_a_custom_solve(self):
        # x^2 = 4 from x = 3 takes four Newton steps to 1e-6; the solves'
        # work is summed, and the loop's own iterations, work counts,
        # residual and convergence replace theirs
        def solve(A, b, rtol):
            return b / A, SolveReport(iterations=5, final_residual=0.5,
                                      converged=False, cg_iterations_total=3,
                                      cg_unconverged=1)

        x, rep = damped_newton(np.array([3.0]), lambda x: x * x - 4.0,
                               lambda x: 2.0 * x, NewtonSettings(tol_abs=1e-6),
                               linear_solve=solve)
        assert abs(x[0] - 2.0) <= 1e-6
        assert rep.iterations == 4 and rep.converged
        assert rep.final_residual <= 1e-6
        assert (rep.cg_iterations_total, rep.cg_unconverged) == (12, 4)
        assert (rep.jacobians, rep.residual_evals, rep.backtracks) \
            == (4, 5, 0)

    def test_handed_tolerance_reproduces_the_default_solve(self):
        # a custom solve that runs cg_solve at the tolerance it is handed
        # takes the default path's trial points bit for bit, forcing
        # included: the loop computes that tolerance once for both
        inst = make_instance(3.0)
        rng = np.random.default_rng(2)
        zeta = random_interior(inst, rng)
        start = random_interior(inst, rng)
        s = NewtonSettings()

        def run(linear_solve):
            trials = []

            def residual(x):
                trials.append(x.copy())
                return inst.neg_plaplacian(x) - zeta

            x, rep = damped_newton(start, residual, inst.jacobian_matrix, s,
                                   linear_solve=linear_solve)
            return x, rep, trials

        def handed(A, b, rtol):
            cg = cg_solve(A, b, rtol, newton.cg_budget(b.size))
            return cg[0], cg.report

        x_default, rep_default, default = run(None)
        x_handed, rep_handed, custom = run(handed)
        assert rep_default.converged and rep_default.iterations > 3
        assert rep_handed == rep_default
        assert len(custom) == len(default)
        assert all(np.array_equal(a, b) for a, b in zip(custom, default))
        assert np.array_equal(x_handed, x_default)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_step_ends_the_solve(self, bad):
        calls = []

        def solve(A, b, rtol):
            calls.append(b)
            return np.array([1.0, bad]), SolveReport(cg_iterations_total=4,
                                                     cg_unconverged=1)

        def residual(x):
            assert np.all(np.isfinite(x)), "a non-finite step was tried"
            return x - 5.0

        x, rep = damped_newton(np.zeros(2), residual, lambda x: None,
                               NewtonSettings(), linear_solve=solve)
        assert len(calls) == 1 and np.array_equal(x, np.zeros(2))
        assert rep.iterations == 0 and not rep.converged
        assert np.isnan(rep.final_residual)
        assert (rep.cg_iterations_total, rep.cg_unconverged) == (4, 1)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_start_returns_at_once(self, bad):
        def jacobian(x):
            raise AssertionError("no Newton step from a non-finite residual")

        x, rep = damped_newton(np.ones(2), lambda x: np.array([bad, 0.0]),
                               jacobian, NewtonSettings())
        assert np.array_equal(x, np.ones(2))
        assert rep.iterations == 0 and not rep.converged


class TestPPoisson:
    def test_zero_rhs_zero_iterations(self):
        inst = make_instance(3.0)
        zero = np.zeros(inst.n_interior)
        u, rep = solve_p_poisson(inst, zero, zero)
        assert rep.iterations == 0 and rep.converged
        assert np.all(u == 0.0)

    def test_p2_matches_dense_solve(self, monkeypatch):
        monkeypatch.setattr(newton, "CG_RTOL", 1e-14)
        inst = make_instance(2.0)
        zeta = random_interior(inst, np.random.default_rng(0))
        u, rep = solve_p_poisson(inst, zeta, np.zeros_like(zeta))
        assert rep.converged
        A = inst.jacobian_matrix(np.zeros_like(zeta)).toarray()
        u_dense = np.linalg.solve(A, zeta)
        assert np.max(np.abs(u - u_dense)) <= 1e-9

    def test_p3_tight_residual(self):
        inst = make_instance(3.0, h=0.05, r=0.2)
        guess = inst.as_vector(eval_initial_guess("ex2", inst.domain).values)
        guess = guess / inst.norm_H(guess)
        zeta = inst.duality_map_H(guess)
        u, rep = solve_p_poisson(inst, zeta, guess)
        assert rep.converged
        assert rep.final_residual <= 1e-12
        assert rep.iterations <= 500

    def test_insensitive_to_initialization(self):
        inst = make_instance(3.0)
        rng = np.random.default_rng(1)
        zeta = random_interior(inst, rng)
        u1, _ = solve_p_poisson(inst, zeta, np.zeros_like(zeta))
        init2 = random_interior(inst, rng)
        u2, _ = solve_p_poisson(inst, zeta, init2)
        assert np.max(np.abs(u1 - u2)) <= 1e-8

    def test_cg_unconverged_counted(self, monkeypatch):
        inst = make_instance(3.0)
        zeta = random_interior(inst, np.random.default_rng(5))
        _, rep = solve_p_poisson(inst, zeta, np.zeros_like(zeta))
        assert rep.converged and rep.cg_unconverged == 0
        monkeypatch.setattr(newton, "cg_budget", lambda n: 1)
        _, rep = solve_p_poisson(inst, zeta, np.zeros_like(zeta),
                                 NewtonSettings(max_iter=5))
        assert rep.cg_unconverged > 0

    @settings(max_examples=15, deadline=None)
    @given(p=st.floats(2.0, 5.0), seed=st.integers(0, 2 ** 32 - 1),
           scale=st.sampled_from([1e-2, 1.0, 1e2]))
    def test_converges_from_random_start(self, p, seed, scale):
        inst = make_instance(p, h=0.2, r=0.45)
        rng = np.random.default_rng(seed)
        zeta = random_interior(inst, rng, scale)
        start = random_interior(inst, rng)
        _, rep = solve_p_poisson(inst, zeta, start)
        assert rep.converged and rep.final_residual <= 1e-12

    # derandomize: the CG count below is compared along two different
    # Newton paths (they part after the first step), so it is an observed
    # property, not a theorem; the fixed examples make the test repeat
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(p=st.floats(2.0, 5.0), seed=st.integers(0, 2 ** 32 - 1),
           scale=st.sampled_from([1e-2, 1.0, 1e2]))
    def test_forcing_saves_cg_and_keeps_the_solve(self, p, seed, scale):
        inst = make_instance(p, h=0.2, r=0.45)
        rng = np.random.default_rng(seed)
        zeta = random_interior(inst, rng, scale)
        start = random_interior(inst, rng)

        def residual(x):
            return inst.neg_plaplacian(x) - zeta

        # the unforced reference: the same CG at the unforced rule
        s = NewtonSettings()

        def unforced_cg(A, b, forced):  # ignores the forced tolerance
            rtol = max(newton.CG_RTOL, 0.01 * s.tol_abs / np.linalg.norm(b))
            x, iters = cg_solve(A, b, rtol, newton.cg_budget(len(b)))
            return x, SolveReport(cg_iterations_total=iters)

        x_tight, tight = damped_newton(start, residual, inst.jacobian_matrix,
                                       s, linear_solve=unforced_cg)
        cg_calls = []  # (|b|_2, rtol) of each CG call of the forced solve

        def recording_cg(A, b, rtol, maxiter):
            cg_calls.append((np.linalg.norm(b), rtol))
            return cg_solve(A, b, rtol, maxiter)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(newton, "cg_solve", recording_cg)
            x_forced, forced = damped_newton(start, residual,
                                             inst.jacobian_matrix,
                                             NewtonSettings(), linear=p == 2)
        assert forced.converged and forced.final_residual <= 1e-12
        # at each iterate the forced tolerance is the unforced rule's,
        # raised to at most 0.1; the first step's is raised to 0.1, except
        # at p = 2, where the residual is linear and one exact step solves it
        tight_rtols = [max(newton.CG_RTOL, 0.01 * s.tol_abs / norm)
                       for norm, _ in cg_calls]
        for tight_rtol, (_, rtol) in zip(tight_rtols, cg_calls):
            assert tight_rtol <= rtol <= max(tight_rtol, 0.1)
        assert cg_calls[0][1] == (tight_rtols[0] if p == 2
                                  else max(tight_rtols[0], 0.1))
        assert forced.cg_iterations_total <= tight.cg_iterations_total
        # 2-norm: at scale 1e-2 the absolute tolerance is a relative
        # residual of 1e-10, and two converged solves then differ by up to
        # 9e-11 in their largest entry
        assert np.linalg.norm(x_forced - x_tight) \
            <= 1e-10 * np.linalg.norm(x_tight)
        # solve_p_poisson forces for p >= 2
        u, rep = solve_p_poisson(inst, zeta, start)
        assert rep == forced and np.array_equal(u, x_forced)

    def test_linear_solve_first_step_not_forced(self):
        # at p = 2 the residual is affine and one exact Newton step solves
        # it: forcing that step to 0.1 would cost CG (23 -> 30 iterations
        # here), so solve_p_poisson hands it the unforced tolerance
        inst = make_instance(2.0, h=0.2, r=0.45)
        rng = np.random.default_rng(0)
        zeta = random_interior(inst, rng, 1e-2)
        start = random_interior(inst, rng)
        rtols = []

        def recording_cg(A, b, rtol, maxiter):
            rtols.append(rtol)
            return cg_solve(A, b, rtol, maxiter)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(newton, "cg_solve", recording_cg)
            _, rep = solve_p_poisson(inst, zeta, start)
        assert rep.converged and rtols[0] < 0.1
        _, forced = damped_newton(
            start, lambda x: inst.neg_plaplacian(x) - zeta,
            inst.jacobian_matrix, NewtonSettings())
        assert forced.converged
        assert rep.cg_iterations_total < forced.cg_iterations_total

    @staticmethod
    def p15_problem():
        """The first inverse power solve at p = 1.5 on the 21x21 L-shape."""
        dom = build_domain("lshape", 2.0, 0.1)
        inst = PLaplaceInstance(dom, 0.25, 1.5)
        u0 = inst.as_vector(eval_initial_guess("ex1", dom).values)
        u0 = u0 / inst.norm_H(u0)
        return inst, inst.duality_map_H(u0), u0

    def test_p15_solve_converges(self):
        # below p = 2 the primal-dual step contracts, so the first p = 1.5
        # inverse power solve converges well inside 60 Newton steps
        inst, zeta, u0 = self.p15_problem()
        u, rep = solve_p_poisson(inst, zeta, u0, NewtonSettings(max_iter=60))
        assert rep.converged and rep.final_residual <= 1e-12
        assert rep.iterations < 60
        assert np.max(np.abs(inst.neg_plaplacian(u) - zeta)) \
            == rep.final_residual

    def test_p15_stall_exit_returns_best(self):
        # a tolerance under the rounding floor ends the solve by the stall
        # exit, STALL_STEPS steps after its least residual, which it returns
        inst, zeta, u0 = self.p15_problem()
        norms = []
        loop = newton.damped_newton

        def recording(x0, residual_fn, *args, **kwargs):
            def recorded(x):
                r = residual_fn(x)
                norms.append(float(np.max(np.abs(r))))
                return r
            return loop(x0, recorded, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(newton, "damped_newton", recording)
            u, rep = solve_p_poisson(inst, zeta, u0,
                                     NewtonSettings(tol_abs=1e-30))
        assert not rep.converged and rep.iterations < 500
        assert len(norms) == rep.iterations + 1
        best = int(np.argmin(norms))
        assert rep.iterations == best + newton.STALL_STEPS
        assert rep.final_residual == norms[best] <= 1e-12
        assert np.max(np.abs(inst.neg_plaplacian(u) - zeta)) \
            == rep.final_residual

    @settings(max_examples=15, deadline=None)
    @given(p=st.floats(1.5, 1.95), radius=st.floats(0.2, 0.6),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_p_below_2_recovers_manufactured_solution(self, p, radius, seed):
        inst = make_instance(p, h=0.2, r=radius)
        v = random_interior(inst, np.random.default_rng(seed))
        zeta = inst.neg_plaplacian(v)
        w, rep = solve_p_poisson(inst, zeta, np.zeros_like(v))
        assert rep.final_residual <= 1e-9
        assert np.max(np.abs(w - v)) <= 1e-8 * np.max(np.abs(v))

    def test_boundary_stays_zero(self):
        # the solve's unknowns are the interior nodes only, so its lattice
        # field is zero off the interior
        inst = make_instance(1.5, shape="lshape")
        zeta = random_interior(inst, np.random.default_rng(2))
        u, _ = solve_p_poisson(inst, zeta, np.zeros_like(zeta))
        assert u.shape == (inst.n_interior,)
        assert np.all(inst.lift_free(u)[~inst.domain.interior_mask] == 0.0)


class TestFluxSystemAtConsistentFlux:
    """At the flux sigma = phi(d) of the iterate, the primal-dual system is
    the Newton system of the residual: the Jacobian on the edge weights
    1/psi'(sigma) is the Jacobian on phi'(d).

    Unsmoothed, the two weights are equal.  Smoothed by the one constant
    eps = plaplace.EPSILON, at an edge of difference d != 0 they differ by
    a relative (2-q)/2 (eps/|d|)^(2(p-1)) - (p-2)/2 (eps/|d|)^2, at most
    (eps/d_min)^(2(p-1)) for p in [1.5, 2) and d_min the least |d| != 0.
    These fields reach its leading term, |2-q|/2 of that bound: up to
    2.5e-6 at p = 1.5 and 1.8e-9 at p = 1.75.  At d = 0 both weights tend
    to (p-1) eps^(p-2) and agree to roundoff.  The right-hand sides differ
    by the roundoff of the flux's Newton update, under 5e-16 of
    max|-Delta_p^h x| on these fields."""

    @staticmethod
    def fields(inst, levels):
        """Three seeded pairs (x, zeta); coarse levels give some edges a
        difference of exactly 0."""
        for seed in range(3):
            x, zeta = random_fields(inst, 2, seed)
            if levels:
                x = np.round(x * levels) / levels
            yield x, zeta

    @staticmethod
    def assert_same_system(inst, x, A, b, A_ref, b_ref):
        d = np.abs(inst.edge_differences(x))
        rtol = (plaplace.EPSILON / np.min(d[d > 0])) ** (2 * (inst.p - 1)) \
            + 1e-12
        A, A_ref = A.tocsr(), A_ref.tocsr()
        assert np.array_equal(A.indptr, A_ref.indptr)
        assert np.array_equal(A.indices, A_ref.indices)
        assert np.max(np.abs(A.data - A_ref.data) / np.abs(A_ref.data)) <= rtol
        assert np.max(np.abs(b - b_ref)) \
            <= 1e-14 * np.max(np.abs(inst.subgrad_J(x)))

    @pytest.mark.parametrize("levels", [None, 4])
    @pytest.mark.parametrize("p", [1.5, 1.75])
    def test_poisson(self, p, levels):
        inst = make_instance(p, shape="lshape")
        for x, zeta in self.fields(inst, levels):
            A, b = newton._Flux(inst, zeta, x).system(x)
            self.assert_same_system(inst, x, A, b, inst.jacobian_matrix(x),
                                    zeta - inst.subgrad_J(x))

    @pytest.mark.parametrize("levels", [None, 4])
    @pytest.mark.parametrize("p", [1.5, 1.75])
    def test_prox_at_its_reference(self, p, levels):
        # at v = u_ref the nodal flux rho = phi(0) = 0 and its weight is
        # the smoothed duality_map_H_prime(0) = (p-1) epsilon^(p-2)
        inst, tau = make_instance(p, shape="lshape"), 0.3
        for u_ref, _ in self.fields(inst, levels):
            A, b = newton._Flux(inst, None, u_ref, u_ref, tau).system(u_ref)
            A_ref = scipy.sparse.diags(
                inst.duality_map_H_prime(np.zeros_like(u_ref))) \
                + tau * inst.jacobian_matrix(u_ref)
            self.assert_same_system(inst, u_ref, A, b, A_ref,
                                    -tau * inst.subgrad_J(u_ref))


    @pytest.mark.parametrize("levels", [None, 4])
    @pytest.mark.parametrize("p", [1.5, 1.75])
    def test_bordered(self, p, levels):
        # the balance row and column ride along: b is minus the residual
        inst = make_instance(p, shape="lshape")
        for x, zeta in self.fields(inst, levels):
            border = newton._Border(inst, zeta, np.abs(zeta),
                                    newton._Flux(inst, zeta, x))
            xs = np.append(x, 0.3)
            r = border.residual(xs)
            A_ref, g_ref, s_ref = border.jacobian(xs)
            (A, g, s), b = border.system(xs)
            assert g is g_ref and s == s_ref
            assert b[-1] == -r[-1]
            self.assert_same_system(inst, x, A, b[:-1], A_ref, -r[:-1])


class TestProx:
    def test_zero_reference(self):
        inst = make_instance(3.0)
        v, rep = solve_prox(inst, np.zeros(inst.n_interior), 0.5)
        assert rep.converged
        assert np.all(v == 0.0)

    def test_p2_matches_dense_solve(self, monkeypatch):
        monkeypatch.setattr(newton, "CG_RTOL", 1e-14)
        inst = make_instance(2.0)
        u_ref = random_interior(inst, np.random.default_rng(3))
        tau = 0.3
        v, rep = solve_prox(inst, u_ref, tau)
        assert rep.converged
        L = inst.jacobian_matrix(u_ref).toarray()
        v_dense = np.linalg.solve(np.eye(L.shape[0]) + tau * L, u_ref)
        assert np.max(np.abs(v - v_dense)) <= 1e-9

    def test_small_tau_limit(self):
        inst = make_instance(3.0)
        guess = inst.as_vector(eval_initial_guess("ex1", inst.domain).values)
        guess = guess / inst.norm_H(guess)
        dists = []
        for tau in (1e-1, 1e-2, 1e-3):
            v, _ = solve_prox(inst, guess, tau)
            dists.append(float(np.max(np.abs(v - guess))))
        assert dists[0] > dists[1] > dists[2]

    def test_rejects_nonpositive_tau(self):
        inst = make_instance(3.0)
        with pytest.raises(ValueError):
            solve_prox(inst, np.zeros(inst.n_interior), 0.0)

    @pytest.mark.parametrize("tau", [float("inf"), float("nan")])
    def test_rejects_non_finite_tau(self, tau):
        inst = make_instance(3.0)
        with pytest.raises(ValueError, match="tau must be positive and finite"):
            solve_prox(inst, np.zeros(inst.n_interior), tau)

    def test_optimality_residual(self):
        inst = make_instance(3.0)
        guess = inst.as_vector(eval_initial_guess("ex2", inst.domain).values)
        guess = guess / inst.norm_H(guess)
        v, rep = solve_prox(inst, guess, 0.1)
        assert rep.converged and rep.final_residual <= 1e-12

    @settings(max_examples=15, deadline=None)
    @given(p=st.floats(1.5, 1.95), radius=st.floats(0.2, 0.6),
           seed=st.integers(0, 2 ** 32 - 1), tau=st.floats(1e-3, 10.0))
    @example(p=1.5, radius=0.2, seed=34, tau=6.0)
    @example(p=1.5, radius=0.5, seed=500, tau=8.8359375)
    def test_p_below_2_recovers_manufactured_solution(self, p, radius, seed,
                                                      tau):
        # v solves the prox equation at u_ref = v + psi(tau (-Delta_p v)),
        # psi = power_map(., q) the inverse of the duality map.  On the two
        # examples the residual sets no new least value for 10 steps or
        # more, far from v, before it converges
        inst = make_instance(p, h=0.2, r=radius)
        v = random_interior(inst, np.random.default_rng(seed))
        u_ref = v + power_map(tau * inst.neg_plaplacian(v), inst.q)
        w, rep = solve_prox(inst, u_ref, tau)
        assert rep.final_residual <= 1e-9
        assert np.max(np.abs(w - v)) <= 1e-8 * np.max(np.abs(v))

    @settings(max_examples=15, deadline=None)
    @given(p=st.floats(2.0, 5.0), seed=st.integers(0, 2 ** 32 - 1),
           tau=st.floats(1e-3, 10.0))
    def test_converges_from_random_reference(self, p, seed, tau):
        inst = make_instance(p, h=0.2, r=0.45)
        u_ref = random_interior(inst, np.random.default_rng(seed))
        _, rep = solve_prox(inst, u_ref, tau)
        assert rep.converged and rep.final_residual <= 1e-12

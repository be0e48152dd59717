import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nonlin_eig.grid import build_domain, build_stencil, eval_initial_guess
from nonlin_eig.newton import (NewtonSettings, cg_solve, solve_p_poisson,
                               solve_prox)
from nonlin_eig.plaplace import PLaplaceInstance


def make_instance(p, h=0.1, r=0.25, shape="square"):
    dom = build_domain(shape, 2.0, h)
    return PLaplaceInstance(dom, build_stencil(dom, r, p), p)


class TestSettings:
    def test_defaults(self):
        s = NewtonSettings()
        assert s.tol_abs == 1e-12 and s.max_iter == 500

    def test_validation(self):
        with pytest.raises(ValueError):
            NewtonSettings(tol_abs=0.0)
        with pytest.raises(ValueError):
            NewtonSettings(max_iter=0)


def random_interior(inst, rng, scale=1.0):
    mask = inst.domain.interior_mask
    return np.where(mask, scale * rng.standard_normal(mask.shape), 0.0)


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


class TestPPoisson:
    def test_zero_rhs_zero_iterations(self):
        inst = make_instance(3.0)
        zero = np.zeros((21, 21))
        u, rep = solve_p_poisson(inst, zero, zero)
        assert rep.iterations == 0 and rep.converged
        assert np.all(u == 0.0)

    def test_p2_matches_dense_solve(self):
        inst = make_instance(2.0)
        rng = np.random.default_rng(0)
        mask = inst.domain.interior_mask
        zeta = np.where(mask, rng.standard_normal(mask.shape), 0.0)
        u, rep = solve_p_poisson(inst, zeta, np.zeros_like(zeta),
                                 NewtonSettings(cg_tol=1e-14))
        assert rep.converged
        A = inst.jacobian_matrix(np.zeros_like(zeta)).toarray()
        u_dense = np.linalg.solve(A, zeta[mask])
        assert np.max(np.abs(u[mask] - u_dense)) <= 1e-9

    def test_p3_tight_residual(self):
        inst = make_instance(3.0, h=0.05, r=0.2)
        guess = eval_initial_guess("ex2", inst.domain).values
        guess = guess / inst.norm_H(guess)
        zeta = inst.duality_map_H(guess)
        u, rep = solve_p_poisson(inst, zeta, guess)
        assert rep.converged
        assert rep.final_residual <= 1e-12
        assert rep.iterations <= 500

    def test_insensitive_to_initialization(self):
        inst = make_instance(3.0)
        rng = np.random.default_rng(1)
        mask = inst.domain.interior_mask
        zeta = np.where(mask, rng.standard_normal(mask.shape), 0.0)
        u1, _ = solve_p_poisson(inst, zeta, np.zeros_like(zeta))
        init2 = np.where(mask, rng.standard_normal(mask.shape), 0.0)
        u2, _ = solve_p_poisson(inst, zeta, init2)
        assert np.max(np.abs(u1 - u2)) <= 1e-8

    def test_cg_unconverged_counted(self):
        inst = make_instance(3.0)
        zeta = random_interior(inst, np.random.default_rng(5))
        _, rep = solve_p_poisson(inst, zeta, np.zeros_like(zeta))
        assert rep.converged and rep.cg_unconverged == 0
        _, rep = solve_p_poisson(inst, zeta, np.zeros_like(zeta),
                                 NewtonSettings(max_iter=5, cg_max_iter=1))
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

    def test_boundary_stays_zero(self):
        inst = make_instance(1.5, shape="lshape")
        rng = np.random.default_rng(2)
        mask = inst.domain.interior_mask
        zeta = np.where(mask, rng.standard_normal(mask.shape), 0.0)
        u, _ = solve_p_poisson(inst, zeta, np.zeros_like(zeta))
        assert np.all(u[~mask] == 0.0)


class TestProx:
    def test_zero_reference(self):
        inst = make_instance(3.0)
        v, rep = solve_prox(inst, np.zeros((21, 21)), 0.5)
        assert rep.converged
        assert np.all(v == 0.0)

    def test_p2_matches_dense_solve(self):
        inst = make_instance(2.0)
        rng = np.random.default_rng(3)
        mask = inst.domain.interior_mask
        u_ref = np.where(mask, rng.standard_normal(mask.shape), 0.0)
        tau = 0.3
        v, rep = solve_prox(inst, u_ref, tau, NewtonSettings(cg_tol=1e-14))
        assert rep.converged
        L = inst.jacobian_matrix(u_ref).toarray()
        v_dense = np.linalg.solve(np.eye(L.shape[0]) + tau * L, u_ref[mask])
        assert np.max(np.abs(v[mask] - v_dense)) <= 1e-9

    def test_small_tau_limit(self):
        inst = make_instance(3.0)
        guess = eval_initial_guess("ex1", inst.domain).values
        guess = guess / inst.norm_H(guess)
        dists = []
        for tau in (1e-1, 1e-2, 1e-3):
            v, _ = solve_prox(inst, guess, tau)
            dists.append(float(np.max(np.abs(v - guess))))
        assert dists[0] > dists[1] > dists[2]

    def test_rejects_nonpositive_tau(self):
        inst = make_instance(3.0)
        with pytest.raises(ValueError):
            solve_prox(inst, np.zeros((21, 21)), 0.0)

    def test_optimality_residual(self):
        inst = make_instance(3.0)
        guess = eval_initial_guess("ex2", inst.domain).values
        guess = guess / inst.norm_H(guess)
        v, rep = solve_prox(inst, guess, 0.1)
        assert rep.converged and rep.final_residual <= 1e-12

    @settings(max_examples=15, deadline=None)
    @given(p=st.floats(2.0, 5.0), seed=st.integers(0, 2 ** 32 - 1),
           tau=st.floats(1e-3, 10.0))
    def test_converges_from_random_reference(self, p, seed, tau):
        inst = make_instance(p, h=0.2, r=0.45)
        u_ref = random_interior(inst, np.random.default_rng(seed))
        _, rep = solve_prox(inst, u_ref, tau)
        assert rep.converged and rep.final_residual <= 1e-12

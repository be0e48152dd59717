import numpy as np
import pytest
import scipy.sparse

from nonlin_eig.functional import (SolveReport, SpdInstance,
                                   fenchel_conjugate_value, power_map)
from nonlin_eig.grid import build_domain, build_stencil
from nonlin_eig.plaplace import PLaplaceInstance
from nonlin_eig.validation import (euler_defect, fenchel_route_defect,
                                   fenchel_young_defect, growth_ratio,
                                   norm_duality_defect, random_fields)


@pytest.fixture(scope="module")
def diag_pair():
    return SpdInstance(np.diag([2.0, 5.0]))


@pytest.fixture(scope="module")
def grid_pair():
    dom = build_domain("square", 2.0, 0.1)
    return PLaplaceInstance(dom, build_stencil(dom, 0.25, 3.0), 3.0)


class TestPowerMap:
    def test_zero_is_zero_for_small_p(self):
        out = power_map(np.array([0.0, 1.0, -2.0]), 1.5)
        assert out[0] == 0.0 and np.all(np.isfinite(out))

    def test_matches_definition(self):
        t = np.array([0.5, -1.5, 2.0])
        assert np.allclose(power_map(t, 3.0), np.abs(t) * t)


class TestSolveReport:
    def test_sum_of_two_solves(self):
        a = SolveReport(iterations=3, final_residual=1e-13,
                        cg_iterations_total=40, cg_unconverged=1)
        b = SolveReport(iterations=2, final_residual=1e-9, converged=False,
                        cg_iterations_total=7, direct_solves=2)
        assert a + b == SolveReport(iterations=5, final_residual=1e-9,
                                    converged=False, cg_iterations_total=47,
                                    cg_unconverged=1, direct_solves=2)
        assert b + a == a + b
        assert a + SolveReport() == a
        total = SolveReport()
        total += a
        total += a
        assert total.iterations == 6 and total.converged
        nan = SolveReport(final_residual=float("nan"), converged=False)
        assert np.isnan((a + nan).final_residual)
        assert np.isnan((nan + a).final_residual)


class TestSpdConstruction:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            SpdInstance([[1.0, 0.5], [0.0, 1.0]])

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            SpdInstance([[1.0, 0.0], [0.0, -2.0]])

    @pytest.mark.parametrize("matrix", [[[1.0, 0.0]], [1.0, 2.0],
                                        [[[1.0]]]])
    def test_rejects_non_square(self, matrix):
        with pytest.raises(ValueError, match="square"):
            SpdInstance(matrix)

    def test_inverse_subgrad(self, diag_pair):
        zeta = np.array([3.0, -7.0])
        v, rep = diag_pair.inverse_subgrad_J(zeta)
        assert rep.converged
        assert np.max(np.abs(diag_pair.A @ v - zeta)) <= 1e-10 * np.max(np.abs(zeta))


class TestHessian:
    @pytest.mark.parametrize("pair_name", ["diag_pair", "grid_pair"])
    def test_sparse(self, pair_name, request):
        # the geometric polish builds its Newton systems on it
        pair = request.getfixturevalue(pair_name)
        u = random_fields(pair, 1, seed=6)[0] if pair_name == "grid_pair" \
            else np.array([0.3, -1.2])
        H = pair.hess_J_matrix(u)
        assert scipy.sparse.issparse(H) and H.shape == (len(u), len(u))
        if pair_name == "diag_pair":
            assert np.array_equal(H.toarray(), pair.A)


class TestHomogeneityIdentities:
    def test_exponent_link(self, grid_pair):
        assert 1.0 / grid_pair.p + 1.0 / grid_pair.q == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("pair_name", ["diag_pair", "grid_pair"])
    def test_euler_identity(self, pair_name, request):
        pair = request.getfixturevalue(pair_name)
        if pair_name == "diag_pair":
            rng = np.random.default_rng(3)
            samples = [rng.standard_normal(2) for _ in range(10)]
        else:
            samples = random_fields(pair, 10, seed=3)
        assert euler_defect(pair, samples) <= 1e-10

    def test_norm_duality_link(self, grid_pair):
        assert norm_duality_defect(grid_pair,
                                   random_fields(grid_pair, 5, seed=4)) <= 1e-10

    def test_energy_homogeneity(self, grid_pair):
        u = random_fields(grid_pair, 1, seed=5)[0]
        J = grid_pair.energy_J(u)
        for t in (-2.0, 0.5, 3.0):
            assert grid_pair.energy_J(t * u) == pytest.approx(
                abs(t) ** grid_pair.p * J, rel=1e-10)


class TestFenchelConjugate:
    def test_spd_example(self, diag_pair):
        v = np.array([1.0, 0.0])
        val = fenchel_conjugate_value(diag_pair, np.array([2.0, 0.0]), v,
                                      diag_pair.energy_J(v))
        assert val == pytest.approx(1.0, abs=1e-14)

    def test_origin(self, diag_pair):
        assert fenchel_conjugate_value(diag_pair, np.zeros(2), np.zeros(2),
                                       0.0) == 0.0

    def test_route_defect_floor(self, diag_pair):
        # with J(v) given as 0 the two routes differ by half, but below
        # 1e-14 both count as agreeing
        v = np.array([1e-8, 1e-8])
        zeta = diag_pair.subgrad_J(v)
        assert fenchel_route_defect(diag_pair, zeta, v, 0.0) == 0.0
        assert fenchel_route_defect(diag_pair, 100 * zeta, 100 * v,
                                    0.0) == pytest.approx(0.5)

    def test_two_routes_agree_on_grid(self, grid_pair):
        for u in random_fields(grid_pair, 5, seed=6):
            assert fenchel_route_defect(grid_pair, grid_pair.subgrad_J(u), u,
                                        grid_pair.energy_J(u)) <= 1e-8

    def test_fenchel_young_inequality(self, grid_pair):
        fields = random_fields(grid_pair, 20, seed=7)
        assert fenchel_young_defect(grid_pair, fields[:10], fields[10:]) <= 1e-10


class TestGrowthConstant:
    """H(u) <= J(u) / lambda* holds on samples, up to a relative slack of
    1e-6, exactly when lambda* <= growth_ratio * (1 + 1e-6)."""

    def test_spd_lower_bound(self, diag_pair):
        rng = np.random.default_rng(8)
        samples = [rng.standard_normal(2) for _ in range(50)]
        assert growth_ratio(diag_pair, samples) >= 2.0 - 1e-12

    def test_sharp_at_ground_state(self, diag_pair):
        assert growth_ratio(diag_pair, [np.array([1.0, 0.0])]) == pytest.approx(
            2.0, rel=1e-12)

    def test_violation_reported(self, diag_pair):
        # lambda* = 3 overestimates the ground state 2: the bound fails
        assert 3.0 > growth_ratio(diag_pair, [np.array([1.0, 0.0])]) * (1 + 1e-6)

    def test_grid_p2_against_dense_oracle(self):
        dom = build_domain("square", 2.0, 0.2)
        inst = PLaplaceInstance(dom, build_stencil(dom, 0.4, 2.0), 2.0)
        A = inst.jacobian_matrix(np.zeros((dom.ny, dom.nx))).toarray()
        lam_star = float(np.linalg.eigvalsh(A)[0])
        samples = random_fields(inst, 100, seed=9)
        assert lam_star <= growth_ratio(inst, samples) * (1 + 1e-6)


class TestSpdEigenpairDuality:
    def test_classical_eigenpairs_are_p_eigenvectors(self):
        rng = np.random.default_rng(10)
        Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        eigs = np.array([1.0, 2.5, 4.0, 7.0, 9.0])
        pair = SpdInstance((Q * eigs) @ Q.T)
        vals, vecs = np.linalg.eigh(pair.A)
        for lam, v in zip(vals, vecs.T):
            defect = pair.subgrad_J(v) - lam * pair.duality_map_H(v)
            assert np.linalg.norm(defect) <= 1e-10

    def test_dual_rq_is_reciprocal_eigenvalue(self):
        from nonlin_eig.metrics import dual_rayleigh_quotient
        pair = SpdInstance(np.diag([2.0, 5.0]))
        u = np.array([1.0, 0.0])
        zeta = pair.subgrad_J(u)
        mu = dual_rayleigh_quotient(pair, zeta, u, pair.energy_J(u))
        assert mu == pytest.approx(0.5, abs=1e-10)

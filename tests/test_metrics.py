import csv

import numpy as np
import pytest

from nonlin_eig.functional import SpdInstance
from nonlin_eig.grid import build_domain, build_stencil, eval_initial_guess
from nonlin_eig.metrics import (CSV_HEADER, IterationRecord,
                                cosine_similarity, dual_rayleigh_quotient,
                                duality_gap, eigen_residual,
                                rayleigh_quotient, records_to_csv)
from nonlin_eig.plaplace import PLaplaceInstance


@pytest.fixture(scope="module")
def spd():
    return SpdInstance(np.diag([2.0, 5.0]))


@pytest.fixture(scope="module")
def grid():
    dom = build_domain("square", 2.0, 0.1)
    return PLaplaceInstance(dom, build_stencil(dom, 0.25, 3.0), 3.0)


class TestRayleighQuotients:
    def test_spd_values(self, spd):
        assert rayleigh_quotient(spd, np.array([1.0, 0.0])) == pytest.approx(2.0)
        assert rayleigh_quotient(spd, np.array([0.0, 1.0])) == pytest.approx(5.0)

    def test_zero_rejected(self, spd):
        with pytest.raises(ValueError):
            rayleigh_quotient(spd, np.zeros(2))

    def test_dual_rq_reciprocal_at_eigenvector(self, spd):
        u = np.array([1.0, 0.0])
        zeta = spd.subgrad_J(u)
        v, _ = spd.inverse_subgrad_J(zeta)
        assert dual_rayleigh_quotient(spd, zeta, v) == pytest.approx(0.5, abs=1e-12)

    def test_dual_rq_two_routes_on_grid(self, grid):
        u = eval_initial_guess("ex1", grid.domain).values
        u = u / grid.norm_H(u)
        zeta = grid.duality_map_H(u)
        v, rep = grid.inverse_subgrad_J(zeta)
        assert rep.converged
        mu = dual_rayleigh_quotient(grid, zeta, v)
        # J*(zeta) = <zeta, v> / q for q-homogeneous conjugates
        Jstar = grid.pairing(zeta, v) / grid.q
        Hstar = grid.dual_norm_H(zeta) ** grid.q / grid.q
        assert mu == pytest.approx(Jstar / Hstar, rel=1e-8)


class TestCosineSimilarity:
    def test_aligned_is_one(self, spd):
        u = np.array([1.0, 0.0])
        assert cosine_similarity(spd, u, spd.duality_map_H(u)) == pytest.approx(1.0)

    def test_orthogonal_is_zero(self, spd):
        assert cosine_similarity(spd, np.array([1.0, 0.0]),
                                 np.array([0.0, 1.0])) == pytest.approx(0.0, abs=1e-14)

    def test_bounds_on_random_grid_fields(self, grid):
        rng = np.random.default_rng(0)
        mask = grid.domain.interior_mask
        for _ in range(20):
            u = np.where(mask, rng.standard_normal(mask.shape), 0.0)
            c = cosine_similarity(grid, u, grid.subgrad_J(u))
            assert 0.0 <= c <= 1.0 + 1e-12

    def test_scale_invariance(self, grid):
        u = eval_initial_guess("ex2", grid.domain).values
        zeta = grid.subgrad_J(u)
        c = cosine_similarity(grid, u, zeta)
        assert cosine_similarity(grid, 3.0 * u, 0.5 * zeta) == pytest.approx(c, rel=1e-12)


class TestDualityGap:
    def test_spd_two_route_cross_check(self, spd):
        u = np.array([1.0, 1.0]) / np.sqrt(2.0)
        zeta = spd.subgrad_J(u)
        v, _ = spd.inverse_subgrad_J(zeta)
        g = duality_gap(spd, u, zeta, v)
        R = rayleigh_quotient(spd, u)
        c = cosine_similarity(spd, u, zeta)
        assert g == pytest.approx((1.0 - c) * R ** (-0.5), rel=1e-8)
        assert g >= -1e-10

    def test_zero_at_eigenvector(self, spd):
        u = np.array([1.0, 0.0])
        zeta = spd.subgrad_J(u)
        v, _ = spd.inverse_subgrad_J(zeta)
        assert abs(duality_gap(spd, u, zeta, v)) <= 1e-12

    def test_grid_formula_agreement(self, grid):
        rng = np.random.default_rng(1)
        mask = grid.domain.interior_mask
        for _ in range(10):
            u = np.where(mask, rng.standard_normal(mask.shape), 0.0)
            zeta = grid.subgrad_J(u)
            g = duality_gap(grid, u, zeta, u)
            R = rayleigh_quotient(grid, u)
            c = cosine_similarity(grid, u, zeta)
            expect = (1.0 - c) * R ** (-1.0 / grid.p)
            assert g == pytest.approx(expect, rel=1e-8)
            assert g >= -1e-10


class TestEigenResidual:
    def test_zero_at_spd_eigenvector(self, spd):
        assert eigen_residual(spd, np.array([1.0, 0.0])) <= 1e-14

    def test_positive_away_from_eigenvectors(self, spd):
        assert eigen_residual(spd, np.array([1.0, 1.0])) > 1e-3

    def test_scale_invariant(self, grid):
        u = eval_initial_guess("ex1", grid.domain).values
        assert eigen_residual(grid, u) == pytest.approx(
            eigen_residual(grid, 2.5 * u), rel=1e-10)


class TestCsv:
    def test_header_and_empty_dual_rq(self, tmp_path):
        recs = [IterationRecord(k=0, rq=1.5, dual_rq=None, cosim=0.9,
                                gap=0.01, residual=0.1, inner_iters=3,
                                wall_time=0.25),
                IterationRecord(k=1, rq=1.2, dual_rq=0.8, cosim=0.95,
                                gap=0.005, residual=0.05, inner_iters=2,
                                wall_time=0.2)]
        path = tmp_path / "metrics.csv"
        records_to_csv(recs, path)
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == CSV_HEADER
        assert rows[0] == ["iter", "rq", "dual_rq", "cosim", "gap",
                           "residual", "inner_iters", "wall_time"]
        assert rows[1][2] == ""
        assert float(rows[2][2]) == 0.8
        assert len(rows) == 3

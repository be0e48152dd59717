import csv
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from nonlin_eig.functional import SolveReport, SpdInstance
from nonlin_eig.grid import build_domain, eval_initial_guess
from nonlin_eig.metrics import (CSV_HEADER, REPORT_COLUMNS, IterationRecord,
                                cosine_similarity, dual_rayleigh_quotient,
                                duality_gap, eigen_residual,
                                rayleigh_quotient, records_to_csv)
from nonlin_eig.plaplace import PLaplaceInstance
from nonlin_eig.validation import (gap_formula_defect, gap_negativity,
                                   random_fields)


@pytest.fixture(scope="module")
def spd():
    return SpdInstance(np.diag([2.0, 5.0]))


@pytest.fixture(scope="module")
def grid():
    dom = build_domain("square", 2.0, 0.1)
    return PLaplaceInstance(dom, 0.25, 3.0)


class TestRayleighQuotients:
    def test_spd_values(self, spd):
        assert rayleigh_quotient(spd, np.array([1.0, 0.0])) == pytest.approx(2.0)
        assert rayleigh_quotient(spd, np.array([0.0, 1.0])) == pytest.approx(5.0)

    def test_zero_rejected(self, spd):
        with pytest.raises(ValueError):
            rayleigh_quotient(spd, np.zeros(2))

    @pytest.mark.parametrize("measure", [
        lambda pair, e: dual_rayleigh_quotient(pair, 0 * e, e, 1.0),
        lambda pair, e: cosine_similarity(pair, 0 * e, e),
        lambda pair, e: cosine_similarity(pair, e, 0 * e),
        lambda pair, e: eigen_residual(pair, 0 * e),
        lambda pair, e: eigen_residual(pair, e, zeta=0 * e),
    ], ids=["dual-rq", "cosim-u", "cosim-zeta", "residual-u",
            "residual-zeta"])
    def test_zero_input_rejected(self, spd, measure):
        with pytest.raises(ValueError, match="undefined"):
            measure(spd, np.array([1.0, 0.0]))

    def test_dual_rq_reciprocal_at_eigenvector(self, spd):
        u = np.array([1.0, 0.0])
        zeta = spd.subgrad_J(u)
        v, _ = spd.inverse_subgrad_J(zeta)
        assert dual_rayleigh_quotient(spd, zeta, v, spd.energy_J(v)) \
            == pytest.approx(0.5, abs=1e-12)

    def test_dual_rq_two_routes_on_grid(self, grid):
        u = eval_initial_guess("ex1", grid.domain).values
        u = u / grid.norm_H(u)
        zeta = grid.duality_map_H(u)
        v, rep = grid.inverse_subgrad_J(zeta)
        assert rep.converged
        mu = dual_rayleigh_quotient(grid, zeta, v, grid.energy_J(v))
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
        for u in random_fields(grid, 20, seed=0):
            c = cosine_similarity(grid, u, grid.subgrad_J(u))
            assert 0.0 <= c <= 1.0 + 1e-12

    def test_scale_invariance(self, grid):
        u = eval_initial_guess("ex2", grid.domain).values
        zeta = grid.subgrad_J(u)
        c = cosine_similarity(grid, u, zeta)
        assert cosine_similarity(grid, 3.0 * u, 0.5 * zeta) == pytest.approx(c, rel=1e-12)


class TestDualityGap:
    def test_spd_two_route_cross_check(self, spd):
        u = [np.array([1.0, 1.0]) / np.sqrt(2.0)]
        assert gap_formula_defect(spd, u) <= 1e-8
        assert gap_negativity(spd, u) <= 1e-10

    def test_zero_at_eigenvector(self, spd):
        u = np.array([1.0, 0.0])
        zeta = spd.subgrad_J(u)
        v, _ = spd.inverse_subgrad_J(zeta)
        mu = dual_rayleigh_quotient(spd, zeta, v, spd.energy_J(v))
        assert abs(duality_gap(spd, rayleigh_quotient(spd, u), mu)) <= 1e-12

    def test_grid_formula_agreement(self, grid):
        fields = random_fields(grid, 10, seed=1)
        assert gap_formula_defect(grid, fields) <= 1e-8
        assert gap_negativity(grid, fields) <= 1e-10


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
                                gap=0.01, residual=0.1,
                                inner=SolveReport(iterations=3),
                                wall_time=0.25),
                IterationRecord(k=1, rq=1.2, dual_rq=0.8, cosim=0.95,
                                gap=0.005, residual=0.05,
                                inner=SolveReport(iterations=2, jacobians=2,
                                                  residual_evals=4,
                                                  backtracks=1),
                                wall_time=0.2)]
        path = tmp_path / "metrics.csv"
        records_to_csv(recs, path)
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == CSV_HEADER
        assert rows[0][:11] == ["iter", "rq", "dual_rq", "cosim", "gap",
                                "residual", "inner_iters", "wall_time",
                                "jacobians", "residual_evals", "backtracks"]
        assert rows[0][11:] == ["inner_residual", "inner_converged",
                                "cg_iterations", "cg_unconverged"]
        assert rows[1][2] == ""
        assert float(rows[2][2]) == 0.8
        assert rows[1][8:11] == ["0", "0", "0"]
        assert rows[2][8:11] == ["2", "4", "1"]
        assert len(rows) == 3

    def test_every_report_field_has_one_column(self, tmp_path):
        # a SolveReport field without its own metrics.csv column fails here
        names = [f.name for f in fields(SolveReport)]
        assert sorted(REPORT_COLUMNS.values()) == sorted(names)
        assert all(CSV_HEADER.count(col) == 1 for col in REPORT_COLUMNS)
        # distinct values, so that a column holding another field's value
        # does not round-trip
        report = SolveReport(iterations=11, final_residual=math.nan,
                             converged=False, cg_iterations_total=13,
                             cg_unconverged=14, jacobians=15,
                             residual_evals=16, backtracks=17)
        path = tmp_path / "metrics.csv"
        records_to_csv([IterationRecord(k=0, rq=1.5, dual_rq=0.8, cosim=0.9,
                                        gap=0.01, residual=0.1, inner=report,
                                        wall_time=0.25)], path)
        with open(path, newline="") as f:
            (row,) = list(csv.DictReader(f))
        parse = {int: int, float: float, bool: lambda cell: cell == "True"}
        back = SolveReport(**{
            f.name: parse[type(f.default)](row[col])
            for f in fields(SolveReport)
            for col, name in REPORT_COLUMNS.items() if name == f.name})
        assert math.isnan(back.final_residual) and not back.converged
        assert replace(back, final_residual=0.0) \
            == replace(report, final_residual=0.0)

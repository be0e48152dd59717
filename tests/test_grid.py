import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings, strategies as st

from nonlin_eig.grid import (ConfigError, GridFunction, build_domain,
                             build_stencil, eval_initial_guess, load_snapshot,
                             rewrite, save_snapshot)
from nonlin_eig.plaplace import PLaplaceInstance, mean_value_constant
from nonlin_eig.validation import stencil_count_defect


class TestBuildDomain:
    def test_square_node_and_interior_counts(self):
        dom = build_domain("square", 2.0, 0.02)
        assert (dom.nx, dom.ny) == (101, 101)
        assert dom.n_interior == 99 * 99

    def test_lshape_interior_matches_enumeration(self):
        dom = build_domain("lshape", 2.0, 0.025)
        assert (dom.nx, dom.ny) == (81, 81)
        count = 0
        for j in range(dom.ny):
            for i in range(dom.nx):
                x = -1.0 + 0.025 * i
                y = -1.0 + 0.025 * j
                inside = -1.0 < x < 1.0 and -1.0 < y < 1.0
                notch = x >= -1e-12 and y >= -1e-12
                if inside and not notch:
                    count += 1
        assert dom.n_interior == count

    def test_non_integral_division_rejected(self):
        with pytest.raises(ConfigError):
            build_domain("square", 2.0, 0.3)

    @pytest.mark.parametrize("shape, side, h", [
        ("disk", 2.0, 0.1), ("square", 0.0, 0.1), ("square", -2.0, 0.1),
        ("lshape", 2.0, 0.0), ("lshape", 2.0, -0.1),
        ("square", 2.0, float("inf")), ("square", 2.0, float("nan")),
        ("square", float("inf"), 0.1), ("square", float("nan"), 0.1)])
    def test_bad_shape_side_or_spacing_rejected(self, shape, side, h):
        with pytest.raises(ConfigError):
            build_domain(shape, side, h)

    def test_interior_nodes_strictly_inside(self):
        dom = build_domain("lshape", 2.0, 0.1)
        X, Y = dom.coords()
        xs, ys = X[dom.interior_mask], Y[dom.interior_mask]
        assert np.all((xs > -1) & (xs < 1) & (ys > -1) & (ys < 1))
        assert not np.any((xs >= -1e-12) & (ys >= -1e-12))

    def test_spacing_consistent_with_side(self):
        dom = build_domain("square", 2.0, 0.025)
        assert abs(dom.h * (dom.nx - 1) - 2.0) <= 1e-12


class TestBuildStencil:
    def test_unit_radius_von_neumann(self):
        dom = build_domain("square", 4.0, 1.0)
        st = build_stencil(dom, 1.0)
        assert len(st.offsets) == 4

    def test_radius_covering_diagonals(self):
        dom = build_domain("square", 4.0, 1.0)
        st = build_stencil(dom, 1.5)
        assert len(st.offsets) == 8

    def test_offsets_match_disk_enumeration(self):
        assert stencil_count_defect(build_domain("square", 2.0, 0.02),
                                    0.02 ** 0.5) == 0

    def test_offsets_symmetric(self):
        dom = build_domain("square", 2.0, 0.05)
        st = build_stencil(dom, 0.2)
        pairs = {tuple(o) for o in st.offsets}
        assert all((-dy, -dx) in pairs for dy, dx in pairs)

    def test_radius_below_spacing_rejected(self):
        dom = build_domain("square", 2.0, 0.1)
        with pytest.raises(ConfigError):
            build_stencil(dom, 0.05)

    @pytest.mark.parametrize("r", [float("inf"), float("nan")])
    def test_non_finite_radius_rejected(self, r):
        dom = build_domain("square", 2.0, 0.1)
        with pytest.raises(ConfigError, match="must be finite"):
            build_stencil(dom, r)

    def test_weight_formula(self):
        dom = build_domain("square", 2.0, 0.05)
        p = 3.0
        inst = PLaplaceInstance(dom, 0.2, p)
        d2p = mean_value_constant(p)
        assert inst.weight == pytest.approx(
            0.05 ** 2 / (d2p * math.pi * 0.2 ** (p + 2)), rel=1e-12)


class TestMeanValueConstant:
    def test_p2_closed_form(self):
        # int over the unit disk of w1^2 is pi/4, so the constant is 1/8
        assert mean_value_constant(2.0) == pytest.approx(0.125, rel=1e-12)

    def test_p4_closed_form(self):
        # int_0^{pi/2} cos^4 = 3*pi/16 -> 2/(6*pi) * 3*pi/16 = 1/16
        assert mean_value_constant(4.0) == pytest.approx(1.0 / 16.0, rel=1e-12)

    @staticmethod
    def quadrature(p):
        # D_{2,p} = (2 / (pi (p+2))) int_0^{pi/2} cos^p, by adaptive quadrature
        integral, _ = scipy.integrate.quad(lambda t: math.cos(t) ** p,
                                           0.0, math.pi / 2)
        return 2.0 * integral / (math.pi * (p + 2.0))

    @settings(deadline=None)
    @given(p=st.floats(1.0001, 10.0))
    def test_quadrature_matches_gamma_form(self, p):
        # the quadrature misses the closed form most just above p = 1,
        # where cos^p, like (pi/2 - t)^p, is least smooth at pi/2
        closed = mean_value_constant(p)
        assert abs(self.quadrature(p) - closed) <= 1e-9 * closed

    @pytest.mark.parametrize("p, exact", [
        (2.0, 1.0 / 8.0), (3.0, 4.0 / (15.0 * math.pi)), (4.0, 1.0 / 16.0),
        (5.0, 16.0 / (105.0 * math.pi))], ids=["2.0", "3.0", "4.0", "5.0"])
    def test_gamma_form_to_rounding_at_integer_p(self, p, exact):
        # int_0^{pi/2} cos^p is (p-1)!!/p!! times pi/2 for even p, 1 for odd
        assert abs(mean_value_constant(p) - exact) <= 4.4e-16 * exact

    def test_large_p(self):
        # Gamma(p/2+1) overflows past p = 341, where the ratio of the
        # Gammas is taken by their logarithms
        for p in (300.0, 339.9, 340.0, 341.0, 342.0, 1000.0):
            closed = mean_value_constant(p)
            assert abs(self.quadrature(p) - closed) <= 1e-9 * closed


class TestInitialGuesses:
    def test_ex1_point_value(self):
        dom = build_domain("square", 2.0, 0.25)
        gf = eval_initial_guess("ex1", dom)
        X, Y = dom.coords()
        j, i = np.argwhere((np.abs(X + 0.5) < 1e-12)
                           & (np.abs(Y + 0.5) < 1e-12))[0]
        assert gf.values[j, i] == pytest.approx(-0.25, rel=1e-12)

    def test_ex2_point_value(self):
        dom = build_domain("square", 2.0, 0.25)
        gf = eval_initial_guess("ex2", dom)
        X, Y = dom.coords()
        j, i = np.argwhere((np.abs(X) < 1e-12) & (np.abs(Y) < 1e-12))[0]
        assert gf.values[j, i] == pytest.approx(6.25, rel=1e-12)

    def test_ex1_zero_on_boundary(self):
        dom = build_domain("square", 2.0, 0.1)
        gf = eval_initial_guess("ex1", dom)
        assert np.all(gf.values[~dom.interior_mask] == 0.0)

    def test_ex1_changes_sign_on_lshape(self):
        dom = build_domain("lshape", 2.0, 0.025)
        gf = eval_initial_guess("ex1", dom)
        assert np.any(gf.values > 0) and np.any(gf.values < 0)

    def test_unknown_tag_rejected(self):
        dom = build_domain("square", 2.0, 0.5)
        with pytest.raises(ConfigError):
            eval_initial_guess("nope", dom)


class TestSnapshots:
    def test_round_trip(self, tmp_path):
        dom = build_domain("lshape", 2.0, 0.25)
        gf = eval_initial_guess("ex1", dom)
        path = tmp_path / "snap.csv"
        save_snapshot(path, gf)
        back = load_snapshot(path, dom)
        assert np.allclose(back.values, gf.values)

    def test_overwrites_a_longer_file(self, tmp_path):
        # the snapshot is rewritten in place, so a stale tail must be cut
        dom = build_domain("lshape", 2.0, 0.25)
        gf = eval_initial_guess("ex1", dom)
        path = tmp_path / "snap.csv"
        save_snapshot(path, GridFunction(np.full((dom.ny, dom.nx), -1.5),
                                         dom))
        path.write_text(path.read_text() * 3)
        save_snapshot(path, gf)
        assert np.array_equal(load_snapshot(path, dom).values, gf.values)
        assert len(path.read_text().splitlines()) == dom.ny

    def test_failed_rewrite_cuts_the_old_tail(self, tmp_path):
        # a write that raises part way leaves the text written so far and
        # nothing of the old file after it, and the error propagates
        path = tmp_path / "metrics.csv"
        path.write_text("OLD-" * 100 + "OLD-END\n")
        with pytest.raises(RuntimeError, match="serializer"):
            with rewrite(path) as f:
                f.write("new,")
                raise RuntimeError("serializer failed")
        assert path.read_text() == "new,"

    def test_shape_mismatch_rejected(self, tmp_path):
        dom = build_domain("square", 2.0, 0.25)
        path = tmp_path / "snap.csv"
        save_snapshot(path, GridFunction(np.zeros((dom.ny, dom.nx)), dom))
        other = build_domain("square", 2.0, 0.5)
        with pytest.raises(ConfigError):
            load_snapshot(path, other)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_interior_value_rejected(self, tmp_path, value):
        dom = build_domain("square", 2.0, 0.25)
        vals = eval_initial_guess("ex1", dom).values
        vals[dom.ny // 2, dom.nx // 2] = value
        path = tmp_path / "start.csv"
        save_snapshot(path, GridFunction(vals, dom))
        with pytest.raises(ConfigError, match="start.csv"):
            load_snapshot(path, dom)

    def test_non_finite_boundary_value_dropped(self, tmp_path):
        # only interior values are read; the rest are pinned to 0
        dom = build_domain("square", 2.0, 0.25)
        gf = eval_initial_guess("ex1", dom)
        vals = gf.values.copy()
        vals[0, 0] = np.nan
        path = tmp_path / "start.csv"
        save_snapshot(path, GridFunction(vals, dom))
        assert np.array_equal(load_snapshot(path, dom).values, gf.values)

import math
from unittest import mock

import numpy as np
import pytest
import scipy.sparse
from hypothesis import example, given, settings, strategies as st

from nonlin_eig.functional import power_map
from nonlin_eig.grid import build_domain
from nonlin_eig import newton, plaplace
from nonlin_eig.newton import NewtonSettings
from nonlin_eig.plaplace import PLaplaceInstance
from nonlin_eig.validation import euler_defect, jacobian_fd_error, random_fields


def make_instance(p=3.0, h=0.1, r=0.25, shape="square"):
    dom = build_domain(shape, 2.0, h)
    return PLaplaceInstance(dom, r, p)


def spike_instance(p):
    """side 8, h=1, r=1: 4-neighbor stencil with a deep interior."""
    dom = build_domain("square", 8.0, 1.0)
    return PLaplaceInstance(dom, 1.0, p)


@pytest.mark.parametrize("p", [1.0, 0.5, -2.0])
def test_p_at_most_one_rejected(p):
    dom = build_domain("square", 2.0, 0.5)
    with pytest.raises(ValueError, match="p must be > 1"):
        PLaplaceInstance(dom, 0.5, p)


@pytest.mark.parametrize("p", [float("inf"), float("nan")])
def test_non_finite_p_rejected(p):
    dom = build_domain("square", 2.0, 0.5)
    with pytest.raises(ValueError, match="p must be > 1 and finite"):
        PLaplaceInstance(dom, 0.5, p)


ANY_INSTANCE = dict(p=st.floats(1.1, 6.0),
                    shape=st.sampled_from(["square", "lshape"]),
                    cells=st.integers(6, 12),
                    radius=st.floats(1.0, 3.2),
                    log_scale=st.floats(-3.0, 3.0),
                    seed=st.integers(0, 2 ** 32 - 1))


def scaled_instance_fields(p, shape, cells, radius, log_scale, seed):
    """An instance on side 2 with h = 2/cells and r = radius h, and two
    seeded random fields of size 10^log_scale."""
    h = 2.0 / cells
    dom = build_domain(shape, 2.0, h)
    inst = PLaplaceInstance(dom, radius * h, p)
    u, v = (10.0 ** log_scale * f for f in random_fields(inst, 2, seed))
    return inst, u, v


class TestOperator:
    def test_constant_field_zero_away_from_boundary(self):
        inst = make_instance(p=3.0)
        vals = np.where(inst.domain.interior_mask, 2.5, 0.0)
        out = -inst.lift_free(inst.neg_plaplacian(vals))
        margin = inst.stencil.margin
        core = out[1 + margin:-1 - margin, 1 + margin:-1 - margin]
        assert np.max(np.abs(core)) == 0.0
        # boundary-adjacent nodes see exterior zeros, hence nonzero output
        assert np.max(np.abs(out)) > 0.0

    def test_affine_field_zero_at_full_stencil_nodes(self):
        inst = make_instance(p=3.0)
        X, Y = inst.domain.coords()
        vals = np.where(inst.domain.interior_mask, 0.7 * X - 0.3 * Y, 0.0)
        out = -inst.lift_free(inst.neg_plaplacian(vals))
        # a node whose whole stencil consists of interior nodes
        j = i = inst.domain.ny // 2 + 1
        assert abs(out[j, i]) <= 1e-12

    def test_unit_spike_by_hand(self):
        inst = spike_instance(3.0)
        vals = np.zeros((9, 9))
        vals[4, 4] = 1.0
        out = -inst.lift_free(inst.neg_plaplacian(vals))
        C = inst.weight
        assert out[4, 4] == pytest.approx(-4.0 * C, rel=1e-12)
        for j, i in ((3, 4), (5, 4), (4, 3), (4, 5)):
            assert out[j, i] == pytest.approx(C, rel=1e-12)

    def test_nan_node_is_nan(self):
        # the operator and the duality map once read a NaN node as 0,
        # while the energy and the norm read NaN
        inst = make_instance(p=3.0)
        u = random_fields(inst, 1, 1)[0]
        u[inst.n_interior // 2] = np.nan
        assert np.isnan(inst.neg_plaplacian(u)[inst.n_interior // 2])
        assert np.isnan(inst.duality_map_H(u)[inst.n_interior // 2])
        assert np.isnan(inst.dirichlet_energy(u))

    @settings(max_examples=25, deadline=None)
    @given(shape=ANY_INSTANCE["shape"], cells=ANY_INSTANCE["cells"],
           radius=ANY_INSTANCE["radius"])
    def test_cminus_counts_non_interior_neighbours(self, shape, cells,
                                                   radius):
        # the reference counts the non-interior neighbours at the negated
        # half offsets directly, from a second neighbour table
        h = 2.0 / cells
        inst = PLaplaceInstance(build_domain(shape, 2.0, h), radius * h, 3.0)
        negated = inst._neighbours(-inst._half_offsets)
        expected = np.count_nonzero(negated == inst.n_interior, axis=0)
        assert np.array_equal(inst._cminus, expected)

    def test_zero_outside_interior(self):
        # the output is an interior vector, whose lattice field is zero off
        # the interior
        inst = make_instance(p=1.5, shape="lshape")
        u = random_fields(inst, 1, 1)[0]
        out = inst.neg_plaplacian(u)
        assert out.shape == (inst.n_interior,)
        assert np.all(inst.lift_free(out)[~inst.domain.interior_mask] == 0.0)


class TestAggregates:
    @pytest.mark.parametrize("shape", ["square", "lshape"])
    @settings(max_examples=15, deadline=None)
    @given(cells=st.integers(6, 40), radius=st.floats(1.0, 3.2))
    def test_partition_the_interior_into_lattice_blocks(self, shape, cells,
                                                        radius):
        # the interior nodes of each square block of side
        # ceil(AGGREGATE_SIDE margin), cut from node (0, 0), form one
        # aggregate, numbered in block order
        h = 2.0 / cells
        inst = PLaplaceInstance(build_domain(shape, 2.0, h), radius * h, 3.0)
        dom = inst.domain
        side = math.ceil(plaplace.AGGREGATE_SIDE * inst.stencil.margin)
        assert inst.aggregates.shape == (inst.n_interior,)
        number = np.full((dom.ny, dom.nx), -1)
        number[dom.interior_mask] = inst.aggregates
        blocks = []
        for j in range(0, dom.ny, side):
            for i in range(0, dom.nx, side):
                inside = dom.interior_mask[j:j + side, i:i + side]
                block = number[j:j + side, i:i + side][inside]
                if block.size:
                    assert np.all(block == block[0])
                    blocks.append(int(block[0]))
        assert blocks == list(range(len(blocks)))


class TestEnergy:
    def test_zero_field(self):
        inst = make_instance()
        assert inst.dirichlet_energy(np.zeros((21, 21))) == 0.0

    def test_positive_unless_zero(self):
        inst = make_instance()
        u = random_fields(inst, 1, 2)[0]
        assert inst.dirichlet_energy(u) > 0.0

    def test_unit_spike_p2_by_hand(self):
        inst = spike_instance(2.0)
        vals = np.zeros((9, 9))
        vals[4, 4] = 1.0
        C, h2 = inst.weight, 1.0
        # 4 differences seen from the spike plus 4 seen from its neighbors
        expect = C * h2 / (2 * 2.0) * 8.0
        assert inst.dirichlet_energy(vals) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_discrete_euler_identity(self, p):
        inst = make_instance(p=p, shape="lshape")
        assert euler_defect(inst, random_fields(inst, 10, seed=3)) <= 1e-10

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_energy_gradient_matches_operator(self, p):
        inst = make_instance(p=p)
        u = random_fields(inst, 1, 4)[0]
        v = random_fields(inst, 1, 5)[0]
        step = 1e-6
        fd = (inst.dirichlet_energy(u + step * v)
              - inst.dirichlet_energy(u - step * v)) / (2 * step)
        pairing = inst.pairing(inst.neg_plaplacian(u), v)
        assert fd == pytest.approx(pairing, rel=1e-6)

    # Stricter than the fixed-p cases above, over any p, radius, shape and
    # scale: the Euler defect is relative to p J(u), not to max(1, p J(u)),
    # and the gradient defect to <|dJ(u)|, |v|>, which a pairing <dJ(u), v>
    # that cancels to near 0 cannot inflate.
    @settings(max_examples=25, deadline=None)
    @given(**ANY_INSTANCE)
    def test_discrete_euler_identity_any_instance(self, **case):
        inst, u, _ = scaled_instance_fields(**case)
        pj = inst.p * inst.dirichlet_energy(u)
        assert abs(pj - inst.pairing(inst.neg_plaplacian(u), u)) <= 1e-13 * pj

    # Below p = 2 the kernel |d|^(p-2) is singular at d = 0, so the
    # central difference steps no more than a hundredth of the way from any
    # edge difference d_e(u) towards 0.  With the fixed step 1e-6 the
    # example draw read 7.16e-6 against its bound 4.63e-6.
    @settings(max_examples=25, deadline=None)
    @given(**ANY_INSTANCE)
    @example(p=1.125, shape="lshape", cells=9, radius=1.0, log_scale=0.0,
             seed=291)
    def test_energy_gradient_matches_operator_any_instance(self, **case):
        inst, u, v = scaled_instance_fields(**case)
        grad = inst.neg_plaplacian(u)
        du = np.abs(inst.edge_differences(u))
        dv = np.abs(inst.edge_differences(v))
        step = min(1e-6, 0.01 * np.min(du[dv > 0] / dv[dv > 0]))
        fd = (inst.dirichlet_energy(u + step * v)
              - inst.dirichlet_energy(u - step * v)) / (2 * step)
        assert abs(fd - inst.pairing(grad, v)) \
            <= 1e-7 * inst.pairing(np.abs(grad), np.abs(v))


class TestJacobian:
    def test_p2_is_constant_graph_laplacian(self):
        inst = make_instance(p=2.0)
        u1 = random_fields(inst, 1, 6)[0]
        u2 = random_fields(inst, 1, 7)[0]
        A1 = inst.jacobian_matrix(u1).toarray()
        A2 = inst.jacobian_matrix(u2).toarray()
        assert np.allclose(A1, A2, atol=1e-12)
        # diagonal = stencil size * C_h for interior-far nodes
        n_off = len(inst.stencil.offsets)
        assert np.max(A1.diagonal()) == pytest.approx(
            n_off * inst.weight, rel=1e-12)

    def test_matches_finite_differences(self):
        inst = make_instance(p=3.0)
        assert jacobian_fd_error(inst, random_fields(inst, 1, seed=8),
                                 random_fields(inst, 1, seed=9)) <= 1e-5

    def test_constant_field_epsilon_zero_gives_zero_matrix(self, monkeypatch):
        monkeypatch.setattr(plaplace, "EPSILON", 0.0)
        inst = make_instance(p=3.0)
        mask = inst.domain.interior_mask
        vals = np.where(mask, 1.0, 0.0)
        A = inst.jacobian_matrix(vals)
        row_mass = inst.lift_free(np.asarray(abs(A).sum(axis=1)).ravel())
        # constant interior: differences vanish except towards the boundary,
        # so rows of nodes whose whole ball is interior are exactly zero
        core = np.zeros_like(mask)
        margin = inst.stencil.margin
        core[1 + margin:-1 - margin, 1 + margin:-1 - margin] = True
        assert np.all(row_mass[core] == 0.0)
        # nodes whose ball reaches the boundary see exterior zeros
        assert np.all(row_mass[mask & ~core] > 0.0)

    def test_symmetric_and_psd(self):
        inst = make_instance(p=3.0, h=0.2, r=0.45)
        u = random_fields(inst, 1, 10)[0]
        A = inst.jacobian_matrix(u).toarray()
        assert np.max(np.abs(A - A.T)) <= 1e-12 * max(1.0, np.max(np.abs(A)))
        eigs = np.linalg.eigvalsh(A)
        assert eigs[0] >= -1e-10 * np.max(np.abs(eigs))


class TestSmoothing:
    """One constant, plaplace.EPSILON, smooths every kernel derivative."""

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_derivatives_are_local(self, p):
        # changing one node, here lifting max|u| from 0.75 to 4, leaves
        # every Jacobian row outside its stencil and every other entry of
        # duality_map_H_prime bit for bit; quarter levels give exactly zero
        # differences and values, whose slope is the smoothing's alone
        inst = make_instance(p=p)
        u = np.clip(np.round(4.0 * random_fields(inst, 1, 14)[0]), -3, 3) / 4
        k = inst.n_interior // 2
        v = u.copy()
        v[k] = 4.0
        A, B = inst.jacobian_matrix(u), inst.jacobian_matrix(v)
        near = A.indices[A.indptr[k]:A.indptr[k + 1]]  # k and its neighbours
        far = ~np.isin(np.repeat(np.arange(inst.n_interior),
                                 np.diff(A.indptr)), near)
        assert np.array_equal(A.data[far], B.data[far])
        assert not np.array_equal(A.data[~far], B.data[~far])
        zero = np.flatnonzero(u == 0.0)
        assert zero.size and k not in zero
        other = np.arange(inst.n_interior) != k
        assert np.array_equal(inst.duality_map_H_prime(u)[other],
                              inst.duality_map_H_prime(v)[other])

    @pytest.mark.parametrize("epsilon", [plaplace.EPSILON, 1e-3])
    def test_one_patch_reaches_every_derivative(self, epsilon):
        # at a zero difference or value every smoothed derivative is
        # (p-1) eps^(p-2): the Jacobian's edge weights, duality_map_H_prime
        # and the flux step's weights 1/psi'(sigma) at sigma = phi(0) = 0
        p = 1.5
        inst = make_instance(p=p)
        x = np.full(inst.n_interior, 0.5)  # interior differences are 0
        with mock.patch.object(plaplace, "EPSILON", epsilon):
            J = inst.jacobian_matrix(x)
            prime = inst.duality_map_H_prime(np.zeros_like(x))
            flux, _ = newton._Flux(inst, np.zeros_like(x), x).system(x)
        slope = (p - 1.0) * epsilon ** (p - 2.0)
        assert np.allclose(prime, slope, rtol=1e-14, atol=0.0)
        for A in (J, flux):
            A = A.tocoo()
            off = A.data[A.row != A.col]
            assert off.size
            assert np.allclose(off, -inst.weight * slope, rtol=1e-12,
                               atol=0.0)


class TestNormsAndDualityMap:
    def test_formulas(self):
        inst = make_instance(p=3.0)
        u = random_fields(inst, 1, 11)[0]
        h2 = inst.domain.h ** 2
        assert inst.norm_H(u) == pytest.approx(
            (h2 * np.sum(np.abs(u) ** 3)) ** (1 / 3), rel=1e-12)
        z = inst.duality_map_H(u)
        assert np.allclose(z, np.abs(u) * u)
        assert inst.dual_norm_H(z) == pytest.approx(
            inst.norm_H(u) ** 2, rel=1e-10)

    def test_normalized_field_unit_dual_norm(self):
        inst = make_instance(p=3.0)
        u = random_fields(inst, 1, 12)[0]
        u = u / inst.norm_H(u)
        z = inst.duality_map_H(u)
        assert inst.dual_norm_H(z) == pytest.approx(1.0, rel=1e-10)

    def test_zero_field(self):
        inst = make_instance(p=3.0)
        zero = np.zeros((21, 21))
        assert inst.norm_H(zero) == 0.0
        assert np.all(inst.duality_map_H(zero) == 0.0)

    def test_p2_duality_map_is_identity(self):
        inst = make_instance(p=2.0)
        u = random_fields(inst, 1, 13)[0]
        z = inst.duality_map_H(u)
        assert np.allclose(z, u)


# Every public method of the instance, called on an input pair (u, v); the
# inner solves stop after 3 Newton steps, which is enough to compare them.
COERCED_METHODS = {
    "neg_plaplacian": lambda inst, u, v: inst.neg_plaplacian(u),
    "subgrad_J": lambda inst, u, v: inst.subgrad_J(u),
    "dirichlet_energy": lambda inst, u, v: inst.dirichlet_energy(u),
    "energy_J": lambda inst, u, v: inst.energy_J(u),
    "edge_differences": lambda inst, u, v: inst.edge_differences(u),
    "jacobian_matrix": lambda inst, u, v: inst.jacobian_matrix(u),
    "duality_map_H": lambda inst, u, v: inst.duality_map_H(u),
    "duality_map_H_prime": lambda inst, u, v: inst.duality_map_H_prime(u),
    "norm_H": lambda inst, u, v: inst.norm_H(u),
    "dual_norm_H": lambda inst, u, v: inst.dual_norm_H(u),
    "H": lambda inst, u, v: inst.H(u),
    "pairing": lambda inst, u, v: inst.pairing(u, v),
    "inverse_subgrad_J": lambda inst, u, v: inst.inverse_subgrad_J(
        u, NewtonSettings(max_iter=3), warm_start=v),
    "prox_J": lambda inst, u, v: inst.prox_J(u, 0.5,
                                             NewtonSettings(max_iter=3)),
}


def same(a, b):
    """Bit for bit equal results: arrays, CSR matrices, numbers, tuples."""
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(same, a, b))
    if scipy.sparse.issparse(a):
        return all(np.array_equal(getattr(a, k), getattr(b, k))
                   for k in ("data", "indices", "indptr"))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


class TestInputCoercion:
    def test_every_public_method_checked(self):
        public = {name for name in dir(PLaplaceInstance)
                  if not name.startswith("_")
                  and callable(getattr(PLaplaceInstance, name))}
        # edge_sum reads edge fields laid out as edge_differences, not
        # node fields
        assert public - {"as_vector", "lift_free", "edge_sum"} \
            == set(COERCED_METHODS)

    @settings(max_examples=20, deadline=None)
    @given(p=st.floats(1.1, 6.0),
           shape=st.sampled_from(["square", "lshape"]),
           cells=st.integers(6, 10),
           radius=st.floats(1.0, 3.2),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_lattice_field_same_as_its_interior_vector(self, p, shape, cells,
                                                       radius, seed):
        # the fields are nonzero off the interior too, where every method
        # must ignore them
        h = 2.0 / cells
        dom = build_domain(shape, 2.0, h)
        inst = PLaplaceInstance(dom, radius * h, p)
        fields = np.random.default_rng(seed).standard_normal((2, dom.ny, dom.nx))
        u, v = (inst.as_vector(f) for f in fields)
        assert np.array_equal(u, fields[0][dom.interior_mask])
        assert np.array_equal(inst.lift_free(u),
                              np.where(dom.interior_mask, fields[0], 0.0))
        for name, call in COERCED_METHODS.items():
            expect = call(inst, u, v)
            for pair in ((fields[0], fields[1]), (fields[0], v),
                         (u, fields[1])):
                assert same(call(inst, *pair), expect), name


class TestConsistency:
    def test_p2_laplacian_consistency_refines_monotonically(self):
        # -Delta of sin(pi(x+1)/2) sin(pi(y+1)/2) is (pi^2/2) times itself;
        # max relative error at nodes far from the boundary must shrink as
        # h (and with it r = h^(1/1.6)) decreases.  The error carries a
        # lattice-counting fluctuation (number of grid points in the disk
        # vs its area), so the levels are chosen where the trend is clean.
        errs = []
        for h in (0.1, 0.04, 0.02):
            dom = build_domain("square", 2.0, h)
            r = h ** (1.0 / 1.6)
            inst = PLaplaceInstance(dom, r, 2.0)
            X, Y = dom.coords()
            u = np.where(dom.interior_mask,
                         np.sin(np.pi * (X + 1) / 2) * np.sin(np.pi * (Y + 1) / 2),
                         0.0)
            out = inst.lift_free(inst.neg_plaplacian(u))
            far = dom.interior_mask & (np.abs(X) < 1 - 2 * r) & (np.abs(Y) < 1 - 2 * r)
            rel = np.abs(out[far] - (np.pi ** 2 / 2) * u[far]) / np.abs(u[far]).max()
            errs.append(float(rel.max()))
        assert errs[0] > errs[1] > errs[2]


# --- per-offset loop versions of the operator, energy and Jacobian ----------
# These walk the stencil one offset at a time over a zero-padded lattice
# field.  The half-edge methods sum every quantity in another order, so they
# must reproduce the operator and the Jacobian's data to 1e-13 of their
# largest entry, the energy to 1e-14 relative, and the Jacobian's sparsity
# pattern (indices, indptr) bit for bit.

def _pad(values, margin):
    ny, nx = values.shape
    out = np.zeros((ny + 2 * margin, nx + 2 * margin))
    out[margin:margin + ny, margin:margin + nx] = values
    return out


def ref_neg_plaplacian(inst, u):
    mask = inst.domain.interior_mask
    vals = np.where(mask, u, 0.0)
    m = inst.stencil.margin
    P = _pad(vals, m)
    ny, nx = vals.shape
    acc = np.zeros_like(vals)
    for dy, dx in inst.stencil.offsets:
        nb = P[m + dy:m + dy + ny, m + dx:m + dx + nx]
        acc += power_map(nb - vals, inst.p)
    return np.where(mask, -inst.weight * acc, 0.0)


def ref_dirichlet_energy(inst, u):
    vals = np.where(inst.domain.interior_mask, u, 0.0)
    m = inst.stencil.margin
    P = _pad(vals, m)
    Q = _pad(P, m)
    hy, hx = P.shape
    total = 0.0
    for dy, dx in inst.stencil.offsets:
        nb = Q[m + dy:m + dy + hy, m + dx:m + dx + hx]
        total += float(np.sum(np.abs(nb - P) ** inst.p))
    return inst.weight * inst.domain.h ** 2 * total / (2.0 * inst.p)


def ref_jacobian_matrix(inst, u):
    mask = inst.domain.interior_mask
    vals = np.where(mask, u, 0.0)
    m = inst.stencil.margin
    P = _pad(vals, m)
    ny, nx = vals.shape
    n = inst.n_interior
    index = -np.ones((ny, nx), dtype=np.int64)
    index[mask] = np.arange(n)
    index_padded = -np.ones((ny + 2 * m, nx + 2 * m), dtype=np.int64)
    index_padded[m:m + ny, m:m + nx] = index
    rows_int = index[mask]
    diag = np.zeros(n)
    rows, cols, data = [], [], []
    epsilon = plaplace.EPSILON
    for dy, dx in inst.stencil.offsets:
        nb = P[m + dy:m + dy + ny, m + dx:m + dx + nx]
        d = (nb - vals)[mask]
        w = inst.weight * (inst.p - 1.0) \
            * (d * d + epsilon * epsilon) ** ((inst.p - 2.0) / 2.0)
        diag[rows_int] += w
        nb_idx = index_padded[m + dy:m + dy + ny, m + dx:m + dx + nx][mask]
        inside = nb_idx >= 0
        rows.append(rows_int[inside])
        cols.append(nb_idx[inside])
        data.append(-w[inside])
    rows.append(np.arange(n))
    cols.append(np.arange(n))
    data.append(diag)
    A = scipy.sparse.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n))
    return A.tocsr()


class TestMatchesPerOffsetLoops:
    @settings(max_examples=25, deadline=None)
    @given(p=st.floats(1.1, 6.0),
           shape=st.sampled_from(["square", "lshape"]),
           cells=st.integers(6, 12),
           radius=st.floats(1.0, 4.2),
           seed=st.integers(0, 2 ** 32 - 1),
           scale=st.sampled_from([1e-3, 1.0, 1e3]),
           levels=st.sampled_from([None, 2]),
           epsilon=st.one_of(st.none(), st.floats(1e-12, 1e-2)))
    def test_operator_energy_jacobian(self, p, shape, cells, radius, seed,
                                      scale, levels, epsilon):
        h = 2.0 / cells
        dom = build_domain(shape, 2.0, h)
        inst = PLaplaceInstance(dom, radius * h, p)
        u = scale * random_fields(inst, 1, seed)[0]
        if levels:
            # coarse values give exactly zero differences between neighbours
            u = np.round(u * levels) / levels
        field = inst.lift_free(u)

        ref = ref_neg_plaplacian(inst, field)[dom.interior_mask]
        assert np.max(np.abs(inst.neg_plaplacian(u) - ref)) \
            <= 1e-13 * np.max(np.abs(ref))

        # the module's smoothing constant, or the one drawn
        with mock.patch.object(plaplace, "EPSILON", plaplace.EPSILON
                               if epsilon is None else epsilon):
            A = inst.jacobian_matrix(u)
            ref = ref_jacobian_matrix(inst, field)
        ref.sort_indices()
        assert np.array_equal(A.indices, ref.indices)
        assert np.array_equal(A.indptr, ref.indptr)
        assert np.max(np.abs(A.data - ref.data)) \
            <= 1e-13 * np.max(np.abs(ref.data))

        energy = inst.dirichlet_energy(u)
        expect = ref_dirichlet_energy(inst, field)
        assert abs(energy - expect) <= 1e-14 * abs(expect)

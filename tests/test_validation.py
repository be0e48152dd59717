"""Properties of the paper's claims on random SPD pairs and small grids with
random p, measured with the shared invariant functions of
`nonlin_eig.validation` against its bounds, and guards that keep `assert`
statements out of the package and the lattice format out of the solvers."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nonlin_eig
from nonlin_eig.eigensolvers import run_ipm
from nonlin_eig.functional import SpdInstance
from nonlin_eig.grid import build_domain, eval_initial_guess
from nonlin_eig.plaplace import PLaplaceInstance
from nonlin_eig.validation import (QUICK_CHECKS, dual_rq_decrease,
                                   eigenvalue_relation_defect,
                                   gap_formula_defect, gap_negativity,
                                   p2_oracle, random_fields)

BOUND = {name: bound for name, _, bound in QUICK_CHECKS}

spd_pairs = st.tuples(st.integers(2, 8), st.integers(0, 2 ** 32 - 1))


def spd_pair(n, seed):
    """A seeded SPD pair whose eigenvalues grow by factors in [1.5, 3], and
    a seeded start vector."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = np.cumprod(rng.uniform(1.5, 3.0, size=n))
    return SpdInstance((Q * eigs) @ Q.T), rng.standard_normal(n)


@settings(max_examples=20, deadline=None)
@given(spd_pairs)
def test_ipm_dual_rq_monotone(case):
    pair, u0 = spd_pair(*case)
    assert dual_rq_decrease(run_ipm(pair, u0, 30)) <= 1e-9


@settings(max_examples=20, deadline=None)
@given(spd_pairs)
def test_primal_dual_eigenvalue_relation(case):
    pair, u0 = spd_pair(*case)
    trace = run_ipm(pair, u0, 200, residual_tol=1e-10)
    assert trace.converged
    assert eigenvalue_relation_defect(pair, [trace.final_u]) <= 1e-6


@settings(max_examples=20, deadline=None)
@given(spd_pairs)
def test_gap_zero_exactly_at_eigenvectors(case):
    pair, _ = spd_pair(*case)
    _, vecs = np.linalg.eigh(pair.A)
    for v in vecs.T:
        assert abs(gap_negativity(pair, [v])) <= 1e-12
    mixtures = [vecs[:, i] + vecs[:, j]
                for i in range(pair.n) for j in range(i + 1, pair.n)]
    assert gap_negativity(pair, mixtures) < -1e-6


# shape, lattice steps a side, p, and the radius r in units of h
grid_cases = st.tuples(st.sampled_from(["square", "lshape"]),
                       st.integers(9, 13), st.floats(1.5, 5.0),
                       st.floats(1.0, 3.0))


def grid_instance(shape, cells, p, r_over_h):
    h = 2.0 / cells
    domain = build_domain(shape, 2.0, h)
    return PLaplaceInstance(domain, r_over_h * h, p)


@settings(max_examples=15, deadline=None)
@given(grid_cases, st.integers(0, 2 ** 32 - 1))
def test_grid_duality_gap(case, seed):
    inst = grid_instance(*case)
    fields = random_fields(inst, 5, seed)
    assert gap_negativity(inst, fields) <= BOUND["duality-gap-nonnegative"]
    assert gap_formula_defect(inst, fields) <= BOUND["duality-gap-cross-check"]


@settings(max_examples=15, deadline=None)
@given(grid_cases)
def test_grid_ipm_dual_rq_monotone(case):
    inst = grid_instance(*case)
    u0 = eval_initial_guess("ex1", inst.domain).values
    assert dual_rq_decrease(run_ipm(inst, u0, 3)) <= BOUND["ipm-dual-rq-monotone"]


def test_p2_oracle_gives_the_kth_eigenpair():
    inst = PLaplaceInstance(build_domain("lshape", 2.0, 0.2), 0.3, 2.0)
    M = inst.jacobian_matrix(np.zeros(inst.n_interior)).toarray()
    dense = np.linalg.eigvalsh(M)
    for k in (1, 2, 3):
        lam, vec = p2_oracle(inst, k)
        assert lam == pytest.approx(dense[k - 1], rel=1e-10)
        assert np.linalg.norm(M @ vec - lam * vec) \
            <= 1e-8 * lam * np.linalg.norm(vec)


def test_no_assert_statements_in_package():
    # `python -O` strips asserts, so a check written as one would vanish
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(nonlin_eig.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"


def test_lattice_format_stays_at_the_edge():
    # the solvers, metrics and checks work on the vectors of a pair; only
    # the grid, the p-Laplace instance and the config/CLI edge know the
    # (ny, nx) lattice and how an interior vector sits in it
    package = Path(nonlin_eig.__file__).parent
    found = [f"{module}: {name}"
             for module in ("newton.py", "eigensolvers.py", "metrics.py",
                            "validation.py", "functional.py")
             for name in ("interior_mask", "lift_free", "free_flatten")
             if name in (package / module).read_text()]
    assert not found, f"lattice format outside the edge: {found}"

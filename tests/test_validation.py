"""Properties of the paper's claims on random SPD pairs, measured with the
shared invariant functions of `nonlin_eig.validation`, and a guard that
keeps `assert` statements out of the package."""

import ast
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

import nonlin_eig
from nonlin_eig.eigensolvers import run_ipm
from nonlin_eig.functional import SpdInstance
from nonlin_eig.validation import (dual_rq_decrease, eigenvalue_relation_defect,
                                   gap_negativity)

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


def test_no_assert_statements_in_package():
    # `python -O` strips asserts, so a check written as one would vanish
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(nonlin_eig.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"

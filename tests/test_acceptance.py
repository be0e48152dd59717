"""End-to-end acceptance suite.

Each test prints a single summary line; module-scoped fixtures hold the
expensive solver runs so criteria sharing a run do not recompute it.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from nonlin_eig import metrics, validation
from nonlin_eig.eigensolvers import (run_balanced_ipm, run_geometric,
                                     run_ipm, run_ppm)
from nonlin_eig.functional import SpdInstance
from nonlin_eig.grid import build_domain, eval_initial_guess
from nonlin_eig.newton import NewtonSettings
from nonlin_eig.plaplace import PLaplaceInstance


def _grid_instance(shape, h, r, p):
    dom = build_domain(shape, 2.0, h)
    return PLaplaceInstance(dom, r, p)


@pytest.fixture(scope="module")
def fenchel_routes():
    """Route defects of J*(zeta) recorded at the dual-RQ evaluations of the
    IPM fixtures below (see `checking_fenchel_routes`)."""
    return []


@contextlib.contextmanager
def checking_fenchel_routes(defects):
    """Record `validation.fenchel_route_defect` at every evaluation of J*
    inside the dual Rayleigh quotient, without changing its value."""
    original = metrics.fenchel_conjugate_value

    def checked(pair, zeta, v, Jv):
        defects.append(validation.fenchel_route_defect(pair, zeta, v, Jv))
        return original(pair, zeta, v, Jv)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "fenchel_conjugate_value", checked)
        yield


# --------------------------------------------------------------------------
# shared expensive runs
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def spd_suite(fenchel_routes):
    """20 seeded SPD pairs (n=8, cond <= 1e4, spectral gap >= 2) with IPM
    and proximal runs; timing covers the two iterative solvers only, in
    CPU time of this process, so that other load on the host does not
    count."""
    rng = np.random.default_rng(20260823)
    out = []
    t_total = 0.0
    for _ in range(20):
        lam1 = rng.uniform(0.5, 2.0)
        lam2 = lam1 * rng.uniform(2.0, 4.0)
        rest = rng.uniform(lam2, 1e3 * lam1, size=6)
        evals = np.concatenate([[lam1, lam2], rest])
        Q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        A = Q @ np.diag(evals) @ Q.T
        A = 0.5 * (A + A.T)
        inst = SpdInstance(A)
        u0 = rng.standard_normal(8)
        with checking_fenchel_routes(fenchel_routes):
            t0 = time.process_time()
            tr_ipm = run_ipm(inst, u0, 40)
            tr_ppm = run_ppm(inst, u0, tau_tilde=0.1, iters=160)
            t_total += time.process_time() - t0
        out.append((inst, tr_ipm, tr_ppm))
    return out, t_total


EX1_PS = (1.5, 2.0, 3.0, 5.0)


@pytest.fixture(scope="module")
def ex1_sweep(fenchel_routes):
    """30 inverse-power iterations on the L-shape start profile at desk
    scale (41x41, r=0.2) for each exponent; exact inner solves, at 1e-12
    absolute.
    The p=1.5 inner solves are capped at 150 Newton steps; their residual
    has a rounding floor (criterion 7)."""
    traces = {}
    for p in EX1_PS:
        inst = _grid_instance("lshape", 0.05, 0.2, p)
        u0 = eval_initial_guess("ex1", inst.domain).values
        max_iter = 150 if p < 2 else 500
        with checking_fenchel_routes(fenchel_routes):
            traces[p] = (inst, run_ipm(inst, u0, 30, settings=NewtonSettings(
                tol_abs=1e-12, max_iter=max_iter), exact=True))
    return traces


@pytest.fixture(scope="module")
def square_p2_anchor(fenchel_routes):
    """p=2 runs on (-1,1)^2 at h=0.025 with the operator's smallest
    eigenvalue from `validation.p2_oracle`: one at the wide radius r=0.2
    (solver-vs-oracle check) and one at r=0.125 where the discretization
    error is small enough for the continuum anchor.  Exact inner solves, as
    the Fenchel-route check needs (`run_ipm`)."""
    out = {}
    for r in (0.2, 0.125):
        inst = _grid_instance("square", 0.025, r, 2.0)
        u0 = eval_initial_guess("ex1", inst.domain).values
        with checking_fenchel_routes(fenchel_routes):
            trace = run_ipm(inst, u0, 40, exact=True)
        out[r] = (inst, trace, validation.p2_oracle(inst)[0])
    return out


@pytest.fixture(scope="module")
def balanced_run():
    """Sign-balanced inverse iteration, second start profile, 51x51 square,
    r resolved by the consistency rule r^1.6 = h, 50 iterations."""
    h = 0.04
    inst = _grid_instance("square", h, h ** (1.0 / 1.6), 3.0)
    u0 = eval_initial_guess("ex2", inst.domain).values
    return inst, run_balanced_ipm(inst, u0, 50)


@pytest.fixture(scope="module")
def geometric_runs():
    """Cosine-ascent scheme on both start profiles, 51x51 square, wide
    radius r = sqrt(h), p=3, budget 25 outer iterations."""
    h = 0.04
    inst = _grid_instance("square", h, h ** 0.5, 3.0)
    out = {}
    for tag in ("ex1", "ex2"):
        u0 = eval_initial_guess(tag, inst.domain).values
        out[tag] = (inst, run_geometric(inst, u0, 25))
    return out


def small_square(p):
    """The small square instance of the randomized operator identities."""
    return _grid_instance("square", 0.1, 0.25, p)


# --------------------------------------------------------------------------
# criteria
# --------------------------------------------------------------------------

def test_criterion_01_spd_oracle_equivalence(spd_suite):
    runs, t_total = spd_suite
    worst_ipm = validation.spd_oracle_error(
        (inst, tr_ipm.final_lambda) for inst, tr_ipm, _ in runs)
    worst_ppm = validation.spd_oracle_error(
        (inst, tr_ppm.extras["lambda_recovered"]) for inst, _, tr_ppm in runs)
    print(f"\n[criterion 1] PASS: 20 SPD pairs, IPM rel err {worst_ipm:.2e} "
          f"(<=1e-8), PPM recovered rel err {worst_ppm:.2e} (<=1e-6), "
          f"solver CPU time {t_total:.2f}s (<1s)")
    assert worst_ipm <= 1e-8
    assert worst_ppm <= 1e-6
    assert t_total < 1.0


def test_criterion_02_dual_rq_monotone(ex1_sweep):
    assert all(len(trace.records) == 30 for _, trace in ex1_sweep.values())
    worst = -max(validation.dual_rq_decrease(trace)
                 for _, trace in ex1_sweep.values())
    print(f"\n[criterion 2] PASS: dual Rayleigh quotient nondecreasing over "
          f"30 iterations for p in {EX1_PS}, worst relative slack "
          f"{worst:.2e} (>= -1e-9)")
    assert worst >= -1e-9


def test_criterion_03_duality_gap_roots(ex1_sweep):
    inst, trace = ex1_sweep[3.0]
    gap0 = trace.records[0].gap
    u = trace.final_u
    gap_final = validation.duality_gap_at(inst, u)
    res_final = metrics.eigen_residual(inst, u)
    print(f"\n[criterion 3] PASS: gap at start {gap0:.2e} (>1e-2), gap at "
          f"final iterate {gap_final:.2e} (<=1e-5), eigen-residual "
          f"{res_final:.2e} (<=1e-5)")
    assert gap0 > 1e-2
    assert gap_final <= 1e-5
    assert res_final <= 1e-5


def test_criterion_04_euler_identity():
    worst = 0.0
    for p in (1.5, 3.0):
        inst = small_square(p)
        worst = max(worst, validation.euler_defect(
            inst, validation.random_fields(inst, 100, seed=int(10 * p))))
    print(f"\n[criterion 4] PASS: Euler identity on 200 random fields "
          f"(p=1.5, 3), worst relative defect {worst:.2e} (<=1e-10)")
    assert worst <= 1e-10


def test_criterion_05_jacobian_matches_fd():
    inst = small_square(3.0)
    worst = validation.jacobian_fd_error(
        inst, validation.random_fields(inst, 20, seed=5),
        validation.random_fields(inst, 20, seed=55))
    print(f"\n[criterion 5] PASS: Jacobian-vector vs central differences on "
          f"20 random fields (p=3), worst relative error {worst:.2e} "
          f"(<=1e-5)")
    assert worst <= 1e-5


def test_criterion_06_p2_analytic_anchor(square_p2_anchor):
    target = math.pi ** 2 / 2
    _, tr_wide, oracle_wide = square_p2_anchor[0.2]
    _, tr_anchor, oracle_anchor = square_p2_anchor[0.125]
    solver_err = max(abs(tr_wide.final_lambda - oracle_wide),
                     abs(tr_anchor.final_lambda - oracle_anchor))
    cont_rel = abs(tr_anchor.final_lambda - target) / target
    print(f"\n[criterion 6] PASS: p=2 anchor, solver vs sparse "
          f"shift-invert eigenvalue {solver_err:.2e} (<=1e-8); lambda "
          f"{tr_anchor.final_lambda:.4f} vs pi^2/2 rel {cont_rel:.2e} "
          f"(<=5e-2) at r=0.125 (r=0.2 carries an 11.9% discretization "
          f"bias, see ledger)")
    assert solver_err <= 1e-8
    assert cont_rel <= 0.05


def test_criterion_07_inner_newton(ex1_sweep):
    worst_res = 0.0
    worst_it = 0
    for p in (2.0, 3.0, 5.0):
        _, trace = ex1_sweep[p]
        assert not trace.extras["failed_inner_solves"]
        worst_res = max(worst_res, max(r.inner.final_residual
                                       for r in trace.records))
        worst_it = max(worst_it,
                       max(r.inner.iterations for r in trace.records))
    # at p = 1.5 the kernel is only 1/2-Hoelder, and one ulp more or less
    # in the iterate's entries can move the residual by 1e-9 (newton module
    # docstring): not every p = 1.5 solve gets under 1e-12 (see ledger)
    _, trace15 = ex1_sweep[1.5]
    worst_res15 = max(r.inner.final_residual for r in trace15.records)
    worst_it15 = max(r.inner.iterations for r in trace15.records)
    print(f"\n[criterion 7] PASS: inner Newton solves for p in (2, 3, 5), "
          f"worst final residual {worst_res:.2e} (<=1e-12), worst iteration "
          f"count {worst_it} (<=500); p=1.5 worst residual "
          f"{worst_res15:.2e} (<=1e-9), worst iteration count {worst_it15} "
          f"(<=150)")
    assert worst_res <= 1e-12
    assert worst_it <= 500
    assert worst_res15 <= 1e-9
    assert worst_it15 <= 150


# final lambda of the IPM fixtures, recorded before the inner solves started
# on the eigen-ray with Eisenstat-Walker forcing (both only for p >= 2)
EX1_LAMBDAS = {2.0: 8.165281802442031, 3.0: 18.75646668156805,
               5.0: 79.49362072994049}
ANCHOR_LAMBDAS = {0.2: 4.347831373947049, 0.125: 5.047118522017966}


def test_ipm_eigenvalues_pinned(ex1_sweep, square_p2_anchor):
    worst = max(
        [abs(ex1_sweep[p][1].final_lambda - lam) / lam
         for p, lam in EX1_LAMBDAS.items()]
        + [abs(square_p2_anchor[r][1].final_lambda - lam) / lam
           for r, lam in ANCHOR_LAMBDAS.items()])
    print(f"\n[ipm eigenvalues] PASS: final lambda of ex1 p=2, 3, 5 and "
          f"the p=2 anchors against the recorded values, worst relative "
          f"defect {worst:.2e} (<=1e-10)")
    assert worst <= 1e-10


def test_criterion_08_balanced_scheme(balanced_run):
    inst, trace = balanced_run
    rq = [rec.rq for rec in trace.records]
    assert len(rq) == 50
    # rq[0] belongs to the raw start profile; the first balanced iterate
    # jumps into the sign-changing eigenspace, decrease is asserted from
    # there on.
    assert all(b < a for a, b in zip(rq[1:], rq[2:]))
    u = trace.final_u
    up, um = np.maximum(u, 0.0), np.maximum(-u, 0.0)
    balance = abs(inst.energy_J(up) / inst.H(up)
                  - inst.energy_J(um) / inst.H(um))
    R = metrics.rayleigh_quotient(inst, u)
    assert balance <= 1e-6 * R
    assert np.any(u > 0) and np.any(u < 0)
    print(f"\n[criterion 8] PASS: balanced scheme 50 iterations, RQ "
          f"strictly decreasing from the first balanced iterate, final "
          f"partial-RQ mismatch {balance:.2e} (<= {1e-6 * R:.2e}), final "
          f"iterate sign-changing; no-plateau clause scoped (see ledger)")


def test_criterion_09_geometric_scheme(geometric_runs):
    inst, tr1 = geometric_runs["ex1"]
    Fs = tr1.extras["F"]
    assert all(b <= a + 1e-14 for a, b in zip(Fs, Fs[1:]))
    best_cos = max(rec.cosim for rec in tr1.records)
    best_cos = max(best_cos,
                   metrics.cosine_similarity(inst, tr1.final_u,
                                             inst.subgrad_J(tr1.final_u)))
    assert len(tr1.records) <= 25
    assert best_cos >= 1.0 - 1e-3
    _, tr2 = geometric_runs["ex2"]
    res2 = metrics.eigen_residual(inst, tr2.final_u)
    assert tr2.stop_reason == "stalled"
    assert res2 > 1e-2
    print(f"\n[criterion 9] PASS: geometric scheme, ex1 cosine similarity "
          f"{best_cos:.6f} (>=0.999) within {len(tr1.records)} iterations "
          f"with nonincreasing objective; ex2 stalled at a flagged "
          f"non-eigenfunction extremum, residual {res2:.2e} (>1e-2)")


def test_geometric_polish_takes_cg(geometric_runs):
    # The ex2 run holds the inputs of the square-p3-geometric benchmark:
    # every one of its polish systems is solved by converged CG, and the
    # trajectory is the one SuperLU gave when the polish also factored.
    _, tr2 = geometric_runs["ex2"]
    unconverged = [r.inner.cg_unconverged for r in tr2.records]
    cg_iterations = [r.inner.cg_iterations_total for r in tr2.records]
    print(f"\n[geometric polish] PASS: ex2 polish unconverged CG calls per "
          f"step {unconverged} (all 0), CG iterations per step "
          f"{cg_iterations}, final lambda "
          f"{tr2.final_lambda!r}")
    assert unconverged == [0] * len(tr2.records)
    assert tr2.final_lambda == pytest.approx(2950.4313815124947, rel=1e-12)


def test_criterion_10_duality_cross_checks(spd_suite, ex1_sweep,
                                           square_p2_anchor):
    inst = small_square(3.0)
    fields = validation.random_fields(inst, 200, seed=1012)
    worst_slack = -validation.gap_negativity(inst, fields)
    worst_agree = validation.gap_formula_defect(inst, fields)
    assert worst_slack >= -1e-10
    assert worst_agree <= 1e-8

    # primal-dual eigenvalue relation at every converged eigenpair
    checked = 0
    worst_mu = 0.0
    for inst_k, trace in (
            [(i, t) for i, t, _ in spd_suite[0]]
            + [(ex1_sweep[p][0], ex1_sweep[p][1]) for p in EX1_PS]
            + [(square_p2_anchor[r][0], square_p2_anchor[r][1])
               for r in square_p2_anchor]):
        if not trace.converged:
            continue
        worst_mu = max(worst_mu, validation.eigenvalue_relation_defect(
            inst_k, [trace.final_u]))
        checked += 1
    assert checked >= 20
    assert worst_mu <= 1e-6
    print(f"\n[criterion 10] PASS: gap nonnegativity slack {worst_slack:.2e}"
          f" (>=-1e-10) and two-formula agreement {worst_agree:.2e} "
          f"(<=1e-8) on 200 random pairs; primal-dual eigenvalue relation "
          f"defect {worst_mu:.2e} (<=1e-6) across {checked} converged "
          f"eigenpairs")


def test_fenchel_routes_agree_in_ipm_fixtures(fenchel_routes, spd_suite,
                                              ex1_sweep, square_p2_anchor):
    worst = max(fenchel_routes)
    print(f"\n[fenchel routes] PASS: J* through the subgradient pair vs the "
          f"Euler route at {len(fenchel_routes)} evaluations in the SPD, "
          f"ex1 (p=1.5 included) and p=2 anchor runs, worst relative defect "
          f"{worst:.2e} (<=1e-8)")
    # the dual RQ and the gap of every IPM record, the gap of every PPM one
    assert len(fenchel_routes) == 2 * (20 * 40 + 4 * 30 + 2 * 40) + 20 * 160
    assert worst <= 1e-8

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nonlin_eig
from nonlin_eig import config, metrics, validation
from nonlin_eig.cli import main
from nonlin_eig.grid import build_domain, eval_initial_guess

ROOT = Path(__file__).resolve().parents[1]
PROBLEM = {"kind": "plaplace", "shape": "square", "side": 2.0, "h": 0.2,
           "r": 0.45, "p": 3.0}
NO_R = {k: v for k, v in PROBLEM.items() if k != "r"}  # a base for r_rule


# While a list, it receives the (path, mode, flags) of every file opened.
# The audit event "open" is raised by open(), io.open and os.open alike,
# with the flags handed to the system call, so it sees every writer.
OPENED = None


def _audit_open(event, args):
    if event == "open" and OPENED is not None:
        OPENED.append(args)


sys.addaudithook(_audit_open)


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def load_run(out):
    """out/run.json parsed as strict JSON, which has no NaN or Infinity."""
    def reject(name):
        raise ValueError(f"run.json holds {name}")

    return json.loads((out / "run.json").read_text(), parse_constant=reject)


def assert_rejected(tmp_path, capsys, raw, name):
    """run and describe both exit 1 with an error line naming name, and run
    creates no output directory."""
    cfg = write_config(tmp_path / "bad.json", raw)
    for command in ("run", "describe"):
        assert main([command, cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err, err
    assert not (tmp_path / "out").exists()


@pytest.fixture
def grid_config(tmp_path):
    return write_config(tmp_path / "grid.json", {
        "problem": {"kind": "plaplace", "shape": "square", "side": 2.0,
                    "h": 0.2, "r": 0.45, "p": 3.0},
        "initial": {"kind": "ex1"},
        "solver": {"kind": "ipm", "iters": 5},
        "newton": {"tol_abs": 1e-12, "max_iter": 200},
        "output": {"dir": str(tmp_path / "out_grid"), "snapshot_every": 2},
    })


class TestRun:
    def test_p2_run_matches_oracle(self, tmp_path):
        # at p = 2 the run must reach the least eigenvalue of the linear
        # operator, which validation.p2_oracle computes by shift-invert
        cfg = write_config(tmp_path / "p2.json", {
            "problem": dict(PROBLEM, p=2.0),
            "solver": {"kind": "ipm", "iters": 40},
            "output": {"dir": str(tmp_path / "out_p2")},
        })
        assert main(["run", cfg]) == 0
        out = tmp_path / "out_p2"
        with open(out / "metrics.csv", newline="") as f:
            rows = list(csv.reader(f))
        # the work columns are appended, so the first eight keep their place
        assert rows[0][:8] == ["iter", "rq", "dual_rq", "cosim", "gap",
                               "residual", "inner_iters", "wall_time"]
        assert rows[0][8:11] == ["jacobians", "residual_evals", "backtracks"]
        assert len(rows) == 41
        info = load_run(out)
        assert info["solver_tag"] == "ipm"
        pair, _, _ = config.build_instance(config.load_config(cfg))
        oracle, _ = validation.p2_oracle(pair)
        assert info["final_lambda"] == pytest.approx(oracle, rel=1e-8)
        final = np.loadtxt(out / "final.csv", delimiter=",")
        assert final.shape == (11, 11)

    def test_metrics_csv_cells_parse_as_floats(self, grid_config, tmp_path):
        assert main(["run", grid_config]) == 0
        with open(tmp_path / "out_grid" / "metrics.csv", newline="") as f:
            rows = list(csv.reader(f))[1:]
        # every cell but the inner solve's converged flag is a number
        flag = metrics.CSV_HEADER.index("inner_converged")
        cells = [cell for row in rows for i, cell in enumerate(row)
                 if cell and i != flag]
        assert len(cells) == 5 * (len(metrics.CSV_HEADER) - 1)
        for cell in cells:
            float(cell)
        assert all(row[flag] in ("True", "False") for row in rows)

    def test_geometric_run_names_winners(self, tmp_path):
        # p = 4: step 0's polish stops in the far field, step 1's wins.  At
        # p = 5, this test's instance before the far-field stop, the one
        # winner was step 0's polish, which now stops in the far field
        config = write_config(tmp_path / "geo.json", {
            "problem": {"kind": "plaplace", "shape": "square", "side": 2.0,
                        "h": 0.1, "r_rule": {"type": "h_pow",
                                             "exponent": 0.5}, "p": 4.0},
            "initial": {"kind": "ex2"},
            "solver": {"kind": "geometric", "iters": 25},
            "output": {"dir": str(tmp_path / "out_geo")},
        })
        assert main(["run", config]) == 0
        info = load_run(tmp_path / "out_geo")
        assert info["extras"]["candidate"] == ["sweep", "polish", "sweep",
                                               "sweep"]
        assert info["extras"]["far_field"] == [0]

    # one bordered solve per step.  At p = 3 its Newton steps were [6, 5]
    # before the first one was forced; the root search took [7, 4] solves,
    # [12, 4] when step 0 doubled s from 1 to a bracket.  At p = 1.5 the
    # primal-dual step 1 ends between tol_abs and 1e-9; its steps were
    # [13, 30] before D_{2,p} was computed in closed form, which moved it
    # by 9.8e-12 relative
    @pytest.mark.parametrize("p,newton_steps,failed", [
        (3.0, [7, 5], []), (1.5, [14, 35], [1])], ids=["p3", "p1.5"])
    def test_balanced_run_reports_bordered_solves(self, tmp_path, p,
                                                  newton_steps, failed):
        config = write_config(tmp_path / "bal.json", {
            "problem": {"kind": "plaplace", "shape": "square", "side": 2.0,
                        "h": 0.1, "r": 0.25, "p": p},
            "initial": {"kind": "ex2"},
            "solver": {"kind": "balanced", "iters": 2},
            "output": {"dir": str(tmp_path / "out_bal")},
        })
        assert main(["run", config]) == 0
        out = tmp_path / "out_bal"
        info = load_run(out)
        extras = info["extras"]
        assert len(extras["balance_roots"]) == 2
        assert len(extras["balance_defects"]) == 2
        assert all(d <= 1e-6 for d in extras["balance_defects"])
        assert extras["failed_inner_solves"] == failed
        with open(out / "metrics.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        column = {key: [int(row[key]) for row in rows]
                  for key in ("inner_iters", "cg_iterations", "cg_unconverged",
                              "jacobians", "residual_evals", "backtracks")}
        assert max(float(row["inner_residual"]) for row in rows) <= 1e-9
        assert [k for k, row in enumerate(rows)
                if row["inner_converged"] == "False"] == failed
        assert len(column["cg_iterations"]) == 2
        assert all(n > 0 for n in column["cg_iterations"])
        assert column["cg_unconverged"] == [0, 0]
        # one Jacobian per Newton step, and one residual per trial point
        assert column["inner_iters"] == newton_steps
        assert column["jacobians"] == newton_steps
        assert column["residual_evals"] == [
            1 + n + b for n, b in zip(newton_steps, column["backtracks"])]
        # run.json totals the records' work
        work = info["inner_work"]
        assert work["iterations"] == sum(newton_steps)
        assert work["cg_iterations_total"] == sum(column["cg_iterations"])
        assert work["converged"] == (not failed)

    def test_run_json_writes_no_nan(self, tmp_path):
        # one node of 1e-200 against a start of the other sign, either way
        # round (as in test_eigensolvers'
        # test_positive_part_without_norm_falls_back): no bordered solve
        # runs, and the trace's NaN root and defect of that step were
        # written as bare NaN, which strict JSON readers reject
        dom = build_domain("square", 2.0, 0.2)
        for sign in (1.0, -1.0):
            start = -sign * np.abs(eval_initial_guess("ex1", dom).values)
            start[tuple(np.argwhere(dom.interior_mask)[0])] = sign * 1e-200
            np.savetxt(tmp_path / "start.csv", start, delimiter=",")
            out = tmp_path / f"out{sign:+.0f}"
            cfg = write_config(tmp_path / "bal.json", {
                "problem": PROBLEM,
                "initial": {"kind": "file",
                            "path": str(tmp_path / "start.csv")},
                "solver": {"kind": "balanced", "iters": 3},
                "output": {"dir": str(out)},
            })
            assert main(["run", cfg]) == 0, sign
            info = load_run(out)
            assert info["stop_reason"] == "stalled"
            assert info["extras"]["balance_roots"] == [None]
            assert info["extras"]["balance_defects"] == [None]

    def test_grid_run_with_snapshots(self, grid_config, tmp_path):
        assert main(["run", grid_config]) == 0
        out = tmp_path / "out_grid"
        assert (out / "metrics.csv").exists()
        assert (out / "final.csv").exists()
        assert (out / "ipm_iter2.csv").exists()
        assert (out / "ipm_iter4.csv").exists()
        assert not (out / "ipm_iter3.csv").exists()
        info = load_run(out)
        assert info["snapshots"] == ["ipm_iter2.csv", "ipm_iter4.csv"]
        echoed = info["config"]
        assert echoed["epsilon"] == 1e-9
        assert echoed["d2p"] > 0.0
        assert echoed["r"] == 0.45
        assert echoed["nx"] == 11
        with open(out / "metrics.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 5
        assert all(int(row["cg_iterations"]) > 0 for row in rows)
        assert [row["cg_unconverged"] for row in rows] == ["0"] * 5

    def test_rerun_matches_a_fresh_run(self, grid_config, tmp_path):
        # outputs are rewritten in place: a 2-step run into the directory
        # of a 5-step run leaves what it leaves in a fresh one, apart from
        # the wall times and the stale ipm_iter4.csv, which it does not list
        out = tmp_path / "out_grid"
        raw = json.loads(Path(grid_config).read_text())
        short = write_config(tmp_path / "short.json",
                             dict(raw, solver={"kind": "ipm", "iters": 2}))

        def outputs():
            return {p.name: p.read_bytes() for p in out.iterdir()}

        def rows(text):
            table = list(csv.DictReader(text.decode().splitlines()))
            for row in table:
                del row["wall_time"]
            return table

        assert main(["run", short]) == 0
        fresh = outputs()
        shutil.rmtree(out)
        assert main(["run", grid_config]) == 0
        assert main(["run", short]) == 0
        rerun = outputs()
        assert sorted(rerun) == sorted([*fresh, "ipm_iter4.csv"])
        for name in ("final.csv", "run.json", "ipm_iter2.csv"):
            assert rerun[name] == fresh[name], name
        assert load_run(out)["snapshots"] == ["ipm_iter2.csv"]
        assert len(rows(rerun["metrics.csv"])) == 2
        assert rows(rerun["metrics.csv"]) == rows(fresh["metrics.csv"])

    def test_rerun_truncates_no_output_on_open(self, grid_config, tmp_path):
        # truncating an existing file on open stalls for tens of ms on some
        # file systems, so a rerun opens its outputs without O_TRUNC
        global OPENED
        out = tmp_path / "out_grid"
        assert main(["run", grid_config]) == 0
        OPENED = []
        try:
            assert main(["run", grid_config]) == 0
            opened = [(Path(path), mode, flags)
                      for path, mode, flags in OPENED
                      if isinstance(path, (str, os.PathLike))
                      and Path(path).parent == out]
        finally:
            OPENED = None
        assert {path.name for path, _, _ in opened} \
            == {"metrics.csv", "final.csv", "run.json", "ipm_iter2.csv",
                "ipm_iter4.csv"}
        for path, mode, flags in opened:
            assert not flags & os.O_TRUNC, path
            assert "w" not in (mode or ""), path

    def test_ppm_starts_from_an_earlier_run(self, grid_config, tmp_path):
        assert main(["run", grid_config]) == 0
        config = write_config(tmp_path / "ppm.json", {
            "problem": {"kind": "plaplace", "shape": "square", "side": 2.0,
                        "h": 0.2, "r": 0.45, "p": 3.0},
            "initial": {"kind": "file",
                        "path": str(tmp_path / "out_grid" / "final.csv")},
            "solver": {"kind": "ppm", "tau": 0.5, "iters": 3},
            "output": {"dir": str(tmp_path / "out_ppm")},
        })
        assert main(["run", config]) == 0
        ipm = load_run(tmp_path / "out_grid")
        with open(tmp_path / "out_ppm" / "metrics.csv", newline="") as f:
            first = next(csv.DictReader(f))
        # the run starts from the IPM run's final iterate
        assert float(first["rq"]) == pytest.approx(ipm["final_lambda"],
                                                   rel=1e-12)
        info = load_run(tmp_path / "out_ppm")
        extras = info["extras"]
        assert "recovery_converged" not in extras
        assert np.isfinite(extras["lambda_recovered"])
        # inner_work is the records' inner solves, summed: the PPM runs no
        # solve after its last step
        with open(tmp_path / "out_ppm" / "metrics.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        for column, key in metrics.REPORT_COLUMNS.items():
            if key not in ("final_residual", "converged"):
                assert info["inner_work"][key] \
                    == sum(int(row[column]) for row in rows), key
        assert info["inner_work"]["iterations"] > 0

    def test_out_override(self, grid_config, tmp_path):
        other = tmp_path / "elsewhere"
        assert main(["run", grid_config, "--out", str(other)]) == 0
        assert (other / "metrics.csv").exists()
        assert not (tmp_path / "out_grid").exists()

    @pytest.mark.parametrize("section, key, value", [
        ("problem", "p", 0.5),
        ("problem", "h", "0.2"),
        ("problem", "side", True),
        ("problem", "r", "0.45"),
        ("solver", "tau", "0.5"),
        ("solver", "iters", True),
        ("solver", "iters", 2.5),
        ("newton", "tol_abs", "1e-12"),
        ("newton", "max_iter", True),
        # two keys that are gone: CG's tolerance and budget are fixed
        ("newton", "cg_tol", "1e-10"),
        ("newton", "cg_max_iter", 10.5),
        # these three once ended in a traceback
        ("problem", "r_rule", "consistency"),
        ("problem", "r_rule", {"type": "h_pow"}),
        ("problem", "r_rule", {"type": "h_pow", "exponent": 0}),
        # a string ended in a traceback, -1 ran and reported unconverged
        ("solver", "residual_tol", "abc"),
        ("solver", "residual_tol", -1),
        ("solver", "residual_tol", 0),
        # a string failed only in run, after creating the output directory;
        # -1 wrote a snapshot at every step; a number ended in a traceback
        ("output", "snapshot_every", "abc"),
        ("output", "snapshot_every", -1),
        ("output", "dir", 3),
        # keys nothing reads: D_{2,p} and epsilon are fixed, and a
        # misspelled key once fell back to its default
        ("problem", "d2p", 0.2),
        ("problem", "epsilon", 1e-9),
        ("solver", "iter", 5),
        ("newton", "tol", 1e-12),
        ("output", "snapshot", 1),
        # json parses Infinity, NaN and 10**400: an infinite p ended in a
        # ZeroDivisionError, an infinite tau and a NaN tol_abs ran, and
        # 10**400 overflowed float() in a traceback
        ("problem", "p", float("inf")),
        ("solver", "tau", float("inf")),
        ("newton", "tol_abs", float("nan")),
        pytest.param("problem", "p", 10 ** 400, id="problem-p-10**400"),
    ])
    def test_invalid_value_exits_1(self, tmp_path, capsys, section, key, value):
        raw = {
            # an r_rule row tests the rule's own checks, not its clash with r
            "problem": dict(NO_R if key == "r_rule" else PROBLEM),
            "solver": {"kind": "ipm", "iters": 2},
            "newton": {},
            "output": {"dir": str(tmp_path / "out")},
        }
        raw[section][key] = value
        assert_rejected(tmp_path, capsys, raw, f"{section}.{key}")

    @pytest.mark.parametrize("sections, name", [
        ({"outputs": {}}, "outputs"),
        ({"output": "runs"}, "output"),
        ({"newton": []}, "newton"),
        ({"initial": {"kind": "expression",
                      "expression": "x1 * x2"}}, "initial.expression"),
        ({"initial": {"kind": "expression"}}, "initial.kind"),
        # this ended in a traceback
        ({"initial": {"kind": "file"}}, "initial.path"),
        # the SPD problem kind is gone from configs with its start vector,
        # which a grid run once ignored, from a default or from a file start
        ({"initial": {"kind": "ex1", "vector": [1.0, 1.0, 1.0]}},
         "initial.vector"),
        ({"initial": {"kind": "file", "path": "start.csv",
                      "vector": [1.0, "a"]}}, "initial.vector"),
        ({"problem": dict(PROBLEM, kind="spd")}, "problem.kind"),
        ({"problem": dict(PROBLEM, matrix=[[2.0, 0.0], [0.0, 5.0]])},
         "problem.matrix"),
        # each of these once ran to exit 0 and ignored a key: r won over
        # r_rule, consistency ignored its exponent, ex1 its path, the
        # geometric scheme its newton section and balanced and geometric
        # their tau
        ({"problem": dict(PROBLEM, r_rule={"type": "h_pow",
                                           "exponent": 0.5})},
         "problem.r_rule"),
        ({"problem": dict(NO_R, r_rule={"type": "consistency",
                                        "exponent": 0.5})},
         "problem.r_rule.exponent"),
        ({"initial": {"kind": "ex1", "path": "start.csv"}}, "initial.path"),
        ({"solver": {"kind": "geometric", "iters": 2},
          "newton": {"tol_abs": 1e-12}}, "newton"),
        ({"solver": {"kind": "balanced", "iters": 2, "tau": 0.5},
          "initial": {"kind": "ex2"}}, "solver.tau"),
        ({"solver": {"kind": "geometric", "iters": 2, "tau": 0.5}},
         "solver.tau"),
        # an unhashable type must not end in a traceback
        ({"problem": dict(NO_R, r_rule={"type": ["h_pow"]})}, "r_rule type"),
    ])
    def test_invalid_section_exits_1(self, tmp_path, capsys, sections, name):
        raw = {
            "problem": dict(PROBLEM),
            "solver": {"kind": "ipm", "iters": 2},
            "output": {"dir": str(tmp_path / "out")},
        }
        raw.update(sections)
        assert_rejected(tmp_path, capsys, raw, name)

    @pytest.mark.parametrize("kind", ["balanced", "geometric"])
    def test_residual_tol_of_other_schemes_exits_1(self, tmp_path, capsys,
                                                   kind):
        # these schemes have no residual stop test; a run once ignored it
        cfg = write_config(tmp_path / "tol.json", {
            "problem": {"kind": "plaplace", "shape": "square", "side": 2.0,
                        "h": 0.2, "r": 0.45, "p": 3.0},
            "solver": {"kind": kind, "iters": 2, "residual_tol": 0.5},
            "output": {"dir": str(tmp_path / "out")},
        })
        assert main(["run", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "solver.residual_tol" in err
        assert not (tmp_path / "out").exists()

    def test_unknown_r_rule_exits_1(self, tmp_path, capsys):
        # "r" sets a fixed radius; there is no r_rule type for it
        cfg = write_config(tmp_path / "fixed.json", {
            "problem": {"kind": "plaplace", "shape": "square", "side": 2.0,
                        "h": 0.2, "r_rule": {"type": "fixed", "value": 0.45},
                        "p": 3.0},
            "solver": {"kind": "ipm", "iters": 2},
            "output": {"dir": str(tmp_path / "out")},
        })
        assert main(["run", cfg]) == 1
        assert "unknown r_rule type 'fixed'" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("cg_max_iter", 0), ("cg_max_iter", -3), ("cg_tol", 0),
        ("cg_tol", 1.0), ("tol_abs", 0), ("max_iter", 0)])
    def test_out_of_range_newton_setting_exits_1(self, tmp_path, capsys, key,
                                                 value):
        # each cg_ row once ran to exit 0: a zero CG budget meant the
        # default, a negative one failed every solve, cg_tol 0 stalled.
        # CG's tolerance and budget are no longer keys, so these exit as
        # unknown keys
        cfg = write_config(tmp_path / "bad.json", {
            "problem": {"kind": "plaplace", "shape": "square", "side": 2.0,
                        "h": 0.2, "r": 0.45, "p": 3.0},
            "solver": {"kind": "balanced", "iters": 2},
            "newton": {key: value},
            "output": {"dir": str(tmp_path / "out")},
        })
        assert main(["run", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert ("unknown config key newton." + key in err) \
            == key.startswith("cg_")
        assert not (tmp_path / "out").exists()

    def test_non_finite_start_exits_1(self, tmp_path, capsys):
        # a NaN start once ran to "eigen residual undefined"
        vals = np.ones((11, 11))
        vals[5, 5] = np.nan
        np.savetxt(tmp_path / "start.csv", vals, delimiter=",")
        assert_rejected(tmp_path, capsys, {
            "problem": dict(PROBLEM),
            "initial": {"kind": "file", "path": str(tmp_path / "start.csv")},
            "solver": {"kind": "ipm", "iters": 2},
            "output": {"dir": str(tmp_path / "out")},
        }, "start.csv")

    def test_malformed_json_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        assert main(["run", str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["missing", "directory", "out-is-a-file"])
    def test_missing_file_exits_1(self, grid_config, tmp_path, capsys, case):
        # an OS error is one error line, not a traceback: the config does
        # not exist or is a directory (run and describe), or --out names a
        # file, where mkdir raises FileExistsError
        calls = {"missing": [["run", "/nonexistent/config.json"]],
                 "directory": [["run", str(tmp_path)],
                               ["describe", str(tmp_path)]],
                 "out-is-a-file": [["run", grid_config, "--out",
                                    grid_config]]}[case]
        for argv in calls:
            assert main(argv) == 1
            assert capsys.readouterr().err.startswith("error: ")

    def test_unknown_solver_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "bad2.json", {
            "problem": dict(PROBLEM),
            "solver": {"kind": "magic"},
        })
        assert main(["run", cfg]) == 1
        assert "solver.kind" in capsys.readouterr().err


class TestDescribe:
    def test_defaults_filled_into_copies(self):
        raw = {"problem": dict(PROBLEM), "solver": {"kind": "ipm"}}
        before = json.loads(json.dumps(raw))
        cfg = config.parse_config(raw)
        assert raw == before
        assert cfg.solver == {"kind": "ipm", "iters": 30}
        assert cfg.output == {"dir": "runs/latest", "snapshot_every": 0}
        assert cfg.initial == {"kind": "ex1"}

    def test_describe_grid(self, grid_config, capsys):
        assert main(["describe", grid_config]) == 0
        resolved = json.loads(capsys.readouterr().out)
        assert resolved["n_interior"] == 81
        assert resolved["stencil_offsets"] >= 4

    @pytest.mark.parametrize("kind", config.SOLVERS)
    def test_newton_echoed_only_where_read(self, kind, tmp_path, capsys):
        # the geometric polish runs under eigensolvers.POLISH, so a
        # geometric config has no Newton settings to echo
        solver = {"kind": kind, "iters": 2, **({"tau": 0.5} if kind == "ppm"
                                                else {})}
        cfg = write_config(tmp_path / "cfg.json",
                           {"problem": PROBLEM, "solver": solver})
        assert main(["describe", cfg]) == 0
        resolved = json.loads(capsys.readouterr().out)
        assert resolved.get("newton") == (
            None if kind == "geometric" else {"tol_abs": 1e-12,
                                              "max_iter": 500})

    def test_readme_lists_every_config_key(self):
        # a key added to the config tables without its line in README's
        # config list fails here
        readme = " ".join((ROOT / "README.md").read_text().split())
        listing = readme[readme.index("Each section holds only these keys"):
                         readme.index("A key outside this list")]
        keys = {key for allowed in config.KEYS.values() for key in allowed}
        keys |= {key for allowed in config.R_RULE_KEYS.values()
                 for key in allowed} | set(config.R_RULE_KEYS)
        missing = sorted(key for key in keys if f"`{key}`" not in listing)
        assert not missing, missing


class TestValidate:
    def test_quick_suite_passes(self, capsys):
        assert main(["validate"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(validation.QUICK_CHECKS)
        for line, (name, _, bound) in zip(lines, validation.QUICK_CHECKS):
            assert line.startswith(f"PASS  {name}: ")
            assert line.endswith(f" (<= {bound:g})")

    def test_failing_check_exits_2(self, monkeypatch, capsys):
        monkeypatch.setattr(validation, "QUICK_CHECKS",
                            [validation.QUICK_CHECKS[0],
                             ("broken-check", lambda: 1.0, 0.5),
                             ("nan-check", lambda: float("nan"), 1.0)])
        assert main(["validate"]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("PASS  euler-identity: ")
        assert lines[1] == "FAIL  broken-check: 1.00e+00 (<= 0.5)"
        assert lines[2] == "FAIL  nan-check: nan (<= 1)"

    def test_broken_energy_fails_under_optimize(self):
        # the checks must not be asserts, which `python -O` strips
        script = (
            "import sys\n"
            "from nonlin_eig import cli, plaplace\n"
            "energy = plaplace.PLaplaceInstance.dirichlet_energy\n"
            "plaplace.PLaplaceInstance.dirichlet_energy = "
            "lambda self, u: 2.0 * energy(self, u)\n"
            "sys.exit(cli.main(['validate']))\n")
        src = str(Path(nonlin_eig.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 2, proc.stderr
        assert "FAIL  euler-identity: " in proc.stdout

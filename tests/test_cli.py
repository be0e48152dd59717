import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nonlin_eig
from nonlin_eig import config, validation
from nonlin_eig.cli import main

ROOT = Path(__file__).resolve().parents[1]
PROBLEM = {"kind": "plaplace", "shape": "square", "side": 2.0, "h": 0.2,
           "r": 0.45, "p": 3.0}
NO_R = {k: v for k, v in PROBLEM.items() if k != "r"}  # a base for r_rule


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


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
        assert rows[0] == ["iter", "rq", "dual_rq", "cosim", "gap",
                           "residual", "inner_iters", "wall_time"]
        assert len(rows) == 41
        info = json.loads((out / "run.json").read_text())
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
        cells = [cell for row in rows for cell in row if cell]
        assert len(cells) == 5 * 8
        for cell in cells:
            float(cell)

    def test_geometric_run_names_winners(self, tmp_path):
        config = write_config(tmp_path / "geo.json", {
            "problem": {"kind": "plaplace", "shape": "square", "side": 2.0,
                        "h": 0.1, "r_rule": {"type": "h_pow",
                                             "exponent": 0.5}, "p": 5.0},
            "initial": {"kind": "ex2"},
            "solver": {"kind": "geometric", "iters": 25},
            "output": {"dir": str(tmp_path / "out_geo")},
        })
        assert main(["run", config]) == 0
        info = json.loads((tmp_path / "out_geo" / "run.json").read_text())
        assert info["extras"]["candidate"] == ["polish"]

    def test_balanced_run_reports_root_search(self, tmp_path):
        config = write_config(tmp_path / "bal.json", {
            "problem": {"kind": "plaplace", "shape": "square", "side": 2.0,
                        "h": 0.1, "r": 0.25, "p": 3.0},
            "initial": {"kind": "ex2"},
            "solver": {"kind": "balanced", "iters": 2},
            "output": {"dir": str(tmp_path / "out_bal")},
        })
        assert main(["run", config]) == 0
        extras = json.loads(
            (tmp_path / "out_bal" / "run.json").read_text())["extras"]
        assert extras["balance_solves"] == [12, 4]
        assert len(extras["balance_roots"]) == 2
        assert len(extras["balance_defects"]) == 2
        assert all(d <= 1e-6 for d in extras["balance_defects"])
        assert extras["failed_inner_solves"] == []
        assert len(extras["cg_iterations"]) == 2
        assert all(n > 0 for n in extras["cg_iterations"])
        assert extras["cg_unconverged"] == [0, 0]

    def test_grid_run_with_snapshots(self, grid_config, tmp_path):
        assert main(["run", grid_config]) == 0
        out = tmp_path / "out_grid"
        assert (out / "metrics.csv").exists()
        assert (out / "final.csv").exists()
        assert (out / "ipm_iter2.csv").exists()
        assert (out / "ipm_iter4.csv").exists()
        assert not (out / "ipm_iter3.csv").exists()
        info = json.loads((out / "run.json").read_text())
        echoed = info["config"]
        assert echoed["epsilon"] == 1e-9
        assert echoed["d2p"] > 0.0
        assert echoed["r"] == 0.45
        assert echoed["nx"] == 11
        extras = info["extras"]
        assert len(extras["cg_iterations"]) == 5
        assert all(n > 0 for n in extras["cg_iterations"])
        assert extras["cg_unconverged"] == [0] * 5

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
        ipm = json.loads((tmp_path / "out_grid" / "run.json").read_text())
        with open(tmp_path / "out_ppm" / "metrics.csv", newline="") as f:
            first = next(csv.DictReader(f))
        # the run starts from the IPM run's final iterate
        assert float(first["rq"]) == pytest.approx(ipm["final_lambda"],
                                                   rel=1e-12)
        extras = json.loads(
            (tmp_path / "out_ppm" / "run.json").read_text())["extras"]
        assert extras["recovery_converged"] is True
        assert np.isfinite(extras["lambda_recovered"])

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
        ("cg_tol", 1.0)])
    def test_out_of_range_newton_setting_exits_1(self, tmp_path, capsys, key,
                                                 value):
        # each of these once ran to exit 0: a zero CG budget meant the
        # default, a negative one failed every solve, cg_tol 0 stalled
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
        assert not (tmp_path / "out").exists()

    def test_malformed_json_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        assert main(["run", str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file_exits_1(self, capsys):
        assert main(["run", "/nonexistent/config.json"]) == 1

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

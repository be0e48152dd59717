import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nonlin_eig
from nonlin_eig import validation
from nonlin_eig.cli import main


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def spd_config(tmp_path):
    return write_config(tmp_path / "spd.json", {
        "problem": {"kind": "spd", "matrix": [[2.0, 0.0], [0.0, 5.0]]},
        "initial": {"kind": "ex1", "vector": [1.0, 1.0]},
        "solver": {"kind": "ipm", "iters": 20},
        "output": {"dir": str(tmp_path / "out_spd")},
    })


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
    def test_spd_run(self, spd_config, tmp_path, capsys):
        assert main(["run", spd_config]) == 0
        out = tmp_path / "out_spd"
        with open(out / "metrics.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["iter", "rq", "dual_rq", "cosim", "gap",
                           "residual", "inner_iters", "wall_time"]
        assert len(rows) == 21
        info = json.loads((out / "run.json").read_text())
        assert info["solver_tag"] == "ipm"
        assert abs(info["final_lambda"] - 2.0) <= 1e-8
        final = np.loadtxt(out / "final.csv", delimiter=",")
        assert final.shape == (2,)

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

    def test_out_override(self, spd_config, tmp_path):
        other = tmp_path / "elsewhere"
        assert main(["run", spd_config, "--out", str(other)]) == 0
        assert (other / "metrics.csv").exists()

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
    ])
    def test_invalid_value_exits_1(self, tmp_path, capsys, section, key, value):
        raw = {
            "problem": {"kind": "plaplace", "shape": "square", "side": 2.0,
                        "h": 0.2, "r": 0.45, "p": 3.0},
            "solver": {"kind": "ipm", "iters": 2},
            "newton": {},
            "output": {"dir": str(tmp_path / "out")},
        }
        raw[section][key] = value
        cfg = write_config(tmp_path / "bad.json", raw)
        assert main(["run", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{section}.{key}" in err

    def test_malformed_json_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        assert main(["run", str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file_exits_1(self, capsys):
        assert main(["run", "/nonexistent/config.json"]) == 1

    def test_unknown_solver_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "bad2.json", {
            "problem": {"kind": "spd", "matrix": [[1.0]]},
            "solver": {"kind": "magic"},
        })
        assert main(["run", cfg]) == 1


class TestDescribe:
    def test_describe_grid(self, grid_config, capsys):
        assert main(["describe", grid_config]) == 0
        resolved = json.loads(capsys.readouterr().out)
        assert resolved["n_interior"] == 81
        assert resolved["stencil_offsets"] >= 4

    def test_describe_spd(self, spd_config, capsys):
        assert main(["describe", spd_config]) == 0
        resolved = json.loads(capsys.readouterr().out)
        assert resolved["n"] == 2


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

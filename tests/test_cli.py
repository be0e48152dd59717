import csv
import json

import numpy as np
import pytest

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

    def test_invalid_p_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "bad.json", {
            "problem": {"kind": "plaplace", "shape": "square", "side": 2.0,
                        "h": 0.2, "r": 0.45, "p": 0.5},
            "solver": {"kind": "ipm"},
        })
        assert main(["run", cfg]) == 1
        assert "error" in capsys.readouterr().err

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
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS  ") == len(validation.QUICK_CHECKS)

    def test_failing_check_exits_2(self, monkeypatch, capsys):
        def broken():
            raise AssertionError("deliberately broken")

        monkeypatch.setattr(validation, "QUICK_CHECKS",
                            [validation.QUICK_CHECKS[0],
                             ("broken-check", broken)])
        assert main(["validate"]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("PASS  ")
        assert lines[1] == "FAIL  broken-check: deliberately broken"

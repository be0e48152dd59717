import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location(
    "bench_pair", ROOT / "tools" / "bench_pair.py")
bench_pair = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pair)

END_TO_END = [m["name"] for m in json.loads(
    (ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


def result_file(commit, metrics, correct=True):
    """A results file as perfbench/run.py writes it, reduced to what the
    summary reads; metrics maps a name to (value, unit)."""
    return {"environment": {"git_commit": commit, "python": "3.11.7"},
            "result": {"correct": correct, "attempted": 3, "failed": 0,
                       "metrics": {k: {"value": v, "unit": u}
                                   for k, (v, u) in metrics.items()}}}


def write_tree(out, commit, run_s, workloads=("ex1", "geo"), steps=22,
               correct=True):
    """A perfbench/out tree: seeds 1-3 untraced, run_s[seed - 1] seconds
    each, and the traced seed 0."""
    for workload in workloads:
        d = out / workload
        d.mkdir(parents=True)
        for seed, t in enumerate(run_s, start=1):
            values = {"run_s": (t, "s"), "setup_s": (0.002, "s"),
                      "peak_rss_mb": (100.0 + seed, "MB"),
                      "final_residual": (1e-5, "1")}
            (d / f"seed{seed}-trace0.json").write_text(json.dumps(
                result_file(commit, values, correct or seed != 2)))
        (d / "seed0-trace1.json").write_text(json.dumps(result_file(
            commit, {"newton.steps": (steps, "count"),
                     "newton.step_accept_ratio": (0.5, "1"),
                     "newton.cg.s": (0.1, "s")})))


def run(tmp_path, capsys, change_kwargs=None):
    write_tree(tmp_path / "a", "c92117c7aaf14f", [0.30, 0.20, 0.40])
    write_tree(tmp_path / "b", "0123456789abcd", [0.25, 0.20, 0.45],
               **(change_kwargs or {}))
    status = bench_pair.main([str(tmp_path / "a"), str(tmp_path / "b"),
                              "--out", str(tmp_path)])
    return status, capsys.readouterr()


def test_summary_of_two_synthetic_trees(tmp_path, capsys):
    status, out = run(tmp_path, capsys, {"steps": 20})
    assert status == 0
    path = tmp_path / "BENCH_c92117c-0123456.json"
    assert out.out.strip() == str(path)
    summary = json.loads(path.read_text())
    assert (summary["parent"], summary["change"]) == ("c92117c", "0123456")
    ex1 = summary["workloads"]["ex1"]
    assert ex1["seeds"] == [1, 2, 3]
    assert list(ex1["end_to_end"]) == END_TO_END
    run_s = ex1["end_to_end"]["run_s"]
    assert (run_s["unit"], run_s["better"]) == ("s", "lower")
    assert run_s["parent"] == {"median": 0.30, "q1": 0.25, "q3": 0.35}
    assert run_s["change"] == {"median": 0.25,
                               "q1": pytest.approx(0.225),
                               "q3": pytest.approx(0.35)}
    assert (run_s["wins"], run_s["losses"], run_s["ties"]) \
        == ([1], [3], [2])
    assert ex1["end_to_end"]["peak_rss_mb"]["ties"] == [1, 2, 3]
    # the traced values in seconds are left out, counts and ratios kept
    assert ex1["traced_seed0"] == {
        "parent": {"newton.steps": 22, "newton.step_accept_ratio": 0.5},
        "change": {"newton.steps": 20, "newton.step_accept_ratio": 0.5}}
    assert ex1["environment"]["change"]["git_commit"] == "0123456789abcd"


def test_sides_without_a_commit_are_named_parent_and_change(tmp_path):
    write_tree(tmp_path / "a", None, [0.3])
    write_tree(tmp_path / "b", None, [0.3])
    assert bench_pair.main([str(tmp_path / "a"), str(tmp_path / "b"),
                            "--out", str(tmp_path)]) == 0
    assert (tmp_path / "BENCH_parent-change.json").is_file()


@pytest.mark.parametrize("change_kwargs,message", [
    ({"workloads": ("ex1",)}, "workloads on one side only: ['geo']"),
    ({"correct": False}, "seed2-trace0.json: result is not correct"),
], ids=["missing-workload", "incorrect"])
def test_unpaired_or_incorrect_exits_1(tmp_path, capsys, change_kwargs,
                                       message):
    status, out = run(tmp_path, capsys, change_kwargs)
    assert status == 1 and message in out.err
    assert not list(tmp_path.glob("BENCH_*.json"))


def test_missing_seed_exits_1(tmp_path, capsys):
    write_tree(tmp_path / "a", "c92117c", [0.3, 0.2])
    write_tree(tmp_path / "b", "0123456", [0.3, 0.2, 0.1])
    status = bench_pair.main([str(tmp_path / "a"), str(tmp_path / "b"),
                              "--out", str(tmp_path)])
    assert status == 1
    assert "files on one side only: ['seed3-trace0.json']" \
        in capsys.readouterr().err

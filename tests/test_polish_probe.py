import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location(
    "polish_probe", ROOT / "tools" / "polish_probe.py")
polish_probe = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(polish_probe)


def probe_run(p, lam, winners, cg=10, far_field=()):
    return {"p": p, "lambda": lam, "winners": winners,
            "records": len(winners) + 1, "stop_reason": "stalled",
            "final_residual": 0.5, "cg_iterations": cg,
            "far_field": list(far_field), "seconds": 0.25}


PARENT = {
    "square h=0.1 p=3 ex1": probe_run(3.0, 869.5, "pss"),
    "square h=0.1 p=4 ex2": probe_run(4.0, 7371.25, "ppss", cg=40),
    "lshape h=0.1 p=1.5 ex2": probe_run(1.5, 10.25, "ss"),
}


def compare(tmp_path, capsys, change):
    for name, runs in (("parent", PARENT), ("change", change)):
        (tmp_path / f"{name}.json").write_text(json.dumps(runs))
    status = polish_probe.main(["compare", str(tmp_path / "parent.json"),
                                str(tmp_path / "change.json")])
    return status, capsys.readouterr().out


def test_compare_lists_changed_runs_and_exits_0(tmp_path, capsys):
    # a p <= 2 run that changed and a near-field polish change are listed,
    # not judged: compare exits 0 when both files hold the same runs
    change = dict(PARENT)
    change["square h=0.1 p=4 ex2"] = probe_run(4.0, 7371.5, "pspss", cg=30,
                                               far_field=[2])
    change["lshape h=0.1 p=1.5 ex2"] = probe_run(1.5, 10.5, "ss")
    status, out = compare(tmp_path, capsys, change)
    assert status == 0
    assert "3 runs: 1 bit-identical, 2 changed; CG iterations 60 → 50" in out
    assert "changed: square h=0.1 p=4 ex2, first changed winner at step 1" \
        in out
    assert "changed: lshape h=0.1 p=1.5 ex2, first changed winner at no " \
        "step" in out
    assert "| square h=0.1 p=4 ex2 | 7371.25 → 7371.5 | 3.4e-05 | " \
        "ppss → pspss |" in out


def test_compare_exits_1_on_a_missing_run(tmp_path, capsys):
    change = {k: v for k, v in PARENT.items() if "lshape" not in k}
    status, out = compare(tmp_path, capsys, change)
    assert status == 1
    assert "missing from change: lshape h=0.1 p=1.5 ex2" in out
    assert "3 runs: 2 bit-identical, 0 changed" in out

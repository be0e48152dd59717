"""Summary of one benchmark pairing, parent against change, as one JSON file.

    python tools/bench_pair.py PARENT_OUT CHANGE_OUT [--out DIR]

PARENT_OUT and CHANGE_OUT are the perfbench/out trees of the two
checkouts, each holding <workload>/seed<N>-trace0.json for the untraced
seeds and <workload>/seed0-trace1.json for the traced seed 0, as
perfbench/run.py writes them.  The file DIR/BENCH_<parent>-<change>.json
(DIR defaults to the current directory) names each side by the first 7
characters of the git commit in its environment blocks, or "parent" and
"change" where they hold none or disagree.  Per workload it holds:
  - for each end-to-end metric of BENCHMARK.json, with its unit and
    direction, each side's median and quartiles over the seeds, and the
    seeds where the change is better (wins), worse (losses) or equal (ties);
  - each side's traced seed-0 values whose unit is not "s": work counts
    and ratios, which repeat exactly;
  - each side's environment block, from its traced run.
It exits 1, writing nothing, if neither side holds a result, if a
workload or a file is on one side only, if a workload has no traced
seed-0 file, or if a file's result is not correct.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RESULT = re.compile(r"seed(\d+)-trace([01])\.json")
SIDES = ("parent", "change")


class PairingError(Exception):
    pass


def read_tree(out: Path) -> dict:
    """{workload: {file name: record}} of one perfbench/out tree."""
    tree = {}
    for path in sorted(out.glob("*/seed*-trace*.json")):
        if RESULT.fullmatch(path.name):
            record = json.loads(path.read_text())
            if not record["result"]["correct"]:
                raise PairingError(f"{path}: result is not correct")
            tree.setdefault(path.parent.name, {})[path.name] = record
    return tree


def label(side: str, tree: dict) -> str:
    commits = {r["environment"].get("git_commit")
               for files in tree.values() for r in files.values()}
    commit = commits.pop() if len(commits) == 1 else None
    return commit[:7] if commit else side


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method; one value is all three)."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3}


def summarize(parent: dict, change: dict, end_to_end: list[dict]) -> dict:
    """The per-workload summary of two trees read by read_tree."""
    if not parent and not change:
        raise PairingError("no results on either side")
    if parent.keys() != change.keys():
        raise PairingError("workloads on one side only: "
                           f"{sorted(parent.keys() ^ change.keys())}")
    out = {}
    for workload in sorted(parent):
        files = parent[workload], change[workload]
        if files[0].keys() != files[1].keys():
            raise PairingError(f"{workload}: files on one side only: "
                               f"{sorted(files[0].keys() ^ files[1].keys())}")
        if "seed0-trace1.json" not in files[0]:
            raise PairingError(f"{workload}: no seed0-trace1.json")
        seeds = sorted(int(RESULT.fullmatch(name)[1]) for name in files[0]
                       if name.endswith("-trace0.json"))
        metrics = {}
        for spec in end_to_end:
            name, lower = spec["name"], spec["better"] == "lower"
            values = [[side[f"seed{s}-trace0.json"]["result"]["metrics"]
                       [name]["value"] for s in seeds] for side in files]
            entry = {"unit": spec["unit"], "better": spec["better"],
                     "wins": [], "losses": [], "ties": []}
            for side, vals in zip(SIDES, values):
                entry[side] = spread(vals)
            for s, a, b in zip(seeds, *values):
                key = "ties" if a == b else \
                    "wins" if (b < a) == lower else "losses"
                entry[key].append(s)
            metrics[name] = entry
        traced = [side["seed0-trace1.json"] for side in files]
        out[workload] = {
            "seeds": seeds,
            "end_to_end": metrics,
            "traced_seed0": {
                side: {k: m["value"]
                       for k, m in r["result"]["metrics"].items()
                       if m["unit"] != "s"}
                for side, r in zip(SIDES, traced)},
            "environment": {side: r["environment"]
                            for side, r in zip(SIDES, traced)},
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, default=Path("."))
    args = parser.parse_args(argv)
    end_to_end = json.loads(
        (ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    try:
        trees = [read_tree(out) for out in (args.parent, args.change)]
        workloads = summarize(*trees, end_to_end)
    except PairingError as e:
        print(f"bench_pair: {e}", file=sys.stderr)
        return 1
    names = [label(side, tree) for side, tree in zip(SIDES, trees)]
    path = args.out / f"BENCH_{names[0]}-{names[1]}.json"
    path.write_text(json.dumps(
        {"parent": names[0], "change": names[1], "workloads": workloads},
        indent=1))
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())

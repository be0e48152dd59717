"""Check that two traced runs of the same inputs give identical work counts.

    python3 perfbench/repeat_check.py [--seed N] [--seconds S] [WORKLOAD ...]

Runs `perfbench/run.py --trace 1` twice per workload (all of them by
default) with one seed, each in its own process, and compares every
per-layer metric whose unit is not seconds.  Exits 1 on any difference.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def traced_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, check=True,
        timeout=600)
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=1)
    args = parser.parse_args()
    ok = True
    for workload in args.workloads:
        first, second = (traced_run(workload, args.seed, args.seconds)
                         for _ in range(2))
        diffs = [f"{k}: {first[k]['value']} != {second[k]['value']}"
                 for k in first if first[k]["unit"] != "s"
                 and first[k]["value"] != second[k]["value"]]
        counted = sum(1 for k in first if first[k]["unit"] != "s")
        print(f"{workload}: {counted} counts, "
              f"{'identical' if not diffs else 'DIFFERENT'}")
        for d in diffs:
            print(f"  {d}")
        ok = ok and not diffs
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

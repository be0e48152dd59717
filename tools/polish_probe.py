"""Probe of the geometric scheme's polish: 72 run_geometric runs, parent
against change.

    python tools/polish_probe.py run OUT.json
    python tools/polish_probe.py compare PARENT.json CHANGE.json

`run` imports nonlin_eig from the path Python finds it on, so set
PYTHONPATH to the `src/` of the checkout to probe.  Each run is 25 steps
of run_geometric with r = sqrt(h) on the square and the L-shape from the
ex1 and ex2 starts, over
  - h in {2/18, 0.04}, p in {3, 4, 5}: 24 runs;
  - h in {2/18, 0.1, 0.04}, p in {1.5, 2, 2.5}: 36 runs;
  - h = 0.1, p in {3, 4, 5}: 12 runs, the grids of the pinned trajectories.
It writes, per run, the final lambda, the winners, the record count, the
stop reason, the final eigen-residual, the CG iterations, the steps whose
polish stopped in the far field (extras["far_field"], empty where the
scheme has no such list) and the wall time.

`compare` prints one row per run with the parent's value, then the
change's where it differs, and a summary: how many runs are bit-identical,
the CG iterations and wall time summed over each file, and each changed
run with the step of its first changed winner.  It does not judge which
changes are wanted: it exits 1 only if a run is missing from one of the
two files.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

CASES = ([(h, p) for h in (2.0 / 18, 0.04) for p in (3.0, 4.0, 5.0)]
         + [(h, p) for h in (2.0 / 18, 0.1, 0.04) for p in (1.5, 2.0, 2.5)]
         + [(0.1, p) for p in (3.0, 4.0, 5.0)])
SHAPES, STARTS, ITERS = ("square", "lshape"), ("ex1", "ex2"), 25


def run_id(shape, h, p, start):
    return f"{shape} h={h:.4g} p={p:g} {start}"


def probe_one(shape, h, p, start):
    from nonlin_eig import metrics
    from nonlin_eig.eigensolvers import run_geometric
    from nonlin_eig.grid import build_domain, eval_initial_guess
    from nonlin_eig.plaplace import PLaplaceInstance

    dom = build_domain(shape, 2.0, h)
    inst = PLaplaceInstance(dom, h ** 0.5, p)
    u0 = eval_initial_guess(start, dom).values
    t0 = time.perf_counter()
    trace = run_geometric(inst, u0, ITERS)
    seconds = time.perf_counter() - t0
    return {
        "p": p,
        "lambda": trace.final_lambda,
        "winners": "".join(c[0] for c in trace.extras["candidate"]),
        "records": len(trace.records),
        "stop_reason": trace.stop_reason,
        "final_residual": metrics.eigen_residual(inst, trace.final_u),
        "cg_iterations": sum(r.inner.cg_iterations_total
                             for r in trace.records),
        "far_field": trace.extras.get("far_field", []),
        "seconds": seconds,
    }


def cmd_run(args) -> int:
    out = {}
    for h, p in CASES:
        for shape in SHAPES:
            for start in STARTS:
                key = run_id(shape, h, p, start)
                out[key] = probe_one(shape, h, p, start)
                print(f"{key}: {out[key]['winners'] or '-'} "
                      f"{out[key]['seconds']:.2f} s", file=sys.stderr)
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1)
    return 0


OUTPUT = ("lambda", "winners", "records", "stop_reason", "final_residual")


def first_changed_winner(old, new):
    """The step of the first winner that differs, None if none does."""
    a, b = old["winners"], new["winners"]
    if a == b:
        return None
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
                min(len(a), len(b)))


def cmd_compare(args) -> int:
    with open(args.parent) as f:
        parent = json.load(f)
    with open(args.change) as f:
        change = json.load(f)
    print("| run | lambda | rel. change | winners | records | residual "
          "| CG iterations | far field |")
    print("|---|---|---|---|---|---|---|---|")
    same, changed = 0, []
    for key, old in parent.items():
        if key not in change:
            continue
        new = change[key]

        def cell(name, fmt="{}"):
            a, b = fmt.format(old[name]), fmt.format(new[name])
            return a if a == b else f"{a} → {b}"

        identical = all(old[k] == new[k] for k in OUTPUT)
        rel = abs(new["lambda"] - old["lambda"]) / abs(old["lambda"])
        print(f"| {key} | {cell('lambda', '{!r}')} | "
              f"{'same' if identical else f'{rel:.1e}'} | "
              f"{cell('winners')} | {cell('records')} | "
              f"{cell('final_residual', '{:.6g}')} | "
              f"{cell('cg_iterations')} | {new['far_field']} |")
        if identical:
            same += 1
        else:
            changed.append((key, first_changed_winner(old, new)))
    total = sum(r["cg_iterations"] for r in parent.values()), \
        sum(r["cg_iterations"] for r in change.values())
    seconds = sum(r["seconds"] for r in parent.values()), \
        sum(r["seconds"] for r in change.values())
    print(f"\n{len(parent)} runs: {same} bit-identical, {len(changed)} "
          f"changed; CG iterations {total[0]} → {total[1]}; "
          f"time {seconds[0]:.1f} → {seconds[1]:.1f} s")
    for key, k in changed:
        print(f"changed: {key}, first changed winner at "
              f"{'no step' if k is None else f'step {k}'}")
    missing = sorted(parent.keys() ^ change.keys())
    for key in missing:
        print(f"missing from {'change' if key in parent else 'parent'}: "
              f"{key}")
    return 1 if missing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run the probe, write JSON")
    p_run.add_argument("out")
    p_run.set_defaults(fn=cmd_run)
    p_cmp = sub.add_parser("compare", help="table of two probe files")
    p_cmp.add_argument("parent")
    p_cmp.add_argument("change")
    p_cmp.set_defaults(fn=cmd_compare)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the nonlin-eig solvers, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Imports the package from ./src, writes the workload's inputs from the
seed, then repeats the workload (config to output) for about S seconds and
checks every repetition's output.  --trace 0 reports the end-to-end metrics
of untraced repetitions; --trace 1 alternates traced and untraced
repetitions and reports the per-layer metrics of the traced ones together
with the tracing overhead.  The last line of standard output is one JSON
object; a results file with the environment block and every repetition is
written under perfbench/out/.
"""

import os

# Pin the BLAS thread count before NumPy is loaded: one thread keeps the
# order of every reduction fixed, so CG iteration counts repeat exactly.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Set-up takes milliseconds, while the host's speed changes over seconds.
# It is timed back to back for SETUP_WINDOW_S before the repetitions and
# again after them; setup_s is the median of all those samples.
SETUP_WINDOW_S = 1.0

# On a host whose CPUs are shared with other machines, one CPU can run at
# half the speed of another for seconds at a time, and a single-threaded
# process stays on whichever CPU it started on.  While measuring, the main
# thread is moved to the next allowed CPU every ROTATE_S, so that each
# measurement sees the average speed of the CPUs rather than one of them.
ROTATE_S = 0.05

END_TO_END = {
    "run_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "final_residual": ("1", "lower"),
}
TRACE_TOTALS = {
    "trace.run_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def import_package():
    """Import nonlin_eig from this checkout's src/, and nowhere else."""
    if not (SRC / "nonlin_eig" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SRC}/nonlin_eig")
    sys.path.insert(0, str(SRC))
    import nonlin_eig
    if not Path(nonlin_eig.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: nonlin_eig imported from "
                         f"{nonlin_eig.__file__}, not from {SRC}")


def environment() -> dict:
    import numpy
    import scipy
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


@dataclass
class Repetition:
    traced: bool
    seconds: float
    final_residual: float
    lambdas: dict
    failures: list
    layers: dict | None = None


def repetition(workload, config_path, pair, traced):
    import tracer
    import workloads
    patches = tracer.Patches()
    trace = tracer.Tracer() if traced else None
    try:
        if trace is not None:
            trace.install(patches)
        t0 = time.perf_counter()
        result = workloads.run(workload, config_path)
        seconds = time.perf_counter() - t0
    finally:
        patches.restore()
    outputs, residual, failures = workloads.check(workload, result, pair)
    layers = trace.summary() if trace is not None else None
    return Repetition(traced, seconds, residual, outputs.lambdas, failures,
                      layers)


class CpuRotation:
    """Context manager that moves the calling thread round the CPUs it may
    run on, one every ROTATE_S, and restores its affinity on exit."""

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.tid = threading.get_native_id()
        self.stop = threading.Event()
        self.thread = threading.Thread(target=self._rotate, daemon=True)

    def _rotate(self):
        i = 0
        while not self.stop.wait(ROTATE_S):
            i += 1
            os.sched_setaffinity(self.tid, {self.cpus[i % len(self.cpus)]})

    def __enter__(self):
        if len(self.cpus) > 1:
            self.thread.start()
        return self

    def __exit__(self, *exc):
        self.stop.set()
        if self.thread.is_alive():
            self.thread.join()
        os.sched_setaffinity(self.tid, self.cpus)


def time_setup(config_path, window) -> list[float]:
    import workloads
    times = []
    end = time.perf_counter() + window
    while not times or time.perf_counter() < end:
        t0 = time.perf_counter()
        workloads.setup(config_path)
        times.append(time.perf_counter() - t0)
    return times


def measure(seconds, traced_mode, run_one) -> list[Repetition]:
    """Repeat until the next repetition would end after `seconds`; at least
    one untraced repetition, and with traced_mode one traced repetition,
    run first and alternating with the untraced ones."""
    kinds = (True, False) if traced_mode else (False,)
    reps: list[Repetition] = []
    start = time.perf_counter()
    for i in itertools.count():
        traced = kinds[i % len(kinds)]
        if i >= len(kinds):
            same = [r.seconds for r in reps if r.traced == traced]
            if time.perf_counter() - start + statistics.median(same) \
                    > seconds:
                break
        reps.append(run_one(traced))
    return reps


def layer_metrics(traced: list[Repetition], untraced: list[Repetition],
                  units: dict) -> tuple[dict, list[str]]:
    """Per-layer values of the traced repetitions: the median of each time,
    and every other value, which must repeat exactly between them."""
    out, failures = {}, []
    for name in units:
        if name in TRACE_TOTALS:
            continue
        values = [r.layers[name] for r in traced]
        if units[name][0] == "s":
            out[name] = statistics.median(values)
        else:
            out[name] = values[0]
            if any(v != values[0] for v in values):
                failures.append(f"{name} differs between traced "
                                f"repetitions: {values}")
    t_run = statistics.median(r.seconds for r in traced)
    out["trace.run_s"] = t_run
    out["trace.overhead_s"] = t_run - statistics.median(
        r.seconds for r in untraced)
    return out, failures


def declared_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    import_package()
    import tracer
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    units = dict(END_TO_END) if not args.trace \
        else {**tracer.LAYER_METRICS, **TRACE_TOTALS}
    if declared_metrics(bool(args.trace)) != units:
        raise SystemExit("perfbench: metrics differ from BENCHMARK.json")

    workload = workloads.WORKLOADS[args.workload]
    out_dir = HERE / "out" / workload.name
    out_dir.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=out_dir))
    try:
        config_path = workloads.write_inputs(workload, ROOT, args.seed, work)
        pair = workloads.setup(config_path)[0]
        with CpuRotation():
            setup_times = time_setup(config_path, SETUP_WINDOW_S)
            reps = measure(args.seconds, bool(args.trace),
                           lambda traced: repetition(workload, config_path,
                                                     pair, traced))
            setup_times += time_setup(config_path, SETUP_WINDOW_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [r for r in reps if not r.traced]
    if args.trace:
        traced = [r for r in reps if r.traced]
        values, repeat_failures = layer_metrics(traced, untraced, units)
        traced[-1].failures += repeat_failures
    else:
        values = {
            "run_s": statistics.median(r.seconds for r in untraced),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "final_residual": statistics.median(
                r.final_residual for r in untraced),
        }
    failures = [f for r in reps for f in r.failures]
    failed = sum(1 for r in reps if r.failures)
    not_gated = {"fail_rate": failed / len(reps)}
    if args.trace:
        solves = values["newton.solves"]
        not_gated["inner_unconverged_frac"] = (
            values["newton.unconverged"] / solves if solves else 0.0)
    result = {
        "correct": not failures,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k][0]}
                    for k in units},
    }
    record = {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment(),
        "setup_samples": len(setup_times),
        "repetitions": [vars(r) for r in reps],
        "not_gated": not_gated,
        "failures": failures,
        "result": result,
    }
    stem = f"seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))

    print(f"workload {workload.name}  seed {args.seed}  "
          f"repetitions {len(reps)}  "
          f"(traced {sum(r.traced for r in reps)})")
    for k in units:
        print(f"  {k:40s} {values[k]:.6g} {units[k][0]}")
    for k, v in not_gated.items():
        print(f"  {k:40s} {v:.6g}  (reported, not gated)")
    for f in failures:
        print(f"  CHECK FAILED: {f}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

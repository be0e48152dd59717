"""The benchmark's tracer (perfbench/tracer.py) wraps the package's entry
points by name and stops a traced run when one is missing, so a rename is
caught here rather than by the benchmark."""

import importlib.util
from pathlib import Path

from nonlin_eig import eigensolvers, metrics

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_wraps_and_restores_entry_points():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    run_ipm, eigen_residual = eigensolvers.run_ipm, metrics.eigen_residual
    patches = tracer.Patches()
    try:
        tracer.Tracer().install(patches)
        assert eigensolvers.run_ipm is not run_ipm
        assert metrics.eigen_residual is not eigen_residual
    finally:
        patches.restore()
    assert eigensolvers.run_ipm is run_ipm
    assert metrics.eigen_residual is eigen_residual

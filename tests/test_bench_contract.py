"""The benchmark's traced run finds resflow functions by name, and counts work.

``perfbench/tracing.py`` installs its span wrappers by looking up
``owner.__dict__[attr]`` for every entry of ``wrap_targets()``; a renamed or
moved function would make ``perfbench/run.py --selftest`` raise KeyError.
This test reads the same list, without changing it, so the suite catches
the rename first.  It also runs the traced workloads at their tiny self-test
sizes and pins the work counts that do not depend on floating-point
convergence, so a refactor that adds or drops chain steps shows up here.
"""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"

# (train, estimator_eval) per op at seed 7, SMOKE sizes
PINNED_COUNTS = {
    "blocks.jvp.rows": (0.0, 4193 / 6),
    "blocks.vjp.rows": (566 / 3, 0.0),
    "blocks.forward.calls": (0.0, 0.0),
    "logdet.terms_mean": (379 / 96, 4193 / 96),
    "logdet.terms_max": (12.0, 52.0),
    "norms.pi_iters": (64 / 3, 0.0),
}


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their module through sys.modules while executing
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_wrapped_name_resolves():
    targets = load_tracing().wrap_targets()
    assert targets
    missing = [
        f"{getattr(owner, '__module__', '')}.{owner.__name__}.{attr} ({span})"
        for owner, attr, span, _ in targets
        if attr not in owner.__dict__
    ]
    assert not missing, f"wrapped names no longer defined: {missing}"


@pytest.fixture(scope="module")
def traced_counts():
    """Count metrics of one traced SMOKE run per workload (about 0.1 s each)."""
    # importing run.py pins BLAS threads in os.environ; later tests see the old values
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    saved_env = {k: os.environ.get(k) for k in thread_vars}
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
        from workloads import SMOKE

        results = {
            name: run.run_workload(name, 7, 0.05, 1, SMOKE)
            for name in ("train", "estimator_eval")
        }
    finally:
        sys.path.remove(str(PERFBENCH))
        for name in ("tracing", "workloads"):
            sys.modules.pop(name, None)
        for key, value in saved_env.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    return {name: {k: m["value"] for k, m in r["metrics"].items()} for name, r in results.items()}


@pytest.mark.parametrize("metric", sorted(PINNED_COUNTS))
def test_traced_work_counts_are_pinned(traced_counts, metric):
    got = (traced_counts["train"][metric], traced_counts["estimator_eval"][metric])
    assert got == PINNED_COUNTS[metric]

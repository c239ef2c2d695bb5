"""The benchmark's own self-test: ``python3 perfbench/run.py --selftest``.

Runs every workload at the tiny ``SMOKE`` sizes, untraced and traced, and
checks that:

* ``BENCHMARK.json`` names the same workloads and metrics, with the same
  units, as the code;
* every named metric appears with its unit, and every op passes its check;
* the traced count metrics and the input hash repeat exactly for a fixed
  seed, and change nothing when the run is longer;
* a deliberately corrupted output is counted as a failed op.
"""

from __future__ import annotations

import json

from tracing import COUNT_METRICS, LAYER_METRICS
from workloads import SMOKE, WORKLOADS

SEED = 7


class SelfTestError(AssertionError):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestError(message)


def _check_spec(spec_path, e2e_metrics) -> None:
    spec = json.loads(spec_path.read_text())
    _require(
        [w["name"] for w in spec["workloads"]] == list(WORKLOADS),
        "BENCHMARK.json workloads differ from workloads.WORKLOADS",
    )
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    _require(e2e == dict(e2e_metrics), "BENCHMARK.json end_to_end differs from run.E2E_METRICS")
    layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    _require(
        layers == {m.name: (m.unit, m.better) for m in LAYER_METRICS},
        "BENCHMARK.json per_layer differs from tracing.LAYER_METRICS",
    )


def _check_metrics(result: dict, expected: dict, what: str) -> None:
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    _require(got == expected, f"{what}: metrics {sorted(got)} != {sorted(expected)}")
    _require(result["attempted"] >= 1, f"{what}: no ops attempted")
    _require(result["correct"] and result["failed"] == 0, f"{what}: {result['failed']} ops failed")


def selftest(run_workload, spec_path, e2e_metrics) -> int:
    _check_spec(spec_path, e2e_metrics)
    e2e_units = dict(e2e_metrics)
    layer_units = {m.name: m.unit for m in LAYER_METRICS}
    for name in WORKLOADS:
        plain = run_workload(name, SEED, 0.05, 0, SMOKE)
        _check_metrics(plain, e2e_units, f"{name} untraced")
        _require(plain["metrics"]["ok_frac"]["value"] == 1.0, f"{name}: ok_frac below 1")

        short = run_workload(name, SEED, 0.05, 1, SMOKE)
        longer = run_workload(name, SEED, 0.5, 1, SMOKE)
        for traced in (short, longer):
            _check_metrics(traced, layer_units, f"{name} traced")
        _require(
            short["extra"]["count_metrics"] == longer["extra"]["count_metrics"],
            f"{name}: count metrics differ between runs of one seed: "
            f"{short['extra']['count_metrics']} vs {longer['extra']['count_metrics']}",
        )
        _require(
            short["info"]["input_sha256"] == plain["info"]["input_sha256"],
            f"{name}: input hash differs between runs of one seed",
        )
        moved = [k for k in COUNT_METRICS if short["metrics"][k]["value"] > 0]
        print(f"selftest {name}: ok; non-zero counts: {', '.join(moved) or 'none'}")

        corrupted = run_workload(name, SEED, 0.05, 0, SMOKE, corrupt_op=0)
        _require(
            corrupted["failed"] == 1 and not corrupted["correct"],
            f"{name}: a corrupted output was not counted as failed",
        )
        expected_ok = 1.0 - 1.0 / corrupted["attempted"]
        _require(
            abs(corrupted["metrics"]["ok_frac"]["value"] - expected_ok) < 1e-12,
            f"{name}: ok_frac does not count the corrupted op",
        )
    print("selftest passed")
    return 0

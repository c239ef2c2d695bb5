"""Span tracing for the traced benchmark run.

The traced run installs span-recording wrappers on the names where
resflow's callers look functions up: module globals such as
``resflow.logdet.block_vjp`` and class attributes such as
``resflow.optim.AdamW.step``.  It removes them when the run ends, so
nothing under ``src/`` changes and untraced runs carry no wrapper at all.

Each span records its name, start, end, parent span and op id.  Spans stay
in memory and are written out once, when the run ends.  A span's self time
is its duration minus the durations of its child spans; there is one
thread, so children never overlap.  Counts (rows, computed flops, series
terms, power-iteration and Picard iterations) are read from the arguments
and return values at the same boundaries.

``LAYER_METRICS`` below is the map from each per-layer metric to the
end-to-end metric and workload it should move.  The layers run in one
thread of one process and contend for nothing, so a layer's gain is capped
by its share of op time: removing logdet's ``_permute_cache`` copies, for
example, can save at most their share of ``logdet.series_rows.self_ms`` and
``logdet.neumann_rows.self_ms`` on ``estimator_eval`` and ``train``, and
should save nothing on ``sample``.
"""

from __future__ import annotations

import csv
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter_ns

import numpy as np


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str  # the end-to-end metric and workload this layer should move


_E2E_TRAIN = "train points_per_s, op_ms_*"

LAYER_METRICS = (
    LayerMetric("blocks.bilinear_param_grad.ms", "ms/op", "lower", _E2E_TRAIN + "; zero elsewhere"),
    LayerMetric("blocks.param_grad_of_output.ms", "ms/op", "lower", _E2E_TRAIN + "; zero elsewhere"),
    LayerMetric("blocks.vjp.ms", "ms/op", "lower", _E2E_TRAIN + "; zero elsewhere"),
    LayerMetric("blocks.vjp.rows", "rows/op", "lower", _E2E_TRAIN + "; zero elsewhere"),
    LayerMetric("blocks.vjp.gflop_s", "GFLOP/s-computed", "higher", _E2E_TRAIN),
    LayerMetric("blocks.jvp.ms", "ms/op", "lower", "estimator_eval points_per_s; sample runs it only inside the dense exact oracle"),
    LayerMetric("blocks.jvp.rows", "rows/op", "lower", "estimator_eval points_per_s"),
    LayerMetric("blocks.jvp.gflop_s", "GFLOP/s-computed", "higher", "estimator_eval points_per_s"),
    LayerMetric("blocks.forward.ms", "ms/op", "lower", "sample points_per_s"),
    LayerMetric("blocks.forward.calls", "calls/op", "lower", "sample points_per_s"),
    LayerMetric("blocks.forward_cache.ms", "ms/op", "lower", "all three workloads; largest share on train"),
    LayerMetric("flow.inverse.self_ms", "ms/op", "lower", "sample points_per_s"),
    LayerMetric("flow.picard_iters", "iters/op", "lower", "sample points_per_s"),
    LayerMetric("logdet.neumann_rows.self_ms", "ms/op", "lower", _E2E_TRAIN),
    LayerMetric("logdet.series_rows.self_ms", "ms/op", "lower", "estimator_eval points_per_s"),
    LayerMetric("logdet.exact.self_ms", "ms/op", "lower", "sample points_per_s"),
    LayerMetric("logdet.terms_mean", "terms/row", "lower", "load on train and estimator_eval"),
    LayerMetric("logdet.terms_max", "terms/row", "lower", "load on train and estimator_eval"),
    LayerMetric("norms.constrain.ms", "ms/op", "lower", _E2E_TRAIN),
    LayerMetric("norms.pi_iters", "iters/op", "lower", _E2E_TRAIN),
    LayerMetric("optim.adam.ms", "ms/op", "lower", _E2E_TRAIN),
    LayerMetric("optim.polyak.ms", "ms/op", "lower", _E2E_TRAIN),
    LayerMetric("train.pack.ms", "ms/op", "lower", _E2E_TRAIN),
    LayerMetric("train.nll_and_grad.self_ms", "ms/op", "lower", _E2E_TRAIN),
    LayerMetric("flow.log_density_batch.self_ms", "ms/op", "lower", "estimator_eval and sample points_per_s"),
    LayerMetric("mem.peak_traced_mb", "MiB", "lower", "peak_rss_mb on train and estimator_eval"),
    LayerMetric("trace.overhead_frac", "fraction", "lower", "none; traced over untraced op time, minus 1"),
)

# Count metrics that must repeat exactly for a fixed seed.  They are taken
# over the first ``count_ops`` timed ops, which every run completes, so the
# number of ops a run fits into its seconds does not change them.
COUNT_METRICS = (
    "blocks.jvp.rows",
    "blocks.vjp.rows",
    "blocks.forward.calls",
    "logdet.terms_mean",
    "logdet.terms_max",
    "norms.pi_iters",
    "flow.picard_iters",
)


# -- counters read at span boundaries ----------------------------------------


def _flops_per_row(params) -> int:
    """Computed flops of one JVP or VJP row: a matmul per layer plus the
    activation-slope product between layers."""
    layers = params.layers
    return sum(2 * lay.weight.size for lay in layers) + sum(
        lay.weight.shape[0] for lay in layers[:-1]
    )


def _chain_counts(args, kwargs, out) -> dict:
    # every caller passes block_jvp(params, x, v) / block_vjp(params, x, u) positionally
    vec = args[2]
    rows = 1 if np.ndim(vec) == 1 else int(np.shape(vec)[0])
    return {"rows": rows, "flops": rows * _flops_per_row(args[0])}


def _terms_counts(args, kwargs, out) -> dict:
    terms = out[1]  # both row estimators return (values, terms, ...)
    return {
        "terms_sum": float(np.sum(terms)),
        "terms_rows": int(np.size(terms)),
        "terms_max": int(np.max(terms)),
    }


def _pi_counts(args, kwargs, out) -> dict:
    return {"pi_iters": sum(lay.pi_iters_used for lay in args[0].layers)}


def _picard_counts(args, kwargs, out) -> dict:
    # the sample op calls inverse(..., return_residuals=True)
    if isinstance(out, tuple):
        return {"picard_iters": sum(len(r) for r in out[1])}
    return {}


def wrap_targets() -> list:
    """(owner, attribute, span name, counter) for every wrapped lookup."""
    import resflow.blocks as blocks
    import resflow.flow as flow
    import resflow.logdet as logdet
    import resflow.optim as optim
    import resflow.train as train

    return [
        (blocks, "block_forward_cache", "blocks.forward_cache", None),
        (logdet, "block_forward_cache", "blocks.forward_cache", None),
        (train, "block_forward_cache", "blocks.forward_cache", None),
        (flow, "block_forward", "blocks.forward", None),
        (blocks, "block_jvp", "blocks.jvp", _chain_counts),
        (logdet, "block_jvp", "blocks.jvp", _chain_counts),
        (logdet, "block_vjp", "blocks.vjp", _chain_counts),
        (logdet, "bilinear_param_grad", "blocks.bilinear_param_grad", None),
        (train, "block_param_grad_of_output", "blocks.param_grad_of_output", None),
        (train, "roulette_value_and_neumann_grad_rows", "logdet.neumann_rows", _terms_counts),
        (flow, "roulette_logdet_rows", "logdet.series_rows", _terms_counts),
        (flow, "exact_logdet", "logdet.exact", None),
        (train, "apply_lipschitz_constraint", "norms.constrain", _pi_counts),
        (optim.AdamW, "step", "optim.adam", None),
        (optim.PolyakAverage, "update", "optim.polyak", None),
        (train.ParamPacker, "get_vector", "train.pack", None),
        (train.ParamPacker, "set_vector", "train.pack", None),
        (train.ParamPacker, "pack_grads", "train.pack", None),
        (train, "nll_and_grad", "train.nll_and_grad", None),
        (flow, "log_density_batch", "flow.log_density_batch", None),
        (flow, "inverse", "flow.inverse", _picard_counts),
    ]


# -- span recording ------------------------------------------------------------

_NAME, _START, _END, _PARENT, _OP, _COUNTS = range(6)


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, op, counts]
        self._stack: list[int] = []
        self.op = -1

    def wrap(self, name: str, fn, counter=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[_START] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[_END] = perf_counter_ns()
                stack.pop()
            if counter is not None:
                rec[_COUNTS] = counter(args, kwargs, out)
            return out

        return traced

    @contextmanager
    def installed(self):
        """Install every wrapper from :func:`wrap_targets`; always uninstall."""
        saved = []
        try:
            for owner, attr, name, counter in wrap_targets():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, counter))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def durations(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-span total and self duration in nanoseconds."""
        total = np.array([s[_END] - s[_START] for s in self.spans], dtype=np.int64)
        child = np.zeros_like(total)
        for i, s in enumerate(self.spans):
            if s[_PARENT] >= 0:
                child[s[_PARENT]] += total[i]
        return total, total - child

    def layer_metrics(self, n_ops: int, count_ops: int) -> dict[str, float]:
        """Per-layer metrics; times per op over all ``n_ops`` traced ops,
        counts per op over the first ``count_ops`` of them."""
        total, own = self.durations()
        ms = defaultdict(float)
        self_ms = defaultdict(float)
        calls = defaultdict(int)
        counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        flops = defaultdict(float)
        for i, s in enumerate(self.spans):
            name = s[_NAME]
            ms[name] += total[i] / 1e6
            self_ms[name] += own[i] / 1e6
            if s[_COUNTS]:
                flops[name] += s[_COUNTS].get("flops", 0)
            if s[_OP] >= count_ops:
                continue
            calls[name] += 1
            for key, value in (s[_COUNTS] or {}).items():
                if key.endswith("_max"):
                    counts[name][key] = max(counts[name][key], value)
                else:
                    counts[name][key] += value

        def per_op(value: float, ops: int) -> float:
            return value / ops if ops else 0.0

        def gflop_s(name: str) -> float:
            return flops[name] / (ms[name] * 1e6) if ms[name] else 0.0

        terms = defaultdict(float)
        for name in ("logdet.neumann_rows", "logdet.series_rows"):
            for key in ("terms_sum", "terms_rows"):
                terms[key] += counts[name][key]
            terms["terms_max"] = max(terms["terms_max"], counts[name]["terms_max"])

        return {
            "blocks.bilinear_param_grad.ms": per_op(ms["blocks.bilinear_param_grad"], n_ops),
            "blocks.param_grad_of_output.ms": per_op(ms["blocks.param_grad_of_output"], n_ops),
            "blocks.vjp.ms": per_op(ms["blocks.vjp"], n_ops),
            "blocks.vjp.rows": per_op(counts["blocks.vjp"]["rows"], count_ops),
            "blocks.vjp.gflop_s": gflop_s("blocks.vjp"),
            "blocks.jvp.ms": per_op(ms["blocks.jvp"], n_ops),
            "blocks.jvp.rows": per_op(counts["blocks.jvp"]["rows"], count_ops),
            "blocks.jvp.gflop_s": gflop_s("blocks.jvp"),
            "blocks.forward.ms": per_op(ms["blocks.forward"], n_ops),
            "blocks.forward.calls": per_op(calls["blocks.forward"], count_ops),
            "blocks.forward_cache.ms": per_op(ms["blocks.forward_cache"], n_ops),
            "flow.inverse.self_ms": per_op(self_ms["flow.inverse"], n_ops),
            "flow.picard_iters": per_op(counts["flow.inverse"]["picard_iters"], count_ops),
            "logdet.neumann_rows.self_ms": per_op(self_ms["logdet.neumann_rows"], n_ops),
            "logdet.series_rows.self_ms": per_op(self_ms["logdet.series_rows"], n_ops),
            "logdet.exact.self_ms": per_op(self_ms["logdet.exact"], n_ops),
            "logdet.terms_mean": per_op(terms["terms_sum"], int(terms["terms_rows"])),
            "logdet.terms_max": float(terms["terms_max"]),
            "norms.constrain.ms": per_op(ms["norms.constrain"], n_ops),
            "norms.pi_iters": per_op(counts["norms.constrain"]["pi_iters"], count_ops),
            "optim.adam.ms": per_op(ms["optim.adam"], n_ops),
            "optim.polyak.ms": per_op(ms["optim.polyak"], n_ops),
            "train.pack.ms": per_op(ms["train.pack"], n_ops),
            "train.nll_and_grad.self_ms": per_op(self_ms["train.nll_and_grad"], n_ops),
            "flow.log_density_batch.self_ms": per_op(self_ms["flow.log_density_batch"], n_ops),
        }

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "parent", "op", "name", "start_ns", "end_ns"])
            for i, s in enumerate(self.spans):
                out.writerow([i, s[_PARENT], s[_OP], s[_NAME], s[_START], s[_END]])

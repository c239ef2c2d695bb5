"""resflow benchmark: end-to-end and per-layer timings of three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one table
    python3 perfbench/run.py --selftest                   # tiny sizes, asserts the contract

``--workload`` is ``train``, ``estimator_eval``, ``sample`` or ``all``
(see ``workloads.py`` for what each op does and why it was chosen).  A run
sets up from ``--seed``, then times ops in a closed loop until ``--seconds``
of op time have passed and at least ``min_ops`` ops have run, then checks
every op's output outside the timed region.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` reports the end-to-end metrics (no wrappers installed):

* ``setup_s``      median of several set-ups: input generation, model build
                   and warm-up ops;
* ``points_per_s`` data rows completed per second of timed op time;
* ``op_ms_p50``, ``op_ms_p90``  per-op latency (``attempted`` is the
                   sample count);
* ``peak_rss_mb``  ``ru_maxrss`` of this process, which runs one workload;
* ``ok_frac``      ops whose output passed its check, over ops attempted.
                   It is ``1 - failed_frac``, kept non-zero so a bound can
                   be set as a share of it; ``failed_frac`` is printed too.

``--trace 1`` reports the per-layer metrics of ``tracing.LAYER_METRICS``
from a run with span wrappers installed, plus ``mem.peak_traced_mb`` and
``trace.overhead_frac``.  Results, the machine description and, for traced
runs, every span are written under ``.perfbench_out/`` in the checkout.
"""

import os

# Pin BLAS before numpy is imported anywhere in this process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

E2E_METRICS = (
    ("setup_s", "s"),
    ("points_per_s", "points/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "fraction"),
)
WORKLOAD_NAMES = ("train", "estimator_eval", "sample")


def _import_program():
    """Put the checkout's ``src`` first on the path and import from it."""
    if not (SRC / "resflow" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no resflow sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import resflow

    if Path(resflow.__file__).resolve().parent != (SRC / "resflow").resolve():
        raise SystemExit(f"perfbench: imported resflow from {resflow.__file__}, not {SRC}")


# -- machine description ---------------------------------------------------------


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "resflow").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def machine_info(workload: str, seed: int, digest: str) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "input_sha256": digest,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# -- running a workload --------------------------------------------------------


def _set_up(wl, seed, profile):
    ctx = wl.setup(seed, profile)
    for i in range(profile.warmup_ops):
        wl.op(ctx, i)
    return ctx


def _timed_loop(wl, ctx, first, seconds, min_ops, op=None):
    """Closed loop from op index ``first`` until ``seconds`` of op time and
    ``min_ops`` ops; returns per-op seconds and (index, output) pairs."""
    op = wl.op if op is None else op
    latencies, outputs = [], []
    busy = 0.0
    i = first
    while busy < seconds or len(latencies) < min_ops:
        t0 = time.perf_counter()
        try:
            out = op(ctx, i)
        except wl.failures as exc:
            out = exc
        dt = time.perf_counter() - t0
        latencies.append(dt)
        outputs.append((i, out))
        busy += dt
        i += 1
    return latencies, outputs


def _count_failures(wl, ctx, outputs, corrupt_op=None) -> int:
    failed = 0
    for k, (i, out) in enumerate(outputs):
        if isinstance(out, Exception):
            failed += 1
            continue
        if k == corrupt_op:
            out = wl.corrupt(out)
        failed += not wl.check(ctx, i, out)
    return failed


def _peak_traced_mb(wl, ctx, first, n_ops) -> float:
    """Largest tracemalloc peak of one op, above what was live before it."""
    peak = 0
    tracemalloc.start()
    try:
        for i in range(first, first + n_ops):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            wl.op(ctx, i)
            peak = max(peak, tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    return peak / 2**20


def run_workload(name, seed, seconds, trace, profile, corrupt_op=None) -> dict:
    """One run; returns the result object plus ``info`` and ``extra`` keys."""
    import numpy as np

    from tracing import COUNT_METRICS, LAYER_METRICS, Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    first = profile.warmup_ops
    extra: dict = {}
    if not trace:
        setup_s = []
        for _ in range(profile.setup_repeats):
            t0 = time.perf_counter()
            ctx = _set_up(wl, seed, profile)
            setup_s.append(time.perf_counter() - t0)
        lat, outputs = _timed_loop(wl, ctx, first, seconds, profile.min_ops)
        failed = _count_failures(wl, ctx, outputs, corrupt_op)
        ms = np.array(lat) * 1e3
        metrics = {
            "setup_s": statistics.median(setup_s),
            "points_per_s": wl.rows_per_op(profile) * len(lat) / sum(lat),
            "op_ms_p50": float(np.percentile(ms, 50)),
            "op_ms_p90": float(np.percentile(ms, 90)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": 1.0 - failed / len(lat),
        }
        units = dict(E2E_METRICS)
        extra["failed_frac"] = failed / len(lat)
        extra["op_ms"] = [round(x, 4) for x in ms.tolist()]
    else:
        # The first ops alternate with the same ops on an untraced copy of the
        # set-up, so both sides of the overhead ratio see the same machine.
        ref_ctx, ctx = _set_up(wl, seed, profile), _set_up(wl, seed, profile)
        tracer = Tracer()
        root = tracer.wrap("op", wl.op)

        def traced_op(ctx, i):
            tracer.op = i - first
            return root(ctx, i)

        lat, outputs, ratios = [], [], []
        for i in range(first, first + profile.compare_ops):
            ref_lat, _ = _timed_loop(wl, ref_ctx, i, 0.0, 1)
            with tracer.installed():
                one_lat, one_out = _timed_loop(wl, ctx, i, 0.0, 1, op=traced_op)
            lat += one_lat
            outputs += one_out
            ratios.append(one_lat[0] / ref_lat[0])
        with tracer.installed():
            more_lat, more_out = _timed_loop(
                wl, ctx, first + profile.compare_ops, seconds - sum(lat),
                profile.min_ops - profile.compare_ops, op=traced_op,
            )
        lat += more_lat
        outputs += more_out
        mem_mb = _peak_traced_mb(wl, ref_ctx, first + profile.compare_ops, profile.mem_ops)
        failed = _count_failures(wl, ctx, outputs, corrupt_op)
        metrics = tracer.layer_metrics(n_ops=len(lat), count_ops=profile.min_ops)
        metrics["mem.peak_traced_mb"] = mem_mb
        metrics["trace.overhead_frac"] = statistics.median(ratios) - 1.0
        units = {m.name: m.unit for m in LAYER_METRICS}
        extra["count_metrics"] = {k: metrics[k] for k in COUNT_METRICS}
        extra["spans"] = tracer
    return {
        "correct": failed == 0,
        "attempted": len(lat),
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
        "info": machine_info(name, seed, ctx.digest),
        "extra": extra,
    }


def _write_outputs(result: dict, trace: int) -> None:
    info = result["info"]
    stem = f"{info['workload']}-seed{info['seed']}-trace{trace}"
    OUT_DIR.mkdir(exist_ok=True)
    spans = result["extra"].pop("spans", None)
    if spans is not None:
        spans.write_csv(OUT_DIR / f"{stem}-spans.csv")
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")


def _print_table(title: str, result: dict) -> None:
    print(f"== {title}: attempted={result['attempted']} failed={result['failed']}")
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
    for name, value in result.get("extra", {}).items():
        if isinstance(value, float):
            print(f"  {name:34s} {value:14.6g}")


def _result_line(result: dict) -> str:
    keys = ("correct", "attempted", "failed", "metrics")
    return json.dumps({k: result[k] for k in keys})


def run_all(args) -> int:
    """Each workload in its own process, so ``peak_rss_mb`` is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failed_frac = result["failed"] / result["attempted"]
        _print_table(name, dict(result, extra={"failed_frac": failed_frac}))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true", help="run the benchmark's own self-test")
    args = parser.parse_args(argv)
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    _import_program()
    if args.selftest:
        from selftest import selftest

        return selftest(run_workload, ROOT / "BENCHMARK.json", E2E_METRICS)
    if args.workload == "all":
        return run_all(args)
    from workloads import FULL

    result = run_workload(args.workload, args.seed, args.seconds, args.trace, FULL)
    _write_outputs(result, args.trace)
    print("env " + json.dumps(result["info"], sort_keys=True))
    _print_table(args.workload, result)
    print(_result_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Per-point error and cost of the unbiased log-density, per probe law and count.

For each Hutchinson probe law and each probe count in {1, 2, 3, 5, 10} at
the evaluation protocol (``train.eval_terms`` = 20 leading terms, then the
roulette tail), it evaluates ``--points`` checkerboard points ``--draws``
times with independent draws, and prints one row:

- ``var``: the variance of one point's estimate of log p, averaged over the
  points;
- ``se``: its root, the standard error of one evaluated point;
- ``mean|z|``: the mean over points of |draw mean - exact log p| in units of
  the draw mean's standard error (about 0.80 for an unbiased estimate);
- ``probes``: probe rows per point;
- ``terms/pt``: series terms per point and block, summed over its probe
  rows, as ``log_density_batch`` counts them: the JVP steps it pays for;
- ``ms/50pt``: the median time of one 50-point ``log_density_batch`` call,
  a rough cost only (it moves by tens of percent between runs on a shared
  machine; ``perfbench/run.py --workload estimator_eval`` in alternating
  pairs is the measurement).

Then the variance of one probe at the training config (``n_exact = 2``,
``q = 0.5``, one probe per point), for the choice of the training law.

It runs on two models, at fixed seeds, with nothing downloaded: the bound
model of the benchmark's ``estimator_eval`` workload
(``perfbench/workloads._bound_model``, FULL profile, as seed 1 spawns it)
and a checkerboard model trained at the acceptance config (seed 0, 10
blocks, hidden 128, lr 0.05, Adam beta2 0.999) for ``--steps`` steps.  BLAS
runs on one thread (the series worker is a second one).  About 5 minutes at
the defaults on a 2-CPU machine, training included.

Usage:
    python scripts/estimator_efficiency.py [--steps 2000] [--points 200] [--draws 60]
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
from workloads import FULL, _bound_model  # noqa: E402

from resflow.config import TrainConfig  # noqa: E402
from resflow.data import make_dataset  # noqa: E402
from resflow.flow import log_density_batch  # noqa: E402
from resflow.logdet import EstimatorConfig, RouletteDist  # noqa: E402
from resflow.train import eval_model, fit  # noqa: E402

LAWS = ("gaussian", "rademacher")
PROBE_COUNTS = (1, 2, 3, 5, 10)
CALL_POINTS = 50


def bound_model():
    ss_model, _ = np.random.SeedSequence(1).spawn(2)
    return _bound_model(ss_model, FULL)


def trained_model(steps: int):
    cfg = TrainConfig(seed=0, steps=steps, lr=0.05, adam_beta2=0.999,
                      eval_every=max(steps, 1), checkpoint_every=0)
    with tempfile.TemporaryDirectory() as out:
        return eval_model(fit(cfg, out))


def draws_of(model, X, cfg, draws, seed):
    """``(draws, points)`` log-density estimates and their mean terms."""
    rng = np.random.default_rng(seed)
    runs = [log_density_batch(model, X, mode="unbiased", cfg=cfg, rng=rng) for _ in range(draws)]
    return np.stack([logp for _, logp, _ in runs]), np.mean([terms for _, _, terms in runs])


def call_ms(model, X, cfg, repeats=30):
    rng = np.random.default_rng(0)
    times = []
    for _ in range(repeats + 1):
        start = time.perf_counter()
        log_density_batch(model, X[:CALL_POINTS], mode="unbiased", cfg=cfg, rng=rng)
        times.append(time.perf_counter() - start)
    return 1e3 * float(np.median(times[1:]))


def report(name, model, X, draws):
    _, exact, _ = log_density_batch(model, X, mode="exact")
    protocol = TrainConfig()
    print(f"\n{name}: {len(X)} points x {draws} draws, {protocol.eval_terms} leading terms")
    print(f"{'law':>10} {'probes':>6} {'var':>9} {'se':>8} {'mean|z|':>8} {'terms/pt':>8} {'ms/50pt':>8}")
    for law in LAWS:
        for nh in PROBE_COUNTS:
            cfg = EstimatorConfig(RouletteDist(protocol.q, protocol.eval_terms), law, nh)
            logp, terms = draws_of(model, X, cfg, draws, seed=nh)
            var = logp.var(axis=0, ddof=1)
            z = np.abs(logp.mean(axis=0) - exact) / np.sqrt(var / draws)
            print(f"{law:>10} {nh:>6} {var.mean():9.5f} {np.sqrt(var.mean()):8.4f} "
                  f"{z.mean():8.2f} {terms:8.1f} {call_ms(model, X, cfg):8.1f}")
    print(f"training config (n_exact = {protocol.n_exact}, q = {protocol.q}, 1 probe):")
    for law in LAWS:
        cfg = EstimatorConfig(RouletteDist(protocol.q, protocol.n_exact), law, 1)
        logp, terms = draws_of(model, X, cfg, draws, seed=100)
        print(f"{law:>10} var {logp.var(axis=0, ddof=1).mean():.4f}, {terms:.2f} terms per block")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--steps", type=int, default=2000, help="training steps of the trained model")
    ap.add_argument("--points", type=int, default=200)
    ap.add_argument("--draws", type=int, default=60)
    args = ap.parse_args(argv)
    if args.points < CALL_POINTS or args.draws < 2:
        ap.error(f"need --points >= {CALL_POINTS} and --draws >= 2")
    X = make_dataset("checkerboard", seed=5).sample(args.points)
    report("bound model (estimator_eval, seed 1)", bound_model(), X, args.draws)
    report(f"trained model (seed 0, {args.steps} steps)", trained_model(args.steps), X, args.draws)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

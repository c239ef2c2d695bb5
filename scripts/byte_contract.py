"""Digests of the outputs the byte contract pins, one ``name sha256`` line each.

Runs the fixed-seed CLI commands below in a fresh work directory, with BLAS
pinned to one thread (``OMP_NUM_THREADS=1``) and every checkpoint path given
relative to that directory, so the paths recorded in ``eval.json`` do not
depend on where the checkout lives.  Then it hashes the benchmark's op
outputs: for each workload of ``perfbench/workloads.py`` (FULL profile) at
seeds 5 and 7, every output of the 20 ops after the warm-up, and for
``train`` the parameter vector after them.

Two checkouts give the same lines exactly when a change kept every output
byte.  Run from the root of a checkout:

    python scripts/byte_contract.py
    python scripts/byte_contract.py --against REV

``--against REV`` extracts the git revision REV (``git archive``) into a
temporary directory and computes the same digests, with this script, there
and in the working tree, side by side in two processes.  It prints every
line whose digests differ, REV's first, then a count, and exits 1 if any
line differs (2 if REV cannot be extracted or a digest run fails).
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tarfile  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
TRAIN = ["train", "--steps", "30", "--train.checkpoint_every=0"]
CKPT = "unbiased/checkpoint_final.txt"

# (name, CLI arguments after the subcommand's --out-dir, files written)
COMMANDS = (
    ("train_unbiased", TRAIN, "unbiased", ("metrics.jsonl", "checkpoint_final.txt")),
    ("train_biased", TRAIN + ["--estimator", "biased"], "biased",
     ("metrics.jsonl", "checkpoint_final.txt")),
    ("train_nh2", TRAIN + ["--estimator.n_hutchinson=2"], "nh2",
     ("metrics.jsonl", "checkpoint_final.txt")),
    ("eval_exact", ["eval", "--checkpoint", CKPT, "--mode", "exact"], "eval_exact", ("eval.json",)),
    ("eval_estimator", ["eval", "--checkpoint", CKPT, "--mode", "estimator"], "eval_estimator",
     ("eval.json",)),
    ("grid_estimator", ["grid", "--checkpoint", CKPT, "--mode", "estimator", "--resolution", "41,41"],
     "grid", ("grid.csv", "grid.pgm")),
    ("diagnose", ["diagnose", "--n-samples", "20000"], "diagnose", ("diagnose.csv",)),
    ("sample", ["sample", "--checkpoint", CKPT, "--n", "500", "--check-inverse"], "sample",
     ("samples.csv",)),
)
BENCH_SEEDS = (5, 7)
BENCH_OPS = 20


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_digests(work: Path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    runner = "import sys; from resflow.cli import main; sys.exit(main())"
    for name, args, out_dir, files in COMMANDS:
        cmd = [sys.executable, "-c", runner, *args, "--out-dir", out_dir]
        proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"{name} exited {proc.returncode}:\n{proc.stderr}")
        for fname in files:
            yield f"{name}/{fname}", sha256((work / out_dir / fname).read_bytes())


def bench_digests():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import numpy as np
    from workloads import FULL, WORKLOADS

    def update(h, out):
        if isinstance(out, dict):
            h.update(json.dumps(out, sort_keys=True).encode())
        elif isinstance(out, tuple):
            for part in out:
                update(h, part)
        else:
            h.update(np.ascontiguousarray(out, dtype=np.float64).tobytes())

    for seed in BENCH_SEEDS:
        for name, wl in WORKLOADS.items():
            ctx = wl.setup(seed, FULL)
            h = hashlib.sha256()
            for i in range(FULL.warmup_ops + BENCH_OPS):
                out = wl.op(ctx, i)
                if i >= FULL.warmup_ops:
                    update(h, out)
            if ctx.state is not None:
                update(h, ctx.state.params)
            yield f"bench/{name}/seed{seed}", h.hexdigest()


def against(rev: str) -> int:
    """Digests of ``rev`` and of the working tree; the lines that differ."""
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], capture_output=True)
        if archive.returncode != 0:
            print(f"git archive {rev} failed:\n{archive.stderr.decode()}", file=sys.stderr)
            return 2
        tree = Path(tmp) / "rev"
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tree, filter="data")
        script = tree / "scripts" / Path(__file__).name
        script.parent.mkdir(exist_ok=True)
        shutil.copyfile(__file__, script)  # the same digests in both trees
        runs = [subprocess.Popen([sys.executable, str(s)], stdout=subprocess.PIPE, text=True)
                for s in (script, Path(__file__).resolve())]
        outs = [run.communicate()[0] for run in runs]
        if any(run.returncode for run in runs):
            print("a digest run failed", file=sys.stderr)
            return 2
    old, new = (dict(line.split() for line in out.splitlines()) for out in outs)
    differ = [name for name in {**old, **new} if old.get(name) != new.get(name)]
    for name in differ:
        print(name, old.get(name, "-"), new.get(name, "-"))
    print(f"{len(differ)} of {len({**old, **new})} lines differ from {rev}")
    return 1 if differ else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", metavar="REV", help="compare with the git revision REV")
    args = parser.parse_args()
    if args.against is not None:
        return against(args.against)
    with tempfile.TemporaryDirectory() as tmp:
        for name, digest in cli_digests(Path(tmp)):
            print(name, digest, flush=True)
    for name, digest in bench_digests():
        print(name, digest, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

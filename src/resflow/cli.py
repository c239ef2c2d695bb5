"""Command-line interface.

Subcommands: ``train``, ``eval``, ``sample``, ``grid``, ``diagnose``.
Global flags ``--config``, ``--seed``, ``--out-dir``; any config key can
be overridden as ``--key=value``.  ``diagnose`` alone takes ``--threads``,
its Monte-Carlo worker threads (at least 1).  The output directory
falls back to the ``RESFLOW_OUT_DIR`` environment variable.  Every
command is deterministic given its inputs and seed, and all emitted
files are byte-stable across reruns (progress chatter goes to stderr).

Exit codes: 0 success, 1 runtime failure (including NaN aborts),
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from resflow.blocks import BlockParams, LayerParams
from resflow.checkpoint import load_checkpoint
from resflow.config import (
    KEY_TO_FIELD,
    TrainConfig,
    config_from_mapping,
    read_config_file,
)
from resflow.data import make_dataset
from resflow.errors import ConfigError, ResflowError
from resflow.flow import inverse, sample, transform
from resflow.grid import compute_grid, write_grid_csv, write_grid_pgm
from resflow.logdet import (
    EstimatorConfig,
    RouletteDist,
    biased_logdet_batch,
    exact_logdet,
    roulette_logdet_batch,
)
from resflow.norms import checkpoint_constraint, init_block_params
from resflow.train import (
    EVAL_SEED_OFFSET,
    eval_estimator_config_from,
    eval_record,
    fit,
    load_state_checkpoint,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

_OVERRIDE_RE = re.compile(r"^--([a-z_][a-z0-9_]*(?:\.[a-z_][a-z0-9_]*)+)=(.*)$")

DIAGNOSE_COEFFS = (0.5, 0.7, 0.9, 0.98)
DIAGNOSE_ESTIMATORS = ("biased-5", "biased-10", "unbiased")
# samples per Monte-Carlo chunk; each chunk draws from its own seed, so
# diagnose's output bytes depend on this value
MC_CHUNK = 10_000


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args, extras = parser.parse_known_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        overrides = parse_overrides(extras)
        if args.command is None:
            parser.print_help(sys.stderr)
            return EXIT_USAGE
        return args.func(args, overrides)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="resflow", description=__doc__)
    parser.set_defaults(command=None)
    sub = parser.add_subparsers(dest="command")

    def add_common(p):
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--out-dir", default=None, help="output directory (or $RESFLOW_OUT_DIR)")

    p_train = sub.add_parser("train", help="train a model and write metrics/checkpoints")
    add_common(p_train)
    p_train.add_argument("--dataset", default=None, choices=("checkerboard", "eight_gaussians", "rings"))
    p_train.add_argument("--blocks", type=int, default=None)
    p_train.add_argument("--steps", type=int, default=None)
    p_train.add_argument("--estimator", default=None, choices=("unbiased", "biased"))
    p_train.add_argument("--n-fixed", type=int, default=None)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate NLL of a checkpoint")
    add_common(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--mode", default="exact", choices=("exact", "estimator"))
    p_eval.add_argument("--n-eval", type=_int_at_least(2), default=2000)
    p_eval.set_defaults(func=cmd_eval)

    p_sample = sub.add_parser("sample", help="draw samples from a checkpoint")
    add_common(p_sample)
    p_sample.add_argument("--checkpoint", required=True)
    p_sample.add_argument("--n", type=int, required=True)
    p_sample.add_argument("--check-inverse", action="store_true")
    p_sample.add_argument("--out", default=None, help="output CSV name (default samples.csv)")
    p_sample.set_defaults(func=cmd_sample)

    p_grid = sub.add_parser("grid", help="export a log-density grid (CSV + PGM)")
    add_common(p_grid)
    p_grid.add_argument("--checkpoint", required=True)
    p_grid.add_argument("--bounds", default="-4,4,-4,4", help="xmin,xmax,ymin,ymax")
    p_grid.add_argument("--resolution", default="101,101", help="nx,ny")
    p_grid.add_argument("--mode", default="exact", choices=("exact", "estimator"))
    p_grid.set_defaults(func=cmd_grid)

    p_diag = sub.add_parser(
        "diagnose", help="bias sweep of the estimators across Lipschitz coefficients"
    )
    add_common(p_diag)
    p_diag.add_argument("--checkpoint", default=None)
    p_diag.add_argument("--block-index", type=int, default=0)
    p_diag.add_argument("--arch", default="linear", choices=("linear", "mlp"))
    p_diag.add_argument("--hidden", type=_int_at_least(1), default=64)
    p_diag.add_argument("--n-samples", type=_int_at_least(2), default=50_000)
    p_diag.add_argument("--coeffs", default=",".join(str(c) for c in DIAGNOSE_COEFFS))
    p_diag.add_argument("--at", default="0.0,0.0", help="evaluation point x,y")
    p_diag.add_argument("--threads", type=_int_at_least(1), default=1, help="Monte-Carlo worker threads")
    p_diag.set_defaults(func=cmd_diagnose)
    return parser


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def parse_overrides(extras: list[str]) -> dict[str, str]:
    overrides: dict[str, str] = {}
    for token in extras:
        m = _OVERRIDE_RE.match(token)
        if m is None:
            raise ConfigError(f"unrecognized argument {token!r}")
        key, value = m.group(1), m.group(2)
        if key not in KEY_TO_FIELD:
            raise ConfigError(f"unknown config key {key!r}")
        overrides[key] = value
    return overrides


def resolve_out_dir(args) -> Path:
    out = args.out_dir or os.environ.get("RESFLOW_OUT_DIR") or "resflow_out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def build_train_config(args, overrides: dict[str, str]) -> TrainConfig:
    mapping: dict[str, str] = {}
    if args.config is not None:
        mapping.update(read_config_file(args.config))
    alias = {
        "train.dataset": getattr(args, "dataset", None),
        "train.blocks": getattr(args, "blocks", None),
        "train.steps": getattr(args, "steps", None),
        "estimator.kind": getattr(args, "estimator", None),
        "estimator.n_fixed": getattr(args, "n_fixed", None),
        "train.seed": args.seed,
    }
    mapping.update({k: str(v) for k, v in alias.items() if v is not None})
    mapping.update(overrides)
    return config_from_mapping(mapping)


def cmd_train(args, overrides) -> int:
    cfg = build_train_config(args, overrides)
    out = resolve_out_dir(args)
    try:
        state = fit(cfg, out, progress=True)
    except ResflowError as exc:
        (out / "abort_dump.txt").write_text(f"aborted: {exc}\n")
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"trained {state.step} steps -> {out}", file=sys.stderr)
    return EXIT_OK


def cmd_eval(args, overrides) -> int:
    model, cfg = load_state_checkpoint(args.checkpoint)
    out = resolve_out_dir(args)
    seed = cfg.seed if args.seed is None else args.seed
    X = make_dataset(cfg.dataset, seed=seed + EVAL_SEED_OFFSET).sample(args.n_eval)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 555]))
    record = {"checkpoint": str(args.checkpoint), **eval_record(model, X, args.mode, cfg, rng)}
    text = json.dumps(record, sort_keys=True)
    (out / "eval.json").write_text(text + "\n")
    print(text)
    return EXIT_OK


def cmd_sample(args, overrides) -> int:
    if args.n < 0:
        raise ConfigError("--n must be non-negative")
    name = args.out or "samples.csv"
    if Path(name).name != name or name == "..":
        raise ConfigError(f"--out must be a file name inside --out-dir, got {name!r}")
    model, _ = load_state_checkpoint(args.checkpoint)
    out = resolve_out_dir(args)
    seed = args.seed if args.seed is not None else 0
    rng = np.random.default_rng(np.random.SeedSequence([seed, 404]))
    points = sample(model, rng, args.n)
    lines = ["x,y"] + [f"{float(p[0])!r},{float(p[1])!r}" for p in points]
    target = out / name
    target.write_text("\n".join(lines) + "\n")
    if args.check_inverse:
        if args.n == 0:
            print("check_inverse_max_error=0.0")
        else:
            z = transform(model, points)
            back = inverse(model, z)
            err = float(np.max(np.linalg.norm(back - points, axis=1)))
            print(f"check_inverse_max_error={err!r}")
    print(f"wrote {args.n} samples -> {target}", file=sys.stderr)
    return EXIT_OK


def cmd_grid(args, overrides) -> int:
    try:
        bounds = tuple(float(t) for t in args.bounds.split(","))
        nx, ny = (int(t) for t in args.resolution.split(","))
        # a box of finite positive width and height, at least one cell a side
        if len(bounds) != 4 or min(nx, ny) < 1:
            raise ValueError
        if not all(0.0 < hi - lo < math.inf for lo, hi in (bounds[:2], bounds[2:])):
            raise ValueError
    except ValueError as exc:
        raise ConfigError(f"bad --bounds/--resolution: {args.bounds} {args.resolution}") from exc
    model, cfg = load_state_checkpoint(args.checkpoint)
    out = resolve_out_dir(args)
    seed = args.seed if args.seed is not None else 0
    rng = np.random.default_rng(np.random.SeedSequence([seed, 606]))
    grid = compute_grid(
        model,
        bounds,
        (nx, ny),
        mode=args.mode,
        cfg=eval_estimator_config_from(cfg) if args.mode == "estimator" else None,
        rng=rng if args.mode == "estimator" else None,
    )
    write_grid_csv(grid, out / "grid.csv")
    write_grid_pgm(grid, out / "grid.pgm")
    print(f"grid integral (midpoint) = {grid.integral()!r}", file=sys.stderr)
    return EXIT_OK


# -- diagnose ----------------------------------------------------------------


def _diagnose_block(args) -> BlockParams:
    """The sweep's test block, before the constraint rescales a copy of it
    to each coefficient.

    Every coefficient starts from the same base weights, so the sweep
    isolates the effect of the Lipschitz bound.  ``linear`` is a single
    d x d layer with a positive-definite weight in a random basis, so the
    Jacobian spectrum sits at the coefficient itself and the series
    truncation error is visible rather than rotation-cancelled; ``mlp`` is
    the standard 3-layer branch.
    """
    spec_seed = args.seed if args.seed is not None else 0
    if args.checkpoint is not None:
        model, _, _ = load_checkpoint(args.checkpoint)
        blocks = model.blocks()
        if not blocks:
            raise ConfigError("checkpoint has no residual blocks to diagnose")
        if not (0 <= args.block_index < len(blocks)):
            raise ConfigError(f"--block-index out of range (0..{len(blocks) - 1})")
        return blocks[args.block_index].params
    if args.arch == "linear":
        rng = np.random.default_rng(np.random.SeedSequence([spec_seed, 71]))
        basis, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        w = 1.5 * basis @ np.diag([1.0, 0.7]) @ basis.T
        return BlockParams(layers=[LayerParams(weight=w, bias=np.zeros(2), raw_beta=None)])
    rng = np.random.default_rng(np.random.SeedSequence([spec_seed, 72]))
    return init_block_params(rng, 2, hidden=args.hidden, init_norm_fraction=1.5)


def _mc_chunks(fn, n_samples: int, threads: int, seed_key: list[int]):
    """Deterministic chunked Monte-Carlo: same result for any thread count."""
    bounds = list(range(0, n_samples, MC_CHUNK))
    seeds = np.random.SeedSequence(seed_key).spawn(len(bounds))
    jobs = [
        (min(MC_CHUNK, n_samples - start), np.random.default_rng(seeds[i]))
        for i, start in enumerate(bounds)
    ]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda j: fn(j[0], j[1]), jobs))
    else:
        results = [fn(m, rng) for m, rng in jobs]
    values = np.concatenate([r[0] for r in results])
    terms = np.concatenate([r[1] for r in results])
    return values, terms


def cmd_diagnose(args, overrides) -> int:
    try:
        coeffs = [float(t) for t in args.coeffs.split(",")]
        x = np.array([float(t) for t in args.at.split(",")])
    except ValueError as exc:
        raise ConfigError("bad --coeffs or --at value") from exc
    if not all(0.0 < c < 1.0 for c in coeffs):
        raise ConfigError(f"each --coeffs value must lie in (0, 1), got {args.coeffs}")
    seed = args.seed if args.seed is not None else 0
    base = _diagnose_block(args)
    if x.size != base.dim:
        raise ConfigError(f"--at must have {base.dim} coordinates, got {args.at}")
    rows = ["coeff,estimator,mc_mean,exact,bias,se,mean_terms"]
    for coeff in coeffs:
        params = base.copy()
        checkpoint_constraint(params, coeff)
        exact = float(exact_logdet(params, x))
        for est_idx, name in enumerate(DIAGNOSE_ESTIMATORS):
            if name == "unbiased":
                cfg = EstimatorConfig(roulette=RouletteDist())
                fn = lambda m, rng, p=params, c=cfg: roulette_logdet_batch(p, x, c, rng, m)
            else:
                n_fixed = int(name.split("-")[1])
                cfg = EstimatorConfig(n_fixed=n_fixed)
                fn = lambda m, rng, p=params, c=cfg: biased_logdet_batch(p, x, c, rng, m)
            values, terms = _mc_chunks(
                fn, args.n_samples, args.threads, [seed, 909, int(coeff * 1000), est_idx]
            )
            mean = float(values.mean())
            se = float(values.std(ddof=1) / np.sqrt(len(values)))
            rows.append(
                f"{coeff!r},{name},{mean!r},{exact!r},{(mean - exact)!r},{se!r},"
                f"{float(terms.mean())!r}"
            )
    target = resolve_out_dir(args) / "diagnose.csv"
    target.write_text("\n".join(rows) + "\n")
    print(f"wrote {target}", file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

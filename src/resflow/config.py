"""Run configuration: dataclass, key-value files, and CLI overrides.

Config files are plain text, one ``key = value`` per line with ``#``
comments.  Every key can also be overridden on the command line as
``--key=value``.  Keys are dotted (``train.lr``, ``lipschitz.coeff``,
``estimator.kind``); unknown keys are an error so typos fail loudly.
Values are checked when a config is built (``TrainConfig.__post_init__``,
reusing the estimator, norm-preset and dataset checks), so a bad value
fails as a ``ConfigError`` before a run writes anything.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from resflow.data import DATASET_NAMES
from resflow.errors import ConfigError
from resflow.logdet import EstimatorConfig, RouletteDist
from resflow.norms import NORM_PRESETS, check_coeff


@dataclass
class TrainConfig:
    # optimization
    lr: float = 1e-3
    weight_decay: float = 5e-4
    polyak_decay: float = 0.999
    batch_size: int = 512
    steps: int = 2000
    adam_beta1: float = 0.9
    adam_beta2: float = 0.99
    adam_eps: float = 1e-8
    # model / data
    dataset: str = "checkerboard"
    blocks: int = 10
    hidden: int = 128
    seed: int = 0
    actnorm_init: str = "identity"  # or "data" (standardize on the first batch)
    # lipschitz constraint
    lipschitz_coeff: float = 0.98
    norm_preset: str = "spectral"
    lipschitz_tol: float = 1e-3
    lipschitz_max_iters: int = 200
    lipschitz_max_iters_warm: int = 10
    # log-det estimator
    estimator_kind: str = "unbiased"  # or "biased"
    q: float = 0.5
    n_exact: int = 2
    n_fixed: int = 5
    hutchinson: str = "gaussian"
    n_hutchinson: int = 1
    # evaluation protocol
    eval_every: int = 200
    n_eval: int = 2000
    eval_terms: int = 20
    eval_tail_samples: int = 10
    checkpoint_every: int = 1000

    def __post_init__(self) -> None:
        if self.lr < 0:
            raise ConfigError("train.lr must be non-negative")
        if not (0.0 <= self.polyak_decay < 1.0):
            raise ConfigError("train.polyak_decay must lie in [0, 1)")
        if self.estimator_kind not in ("unbiased", "biased"):
            raise ConfigError(f"estimator.kind must be unbiased|biased, got {self.estimator_kind!r}")
        if self.actnorm_init not in ("identity", "data"):
            raise ConfigError(f"train.actnorm_init must be identity|data, got {self.actnorm_init!r}")
        if self.dataset not in DATASET_NAMES:
            raise ConfigError(f"train.dataset must be one of {DATASET_NAMES}, got {self.dataset!r}")
        if self.norm_preset not in NORM_PRESETS:
            raise ConfigError(
                f"lipschitz.norm_preset must be one of {sorted(NORM_PRESETS)}, "
                f"got {self.norm_preset!r}"
            )
        # blocks = 0 is the actnorm-only baseline; checkpoint_every = 0 disables
        for key, value, least in [
            ("train.hidden", self.hidden, 1),
            ("train.batch_size", self.batch_size, 1),
            ("train.steps", self.steps, 0),
            ("train.blocks", self.blocks, 0),
            ("train.n_eval", self.n_eval, 1),
            ("train.eval_every", self.eval_every, 1),
            ("train.checkpoint_every", self.checkpoint_every, 0),
            ("lipschitz.max_iters", self.lipschitz_max_iters, 1),
            ("lipschitz.max_iters_warm", self.lipschitz_max_iters_warm, 1),
        ]:
            if value < least:
                raise ConfigError(f"{key} must be >= {least}, got {value}")
        if not self.lipschitz_tol > 0:
            raise ConfigError(f"lipschitz.tol must be positive, got {self.lipschitz_tol}")
        for key, beta in [("train.adam_beta1", self.adam_beta1), ("train.adam_beta2", self.adam_beta2)]:
            if not (0.0 <= beta < 1.0):
                raise ConfigError(f"{key} must lie in [0, 1), got {beta}")
        try:
            check_coeff(self.lipschitz_coeff)
            # the training estimator, then the evaluation protocol's
            for n_exact, n_probes in [
                (self.n_exact, self.n_hutchinson),
                (self.eval_terms, self.eval_tail_samples),
            ]:
                roulette = RouletteDist(q=self.q, n_exact=n_exact)
                EstimatorConfig(roulette, self.hutchinson, n_probes, self.n_fixed)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


# dotted config key -> dataclass field
KEY_TO_FIELD = {
    "train.lr": "lr",
    "train.weight_decay": "weight_decay",
    "train.polyak_decay": "polyak_decay",
    "train.batch_size": "batch_size",
    "train.steps": "steps",
    "train.adam_beta1": "adam_beta1",
    "train.adam_beta2": "adam_beta2",
    "train.adam_eps": "adam_eps",
    "train.dataset": "dataset",
    "train.blocks": "blocks",
    "train.hidden": "hidden",
    "train.seed": "seed",
    "train.actnorm_init": "actnorm_init",
    "train.eval_every": "eval_every",
    "train.n_eval": "n_eval",
    "train.eval_terms": "eval_terms",
    "train.eval_tail_samples": "eval_tail_samples",
    "train.checkpoint_every": "checkpoint_every",
    "lipschitz.coeff": "lipschitz_coeff",
    "lipschitz.norm_preset": "norm_preset",
    "lipschitz.tol": "lipschitz_tol",
    "lipschitz.max_iters": "lipschitz_max_iters",
    "lipschitz.max_iters_warm": "lipschitz_max_iters_warm",
    "estimator.kind": "estimator_kind",
    "estimator.q": "q",
    "estimator.n_exact": "n_exact",
    "estimator.n_fixed": "n_fixed",
    "estimator.hutchinson": "hutchinson",
    "estimator.n_hutchinson": "n_hutchinson",
}

FIELD_TO_KEY = {v: k for k, v in KEY_TO_FIELD.items()}

_FIELD_TYPES = {f.name: f.type for f in fields(TrainConfig)}


def _coerce(key: str, field_name: str, raw: str):
    kind = _FIELD_TYPES[field_name]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        out[key.strip()] = value.strip()
    return out


def read_config_file(path: str | Path) -> dict[str, str]:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return parse_config_text(path.read_text(), source=str(path))


def config_from_mapping(mapping: dict[str, str], base: TrainConfig | None = None) -> TrainConfig:
    cfg = TrainConfig() if base is None else base
    for key, raw in mapping.items():
        if key not in KEY_TO_FIELD:
            raise ConfigError(f"unknown config key {key!r}")
        setattr(cfg, KEY_TO_FIELD[key], _coerce(key, KEY_TO_FIELD[key], raw))
    cfg.__post_init__()
    return cfg


def config_to_mapping(cfg: TrainConfig) -> dict[str, str]:
    out = {}
    for f in fields(TrainConfig):
        value = getattr(cfg, f.name)
        out[FIELD_TO_KEY[f.name]] = repr(value) if isinstance(value, float) else str(value)
    return out


def write_config_file(cfg: TrainConfig, path: str | Path) -> None:
    mapping = config_to_mapping(cfg)
    lines = [f"{k} = {mapping[k]}" for k in sorted(mapping)]
    Path(path).write_text("\n".join(lines) + "\n")

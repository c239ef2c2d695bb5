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

from dataclasses import dataclass, field, fields
from pathlib import Path

from resflow.data import DATASET_NAMES
from resflow.errors import ConfigError
from resflow.logdet import EstimatorConfig, RouletteDist
from resflow.norms import NORM_PRESETS, check_coeff

# The evaluation protocol's probe law, whatever estimator.hutchinson says:
# of the laws with E[v v^T] = I, Rademacher probes give the Hutchinson trace
# the least variance (Hutchinson 1990; Avron & Toledo 2011), so two of them
# per point give a smaller per-point error than ten Gaussian ones.
EVAL_HUTCHINSON = "rademacher"


def _key(dotted: str, default):
    """A config field with its dotted key, the name files and overrides use."""
    return field(default=default, metadata={"key": dotted})


@dataclass
class TrainConfig:
    # optimization
    lr: float = _key("train.lr", 1e-3)
    weight_decay: float = _key("train.weight_decay", 5e-4)
    polyak_decay: float = _key("train.polyak_decay", 0.999)
    batch_size: int = _key("train.batch_size", 512)
    steps: int = _key("train.steps", 2000)
    adam_beta1: float = _key("train.adam_beta1", 0.9)
    adam_beta2: float = _key("train.adam_beta2", 0.99)
    adam_eps: float = _key("train.adam_eps", 1e-8)
    # model / data
    dataset: str = _key("train.dataset", "checkerboard")
    blocks: int = _key("train.blocks", 10)
    hidden: int = _key("train.hidden", 128)
    seed: int = _key("train.seed", 0)
    # or "data" (standardize on the first batch)
    actnorm_init: str = _key("train.actnorm_init", "identity")
    # lipschitz constraint
    lipschitz_coeff: float = _key("lipschitz.coeff", 0.98)
    norm_preset: str = _key("lipschitz.norm_preset", "spectral")
    lipschitz_tol: float = _key("lipschitz.tol", 1e-3)
    lipschitz_max_iters: int = _key("lipschitz.max_iters", 200)
    lipschitz_max_iters_warm: int = _key("lipschitz.max_iters_warm", 10)
    # log-det estimator
    estimator_kind: str = _key("estimator.kind", "unbiased")  # or "biased"
    q: float = _key("estimator.q", 0.5)
    n_exact: int = _key("estimator.n_exact", 2)
    n_fixed: int = _key("estimator.n_fixed", 5)
    hutchinson: str = _key("estimator.hutchinson", "gaussian")  # training probes only
    n_hutchinson: int = _key("estimator.n_hutchinson", 1)
    # evaluation protocol: eval_terms leading terms, an unbiased tail, and
    # eval_tail_samples probes per point of the law EVAL_HUTCHINSON
    eval_every: int = _key("train.eval_every", 200)
    n_eval: int = _key("train.n_eval", 2000)
    eval_terms: int = _key("train.eval_terms", 20)
    eval_tail_samples: int = _key("train.eval_tail_samples", 2)
    checkpoint_every: int = _key("train.checkpoint_every", 1000)

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
        for name, least in [
            ("hidden", 1),
            ("batch_size", 1),
            ("steps", 0),
            ("blocks", 0),
            ("n_eval", 2),  # the standard error needs two points
            ("eval_every", 1),
            ("checkpoint_every", 0),
            ("lipschitz_max_iters", 1),
            ("lipschitz_max_iters_warm", 1),
        ]:
            value = getattr(self, name)
            if value < least:
                raise ConfigError(f"{FIELD_TO_KEY[name]} must be >= {least}, got {value}")
        if not self.lipschitz_tol > 0:
            raise ConfigError(f"lipschitz.tol must be positive, got {self.lipschitz_tol}")
        for name in ("adam_beta1", "adam_beta2"):
            beta = getattr(self, name)
            if not (0.0 <= beta < 1.0):
                raise ConfigError(f"{FIELD_TO_KEY[name]} must lie in [0, 1), got {beta}")
        try:
            check_coeff(self.lipschitz_coeff)
            # the training estimator, then the evaluation protocol's
            for n_exact, law, n_probes in [
                (self.n_exact, self.hutchinson, self.n_hutchinson),
                (self.eval_terms, EVAL_HUTCHINSON, self.eval_tail_samples),
            ]:
                roulette = RouletteDist(q=self.q, n_exact=n_exact)
                EstimatorConfig(roulette, law, n_probes, self.n_fixed)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


# dotted config key -> dataclass field, as declared on each field
KEY_TO_FIELD = {f.metadata["key"]: f.name for f in fields(TrainConfig)}

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


def config_from_mapping(mapping: dict[str, str]) -> TrainConfig:
    cfg = TrainConfig()
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

"""Maximum-likelihood training of a flow on 2D toy data.

The NLL gradient splits into two parts.  The pathwise part (base density
through the stack) is exact analytic backprop.  The log-determinant part
is where the estimators live: per block either the unbiased roulette
value paired with the Neumann-series gradient, the biased fixed
truncation differentiated term by term, or the dense exact oracle.  Both
parts propagate input cotangents upstream, so downstream blocks'
log-determinants correctly contribute gradient to upstream parameters.
In every mode the pathwise part rides the log-det's reverse pass
(``blocks.bilinear_param_grad``), the first one in biased and exact mode:
each block's route returns ``(values, terms, grads, input_grad)`` for its
output cotangent, so the backward sweep has one body.  The forward keeps
two arrays per hidden layer and block, in buffers reused from step to
step; the kernel weights and slopes the reverse pass reads are derived
from them one block at a time, right before that block's pass
(``blocks.derive_cache``).

In unbiased mode the draws and the Neumann series leave the backward
sweep: right after the forward the calling thread draws every block's
probes and truncations in the order the sweep meets the blocks, last
first, and queues each block's series in one ``blocks.series_worker``
scope; the series derives its own slopes, and the sweep waits for a
block's series only when it reaches that block, running the reverse
passes meanwhile.  Every output byte and the generator's final state are
those of the sequential sweep.  Biased and exact mode stay on the calling
thread.

The optimizer's variable is the unnormalized parameter vector ``V``, as
in spectral normalization: the model's weights are derived from it as
``W = V / max(1, ||V|| / coeff)`` (warm-started norm estimates), so the
model is inside the feasible set at every observable point, and the
weight gradient is chained back through the normalization factor, norm
included, by ``norms.lipschitz_constraint_vjp``.  Each step: gradient at
the current model, one Adam update of ``V`` with decoupled weight decay,
Polyak update of ``V``, then the weights derived from the new ``V``.
Evaluation constrains the Polyak average of ``V`` the same way, in the
run and when :func:`load_state_checkpoint` reads a run's checkpoint back.
"""

from __future__ import annotations

import json
import math
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from resflow.blocks import (
    BlockGrads,
    block_forward_cache,
    block_param_grad_of_output,  # noqa: F401 -- unused here, but the benchmark's tracer wraps this name
    param_count,
    param_vector,
    release_workspace,
    series_worker,
    set_param_vector,
)
from resflow.checkpoint import load_checkpoint, save_checkpoint
from resflow.config import (
    EVAL_HUTCHINSON,
    KEY_TO_FIELD,
    TrainConfig,
    config_from_mapping,
    config_to_mapping,
    write_config_file,
)
from resflow.data import Dataset2D, make_dataset
from resflow.errors import ConfigError, NonFiniteError
from resflow.flow import (
    ActNorm,
    FlowModel,
    ResidualBlock,
    actnorm_initialize,
    base_log_density,
    build_model,
    log_density_batch,
    set_identity_actnorms,
)
from resflow.logdet import (
    EstimatorConfig,
    RouletteDist,
    biased_value_and_grad_rows,
    exact_value_and_grad_rows,
    neumann_series_rows,
    roulette_value_and_neumann_grad_rows,
)
from resflow.norms import (
    apply_lipschitz_constraint,
    checkpoint_constraint,
    lipschitz_constraint_vjp,
)
from resflow.optim import AdamW, PolyakAverage

LN2 = math.log(2.0)

# added to the run's seed for the evaluation points' stream, so they never
# overlap training batches
EVAL_SEED_OFFSET = 777_001


def nats_to_bits(nats: float) -> float:
    return nats / LN2


def estimator_config_from(cfg: TrainConfig) -> EstimatorConfig:
    return EstimatorConfig(
        roulette=RouletteDist(q=cfg.q, n_exact=cfg.n_exact),
        hutchinson_dist=cfg.hutchinson,
        n_hutchinson=cfg.n_hutchinson,
        n_fixed=cfg.n_fixed,
    )


def eval_estimator_config_from(cfg: TrainConfig) -> EstimatorConfig:
    """Evaluation protocol: many leading terms, an unbiased tail, and
    ``eval_tail_samples`` probes per point of the law ``EVAL_HUTCHINSON``
    (``cfg.hutchinson`` sets the training probes only)."""
    return EstimatorConfig(
        roulette=RouletteDist(q=cfg.q, n_exact=cfg.eval_terms),
        hutchinson_dist=EVAL_HUTCHINSON,
        n_hutchinson=cfg.eval_tail_samples,
        n_fixed=cfg.n_fixed,
    )


# -- flat parameter packing --------------------------------------------------


class ParamPacker:
    """Maps the model's trainable arrays to one flat float64 vector.

    Layout per layer, in model order: an actnorm contributes
    ``[log_scale; shift]``, a residual block its ``blocks.param_vector``
    (weights, biases, activation parameters), the order its
    ``BlockGrads.vec`` shares.  :func:`nll_and_grad` lays each layer's
    gradient out the same way, so :meth:`pack_grads` is one concatenation.
    A training step copies through :meth:`pack_grads` and
    :meth:`set_vector`; :meth:`get_vector` runs only at set-up.  Cached
    power-iteration vectors are state, not parameters, and are not packed;
    an empty model packs to an empty vector.
    """

    def __init__(self, model: FlowModel):
        self.sizes = [
            2 * model.dim if isinstance(lay, ActNorm) else param_count(lay.params)
            for lay in model.layers
        ]
        self.total = int(sum(self.sizes))
        self.offsets = np.concatenate([[0], np.cumsum(self.sizes)]).astype(int)

    def get_vector(self, model: FlowModel) -> np.ndarray:
        parts = [
            np.concatenate([lay.log_scale, lay.shift]) if isinstance(lay, ActNorm)
            else param_vector(lay.params)
            for lay in model.layers
        ]
        return np.concatenate([np.zeros(0), *parts])

    def set_vector(self, model: FlowModel, vec: np.ndarray) -> None:
        d = model.dim
        for i, lay in enumerate(model.layers):
            chunk = vec[self.offsets[i] : self.offsets[i + 1]]
            if isinstance(lay, ActNorm):
                lay.log_scale = chunk[:d].copy()
                lay.shift = chunk[d:].copy()
            else:
                set_param_vector(lay.params, chunk)

    def pack_grads(self, model: FlowModel, grads: list) -> np.ndarray:
        parts = (g.vec if isinstance(g, BlockGrads) else g for g in grads)
        return np.concatenate([np.zeros(0), *parts])


# -- objective and gradient --------------------------------------------------


def nll_and_grad(
    model: FlowModel,
    X: np.ndarray,
    mode: str,
    est_cfg: EstimatorConfig | None = None,
    rng: np.random.Generator | None = None,
):
    """Mean NLL over the batch and its gradient in every parameter.

    Returns (loss, per-layer gradients, aux dict): an actnorm's is the flat
    ``[log_scale; shift]``, a block's a ``BlockGrads``.  ``mode`` is
    ``exact``, ``unbiased`` or ``biased``; stochastic modes draw one
    (probe, truncation) pair per sample and block, shared between the
    recorded value and the gradient.  Unbiased mode runs in one
    ``blocks.series_worker`` scope and queues every block's series on it.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if mode not in ("exact", "unbiased", "biased"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode != "exact" and (est_cfg is None or rng is None):
        raise ValueError(f"mode {mode!r} needs an estimator config and rng")
    n = X.shape[0]
    with series_worker() if mode == "unbiased" else nullcontext() as submit:
        # forward, keeping per-layer inputs and block caches; each block's (z, s)
        # stay in its own pool slot, reused from step to step
        inputs: list[np.ndarray] = []
        caches: list = []
        h = X
        for idx, lay in enumerate(model.layers):
            inputs.append(h)
            if isinstance(lay, ResidualBlock):
                g, cache = block_forward_cache(lay.params, h, slot=idx)
                caches.append(cache)
                h = h + g
            else:
                caches.append(None)
                h = lay.forward(h)
        z = h
        base = base_log_density(z)
        # each block's log-det route, called with the block's output cotangent
        # in the sweep.  In unbiased mode every block's draws are taken here, in
        # the sweep's order (last block first); its Neumann series, which reads
        # no cotangent, queues on the series worker, and the sweep waits for it
        # only at its block
        routes: list = [None] * len(model.layers)
        for idx in range(len(model.layers) - 1, -1, -1):
            if caches[idx] is None:
                continue
            block, x_in, cache = model.layers[idx].params, inputs[idx], caches[idx]
            if mode == "exact":
                routes[idx] = partial(exact_value_and_grad_rows, block, x_in, cache)
            elif mode == "unbiased":
                series = submit(neumann_series_rows(block, cache, est_cfg, rng, n * est_cfg.n_hutchinson))
                routes[idx] = partial(
                    roulette_value_and_neumann_grad_rows, block, x_in, est_cfg, rng, cache, series=series
                )
            else:
                routes[idx] = partial(biased_value_and_grad_rows, block, x_in, est_cfg, rng, cache)

        # backward sweep; cotangent of sum_i NLL_i w.r.t. the layer output
        cot = z.copy()
        inv_n = 1.0 / n
        logdet_sum = np.zeros(n)
        grads: list = [None] * len(model.layers)
        terms_mean = 0.0
        n_blocks = 0
        for idx in range(len(model.layers) - 1, -1, -1):
            lay = model.layers[idx]
            x_in = inputs[idx]
            if isinstance(lay, ActNorm):
                scale = np.exp(lay.log_scale)
                g_log_scale = (cot * x_in).sum(axis=0) * scale
                # log-det term of the objective: each sample adds -sum(log_scale)
                grads[idx] = np.concatenate([g_log_scale - n, cot.sum(axis=0)]) * inv_n
                logdet_sum += lay.logdet
                cot = cot * scale
                continue

            n_blocks += 1
            # the pathwise term rides the log-det's reverse pass: the gradients
            # of sum_i logdet_i - cot_i . g(x_i), then the batch mean of their negation
            values, terms, bg, ig = routes[idx](out_cot=-cot)
            bg.scale_(-inv_n)
            terms_mean += float(terms.mean())
            logdet_sum += values
            cot = cot - ig
            grads[idx] = bg

    loss = float(np.mean(-base - logdet_sum))
    aux = {
        "train_nll_nats": loss,
        "mean_terms": terms_mean / n_blocks if n_blocks else 0.0,
    }
    return loss, grads, aux


# -- training loop -----------------------------------------------------------


@dataclass
class TrainState:
    cfg: TrainConfig
    model: FlowModel
    dataset: Dataset2D
    eval_dataset: Dataset2D
    packer: ParamPacker
    opt: AdamW
    polyak: PolyakAverage
    est_cfg: EstimatorConfig
    rng_train: np.random.Generator
    rng_eval: np.random.Generator
    params: np.ndarray  # unnormalized V; the model holds its constrained image
    step: int = 0


def init_train_state(cfg: TrainConfig) -> TrainState:
    root = np.random.SeedSequence(cfg.seed)
    ss_init, ss_train, ss_eval = root.spawn(3)
    dataset = make_dataset(cfg.dataset, seed=cfg.seed)
    eval_dataset = make_dataset(cfg.dataset, seed=cfg.seed + EVAL_SEED_OFFSET)
    model = build_model(
        np.random.default_rng(ss_init),
        dim=2,
        n_blocks=cfg.blocks,
        hidden=cfg.hidden,
        coeff=cfg.lipschitz_coeff,
        norm_preset=cfg.norm_preset,
    )
    if cfg.actnorm_init == "data":
        actnorm_initialize(model, dataset.sample(cfg.batch_size))
    else:
        set_identity_actnorms(model)
    constrain_model(model, cfg)
    packer = ParamPacker(model)
    opt = AdamW(
        size=packer.total,
        lr=cfg.lr,
        beta1=cfg.adam_beta1,
        beta2=cfg.adam_beta2,
        eps=cfg.adam_eps,
        weight_decay=cfg.weight_decay,
    )
    return TrainState(
        cfg=cfg,
        model=model,
        dataset=dataset,
        eval_dataset=eval_dataset,
        packer=packer,
        opt=opt,
        polyak=PolyakAverage(decay=cfg.polyak_decay),
        est_cfg=estimator_config_from(cfg),
        rng_train=np.random.default_rng(ss_train),
        rng_eval=np.random.default_rng(ss_eval),
        params=packer.get_vector(model),
    )


def constrain_model(model: FlowModel, cfg: TrainConfig) -> list[list[float]]:
    norms = []
    for lay in model.layers:
        if isinstance(lay, ResidualBlock):
            norms.append(
                apply_lipschitz_constraint(
                    lay.params,
                    cfg.lipschitz_coeff,
                    tol=cfg.lipschitz_tol,
                    max_iters=cfg.lipschitz_max_iters,
                    max_iters_warm=cfg.lipschitz_max_iters_warm,
                )
            )
    return norms


def train_step(state: TrainState, batch: np.ndarray) -> dict:
    """One optimization step; returns the step's metrics record."""
    cfg = state.cfg
    mode = "unbiased" if cfg.estimator_kind == "unbiased" else "biased"
    loss, grads, aux = nll_and_grad(
        state.model, batch, mode, est_cfg=state.est_cfg, rng=state.rng_train
    )
    for lay, g in zip(state.model.layers, grads):
        if isinstance(lay, ResidualBlock):
            lipschitz_constraint_vjp(lay.params, g)
    flat_grad = state.packer.pack_grads(state.model, grads)
    if not np.isfinite(loss) or not np.all(np.isfinite(flat_grad)):
        raise NonFiniteError(
            f"non-finite loss or gradient at step {state.step}: "
            f"loss={loss}, |grad| finite={np.all(np.isfinite(flat_grad))}"
        )
    state.params = state.opt.step(state.params, flat_grad)
    state.polyak.update(state.params)
    state.packer.set_vector(state.model, state.params)
    norms = constrain_model(state.model, cfg)
    state.step += 1
    record = {
        "step": state.step,
        "train_nll_nats": loss,
        # not np.linalg.norm: a BLAS dot's summation order follows its thread split
        "grad_norm": float(np.sqrt(np.sum(flat_grad * flat_grad))),
        "mean_terms_evaluated": aux["mean_terms"],
        "layer_norms": norms,
    }
    return record


def _certified(model: FlowModel, packer: ParamPacker, vec: np.ndarray, coeff: float) -> FlowModel:
    """``model`` with ``vec`` laid over it and every block certified at ``coeff``."""
    packer.set_vector(model, vec)
    for lay in model.layers:
        if isinstance(lay, ResidualBlock):
            checkpoint_constraint(lay.params, coeff)
    return model


def eval_model(state: TrainState) -> FlowModel:
    """Polyak-averaged, fully constrained copy for evaluation.

    The copy keeps the run's power-iteration state, ``pi_scale`` included,
    which a checkpoint does not save; so the run evaluates this copy, not a
    saved and reloaded one.
    """
    vec = state.polyak.average(fallback=state.params)
    return _certified(state.model.copy(), state.packer, vec, state.cfg.lipschitz_coeff)


def eval_record(
    model: FlowModel, X: np.ndarray, mode: str, cfg: TrainConfig, rng: np.random.Generator
) -> dict:
    """Mean NLL of ``model`` over the rows of ``X``, as an evaluation record.

    ``mode='exact'`` uses the dense oracle; ``mode='estimator'`` uses the
    evaluation protocol of :func:`eval_estimator_config_from` (eval_terms
    leading terms, unbiased tail, eval_tail_samples Rademacher probes per
    point) with ``rng``.
    """
    if mode == "exact":
        _, logp, mean_terms = log_density_batch(model, X, mode="exact")
    elif mode == "estimator":
        _, logp, mean_terms = log_density_batch(
            model, X, mode="unbiased", cfg=eval_estimator_config_from(cfg), rng=rng
        )
    else:
        raise ValueError(f"unknown eval mode {mode!r}")
    nll = float(np.mean(-logp))
    return {
        "eval_mode": mode,
        "eval_nll_nats": nll,
        "eval_nll_bits": nats_to_bits(nll),
        "eval_nll_se_nats": float(np.std(-logp, ddof=1) / np.sqrt(len(logp))),
        "eval_mean_terms": mean_terms,
        "n_eval": len(X),
    }


def evaluate(state: TrainState, mode: str = "exact") -> dict:
    """Mean NLL of the Polyak model over ``train.n_eval`` fresh dataset
    samples, with the step; ``mode`` as in :func:`eval_record`."""
    cfg = state.cfg
    model = eval_model(state)
    X = state.eval_dataset.sample(cfg.n_eval)
    return {"step": state.step, **eval_record(model, X, mode, cfg, state.rng_eval)}


def fit(cfg: TrainConfig, out_dir: str | Path, progress: bool = False) -> TrainState:
    """Full training run, writing metrics, config echo, and checkpoints."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_config_file(cfg, out / "config.txt")
    state = init_train_state(cfg)
    metrics_path = out / "metrics.jsonl"
    with metrics_path.open("w") as fh:
        fh.write(json.dumps(evaluate(state), sort_keys=True) + "\n")
        for _ in range(cfg.steps):
            batch = state.dataset.sample(cfg.batch_size)
            record = train_step(state, batch)
            if state.step % cfg.eval_every == 0 or state.step == cfg.steps:
                record.update(evaluate(state))
            fh.write(json.dumps(record, sort_keys=True) + "\n")
            if progress and state.step % 50 == 0:
                import sys

                print(
                    f"step {state.step}/{cfg.steps} nll={record['train_nll_nats']:.4f}",
                    file=sys.stderr,
                )
            if cfg.checkpoint_every and state.step % cfg.checkpoint_every == 0:
                save_state_checkpoint(state, out / f"checkpoint_step{state.step}.txt")
    save_state_checkpoint(state, out / "checkpoint_final.txt")
    release_workspace()
    return state


def save_state_checkpoint(state: TrainState, path: str | Path) -> None:
    meta = dict(config_to_mapping(state.cfg))
    meta["step"] = str(state.step)
    meta["polyak.count"] = str(state.polyak.count)
    arrays = {}
    if state.polyak.shadow is not None:
        arrays["polyak.shadow"] = state.polyak.shadow
    save_checkpoint(path, state.model, meta=meta, arrays=arrays)


def load_state_checkpoint(path: str | Path) -> tuple[FlowModel, TrainConfig]:
    """The evaluation model of a :func:`save_state_checkpoint` file, and its
    run's config.

    The model is the Polyak average of ``V`` (the saved weights when the
    file has no average) with every block certified, as :func:`eval_model`
    builds it in the run.  Metadata that does not make a valid config or
    average is a ``ConfigError``.
    """
    model, meta, arrays = load_checkpoint(path)
    try:
        cfg = config_from_mapping({k: v for k, v in meta.items() if k in KEY_TO_FIELD})
    except ConfigError as exc:
        raise ConfigError(f"checkpoint {path}: {exc}") from exc
    packer = ParamPacker(model)
    shadow = arrays.get("polyak.shadow")
    count = meta.get("polyak.count", "0") if shadow is not None else "0"
    if not count.isdigit() or (int(count) and shadow.size != packer.total):
        raise ConfigError(f"checkpoint {path} holds a bad Polyak average (count {count!r})")
    polyak = PolyakAverage(decay=cfg.polyak_decay, shadow=shadow, count=int(count))
    vec = polyak.average(fallback=packer.get_vector(model))
    return _certified(model, packer, vec, cfg.lipschitz_coeff), cfg


def gaussian_fit_nll(X: np.ndarray) -> float:
    """Mean NLL of the moment-matched Gaussian on its own fitting sample.

    The floor any sensible trained model should beat on multimodal data.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    n, d = X.shape
    mu = X.mean(axis=0)
    cov = np.cov(X.T, bias=True)
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0:
        raise ValueError("degenerate sample covariance")
    # mean Mahalanobis term of the fitting sample is exactly d
    return float(0.5 * d * np.log(2.0 * np.pi) + 0.5 * logdet + 0.5 * d)

"""The benchmark's three workloads.

Every workload is a closed loop: one process, one client thread, BLAS
pinned to one thread.  The next op starts only when the previous one has
finished.  Each op pushes a few hundred rows through every block.  All
inputs (model, data batches, eval points, base draws, RNG streams) are
made from the workload seed during set-up, before any timing, and the
program receives only those inputs.

Why these three: they use the ``blocks`` kernels in three different ways
(backward with gradients, forward JVP chains without gradients, and
forward-only fixed-point iteration), so a change to one layer has a
workload that exercises it and one that bypasses it.  ``norms`` and
``optim`` run only in ``train``; the stochastic ``logdet`` series runs in
``train`` and ``estimator_eval`` but not in ``sample``.

Left out: the biased-training ablation and the 7-minute test suite; neither
is a user workload that can run many times per check.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from resflow import flow, train
from resflow.config import TrainConfig
from resflow.data import make_dataset
from resflow.errors import ContractivityError, NonFiniteError
from resflow.flow import ActNorm, FlowModel, ResidualBlock
from resflow.logdet import EstimatorConfig
from resflow.norms import init_block_params

# Acceptance training config: the Tier-1 acceptance run's optimizer settings
# on top of the TrainConfig defaults (10 blocks, hidden 128, spectral norm,
# coeff 0.98, unbiased estimator).
TRAIN_LR = 0.05
TRAIN_ADAM_BETA2 = 0.999

ESTIMATOR_SE_LIMIT = 5.0
RECONSTRUCTION_TOL = 1e-8


@dataclass(frozen=True)
class Profile:
    """Input sizes and run shape.  ``FULL`` is the benchmark; ``SMOKE`` is
    the tiny version the self-test runs."""

    blocks: int = 10
    hidden: int = 128
    train_batch: int = 512
    eval_points: int = 50
    sample_points: int = 256
    pool: int = 40  # distinct input chunks; ops cycle through them
    warmup_ops: int = 2
    setup_repeats: int = 5
    min_ops: int = 100  # p90 needs at least 100 samples
    compare_ops: int = 20  # untraced ops matched against traced ones
    mem_ops: int = 3  # ops run under tracemalloc


FULL = Profile()
SMOKE = Profile(
    blocks=2,
    hidden=16,
    train_batch=32,
    eval_points=8,
    sample_points=16,
    pool=4,
    warmup_ops=1,
    setup_repeats=2,
    min_ops=6,
    compare_ops=3,
    mem_ops=1,
)


@dataclass
class Context:
    """Everything set-up made for one run."""

    inputs: list[np.ndarray]
    digest: str
    state: object = None  # train.TrainState for the train workload
    model: FlowModel | None = None
    rng: np.random.Generator | None = None
    est_cfg: EstimatorConfig | None = None
    reference: dict = field(default_factory=dict)  # per-chunk exact log-density


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.float64)
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _bound_model(seed_seq: np.random.SeedSequence, profile: Profile) -> FlowModel:
    """Identity actnorms around branches whose weights sit at the Lipschitz
    bound, as a trained model's do; this sets the Picard iteration count."""
    rng = np.random.default_rng(seed_seq)
    layers: list = [ActNorm.identity(2)]
    for _ in range(profile.blocks):
        params = init_block_params(rng, 2, hidden=profile.hidden, init_norm_fraction=1.0)
        layers += [ResidualBlock(params), ActNorm.identity(2)]
    return FlowModel(dim=2, layers=layers)


def _model_vector(model: FlowModel) -> list[np.ndarray]:
    return [lay.weight for block in model.blocks() for lay in block.params.layers]


class Train:
    """One op is ``train.train_step`` on a 512-row checkerboard batch.

    Why: training is the user's main cost.  Most of a step goes to the
    ``blocks`` bilinear and VJP kernels and ``logdet``'s Neumann chain, and
    this is the only workload that runs ``norms`` and ``optim``.
    """

    name = "train"
    failures = (NonFiniteError,)

    def rows_per_op(self, profile: Profile) -> int:
        return profile.train_batch

    def setup(self, seed: int, profile: Profile) -> Context:
        cfg = TrainConfig(
            seed=seed,
            blocks=profile.blocks,
            hidden=profile.hidden,
            batch_size=profile.train_batch,
            lr=TRAIN_LR,
            adam_beta2=TRAIN_ADAM_BETA2,
        )
        state = train.init_train_state(cfg)
        batches = [state.dataset.sample(cfg.batch_size) for _ in range(profile.pool)]
        digest = _digest(batches + [state.packer.get_vector(state.model)])
        return Context(inputs=batches, digest=digest, state=state)

    def op(self, ctx: Context, i: int):
        return train.train_step(ctx.state, ctx.inputs[i % len(ctx.inputs)])

    def check(self, ctx: Context, i: int, out) -> bool:
        """Finite loss, and every layer norm within coeff * (1 + tol)."""
        cfg = ctx.state.cfg
        limit = cfg.lipschitz_coeff * (1.0 + cfg.lipschitz_tol)
        norms = np.array(out["layer_norms"], dtype=np.float64)
        return bool(np.isfinite(out["train_nll_nats"]) and np.all(norms <= limit))

    def corrupt(self, out):
        return dict(out, layer_norms=[[2.0] * len(n) for n in out["layer_norms"]])


class EstimatorEval:
    """One op is ``flow.log_density_batch(mode="unbiased")`` on 50 eval
    points, with the evaluation protocol of ``eval_estimator_config_from``
    (20 leading terms, 10 probes per point: 500 probe rows).

    Why: the costliest user path, about 50x exact evaluation.  It runs the
    JVP value chain and ``logdet``'s sort/permute/prefix active-set copies,
    with no gradients, ``norms`` or ``optim``.
    """

    name = "estimator_eval"
    failures = (NonFiniteError,)

    def rows_per_op(self, profile: Profile) -> int:
        return profile.eval_points

    def setup(self, seed: int, profile: Profile) -> Context:
        ss_model, ss_rng = np.random.SeedSequence(seed).spawn(2)
        model = _bound_model(ss_model, profile)
        points = make_dataset("checkerboard", seed=seed).sample(profile.pool * profile.eval_points)
        chunks = list(points.reshape(profile.pool, profile.eval_points, 2))
        return Context(
            inputs=chunks,
            digest=_digest(chunks + _model_vector(model)),
            model=model,
            rng=np.random.default_rng(ss_rng),
            est_cfg=train.eval_estimator_config_from(TrainConfig()),
        )

    def op(self, ctx: Context, i: int):
        _, logp, _ = flow.log_density_batch(
            ctx.model, ctx.inputs[i % len(ctx.inputs)], mode="unbiased", cfg=ctx.est_cfg, rng=ctx.rng
        )
        return logp

    def check(self, ctx: Context, i: int, logp) -> bool:
        """The chunk's mean log-density lies within 5 standard errors of the
        exact log-density of the same points."""
        chunk = i % len(ctx.inputs)
        if chunk not in ctx.reference:
            _, exact, _ = flow.log_density_batch(ctx.model, ctx.inputs[chunk], mode="exact")
            ctx.reference[chunk] = exact
        diff = logp - ctx.reference[chunk]
        if not np.all(np.isfinite(diff)):
            return False
        se = np.std(diff, ddof=1) / np.sqrt(diff.size)
        return bool(abs(diff.mean()) <= ESTIMATOR_SE_LIMIT * se)

    def corrupt(self, logp):
        return logp + 1e3


class Sample:
    """One op is ``flow.inverse`` on 256 base draws, then
    ``flow.log_density_batch(mode="exact")`` on the result.

    Why: this path uses ``blocks`` forward-only with no cache, through
    Picard iteration, plus the dense exact oracle.  No stochastic ``logdet``
    runs, so a change to the series engine should move nothing here.
    """

    name = "sample"
    failures = (ContractivityError, NonFiniteError)

    def rows_per_op(self, profile: Profile) -> int:
        return profile.sample_points

    def setup(self, seed: int, profile: Profile) -> Context:
        ss_model, ss_draws = np.random.SeedSequence(seed).spawn(2)
        model = _bound_model(ss_model, profile)
        draws = np.random.default_rng(ss_draws).standard_normal(
            (profile.pool, profile.sample_points, 2)
        )
        chunks = list(draws)
        return Context(inputs=chunks, digest=_digest(chunks + _model_vector(model)), model=model)

    def op(self, ctx: Context, i: int):
        x, _ = flow.inverse(ctx.model, ctx.inputs[i % len(ctx.inputs)], return_residuals=True)
        _, logp, _ = flow.log_density_batch(ctx.model, x, mode="exact")
        return x, logp

    def check(self, ctx: Context, i: int, out) -> bool:
        """``flow.transform`` gives back the base draws within 1e-8, and the
        exact log-density is finite."""
        x, logp = out
        z = ctx.inputs[i % len(ctx.inputs)]
        err = np.max(np.abs(flow.transform(ctx.model, x) - z))
        return bool(err <= RECONSTRUCTION_TOL and np.all(np.isfinite(logp)))

    def corrupt(self, out):
        x, logp = out
        return x + 1.0, logp


WORKLOADS = {wl.name: wl for wl in (Train(), EstimatorEval(), Sample())}

"""Invertible flow built from residual blocks and actnorm layers.

The map ``f`` is an ordered stack of layers applied left to right; the
model density against a standard-normal base follows the change of
variables identity: ``log p(x) = log p_base(f(x)) + sum of per-layer
log-determinants``.  Residual blocks contribute ``log det(I + J_g)``
(exact oracle or stochastic estimate, per evaluation mode), actnorm
layers contribute the sum of their log scales.

:func:`log_density_batch` is the one density route, for any number of
rows (a single point is a one-row batch): it takes each block's
log-determinant and output from ``logdet.exact_logdet`` or
``roulette_logdet_rows``, whose forward already computes ``g``.  In
unbiased mode the calling thread makes every block's draws, forward and
slopes in layer order, inside one ``blocks.series_worker`` scope, and
hands every other block's series to the worker, one at a time, while it
runs the others itself; the log-determinants are added in layer order
once all have arrived, so the bytes are those of one thread.  Exact mode,
:func:`inverse` and :func:`sample` start no thread.
:func:`transform` applies ``f`` alone; :func:`inverse` is plain
fixed-point iteration ``x <- z - g(x)``, which converges geometrically
because every branch is a contraction, and :func:`sample` pulls base
draws back through it.
"""

from __future__ import annotations

import warnings
from concurrent.futures import Future
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from resflow.blocks import BlockParams, block_forward, series_worker
from resflow.errors import ContractivityError, InitializationError, NonFiniteError, ShapeError
from resflow.logdet import EstimatorConfig, exact_logdet, roulette_logdet_rows

LOG_TWO_PI = float(np.log(2.0 * np.pi))

ACTNORM_VARIANCE_FLOOR = 1e-6


@dataclass
class ActNorm:
    """Per-dimension affine layer ``y = exp(log_scale) * x + shift``.

    Scales live in log space, so they are strictly positive by
    construction and the layer's log-determinant is just
    ``sum(log_scale)``.  Initialization is data dependent: the first
    batch fixes scale and shift so the layer's outputs are standardized.
    """

    log_scale: np.ndarray
    shift: np.ndarray
    initialized: bool = False

    @staticmethod
    def identity(dim: int) -> "ActNorm":
        return ActNorm(log_scale=np.zeros(dim), shift=np.zeros(dim), initialized=True)

    @staticmethod
    def uninitialized(dim: int) -> "ActNorm":
        return ActNorm(log_scale=np.zeros(dim), shift=np.zeros(dim), initialized=False)

    def initialize_from(self, batch: np.ndarray) -> None:
        batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
        mean = batch.mean(axis=0)
        var = batch.var(axis=0)
        if np.any(var < ACTNORM_VARIANCE_FLOOR):
            warnings.warn(
                "actnorm initialization hit the variance floor; "
                "a data dimension is (nearly) constant",
                stacklevel=2,
            )
            var = np.maximum(var, ACTNORM_VARIANCE_FLOOR)
        std = np.sqrt(var)
        self.log_scale = -np.log(std)
        self.shift = -mean / std
        self.initialized = True

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.initialized:
            raise InitializationError("actnorm used before data-dependent initialization")
        return np.exp(self.log_scale) * x + self.shift

    def inverse(self, y: np.ndarray) -> np.ndarray:
        if not self.initialized:
            raise InitializationError("actnorm used before data-dependent initialization")
        # in place: a freed temporary beside a result the caller keeps (a
        # sample) leaves a hole in the heap that later allocations step over
        x = y - self.shift
        x *= np.exp(-self.log_scale)
        return x

    @property
    def logdet(self) -> float:
        return float(np.sum(self.log_scale))

    def copy(self) -> "ActNorm":
        return ActNorm(self.log_scale.copy(), self.shift.copy(), self.initialized)


@dataclass
class ResidualBlock:
    """One invertible unit ``y = x + g(x)`` wrapping branch parameters."""

    params: BlockParams

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x + block_forward(self.params, x)

    def copy(self) -> "ResidualBlock":
        return ResidualBlock(params=self.params.copy())


@dataclass
class FlowModel:
    dim: int
    layers: list

    def validate(self) -> None:
        for layer in self.layers:
            if isinstance(layer, ResidualBlock):
                if layer.params.dim != self.dim:
                    raise ShapeError("block dimension does not match model")
            elif isinstance(layer, ActNorm):
                if layer.log_scale.shape != (self.dim,):
                    raise ShapeError("actnorm dimension does not match model")
            else:
                raise ShapeError(f"unknown layer type {type(layer)!r}")

    def blocks(self) -> list[ResidualBlock]:
        return [lay for lay in self.layers if isinstance(lay, ResidualBlock)]

    def copy(self) -> "FlowModel":
        return FlowModel(dim=self.dim, layers=[lay.copy() for lay in self.layers])


def base_log_density(z: np.ndarray) -> np.ndarray:
    """Standard-normal log density, summed over the last axis."""
    z = np.asarray(z, dtype=np.float64)
    d = z.shape[-1]
    out = np.sum(z * z, axis=-1)  # in place, as in ActNorm.inverse
    out *= -0.5
    out += -0.5 * d * LOG_TWO_PI
    return out


def build_model(
    rng: np.random.Generator,
    dim: int = 2,
    n_blocks: int = 10,
    hidden: int = 128,
    n_layers: int = 3,
    coeff: float = 0.98,
    norm_preset: str = "spectral",
    actnorm: bool = True,
) -> FlowModel:
    """Fresh model: leading actnorm, then (block, actnorm) pairs.

    Actnorms start uninitialized; run :func:`actnorm_initialize` on a data
    batch (or :func:`set_identity_actnorms` for synthetic models) before
    evaluating densities.  Block weights come out of ``init_block_params``
    already inside the constraint set.
    """
    from resflow.norms import init_block_params

    layers: list = []
    if actnorm:
        layers.append(ActNorm.uninitialized(dim))
    for _ in range(n_blocks):
        layers.append(
            ResidualBlock(
                params=init_block_params(
                    rng, dim, hidden=hidden, n_layers=n_layers, coeff=coeff,
                    norm_preset=norm_preset,
                )
            )
        )
        if actnorm:
            layers.append(ActNorm.uninitialized(dim))
    return FlowModel(dim=dim, layers=layers)


def set_identity_actnorms(model: FlowModel) -> FlowModel:
    for lay in model.layers:
        if isinstance(lay, ActNorm) and not lay.initialized:
            lay.log_scale = np.zeros(model.dim)
            lay.shift = np.zeros(model.dim)
            lay.initialized = True
    return model


def actnorm_initialize(model: FlowModel, batch: np.ndarray) -> FlowModel:
    """Data-dependent init: each actnorm standardizes its input batch.

    Layers run in order, so every actnorm sees the batch as transformed
    by everything before it.  Mutates the model in place.
    """
    batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    if batch.shape[0] < 1:
        raise ValueError("actnorm initialization needs a nonempty batch")
    h = batch
    for lay in model.layers:
        if isinstance(lay, ActNorm):
            if not lay.initialized:
                lay.initialize_from(h)
            h = lay.forward(h)
        else:
            h = lay.forward(h)
    return model


def log_density_batch(
    model: FlowModel,
    X: np.ndarray,
    mode: str = "exact",
    cfg: EstimatorConfig | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Density evaluation over rows of ``X``.

    ``mode`` selects the per-block log-determinant route: ``exact``
    (dense oracle, small d) or ``unbiased`` (roulette estimate, which
    needs ``cfg`` and ``rng``).  Returns (transformed points, per-row log
    density in nats, mean number of series terms per residual block and
    row; 0.0 in exact mode).
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != model.dim:
        raise ShapeError(f"expected points of dim {model.dim}")
    if mode not in ("exact", "unbiased"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "unbiased" and (cfg is None or rng is None):
        raise ValueError("mode 'unbiased' needs an estimator config and rng")
    h = X
    terms_total = 0.0
    n_blocks = 0
    parts: list = []  # each layer's log-determinant, in layer order
    job = None  # the worker's latest
    with series_worker() if mode == "unbiased" else nullcontext() as submit:
        for lay in model.layers:
            if isinstance(lay, ActNorm):
                parts.append(lay.logdet)
                h = lay.forward(h)
                continue
            # each route hands back the g(h) of its own forward
            if mode == "exact":
                vals, g = exact_logdet(lay.params, h, with_output=True)
            else:
                # the draws, forward and slopes here, in layer order; the series
                # of every other block on the worker, the rest on this thread
                series, terms, g = roulette_logdet_rows(lay.params, h, cfg, rng)
                if n_blocks % 2:
                    vals = series()
                else:
                    if job is not None:
                        job.result()  # one series on the worker at a time
                    vals = job = submit(series)
                del series  # the block's slopes go once its series is done, not a block later
                terms_total += float(terms.mean())
            n_blocks += 1
            parts.append(vals)
            g += h  # in place, as in ActNorm.inverse
            h = g
        logp = base_log_density(h)
        logdet = np.zeros(X.shape[0])
        for part in parts:  # in layer order, once the worker's have arrived
            logdet += part.result() if isinstance(part, Future) else part
    logp += logdet
    mean_terms = terms_total / n_blocks if (n_blocks and mode != "exact") else 0.0
    return h, logp, mean_terms


def transform(model: FlowModel, X: np.ndarray) -> np.ndarray:
    """Apply f to rows of X without any density bookkeeping."""
    h = np.atleast_2d(np.asarray(X, dtype=np.float64))
    for lay in model.layers:
        h = lay.forward(h)
    return h


def inverse(
    model: FlowModel,
    z: np.ndarray,
    tol: float = 1e-10,
    max_iters: int = 200,
    return_residuals: bool = False,
):
    """Invert the flow by per-block fixed-point iteration.

    Each residual block solves ``x = z - g(x)`` by Picard iteration from
    ``x0 = z`` until the update norm drops below ``tol``; actnorms invert
    in closed form.  Because Lip(g) < 1 the iteration contracts
    geometrically; running out of iterations signals a constraint
    violation.  With ``return_residuals`` the per-iteration update norms
    of every block come back for convergence diagnostics.
    """
    z = np.asarray(z, dtype=np.float64)
    single = z.ndim == 1
    h = np.atleast_2d(z)
    if h.shape[1] != model.dim:
        raise ShapeError(f"expected points of dim {model.dim}")
    residual_log: list[list[float]] = []
    for pos, lay in reversed(list(enumerate(model.layers))):
        if isinstance(lay, ActNorm):
            h = lay.inverse(h)
            continue
        target = x = h
        block_res: list[float] = []
        step = float("nan")
        for _ in range(max_iters):
            x_next = target - block_forward(lay.params, x)
            step = float(np.max(np.sqrt(np.sum((x_next - x) ** 2, axis=1))))
            block_res.append(step)
            x = x_next
            if step < tol:
                break
        else:
            raise ContractivityError(
                f"fixed-point inversion of layer {pos} did not reach tol={tol} in "
                f"{max_iters} iterations; last update norm {step!r}"
            )
        residual_log.append(block_res)
        h = x
    out = h[0] if single else h
    if return_residuals:
        return out, residual_log
    return out


def sample(model: FlowModel, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw base-normal points and pull them back through the inverse."""
    if n < 0:
        raise ValueError("n must be non-negative")
    z = rng.standard_normal((n, model.dim))
    if n == 0:
        return z
    x = inverse(model, z)
    if not np.all(np.isfinite(x)):
        raise NonFiniteError("sampling produced non-finite points")
    return x

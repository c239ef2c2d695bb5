"""Induced matrix norms and the Lipschitz weight constraint.

A residual block stays invertible when its branch is a contraction.  We
bound the branch Jacobian through sub-multiplicativity: every weight
matrix is rescaled so its induced ``(p_in -> p_out)`` operator norm is at
most a coefficient below 1, with the per-layer norm orders chaining so
the whole branch maps back into its input normed space.

Norms for ``p in {1, inf}`` are exact row/column sums.  Everything else
uses a generalized power iteration (dual-norm ascent, reducing to the
classic iteration at ``p = q = 2``) whose estimate is a lower bound of
the true norm; following standard spectral-normalization practice the
estimate is treated as the norm when rescaling.  Iteration counts are
adaptive: warm-started states converge in a couple of steps after small
weight updates.

Training follows spectral normalization (Miyato et al.; i-ResNet and
Residual Flows use it the same way): the optimizer owns a free matrix
``V`` and the model uses ``W = V / max(1, ||V|| / coeff)``.  The backward
pass goes through the norm, with the power-iteration vectors held fixed,
via :func:`lipschitz_constraint_vjp`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from resflow.blocks import BlockGrads, BlockParams, LayerParams
from resflow.errors import NormalizationError, ShapeError

EXACT_ORDERS = {(1.0, 1.0), (np.inf, np.inf)}

NORM_PRESETS = {"spectral": 2.0, "inf": np.inf, "one": 1.0}


@dataclass
class NormSpec:
    """How to measure one layer's induced norm."""

    p_in: float
    p_out: float
    method: str = "power-iteration"  # or "exact"
    tol: float = 1e-3
    max_iters: int = 200
    max_iters_warm: int = 10

    def __post_init__(self) -> None:
        if not (1.0 <= self.p_in <= np.inf and 1.0 <= self.p_out <= np.inf):
            raise ValueError("norm orders must lie in [1, inf]")
        if self.method == "exact" and (self.p_in, self.p_out) not in EXACT_ORDERS:
            raise ValueError(
                f"exact method only for p in {{1, inf}} with p_in == p_out, "
                f"got ({self.p_in}, {self.p_out})"
            )
        if self.method not in ("exact", "power-iteration"):
            raise ValueError(f"unknown method {self.method!r}")


@dataclass
class PowerIterState:
    """Warm-startable iterate for one weight matrix."""

    u: np.ndarray
    last_estimate: float | None = None
    iters_used: int = 0


def vector_norm(x: np.ndarray, p: float) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if p == np.inf:
        return np.max(np.abs(x), axis=-1)
    if p == 1.0:
        return np.sum(np.abs(x), axis=-1)
    return np.sum(np.abs(x) ** p, axis=-1) ** (1.0 / p)


def dual_exponent(p: float) -> float:
    if p == 1.0:
        return np.inf
    if p == np.inf:
        return 1.0
    return p / (p - 1.0)


def _dual_direction(y: np.ndarray, p: float) -> np.ndarray:
    """Gradient direction of the p-norm: sign(y) |y|^(p-1), unnormalized."""
    return np.sign(y) * np.abs(y) ** (p - 1.0)


def exact_induced_norm(W: np.ndarray, p: float) -> float:
    """Closed-form induced norm for p = 1 (max column abs sum) or inf (max row abs sum)."""
    W = np.asarray(W, dtype=np.float64)
    if not np.all(np.isfinite(W)):
        raise ValueError("matrix must be finite")
    if p == 1.0:
        return float(np.max(np.sum(np.abs(W), axis=0), initial=0.0))
    if p == np.inf:
        return float(np.max(np.sum(np.abs(W), axis=1), initial=0.0))
    raise ValueError(f"exact induced norm only available for p in {{1, inf}}, got {p}")


def cold_start_vector(shape: tuple[int, int], p_in: float) -> np.ndarray:
    """Deterministic, generic starting iterate for a matrix of this shape."""
    rng = np.random.default_rng(np.random.SeedSequence([shape[0], shape[1], 9241]))
    u = rng.standard_normal(shape[1])
    return u / vector_norm(u, p_in)


def adaptive_iters_policy(state: PowerIterState | None, spec: NormSpec) -> int:
    """Iteration budget for this call: full on a cold start, short when warm."""
    if state is None or state.last_estimate is None:
        return spec.max_iters
    return spec.max_iters_warm


def mixed_norm_power_iteration(
    W: np.ndarray, spec: NormSpec, state: PowerIterState | None = None
) -> tuple[float, PowerIterState]:
    """Estimate ``||W||_{p_in -> p_out}`` by dual-norm power iteration.

    Each step maps the iterate through W, takes the dual direction of the
    output norm, maps back through W^T, and takes the dual direction of
    the input norm; for ``p_in = p_out = 2`` this is the standard power
    iteration on W^T W.  Stops when the relative change of the estimate
    drops below ``spec.tol`` or the adaptive budget is exhausted.  The
    estimate is a lower bound of the true norm; it is deterministic given
    (W, state).
    """
    W = np.asarray(W, dtype=np.float64)
    if W.ndim != 2:
        raise ShapeError("power iteration expects a matrix")
    p, q = spec.p_in, spec.p_out
    if not (1.0 < p < np.inf and 1.0 < q < np.inf):
        raise ValueError("power iteration requires 1 < p_in, p_out < inf")
    if not W.any():
        u = cold_start_vector(W.shape, p) if state is None else state.u
        return 0.0, PowerIterState(u=u, last_estimate=0.0, iters_used=0)

    x = cold_start_vector(W.shape, p) if state is None else state.u.copy()
    prev = None if state is None else state.last_estimate
    budget = adaptive_iters_policy(state, spec)
    p_dual = dual_exponent(p)
    est = 0.0
    iters = 0
    for iters in range(1, budget + 1):
        y = W @ x
        est = float(vector_norm(y, q))
        if est == 0.0:
            # iterate fell into the nullspace; restart from a generic vector
            x = cold_start_vector(W.shape, p)
            prev = None
            continue
        z = _dual_direction(y, q)
        w = W.T @ z
        wn = vector_norm(w, p_dual)
        if wn > 0:
            x = _dual_direction(w, p_dual)
            x = x / vector_norm(x, p)
        if prev is not None and abs(est - prev) <= spec.tol * max(est, 1e-300):
            break
        prev = est
    return est, PowerIterState(u=x, last_estimate=est, iters_used=iters)


def induced_norm_for_layer(
    lay: LayerParams, tol: float = 1e-3, max_iters: int = 200, max_iters_warm: int = 10
) -> float:
    """Measure one layer's induced norm, maintaining its cached iterate."""
    p_in, p_out = lay.norm_in, lay.norm_out
    if (p_in, p_out) in EXACT_ORDERS:
        est = exact_induced_norm(lay.weight, p_in)
        lay.pi_estimate = est
        lay.pi_iters_used = 0
        return est
    spec = NormSpec(
        p_in=p_in, p_out=p_out, tol=tol, max_iters=max_iters, max_iters_warm=max_iters_warm
    )
    state = None
    if lay.pi_u is not None:
        # after a rescale pi_estimate is coeff; the free matrix measured pi_scale times that
        last = None if lay.pi_estimate is None else lay.pi_estimate * lay.pi_scale
        state = PowerIterState(u=lay.pi_u, last_estimate=last)
    est, new_state = mixed_norm_power_iteration(lay.weight, spec, state)
    lay.pi_u = new_state.u
    lay.pi_estimate = est
    lay.pi_iters_used = new_state.iters_used
    return est


def check_coeff(coeff: float) -> None:
    """Every block is a contraction only for a coefficient in (0, 1)."""
    if not (0.0 < coeff < 1.0):
        raise ValueError(f"lipschitz coefficient must be in (0, 1), got {coeff}")


def apply_lipschitz_constraint(
    params: BlockParams,
    coeff: float = 0.98,
    tol: float = 1e-3,
    max_iters: int = 200,
    max_iters_warm: int = 10,
) -> list[float]:
    """Rescale every weight so its induced norm is at most ``coeff``.

    Each weight ``V`` becomes ``W = V / f`` with ``f = max(1, ||V|| / coeff)``;
    biases and the activation parameters are untouched.  The product of
    per-layer norms then bounds Lip(g) by ``coeff ** n_layers < 1``.
    Mutates ``params`` in place, records ``f`` as the layer's ``pi_scale``
    for :func:`lipschitz_constraint_vjp`, and returns the per-layer norms
    after rescaling.  Training applies this to the optimizer's free
    weights at every step and differentiates through ``f``, as spectral
    normalization does, rather than projecting the optimizer's own
    variables.  A zero norm estimate for a nonzero matrix is treated as a
    bug, not handled silently.
    """
    check_coeff(coeff)
    params.validate()
    reported = []
    for lay in params.layers:
        est = induced_norm_for_layer(
            lay, tol=tol, max_iters=max_iters, max_iters_warm=max_iters_warm
        )
        lay.pi_scale = 1.0
        if est == 0.0:
            if lay.weight.any():
                raise NormalizationError(
                    "norm estimate is zero for a nonzero weight matrix"
                )
            reported.append(0.0)
            continue
        if est > coeff:
            lay.weight *= coeff / est
            lay.pi_scale = est / coeff
            # the estimate scales exactly with the matrix
            est = coeff
            lay.pi_estimate = est
        reported.append(est)
    return reported


def norm_gradient(lay: LayerParams) -> np.ndarray:
    """Gradient of the layer's induced norm at its current weight.

    Spectral: ``u v^T`` with ``v`` the cached power-iteration vector and
    ``u = W v / ||W v||``.  ``inf`` / ``1``: the sign pattern of the row /
    column with the largest absolute sum (a subgradient where that row or
    column is not unique).  All three are invariant to rescaling ``W``.
    """
    W = lay.weight
    orders = (lay.norm_in, lay.norm_out)
    if orders == (2.0, 2.0):
        Wv = W @ lay.pi_u
        return np.outer(Wv / np.linalg.norm(Wv), lay.pi_u)
    grad = np.zeros_like(W)
    if orders == (np.inf, np.inf):
        row = int(np.argmax(np.abs(W).sum(axis=1)))
        grad[row] = np.sign(W[row])
    elif orders == (1.0, 1.0):
        col = int(np.argmax(np.abs(W).sum(axis=0)))
        grad[:, col] = np.sign(W[:, col])
    else:
        raise ValueError(f"no norm gradient for induced norm orders {orders}")
    return grad


def lipschitz_constraint_vjp(params: BlockParams, grads: BlockGrads) -> BlockGrads:
    """Chain weight gradients back through the last constraint application.

    With ``W = V / f``, ``f = ||V|| / coeff`` and ``G = dL/dW``, the free
    weight's gradient is ``dL/dV = G / f - (<G, W> / ||V||) d||V||/dV``,
    where ``d||V||/dV`` is :func:`norm_gradient` (power-iteration vectors
    held fixed, as spectral normalization does).  Layers the constraint
    left alone (``f = 1``) pass ``G`` through.  Overwrites the weight
    gradients of ``grads`` and returns it.
    """
    for lay, g in zip(params.layers, grads.layers):
        f = lay.pi_scale
        if f == 1.0:
            continue
        sigma = f * lay.pi_estimate
        # <G, W> as a numpy sum: a BLAS dot's summation order follows its thread split
        inner = float(np.sum(g.weight * lay.weight))
        g.weight = g.weight / f - (inner / sigma) * norm_gradient(lay)
    return grads


def layer_norms(params: BlockParams) -> list[float]:
    """Most recently reported per-layer norms (NaN if never measured)."""
    return [
        float("nan") if lay.pi_estimate is None else lay.pi_estimate
        for lay in params.layers
    ]


def checkpoint_constraint(params: BlockParams, coeff: float = 0.98) -> list[float]:
    """Constraint application at full convergence, for eval checkpoints."""
    return apply_lipschitz_constraint(
        params, coeff, tol=1e-9, max_iters=500, max_iters_warm=500
    )


def norm_orders_from_preset(name: str, n_layers: int) -> list[tuple[float, float]]:
    if name not in NORM_PRESETS:
        raise ValueError(f"unknown norm preset {name!r}; options: {sorted(NORM_PRESETS)}")
    p = NORM_PRESETS[name]
    return [(p, p)] * n_layers


def init_block_params(
    rng: np.random.Generator,
    dim: int,
    hidden: int = 128,
    n_layers: int = 3,
    coeff: float = 0.98,
    norm_preset: str = "spectral",
    init_norm_fraction: float = 0.7,
    beta_init: float = 0.5,
    bias_scale: float = 0.5,
) -> BlockParams:
    """Fresh branch parameters with controlled initial norms.

    Weights are uniform entries rescaled so every layer's induced norm is
    exactly ``init_norm_fraction * coeff``: early blocks stay comfortably
    contractive, so the log-determinant series converges fast from the
    first training step.  Hidden biases are uniform in ``+-bias_scale``:
    with zero biases every pre-activation sits at the activation's
    symmetric near-linear point and the whole stack starts inside an
    affine local optimum it cannot leave; offset biases break that
    symmetry without affecting the Lipschitz bound.  The final layer's
    bias starts at zero and every activation at beta = ``beta_init``.
    """
    from resflow.activations import raw_from_beta

    orders = norm_orders_from_preset(norm_preset, n_layers)
    dims = [dim] + [hidden] * (n_layers - 1) + [dim]
    layers = []
    target = init_norm_fraction * coeff
    for l in range(n_layers):
        W = rng.uniform(-1.0, 1.0, size=(dims[l + 1], dims[l]))
        p_in, p_out = orders[l]
        if (p_in, p_out) in EXACT_ORDERS:
            norm = exact_induced_norm(W, p_in)
        else:
            spec = NormSpec(p_in=p_in, p_out=p_out, tol=1e-12, max_iters=2000)
            norm, _ = mixed_norm_power_iteration(W, spec)
        W *= target / norm
        if l < n_layers - 1:
            bias = rng.uniform(-bias_scale, bias_scale, size=dims[l + 1])
        else:
            bias = np.zeros(dims[l + 1])
        layers.append(
            LayerParams(
                weight=W,
                bias=bias,
                raw_beta=raw_from_beta(beta_init) if l < n_layers - 1 else None,
                norm_in=p_in,
                norm_out=p_out,
            )
        )
    return BlockParams(layers=layers)


def empirical_lipschitz(
    params: BlockParams, rng: np.random.Generator, n_pairs: int = 10_000, scale: float = 3.0
) -> float:
    """Largest observed ratio ||g(x)-g(y)||_p / ||x-y||_p over random pairs."""
    from resflow.blocks import block_forward

    p = params.layers[0].norm_in
    d = params.dim
    x = rng.standard_normal((n_pairs, d)) * scale
    y = x + rng.standard_normal((n_pairs, d)) * rng.uniform(1e-3, 1.0, size=(n_pairs, 1))
    num = vector_norm(block_forward(params, x) - block_forward(params, y), p)
    den = vector_norm(x - y, p)
    return float(np.max(num / den))

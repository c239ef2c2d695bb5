"""Induced matrix norms and the Lipschitz weight constraint.

A residual block stays invertible when its branch is a contraction.  We
bound the branch Jacobian through sub-multiplicativity: every weight
matrix is rescaled so its induced operator norm is at most a coefficient
below 1.  A block measures every layer in one of three norms, its
``BlockParams.norm``, the same on each input and output space: the
spectral norm (``p = 2``) or the exact max column / row abs sums
(``p = 1`` / ``p = inf``).

The spectral norm is estimated by the classic power iteration of
spectral normalization (Miyato et al.; i-ResNet and Residual Flows use it
the same way), warm-started from the previous step's vector so a small
weight update converges in a step or two.  Its estimate is a lower bound
of the true norm and is treated as the norm when rescaling;
:func:`checkpoint_constraint` then checks every layer against its exact
norm, so every model that is evaluated, sampled or diagnosed keeps each
layer within ``coeff * (1 + CERTIFY_TOL)`` or fails with a typed error.

Training follows spectral normalization: the optimizer owns a free matrix
``V`` and the model uses ``W = V / max(1, ||V|| / coeff)``.  The backward
pass goes through the norm, with the power-iteration vector held fixed,
via :func:`lipschitz_constraint_vjp`.
"""

from __future__ import annotations

import numpy as np

from resflow.blocks import BlockGrads, BlockParams, LayerParams
from resflow.errors import NormalizationError

NORM_PRESETS = {"spectral": 2.0, "inf": np.inf, "one": 1.0}

# relative excess over coeff that checkpoint_constraint tolerates in the exact norm
CERTIFY_TOL = 1e-3

# init_block_params: every activation's initial beta, and the half-width of
# the hidden biases' uniform law
BETA_INIT = 0.5
BIAS_SCALE = 0.5

# standard deviation of empirical_lipschitz's Gaussian sample points
EMPIRICAL_SCALE = 3.0


def vector_norm(x: np.ndarray, p: float) -> np.ndarray:
    """``p``-norm over the last axis, for ``p`` in {1, 2, inf}."""
    x = np.asarray(x, dtype=np.float64)
    if p == np.inf:
        return np.max(np.abs(x), axis=-1)
    if p == 1.0:
        return np.sum(np.abs(x), axis=-1)
    if p == 2.0:
        # a numpy sum, not np.linalg.norm or a BLAS dot: those round differently
        return np.sum(np.abs(x) ** 2.0, axis=-1) ** 0.5
    raise ValueError(f"vector norm only for p in {{1, 2, inf}}, got {p}")


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


def cold_start_vector(shape: tuple[int, int]) -> np.ndarray:
    """Deterministic, generic unit starting vector for a matrix of this shape."""
    rng = np.random.default_rng(np.random.SeedSequence([shape[0], shape[1], 9241]))
    u = rng.standard_normal(shape[1])
    return u / vector_norm(u, 2.0)


def spectral_power_iteration(
    W: np.ndarray,
    u: np.ndarray | None = None,
    last_estimate: float | None = None,
    tol: float = 1e-3,
    max_iters: int = 200,
    max_iters_warm: int = 10,
) -> tuple[float, np.ndarray, int]:
    """Estimate the spectral norm ``||W||_2`` by power iteration on ``W^T W``.

    Each step maps the unit vector ``x`` to ``y = W x``, reads the
    estimate ``||y||``, and sets ``x = W^T y / ||W^T y||``.  Starts from
    ``u`` (or :func:`cold_start_vector`) and stops when the estimate
    changes by at most ``tol`` relative to the previous one, which starts
    as ``last_estimate``; the budget is ``max_iters`` without a previous
    estimate and ``max_iters_warm`` with one.  Returns the estimate, the
    last vector and the number of steps taken.  The estimate is a lower
    bound of the true norm, and zero if ``u`` lies in the nullspace of
    ``W``; it is deterministic given ``(W, u, last_estimate)``.
    """
    x = cold_start_vector(W.shape) if u is None else u
    if not W.any():
        return 0.0, x, 0
    prev = last_estimate
    budget = max_iters if last_estimate is None else max_iters_warm
    est = 0.0
    iters = 0
    for iters in range(1, budget + 1):
        y = W @ x
        est = float(vector_norm(y, 2.0))
        if est == 0.0:
            break
        w = W.T @ y
        wn = vector_norm(w, 2.0)
        if wn > 0:  # the squares of a tiny nonzero w can underflow to 0
            x = w / wn
        if prev is not None and abs(est - prev) <= tol * max(est, 1e-300):
            break
        prev = est
    return est, x, iters


def induced_norm_for_layer(
    lay: LayerParams, p: float, tol: float = 1e-3, max_iters: int = 200, max_iters_warm: int = 10
) -> float:
    """Measure one layer's induced ``p``-norm, maintaining its cached iterate."""
    if p != 2.0:
        est = exact_induced_norm(lay.weight, p)
        lay.pi_estimate = est
        lay.pi_iters_used = 0
        return est
    last = None
    if lay.pi_u is not None and lay.pi_estimate is not None:
        # after a rescale pi_estimate is coeff; the free matrix measured pi_scale times that
        last = lay.pi_estimate * lay.pi_scale
    est, lay.pi_u, lay.pi_iters_used = spectral_power_iteration(
        lay.weight, lay.pi_u, last, tol=tol, max_iters=max_iters, max_iters_warm=max_iters_warm
    )
    lay.pi_estimate = est
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
    variables.  A zero norm estimate for a nonzero matrix (a warm-start
    vector in the weight's nullspace) raises :class:`NormalizationError`.
    """
    check_coeff(coeff)
    params.validate()
    reported = []
    for lay in params.layers:
        est = induced_norm_for_layer(
            lay, params.norm, tol=tol, max_iters=max_iters, max_iters_warm=max_iters_warm
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


def norm_gradient(lay: LayerParams, p: float) -> np.ndarray:
    """Gradient of the layer's induced ``p``-norm at its current weight.

    Spectral: ``u v^T`` with ``v`` the cached power-iteration vector and
    ``u = W v / ||W v||``.  ``inf`` / ``1``: the sign pattern of the row /
    column with the largest absolute sum (a subgradient where that row or
    column is not unique).  All three are invariant to rescaling ``W``.
    """
    W = lay.weight
    if p == 2.0:
        Wv = W @ lay.pi_u
        return np.outer(Wv / np.linalg.norm(Wv), lay.pi_u)
    grad = np.zeros_like(W)
    if p == np.inf:
        row = int(np.argmax(np.abs(W).sum(axis=1)))
        grad[row] = np.sign(W[row])
    else:
        col = int(np.argmax(np.abs(W).sum(axis=0)))
        grad[:, col] = np.sign(W[:, col])
    return grad


def lipschitz_constraint_vjp(params: BlockParams, grads: BlockGrads) -> BlockGrads:
    """Chain weight gradients back through the last constraint application.

    With ``W = V / f``, ``f = ||V|| / coeff`` and ``G = dL/dW``, the free
    weight's gradient is ``dL/dV = G / f - (<G, W> / ||V||) d||V||/dV``,
    where ``d||V||/dV`` is :func:`norm_gradient` (power-iteration vectors
    held fixed, as spectral normalization does).  Layers the constraint
    left alone (``f = 1``) pass ``G`` through.  Writes the weight
    gradients in place, in ``grads.vec``, and returns ``grads``.
    """
    for lay, g in zip(params.layers, grads.layers):
        f = lay.pi_scale
        if f == 1.0:
            continue
        sigma = f * lay.pi_estimate
        # <G, W> as a numpy sum: a BLAS dot's summation order follows its thread split
        weight = g.weight
        inner = float(np.sum(weight * lay.weight))
        weight /= f
        weight -= (inner / sigma) * norm_gradient(lay, params.norm)
    return grads


def layer_norms(params: BlockParams) -> list[float]:
    """Most recently reported per-layer norms (NaN if never measured)."""
    return [
        float("nan") if lay.pi_estimate is None else lay.pi_estimate
        for lay in params.layers
    ]


def checkpoint_constraint(params: BlockParams, coeff: float = 0.98) -> list[float]:
    """Constraint application at full convergence, certified exactly.

    Every model that is evaluated, sampled or diagnosed goes through here.
    After rescaling, each layer's exact norm (``np.linalg.norm(W, 2)`` for
    spectral layers, :func:`exact_induced_norm` otherwise) must be at most
    ``coeff * (1 + CERTIFY_TOL)``; the power iteration's lower-bound
    estimate alone could not promise that.  Raises
    :class:`NormalizationError` naming the layer otherwise.
    """
    reported = apply_lipschitz_constraint(
        params, coeff, tol=1e-9, max_iters=500, max_iters_warm=500
    )
    bound = coeff * (1.0 + CERTIFY_TOL)
    for i, lay in enumerate(params.layers):
        if params.norm == 2.0:
            exact = float(np.linalg.norm(lay.weight, 2))
        else:
            exact = exact_induced_norm(lay.weight, params.norm)
        if exact > bound:
            raise NormalizationError(
                f"layer {i}: exact induced norm {exact!r} exceeds the certified "
                f"bound {bound!r} (coeff {coeff!r})"
            )
    return reported


def init_block_params(
    rng: np.random.Generator,
    dim: int,
    hidden: int = 128,
    n_layers: int = 3,
    coeff: float = 0.98,
    norm_preset: str = "spectral",
    init_norm_fraction: float = 0.7,
) -> BlockParams:
    """Fresh branch parameters with controlled initial norms.

    Weights are uniform entries rescaled so every layer's induced norm is
    exactly ``init_norm_fraction * coeff``: early blocks stay comfortably
    contractive, so the log-determinant series converges fast from the
    first training step.  Hidden biases are uniform in ``+-BIAS_SCALE``:
    with zero biases every pre-activation sits at the activation's
    symmetric near-linear point and the whole stack starts inside an
    affine local optimum it cannot leave; offset biases break that
    symmetry without affecting the Lipschitz bound.  The final layer's
    bias starts at zero and every activation at beta = ``BETA_INIT``.
    """
    from resflow.activations import raw_from_beta

    if norm_preset not in NORM_PRESETS:
        raise ValueError(f"unknown norm preset {norm_preset!r}; options: {sorted(NORM_PRESETS)}")
    p = NORM_PRESETS[norm_preset]
    dims = [dim] + [hidden] * (n_layers - 1) + [dim]
    layers = []
    target = init_norm_fraction * coeff
    for l in range(n_layers):
        W = rng.uniform(-1.0, 1.0, size=(dims[l + 1], dims[l]))
        if p != 2.0:
            norm = exact_induced_norm(W, p)
        else:
            norm, _, _ = spectral_power_iteration(W, tol=1e-12, max_iters=2000)
        W *= target / norm
        if l < n_layers - 1:
            bias = rng.uniform(-BIAS_SCALE, BIAS_SCALE, size=dims[l + 1])
        else:
            bias = np.zeros(dims[l + 1])
        layers.append(
            LayerParams(
                weight=W,
                bias=bias,
                raw_beta=raw_from_beta(BETA_INIT) if l < n_layers - 1 else None,
            )
        )
    return BlockParams(layers=layers, norm=p)


def empirical_lipschitz(
    params: BlockParams, rng: np.random.Generator, n_pairs: int = 10_000
) -> float:
    """Largest observed ratio ||g(x)-g(y)||_p / ||x-y||_p over random pairs."""
    from resflow.blocks import block_forward

    p = params.norm
    d = params.dim
    x = rng.standard_normal((n_pairs, d)) * EMPIRICAL_SCALE
    y = x + rng.standard_normal((n_pairs, d)) * rng.uniform(1e-3, 1.0, size=(n_pairs, 1))
    num = vector_norm(block_forward(params, x) - block_forward(params, y), p)
    den = vector_norm(x - y, p)
    return float(np.max(num / den))

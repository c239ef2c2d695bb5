"""Log-determinant of ``I + J_g`` and its parameter gradient.

For a contractive branch the log-determinant expands into the alternating
trace series ``sum_k (-1)^(k+1)/k tr(J^k)``, with traces estimated by the
Skilling-Hutchinson identity ``tr(A) = E[v^T A v]``.  Three evaluation
routes are implemented, plus dense small-dimension oracles that every
stochastic route is tested against:

* ``biased_truncated_logdet``  -- fixed truncation after ``n_fixed`` terms;
  cheap, deterministic in its seeds, but biased (bias grows with Lip(g)).
* ``roulette_logdet``          -- the first ``n_exact`` terms at weight 1,
  then a geometric random truncation with surviving terms reweighted by
  inverse survival probabilities; unbiased for any contraction.
* ``neumann_logdet_grad``      -- unbiased parameter gradient that
  accumulates a single running cotangent ``w = sum_k c_k (J^T)^k v`` and
  feeds it to one bilinear-form gradient.  Nothing differentiates through
  the accumulation, so retained storage does not grow with the sampled
  truncation.
* ``naive_series_grad``        -- differentiates every series term; kept
  as the baseline whose retained storage grows linearly in the
  truncation.

Values are in nats throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from resflow.blocks import (
    BlockCache,
    BlockGrads,
    BlockParams,
    bilinear_param_grad,
    bilinear_param_grad_per_sample,
    block_dense_jacobian,
    block_forward_cache,
    block_jvp,
    block_vjp,
)
from resflow.errors import ContractivityError, GuardError
from resflow.instrument import RetainedList, StorageMeter

NAIVE_SERIES_MAX_TERMS = 20


@dataclass
class RouletteDist:
    """Geometric randomized-truncation distribution.

    ``n_exact`` leading series terms are always evaluated at weight 1;
    the tail truncation is drawn from a geometric law with success
    probability ``q`` (support over all positive integers, which is the
    only condition unbiasedness needs), giving the closed-form survival
    function ``P(N >= k) = (1-q)^(k-1)``.
    """

    kind: str = "geometric"
    q: float = 0.5
    n_exact: int = 2

    def __post_init__(self) -> None:
        if self.kind != "geometric":
            raise ValueError(f"unsupported roulette distribution {self.kind!r}")
        if not (0.0 < self.q < 1.0):
            raise ValueError(f"q must lie in (0, 1), got {self.q}")
        if self.n_exact < 0:
            raise ValueError("n_exact must be non-negative")

    def survival(self, k):
        """P(N >= k) for k >= 1."""
        k = np.asarray(k)
        return (1.0 - self.q) ** (k - 1)

    def sample(self, rng: np.random.Generator, size=None):
        return rng.geometric(self.q, size=size)

    def expected_terms(self) -> float:
        return self.n_exact + 1.0 / self.q


@dataclass
class EstimatorConfig:
    roulette: RouletteDist = field(default_factory=RouletteDist)
    hutchinson_dist: str = "gaussian"  # or "rademacher"
    n_hutchinson: int = 1
    n_fixed: int = 5

    def __post_init__(self) -> None:
        if self.hutchinson_dist not in ("gaussian", "rademacher"):
            raise ValueError(f"unknown hutchinson distribution {self.hutchinson_dist!r}")
        if self.n_hutchinson < 1:
            raise ValueError("n_hutchinson must be >= 1")
        if self.n_fixed < 1:
            raise ValueError("n_fixed must be >= 1")


@dataclass
class TangentSeed:
    direction: np.ndarray
    rng_stream_id: int


@dataclass
class LogDetSample:
    """One stochastic log-determinant estimate plus its bookkeeping."""

    value: float
    n_terms_evaluated: int
    seeds: list[TangentSeed]
    per_term: list[float] | None = None


def draw_probe(rng: np.random.Generator, d: int, dist: str, size: int | None = None):
    shape = (d,) if size is None else (size, d)
    if dist == "gaussian":
        return rng.standard_normal(shape)
    return rng.choice(np.array([-1.0, 1.0]), size=shape)


# -- dense oracles -----------------------------------------------------------


def exact_logdet(params: BlockParams, x: np.ndarray) -> float | np.ndarray:
    """log det(I + J_g(x)) through the dense Jacobian (small d only).

    With Lip(g) < 1 the determinant is strictly positive, so the absolute
    value in the change-of-variables term is inert.
    """
    jac = block_dense_jacobian(params, x)
    eye = np.eye(params.dim)
    _, logabs = np.linalg.slogdet(eye + jac)
    return float(logabs) if np.ndim(logabs) == 0 else logabs


def exact_series_logdet(
    params: BlockParams, x: np.ndarray, tol: float = 1e-12, max_terms: int = 10_000
) -> float:
    """Sum the alternating trace series with exact dense traces.

    Independent of :func:`exact_logdet` (no determinant is ever formed),
    which makes the pair a cross-check of one another.
    """
    jac = block_dense_jacobian(params, x)
    if jac.ndim != 2:
        raise GuardError("series oracle takes a single point")
    total = 0.0
    power = jac.copy()
    for k in range(1, max_terms + 1):
        term = ((-1.0) ** (k + 1)) * np.trace(power) / k
        total += term
        if abs(term) < tol:
            return total
        power = power @ jac
    raise ContractivityError(
        f"trace series did not converge within {max_terms} terms; "
        "the branch is likely not contractive"
    )


def exact_logdet_grad(
    params: BlockParams,
    x: np.ndarray,
    cache: BlockCache | None = None,
    want_input_grad: bool = False,
):
    """Exact gradient of log det(I + J_g(x)) via the dense resolvent.

    Uses d/dtheta log det(I + J) = tr((I + J)^{-1} dJ/dtheta), realized as
    d bilinear-form gradients with the resolvent's rows as cotangents.
    Batched points are summed.  Oracle-grade but only for small d.
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    xb = x[None, :] if single else x
    if cache is None:
        _, cache = block_forward_cache(params, xb)
    jac = block_dense_jacobian(params, xb, cache=cache)
    d = params.dim
    a_t = np.swapaxes(np.eye(d) + jac, 1, 2)
    grads = BlockGrads.zeros_like(params)
    input_grad = np.zeros_like(xb)
    for b in range(d):
        e = np.zeros((xb.shape[0], d))
        e[:, b] = 1.0
        u = np.linalg.solve(a_t, e[..., None])[..., 0]
        g, ig = bilinear_param_grad(params, xb, u, e, cache=cache, want_input_grad=True)
        grads.add_(g)
        input_grad += ig
    if want_input_grad:
        return grads, (input_grad[0] if single else input_grad)
    return grads


# -- shared series machinery -------------------------------------------------


def _roulette_coefficients(dist: RouletteDist, kmax: int) -> np.ndarray:
    """Series weights c_k = (-1)^(k+1)/k, tail-reweighted, for k = 1..kmax."""
    k = np.arange(1, kmax + 1, dtype=np.float64)
    coef = ((-1.0) ** (k + 1)) / k
    tail = k > dist.n_exact
    coef[tail] /= dist.survival(k[tail] - dist.n_exact)
    return coef


def _truncated_coefficients(kmax: int) -> np.ndarray:
    k = np.arange(1, kmax + 1, dtype=np.float64)
    return ((-1.0) ** (k + 1)) / k


def _neumann_coefficients(dist: RouletteDist, kmax: int) -> np.ndarray:
    """Weights b_k for w = sum_{k=0}^{kmax} b_k (J^T)^k v.

    The Neumann gradient series term k is the derivative of log-det series
    term k+1, so its roulette weight is the one of that parent term:
    weight 1 for k <= n_exact - 1, inverse survival afterwards.
    """
    k = np.arange(0, kmax + 1, dtype=np.float64)
    coef = (-1.0) ** k
    tail = k > dist.n_exact - 1
    coef[tail] /= dist.survival(k[tail] - (dist.n_exact - 1))
    return coef


def _active_slopes(cache: BlockCache, rows: np.ndarray) -> list[np.ndarray]:
    """The slopes of ``rows``, gathered once in that order.

    Slopes are all the JVP/VJP chain reads, so a series loop sorted by
    truncation slices prefixes of these instead of copying whole caches.
    A single-point cache is kept as it is: it broadcasts against any rows.
    """
    if cache.inputs[0].shape[0] == 1:
        return cache.slope
    return [s[rows] for s in cache.slope]


def _prefix(slopes: list[np.ndarray], m: int) -> BlockCache:
    """The chain's cache for the first ``m`` active rows."""
    return BlockCache(inputs=[], pre=[], slope=[s[:m] for s in slopes], betas=[])


def _series_values_batch(
    params: BlockParams,
    x: np.ndarray,
    v: np.ndarray,
    n_terms: np.ndarray,
    coefs: np.ndarray,
    point_of_row: np.ndarray | None = None,
) -> np.ndarray:
    """Evaluate sum_{k<=K_i} coefs[k-1] * v_i^T J^k v_i for each row i.

    ``x`` is either a single point shared by every row of ``v``, a batch
    aligned with it, or, with ``point_of_row``, the distinct points that
    row i reads as ``x[point_of_row[i]]``; the block forward runs once per
    point.  Rows are processed sorted by descending truncation so the
    active set is always a prefix slice.
    """
    x = np.asarray(x, dtype=np.float64)
    _, cache = block_forward_cache(params, x[None, :] if x.ndim == 1 else x)
    n = v.shape[0]
    order = np.argsort(-n_terms, kind="stable")
    ks = n_terms[order]
    vs = v[order]
    slopes = _active_slopes(cache, order if point_of_row is None else point_of_row[order])
    values = np.zeros(n)
    cur = vs
    for k in range(1, (int(ks[0]) if n else 0) + 1):
        m = int(np.searchsorted(-ks, -k, side="right"))
        cur = block_jvp(params, None, cur[:m], cache=_prefix(slopes, m))
        values[:m] += coefs[k - 1] * np.einsum("ij,ij->i", vs[:m], cur)
    out = np.empty(n)
    out[order] = values
    return out


# -- log-det estimators ------------------------------------------------------


def biased_truncated_logdet(
    params: BlockParams,
    x: np.ndarray,
    cfg: EstimatorConfig,
    rng: np.random.Generator,
    exact_traces: bool = False,
) -> LogDetSample:
    """Fixed-truncation estimate: first ``n_fixed`` terms, no reweighting.

    Deterministic given the drawn probe vectors.  The missing tail makes
    it biased, and the bias grows with the contraction strength of the
    branch.  With ``exact_traces`` the Hutchinson probes are replaced by
    exact dense traces (the truncation bias remains).
    """
    n_fixed = cfg.n_fixed
    if exact_traces:
        jac = block_dense_jacobian(params, x)
        coefs = _truncated_coefficients(n_fixed)
        total, power = 0.0, jac.copy()
        for k in range(1, n_fixed + 1):
            total += coefs[k - 1] * np.trace(power)
            if k < n_fixed:
                power = power @ jac
        return LogDetSample(value=float(total), n_terms_evaluated=n_fixed, seeds=[])

    d = params.dim
    coefs = _truncated_coefficients(n_fixed)
    seeds = [
        TangentSeed(direction=draw_probe(rng, d, cfg.hutchinson_dist), rng_stream_id=i)
        for i in range(cfg.n_hutchinson)
    ]
    v = np.stack([s.direction for s in seeds])
    k_arr = np.full(v.shape[0], n_fixed)
    vals = _series_values_batch(params, x, v, k_arr, coefs)
    return LogDetSample(
        value=float(vals.mean()),
        n_terms_evaluated=n_fixed * cfg.n_hutchinson,
        seeds=seeds,
    )


def roulette_logdet(
    params: BlockParams,
    x: np.ndarray,
    cfg: EstimatorConfig,
    rng: np.random.Generator,
    force_n: int | None = None,
) -> LogDetSample:
    """Unbiased log-det estimate by geometric randomized truncation.

    Evaluates the ``n_exact`` leading terms at weight 1, draws the tail
    length n from the geometric law, and reweights tail term j by the
    inverse survival probability 1/P(N >= j).  A single probe vector is
    shared by all terms within one draw.  The expectation over (n, v)
    equals the exact log-determinant; expected work is
    ``n_exact + 1/q`` series terms per draw.
    """
    dist = cfg.roulette
    d = params.dim
    _, cache = block_forward_cache(params, x)
    total = 0.0
    total_terms = 0
    seeds: list[TangentSeed] = []
    per_term: list[float] = []
    for i in range(cfg.n_hutchinson):
        v = draw_probe(rng, d, cfg.hutchinson_dist)
        seeds.append(TangentSeed(direction=v, rng_stream_id=i))
        n_tail = int(dist.sample(rng)) if force_n is None else int(force_n)
        kmax = dist.n_exact + n_tail
        coefs = _roulette_coefficients(dist, kmax)
        cur = v
        est = 0.0
        for k in range(1, kmax + 1):
            cur = block_jvp(params, x, cur, cache=cache)
            term = coefs[k - 1] * float(v @ cur)
            per_term.append(term)
            est += term
        total += est
        total_terms += kmax
    return LogDetSample(
        value=total / cfg.n_hutchinson,
        n_terms_evaluated=total_terms,
        seeds=seeds,
        per_term=per_term,
    )


def roulette_logdet_batch(
    params: BlockParams,
    x: np.ndarray,
    cfg: EstimatorConfig,
    rng: np.random.Generator,
    n_samples: int,
    force_n: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized Monte-Carlo replication of :func:`roulette_logdet`.

    Returns per-estimate values and per-estimate total series terms, for
    ``n_samples`` independent estimates at a fixed point ``x``.
    """
    dist = cfg.roulette
    draws = n_samples * cfg.n_hutchinson
    v = draw_probe(rng, params.dim, cfg.hutchinson_dist, size=draws)
    if force_n is None:
        n_tail = dist.sample(rng, size=draws)
    else:
        n_tail = np.full(draws, force_n, dtype=np.int64)
    k_arr = dist.n_exact + n_tail
    coefs = _roulette_coefficients(dist, int(k_arr.max()))
    vals = _series_values_batch(params, x, v, k_arr, coefs)
    vals = vals.reshape(n_samples, cfg.n_hutchinson).mean(axis=1)
    terms = k_arr.reshape(n_samples, cfg.n_hutchinson).sum(axis=1)
    return vals, terms


def roulette_logdet_rows(
    params: BlockParams,
    X: np.ndarray,
    cfg: EstimatorConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """One independent unbiased estimate per row of ``X``.

    Returns per-row values and per-row total series terms.  Used by the
    flow's estimator-mode density evaluation.
    """
    dist = cfg.roulette
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    n = X.shape[0]
    nh = cfg.n_hutchinson
    v = draw_probe(rng, params.dim, cfg.hutchinson_dist, size=n * nh)
    n_tail = dist.sample(rng, size=n * nh)
    k_arr = dist.n_exact + n_tail
    coefs = _roulette_coefficients(dist, int(k_arr.max()))
    vals = _series_values_batch(params, X, v, k_arr, coefs, np.arange(n * nh) // nh)
    vals = vals.reshape(n, nh).mean(axis=1)
    terms = k_arr.reshape(n, nh).sum(axis=1)
    return vals, terms


def biased_logdet_rows(
    params: BlockParams,
    X: np.ndarray,
    cfg: EstimatorConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """One fixed-truncation estimate per row of ``X``."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    n = X.shape[0]
    nh = cfg.n_hutchinson
    v = draw_probe(rng, params.dim, cfg.hutchinson_dist, size=n * nh)
    k_arr = np.full(n * nh, cfg.n_fixed, dtype=np.int64)
    coefs = _truncated_coefficients(cfg.n_fixed)
    vals = _series_values_batch(params, X, v, k_arr, coefs, np.arange(n * nh) // nh)
    vals = vals.reshape(n, nh).mean(axis=1)
    terms = k_arr.reshape(n, nh).sum(axis=1)
    return vals, terms


def biased_logdet_exact_trace_rows(params: BlockParams, X: np.ndarray, n_fixed: int) -> np.ndarray:
    """Expected value of the fixed-truncation estimator at each row.

    Exact traces make the Hutchinson noise vanish, leaving only the
    truncation bias; this is the deterministic 'what the biased objective
    is really optimizing' oracle.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    jac = block_dense_jacobian(params, X)
    coefs = _truncated_coefficients(n_fixed)
    total = np.zeros(X.shape[0])
    power = jac.copy()
    for k in range(1, n_fixed + 1):
        total += coefs[k - 1] * np.trace(power, axis1=1, axis2=2)
        if k < n_fixed:
            power = power @ jac
    return total


def biased_logdet_batch(
    params: BlockParams,
    x: np.ndarray,
    cfg: EstimatorConfig,
    rng: np.random.Generator,
    n_samples: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized Monte-Carlo replication of :func:`biased_truncated_logdet`."""
    draws = n_samples * cfg.n_hutchinson
    v = draw_probe(rng, params.dim, cfg.hutchinson_dist, size=draws)
    k_arr = np.full(draws, cfg.n_fixed, dtype=np.int64)
    coefs = _truncated_coefficients(cfg.n_fixed)
    vals = _series_values_batch(params, x, v, k_arr, coefs)
    vals = vals.reshape(n_samples, cfg.n_hutchinson).mean(axis=1)
    terms = k_arr.reshape(n_samples, cfg.n_hutchinson).sum(axis=1)
    return vals, terms


# -- gradient estimators -----------------------------------------------------


def neumann_logdet_grad(
    params: BlockParams,
    x: np.ndarray,
    cfg: EstimatorConfig,
    rng: np.random.Generator,
    force_n: int | None = None,
    meter: StorageMeter | None = None,
    want_input_grad: bool = False,
):
    """Unbiased gradient of log det(I + J_g(x)) via the Neumann cotangent.

    Accumulates ``w^T = sum_k c_k v^T J^k`` by repeated vector-Jacobian
    products without differentiating through the accumulation, then takes
    the gradient of the single bilinear form ``w^T J_g(x) v``.  Only the
    probe, the running product, and the accumulated cotangent are held
    while the series runs, so retained storage is independent of the
    sampled truncation.
    """
    dist = cfg.roulette
    d = params.dim
    _, cache = block_forward_cache(params, x)
    if meter is not None:
        # forward intermediates: inputs, pre-activations, slopes
        meter.retain(len(cache.inputs) + len(cache.pre) + len(cache.slope))
    grads = BlockGrads.zeros_like(params)
    input_grad = np.zeros(d)
    for i in range(cfg.n_hutchinson):
        v = draw_probe(rng, d, cfg.hutchinson_dist)
        n_tail = int(dist.sample(rng)) if force_n is None else int(force_n)
        kmax = dist.n_exact + n_tail - 1
        coefs = _neumann_coefficients(dist, kmax)
        if meter is not None:
            meter.retain(3)  # v, running product, accumulated cotangent
        cur = v
        w = coefs[0] * v
        for k in range(1, kmax + 1):
            cur = block_vjp(params, x, cur, cache=cache)
            w = w + coefs[k] * cur
        g, ig = bilinear_param_grad(params, x, w, v, cache=cache, want_input_grad=True)
        grads.add_(g, scale=1.0 / cfg.n_hutchinson)
        input_grad += ig[0] / cfg.n_hutchinson
        if meter is not None:
            meter.release(3)
    if meter is not None:
        meter.release(len(cache.inputs) + len(cache.pre) + len(cache.slope))
    if want_input_grad:
        return grads, input_grad
    return grads


def naive_series_grad(
    params: BlockParams,
    x: np.ndarray,
    n_terms: int,
    v: np.ndarray | None = None,
    meter: StorageMeter | None = None,
    want_input_grad: bool = False,
):
    """Gradient by differentiating each truncated series term.

    ``d(v^T J^k v)/dtheta`` expands into k bilinear forms pairing the
    forward chain ``J^j v`` with the backward chain ``(J^T)^m v``; both
    chains must be kept in memory until the sweep finishes, so retained
    storage grows linearly in ``n_terms`` by construction.  With
    ``v=None`` exact traces are used (probe loops over the basis),
    making this the exact-trace differentiated series.
    """
    if n_terms < 1 or n_terms > NAIVE_SERIES_MAX_TERMS:
        raise GuardError(
            f"naive series gradient limited to 1..{NAIVE_SERIES_MAX_TERMS} terms, got {n_terms}"
        )
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise GuardError("naive series gradient takes a single point")
    d = params.dim
    _, cache = block_forward_cache(params, x)
    if meter is not None:
        meter.retain(len(cache.inputs) + len(cache.pre) + len(cache.slope))

    if v is None:
        probes = np.eye(d)
    else:
        probes = np.asarray(v, dtype=np.float64)[None, :]

    coefs = _truncated_coefficients(n_terms)
    forward = RetainedList(meter)  # J^j applied to every probe, j = 0..n-1
    backward = RetainedList(meter)  # (J^T)^m applied to every probe
    forward.append(probes)
    backward.append(probes)
    for _ in range(1, n_terms):
        forward.append(block_jvp(params, x, forward[-1], cache=cache))
        backward.append(block_vjp(params, x, backward[-1], cache=cache))

    grads = BlockGrads.zeros_like(params)
    input_grad = np.zeros(d)
    for m in range(n_terms):
        weighted = np.zeros_like(probes)
        for j in range(n_terms - m):
            weighted += coefs[m + j] * forward[j]
        g, ig = bilinear_param_grad(
            params, x, backward[m], weighted, cache=cache, want_input_grad=True
        )
        grads.add_(g)
        input_grad += ig.sum(axis=0)
    forward.drop_all()
    backward.drop_all()
    if meter is not None:
        meter.release(len(cache.inputs) + len(cache.pre) + len(cache.slope))
    if want_input_grad:
        return grads, input_grad
    return grads


def neumann_grad_exact_trace(params: BlockParams, x: np.ndarray, n_terms: int) -> BlockGrads:
    """Truncated Neumann gradient with exact traces (basis probes).

    Matches :func:`naive_series_grad` in exact-trace mode term for term:
    differentiating the k-th log-det series term yields the (k-1)-th
    Neumann term, so equal truncations agree exactly.
    """
    if n_terms < 1:
        raise GuardError("need at least one term")
    d = params.dim
    _, cache = block_forward_cache(params, x)
    probes = np.eye(d)
    grads = BlockGrads.zeros_like(params)
    cur = probes
    for k in range(n_terms):
        if k > 0:
            cur = block_vjp(params, x, cur, cache=cache)
        grads.add_(bilinear_param_grad(params, x, cur, probes, cache=cache), scale=(-1.0) ** k)
    return grads


def roulette_value_and_neumann_grad_rows(
    params: BlockParams,
    X: np.ndarray,
    cfg: EstimatorConfig,
    rng: np.random.Generator,
    cache: BlockCache | None = None,
    out_cot: np.ndarray | None = None,
):
    """Training-time combined estimator for a batch of points.

    Per row draws one (probe, truncation) pair shared by the value and the
    gradient: a single vector-Jacobian chain yields both the reweighted
    log-det terms ``v^T J^k v`` and the Neumann cotangent ``w``.  Returns
    (values, terms, parameter gradient summed over rows, per-row input
    gradient).  With ``out_cot``, a cotangent of the block output per row,
    both gradients are those of ``sum_i logdet_i + out_cot_i . g(x_i)``:
    the pathwise term rides the bilinear form's reverse pass.  With
    ``n_hutchinson > 1`` rows are repeated and the estimates averaged.
    """
    dist = cfg.roulette
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    n = X.shape[0]
    nh = cfg.n_hutchinson
    if nh > 1 or cache is None:
        x_rep = np.repeat(X, nh, axis=0) if nh > 1 else X
        _, cache = block_forward_cache(params, x_rep)
    else:
        x_rep = X
    rows = n * nh
    d = params.dim
    v = draw_probe(rng, d, cfg.hutchinson_dist, size=rows)
    n_tail = dist.sample(rng, size=rows)
    k_arr = dist.n_exact + n_tail
    kmax = int(k_arr.max())
    val_coefs = _roulette_coefficients(dist, kmax)
    grad_coefs = _neumann_coefficients(dist, kmax - 1)

    order = np.argsort(-k_arr, kind="stable")
    ks = k_arr[order]
    vs = v[order]
    slopes = _active_slopes(cache, order)
    values = np.zeros(rows)
    w = grad_coefs[0] * vs
    cur = vs
    for k in range(1, kmax + 1):
        m = int(np.searchsorted(-ks, -k, side="right"))
        cur = block_vjp(params, None, cur[:m], cache=_prefix(slopes, m))
        values[:m] += val_coefs[k - 1] * np.einsum("ij,ij->i", vs[:m], cur)
        # Neumann term k is the derivative of log-det term k + 1: only rows
        # whose truncation reaches k + 1 keep it
        if k < kmax:
            m_grad = int(np.searchsorted(-ks, -(k + 1), side="right"))
            w[:m_grad] += grad_coefs[k] * cur[:m_grad]
    del slopes  # dead before the reverse pass allocates its own rows
    vals_out = np.empty(rows)
    vals_out[order] = values
    w_out = np.empty_like(w)
    w_out[order] = w

    if out_cot is not None and nh > 1:
        out_cot = np.repeat(out_cot, nh, axis=0)
    grads, input_grad = bilinear_param_grad(
        params, x_rep, w_out, v, cache=cache, want_input_grad=True, out_cot=out_cot
    )
    if nh > 1:
        grads.scale_(1.0 / nh)
        input_grad = input_grad.reshape(n, nh, d).mean(axis=1)
        vals_out = vals_out.reshape(n, nh).mean(axis=1)
        terms = k_arr.reshape(n, nh).sum(axis=1)
    else:
        terms = k_arr
    return vals_out, terms, grads, input_grad


def biased_value_and_grad_rows(
    params: BlockParams,
    X: np.ndarray,
    cfg: EstimatorConfig,
    rng: np.random.Generator,
    cache: BlockCache | None = None,
):
    """Training-time fixed-truncation value and gradient for a batch.

    The gradient differentiates each of the ``n_fixed`` retained terms
    (the linear-memory route); both value and gradient estimate the same
    biased objective, so training with them optimizes the truncated
    series rather than the true log density.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    n = X.shape[0]
    nh = cfg.n_hutchinson
    if nh > 1 or cache is None:
        x_rep = np.repeat(X, nh, axis=0) if nh > 1 else X
        _, cache = block_forward_cache(params, x_rep)
    else:
        x_rep = X
    rows = n * nh
    d = params.dim
    n_fixed = cfg.n_fixed
    v = draw_probe(rng, d, cfg.hutchinson_dist, size=rows)
    coefs = _truncated_coefficients(n_fixed)

    forward = [v]
    backward = [v]
    for _ in range(1, n_fixed):
        forward.append(block_jvp(params, x_rep, forward[-1], cache=cache))
        backward.append(block_vjp(params, x_rep, backward[-1], cache=cache))
    last = block_jvp(params, x_rep, forward[-1], cache=cache)
    series = np.stack([np.einsum("ij,ij->i", v, f) for f in forward[1:] + [last]])
    values = coefs @ series

    grads = BlockGrads.zeros_like(params)
    input_grad = np.zeros((rows, d))
    for m in range(n_fixed):
        weighted = np.zeros_like(v)
        for j in range(n_fixed - m):
            weighted += coefs[m + j] * forward[j]
        g, ig = bilinear_param_grad(
            params, x_rep, backward[m], weighted, cache=cache, want_input_grad=True
        )
        grads.add_(g)
        input_grad += ig
    if nh > 1:
        grads.scale_(1.0 / nh)
        input_grad = input_grad.reshape(n, nh, d).mean(axis=1)
        values = values.reshape(n, nh).mean(axis=1)
        terms = np.full(n, n_fixed * nh, dtype=np.int64)
    else:
        terms = np.full(n, n_fixed, dtype=np.int64)
    return values, terms, grads, input_grad


def neumann_grad_samples(
    params: BlockParams,
    x: np.ndarray,
    cfg: EstimatorConfig,
    rng: np.random.Generator,
    n_samples: int,
    chunk: int = 8192,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Monte-Carlo mean and standard error of the Neumann gradient.

    Vectorized replication for the unbiasedness tests: returns per-
    coordinate mean, per-coordinate standard error of the mean, and the
    average number of series terms per estimate.  Intended for small
    blocks (materializes per-sample gradients chunk by chunk).
    """
    dist = cfg.roulette
    d = params.dim
    x = np.asarray(x, dtype=np.float64)
    _, cache = block_forward_cache(params, x[None, :])
    total = None
    total_sq = None
    terms_total = 0.0
    done = 0
    while done < n_samples:
        m = min(chunk, n_samples - done)
        v = draw_probe(rng, d, cfg.hutchinson_dist, size=m)
        n_tail = dist.sample(rng, size=m)
        kmax_each = dist.n_exact + n_tail - 1
        order = np.argsort(-kmax_each, kind="stable")
        ks = kmax_each[order]
        vs = v[order]
        coefs = _neumann_coefficients(dist, int(ks[0]))
        w = coefs[0] * vs
        cur = vs
        for k in range(1, int(ks[0]) + 1):
            active = int(np.searchsorted(-ks, -k, side="right"))
            if active < cur.shape[0]:
                cur = cur[:active]
            cur = block_vjp(params, x[None, :], cur, cache=cache)
            w[:active] += coefs[k] * cur
        w_unsorted = np.empty_like(w)
        w_unsorted[order] = w
        g = bilinear_param_grad_per_sample(params, x[None, :], w_unsorted, v, cache=cache)
        if total is None:
            total = g.sum(axis=0)
            total_sq = (g * g).sum(axis=0)
        else:
            total += g.sum(axis=0)
            total_sq += (g * g).sum(axis=0)
        terms_total += float(np.sum(dist.n_exact + n_tail))
        done += m
    mean = total / n_samples
    var = np.maximum(total_sq / n_samples - mean**2, 0.0)
    se = np.sqrt(var / n_samples)
    return mean, se, terms_total / n_samples

"""Log-determinant of ``I + J_g`` and its parameter gradient.

For a contractive branch the log-determinant expands into the alternating
trace series ``sum_k (-1)^(k+1)/k tr(J^k)``, with traces estimated by the
Skilling-Hutchinson identity ``tr(A) = E[v^T A v]``.  Every stochastic
route is :func:`_draw` (all probes, then all truncations: ``n_exact``
terms plus a geometric tail reweighted by inverse survival probabilities,
Residual Flows arXiv:1906.02735 §3.1, or a fixed ``n_fixed`` terms,
i-ResNet arXiv:1811.00995) and one of two term loops.  :func:`_series`
returns per-row values and the Neumann cotangent ``w`` (§3.2), whose
bilinear form ``w^T J_g v`` has the unbiased log-det gradient; nothing
differentiates through the accumulation, so retained storage does not
grow with the truncation.  A training row stops after the K - 1 chain
steps ``w`` needs and takes its last value term from the ``J_g v`` of the
bilinear form's reverse pass.  Every row takes the steps all rows take in
its own order, reading its point's slopes as they are; only the rows that
go on into the tail are sorted, and each tail step gathers the slopes of
its active rows into an idle work buffer.  :func:`_differentiated_series`
differentiates every term and keeps both chains: storage linear in the
truncation.

Entry points: unbiased values per row (``roulette_logdet_rows``, which
hands back its block's series as a call, so ``flow`` can run it on the
series worker) or at one point (``*_logdet_batch``); training value and
gradient per row (``roulette_value_and_neumann_grad_rows``, which takes
the future of the block's draws and Neumann series from
``neumann_series_rows``, so ``train`` can run every block's series ahead
of the reverse passes, or draws and runs them itself;
``biased_value_and_grad_rows``);
single-point gradients (``neumann_logdet_grad``, ``neumann_grad_samples``,
``neumann_grad_exact_trace``, ``naive_series_grad``); and the dense
oracles every route is tested against.  Values are in nats throughout.
"""

from __future__ import annotations

from concurrent.futures import Future
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
    derive_cache,
)
from resflow.errors import ContractivityError, GuardError, ShapeError
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

    q: float = 0.5
    n_exact: int = 2

    def __post_init__(self) -> None:
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


# -- dense oracles -----------------------------------------------------------


def exact_logdet(params: BlockParams, x: np.ndarray, with_output: bool = False):
    """log det(I + J_g(x)) through the dense Jacobian (small d only).

    With Lip(g) < 1 the determinant is strictly positive, so the absolute
    value in the change-of-variables term is inert.  ``with_output`` also
    returns the ``(n, d)`` block output ``g(x)`` of the forward the
    Jacobian was built on, bit for bit ``block_forward``.
    """
    # the Jacobian's JVPs read slopes alone
    g, cache = block_forward_cache(params, x, slopes_only=True)
    jac = block_dense_jacobian(params, x, cache=cache)
    eye = np.eye(params.dim)
    _, logabs = np.linalg.slogdet(eye + jac)
    value = float(logabs) if np.ndim(logabs) == 0 else logabs
    return (value, g) if with_output else value


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


def biased_logdet_exact_trace_rows(params: BlockParams, X: np.ndarray, n_fixed: int) -> np.ndarray:
    """Expected value of the fixed-truncation estimator at each row.

    Exact traces make the Hutchinson noise vanish, leaving only the
    truncation bias; this is the deterministic 'what the biased objective
    is really optimizing' oracle.
    """
    jac = block_dense_jacobian(params, np.atleast_2d(np.asarray(X, dtype=np.float64)))
    total, power = 0.0, jac
    for k in range(1, n_fixed + 1):
        total = total + (-1.0) ** (k + 1) / k * np.trace(power, axis1=1, axis2=2)
        power = power @ jac
    return total


def exact_logdet_grad(
    params: BlockParams,
    x: np.ndarray,
    cache=None,
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
    cache = derive_cache(params, cache)
    jac = block_dense_jacobian(params, xb, cache=cache)
    d = params.dim
    a_t = np.swapaxes(np.eye(d) + jac, 1, 2)
    grads = BlockGrads(params)
    input_grad = np.zeros_like(xb)
    for b in range(d):
        e = np.zeros((xb.shape[0], d))
        e[:, b] = 1.0
        u = np.linalg.solve(a_t, e[..., None])[..., 0]
        g, ig, _ = bilinear_param_grad(params, xb, u, e, cache=cache)
        grads.add_(g)
        input_grad += ig
    if want_input_grad:
        return grads, (input_grad[0] if single else input_grad)
    return grads


# -- the series engine -------------------------------------------------------


def _coefficients(kmax: int, dist: RouletteDist | None = None):
    """Weights of log-det terms k = 1..kmax and of their derivatives.

    Values ``c_k = (-1)^(k+1)/k``; the Neumann term k - 1, the derivative
    of log-det term k, takes ``b_(k-1) = (-1)^(k+1)``.  Given ``dist``,
    terms past ``n_exact`` are divided by ``P(N >= k - n_exact)``.
    """
    k = np.arange(1, kmax + 1, dtype=np.float64)
    sign = (-1.0) ** (k + 1)
    values, grads = sign / k, sign
    if dist is not None:
        tail = k > dist.n_exact
        survival = dist.survival(k[tail] - dist.n_exact)
        values[tail] /= survival
        grads[tail] /= survival
    return values, grads


def _draw(rng, d: int, cfg: EstimatorConfig, rows: int, biased=False, force_n=None):
    """Probes for all ``rows``, then all truncations ``K``, and the weights.

    Biased draws stop every row at ``n_fixed``; ``force_n`` fixes the
    roulette tail length instead of sampling it.
    """
    if cfg.hutchinson_dist == "gaussian":
        v = rng.standard_normal((rows, d))
    else:
        v = rng.choice(np.array([-1.0, 1.0]), size=(rows, d))
    if biased:
        return v, np.full(rows, cfg.n_fixed, dtype=np.int64), _coefficients(cfg.n_fixed)
    dist = cfg.roulette
    n_tail = dist.sample(rng, size=rows) if force_n is None else np.full(rows, force_n)
    K = dist.n_exact + n_tail
    return v, K, _coefficients(int(K.max()), dist)


def _series(params, cache, v, K, val_coefs, grad_coefs=None):
    """The one loop over series terms: per-row values and Neumann cotangent.

    Row i reads probe ``v[i]``, truncation ``K[i]`` and point ``i // r`` of
    ``cache``, whose points each serve ``r`` consecutive rows (a one-point
    cache serves every row).  Returns ``(values, w, last)``, each None
    when not asked for.  Without ``grad_coefs`` the chain steps with
    ``block_jvp``, K_i steps for row i, and

        values[i] = sum_{k=1}^{K_i}   val_coefs[k-1]  v_i^T J^k v_i.

    With them it steps with ``block_vjp`` and stops each row after the
    K_i - 1 steps the Neumann cotangent needs,

        w[i]      = sum_{k=0}^{K_i-1} grad_coefs[k]   (J^T)^k v_i;

    ``values`` then leave out their last term, and ``last[i]`` is
    ``(J^T)^(K_i-1) v_i``: its dot with ``J v_i``, which the reverse pass's
    tangent chain yields, is ``v_i^T J^K_i v_i``.  Every row takes the
    steps every row takes in its own order, each slope row serving its
    point's ``r`` rows as it is.  The rows that go on run sorted by
    descending truncation, so the active rows are a prefix, and each step
    gathers the slope rows of its prefix into an idle work buffer
    (``blocks._chain``); every step works in the pool's buffers.
    """
    cache = derive_cache(params, cache)
    points = len(cache.slope[0]) if cache.slope else 1
    if len(v) % points:
        raise ShapeError(f"{len(v)} probe rows do not divide among {points} cache points")
    values = None if val_coefs is None else np.zeros(v.shape[0])
    if grad_coefs is None:
        step, steps, w, last = block_jvp, K, None, None
    else:
        step, steps, w = block_vjp, K - 1, grad_coefs[0] * v
        last = None if values is None else v.copy()

    def add(k, at, probes, cur):
        if values is not None:
            values[at] += val_coefs[k - 1] * np.einsum("ij,ij->i", probes, cur)
        if w is not None:
            w[at] += grad_coefs[k] * cur
        if last is not None:
            last[at] = cur

    # the steps every row takes: rows in their own order, slopes as they are
    lead = int(steps.min()) if len(steps) else 0
    cur = v
    for k in range(1, lead + 1):
        cur = step(params, None, cur, cache=cache)
        add(k, slice(None), v, cur)
    # the rows that go on, by descending steps: the active ones are a prefix
    order = np.argsort(-steps, kind="stable")
    tail = order[: np.count_nonzero(steps > lead)]
    vs, cur, ks = v[tail], cur[tail], steps[tail]
    rows = None if points == 1 else tail // (len(v) // points)
    for k in range(lead + 1, int(ks.max(initial=0)) + 1):
        m = int(np.searchsorted(-ks, -k, side="right"))
        prefix = BlockCache(weights=cache.weights, slope=cache.slope,
                            rows=None if rows is None else rows[:m])
        cur = step(params, None, cur[:m], cache=prefix)
        add(k, tail[:m], vs[:m], cur)
    return values, w, last


def _differentiated_series(params, x, v, coefs, cache: BlockCache, meter=None, out_cot=None):
    """Per-row values of ``sum_k coefs[k-1] v_i^T J^k v_i``, and its gradients.

    ``d(v^T J^k v)/dtheta`` expands into k bilinear forms pairing the
    forward chain ``J^j v`` with the backward chain ``(J^T)^m v``; both
    chains are kept until the sweep finishes (and reported to ``meter``),
    so retained storage grows linearly in the truncation.  With
    ``out_cot`` the pathwise term ``out_cot . g(x)`` rides the first
    bilinear form's reverse pass.
    """
    n_terms = len(coefs)
    forward = RetainedList(meter)  # J^j v, j = 0..n-1
    backward = RetainedList(meter)  # (J^T)^m v
    forward.append(v)
    backward.append(v)
    for _ in range(1, n_terms):
        forward.append(block_jvp(params, x, forward[-1], cache=cache))
        backward.append(block_vjp(params, x, backward[-1], cache=cache))
    last = block_jvp(params, x, forward[-1], cache=cache)
    values = coefs @ np.stack([np.einsum("ij,ij->i", v, f) for f in forward[1:] + [last]])
    grads = BlockGrads(params)
    input_grad = np.zeros(v.shape)
    for m in range(n_terms):
        weighted = np.zeros_like(v)
        for j in range(n_terms - m):
            weighted += coefs[m + j] * forward[j]
        g, ig, _ = bilinear_param_grad(
            params, x, backward[m], weighted, cache=cache, out_cot=out_cot if m == 0 else None
        )
        grads.add_(g)
        input_grad += ig
    forward.drop_all()
    backward.drop_all()
    return values, grads, input_grad


def _point_means(a: np.ndarray, n: int, nh: int) -> np.ndarray:
    """Average each point's ``nh`` consecutive probe rows."""
    return a.reshape(n, nh, *a.shape[1:]).mean(axis=1)


# -- estimators --------------------------------------------------------------


def _logdet_values(params, X, cfg, rng, n, biased=False, force_n=None):
    """``n`` estimates, each the mean of ``n_hutchinson`` draws, at row j of
    ``X`` or at its only row: (series, total series terms, ``g(X)``).  The
    draws, the forward and the slopes are done; ``series()`` runs the
    series on them, reading nothing else, and returns the values."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    nh = cfg.n_hutchinson
    v, K, (coefs, _) = _draw(rng, params.dim, cfg, n * nh, biased, force_n)
    g, cache = block_forward_cache(params, X, slopes_only=True)  # the series reads slopes alone

    def series():
        return _point_means(_series(params, cache, v, K, coefs)[0], n, nh)

    return series, K.reshape(n, nh).sum(axis=1), g


def roulette_logdet_rows(
    params: BlockParams,
    X: np.ndarray,
    cfg: EstimatorConfig,
    rng: np.random.Generator,
):
    """One unbiased estimate per row of ``X``: (series, series terms per row,
    ``g(X)``).  ``series()`` returns the estimates; it may run on any thread
    (``flow.log_density_batch`` hands every other block's to the series
    worker).  ``g(X)`` is the block output of the forward the estimate is
    built on, bit for bit ``block_forward``."""
    return _logdet_values(params, X, cfg, rng, len(np.atleast_2d(X)))


def roulette_logdet_batch(
    params: BlockParams,
    x: np.ndarray,
    cfg: EstimatorConfig,
    rng: np.random.Generator,
    n_samples: int,
    force_n: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``n_samples`` unbiased estimates at one point: (values, series terms).
    Expected work is ``n_exact + 1/q`` terms; ``force_n`` fixes the tail."""
    series, terms, _ = _logdet_values(params, x, cfg, rng, n_samples, force_n=force_n)
    return series(), terms


def biased_logdet_batch(
    params: BlockParams,
    x: np.ndarray,
    cfg: EstimatorConfig,
    rng: np.random.Generator,
    n_samples: int,
) -> tuple[np.ndarray, np.ndarray]:
    """``n_samples`` fixed-truncation estimates at one point: (values, terms).
    Deterministic given the probes, but biased; the bias grows with Lip(g)."""
    series, terms, _ = _logdet_values(params, x, cfg, rng, n_samples, biased=True)
    return series(), terms


def neumann_logdet_grad(
    params: BlockParams,
    x: np.ndarray,
    cfg: EstimatorConfig,
    rng: np.random.Generator,
    force_n: int | None = None,
    meter: StorageMeter | None = None,
    want_input_grad: bool = False,
):
    """Unbiased gradient of log det(I + J_g(x)) at one point.

    The gradient of ``w^T J_g(x) v`` averaged over ``n_hutchinson``
    probes, ``w`` the Neumann cotangent of ``v``.  Only the probes, the
    running product and ``w`` are held while the series runs, so retained
    storage is independent of the sampled truncation.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    _, cache = block_forward_cache(params, x)
    # the kept forward (x, z and s); probes, running product, accumulated cotangent
    held = 1 + len(cache.pre) + len(cache.act) + 3
    meter = meter or StorageMeter()
    meter.retain(held)
    cache = derive_cache(params, cache)
    v, K, (_, grad_coefs) = _draw(rng, params.dim, cfg, cfg.n_hutchinson, force_n=force_n)
    _, w, _ = _series(params, cache, v, K, None, grad_coefs)
    grads, input_grad, _ = bilinear_param_grad(params, x, w, v, cache=cache)
    grads.scale_(1.0 / cfg.n_hutchinson)
    meter.release(held)
    return (grads, input_grad.mean(axis=0)) if want_input_grad else grads


def naive_series_grad(
    params: BlockParams,
    x: np.ndarray,
    n_terms: int,
    v: np.ndarray | None = None,
    meter: StorageMeter | None = None,
    want_input_grad: bool = False,
):
    """Gradient of the truncated series at one point, every term differentiated.

    The linear-storage baseline of :func:`neumann_logdet_grad`.  With
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
    _, cache = block_forward_cache(params, x)
    held = 1 + len(cache.pre) + len(cache.act)
    meter = meter or StorageMeter()
    meter.retain(held)
    cache = derive_cache(params, cache)
    probes = np.eye(params.dim) if v is None else np.asarray(v, dtype=np.float64)[None, :]
    coefs, _ = _coefficients(n_terms)
    _, grads, input_grad = _differentiated_series(params, x, probes, coefs, cache, meter)
    meter.release(held)
    return (grads, input_grad.sum(axis=0)) if want_input_grad else grads


def neumann_grad_exact_trace(params: BlockParams, x: np.ndarray, n_terms: int) -> BlockGrads:
    """Truncated Neumann gradient with exact traces (basis probes).

    Matches :func:`naive_series_grad` in exact-trace mode term for term:
    differentiating the k-th log-det series term yields the (k-1)-th
    Neumann term, so equal truncations agree exactly.
    """
    if n_terms < 1:
        raise GuardError("need at least one term")
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    _, cache = block_forward_cache(params, x)
    cache = derive_cache(params, cache)
    probes, K = np.eye(params.dim), np.full(params.dim, n_terms)
    _, w, _ = _series(params, cache, probes, K, None, _coefficients(n_terms)[1])
    return bilinear_param_grad(params, x, w, probes, cache=cache)[0]


def neumann_grad_samples(
    params: BlockParams,
    x: np.ndarray,
    cfg: EstimatorConfig,
    rng: np.random.Generator,
    n_samples: int,
    chunk: int = 8192,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Monte-Carlo mean and standard error of the Neumann gradient.

    For the unbiasedness tests: per-coordinate mean and standard error of
    the mean, and the average series terms per estimate.  For small blocks
    (materializes per-sample gradients chunk by chunk).
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    _, cache = block_forward_cache(params, x)
    cache = derive_cache(params, cache)
    total = total_sq = terms_total = 0.0
    for done in range(0, n_samples, chunk):
        v, K, (_, grad_coefs) = _draw(rng, params.dim, cfg, min(chunk, n_samples - done))
        _, w, _ = _series(params, cache, v, K, None, grad_coefs)
        g = bilinear_param_grad_per_sample(params, x, w, v, cache=cache)
        total = total + g.sum(axis=0)
        total_sq = total_sq + (g * g).sum(axis=0)
        terms_total += float(K.sum())
    mean = total / n_samples
    var = np.maximum(total_sq / n_samples - mean**2, 0.0)
    return mean, np.sqrt(var / n_samples), terms_total / n_samples


def neumann_series_rows(params, cache, cfg: EstimatorConfig, rng, rows: int):
    """Draw ``rows`` probes and truncations now, and return the Neumann series
    on them as a call: ``series()`` returns ``(v, K, value weights, values, w,
    last)`` (:func:`_series`).  Row i reads point ``i // (rows / points)`` of
    ``cache``.  The call reads the draws and the cache's slopes, which it
    derives itself, and nothing else, so it may run on any thread while the
    cache lives (``train.nll_and_grad`` queues every block's on the series
    worker)."""
    v, K, coefs = _draw(rng, params.dim, cfg, rows)

    def series():
        return (v, K, coefs[0], *_series(params, cache, v, K, *coefs))

    return series


def _value_and_grad_rows(params, X, cfg, rng, cache, out_cot=None, biased=False, series=None):
    """Per-row values and terms, summed parameter and per-row input gradients."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    n, nh = X.shape[0], cfg.n_hutchinson
    if cache is None:
        _, cache = block_forward_cache(params, X)
    if not biased and series is None:
        # the series runs now, before the derivation below reuses its buffers
        series = Future()
        series.set_result(neumann_series_rows(params, cache, cfg, rng, n * nh)())
    if nh > 1:
        # the reverse pass reads one cache row per probe row: gather them
        rows = np.arange(n * nh) // nh
        cache = BlockCache(
            x=cache.x[rows], pre=[z[rows] for z in cache.pre],
            act=[s[rows] for s in cache.act], betas=cache.betas,
        )
        X, out_cot = cache.x, (None if out_cot is None else out_cot[rows])
    # the block's kernel weights and slopes, formed only now
    cache = derive_cache(params, cache)
    if biased:
        v, K, coefs = _draw(rng, params.dim, cfg, n * nh, biased)
        values, grads, input_grad = _differentiated_series(params, X, v, coefs[0], cache, out_cot=out_cot)
    else:
        v, K, val_coefs, values, w, last = series.result()
        grads, input_grad, jvp = bilinear_param_grad(params, X, w, v, cache=cache, out_cot=out_cot)
        # each row's last value term, v^T J^K v = ((J^T)^(K-1) v) . (J v)
        values += val_coefs[K - 1] * np.einsum("ij,ij->i", last, jvp)
    grads.scale_(1.0 / nh)
    terms = K.reshape(n, nh).sum(axis=1)
    return _point_means(values, n, nh), terms, grads, _point_means(input_grad, n, nh)


def roulette_value_and_neumann_grad_rows(
    params: BlockParams,
    X: np.ndarray,
    cfg: EstimatorConfig,
    rng: np.random.Generator,
    cache=None,
    out_cot: np.ndarray | None = None,
    series=None,
):
    """Training-time unbiased value and gradient for a batch of points.

    Each row's one (probe, truncation) pair serves the value and the
    gradient: one vector-Jacobian chain yields the reweighted terms
    ``v^T J^k v`` and the Neumann cotangent ``w``.  Returns (values,
    terms, parameter gradient summed over rows, per-row input gradient).
    With ``out_cot``, a cotangent of the block output per row, both
    gradients are those of ``sum_i logdet_i + out_cot_i . g(x_i)``: the
    pathwise term rides the bilinear form's reverse pass.  With
    ``n_hutchinson > 1`` each point's cache row serves its probes and the
    estimates are averaged.  ``series`` is the future of the block's
    :func:`neumann_series_rows` on ``cache``, handed to the series worker;
    without it this call draws and runs the series itself.
    """
    return _value_and_grad_rows(params, X, cfg, rng, cache, out_cot, series=series)


def biased_value_and_grad_rows(
    params: BlockParams,
    X: np.ndarray,
    cfg: EstimatorConfig,
    rng: np.random.Generator,
    cache=None,
    out_cot: np.ndarray | None = None,
):
    """Training-time fixed-truncation value and gradient for a batch.

    The gradient differentiates each of the ``n_fixed`` retained terms
    (the linear-memory route); value and gradient estimate the same biased
    objective, so training with them optimizes the truncated series
    rather than the true log density.  Returns and ``out_cot`` as for
    :func:`roulette_value_and_neumann_grad_rows`.
    """
    return _value_and_grad_rows(params, X, cfg, rng, cache, out_cot, biased=True)

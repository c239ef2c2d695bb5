"""Residual-branch network and its derivative primitives.

The branch ``g`` is a small dense MLP (default ``d -> hidden -> hidden -> d``)
with LipSwish activations ``z sigmoid(beta z) / 1.1`` between linear layers
(Residual Flows, arXiv:1906.02735, §4).  Everything a flow or an estimator
needs from ``g`` is exposed as an explicit function:

* ``block_forward``       -- g(x)
* ``block_forward_cache`` -- g(x) and its :class:`BlockCache`, the one
  cache type: each hidden layer's ``z`` and ``s = sigmoid(beta z)``, to
  which ``derive_cache`` adds the kernel weights and slopes formed from them
* ``block_jvp``           -- J_g(x) v
* ``block_vjp``           -- J_g(x)^T u
* ``block_dense_jacobian``-- the full d x d Jacobian (small-d oracle)
* ``bilinear_param_grad`` -- the one reverse pass: d/dtheta and d/dx of
  ``sum_i out_cot_i . g(x_i) + w_i^T J_g(x_i) v_i``, fusing the pathwise
  term with the second-order log-det term, and ``J_g(x) v``; always
  ``(grads, input_grad, jvp)``
* ``block_param_grad_of_output`` -- d/dtheta [u^T g(x)] and J_g(x)^T u
  (a call of ``bilinear_param_grad``)
* ``bilinear_param_grad_per_sample`` -- the bilinear term's per-row gradients

Derivatives are hand-derived per layer rather than taped: the chain is
short and fixed-shape, and writing it out makes the retained-state
accounting of the gradient estimators auditable.  All functions accept a
single point ``(d,)`` or a batch ``(n, d)`` and operate in float64.

Parameter order: parameters and gradients share one flat order, written
once in ``_views``: per layer the weight (row-major), the bias, then
``raw_beta`` on every layer but the last.  :func:`param_vector` and
:func:`set_param_vector` copy a block's parameters out and in.  A
:class:`BlockGrads` is such a vector, ``vec``, with per-layer views into
it that the reverse pass writes through; the per-sample gradients are
``(n, P)`` rows written the same way.

Arithmetic: the kernels never divide an activation by 1.1.  Each layer
that reads an activation multiplies a copy of its weight divided by 1.1
instead, made once per derivation or kernel call, so a hidden layer hands
on ``z s`` and its slope is ``d(z s)/dz = s (1 + t (1 - s))``, ``t = beta z``;
the gradient in such a weight is the one in its copy, divided by 1.1.
The logistic is ``1 / (1 + exp(-t))``, one exponential, whose overflow
(to an exact 0) is silenced for that call alone.  The forward keeps
``z`` and ``s``; :func:`derive_cache` forms the slopes, which every
series step reads; the reverse pass forms the activation ``z s``,
``sd1 z = z s (1 - s)`` and the slope's t-derivative ``s + slope (1 - 2 s)``
one layer at a time, right before the layer that reads them.
``activations.lipswish*`` stay the reference the tests compare against.

Buffers: one pool per thread holds every buffer a kernel reuses: the
calling thread's, and the series worker's (see below).  The series loop
in ``logdet`` runs one chain per term, ``flow.inverse`` one forward per
Picard step and a training step every block's forward and reverse pass;
fresh arrays there were handed back to the OS after each call and
faulted in again by the next.
:func:`block_forward` and the JVP/VJP chains write their hidden-width
products into the pool's two work buffers, and the forward cache its
layer outputs ``z s``, which only the next product reads, into its
scratch; a slopes-only forward keeps each layer's ``z`` and ``s`` in the
work buffers until its slope is formed.  Given a ``slot``,
:func:`block_forward_cache` keeps ``z`` and ``s`` in that slot's pool
buffers, and :func:`derive_cache` writes the kernel weights and slopes of
a slot cache into one derived set all slots share, so those exist for one
block at a time.  A pool buffer is made on first use and grown when a
call needs more, and a call takes a view of its leading elements, so
blocks of any width share it.  A slot cache is valid until the next
forward into its slot, a derived set until the next derivation of a slot
cache; without a slot the cache's arrays are fresh.  No kernel output
lives in the pool: every ``d``-wide output is a fresh array, so a step's
output never aliases the next step's input.  A pool stays allocated,
every buffer it ever grew included, until :func:`release_workspace`
frees the caller's and the worker's (``train.fit`` calls it when it is
done).

The series worker: a block's log-det series, or its Neumann series, reads
only its own draws and slopes once the forward has passed the block, never
a cotangent from later blocks (Residual Flows, arXiv:1906.02735, §3.2), so
it may run on a second thread.  :func:`series_worker` is the one scope in
which a call does that: ``flow.log_density_batch`` and
``train.nll_and_grad`` open it around an unbiased call and hand it their
series; it owns the thread, the BLAS thread count while it is open, and
the clean-up when the call fails.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from resflow.activations import LIPSWISH_SCALE, beta_from_raw, beta_raw_chain
from resflow.errors import GuardError, ShapeError

DENSE_JACOBIAN_MAX_DIM = 16


@dataclass
class LayerParams:
    """One linear layer plus the LipSwish that follows it.

    ``raw_beta`` is None on the final layer (no activation after it).
    ``pi_u`` caches the spectral power-iteration vector between constraint
    applications, ``pi_estimate`` the last measured norm and
    ``pi_iters_used`` the steps it took; ``pi_scale`` is the factor
    ``f >= 1`` the last application divided the weight by (what its
    gradient needs).
    """

    weight: np.ndarray
    bias: np.ndarray
    raw_beta: float | None
    pi_u: np.ndarray | None = None
    pi_estimate: float | None = None
    pi_iters_used: int = 0
    pi_scale: float = 1.0

    @property
    def beta(self) -> float:
        if self.raw_beta is None:
            raise ValueError("final layer has no activation parameter")
        return beta_from_raw(self.raw_beta)

    def copy(self) -> "LayerParams":
        return LayerParams(
            weight=self.weight.copy(),
            bias=self.bias.copy(),
            raw_beta=self.raw_beta,
            pi_u=None if self.pi_u is None else self.pi_u.copy(),
            pi_estimate=self.pi_estimate,
            pi_iters_used=self.pi_iters_used,
            pi_scale=self.pi_scale,
        )


@dataclass
class BlockParams:
    """Ordered layers of one residual branch ``g``.

    ``norm`` is the vector-norm order ``p`` (1, 2 or inf) of every layer's
    input and output space; each weight's induced ``p``-norm (spectral for
    2, max column / row abs sum for 1 / inf) is what the Lipschitz
    constraint bounds.
    """

    layers: list[LayerParams]
    norm: float = 2.0

    def __post_init__(self) -> None:
        self.validate()

    @property
    def dim(self) -> int:
        return self.layers[0].weight.shape[1]

    def validate(self) -> None:
        layers = self.layers
        if not layers:
            raise ShapeError("a block needs at least one layer")
        if self.norm not in (1.0, 2.0, np.inf):
            raise ShapeError(f"unsupported norm orders: p = {self.norm!r} is not 1, 2 or inf")
        for i, lay in enumerate(layers):
            if lay.weight.ndim != 2 or lay.bias.shape != (lay.weight.shape[0],):
                raise ShapeError(f"layer {i}: weight/bias shapes do not agree")
            if not np.all(np.isfinite(lay.weight)) or not np.all(np.isfinite(lay.bias)):
                raise ShapeError(f"layer {i}: non-finite parameters")
        for i in range(len(layers) - 1):
            if layers[i].weight.shape[0] != layers[i + 1].weight.shape[1]:
                raise ShapeError(
                    f"layer {i} output dim {layers[i].weight.shape[0]} does not "
                    f"match layer {i + 1} input dim {layers[i + 1].weight.shape[1]}"
                )
            if layers[i].raw_beta is None:
                raise ShapeError(f"layer {i} is not the last layer but has no beta")
        if layers[-1].raw_beta is not None:
            raise ShapeError("last layer must not carry an activation parameter")
        if layers[0].weight.shape[1] != layers[-1].weight.shape[0]:
            raise ShapeError("block must map back to its input dimension")

    def copy(self) -> "BlockParams":
        return BlockParams(layers=[lay.copy() for lay in self.layers], norm=self.norm)


# -- the flat parameter order (the optimizer, gradients and FD oracles) -----


def param_count(params: BlockParams) -> int:
    return sum(lay.weight.size + lay.bias.size + (lay.raw_beta is not None) for lay in params.layers)


class LayerGrads(NamedTuple):
    """One layer's ``weight``, ``bias`` and ``raw_beta`` (None on the last
    layer) as views into a flat vector: written in place, never rebound."""

    weight: np.ndarray
    bias: np.ndarray
    raw_beta: np.ndarray | None


def _views(params: BlockParams, vec: np.ndarray) -> list[LayerGrads]:
    """Each layer's ``(weight, bias, raw_beta)`` in the flat order, as views into
    the last axis of ``vec``: shaped like the parameters (``raw_beta`` 0-d,
    None on the last layer) for a 1-D ``vec``, ``n`` of each for an ``(n, P)``
    matrix.  A last axis that is not ``param_count`` long is a ``ShapeError``."""
    if vec.shape[-1] != param_count(params):
        raise ShapeError(f"parameter vector has {vec.shape[-1]} values, the block {param_count(params)}")
    lead, views, pos = vec.shape[:-1], [], 0
    for lay in params.layers:
        weight = vec[..., pos : pos + lay.weight.size].reshape(*lead, *lay.weight.shape)
        pos += lay.weight.size
        bias = vec[..., pos : pos + lay.bias.size]
        pos += lay.bias.size
        raw_beta = None
        if lay.raw_beta is not None:
            raw_beta = vec[..., pos]
            pos += 1
        views.append(LayerGrads(weight, bias, raw_beta))
    return views


def param_vector(params: BlockParams) -> np.ndarray:
    vec = np.empty(param_count(params))
    for lay, (weight, bias, raw_beta) in zip(params.layers, _views(params, vec)):
        weight[...], bias[...] = lay.weight, lay.bias
        if raw_beta is not None:
            raw_beta[...] = lay.raw_beta
    return vec


def set_param_vector(params: BlockParams, vec: np.ndarray) -> None:
    for lay, (weight, bias, raw_beta) in zip(params.layers, _views(params, vec)):
        lay.weight[...], lay.bias[...] = weight, bias
        if raw_beta is not None:
            lay.raw_beta = float(raw_beta)


class BlockGrads:
    """A block's parameter gradient as one flat vector.

    ``vec`` is in :func:`param_vector` order and starts at zero, and
    ``layers[l]`` holds layer l's ``weight``, ``bias`` and ``raw_beta``
    (a 0-d array, None on the last layer) as views into it, written in
    place (``g.weight[...] = ...``).
    """

    def __init__(self, params: BlockParams):
        # np.full, not np.zeros: calloc can hand back untouched pages for a
        # vector this size, which every training step then faults in again
        self.vec = np.full(param_count(params), 0.0)
        self.layers = _views(params, self.vec)

    def add_(self, other: "BlockGrads", scale: float = 1.0) -> "BlockGrads":
        self.vec += scale * other.vec
        return self

    def scale_(self, scale: float) -> "BlockGrads":
        self.vec *= scale
        return self


def grads_vector(grads: BlockGrads) -> np.ndarray:
    return grads.vec


# -- forward and cache ------------------------------------------------------


@dataclass
class BlockCache:
    """What a block forward keeps for its derivatives, and what is derived from it.

    ``x`` is the block's input batch, ``pre[l]`` hidden layer l's
    pre-activation ``z`` and ``act[l]`` its logistic ``s = sigmoid(beta z)``,
    ``betas[l]`` the positive activation parameters, and ``slot`` the pool
    slot holding ``pre`` and ``act``, None for fresh arrays.

    :func:`derive_cache` fills in ``weights`` and ``slope``, None until
    then.  ``weights[l]`` is layer l's weight as the kernels multiply it:
    the first layer's as it is, each later one, which reads an activation,
    divided by 1.1 (the LipSwish scale, paid once per derivation instead
    of once per activation).  The activation a layer hands on is then
    ``z s``, and ``slope[l]`` hidden layer l's ``d(z s)/dz = s (1 + t (1 - s))``
    with ``t = beta z``.  The reverse pass forms ``z s``, ``sd1 z = z s (1 - s)``
    and the slope's t-derivative from ``pre`` and ``act`` right before the
    layer that reads them.  The JVP/VJP chains read ``weights`` and
    ``slope`` alone, all a slopes-only forward keeps, and ``rows``: given
    it, row i of a chain reads slope row ``rows[i]`` (see :func:`_chain`).
    """

    x: np.ndarray | None = None
    pre: list[np.ndarray] = field(default_factory=list)
    act: list[np.ndarray] = field(default_factory=list)
    betas: list[float] = field(default_factory=list)
    slot: object = None
    weights: list[np.ndarray] | None = None
    slope: list[np.ndarray] | None = None
    rows: np.ndarray | None = None


def _as_batch(params: BlockParams, x: np.ndarray) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != params.dim:
        raise ShapeError(
            f"input has shape {x.shape}, expected (*, {params.dim})"
        )
    return x, squeeze


# The pool: each slot's kept (z, s), one derived set shared by all slots,
# the forward's scratch and the chains' two work buffers.  One dict per
# thread, so threads never share a buffer.
_workspace = threading.local()


def _buffer(shared: bool, key, n: int, width: int) -> np.ndarray:
    """An ``(n, width)`` view of the leading elements of this thread's pool
    buffer ``key`` when ``shared``, which is made on first use and grown when
    too small; a fresh array otherwise."""
    if not shared:
        return np.empty((n, width))
    buffers = _workspace.__dict__.setdefault("buffers", {})
    buf = buffers.get(key)
    if buf is None or buf.size < n * width:
        buf = buffers[key] = np.empty(n * width)
    return buf[: n * width].reshape(n, width)


def _clear_pool() -> None:
    _workspace.__dict__.clear()


def release_workspace() -> None:
    """Free this thread's pool and, once it has started, the series worker's;
    the next call that needs a buffer makes it afresh."""
    _clear_pool()
    if _executor_started:
        _executor.submit(_clear_pool).result()


def _find_blas_setter(maps: str = "/proc/self/maps"):
    """``openblas_set_num_threads_local`` of the OpenBLAS that numpy loaded,
    found among the mapped files of ``maps``; None where there is none.
    It sets the count of the whole process and returns the one it replaces."""
    try:
        with open(maps) as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            setter = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
        return setter
    return None


@functools.cache
def _blas_setter():
    """:func:`_find_blas_setter`, looked up on first use."""
    return _find_blas_setter()


_blas_lock = threading.Lock()
_blas_scopes = 0
_blas_threads_before = 0
_executor = ThreadPoolExecutor(max_workers=1, thread_name_prefix="resflow series worker")
_executor_started = False


def _submit(fn, jobs: list) -> Future:
    """Run ``fn()`` on the series worker, or here where OpenBLAS's setter is
    not found, and add its future to ``jobs``."""
    global _executor_started
    if _blas_setter() is None:
        job = Future()
        try:
            job.set_result(fn())
        except Exception as exc:
            job.set_exception(exc)
    else:
        _executor_started = True
        job = _executor.submit(fn)
    jobs.append(job)
    return job


@contextmanager
def series_worker():
    """The scope in which a call hands block series to the series worker.

    Yields ``submit(fn) -> Future``, which runs ``fn()`` on the worker, one
    thread with its own pool, started on first use; jobs run one at a time,
    in the order handed over.  While any scope is open, in any thread,
    OpenBLAS is pinned to one thread, so the caller and the worker share
    the CPUs as two one-thread BLAS users; the last scope to close puts
    back the count the first one found.  Without OpenBLAS's setter the
    scope pins nothing and ``fn`` runs on the caller, its future coming
    back done.  If the body raises, every job it handed over is cancelled
    or waited for before the error leaves the scope, so none runs past it.
    """
    global _blas_scopes, _blas_threads_before
    setter, jobs = _blas_setter(), []
    with _blas_lock:
        if setter and not _blas_scopes:
            _blas_threads_before = setter(1)
        _blas_scopes += 1
    try:
        yield lambda fn: _submit(fn, jobs)
    except BaseException:
        for job in jobs:
            job.cancel()
        wait(jobs)
        raise
    finally:
        with _blas_lock:
            _blas_scopes -= 1
            if setter and not _blas_scopes:
                setter(_blas_threads_before)


def _kernel_weights(params: BlockParams, key=None) -> list[np.ndarray]:
    """Each layer's weight as the kernels multiply it: the first layer's as it
    is, each later one divided by 1.1; in pool buffers ``(key, l)`` given a
    ``key``, fresh otherwise."""
    first, *rest = params.layers
    return [first.weight] + [
        np.divide(lay.weight, LIPSWISH_SCALE, out=_buffer(key is not None, (key, l), *lay.weight.shape))
        for l, lay in enumerate(rest, 1)
    ]


def _logistic(z: np.ndarray, beta: float, out: np.ndarray) -> np.ndarray:
    """``sigmoid(beta z) = 1 / (1 + exp(-beta z))`` into ``out``, from one
    exponential.  Where ``exp`` overflows, ``1 + inf`` is inf and the
    logistic exactly 0, so the overflow is silenced for this call alone."""
    e = np.multiply(z, -beta, out=out)
    with np.errstate(over="ignore"):
        np.exp(e, out=e)
    e += 1.0
    return np.divide(1.0, e, out=e)


def block_forward_cache(params: BlockParams, x: np.ndarray, slot=None, slopes_only: bool = False):
    """Evaluate g(x) and keep each hidden layer's ``z`` and ``s``.

    The activations ``z s``, which only the next layer's product reads, go
    into the pool's scratch.  Given a ``slot`` (any hashable; training uses
    the block's position), ``z`` and ``s`` go into that slot's pool buffers
    and the kernel weights into the pool too: the cache is then valid
    until the next forward into the same slot.  Without one they are
    fresh.  ``slopes_only``, for the value routes and the kernels given no
    cache, keeps the kernel weights and slopes alone, bit for bit those
    :func:`derive_cache` forms: each layer's ``z`` and ``s`` live in the
    pool's two work buffers until its slope is formed.  ``g(x)`` is a fresh
    array either way, bit for bit :func:`block_forward`.
    """
    x, _ = _as_batch(params, x)
    n, shared = x.shape[0], slot is not None
    weights = _kernel_weights(params, "forward weight" if shared else None)
    h, pre, act, slopes, betas = x, [], [], [], []
    for l, lay in enumerate(params.layers[:-1]):
        width = lay.weight.shape[0]
        if slopes_only:
            zbuf, sbuf = (_buffer(True, f"work {i}", n, width) for i in (0, 1))
        else:
            zbuf, sbuf = (_buffer(shared, (slot, key, l), n, width) for key in ("z", "s"))
        z = np.matmul(h, weights[l].T, out=zbuf)
        z += lay.bias
        beta = lay.beta
        s = _logistic(z, beta, out=sbuf)
        betas.append(beta)
        if slopes_only:
            slopes.append(_slope(z, s, beta, out=np.empty((n, width))))
            h = np.multiply(z, s, out=s)
            continue
        h = np.multiply(z, s, out=_buffer(True, "scratch", n, width))
        pre.append(z)
        act.append(s)
    g = h @ weights[-1].T
    g += params.layers[-1].bias
    if slopes_only:
        return g, BlockCache(betas=betas, weights=weights, slope=slopes)
    return g, BlockCache(x=x, pre=pre, act=act, betas=betas, slot=slot)


def _slope(z: np.ndarray, s: np.ndarray, beta: float, out: np.ndarray) -> np.ndarray:
    """``s (1 + t (1 - s))``, t = beta z, into ``out``: ``(1 - s) z beta + 1``, times ``s``."""
    d1 = np.subtract(1.0, s, out=out)
    d1 *= z
    d1 *= beta
    d1 += 1.0
    d1 *= s
    return d1


def derive_cache(params: BlockParams, cache: BlockCache) -> BlockCache:
    """A copy of ``cache`` with the kernel weights and each hidden layer's
    slope (:func:`_slope`) filled in, or ``cache`` itself if it has them.

    The arrays of a slot cache go into the pool's one derived set all slots
    share, valid until the next derivation of a slot cache; a fresh cache's
    are fresh.
    """
    if cache.weights is not None:
        return cache
    shared = cache.slot is not None
    slopes = [
        _slope(z, s, beta, out=_buffer(shared, ("slope", l), *z.shape))
        for l, (z, s, beta) in enumerate(zip(cache.pre, cache.act, cache.betas))
    ]
    return replace(cache, weights=_kernel_weights(params, "weight" if shared else None), slope=slopes)


def block_forward(params: BlockParams, x: np.ndarray) -> np.ndarray:
    """g(x); the residual add ``x + g(x)`` lives in the flow module.

    Each hidden layer's pre-activation goes into the pool's ``work 0``,
    its logistic and then its activation into ``work 1``.
    """
    h, squeeze = _as_batch(params, x)
    n = h.shape[0]
    weights = _kernel_weights(params)
    for lay, weight in zip(params.layers[:-1], weights):
        width = lay.weight.shape[0]
        z = np.matmul(h, weight.T, out=_buffer(True, "work 0", n, width))
        z += lay.bias
        h = _logistic(z, lay.beta, out=_buffer(True, "work 1", n, width))
        h *= z
    h = h @ weights[-1].T
    h += params.layers[-1].bias
    return h[0] if squeeze else h


Cache = BlockCache | None


def _cache_for(params: BlockParams, x: np.ndarray, cache: Cache, slopes_only=False) -> BlockCache:
    """``cache`` derived (:func:`derive_cache`), from a fresh forward of ``x``
    if None: a slopes-only one for ``slopes_only``."""
    if cache is None:
        _, cache = block_forward_cache(params, x, slopes_only=slopes_only)
    return derive_cache(params, cache)


def _chain(t: np.ndarray, mats, slopes, rows=None) -> np.ndarray:
    """``t @ mats[0]``, times ``slopes[0]``, ``@ mats[1]``, ..., ``@ mats[-1]``.

    The hidden-width products alternate between the pool's ``work 0`` and
    ``work 1``; the last, ``d``-wide product is a fresh array, so a chain's
    output never aliases the next chain's input.  Given ``rows``, row i of
    ``t`` reads slope row ``rows[i]``, gathered into the other work buffer,
    which only the product's input occupied.  Otherwise each slope row serves
    ``len(t) // len(slope)`` consecutive rows of ``t``, and a single row of
    ``t`` meets a batch of slopes by broadcasting.
    """
    for l, (mat, slope) in enumerate(zip(mats, slopes)):
        key, width = f"work {l % 2}", mat.shape[1]
        t = np.matmul(t, mat, out=_buffer(True, key, t.shape[0], width))
        if rows is not None:
            idle = _buffer(True, f"work {(l + 1) % 2}", len(rows), width)
            slope = np.take(slope, rows, axis=0, out=idle, mode="clip")
        if t.shape[0] > slope.shape[0] > 1:
            grouped = (slope.shape[0], -1, width)
            np.multiply(t.reshape(grouped), slope[:, None], out=t.reshape(grouped))
        else:
            t = np.multiply(t, slope, out=_buffer(True, key, max(t.shape[0], slope.shape[0]), width))
    return t @ mats[-1]


def block_jvp(params: BlockParams, x: np.ndarray, v: np.ndarray, cache: Cache = None) -> np.ndarray:
    """J_g(x) v via the layer chain rule."""
    cache = _cache_for(params, x, cache, slopes_only=True)
    t, squeeze = _as_batch(params, np.asarray(v, dtype=np.float64))
    t = _chain(t, [w.T for w in cache.weights], cache.slope, cache.rows)
    return t[0] if squeeze else t


def block_vjp(params: BlockParams, x: np.ndarray, u: np.ndarray, cache: Cache = None) -> np.ndarray:
    """J_g(x)^T u, i.e. the row vector u^T J_g(x) laid out as a vector."""
    cache = _cache_for(params, x, cache, slopes_only=True)
    r, squeeze = np.asarray(u, dtype=np.float64), False
    if r.ndim == 1:
        r, squeeze = r[None, :], True
    r = _chain(r, cache.weights[::-1], cache.slope[::-1], cache.rows)
    return r[0] if squeeze else r


def block_dense_jacobian(params: BlockParams, x: np.ndarray, cache: Cache = None) -> np.ndarray:
    """Assemble J_g(x) column by column from JVPs with basis vectors.

    Brute-force oracle; guarded to small dimensions.
    """
    d = params.dim
    if d > DENSE_JACOBIAN_MAX_DIM:
        raise GuardError(
            f"dense Jacobian limited to dim <= {DENSE_JACOBIAN_MAX_DIM}, got {d}"
        )
    xb, squeeze = _as_batch(params, x)
    cache = _cache_for(params, xb, cache, slopes_only=True)
    n = xb.shape[0]
    jac = np.empty((n, d, d))
    for j in range(d):
        e = np.zeros((n, d))
        e[:, j] = 1.0
        jac[:, :, j] = block_jvp(params, xb, e, cache=cache)
    return jac[0] if squeeze else jac


# -- reverse pass: parameter and input gradients ---------------------------


def _reverse(cache: BlockCache, out_cot, w, v, per_row: bool):
    """The reverse pass of ``s = sum_i out_cot_i . g(x_i) + w_i^T J_g(x_i) v_i``.

    ``out_cot`` (the pathwise term) or ``w, v`` (the bilinear term) may be None.
    Runs the tangent chain of ``v`` up the block, then walks the layers
    down and yields, per layer l from the top, ``(l, zbar, inp, pi, tau,
    dbeta)``:
      zbar   cotangent of the pre-activation z_l: the pathwise part plus
             the bilinear part, which includes the cascade of z_l into
             all later slopes (None where both are absent),
      inp    the layer's input: ``x``, or ``z s`` of the hidden layer below,
      pi     cotangent of the tangent ``W_l tau`` (bilinear term only),
      tau    tangent entering layer l, the J chain applied to v,
      dbeta  on hidden layers ds/dbeta_l, summed over rows unless ``per_row``.
    Products are with the kernel weights, so a layer past the first has
    the gradient in its weight ``W`` of ``zbar^T inp + pi^T tau``, over 1.1.
    """
    weights, slopes, betas = cache.weights, cache.slope, cache.betas
    top = len(weights) - 1
    reduce = "ij,ij->i" if per_row else "ij,ij->"

    def layer_input(l):
        return cache.x if l == 0 else cache.pre[l - 1] * cache.act[l - 1]

    tau, kappa = [None] * (top + 1), [None] * top
    if w is not None:
        tau[0] = v
        for l in range(top):
            kappa[l] = tau[l] @ weights[l].T
            tau[l + 1] = kappa[l] * slopes[l]
    zbar, pi, inp = out_cot, w, layer_input(top)
    yield top, zbar, inp, pi, tau[top], None
    for l in range(top - 1, -1, -1):
        z, s, slope = cache.pre[l], cache.act[l], slopes[l]
        zb = q = lam = None
        if pi is not None:
            lam = pi @ weights[l + 1]
            pi = lam * slope
            # the slope's t-derivative, s + slope (1 - 2 s): beta times it is
            # its z-derivative (curvature), z times it its beta-derivative
            c = s * -2.0
            c += 1.0
            c *= slope
            c += s
            lam *= kappa[l]
            lam *= c
            q = lam
        if zbar is not None:
            zb = zbar @ weights[l + 1]
            # the activation's beta-derivative is z sd1 z = z s (1 - s) z
            sd1z = 1.0 - s
            sd1z *= inp
            q = zb * sd1z
            if lam is not None:
                q += lam
            zb *= slope
        dbeta = np.einsum(reduce, q, z)
        if lam is not None:
            lam *= betas[l]
            if zb is None:
                zb = lam
            else:
                zb += lam
        zbar, inp = zb, layer_input(l)
        yield l, zbar, inp, pi, tau[l], dbeta


def _probe_rows(params: BlockParams, x: np.ndarray, cache: Cache, *vecs):
    """The cache of ``x`` and each of ``vecs`` as a float64 batch (None stays None)."""
    xb, _ = _as_batch(params, x)
    cache = _cache_for(params, xb, cache)
    rows = [None if a is None else np.atleast_2d(np.asarray(a, dtype=np.float64)) for a in vecs]
    return cache, rows


def _rows(a: np.ndarray, n: int) -> np.ndarray:
    """A single-point cache array broadcast against ``n`` probe rows."""
    return a if a.shape[0] == n else np.broadcast_to(a, (n, a.shape[1]))


def bilinear_param_grad(
    params: BlockParams,
    x: np.ndarray,
    w: np.ndarray | None = None,
    v: np.ndarray | None = None,
    cache: Cache = None,
    out_cot: np.ndarray | None = None,
):
    """Gradient of ``s = sum_i out_cot_i . g(x_i) + w_i^T J_g(x_i) v_i``.

    The one reverse pass of the block.  In unbiased training ``w`` is the
    Neumann cotangent of the probe ``v``, which turns the series into a
    parameter gradient without differentiating through its accumulation,
    and ``out_cot`` the cotangent of the block output, so the log-det and
    the pathwise gradient come out of a single traversal: both terms share
    each layer's pre-activation cotangent, hence one product carries it
    down and one product gives its weight gradient.  The bilinear term adds
    the tangent chain of ``v``, the cotangent chain of ``w`` and the
    activation's second derivative, since the Jacobian already contains its
    first.  Either term may be left out (None).  Returns ``(grads,
    input_grad, jvp)``: the parameter gradient summed over rows, the
    ``(n, d)`` gradient in ``x``, which the training loop backpropagates
    into upstream layers, and the tangent chain's output ``J_g(x) v``,
    None without ``w``.
    """
    cache, (out_cot, w, v) = _probe_rows(params, x, cache, out_cot, w, v)
    n = (out_cot if out_cot is not None else w).shape[0]
    grads, xbar, jvp = BlockGrads(params), None, None
    top = len(grads.layers) - 1
    for l, zbar, inp, pi, tau, dbeta in _reverse(cache, out_cot, w, v, per_row=False):
        weight, bias, raw_beta = grads.layers[l]
        if zbar is not None:
            np.matmul(zbar.T, _rows(inp, n), out=weight)
            np.sum(zbar, axis=0, out=bias)
        if pi is not None:
            weight += pi.T @ tau
        if l > 0:
            weight /= LIPSWISH_SCALE
        if l == top and tau is not None:
            jvp = tau @ cache.weights[l].T
        if dbeta is not None:
            raw_beta[...] = dbeta * beta_raw_chain(params.layers[l].raw_beta)
        if l == 0 and zbar is not None:
            xbar = zbar @ cache.weights[0]
    if xbar is None:
        xbar = np.zeros((n, params.dim))
    return grads, xbar, jvp


def block_param_grad_of_output(params: BlockParams, x: np.ndarray, u: np.ndarray, cache: Cache = None):
    """``(grads, vjp)``: the gradient of ``u . g(x)``, summed over a batch, in
    every block parameter, and the ``(n, d)`` input cotangent ``J_g(x)^T u``;
    the pathwise term of :func:`bilinear_param_grad` alone."""
    return bilinear_param_grad(params, x, cache=cache, out_cot=u)[:2]


def bilinear_param_grad_per_sample(
    params: BlockParams,
    x: np.ndarray,
    w: np.ndarray,
    v: np.ndarray,
    cache: Cache = None,
) -> np.ndarray:
    """Per-sample gradients of ``w_i^T J_g(x) v_i`` as an (n, P) matrix.

    Materializes the rank-2 per-sample weight gradients, so it is meant
    for small blocks (Monte-Carlo statistics in tests/diagnostics).
    """
    cache, (w, v) = _probe_rows(params, x, cache, w, v)
    n = w.shape[0]
    per_sample = np.zeros((n, param_count(params)))
    views = _views(params, per_sample)
    for l, zbar, inp, pi, tau, dbeta in _reverse(cache, None, w, v, per_row=True):
        weight, bias, raw_beta = views[l]
        np.multiply(pi[:, :, None], tau[:, None, :], out=weight)
        if zbar is not None:
            weight += zbar[:, :, None] * _rows(inp, n)[:, None, :]
            bias[...] = zbar
        if l > 0:
            weight /= LIPSWISH_SCALE
        if dbeta is not None:
            raw_beta[...] = dbeta * beta_raw_chain(params.layers[l].raw_beta)
    return per_sample

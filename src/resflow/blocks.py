"""Residual-branch network and its derivative primitives.

The branch ``g`` is a small dense MLP (default ``d -> hidden -> hidden -> d``)
with LipSwish activations between linear layers.  Everything a flow or an
estimator needs from ``g`` is exposed as an explicit function:

* ``block_forward``       -- g(x)
* ``block_forward_cache`` -- g(x), keeping each hidden layer's ``z`` and
  ``s = sigmoid(beta z)``, and ``derive_cache``, which forms everything
  else the chains and the reverse pass read from those two
* ``block_jvp``           -- J_g(x) v
* ``block_vjp``           -- J_g(x)^T u
* ``block_dense_jacobian``-- the full d x d Jacobian (small-d oracle)
* ``block_param_grad``    -- d/dtheta and d/dx of
  ``sum_i u_i . g(x_i) + w_i^T J_g(x_i) v_i``: the one reverse pass, fusing
  the pathwise term with the second-order log-det term
* ``bilinear_param_grad`` -- d/dtheta [w^T J_g(x) v], optionally plus the
  pathwise term (a call of ``block_param_grad``)
* ``block_param_grad_of_output`` -- d/dtheta [u^T g(x)] (likewise)

Derivatives are hand-derived per layer rather than taped: the chain is
short and fixed-shape, and writing it out makes the retained-state
accounting of the gradient estimators auditable.  All functions accept a
single point ``(d,)`` or a batch ``(n, d)`` and operate in float64.

Work buffers: ``block_forward``, ``block_jvp`` and ``block_vjp`` take a
keyword ``work``, a list from :func:`work_buffers` with at least the
call's row count, and write every ``(rows, hidden)`` intermediate into
its leading rows.  Their callers loop: the series loop in ``logdet``
runs one chain per term and ``flow.inverse`` one forward per Picard
step.  Fresh ``(rows, hidden)`` arrays there were handed back to the OS
between steps and faulted in again by the next one, so each loop holds
one set per call instead.  Without ``work`` a kernel makes its own set:
one code path either way.  The ``d``-wide output is always a fresh
array, so a step's output never aliases the next step's input.

Workspace: a training step holds every block's forward cache from the
forward sweep to that block's reverse pass, then does it all again the
next step.  Given a ``slot``, :func:`block_forward_cache` keeps ``z`` and
``s`` in that slot's buffers of a per-thread workspace, and
:func:`derive_cache` writes the slopes, ``sd1``, ``common`` and hidden
inputs of a slot cache into one derived set all slots share, so those
exist for one block at a time.  Buffers are made on first use and
replaced when a shape changes.  A slot cache is valid until the next
forward into its slot, a derived set until the next derivation of a slot
cache; nothing a kernel returns lives in the workspace.  Without a slot
every array is fresh, as the value-only routes and tests use them.  The
workspace stays allocated, every slot it ever held included, until
:func:`release_workspace` (``train.fit`` calls it when it is done).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from resflow.activations import (
    LIPSWISH_SCALE,
    beta_from_raw,
    beta_raw_chain,
    sigmoid,
)
from resflow.errors import GuardError, ShapeError

DENSE_JACOBIAN_MAX_DIM = 16

# (norm_in, norm_out) pairs the Lipschitz constraint can measure
SUPPORTED_NORM_ORDERS = {(1.0, 1.0), (2.0, 2.0), (np.inf, np.inf)}


@dataclass
class LayerParams:
    """One linear layer plus the LipSwish that follows it.

    ``raw_beta`` is None on the final layer (no activation after it).
    ``norm_in``/``norm_out`` are the vector-norm orders of the layer's
    input and output spaces, a pair from ``SUPPORTED_NORM_ORDERS``; the
    induced norm of ``weight`` for that pair (spectral for 2, max column /
    row abs sum for 1 / inf) is what the Lipschitz constraint bounds.
    ``pi_u`` caches the spectral power-iteration vector between constraint
    applications, ``pi_estimate`` the last measured norm and
    ``pi_iters_used`` the steps it took; ``pi_scale`` is the factor
    ``f >= 1`` the last application divided the weight by (what its
    gradient needs).
    """

    weight: np.ndarray
    bias: np.ndarray
    raw_beta: float | None
    norm_in: float = 2.0
    norm_out: float = 2.0
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
            norm_in=self.norm_in,
            norm_out=self.norm_out,
            pi_u=None if self.pi_u is None else self.pi_u.copy(),
            pi_estimate=self.pi_estimate,
            pi_iters_used=self.pi_iters_used,
            pi_scale=self.pi_scale,
        )


@dataclass
class BlockParams:
    """Ordered layers of one residual branch ``g``."""

    layers: list[LayerParams]

    def __post_init__(self) -> None:
        self.validate()

    @property
    def dim(self) -> int:
        return self.layers[0].weight.shape[1]

    def validate(self) -> None:
        layers = self.layers
        if not layers:
            raise ShapeError("a block needs at least one layer")
        for i, lay in enumerate(layers):
            if lay.weight.ndim != 2 or lay.bias.shape != (lay.weight.shape[0],):
                raise ShapeError(f"layer {i}: weight/bias shapes do not agree")
            if not np.all(np.isfinite(lay.weight)) or not np.all(np.isfinite(lay.bias)):
                raise ShapeError(f"layer {i}: non-finite parameters")
            if (lay.norm_in, lay.norm_out) not in SUPPORTED_NORM_ORDERS:
                raise ShapeError(
                    f"layer {i}: norm orders ({lay.norm_in}, {lay.norm_out}) are not "
                    "one of (1, 1), (2, 2), (inf, inf)"
                )
        for i in range(len(layers) - 1):
            if layers[i].weight.shape[0] != layers[i + 1].weight.shape[1]:
                raise ShapeError(
                    f"layer {i} output dim {layers[i].weight.shape[0]} does not "
                    f"match layer {i + 1} input dim {layers[i + 1].weight.shape[1]}"
                )
            if layers[i].norm_out != layers[i + 1].norm_in:
                raise ShapeError(
                    f"norm orders do not chain between layers {i} and {i + 1}"
                )
            if layers[i].raw_beta is None:
                raise ShapeError(f"layer {i} is not the last layer but has no beta")
        if layers[-1].raw_beta is not None:
            raise ShapeError("last layer must not carry an activation parameter")
        if layers[0].weight.shape[1] != layers[-1].weight.shape[0]:
            raise ShapeError("block must map back to its input dimension")
        if layers[0].norm_in != layers[-1].norm_out:
            raise ShapeError("block must map back to its input normed space")

    def copy(self) -> "BlockParams":
        return BlockParams(layers=[lay.copy() for lay in self.layers])


@dataclass
class LayerGrads:
    weight: np.ndarray
    bias: np.ndarray
    raw_beta: float


@dataclass
class BlockGrads:
    """Parameter gradient with the same structure as :class:`BlockParams`."""

    layers: list[LayerGrads]

    @staticmethod
    def zeros_like(params: BlockParams) -> "BlockGrads":
        return BlockGrads(
            layers=[
                LayerGrads(
                    weight=np.zeros_like(lay.weight),
                    bias=np.zeros_like(lay.bias),
                    raw_beta=0.0,
                )
                for lay in params.layers
            ]
        )

    def add_(self, other: "BlockGrads", scale: float = 1.0) -> "BlockGrads":
        for a, b in zip(self.layers, other.layers):
            a.weight += scale * b.weight
            a.bias += scale * b.bias
            a.raw_beta += scale * b.raw_beta
        return self

    def scale_(self, scale: float) -> "BlockGrads":
        for a in self.layers:
            a.weight *= scale
            a.bias *= scale
            a.raw_beta *= scale
        return self


# -- parameter vector utilities (used by the optimizer and FD oracles) -----


def param_count(params: BlockParams) -> int:
    total = 0
    for lay in params.layers:
        total += lay.weight.size + lay.bias.size
        if lay.raw_beta is not None:
            total += 1
    return total


def param_vector(params: BlockParams) -> np.ndarray:
    parts = []
    for lay in params.layers:
        parts.append(lay.weight.ravel())
        parts.append(lay.bias)
        if lay.raw_beta is not None:
            parts.append(np.array([lay.raw_beta]))
    return np.concatenate(parts)


def set_param_vector(params: BlockParams, vec: np.ndarray) -> None:
    pos = 0
    for lay in params.layers:
        n = lay.weight.size
        lay.weight[...] = vec[pos : pos + n].reshape(lay.weight.shape)
        pos += n
        n = lay.bias.size
        lay.bias[...] = vec[pos : pos + n]
        pos += n
        if lay.raw_beta is not None:
            lay.raw_beta = float(vec[pos])
            pos += 1
    if pos != vec.size:
        raise ShapeError("parameter vector length does not match block")


def grads_vector(grads: BlockGrads) -> np.ndarray:
    parts = []
    last = len(grads.layers) - 1
    for l, lay in enumerate(grads.layers):
        parts.append(lay.weight.ravel())
        parts.append(lay.bias)
        if l != last:
            parts.append(np.array([lay.raw_beta]))
    return np.concatenate(parts)


# -- forward and cache ------------------------------------------------------


@dataclass
class BlockCache:
    """What a block forward keeps for its derivatives: two arrays per hidden layer.

    ``x`` is the block's input batch, ``pre[l]`` hidden layer l's
    pre-activation ``z`` and ``act[l]`` its logistic ``s = sigmoid(beta z)``,
    ``betas[l]`` the positive activation parameters.  Everything else the
    chains and the reverse pass read comes from these in a few elementwise
    passes (:func:`derive_cache`), so it is formed one block at a time
    rather than kept for every block of a model at once.  ``slot`` is the
    workspace slot holding ``pre`` and ``act``, None for fresh arrays.
    """

    x: np.ndarray
    pre: list[np.ndarray]
    act: list[np.ndarray]
    betas: list[float]
    slot: object = None


@dataclass
class DerivedCache:
    """The arrays the JVP/VJP chains and the reverse pass read.

    ``inputs[l]`` is the input to layer l, ``pre[l]`` hidden layer l's
    pre-activation, ``slope[l]`` the activation derivative there,
    ``betas[l]`` the activation parameters.  With ``t = beta z`` and
    ``s = sigmoid(t)``, ``sd1[l]`` is ``s (1 - s)`` and ``common[l]``
    ``(2 sd1 + t sd1 (1 - 2 s)) / 1.1``: the activation's second derivative
    is ``beta * common`` and the slope's beta-derivative ``z * common``, so
    the reverse pass needs no fresh exponentials.  The chains read
    ``slope`` alone, which is all a slopes-only derivation fills in.
    """

    inputs: list[np.ndarray] = field(default_factory=list)
    pre: list[np.ndarray] = field(default_factory=list)
    slope: list[np.ndarray] = field(default_factory=list)
    sd1: list[np.ndarray] = field(default_factory=list)
    common: list[np.ndarray] = field(default_factory=list)
    betas: list[float] = field(default_factory=list)


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


# The training step's workspace: each slot's kept (z, s), one derived set
# shared by all slots, and the forward's scratch.  Fresh arrays of these
# sizes were handed back to the OS after every step and faulted in again
# by the next one.  One dict per thread, so threads never share a buffer.
_workspace = threading.local()


def _buffer(shared: bool, key, shape: tuple[int, int]) -> np.ndarray:
    """The workspace buffer ``key`` of ``shape`` when ``shared``, made on first
    use and replaced when the shape changes; a fresh array otherwise."""
    if not shared:
        return np.empty(shape)
    buffers = _workspace.__dict__.setdefault("buffers", {})
    buf = buffers.get(key)
    if buf is None or buf.shape != shape:
        buf = buffers[key] = np.empty(shape)
    return buf


def release_workspace() -> None:
    """Free this thread's workspace; the next slot forward makes it afresh."""
    _workspace.__dict__.clear()


def _hidden_width(params: BlockParams) -> int:
    return max((lay.weight.shape[0] for lay in params.layers[:-1]), default=0)


def block_forward_cache(
    params: BlockParams, x: np.ndarray, slot=None
) -> tuple[np.ndarray, BlockCache]:
    """Evaluate g(x) and keep each hidden layer's ``z`` and ``s``.

    Given a ``slot`` (any hashable; training uses the block's position),
    ``z`` and ``s`` go into that slot's workspace buffers and the
    activations ``h``, which only the next layer's product reads, into
    the workspace's scratch: the cache is then valid until the next
    forward into the same slot.  Without one every array is fresh.
    ``g(x)`` is a fresh array either way, bit for bit :func:`block_forward`.
    """
    x, _ = _as_batch(params, x)
    n, width = x.shape[0], _hidden_width(params)
    shared = slot is not None
    t_buf, e_buf, h_buf = (_buffer(shared, ("scratch", i), (n, width)) for i in range(3))
    h, pre, act, betas = x, [], [], []
    for l, lay in enumerate(params.layers[:-1]):
        shape = (n, lay.weight.shape[0])
        z = np.matmul(h, lay.weight.T, out=_buffer(shared, (slot, "z", l), shape))
        z += lay.bias
        beta = lay.beta
        t = np.multiply(z, beta, out=_lead(t_buf, *shape))
        s = sigmoid(t, out=_buffer(shared, (slot, "s", l), shape), work=_lead(e_buf, *shape))
        h = np.multiply(z, s, out=_lead(h_buf, *shape))
        h /= LIPSWISH_SCALE
        pre.append(z)
        act.append(s)
        betas.append(beta)
    g = h @ params.layers[-1].weight.T
    g += params.layers[-1].bias
    return g, BlockCache(x=x, pre=pre, act=act, betas=betas, slot=slot)


def derive_cache(
    params: BlockParams, cache: BlockCache | DerivedCache, slopes_only: bool = False
) -> DerivedCache:
    """The chains' and the reverse pass's arrays, formed from ``(z, s)``.

    Per hidden layer, with the forward's own arithmetic (so every value
    is the same bit for bit): ``t = beta z``, ``sd1 = (1 - s) s``,
    ``slope = (t sd1 + s) / 1.1``, ``common = ((1 - 2 s) t + 2) sd1 / 1.1``
    and the next layer's input ``h = z s / 1.1``.  ``slopes_only`` forms
    the slopes alone, all the JVP/VJP chains read.  The arrays of a
    workspace cache go into the one derived set all slots share, valid
    until the next derivation of a workspace cache; a fresh cache's are
    fresh.  A :class:`DerivedCache` is returned as it is.
    """
    if isinstance(cache, DerivedCache):
        return cache
    shared = cache.slot is not None
    t_buf = _buffer(shared, ("scratch", 0), (cache.x.shape[0], _hidden_width(params)))
    inputs, slope, sd1s, commons = [cache.x], [], [], []
    for l, (z, s, beta) in enumerate(zip(cache.pre, cache.act, cache.betas)):
        shape = z.shape
        t = np.multiply(z, beta, out=_lead(t_buf, *shape))
        sd1 = np.subtract(1.0, s, out=_buffer(shared, ("sd1", l), shape))
        sd1 *= s
        d1 = np.multiply(t, sd1, out=_buffer(shared, ("slope", l), shape))
        d1 += s
        d1 /= LIPSWISH_SCALE
        slope.append(d1)
        if slopes_only:
            continue
        common = np.multiply(s, -2.0, out=_buffer(shared, ("common", l), shape))
        common += 1.0
        common *= t
        common += 2.0
        common *= sd1
        common /= LIPSWISH_SCALE
        h = np.multiply(z, s, out=_buffer(shared, ("h", l), shape))
        h /= LIPSWISH_SCALE
        sd1s.append(sd1)
        commons.append(common)
        inputs.append(h)
    if slopes_only:
        return DerivedCache(slope=slope, betas=cache.betas)
    return DerivedCache(
        inputs=inputs, pre=cache.pre, slope=slope, sd1=sd1s, common=commons, betas=cache.betas
    )


def work_buffers(
    params: BlockParams | list[BlockParams], rows: int, count: int = 2
) -> list[np.ndarray]:
    """``count`` work buffers for the kernels' ``work`` keyword, for up to ``rows`` rows.

    Fresh arrays that live as long as the caller's loop (the series terms
    of one call, the Picard steps of one inverse), unlike the workspace
    behind :func:`block_forward_cache`'s slots, which outlives every call
    until :func:`release_workspace`.
    Each is a ``(rows, width)`` array, ``width`` the widest hidden layer of
    ``params`` (one block, or several that then share one set).  The
    JVP/VJP chains alternate between two; :func:`block_forward` needs
    three, for a pre-activation, its activation and the logistic's
    exponential at once.  Ask for no more than the kernel uses: an unused
    buffer still grows the heap, and freeing it can push the heap top past
    the allocator's trim threshold, so the next allocations fault again.
    """
    blocks = [params] if isinstance(params, BlockParams) else params
    width = max((_hidden_width(b) for b in blocks), default=0)
    return [np.empty((rows, width)) for _ in range(count)]


def _lead(buf: np.ndarray, n: int, width: int) -> np.ndarray:
    """The leading ``n * width`` elements of ``buf`` as an ``(n, width)`` array:
    ``buf[:n]`` when ``width`` is the buffer's, and contiguous either way."""
    return buf.reshape(-1)[: n * width].reshape(n, width)


def block_forward(
    params: BlockParams, x: np.ndarray, work: list[np.ndarray] | None = None
) -> np.ndarray:
    """g(x); the residual add ``x + g(x)`` lives in the flow module.

    ``work``: three buffers (``work_buffers(params, rows, 3)``) for the
    pre-activation, the activation and the logistic's exponential.
    """
    h, squeeze = _as_batch(params, x)
    n = h.shape[0]
    z_buf, s_buf, e_buf = work_buffers(params, n, 3) if work is None else work
    n_layers = len(params.layers)
    for l, lay in enumerate(params.layers):
        if l < n_layers - 1:
            width = lay.weight.shape[0]
            z = np.matmul(h, lay.weight.T, out=_lead(z_buf, n, width))
            z += lay.bias
            t = np.multiply(z, lay.beta, out=_lead(s_buf, n, width))
            h = sigmoid(t, out=t, work=_lead(e_buf, n, width))
            h *= z
            h /= LIPSWISH_SCALE
        else:
            h = h @ lay.weight.T
            h += lay.bias
    return h[0] if squeeze else h


Cache = BlockCache | DerivedCache | None


def _cache_for(params: BlockParams, x: np.ndarray, cache: Cache, slopes_only=False) -> DerivedCache:
    """``cache`` derived (:func:`derive_cache`), from a fresh forward of ``x`` if None."""
    if cache is None:
        _, cache = block_forward_cache(params, x)
    return derive_cache(params, cache, slopes_only)


def _chain(params: BlockParams, t: np.ndarray, mats, slopes, work) -> np.ndarray:
    """``t @ mats[0]``, times ``slopes[0]``, ``@ mats[1]``, ..., ``@ mats[-1]``.

    The hidden-width products alternate between ``work[0]`` and
    ``work[1]``; the last, ``d``-wide product is a fresh array, so a
    chain's output never aliases the next chain's input.  A row meeting
    a batch of slopes broadcasts to the batch.
    """
    if slopes:
        rows = max(t.shape[0], slopes[0].shape[0])
        work = work_buffers(params, rows) if work is None else work
    for l, (mat, slope) in enumerate(zip(mats, slopes)):
        buf, width = work[l % 2], mat.shape[1]
        t = np.matmul(t, mat, out=_lead(buf, t.shape[0], width))
        t = np.multiply(t, slope, out=_lead(buf, max(t.shape[0], slope.shape[0]), width))
    return t @ mats[-1]


def block_jvp(
    params: BlockParams,
    x: np.ndarray,
    v: np.ndarray,
    cache: Cache = None,
    work: list[np.ndarray] | None = None,
) -> np.ndarray:
    """J_g(x) v via the layer chain rule.

    ``work``: two buffers (``work_buffers(params, rows)``) that the
    hidden-width products alternate between.
    """
    cache = _cache_for(params, x, cache, slopes_only=True)
    t, squeeze = _as_batch(params, np.asarray(v, dtype=np.float64))
    t = _chain(params, t, [lay.weight.T for lay in params.layers], cache.slope, work)
    return t[0] if squeeze else t


def block_vjp(
    params: BlockParams,
    x: np.ndarray,
    u: np.ndarray,
    cache: Cache = None,
    work: list[np.ndarray] | None = None,
) -> np.ndarray:
    """J_g(x)^T u, i.e. the row vector u^T J_g(x) laid out as a vector.

    ``work`` as for :func:`block_jvp`.
    """
    cache = _cache_for(params, x, cache, slopes_only=True)
    r, squeeze = np.asarray(u, dtype=np.float64), False
    if r.ndim == 1:
        r, squeeze = r[None, :], True
    mats = [lay.weight for lay in reversed(params.layers)]
    r = _chain(params, r, mats, cache.slope[::-1], work)
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
    work = work_buffers(params, n)
    for j in range(d):
        e = np.zeros((n, d))
        e[:, j] = 1.0
        jac[:, :, j] = block_jvp(params, xb, e, cache=cache, work=work)
    return jac[0] if squeeze else jac


# -- reverse pass: parameter and input gradients ---------------------------


def _reverse_chains(params: BlockParams, cache: DerivedCache, u, w, v):
    """Layer-wise pieces of the gradient of ``s = sum_i u_i . g(x_i) + w_i^T J_g(x_i) v_i``.

    ``u`` (the pathwise term) or ``w, v`` (the bilinear term) may be None.
    Returns (zbar, pi, tau, dbeta, xbar) where, for layer l:
      zbar[l]  cotangent of the pre-activation z_l: the pathwise part plus
               the bilinear part, which includes the cascade of z_l into
               all later activation slopes (None where both are absent),
      pi[l]    cotangent of the tangent W_l tau[l] (bilinear term only),
      tau[l]   tangent entering layer l, the J chain applied to v,
      dbeta[l] per-row ds/dbeta_l (hidden layers),
    and ``xbar`` is ds/dx (None where it is zero).
    """
    layers = params.layers
    n_layers = len(layers)
    tau, kappa, pi = [None] * n_layers, [None] * n_layers, [None] * n_layers
    if w is not None:
        t = v
        for l, lay in enumerate(layers[:-1]):
            tau[l] = t
            kappa[l] = t @ lay.weight.T
            t = cache.slope[l] * kappa[l]
        tau[-1], pi[-1] = t, w
    zbar = [None] * n_layers
    zbar[-1] = u
    dbeta = [None] * (n_layers - 1)
    # temporaries are updated in place, as in derive_cache
    for l in range(n_layers - 2, -1, -1):
        weight, z, slope = layers[l + 1].weight, cache.pre[l], cache.slope[l]
        zb = dbeta_dz = None  # cotangent of z_l; rows of dbeta_dz . z_l give ds/dbeta_l
        if zbar[l + 1] is not None:
            zb = zbar[l + 1] @ weight  # cotangent of the activation output
            dbeta_dz = zb * z
            dbeta_dz *= cache.sd1[l]
            dbeta_dz /= LIPSWISH_SCALE
            zb *= slope
        if w is not None:
            lam = pi[l + 1] @ weight  # cotangent of the activated tangent
            pi[l] = slope * lam
            # lam kappa common: beta times it joins the cotangent of z_l
            # (curvature), z times it the beta-derivative (slope's)
            lam *= kappa[l]
            lam *= cache.common[l]
            if dbeta_dz is None:
                dbeta_dz = lam.copy()
            else:
                dbeta_dz += lam
            lam *= cache.betas[l]
            if zb is None:
                zb = lam
            else:
                zb += lam
        zbar[l] = zb
        dbeta[l] = np.einsum("ij,ij->i", dbeta_dz, z)
    xbar = None if zbar[0] is None else zbar[0] @ layers[0].weight
    return zbar, pi, tau, dbeta, xbar


def _probe_rows(params: BlockParams, x: np.ndarray, cache: Cache, *vecs):
    """The cache of ``x`` and each of ``vecs`` as a float64 batch (None stays None)."""
    xb, _ = _as_batch(params, x)
    cache = _cache_for(params, xb, cache)
    rows = [None if a is None else np.atleast_2d(np.asarray(a, dtype=np.float64)) for a in vecs]
    return cache, rows


def _rows(a: np.ndarray, n: int) -> np.ndarray:
    """A single-point cache array broadcast against ``n`` probe rows."""
    return a if a.shape[0] == n else np.broadcast_to(a, (n, a.shape[1]))


def block_param_grad(
    params: BlockParams,
    x: np.ndarray,
    u: np.ndarray | None = None,
    w: np.ndarray | None = None,
    v: np.ndarray | None = None,
    cache: Cache = None,
):
    """Gradient of ``s = sum_i u_i . g(x_i) + w_i^T J_g(x_i) v_i``.

    The one reverse pass of the block.  In unbiased training ``u`` is the
    cotangent of the block output and ``w`` the Neumann cotangent of the
    probe ``v``, so the pathwise and the log-det gradient come out of a
    single traversal: both terms share each layer's pre-activation
    cotangent, hence one product carries it down and one product gives
    its weight gradient.  The bilinear term adds the tangent chain of
    ``v``, the cotangent chain of ``w`` and the activation's second
    derivative, since the Jacobian already contains its first.  Either
    term may be left out (None).  Returns (parameter gradient summed over
    rows, ``(n, d)`` gradient in ``x``).
    """
    cache, (u, w, v) = _probe_rows(params, x, cache, u, w, v)
    n = (u if u is not None else w).shape[0]
    zbar, pi, tau, dbeta, xbar = _reverse_chains(params, cache, u, w, v)
    layers = []
    for l, lay in enumerate(params.layers):
        if zbar[l] is None:
            weight, bias = np.zeros_like(lay.weight), np.zeros_like(lay.bias)
        else:
            weight, bias = zbar[l].T @ _rows(cache.inputs[l], n), zbar[l].sum(axis=0)
        if pi[l] is not None:
            weight += pi[l].T @ tau[l]
        raw_beta = 0.0
        if lay.raw_beta is not None:
            raw_beta = float(dbeta[l].sum() * beta_raw_chain(lay.raw_beta))
        layers.append(LayerGrads(weight=weight, bias=bias, raw_beta=raw_beta))
    if xbar is None:
        xbar = np.zeros((n, params.dim))
    return BlockGrads(layers=layers), xbar


def block_param_grad_of_output(
    params: BlockParams,
    x: np.ndarray,
    u: np.ndarray,
    cache: Cache = None,
    return_vjp: bool = False,
):
    """Gradient of ``u . g(x)`` with respect to every block parameter.

    The pathwise term of :func:`block_param_grad` alone.  With
    ``return_vjp`` the input cotangent ``J_g(x)^T u`` comes back too.
    Batched inputs are summed over the batch.
    """
    grads, vjp = block_param_grad(params, x, u=u, cache=cache)
    if return_vjp:
        return grads, (vjp[0] if np.ndim(u) == 1 and vjp.shape[0] == 1 else vjp)
    return grads


def bilinear_param_grad(
    params: BlockParams,
    x: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    cache: Cache = None,
    want_input_grad: bool = False,
    out_cot: np.ndarray | None = None,
):
    """Gradient of the scalar ``s = u^T J_g(x) v`` in all block parameters.

    This is the primitive that turns an accumulated Neumann cotangent into
    a parameter gradient without differentiating through the series
    accumulation.  With ``out_cot`` the pathwise term ``out_cot . g(x)`` is
    added to ``s`` and shares the reverse pass (:func:`block_param_grad`).
    With ``want_input_grad`` the ``(n, d)`` gradient of ``s`` with respect
    to ``x`` is also returned, which the training loop backpropagates into
    upstream layers.  Batched ``u, v`` are summed over the batch.
    """
    grads, input_grad = block_param_grad(params, x, u=out_cot, w=u, v=v, cache=cache)
    return (grads, input_grad) if want_input_grad else grads


def bilinear_param_grad_per_sample(
    params: BlockParams,
    x: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    cache: Cache = None,
) -> np.ndarray:
    """Per-sample gradients of ``u_i^T J_g(x) v_i`` as an (n, P) matrix.

    Materializes the rank-2 per-sample weight gradients, so it is meant
    for small blocks (Monte-Carlo statistics in tests/diagnostics).
    """
    cache, (u, v) = _probe_rows(params, x, cache, u, v)
    n = u.shape[0]
    zbar, pi, tau, dbeta, _ = _reverse_chains(params, cache, None, u, v)
    cols = []
    for l, lay in enumerate(params.layers):
        w_g = pi[l][:, :, None] * tau[l][:, None, :]
        if zbar[l] is None:
            cols += [w_g.reshape(n, -1), np.zeros((n, lay.bias.size))]
            continue
        w_g = w_g + zbar[l][:, :, None] * _rows(cache.inputs[l], n)[:, None, :]
        cols += [w_g.reshape(n, -1), zbar[l], (dbeta[l] * beta_raw_chain(lay.raw_beta))[:, None]]
    return np.concatenate(cols, axis=1)

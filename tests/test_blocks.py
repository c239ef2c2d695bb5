"""Branch network derivative primitives against finite-difference oracles."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resflow import blocks
from resflow.blocks import (
    BlockCache,
    BlockGrads,
    BlockParams,
    LayerParams,
    bilinear_param_grad,
    bilinear_param_grad_per_sample,
    block_dense_jacobian,
    block_forward,
    block_forward_cache,
    block_jvp,
    block_param_grad_of_output,
    block_vjp,
    derive_cache,
    grads_vector,
    param_count,
    param_vector,
    release_workspace,
    set_param_vector,
)
from resflow.activations import (
    LIPSWISH_SCALE,
    beta_raw_chain,
    lipswish,
    lipswish_d1,
    lipswish_d1_dbeta,
    lipswish_d2,
    lipswish_dbeta,
    sigmoid,
)
from resflow.errors import GuardError, ShapeError
from resflow.norms import init_block_params

FD_STEP_FIRST = 1e-5
FD_STEP_SECOND = 1e-4


def make_block(seed=0, hidden=8, n_layers=3):
    return init_block_params(np.random.default_rng(seed), 2, hidden=hidden, n_layers=n_layers)


def linear_block(A, bias=None):
    A = np.asarray(A, dtype=np.float64)
    b = np.zeros(A.shape[0]) if bias is None else np.asarray(bias, dtype=np.float64)
    return BlockParams(layers=[LayerParams(weight=A, bias=b, raw_beta=None)])


def zero_block(hidden=8):
    params = make_block(seed=3, hidden=hidden)
    for lay in params.layers:
        lay.weight[...] = 0.0
        lay.bias[...] = 0.0
    return params


def fd_param_gradient(params, scalar_fn, h):
    vec = param_vector(params)
    out = np.zeros_like(vec)
    for i in range(vec.size):
        e = np.zeros_like(vec)
        e[i] = h
        p_plus, p_minus = params.copy(), params.copy()
        set_param_vector(p_plus, vec + e)
        set_param_vector(p_minus, vec - e)
        out[i] = (scalar_fn(p_plus) - scalar_fn(p_minus)) / (2.0 * h)
    return out


class TestForward:
    def test_zero_weights_give_zero_map(self):
        params = zero_block()
        x = np.array([1.3, -0.4])
        np.testing.assert_array_equal(block_forward(params, x), np.zeros(2))

    def test_single_linear_layer(self):
        A = np.array([[0.3, -0.1], [0.2, 0.4]])
        params = linear_block(A)
        x = np.array([1.0, -1.0])
        np.testing.assert_allclose(block_forward(params, x), A @ x, rtol=1e-14)

    def test_matches_straight_line_reimplementation(self):
        params = make_block(seed=11)
        x = np.array([1.0, -1.0])
        h = x
        for l, lay in enumerate(params.layers):
            z = lay.weight @ h + lay.bias
            if l < len(params.layers) - 1:
                beta = lay.beta
                h = z / (1.0 + np.exp(-beta * z)) / 1.1
            else:
                h = z
        np.testing.assert_allclose(block_forward(params, x), h, rtol=1e-12)

    def test_batched_matches_loop(self):
        params = make_block(seed=4)
        X = np.random.default_rng(5).standard_normal((7, 2))
        batched = block_forward(params, X)
        rows = np.stack([block_forward(params, x) for x in X])
        np.testing.assert_allclose(batched, rows, rtol=1e-14)

    def test_dimension_mismatch_raises(self):
        params = make_block()
        with pytest.raises(ShapeError):
            block_forward(params, np.zeros(3))

    def test_bad_layer_chaining_rejected(self):
        good = make_block()
        layers = [lay.copy() for lay in good.layers]
        layers[1].weight = layers[1].weight[:, :-1]
        with pytest.raises(ShapeError):
            BlockParams(layers=layers)


class TestJvpVjp:
    def test_zero_weights(self):
        params = zero_block()
        v = np.array([0.5, 2.0])
        np.testing.assert_array_equal(block_jvp(params, np.zeros(2), v), np.zeros(2))
        np.testing.assert_array_equal(block_vjp(params, np.zeros(2), v), np.zeros(2))

    def test_linear_block(self):
        A = np.array([[0.3, -0.1], [0.2, 0.4]])
        params = linear_block(A)
        x = np.array([0.2, 0.1])
        v = np.array([1.0, 2.0])
        np.testing.assert_allclose(block_jvp(params, x, v), A @ v, rtol=1e-14)
        np.testing.assert_allclose(block_vjp(params, x, v), A.T @ v, rtol=1e-14)

    def test_jvp_matches_central_differences(self):
        params = make_block(seed=21)
        rng = np.random.default_rng(22)
        for _ in range(5):
            x = rng.standard_normal(2)
            v = rng.standard_normal(2)
            h = FD_STEP_FIRST
            fd = (block_forward(params, x + h * v) - block_forward(params, x - h * v)) / (2 * h)
            np.testing.assert_allclose(block_jvp(params, x, v), fd, rtol=1e-6)

    def test_vjp_matches_dense_jacobian(self):
        params = make_block(seed=23)
        rng = np.random.default_rng(24)
        x = rng.standard_normal(2)
        u = rng.standard_normal(2)
        jac = block_dense_jacobian(params, x)
        np.testing.assert_allclose(block_vjp(params, x, u), u @ jac, rtol=1e-10)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_transpose_consistency(self, seed):
        rng = np.random.default_rng(seed)
        params = make_block(seed=seed % 1000, hidden=6)
        x, u, v = rng.standard_normal((3, 2))
        lhs = float(u @ block_jvp(params, x, v))
        rhs = float(block_vjp(params, x, u) @ v)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)


class TestDenseJacobian:
    def test_zero_and_linear(self):
        np.testing.assert_array_equal(
            block_dense_jacobian(zero_block(), np.zeros(2)), np.zeros((2, 2))
        )
        A = np.array([[0.1, 0.2], [-0.3, 0.4]])
        np.testing.assert_allclose(
            block_dense_jacobian(linear_block(A), np.ones(2)), A, rtol=1e-14
        )

    def test_matches_finite_differences(self):
        params = make_block(seed=31)
        x = np.array([0.3, -0.6])
        jac = block_dense_jacobian(params, x)
        h = FD_STEP_FIRST
        fd = np.stack(
            [(block_forward(params, x + h * e) - block_forward(params, x - h * e)) / (2 * h)
             for e in np.eye(2)],
            axis=1,
        )
        np.testing.assert_allclose(jac, fd, atol=1e-6)

    def test_dimension_guard(self):
        rng = np.random.default_rng(0)
        big = linear_block(rng.standard_normal((17, 17)) * 0.01)
        with pytest.raises(GuardError):
            block_dense_jacobian(big, np.zeros(17))


class TestBilinearParamGrad:
    def test_zero_probe_gives_zero(self):
        params = make_block(seed=41)
        x = np.array([0.2, 0.8])
        g = grads_vector(bilinear_param_grad(params, x, np.zeros(2), np.ones(2))[0])
        np.testing.assert_array_equal(g, np.zeros_like(g))
        g = grads_vector(bilinear_param_grad(params, x, np.ones(2), np.zeros(2))[0])
        np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_linear_block_outer_product(self):
        A = np.array([[0.2, 0.0], [0.1, -0.3]])
        params = linear_block(A)
        u = np.array([1.0, 2.0])
        v = np.array([-0.5, 3.0])
        g, _, _ = bilinear_param_grad(params, np.zeros(2), u, v)
        np.testing.assert_allclose(g.layers[0].weight, np.outer(u, v), rtol=1e-14)

    @pytest.mark.parametrize("n_layers,hidden", [(1, 2), (2, 6), (3, 8), (4, 5)])
    def test_matches_finite_differences(self, n_layers, hidden):
        params = (
            linear_block(np.random.default_rng(1).standard_normal((2, 2)) * 0.4)
            if n_layers == 1
            else make_block(seed=42 + n_layers, hidden=hidden, n_layers=n_layers)
        )
        rng = np.random.default_rng(43)
        x, u, v = rng.standard_normal((3, 2))

        def bilinear(p):
            return float(u @ block_jvp(p, x, v))

        analytic = grads_vector(bilinear_param_grad(params, x, u, v)[0])
        fd = fd_param_gradient(params, bilinear, FD_STEP_SECOND)
        np.testing.assert_allclose(analytic, fd, rtol=1e-4, atol=1e-9)

    def test_input_grad_matches_finite_differences(self):
        params = make_block(seed=44)
        rng = np.random.default_rng(45)
        x, u, v = rng.standard_normal((3, 2))
        _, ig, _ = bilinear_param_grad(params, x, u, v)
        h = FD_STEP_SECOND
        fd = np.array(
            [
                (float(u @ block_jvp(params, x + h * e, v)) - float(u @ block_jvp(params, x - h * e, v)))
                / (2 * h)
                for e in np.eye(2)
            ]
        )
        np.testing.assert_allclose(ig[0], fd, rtol=1e-5, atol=1e-9)

    def test_per_sample_agrees_with_summed(self):
        params = make_block(seed=46, hidden=5)
        rng = np.random.default_rng(47)
        x = rng.standard_normal(2)
        U = rng.standard_normal((6, 2))
        V = rng.standard_normal((6, 2))
        per = bilinear_param_grad_per_sample(params, x, U, V)
        assert per.shape == (6, param_count(params))
        total = grads_vector(bilinear_param_grad(params, x, U, V)[0])
        np.testing.assert_allclose(per.sum(axis=0), total, rtol=1e-10, atol=1e-12)


class TestOutputParamGrad:
    def test_zero_cotangent(self):
        params = make_block(seed=51)
        g = grads_vector(block_param_grad_of_output(params, np.zeros(2), np.zeros(2))[0])
        np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_final_bias_gradient_is_cotangent(self):
        params = make_block(seed=52)
        u = np.array([0.3, -0.9])
        g, _ = block_param_grad_of_output(params, np.zeros(2), u)
        np.testing.assert_allclose(g.layers[-1].bias, u, rtol=1e-14)

    def test_matches_finite_differences(self):
        params = make_block(seed=53, hidden=6)
        rng = np.random.default_rng(54)
        x, u = rng.standard_normal((2, 2))

        def functional(p):
            return float(u @ block_forward(p, x))

        analytic = grads_vector(block_param_grad_of_output(params, x, u)[0])
        fd = fd_param_gradient(params, functional, FD_STEP_FIRST)
        np.testing.assert_allclose(analytic, fd, rtol=1e-5, atol=1e-10)

    def test_return_vjp_matches_block_vjp(self):
        params = make_block(seed=55)
        rng = np.random.default_rng(56)
        X, U = rng.standard_normal((2, 6, 2))
        _, vjp = block_param_grad_of_output(params, X, U)
        assert vjp.shape == (6, 2)
        np.testing.assert_allclose(vjp, block_vjp(params, X, U), rtol=1e-12)


class TestFusedReverse:
    """``bilinear_param_grad``: d/dtheta and d/dx of u . g(x) + w^T J_g(x) v."""

    @pytest.mark.parametrize("n_layers,hidden", [(2, 6), (3, 8), (4, 5)])
    def test_matches_finite_differences(self, n_layers, hidden):
        params = make_block(seed=70 + n_layers, hidden=hidden, n_layers=n_layers)
        rng = np.random.default_rng(71)
        x, u, w, v = rng.standard_normal((4, 2))

        def functional(p, at=x):
            return float(u @ block_forward(p, at) + w @ block_jvp(p, at, v))

        grads, xbar, _ = bilinear_param_grad(params, x, w, v, out_cot=u)
        fd = fd_param_gradient(params, functional, FD_STEP_SECOND)
        np.testing.assert_allclose(grads_vector(grads), fd, rtol=1e-4, atol=1e-9)
        h = FD_STEP_SECOND
        fd_x = [
            (functional(params, x + h * e) - functional(params, x - h * e)) / (2 * h)
            for e in np.eye(2)
        ]
        np.testing.assert_allclose(xbar[0], fd_x, rtol=1e-5, atol=1e-9)

    def test_batch_is_sum_of_pathwise_and_bilinear_terms(self):
        params = make_block(seed=75, hidden=7)
        rng = np.random.default_rng(76)
        X, U, W, V = rng.standard_normal((4, 5, 2))
        fused, xbar, jvp = bilinear_param_grad(params, X, W, V, out_cot=U)
        path, vjp = block_param_grad_of_output(params, X, U)
        bil, ig, bil_jvp = bilinear_param_grad(params, X, W, V)
        assert bilinear_param_grad(params, X, out_cot=U)[2] is None  # no w, no tangents
        np.testing.assert_allclose(
            grads_vector(fused), grads_vector(path.add_(bil)), rtol=1e-12, atol=1e-14
        )
        np.testing.assert_allclose(xbar, vjp + ig, rtol=1e-12, atol=1e-14)
        for tangents in (jvp, bil_jvp):
            np.testing.assert_allclose(tangents, block_jvp(params, X, V), rtol=1e-12, atol=1e-14)


def uneven_block():
    """2 -> 6 -> 9 -> 2: hidden layers of different widths."""
    rng = np.random.default_rng(21)
    dims = [2, 6, 9, 2]
    layers = [
        LayerParams(
            weight=rng.uniform(-0.3, 0.3, size=(dims[l + 1], dims[l])),
            bias=rng.uniform(-0.5, 0.5, size=dims[l + 1]),
            raw_beta=0.3 * l if l < 2 else None,
        )
        for l in range(3)
    ]
    return BlockParams(layers=layers)


def assert_close(got, want):
    """rtol 1e-12, with an atol of 1e-14 of the largest entry for entries
    that cancel to near zero."""
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14 * np.abs(want).max())


def assert_bits_equal(a, b):
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


def pool_buffers():
    """Every buffer in this thread's pool."""
    return list(blocks._workspace.__dict__.get("buffers", {}).values())


class TestWorkBuffers:
    """Kernels on a grown, NaN-filled pool equal the same calls on a fresh
    pool bit for bit."""

    @pytest.fixture(autouse=True)
    def _release(self):
        release_workspace()
        yield
        release_workspace()  # the test's pool would outlive the test otherwise

    @staticmethod
    def on_dirty_pool(call):
        """``call()`` on a fresh pool, then again once the pool has grown past
        the call and been filled with NaN: both answers agree bit for bit,
        and the second shares memory with no pool buffer.  Returns it."""
        release_workspace()
        fresh = call()
        for key in ("work 0", "work 1", "scratch"):
            blocks._buffer(True, key, 20, 32)
        for buf in pool_buffers():
            buf.fill(np.nan)  # a kernel reading stale buffer elements would show
        pooled = call()
        assert_bits_equal(pooled, fresh)
        assert not any(np.shares_memory(pooled, buf) for buf in pool_buffers())
        return pooled

    @pytest.mark.parametrize("case", ["1-layer", "2-layer", "3-layer", "uneven"])
    def test_chains_match_fresh_allocation(self, case):
        if case == "uneven":
            params = uneven_block()
        else:
            params = make_block(seed=4, hidden=16, n_layers=int(case[0]))
        rng = np.random.default_rng(5)
        X, V = rng.standard_normal((12, 2)), rng.standard_normal((12, 2))
        _, cache = block_forward_cache(params, X)
        derived = derive_cache(params, cache)
        for m in (12, 5, 1):  # prefix slices of the cache, as the series loop takes them
            prefix = BlockCache(weights=derived.weights, slope=[s[:m] for s in derived.slope])
            for kernel in (block_jvp, block_vjp):
                out = self.on_dirty_pool(lambda: kernel(params, None, V[:m], cache=prefix))
                assert not np.shares_memory(out, V)
        # a one-point cache broadcast against many rows, and one row against a batch
        _, one = block_forward_cache(params, X[:1])
        for kernel in (block_jvp, block_vjp):
            self.on_dirty_pool(lambda: kernel(params, None, V, cache=one))
            self.on_dirty_pool(lambda: kernel(params, X, V[0], cache=cache))
        # the last call's answer does not change when the buffers are reused
        first = block_jvp(params, X, V, cache=cache)
        kept = first.copy()
        block_vjp(params, X, V[::-1], cache=cache)
        assert_bits_equal(first, kept)

    @pytest.mark.parametrize("case", ["1-layer", "2-layer", "3-layer", "uneven"])
    def test_forward_matches_fresh_allocation(self, case):
        if case == "uneven":
            params = uneven_block()
        else:
            params = make_block(seed=6, hidden=16, n_layers=int(case[0]))
        X = np.random.default_rng(7).standard_normal((12, 2)) * 3.0
        for m in (12, 5, 1):
            out = self.on_dirty_pool(lambda: block_forward(params, X[:m]))
            assert not np.shares_memory(out, X)
            for slot in (None, "slot"):
                self.on_dirty_pool(lambda: block_forward_cache(params, X[:m], slot=slot)[0])
        assert_bits_equal(self.on_dirty_pool(lambda: block_forward(params, X)), block_forward_cache(params, X)[0])
        self.on_dirty_pool(lambda: block_forward(params, X[0]))

    @pytest.mark.parametrize("case", ["1-layer", "3-layer", "uneven"])
    def test_slopes_only_cache_keeps_the_same_slopes(self, case):
        params = uneven_block() if case == "uneven" else make_block(seed=10, n_layers=int(case[0]))
        X = np.random.default_rng(11).standard_normal((9, 2))
        _, cache = block_forward_cache(params, X)
        derived = derive_cache(params, cache)
        assert derive_cache(params, derived) is derived and cache.weights is None
        assert_bits_equal(block_dense_jacobian(params, X), block_dense_jacobian(params, X, cache=derived))
        # the value routes' forward forms the same slopes, z and s passing through the work buffers
        g, fused = block_forward_cache(params, X, slopes_only=True)
        assert_bits_equal(self.on_dirty_pool(lambda: block_forward_cache(params, X, slopes_only=True)[0]), g)
        assert_bits_equal(g, block_forward(params, X))
        assert fused.x is None and not (fused.pre or fused.act) and fused.betas == derived.betas
        assert len(fused.slope) == len(derived.slope) and len(fused.weights) == len(derived.weights)
        for a, b in zip(fused.slope + fused.weights, derived.slope + derived.weights):
            assert_bits_equal(a, b)

    @pytest.mark.parametrize("slot", [None, "slot"], ids=["fresh", "workspace"])
    @pytest.mark.parametrize("rows", [1, 37])
    @pytest.mark.parametrize("case", ["1-layer", "2-layer", "3-layer", "uneven"])
    def test_derived_arrays_match_the_five_array_cache(self, case, rows, slot):
        """What the cache still holds of the five arrays per hidden layer it
        once kept (z, and the slope, over the kernel weights' 1/1.1), and
        ``s`` and the kernel weights, against the reference activations;
        sd1, common and the layer inputs are formed inside the reverse pass,
        which ``TestAgainstReference`` checks.  A workspace forward and
        derivation equal fresh ones bit for bit."""
        params = uneven_block() if case == "uneven" else make_block(seed=12, hidden=16, n_layers=int(case[0]))
        X = np.random.default_rng(13).standard_normal((rows, 2)) * 3.0
        _, fresh = block_forward_cache(params, X)
        g, cache = block_forward_cache(params, X, slot=None if slot is None else (slot, case))
        assert_bits_equal(g, block_forward(params, X))
        assert len(cache.pre) == len(cache.act) == len(params.layers) - 1
        derived, want = derive_cache(params, cache), derive_cache(params, fresh)
        for a, b in zip(cache.pre + cache.act + derived.weights + derived.slope,
                        fresh.pre + fresh.act + want.weights + want.slope):
            assert_bits_equal(a, b)
        h = X
        for l, lay in enumerate(params.layers[:-1]):
            z = h @ lay.weight.T + lay.bias
            assert_close(cache.pre[l], z)
            assert_close(cache.act[l], sigmoid(lay.beta * z))
            assert_close(derived.slope[l], LIPSWISH_SCALE * lipswish_d1(z, lay.beta))
            assert_close(derived.weights[l + 1], params.layers[l + 1].weight / LIPSWISH_SCALE)
            h = lipswish(z, lay.beta)
        assert derived.weights[0] is params.layers[0].weight

    def test_workspace_cache_lives_until_its_slot_is_reused(self):
        params = make_block(seed=14, hidden=16)
        rng = np.random.default_rng(15)
        X, Y = rng.standard_normal((2, 9, 2))
        _, first = block_forward_cache(params, X, slot="a")
        kept = [a.copy() for a in first.pre + first.act]
        _, other = block_forward_cache(params, Y, slot="b")
        derive_cache(params, other)
        assert all(np.array_equal(a, b) for a, b in zip(first.pre + first.act, kept))
        _, again = block_forward_cache(params, Y, slot="a")
        assert all(np.shares_memory(a, b) for a, b in zip(first.pre, again.pre))

    def test_release_drops_every_slot(self):
        params = make_block(seed=16, hidden=16)
        X = np.random.default_rng(17).standard_normal((9, 2))
        _, first = block_forward_cache(params, X, slot="a")
        kept = [a.copy() for a in first.pre + first.act]
        release_workspace()
        _, again = block_forward_cache(params, X, slot="a")
        assert not any(np.shares_memory(a, b) for a, b in zip(first.pre + first.act, again.pre + again.act))
        assert all(np.array_equal(a, b) for a, b in zip(first.pre + first.act, kept))

    @pytest.mark.parametrize("points, r", [(7, 1), (7, 3), (1, 5)], ids=["r1", "r3", "one_point"])
    def test_grouped_slopes_match_repeated_slopes(self, points, r):
        """A cache of P points against P r probe rows: each slope row serves r
        consecutive rows, as if it were repeated r times, and gathering
        ``rows`` from it gives the same bits."""
        params = make_block(seed=18, hidden=16)
        rng = np.random.default_rng(19)
        X, V = rng.standard_normal((points, 2)), rng.standard_normal((points * r, 2))
        _, cache = block_forward_cache(params, X, slopes_only=True)
        repeated = BlockCache(weights=cache.weights, slope=[np.repeat(s, r, axis=0) for s in cache.slope])
        gathered = BlockCache(weights=cache.weights, slope=cache.slope, rows=np.arange(points * r) // r)
        for kernel in (block_jvp, block_vjp):
            want = kernel(params, None, V, cache=repeated)
            assert_bits_equal(self.on_dirty_pool(lambda: kernel(params, None, V, cache=cache)), want)
            assert_bits_equal(self.on_dirty_pool(lambda: kernel(params, None, V, cache=gathered)), want)

    def test_release_frees_the_series_workers_pool_too(self):
        params = make_block(seed=20, hidden=16)
        X = np.random.default_rng(21).standard_normal((9, 2))

        def on_worker(fn):
            with blocks.series_worker() as submit:
                return submit(fn).result()

        def worker_pool():
            return on_worker(pool_buffers)

        on_worker(lambda: block_jvp(params, X, X))
        block_jvp(params, X, X)
        assert worker_pool() and pool_buffers()
        release_workspace()
        assert worker_pool() == [] and pool_buffers() == []

    def test_one_set_serves_blocks_of_different_widths(self):
        narrow, wide = make_block(seed=8, hidden=4), uneven_block()
        X, V = np.random.default_rng(9).standard_normal((2, 7, 2))

        def calls(params):
            return [block_forward(params, X), block_jvp(params, X, V), block_vjp(params, X, V)]

        want = {}
        for params in (narrow, wide):
            release_workspace()
            want[id(params)] = calls(params)
        n_buffers = len(pool_buffers())
        for buf in pool_buffers():
            buf.fill(np.nan)
        for params in (narrow, wide, narrow):
            for got, ref in zip(calls(params), want[id(params)]):
                assert_bits_equal(got, ref)
        assert len(pool_buffers()) == n_buffers  # the blocks share every buffer


def reference_pass(params, X, U, W, V):
    """Straight-line g(X), J V, J^T U, the per-row gradients of
    ``U_i . g(X_i) + W_i^T J_g(X_i) V_i`` in ``grads_vector`` order and their
    gradient in X, from the reference activation functions of ``activations``."""
    layers, top = params.layers, len(params.layers) - 1
    inputs, pre, tau, kappa = [X], [], [V], []
    for lay in layers[:-1]:
        z = inputs[-1] @ lay.weight.T + lay.bias
        pre.append(z)
        inputs.append(lipswish(z, lay.beta))
        kappa.append(tau[-1] @ lay.weight.T)
        tau.append(lipswish_d1(z, lay.beta) * kappa[-1])
    g = inputs[-1] @ layers[-1].weight.T + layers[-1].bias
    jvp = tau[-1] @ layers[-1].weight.T
    vjp = U
    for l in range(top - 1, -1, -1):
        vjp = (vjp @ layers[l + 1].weight) * lipswish_d1(pre[l], layers[l].beta)
    vjp = vjp @ layers[0].weight
    zbar, pi, cols = U, W, [None] * (top + 1)
    for l in range(top, -1, -1):
        if l < top:
            lay, z = layers[l], pre[l]
            abar, lam = zbar @ layers[l + 1].weight, pi @ layers[l + 1].weight
            zbar = abar * lipswish_d1(z, lay.beta) + lam * kappa[l] * lipswish_d2(z, lay.beta)
            dbeta = abar * lipswish_dbeta(z, lay.beta) + lam * kappa[l] * lipswish_d1_dbeta(z, lay.beta)
            pi = lam * lipswish_d1(z, lay.beta)
        weight = zbar[:, :, None] * inputs[l][:, None, :] + pi[:, :, None] * tau[l][:, None, :]
        cols[l] = [weight.reshape(len(X), -1), zbar]
        if l < top:
            cols[l].append(dbeta.sum(axis=1, keepdims=True) * beta_raw_chain(lay.raw_beta))
    per_row = np.concatenate([c for layer in cols for c in layer], axis=1)
    return g, jvp, vjp, per_row, zbar @ layers[0].weight


class TestAgainstReference:
    """The kernels against straight-line references from ``activations.lipswish*``."""

    @pytest.mark.parametrize("case", ["1-hidden", "2-hidden", "3-hidden", "uneven"])
    def test_kernels_match_reference(self, case):
        if case == "uneven":
            params = uneven_block()
        else:
            params = make_block(seed=30, hidden=16, n_layers=int(case[0]) + 1)
        rng = np.random.default_rng(31)
        X, U, W, V = rng.standard_normal((4, 23, 2))
        X *= 3.0
        g, jvp, vjp, per_row, xbar = reference_pass(params, X, U, W, V)
        _, _, _, bilinear_rows, bilinear_xbar = reference_pass(params, X, 0 * U, W, V)
        assert_close(block_forward(params, X), g)
        assert_close(block_jvp(params, X, V), jvp)
        assert_close(block_vjp(params, X, U), vjp)
        grads, got_xbar, got_jvp = bilinear_param_grad(params, X, W, V, out_cot=U)
        assert_close(grads_vector(grads), per_row.sum(axis=0))
        assert_close(got_xbar, xbar)
        assert_close(got_jvp, jvp)
        assert_close(bilinear_param_grad_per_sample(params, X, W, V), bilinear_rows)
        grads, got_xbar, got_jvp = bilinear_param_grad(params, X, W, V)
        assert_close(grads_vector(grads), bilinear_rows.sum(axis=0))
        assert_close(got_xbar, bilinear_xbar)
        assert_close(got_jvp, jvp)

    def test_saturated_logistic_stays_finite(self):
        """beta z from -2000 to 2000: the one-exponential logistic overflows
        inside its own error state and reaches exactly 0 and 1."""
        rng = np.random.default_rng(32)
        params = make_block(seed=33, hidden=8, n_layers=2)
        params.layers[0].weight[...] = 1000.0 * np.sign(rng.standard_normal((8, 2)))
        X = np.concatenate([np.linspace(-1.0, 1.0, 9)[:, None] * [1.0, -1.0], [[1.0, 1.0], [-1.0, -1.0]]])
        U, W, V = rng.standard_normal((3, len(X), 2))
        with warnings.catch_warnings(), np.errstate(over="raise", divide="raise", invalid="raise"):
            warnings.simplefilter("error")
            g, cache = block_forward_cache(params, X)
            t = cache.pre[0] * cache.betas[0]
            assert t.min() < -800 and t.max() > 800
            assert np.all(cache.act[0][t < -800] == 0.0) and np.all(cache.act[0][t > 800] == 1.0)
            outputs = [g, block_forward(params, X), block_jvp(params, X, V), block_vjp(params, X, U)]
            grads, xbar, jvp = bilinear_param_grad(params, X, W, V, out_cot=U)
            outputs += [grads_vector(grads), xbar, jvp, bilinear_param_grad_per_sample(params, X, W, V)]
        assert all(np.all(np.isfinite(a)) for a in outputs)


class TestParamVector:
    def test_round_trip(self):
        params = make_block(seed=61)
        vec = param_vector(params)
        clone = params.copy()
        set_param_vector(clone, vec * 0.0)
        set_param_vector(clone, vec)
        np.testing.assert_array_equal(param_vector(clone), vec)
        assert vec.size == param_count(params)

    def test_gradient_views_sit_at_the_parameter_offsets(self):
        # a distinct ramp laid over the fields by hand; the reference is their
        # concatenation in the documented order (weight, bias, raw_beta per
        # layer), built without the layout code under test
        params = make_block(seed=65, hidden=3)
        pos = 1.0
        for lay in params.layers:
            lay.weight[...] = np.arange(pos, pos + lay.weight.size).reshape(lay.weight.shape)
            pos += lay.weight.size
            lay.bias[...] = np.arange(pos, pos + lay.bias.size)
            pos += lay.bias.size
            if lay.raw_beta is not None:
                lay.raw_beta, pos = pos, pos + 1.0
        ref = np.concatenate(
            [
                x
                for lay in params.layers
                for x in (lay.weight.ravel(), lay.bias, [] if lay.raw_beta is None else [lay.raw_beta])
            ]
        )
        P = param_count(params)
        np.testing.assert_array_equal(ref, np.arange(1.0, P + 1.0))
        np.testing.assert_array_equal(param_vector(params), ref)
        grads = BlockGrads(params)
        for g, lay in zip(grads.layers, params.layers):
            g.weight[...] = lay.weight
            g.bias[...] = lay.bias
            if lay.raw_beta is None:
                assert g.raw_beta is None
            else:
                g.raw_beta[...] = lay.raw_beta
        np.testing.assert_array_equal(grads_vector(grads), ref)
        clone = params.copy()
        set_param_vector(clone, np.zeros(P))
        set_param_vector(clone, ref)
        for got, want in zip(clone.layers, params.layers):
            np.testing.assert_array_equal(got.weight, want.weight)
            np.testing.assert_array_equal(got.bias, want.bias)
            assert got.raw_beta == want.raw_beta
        for short in (np.zeros(P - 1), np.zeros((4, P - 1))):
            with pytest.raises(ShapeError):
                blocks._views(params, short)
        with pytest.raises(ShapeError):
            set_param_vector(params, ref[:-1])

    def test_cache_reuse_consistency(self):
        params = make_block(seed=62)
        X = np.random.default_rng(63).standard_normal((5, 2))
        g, cache = block_forward_cache(params, X)
        np.testing.assert_allclose(g, block_forward(params, X), rtol=1e-14)
        v = np.random.default_rng(64).standard_normal((5, 2))
        np.testing.assert_allclose(
            block_jvp(params, X, v, cache=cache), block_jvp(params, X, v), rtol=1e-14
        )

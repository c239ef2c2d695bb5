"""Training loop: gradients of the full objective, invariants, metrics."""

import json
import re
import sys
import threading
import time

import numpy as np
import pytest

from resflow import blocks, logdet, train
from resflow.blocks import BlockParams, LayerParams, block_param_grad_of_output
from resflow.checkpoint import load_checkpoint, save_checkpoint
from resflow.config import TrainConfig
from resflow.errors import ConfigError
from resflow.flow import (
    ActNorm,
    FlowModel,
    ResidualBlock,
    actnorm_initialize,
    base_log_density,
    build_model,
    log_density_batch,
)
from resflow.logdet import (
    EstimatorConfig,
    biased_logdet_exact_trace_rows,
    biased_value_and_grad_rows,
    exact_logdet,
    roulette_value_and_neumann_grad_rows,
)
from resflow.norms import checkpoint_constraint
from resflow.train import (
    ParamPacker,
    estimator_config_from,
    eval_estimator_config_from,
    evaluate,
    fit,
    gaussian_fit_nll,
    init_train_state,
    load_state_checkpoint,
    nats_to_bits,
    nll_and_grad,
    train_step,
)


def tiny_cfg(**kw):
    base = dict(
        blocks=2,
        hidden=8,
        batch_size=64,
        steps=5,
        n_eval=200,
        eval_every=1000,
        checkpoint_every=0,
        dataset="checkerboard",
    )
    base.update(kw)
    return TrainConfig(**base)


class TestObjectiveGradient:
    def test_full_gradient_matches_finite_differences(self):
        state = init_train_state(tiny_cfg(blocks=2, hidden=5))
        X = state.dataset.sample(4)
        loss, grads, _ = nll_and_grad(state.model, X, "exact")
        flat = state.packer.pack_grads(state.model, grads)
        vec = state.packer.get_vector(state.model)
        h = 1e-5
        fd = np.zeros_like(vec)
        for i in range(vec.size):
            e = np.zeros_like(vec)
            e[i] = h
            m_plus, m_minus = state.model.copy(), state.model.copy()
            packer = ParamPacker(m_plus)
            packer.set_vector(m_plus, vec + e)
            packer.set_vector(m_minus, vec - e)
            l_plus, _, _ = nll_and_grad(m_plus, X, "exact")
            l_minus, _, _ = nll_and_grad(m_minus, X, "exact")
            fd[i] = (l_plus - l_minus) / (2 * h)
        np.testing.assert_allclose(flat, fd, atol=5e-9)

    def test_stochastic_gradient_unbiased_for_single_linear_block(self):
        # one linear block g(x) = A x + b with eigenvalues 0.4 and -0.3, below
        # 1 - q, so the reweighted Neumann tail has finite variance: the
        # Monte-Carlo mean of the unbiased gradient matches the exact one
        A = np.array([[0.4, 0.35], [0.0, -0.3]])
        layer = LayerParams(weight=A, bias=np.array([0.2, -0.1]), raw_beta=None)
        model = FlowModel(dim=2, layers=[ResidualBlock(BlockParams(layers=[layer]))])
        packer = ParamPacker(model)
        X = np.random.default_rng(8).standard_normal((16, 2))
        _, g_exact, _ = nll_and_grad(model, X, "exact")
        exact = packer.pack_grads(model, g_exact)
        est = EstimatorConfig()
        rng = np.random.default_rng(9)
        M = 4000
        samples = np.array(
            [
                packer.pack_grads(model, nll_and_grad(model, X, "unbiased", est, rng)[1])
                for _ in range(M)
            ]
        )
        mean = samples.mean(axis=0)
        se = samples.std(axis=0, ddof=1) / np.sqrt(M)
        # the four weight entries are random; the bias gradient is pathwise only
        random = se > 1e-12
        assert random.sum() == 4
        z = (mean[random] - exact[random]) / se[random]
        assert np.max(np.abs(z)) < 4.5
        np.testing.assert_allclose(mean[~random], exact[~random], rtol=1e-12)

    @pytest.mark.parametrize("n_hutchinson", [1, 3])
    def test_unbiased_gradient_matches_two_call_composition(self, n_hutchinson):
        # the fused reverse pass equals, for the same probes and truncations,
        # the pathwise gradient plus the log-det estimator run on its own
        state = init_train_state(tiny_cfg(blocks=3, hidden=8, n_hutchinson=n_hutchinson))
        X = state.dataset.sample(32)
        _, grads, _ = nll_and_grad(
            state.model, X, "unbiased", state.est_cfg, np.random.default_rng(3)
        )
        expected = two_call_unbiased_grads(
            state.model, X, state.est_cfg, np.random.default_rng(3)
        )
        np.testing.assert_allclose(
            state.packer.pack_grads(state.model, grads),
            state.packer.pack_grads(state.model, expected),
            rtol=1e-12,
        )


    @pytest.mark.parametrize("n_hutchinson", [1, 2])
    def test_biased_gradient_matches_two_call_composition(self, n_hutchinson):
        # the pathwise term rides the first bilinear form's reverse pass
        state = init_train_state(
            tiny_cfg(blocks=3, hidden=8, estimator_kind="biased", n_hutchinson=n_hutchinson)
        )
        X = state.dataset.sample(32)
        _, grads, _ = nll_and_grad(state.model, X, "biased", state.est_cfg, np.random.default_rng(3))
        expected = two_call_unbiased_grads(
            state.model, X, state.est_cfg, np.random.default_rng(3), biased_value_and_grad_rows
        )
        np.testing.assert_allclose(
            state.packer.pack_grads(state.model, grads),
            state.packer.pack_grads(state.model, expected),
            rtol=1e-12,
        )

    def test_probe_rows_reuse_the_forward_cache(self, monkeypatch):
        # n_hutchinson = 3: the block forward runs once per block, and each
        # probe row reads its point's cache row; gradients equal those of a
        # forward rerun on every point repeated once per probe
        import dataclasses

        state = init_train_state(tiny_cfg(blocks=3, hidden=8, n_hutchinson=3))
        X = state.dataset.sample(32)
        calls = []
        for module in (train, logdet):
            forward = module.block_forward_cache

            def counted(*args, _forward=forward, **kwargs):
                calls.append(1)
                return _forward(*args, **kwargs)

            monkeypatch.setattr(module, "block_forward_cache", counted)
        loss, grads, _ = nll_and_grad(state.model, X, "unbiased", state.est_cfg, np.random.default_rng(3))
        assert len(calls) == len(list(state.model.blocks())) == 3
        monkeypatch.undo()

        # the reference reruns each block's forward on every point repeated
        # once per probe, with one probe a row: the same draws, in one order
        def rerun_on_repeated_rows(block, x_in, est_cfg, rng, cache=None, out_cot=None):
            nh, n = est_cfg.n_hutchinson, x_in.shape[0]
            one = dataclasses.replace(est_cfg, n_hutchinson=1)
            values, terms, g, ig = roulette_value_and_neumann_grad_rows(
                block, np.repeat(x_in, nh, axis=0), one, rng, out_cot=np.repeat(out_cot, nh, axis=0)
            )
            return (values.reshape(n, nh).mean(axis=1), terms.reshape(n, nh).sum(axis=1),
                    g.scale_(1.0 / nh), ig.reshape(n, nh, -1).mean(axis=1))

        ref_loss, ref_grads, _ = sequential_nll_and_grad(
            state.model, X, "unbiased", state.est_cfg, np.random.default_rng(3), rerun_on_repeated_rows
        )
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        np.testing.assert_allclose(
            state.packer.pack_grads(state.model, grads),
            state.packer.pack_grads(state.model, ref_grads),
            rtol=1e-12,
        )


def sequential_nll_and_grad(model, X, mode, est_cfg, rng, estimator=roulette_value_and_neumann_grad_rows):
    """Reference for the queued unbiased ``nll_and_grad``: one thread, and in
    the backward sweep each block's draws, series and reverse pass in turn
    (``estimator`` given no prepared series draws and runs it itself)."""
    assert mode == "unbiased"
    n = X.shape[0]
    inputs, caches, h = [], [], X
    for lay in model.layers:
        inputs.append(h)
        if isinstance(lay, ResidualBlock):
            g, cache = blocks.block_forward_cache(lay.params, h)
            caches.append(cache)
            h = h + g
        else:
            caches.append(None)
            h = lay.forward(h)
    cot, logdet_sum = h.copy(), np.zeros(n)
    grads, terms_mean, n_blocks = [None] * len(model.layers), 0.0, 0
    for idx in range(len(model.layers) - 1, -1, -1):
        lay, x_in = model.layers[idx], inputs[idx]
        if isinstance(lay, ActNorm):
            scale = np.exp(lay.log_scale)
            g_log_scale = (cot * x_in).sum(axis=0) * scale
            grads[idx] = np.concatenate([g_log_scale - n, cot.sum(axis=0)]) * (1.0 / n)
            logdet_sum += lay.logdet
            cot = cot * scale
            continue
        values, terms, bg, ig = estimator(lay.params, x_in, est_cfg, rng, cache=caches[idx], out_cot=-cot)
        terms_mean += float(terms.mean())
        n_blocks += 1
        grads[idx] = bg.scale_(-1.0 / n)
        logdet_sum += values
        cot = cot - ig
    loss = float(np.mean(-base_log_density(h) - logdet_sum))
    return loss, grads, {"train_nll_nats": loss, "mean_terms": terms_mean / n_blocks if n_blocks else 0.0}


def data_model(n_blocks, seed=40, hidden=16):
    """A model whose actnorms are initialised from data, so each scales the
    cotangent and adds a log-det of its own between the blocks'."""
    model = build_model(np.random.default_rng(seed), n_blocks=n_blocks, hidden=hidden)
    return actnorm_initialize(model, np.random.default_rng(seed + 1).standard_normal((64, 2)) * 2.0 + 1.0)


def assert_same_step(got, want):
    """Two ``nll_and_grad`` results agree bit for bit."""
    assert got[0] == want[0] and got[2] == want[2]
    for a, b in zip(got[1], want[1]):
        a, b = (x.vec if isinstance(x, blocks.BlockGrads) else x for x in (a, b))
        np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


def series_threads(monkeypatch):
    """Patch ``logdet._series`` to record the name of each thread that runs it."""
    names, real = [], logdet._series

    def recorded(*args, **kwargs):
        names.append(threading.current_thread().name)
        return real(*args, **kwargs)

    monkeypatch.setattr(logdet, "_series", recorded)
    return names


class TestSeriesQueue:
    """Unbiased training queues every block's Neumann series on the series
    worker right after the forward; the sweep waits for each at its block."""

    @pytest.mark.parametrize("n_hutchinson", [1, 3])
    @pytest.mark.parametrize("n_blocks", [0, 1, 2, 5])
    def test_matches_the_sequential_sweep_bit_for_bit(self, monkeypatch, n_blocks, n_hutchinson):
        model, cfg = data_model(n_blocks), EstimatorConfig(n_hutchinson=n_hutchinson)
        assert any(lay.logdet != 0.0 for lay in model.layers if isinstance(lay, ActNorm))
        X = np.random.default_rng(42).standard_normal((24, 2)) * 1.5
        want_rng, rng = np.random.default_rng(43), np.random.default_rng(43)
        want = sequential_nll_and_grad(model, X, "unbiased", cfg, want_rng)
        names = series_threads(monkeypatch)
        assert_same_step(nll_and_grad(model, X, "unbiased", cfg, rng), want)
        # the draws were taken in the same order: both generators end in one state
        assert rng.bit_generator.state == want_rng.bit_generator.state
        worker = "resflow series worker" if blocks._blas_setter() else "MainThread"
        assert len(names) == n_blocks and all(name.startswith(worker) for name in names)

    def test_series_error_reaches_the_caller_and_no_job_outlives_the_step(self, monkeypatch):
        model, cfg = data_model(5), EstimatorConfig(n_hutchinson=2)
        X = np.random.default_rng(70).standard_normal((32, 2))
        real, spans = logdet._series, []  # (start, end) of every series that ran

        def first_fails_the_rest_are_slow(*args, **kwargs):
            start = time.perf_counter()
            try:
                if not spans:
                    raise FloatingPointError("planted")
                time.sleep(0.05)
                return real(*args, **kwargs)
            finally:
                spans.append((start, time.perf_counter()))

        monkeypatch.setattr(logdet, "_series", first_fails_the_rest_are_slow)
        with pytest.raises(FloatingPointError, match="planted"):
            nll_and_grad(model, X, "unbiased", cfg, np.random.default_rng(71))
        raised = time.perf_counter()
        time.sleep(0.3)  # a job left queued would run now
        assert spans and all(end <= raised for _, end in spans)
        monkeypatch.undo()
        want = sequential_nll_and_grad(model, X, "unbiased", cfg, np.random.default_rng(72))
        assert_same_step(nll_and_grad(model, X, "unbiased", cfg, np.random.default_rng(72)), want)

    def test_caller_error_cancels_the_queued_series(self, monkeypatch, blas_at_two):
        """The reverse pass of the first block the sweep reaches fails on the
        calling thread while the other blocks' series are queued: the error
        reaches the caller, no series ends after it, BLAS is back at its
        count, and the next step has its sequential bytes."""
        model, cfg = data_model(5), EstimatorConfig(n_hutchinson=2)
        X = np.random.default_rng(74).standard_normal((32, 2))
        real, spans = logdet._series, []  # (start, end) of every series that ran

        def slow(*args, **kwargs):
            start = time.perf_counter()
            try:
                time.sleep(0.05)
                return real(*args, **kwargs)
            finally:
                spans.append((start, time.perf_counter()))

        def fails_on_the_caller(*args, **kwargs):
            assert threading.current_thread() is threading.main_thread()
            raise FloatingPointError("planted")

        monkeypatch.setattr(logdet, "_series", slow)
        monkeypatch.setattr(logdet, "bilinear_param_grad", fails_on_the_caller)
        with pytest.raises(FloatingPointError, match="planted"):
            nll_and_grad(model, X, "unbiased", cfg, np.random.default_rng(75))
        raised = time.perf_counter()
        time.sleep(0.3)  # a job left queued would run now
        assert spans and all(end <= raised for _, end in spans)
        assert blas_threads(blas_at_two) == 2
        monkeypatch.undo()
        want = sequential_nll_and_grad(model, X, "unbiased", cfg, np.random.default_rng(76))
        assert_same_step(nll_and_grad(model, X, "unbiased", cfg, np.random.default_rng(76)), want)

    def test_trainers_at_once_get_their_sequential_bytes(self, monkeypatch):
        """More trainers than cores share the one worker, with the interpreter
        switching threads every microsecond: each gets its own bytes."""
        cfgs = [tiny_cfg(blocks=3, seed=80 + c, n_hutchinson=1 + c % 2) for c in range(4)]

        def three_steps(c):
            state = init_train_state(cfgs[c])
            records = [train_step(state, state.dataset.sample(64)) for _ in range(3)]
            return json.dumps(records, sort_keys=True), state.params.tobytes()

        monkeypatch.setattr(train, "nll_and_grad", sequential_nll_and_grad)
        want = [three_steps(c) for c in range(4)]
        monkeypatch.undo()
        got = [None] * 4

        def trainer(c):
            got[c] = three_steps(c)

        threads = [threading.Thread(target=trainer, args=(c,)) for c in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == want


@pytest.fixture
def blas_at_two():
    """OpenBLAS at 2 threads for the test, its count restored after; the
    setter returns the count it replaces."""
    setter = blocks._blas_setter()
    if setter is None:
        pytest.skip("numpy's BLAS is not an OpenBLAS with a thread-count setter")
    before = setter(2)
    yield setter
    setter(before)


def blas_threads(setter):
    """OpenBLAS's thread count, read by setting it to 1 and back."""
    count = setter(1)
    setter(count)
    return count


class TestBlasScope:
    """Unbiased ``nll_and_grad`` and ``log_density_batch`` run with BLAS at one
    thread, in every thread, and leave the count as they found it.

    ``tests/test_cli.py::test_blas_thread_count_does_not_change_training_bytes``
    runs the unbiased gradient at one BLAS thread either way now; the
    no-setter case below runs it at two, on the caller alone."""

    def counting_series(self, monkeypatch, setter, fail=False):
        """Patch ``logdet._series`` to record the BLAS thread count it runs at."""
        seen, real = [], logdet._series

        def counted(*args, **kwargs):
            seen.append(blas_threads(setter))
            if fail:
                raise FloatingPointError("planted")
            return real(*args, **kwargs)

        monkeypatch.setattr(logdet, "_series", counted)
        return seen

    def test_each_call_restores_the_count(self, monkeypatch, blas_at_two):
        model, cfg = data_model(3), EstimatorConfig()
        X = np.random.default_rng(90).standard_normal((16, 2))
        seen = self.counting_series(monkeypatch, blas_at_two)
        log_density_batch(model, X, mode="unbiased", cfg=cfg, rng=np.random.default_rng(91))
        assert blas_threads(blas_at_two) == 2
        state = init_train_state(tiny_cfg(blocks=2))
        train_step(state, state.dataset.sample(64))
        assert blas_threads(blas_at_two) == 2
        assert len(seen) == 3 + 2 and set(seen) == {1}
        monkeypatch.undo()
        self.counting_series(monkeypatch, blas_at_two, fail=True)
        for call in (
            lambda: log_density_batch(model, X, mode="unbiased", cfg=cfg, rng=np.random.default_rng(92)),
            lambda: nll_and_grad(model, X, "unbiased", cfg, np.random.default_rng(93)),
        ):
            with pytest.raises(FloatingPointError, match="planted"):
                call()
            assert blas_threads(blas_at_two) == 2

    def test_overlapping_callers_restore_the_count(self, monkeypatch, blas_at_two):
        model, cfg = data_model(3), EstimatorConfig()
        seen = self.counting_series(monkeypatch, blas_at_two)
        errors = []

        def caller(c):
            try:
                rng = np.random.default_rng(100 + c)
                for _ in range(3):
                    X = rng.standard_normal((16, 2))
                    if c % 2:
                        log_density_batch(model, X, mode="unbiased", cfg=cfg, rng=rng)
                    else:
                        nll_and_grad(model, X, "unbiased", cfg, rng)
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        threads = [threading.Thread(target=caller, args=(c,)) for c in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors and not any(t.is_alive() for t in threads)
        assert len(seen) == 4 * 3 * 3 and set(seen) == {1}
        assert blas_threads(blas_at_two) == 2

    def test_without_the_setter_the_series_run_on_the_caller(self, monkeypatch, blas_at_two):
        """No setter: the scope does nothing and the worker is not used, so
        the one thread runs the series with BLAS at 2 threads, and the bytes
        are those of the worker at 1 thread."""
        state = init_train_state(tiny_cfg(blocks=2, hidden=128, batch_size=512))
        X = state.dataset.sample(512)
        cfg, eval_cfg = state.est_cfg, EstimatorConfig(n_hutchinson=2)
        want = (nll_and_grad(state.model, X, "unbiased", cfg, np.random.default_rng(5)),
                log_density_batch(state.model, X, mode="unbiased", cfg=eval_cfg, rng=np.random.default_rng(6)))
        monkeypatch.setattr(blocks, "_blas_setter", lambda: None)
        seen = self.counting_series(monkeypatch, blas_at_two)
        names = series_threads(monkeypatch)
        got = (nll_and_grad(state.model, X, "unbiased", cfg, np.random.default_rng(5)),
               log_density_batch(state.model, X, mode="unbiased", cfg=eval_cfg, rng=np.random.default_rng(6)))
        assert names == ["MainThread"] * 4 and seen == [2] * 4
        assert_same_step(got[0], want[0])
        for a, b in zip(got[1][:2], want[1][:2]):
            np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))
        assert got[1][2] == want[1][2]

    def test_setter_lookup(self, tmp_path):
        maps = tmp_path / "maps"
        maps.write_text("7f0000000000-7f0000001000 r-xp 00000000 00:00 0 /usr/lib/libm.so.6\n")
        assert blocks._find_blas_setter(str(maps)) is None
        assert blocks._find_blas_setter(str(tmp_path / "absent")) is None
        assert (blocks._find_blas_setter() is None) == (blocks._blas_setter() is None)


def two_call_unbiased_grads(model, X, est_cfg, rng, estimator=roulette_value_and_neumann_grad_rows):
    """Per-layer mean-NLL gradients with two calls per residual block: the
    pathwise reverse pass, then the log-det ``estimator`` without an output
    cotangent."""
    inputs = []
    h = X
    for lay in model.layers:
        inputs.append(h)
        h = lay.forward(h)
    n = X.shape[0]
    cot = h.copy()
    grads = [None] * len(model.layers)
    for idx in range(len(model.layers) - 1, -1, -1):
        lay, x_in = model.layers[idx], inputs[idx]
        if isinstance(lay, ActNorm):
            scale = np.exp(lay.log_scale)
            grads[idx] = np.concatenate([(cot * x_in).sum(axis=0) * scale - n, cot.sum(axis=0)]) / n
            cot = cot * scale
            continue
        bg, vjp = block_param_grad_of_output(lay.params, x_in, cot)
        _, _, lg, ig = estimator(lay.params, x_in, est_cfg, rng)
        grads[idx] = bg.add_(lg, scale=-1.0).scale_(1.0 / n)
        cot = cot + vjp - ig
    return grads


class TestTrainStepInvariants:
    def test_zero_lr_keeps_parameters(self):
        state = init_train_state(tiny_cfg(lr=0.0, weight_decay=0.0))
        before = state.packer.get_vector(state.model)
        train_step(state, state.dataset.sample(64))
        after = state.packer.get_vector(state.model)
        np.testing.assert_array_equal(before, after)
        np.testing.assert_allclose(state.polyak.average(), after, rtol=1e-12)

    def test_decoupled_decay_shrinks_exactly(self):
        state = init_train_state(tiny_cfg(lr=0.0, weight_decay=0.01))
        before = state.packer.get_vector(state.model)
        batch = state.dataset.sample(64)
        # run the optimizer alone so the Lipschitz projection cannot rescale
        loss, grads, _ = nll_and_grad(
            state.model, batch, "unbiased", state.est_cfg, state.rng_train
        )
        flat = state.packer.pack_grads(state.model, grads)
        after = state.opt.step(before, flat)
        np.testing.assert_allclose(after, before * (1 - 0.01), rtol=1e-13)

    def test_constraint_holds_after_every_step(self):
        state = init_train_state(tiny_cfg(lr=0.05))
        for _ in range(5):
            record = train_step(state, state.dataset.sample(64))
            for block_norms in record["layer_norms"]:
                for n in block_norms:
                    assert n <= 0.98 * (1 + 1e-3)

    def test_model_weights_are_normalized_optimizer_variables(self):
        # V leaves the feasible set; the model holds V / max(1, ||V|| / coeff)
        state = init_train_state(tiny_cfg(lr=0.05))
        for _ in range(5):
            train_step(state, state.dataset.sample(64))
        free = state.model.copy()
        state.packer.set_vector(free, state.params)
        scales = []
        for lay, lay_free in zip(state.model.layers, free.layers):
            if isinstance(lay, ResidualBlock):
                for sub, sub_free in zip(lay.params.layers, lay_free.params.layers):
                    scales.append(sub.pi_scale)
                    np.testing.assert_allclose(
                        sub.weight, sub_free.weight / sub.pi_scale, rtol=1e-12
                    )
        assert max(scales) > 1.0

    def test_polyak_reconstruction_over_ten_steps(self):
        # the average is over the optimizer's own (unnormalized) iterates
        state = init_train_state(tiny_cfg(lr=0.01))
        trajectory = []
        for _ in range(10):
            train_step(state, state.dataset.sample(64))
            trajectory.append(state.params.copy())
        decay = state.cfg.polyak_decay
        weights = np.array([(1 - decay) * decay ** (9 - t) for t in range(10)])
        weights /= weights.sum()
        expected = sum(w * p for w, p in zip(weights, trajectory))
        np.testing.assert_allclose(state.polyak.average(), expected, atol=1e-10)

    def test_nonfinite_gradient_aborts(self):
        from resflow.errors import NonFiniteError

        state = init_train_state(tiny_cfg())
        state.model.layers[0].shift = state.model.layers[0].shift + np.nan
        with pytest.raises(NonFiniteError):
            train_step(state, state.dataset.sample(64))


class TestEvaluate:
    def test_empty_model_gaussian_entropy(self):
        # an untrained 0-block model on standard-normal-ish data: expected
        # NLL equals the differential entropy ln(2*pi*e) for d=2
        cfg = tiny_cfg(blocks=0, dataset="eight_gaussians", n_eval=4000)
        state = init_train_state(cfg)
        # bypass actnorm standardization: draw base samples directly
        from resflow.flow import FlowModel

        state.model = FlowModel(dim=2, layers=[])
        state.packer = ParamPacker(state.model)
        rng = np.random.default_rng(0)
        X = rng.standard_normal((20_000, 2))
        _, logp, _ = log_density_batch(state.model, X, mode="exact")
        nll = float(np.mean(-logp))
        se = float(np.std(-logp) / np.sqrt(len(logp)))
        expected = float(np.log(2 * np.pi * np.e))
        assert abs(nll - expected) < 3 * se
        assert expected == pytest.approx(2.83788, abs=5e-6)

    def test_exact_and_estimator_modes_agree(self):
        cfg = tiny_cfg(blocks=2, hidden=8, n_eval=400)
        state = init_train_state(cfg)
        exact = evaluate(state, mode="exact")
        est = evaluate(state, mode="estimator")
        # same polyak model, fresh eval draws; agreement within joint noise
        tol = 3 * np.hypot(exact["eval_nll_se_nats"], est["eval_nll_se_nats"])
        assert abs(exact["eval_nll_nats"] - est["eval_nll_nats"]) < tol

    def test_protocol_draws_two_rademacher_probes_whatever_the_training_law(self):
        cfg = TrainConfig(hutchinson="gaussian", n_hutchinson=3)
        assert estimator_config_from(cfg).hutchinson_dist == "gaussian"
        protocol = eval_estimator_config_from(cfg)
        assert (protocol.hutchinson_dist, protocol.n_hutchinson) == ("rademacher", 2)
        assert protocol.roulette.n_exact == cfg.eval_terms == 20

    def test_bits_conversion(self):
        assert nats_to_bits(2.0) == pytest.approx(2.8854, abs=5e-5)

    def test_gaussian_fit_oracle_matches_closed_form(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((50_000, 2)) * np.array([2.0, 0.5])
        nll = gaussian_fit_nll(X)
        cov = np.cov(X.T, bias=True)
        expected = 0.5 * 2 * np.log(2 * np.pi) + 0.5 * np.linalg.slogdet(cov)[1] + 1.0
        assert nll == pytest.approx(expected, rel=1e-12)


class TestBiasedVsUnbiasedAblation:
    """Fixed-truncation training optimizes its own biased objective.

    On matched near-capacity blocks the truncated-series value drifts away
    from the true log density as training proceeds, while the unbiased
    estimator's gap stays at statistical zero.
    """

    @pytest.mark.slow
    def test_training_objective_gap(self):
        results = {}
        for kind in ("biased", "unbiased"):
            cfg = tiny_cfg(
                blocks=2,
                hidden=48,
                batch_size=256,
                lr=2e-2,
                estimator_kind=kind,
                n_fixed=5,
                seed=5,
            )
            state = init_train_state(cfg)
            probe = state.eval_dataset.sample(512)
            gaps = []
            for step in range(220):
                train_step(state, state.dataset.sample(cfg.batch_size))
                if (step + 1) % 110 == 0:
                    gaps.append(objective_gap(state, probe, kind))
            results[kind] = gaps
        # biased: reported objective drifts from the true log density
        assert abs(results["biased"][-1][0]) > 5 * abs(results["biased"][-1][1])
        # unbiased: gap is statistical noise around zero
        gap, se = results["unbiased"][-1]
        assert abs(gap) < 3 * se


def objective_gap(state, probe, kind):
    """(mean objective - mean exact logdet, standard error) over a probe set."""
    total_gap = np.zeros(probe.shape[0])
    h = probe
    rng = np.random.default_rng(123)
    est = estimator_config_from(state.cfg)
    for lay in state.model.layers:
        if isinstance(lay, ResidualBlock):
            exact = exact_logdet(lay.params, h)
            if kind == "biased":
                reported = biased_logdet_exact_trace_rows(lay.params, h, state.cfg.n_fixed)
            else:
                from resflow.logdet import roulette_logdet_rows

                series, _, _ = roulette_logdet_rows(lay.params, h, est, rng)
                reported = series()
            total_gap += reported - exact
        h = lay.forward(h)
    return float(total_gap.mean()), float(total_gap.std(ddof=1) / np.sqrt(len(total_gap)))


class TestFit:
    def test_fit_writes_artifacts(self, tmp_path):
        cfg = tiny_cfg(steps=3, eval_every=2, checkpoint_every=2)
        state = fit(cfg, tmp_path)
        assert state.step == 3
        assert not blocks._workspace.__dict__  # fit frees the training workspace
        assert (tmp_path / "config.txt").exists()
        assert (tmp_path / "checkpoint_final.txt").exists()
        assert (tmp_path / "checkpoint_step2.txt").exists()
        lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert records[0]["step"] == 0 and "eval_nll_bits" in records[0]
        assert records[-1]["step"] == 3
        train_records = [r for r in records if "train_nll_nats" in r]
        assert len(train_records) == 3
        for r in train_records:
            assert np.isfinite(r["train_nll_nats"])
            assert np.isfinite(r["grad_norm"])

    def test_metrics_bits_identity(self, tmp_path):
        cfg = tiny_cfg(steps=2, eval_every=1)
        fit(cfg, tmp_path)
        for line in (tmp_path / "metrics.jsonl").read_text().splitlines():
            r = json.loads(line)
            if "eval_nll_nats" in r:
                assert r["eval_nll_bits"] == pytest.approx(
                    r["eval_nll_nats"] / np.log(2), rel=1e-12
                )

    def test_deterministic_rerun(self, tmp_path):
        cfg = tiny_cfg(steps=3)
        fit(cfg, tmp_path / "a")
        fit(cfg, tmp_path / "b")
        for name in ("metrics.jsonl", "config.txt", "checkpoint_final.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestStateCheckpoint:
    @pytest.mark.parametrize("steps", [3, 0], ids=["polyak_average", "no_average"])
    def test_loader_matches_inline_debias(self, tmp_path, steps):
        # the evaluation model as built from the file key by key: the debiased
        # shadow laid over the saved model, then every block certified
        cfg = tiny_cfg(steps=steps)
        fit(cfg, tmp_path)
        path = tmp_path / "checkpoint_final.txt"
        reference, meta, arrays = load_checkpoint(path)
        count = int(meta["polyak.count"])
        assert ("polyak.shadow" in arrays) == (count > 0) == (steps > 0)
        if count > 0:
            shadow = arrays["polyak.shadow"] / (1.0 - cfg.polyak_decay**count)
            ParamPacker(reference).set_vector(reference, shadow)
        for lay in reference.layers:
            if isinstance(lay, ResidualBlock):
                checkpoint_constraint(lay.params, cfg.lipschitz_coeff)
        model, loaded_cfg = load_state_checkpoint(path)
        assert loaded_cfg == cfg
        save_checkpoint(tmp_path / "reference.txt", reference)
        save_checkpoint(tmp_path / "loaded.txt", model)
        assert (tmp_path / "loaded.txt").read_bytes() == (tmp_path / "reference.txt").read_bytes()

    @pytest.mark.parametrize(
        "pattern, repl",
        [
            (r"^meta\.train\.polyak_decay = .*$", "meta.train.polyak_decay = 1.5"),
            (r"^meta\.polyak\.count = .*$", "meta.polyak.count = -1"),
            (r"^meta\.polyak\.count = .*$", "meta.polyak.count = x"),
            (r"^(array\.polyak\.shadow = .*),[^,]*$", r"\1"),
        ],
        ids=["decay", "negative_count", "count_not_a_number", "short_shadow"],
    )
    def test_bad_metadata_is_config_error(self, tmp_path, pattern, repl):
        fit(tiny_cfg(steps=2), tmp_path)
        text, n = re.subn(pattern, repl, (tmp_path / "checkpoint_final.txt").read_text(), flags=re.M)
        assert n == 1
        (tmp_path / "bad.txt").write_text(text)
        with pytest.raises(ConfigError, match="bad.txt"):
            load_state_checkpoint(tmp_path / "bad.txt")


def flat_step_outputs(state, loss, grads, aux):
    """Copies of everything one ``nll_and_grad`` call handed back."""
    return loss, state.packer.pack_grads(state.model, grads).copy(), dict(aux)


class TestWorkspace:
    """The training step keeps each block's (z, s) in reused buffers."""

    def test_warmed_step_allocates_less_than_it_keeps(self):
        """tracemalloc peak of one warmed ``nll_and_grad`` at the acceptance
        config (10 blocks, hidden 128, batch 512).

        Every block's kept ``z`` and ``s`` come to ``kept`` bytes and the
        returned gradients to ``grad`` bytes.  A step that allocated the kept
        arrays afresh would peak above ``kept`` alone (five arrays per hidden
        layer and block read 55.5 MiB); one that reuses them allocates the
        gradients plus what one block's series and reverse pass need
        (6.5 MiB measured), so the bound leaves ``kept / 2`` for those.
        """
        import tracemalloc

        state = init_train_state(tiny_cfg(blocks=10, hidden=128, batch_size=512))
        X = state.dataset.sample(512)
        args = dict(est_cfg=state.est_cfg, rng=np.random.default_rng(3))
        for _ in range(2):
            nll_and_grad(state.model, X, "unbiased", **args)
        hidden_layers = sum(len(b.params.layers) - 1 for b in state.model.blocks())
        kept = 2 * hidden_layers * 512 * 128 * 8
        grad = 8 * state.packer.total
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            nll_and_grad(state.model, X, "unbiased", **args)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < grad + kept / 2, f"peak {peak / 2**20:.2f} MiB"

    @pytest.mark.parametrize("kind", ["unbiased", "biased", "exact"])
    def test_returned_outputs_survive_the_next_step(self, kind):
        state = init_train_state(tiny_cfg(hidden=16, batch_size=32))
        X1, X2 = state.dataset.sample(32), state.dataset.sample(32)
        mode_args = {} if kind == "exact" else dict(est_cfg=state.est_cfg, rng=state.rng_train)
        out = nll_and_grad(state.model, X1, kind, **mode_args)
        kept = flat_step_outputs(state, *out)
        nll_and_grad(state.model, X2, kind, **mode_args)
        again = flat_step_outputs(state, *out)
        assert kept[0] == again[0] and kept[2] == again[2]
        np.testing.assert_array_equal(kept[1], again[1])

    def test_step_record_survives_the_next_step(self):
        state = init_train_state(tiny_cfg(hidden=16, batch_size=32))
        record = train_step(state, state.dataset.sample(32))
        kept = json.dumps(record, sort_keys=True)
        train_step(state, state.dataset.sample(32))
        assert json.dumps(record, sort_keys=True) == kept

    def test_interleaved_models_match_separate_processes(self):
        """Two models of different width and batch size, stepped in turn in
        one process, give the bytes each gives alone in a fresh process."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        script = """
import hashlib, json, sys
from resflow.config import TrainConfig
from resflow.train import init_train_state, train_step
CFGS = {"a": dict(blocks=2, hidden=16, batch_size=32), "b": dict(blocks=3, hidden=24, batch_size=48)}
states = {k: init_train_state(TrainConfig(seed=5, **CFGS[k])) for k in sys.argv[1:]}
digests = {k: hashlib.sha256() for k in states}
for _ in range(3):
    for k, st in states.items():
        rec = train_step(st, st.dataset.sample(st.cfg.batch_size))
        digests[k].update(json.dumps(rec, sort_keys=True).encode())
        digests[k].update(st.params.tobytes())
print(json.dumps({k: d.hexdigest() for k, d in digests.items()}))
"""
        src = str(Path(__file__).resolve().parents[1] / "src")

        def run(*names):
            proc = subprocess.run(
                [sys.executable, "-c", script, *names], capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": src}, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            return json.loads(proc.stdout)

        together = run("a", "b")
        assert together == {**run("a"), **run("b")}

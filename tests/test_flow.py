"""Flow composition: density bookkeeping, inversion, sampling, checkpoints."""

import numpy as np
import pytest

from resflow.blocks import block_forward
from resflow.checkpoint import load_checkpoint, save_checkpoint
from resflow.errors import ContractivityError, InitializationError, ShapeError
from resflow.flow import (
    ActNorm,
    FlowModel,
    ResidualBlock,
    actnorm_initialize,
    base_log_density,
    build_model,
    inverse,
    log_density_batch,
    sample,
    set_identity_actnorms,
    transform,
)
from resflow.logdet import EstimatorConfig
from resflow.norms import checkpoint_constraint, init_block_params


def random_model(seed=0, n_blocks=4, hidden=24, actnorm=True):
    model = build_model(
        np.random.default_rng(seed), n_blocks=n_blocks, hidden=hidden, actnorm=actnorm
    )
    set_identity_actnorms(model)
    return model


def density_at(model, x, **kw):
    """Transformed point and log density of one point, as a one-row batch."""
    z, logp, _ = log_density_batch(model, np.asarray(x, dtype=np.float64)[None, :], **kw)
    return z[0], logp[0]


class TestForward:
    def test_empty_model_is_base_density(self):
        model = FlowModel(dim=2, layers=[])
        z, logp = density_at(model, np.zeros(2))
        np.testing.assert_array_equal(z, np.zeros(2))
        assert logp == pytest.approx(-np.log(2 * np.pi), rel=1e-12)
        assert logp == pytest.approx(-1.83788, abs=5e-6)

    def test_single_actnorm_affine_change_of_variables(self):
        act = ActNorm(log_scale=np.log(np.array([2.0, 2.0])), shift=np.zeros(2), initialized=True)
        model = FlowModel(dim=2, layers=[act])
        z, logp = density_at(model, np.array([1.0, 1.0]))
        np.testing.assert_allclose(z, [2.0, 2.0], rtol=1e-15)
        assert logp == pytest.approx(base_log_density(z) + 2 * np.log(2.0), rel=1e-12)

    def test_uninitialized_actnorm_raises(self):
        model = build_model(np.random.default_rng(3), n_blocks=1, hidden=8)
        with pytest.raises(InitializationError):
            density_at(model, np.zeros(2))

    def test_estimator_mode_consistent_with_exact(self):
        model = random_model(seed=5, n_blocks=2)
        x = np.array([0.3, -0.8])
        _, exact = density_at(model, x)
        cfg = EstimatorConfig()
        rng = np.random.default_rng(1)
        X = np.broadcast_to(x, (10_000, 2))
        _, logp, _ = log_density_batch(model, X, mode="unbiased", cfg=cfg, rng=rng)
        se = logp.std(ddof=1) / np.sqrt(len(logp))
        assert abs(logp.mean() - exact) < 3 * se

    def test_batch_consistent_with_single(self):
        model = random_model(seed=6)
        X = np.random.default_rng(7).standard_normal((5, 2))
        _, logp, _ = log_density_batch(model, X)
        singles = np.array([density_at(model, x)[1] for x in X])
        np.testing.assert_allclose(logp, singles, rtol=1e-12)

    def test_shape_errors(self):
        model = random_model()
        with pytest.raises(ShapeError):
            density_at(model, np.zeros(3))
        with pytest.raises(ValueError):
            density_at(model, np.zeros(2), mode="unbiased")  # missing cfg/rng


class TestInverse:
    def test_zero_branch_inverts_in_one_iteration(self):
        params = init_block_params(np.random.default_rng(8), 2, hidden=8)
        for lay in params.layers:
            lay.weight[...] = 0.0
            lay.bias[...] = 0.0
        model = FlowModel(dim=2, layers=[ResidualBlock(params=params)])
        z = np.array([1.5, -2.0])
        x, residuals = inverse(model, z, return_residuals=True)
        np.testing.assert_allclose(x, z, rtol=1e-15)
        assert len(residuals[0]) == 1

    def test_round_trip_both_directions(self):
        model = random_model(seed=9, n_blocks=5)
        rng = np.random.default_rng(10)
        X = rng.standard_normal((1000, 2)) * 2.0
        Z = transform(model, X)
        X_back = inverse(model, Z, tol=1e-12)
        assert np.max(np.linalg.norm(X_back - X, axis=1)) < 1e-8
        Z2 = rng.standard_normal((200, 2))
        X2 = inverse(model, Z2, tol=1e-12)
        assert np.max(np.linalg.norm(transform(model, X2) - Z2, axis=1)) < 1e-7

    def test_geometric_residual_decay(self):
        model = random_model(seed=11, n_blocks=3, hidden=32)
        from resflow.norms import layer_norms

        for lay in model.layers:
            if isinstance(lay, ResidualBlock):
                checkpoint_constraint(lay.params, 0.98)
        z = np.random.default_rng(12).standard_normal((50, 2))
        _, residuals = inverse(model, z, tol=1e-12, return_residuals=True)
        for lay, block_res in zip(
            [l for l in reversed(model.layers) if isinstance(l, ResidualBlock)], residuals
        ):
            bound = float(np.prod(layer_norms(lay.params)))
            meaningful = [r for r in block_res if r > 1e-12]
            for a, b in zip(meaningful, meaningful[1:]):
                assert b <= bound * a * (1 + 1e-6)

    def test_page_faults_do_not_grow_with_picard_iterations(self):
        """Every Picard step of every block works in one set of buffers, so
        a tight tolerance faults no more pages than a loose one."""
        resource = pytest.importorskip("resource")
        params = init_block_params(np.random.default_rng(19), 2, hidden=128, init_norm_fraction=1.0)
        model = FlowModel(dim=2, layers=[ResidualBlock(params=params)] * 2)
        z = np.random.default_rng(20).standard_normal((500, 2))

        def faults_and_iters(tol):
            inverse(model, z, tol=tol)
            counts = []
            for _ in range(3):
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                _, residuals = inverse(model, z, tol=tol, return_residuals=True)
                counts.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            return min(counts), sum(len(r) for r in residuals)

        loose, few = faults_and_iters(1e-1)
        tight, many = faults_and_iters(1e-14)
        assert many >= 4 * few
        assert tight <= 2 * loose

    def test_nonconvergence_raises(self):
        model = random_model(seed=13, n_blocks=1)
        pos, block = next((i, lay) for i, lay in enumerate(model.layers) if isinstance(lay, ResidualBlock))
        # identity actnorms hand the block z = 0, so its one update is -g(0)
        with pytest.raises(
            ContractivityError, match=rf"layer {pos} did not reach tol=1e-10 in 1 iterations; last update norm"
        ) as info:
            inverse(model, np.zeros(2), tol=1e-10, max_iters=1)
        last = float(str(info.value).rsplit(" ", 1)[1])
        assert last == pytest.approx(np.linalg.norm(block_forward(block.params, np.zeros(2))), rel=1e-12)


class TestSample:
    def test_empty_model_samples_standard_normal(self):
        import scipy.stats

        model = FlowModel(dim=2, layers=[])
        pts = sample(model, np.random.default_rng(42), 4000)
        for j in range(2):
            stat = scipy.stats.kstest(pts[:, j], "norm")
            assert stat.pvalue > 0.01

    def test_seed_determinism(self):
        model = random_model(seed=15)
        a = sample(model, np.random.default_rng(99), 50)
        b = sample(model, np.random.default_rng(99), 50)
        np.testing.assert_array_equal(a, b)

    def test_zero_samples(self):
        model = random_model(seed=16)
        assert sample(model, np.random.default_rng(0), 0).shape == (0, 2)


class TestActnormInit:
    def test_standardized_batch_gives_identity(self):
        rng = np.random.default_rng(17)
        batch = rng.standard_normal((100_000, 2))
        batch = (batch - batch.mean(0)) / batch.std(0)
        act = ActNorm.uninitialized(2)
        act.initialize_from(batch)
        np.testing.assert_allclose(np.exp(act.log_scale), 1.0, atol=1e-12)
        np.testing.assert_allclose(act.shift, 0.0, atol=1e-12)

    def test_shifted_scaled_batch_standardized(self):
        rng = np.random.default_rng(18)
        batch = rng.standard_normal((50_000, 2)) * np.array([2.0, 2.0]) + np.array([3.0, -3.0])
        act = ActNorm.uninitialized(2)
        act.initialize_from(batch)
        out = act.forward(batch)
        np.testing.assert_allclose(out.mean(0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.std(0), 1.0, atol=1e-10)
        # scale ~ 1/2, total shift equivalent to subtracting the mean first
        np.testing.assert_allclose(np.exp(act.log_scale), 0.5, atol=0.02)

    def test_single_element_batch_hits_variance_floor(self):
        act = ActNorm.uninitialized(2)
        with pytest.warns(UserWarning):
            act.initialize_from(np.array([[1.0, 2.0]]))
        assert np.all(np.isfinite(act.log_scale))

    def test_sequential_initialization_standardizes_through_stack(self):
        model = build_model(np.random.default_rng(19), n_blocks=2, hidden=8)
        rng = np.random.default_rng(20)
        batch = rng.uniform(-4, 4, (4096, 2))
        actnorm_initialize(model, batch)
        out = transform(model, batch)
        np.testing.assert_allclose(out.mean(0), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.std(0), 1.0, atol=1e-9)


class TestNormalizationQuadrature:
    def test_density_integrates_to_one(self):
        from resflow.grid import compute_grid

        model = random_model(seed=21, n_blocks=4, hidden=16)
        rng = np.random.default_rng(22)
        for lay in model.layers:
            if isinstance(lay, ResidualBlock):
                for sub in lay.params.layers:
                    sub.bias[...] = rng.uniform(-0.8, 0.8, sub.bias.shape)
                checkpoint_constraint(lay.params, 0.98)
        grid = compute_grid(model, (-8, 8, -8, 8), (400, 400), mode="exact")
        assert 0.98 <= grid.integral() <= 1.02


class TestCheckpoint:
    def test_round_trip_byte_identical(self, tmp_path):
        model = random_model(seed=23, n_blocks=2, hidden=8)
        # populate power-iteration caches so they serialize too
        for lay in model.layers:
            if isinstance(lay, ResidualBlock):
                checkpoint_constraint(lay.params, 0.98)
        meta = {"step": "17", "train.dataset": "checkerboard"}
        arrays = {"polyak.shadow": np.random.default_rng(24).standard_normal(10)}
        p1 = tmp_path / "a.txt"
        p2 = tmp_path / "b.txt"
        save_checkpoint(p1, model, meta=meta, arrays=arrays)
        loaded, meta2, arrays2 = load_checkpoint(p1)
        save_checkpoint(p2, loaded, meta=meta2, arrays=arrays2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_model_evaluates_identically(self, tmp_path):
        model = random_model(seed=25, n_blocks=3, hidden=8)
        path = tmp_path / "m.txt"
        save_checkpoint(path, model)
        loaded, _, _ = load_checkpoint(path)
        X = np.random.default_rng(26).standard_normal((20, 2))
        _, lp1, _ = log_density_batch(model, X)
        _, lp2, _ = log_density_batch(loaded, X)
        np.testing.assert_array_equal(lp1, lp2)

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        import resflow.checkpoint

        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, random_model(seed=27, n_blocks=1, hidden=4))
        before = path.read_bytes()

        def fail(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr(resflow.checkpoint.os, "replace", fail)
        with pytest.raises(OSError, match="disk gone"):
            save_checkpoint(path, random_model(seed=28, n_blocks=2, hidden=4))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.txt"]

    def test_missing_file_is_config_error(self, tmp_path):
        from resflow.errors import ConfigError

        with pytest.raises(ConfigError):
            load_checkpoint(tmp_path / "nope.txt")


def sequential_density(model, X, cfg, rng):
    """Reference for the unbiased pipeline: one block after the other on this
    thread, each block's log-det added as soon as it is known."""
    from resflow.logdet import roulette_logdet_rows

    h, logdet, terms_total, n_blocks = X, np.zeros(len(X)), 0.0, 0
    for lay in model.layers:
        if isinstance(lay, ActNorm):
            logdet += lay.logdet
            h = lay.forward(h)
        else:
            series, terms, g = roulette_logdet_rows(lay.params, h, cfg, rng)
            logdet += series()
            terms_total += float(terms.mean())
            n_blocks += 1
            h = h + g
    logp = base_log_density(h)
    logp += logdet
    return h, logp, terms_total / n_blocks if n_blocks else 0.0


def data_model(n_blocks, seed=40):
    """A model whose actnorms are initialised from data, so each adds a
    log-det of its own between the blocks'."""
    model = build_model(np.random.default_rng(seed), n_blocks=n_blocks, hidden=16)
    return actnorm_initialize(model, np.random.default_rng(seed + 1).standard_normal((64, 2)) * 2.0 + 1.0)


def assert_same_bits(got, want):
    for a, b in zip(got[:2], want[:2]):
        np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))
    assert got[2] == want[2]


class TestUnbiasedPipeline:
    """The unbiased route runs every other block's series on the series worker."""

    @pytest.mark.parametrize(
        "n_hutchinson, probes",
        [(1, "gaussian"), (3, "gaussian"), (1, "rademacher"), (2, "rademacher")],
        ids=["1", "3", "1-rademacher", "2-rademacher"],
    )
    @pytest.mark.parametrize("n_blocks", [0, 1, 2, 5])
    def test_matches_the_sequential_loop_bit_for_bit(self, n_blocks, n_hutchinson, probes):
        model = data_model(n_blocks)
        assert any(lay.logdet != 0.0 for lay in model.layers if isinstance(lay, ActNorm))
        X = np.random.default_rng(42).standard_normal((9, 2))
        cfg = EstimatorConfig(hutchinson_dist=probes, n_hutchinson=n_hutchinson)
        want = sequential_density(model, X, cfg, np.random.default_rng(43))
        rng = np.random.default_rng(43)
        assert_same_bits(log_density_batch(model, X, mode="unbiased", cfg=cfg, rng=rng), want)
        # the draws were taken in the same order: both generators end in one state
        replay = np.random.default_rng(43)
        sequential_density(model, X, cfg, replay)
        assert rng.bit_generator.state == replay.bit_generator.state

    def test_callers_at_once_get_their_sequential_bytes(self):
        """More callers than cores share the one worker, with the interpreter
        switching threads every microsecond: each gets its own bytes."""
        import sys
        import threading

        model, cfg = data_model(5), EstimatorConfig(n_hutchinson=2)
        inputs = [np.random.default_rng(50 + c).standard_normal((20, 2)) for c in range(4)]

        def three_calls(c, density):
            rng = np.random.default_rng(60 + c)
            return [density(model, inputs[c], cfg, rng) for _ in range(3)]

        def pipelined(model, X, cfg, rng):
            return log_density_batch(model, X, mode="unbiased", cfg=cfg, rng=rng)

        want = [three_calls(c, sequential_density) for c in range(4)]
        got = [None] * 4

        def caller(c):
            got[c] = three_calls(c, pipelined)

        threads = [threading.Thread(target=caller, args=(c,)) for c in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for c in range(4):
            assert len(got[c]) == 3
            for g, w in zip(got[c], want[c]):
                assert_same_bits(g, w)

    def test_worker_error_reaches_the_caller_and_the_worker_survives(self, monkeypatch):
        import threading

        import resflow.logdet as logdet

        model, cfg = data_model(3), EstimatorConfig()
        X = np.random.default_rng(70).standard_normal((6, 2))
        real = logdet._series

        def failing_on_worker(*args, **kwargs):
            if threading.current_thread().name.startswith("resflow series worker"):
                raise FloatingPointError("planted")
            return real(*args, **kwargs)

        monkeypatch.setattr(logdet, "_series", failing_on_worker)
        with pytest.raises(FloatingPointError, match="planted"):
            log_density_batch(model, X, mode="unbiased", cfg=cfg, rng=np.random.default_rng(71))
        monkeypatch.setattr(logdet, "_series", real)
        want = sequential_density(model, X, cfg, np.random.default_rng(72))
        got = log_density_batch(model, X, mode="unbiased", cfg=cfg, rng=np.random.default_rng(72))
        assert_same_bits(got, want)

    def test_caller_error_waits_for_the_running_series(self, monkeypatch):
        """A later block's forward fails on the calling thread while an earlier
        block's series runs on the worker: the error reaches the caller, no
        series ends after it, BLAS is back at its count, and the next call
        has its sequential bytes."""
        import threading
        import time

        import resflow.blocks as blocks
        import resflow.logdet as logdet

        setter = blocks._blas_setter()
        if setter is None:
            pytest.skip("numpy's BLAS is not an OpenBLAS with a thread-count setter")
        model, cfg = data_model(3), EstimatorConfig()
        X = np.random.default_rng(73).standard_normal((6, 2))
        real_series, real_forward = logdet._series, logdet.block_forward_cache
        spans, forwards = [], []  # (start, end) of every series on the worker
        running = threading.Event()

        def slow_on_worker(*args, **kwargs):
            if threading.current_thread() is threading.main_thread():
                return real_series(*args, **kwargs)
            start = time.perf_counter()
            running.set()
            try:
                time.sleep(0.2)
                return real_series(*args, **kwargs)
            finally:
                spans.append((start, time.perf_counter()))

        def third_forward_fails(*args, **kwargs):
            forwards.append(1)
            if len(forwards) == 3:
                assert running.wait(timeout=10)  # block 0's series is on the worker
                raise FloatingPointError("planted")
            return real_forward(*args, **kwargs)

        monkeypatch.setattr(logdet, "_series", slow_on_worker)
        monkeypatch.setattr(logdet, "block_forward_cache", third_forward_fails)
        before = setter(2)
        try:
            with pytest.raises(FloatingPointError, match="planted"):
                log_density_batch(model, X, mode="unbiased", cfg=cfg, rng=np.random.default_rng(74))
            raised = time.perf_counter()
            time.sleep(0.3)  # a job left running would end now
            assert len(spans) == 1 and spans[0][1] <= raised
            count = setter(1)
            assert count == 2
        finally:
            setter(before)
        monkeypatch.undo()
        want = sequential_density(model, X, cfg, np.random.default_rng(75))
        got = log_density_batch(model, X, mode="unbiased", cfg=cfg, rng=np.random.default_rng(75))
        assert_same_bits(got, want)

    def test_exact_mode_and_biased_training_hand_the_worker_nothing(self, monkeypatch):
        """Exact mode and biased training run on the caller; unbiased training
        hands the worker each block's series once a step.  Every ``submit`` of
        a ``blocks.series_worker`` scope goes through ``blocks._submit``, so
        the count holds whatever name a module imports the scope under."""
        import resflow.blocks as blocks
        from resflow.config import TrainConfig
        from resflow.train import init_train_state, train_step

        handed, real = [], blocks._submit

        def counted(fn, jobs):
            handed.append(fn)
            return real(fn, jobs)

        monkeypatch.setattr(blocks, "_submit", counted)
        log_density_batch(data_model(3), np.zeros((4, 2)), mode="exact")
        for kind in ("biased", "unbiased"):
            state = init_train_state(TrainConfig(blocks=2, hidden=8, batch_size=64, eval_every=1000,
                                                 checkpoint_every=0, estimator_kind=kind))
            train_step(state, state.dataset.sample(64))
            assert len(handed) == (2 if kind == "unbiased" else 0)

"""Optimizer and parameter-averaging unit tests."""

import numpy as np
import pytest

from resflow.optim import AdamW, PolyakAverage


class TestAdamW:
    def test_zero_lr_pure_decoupled_decay(self):
        opt = AdamW(size=4, lr=0.0, weight_decay=0.01)
        p = np.array([1.0, -2.0, 0.5, 3.0])
        g = np.array([5.0, -1.0, 0.0, 2.0])
        p1 = opt.step(p, g)
        np.testing.assert_allclose(p1, p * (1 - 0.01), rtol=1e-15)
        p2 = opt.step(p1, g)
        np.testing.assert_allclose(p2, p * (1 - 0.01) ** 2, rtol=1e-15)

    def test_zero_decay_matches_plain_adam_reference(self):
        lr, b1, b2, eps = 1e-2, 0.9, 0.99, 1e-8
        opt = AdamW(size=3, lr=lr, beta1=b1, beta2=b2, eps=eps, weight_decay=0.0)
        rng = np.random.default_rng(0)
        p = rng.standard_normal(3)
        m = np.zeros(3)
        v = np.zeros(3)
        for t in range(1, 8):
            g = rng.standard_normal(3)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            ref = p - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
            p_new = opt.step(p, g)
            np.testing.assert_allclose(p_new, ref, rtol=1e-14)
            p = p_new

    def test_first_step_size_is_lr(self):
        opt = AdamW(size=2, lr=1e-3)
        p = np.zeros(2)
        g = np.array([1e-4, -3.0])
        p1 = opt.step(p, g)
        np.testing.assert_allclose(np.abs(p1), 1e-3, rtol=1e-4)

    def test_decay_applies_alongside_gradient_step(self):
        opt = AdamW(size=1, lr=1e-3, weight_decay=0.1)
        p = np.array([2.0])
        g = np.array([0.0])
        p1 = opt.step(p, g)
        # zero gradient: only decay acts
        np.testing.assert_allclose(p1, p * 0.9, rtol=1e-14)

    def test_in_place_update_matches_the_textbook_expressions_bit_for_bit(self):
        lr, b1, b2, eps, wd = 3e-3, 0.9, 0.99, 1e-8, 1e-4
        opt = AdamW(size=50, lr=lr, beta1=b1, beta2=b2, eps=eps, weight_decay=wd)
        polyak = PolyakAverage(decay=0.97)
        m_buf, v_buf = opt.m, opt.v
        rng = np.random.default_rng(2)
        p = rng.standard_normal(50)
        m, v, shadow = np.zeros(50), np.zeros(50), np.zeros(50)
        for t in range(1, 6):
            g = rng.standard_normal(50) * 10.0 ** rng.integers(-6, 3, size=50)
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            m_hat, v_hat = m / (1.0 - b1**t), v / (1.0 - b2**t)
            ref = p - lr * m_hat / (np.sqrt(v_hat) + eps) - wd * p
            got = opt.step(p, g)
            assert not np.shares_memory(got, p) and not np.shares_memory(got, opt.m)
            for a, b in ((got, ref), (opt.m, m), (opt.v, v)):
                np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))
            shadow = 0.97 * shadow + (1.0 - 0.97) * got
            polyak.update(got)
            np.testing.assert_array_equal(polyak.shadow.view(np.int64), shadow.view(np.int64))
            p = got
        assert opt.m is m_buf and opt.v is v_buf

    def test_hyperparameter_validation(self):
        with pytest.raises(ValueError):
            AdamW(size=1, lr=-1.0)
        with pytest.raises(ValueError):
            AdamW(size=1, beta1=1.0)


class TestPolyak:
    def test_shadow_is_decay_weighted_average(self):
        decay = 0.9
        polyak = PolyakAverage(decay=decay)
        rng = np.random.default_rng(1)
        trajectory = [rng.standard_normal(5) for _ in range(10)]
        for p in trajectory:
            polyak.update(p)
        # reconstruct: normalized sum of decay^(T-t) (1-decay) theta_t
        weights = np.array([(1 - decay) * decay ** (9 - t) for t in range(10)])
        weights /= weights.sum()
        expected = sum(w * p for w, p in zip(weights, trajectory))
        np.testing.assert_allclose(polyak.average(), expected, atol=1e-10)

    def test_weights_sum_to_one(self):
        polyak = PolyakAverage(decay=0.999)
        for _ in range(50):
            polyak.update(np.ones(3))
        np.testing.assert_allclose(polyak.average(), 1.0, rtol=1e-12)

    def test_fallback_before_any_update(self):
        polyak = PolyakAverage(decay=0.999)
        fallback = np.array([1.0, 2.0])
        np.testing.assert_array_equal(polyak.average(fallback=fallback), fallback)
        with pytest.raises(ValueError):
            PolyakAverage(decay=0.5).average()

    def test_identical_updates_fixed_point(self):
        polyak = PolyakAverage(decay=0.99)
        p = np.array([3.0, -1.0])
        for _ in range(5):
            polyak.update(p)
        np.testing.assert_allclose(polyak.average(), p, rtol=1e-12)

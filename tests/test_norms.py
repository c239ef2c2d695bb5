"""Induced norms, power iteration, and the Lipschitz constraint."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resflow.blocks import BlockGrads, BlockParams, LayerParams, block_forward
from resflow.errors import NormalizationError, ShapeError
from resflow.norms import (
    CERTIFY_TOL,
    apply_lipschitz_constraint,
    checkpoint_constraint,
    cold_start_vector,
    empirical_lipschitz,
    exact_induced_norm,
    init_block_params,
    lipschitz_constraint_vjp,
    spectral_power_iteration,
    vector_norm,
)


class TestExactInducedNorm:
    def test_worked_example(self):
        W = np.array([[1.0, -2.0], [3.0, 0.5]])
        assert exact_induced_norm(W, np.inf) == pytest.approx(3.5)
        assert exact_induced_norm(W, 1.0) == pytest.approx(4.0)

    def test_identity_and_zero(self):
        eye = np.eye(3)
        assert exact_induced_norm(eye, 1.0) == 1.0
        assert exact_induced_norm(eye, np.inf) == 1.0
        assert exact_induced_norm(np.zeros((4, 2)), 1.0) == 0.0
        assert exact_induced_norm(np.zeros((4, 2)), np.inf) == 0.0

    def test_rejects_other_orders(self):
        with pytest.raises(ValueError):
            exact_induced_norm(np.eye(2), 2.0)

    @pytest.mark.parametrize("p", [1.0, np.inf])
    def test_upper_bounds_empirical_supremum(self, p):
        rng = np.random.default_rng(3)
        W = rng.standard_normal((4, 3))
        exact = exact_induced_norm(W, p)
        x = rng.standard_normal((20_000, 3))
        ratios = vector_norm(x @ W.T, p) / vector_norm(x, p)
        emp = float(ratios.max())
        assert emp <= exact + 1e-9
        assert emp >= 0.95 * exact  # the sup is approached

    @given(st.floats(-5, 5), st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_absolute_homogeneity(self, c, seed):
        W = np.random.default_rng(seed).standard_normal((3, 3))
        for p in (1.0, np.inf):
            assert exact_induced_norm(c * W, p) == pytest.approx(
                abs(c) * exact_induced_norm(W, p), rel=1e-12, abs=1e-12
            )


class TestPowerIteration:
    def test_diagonal_matrix(self):
        est, _, _ = spectral_power_iteration(np.diag([0.9, 0.3]), tol=1e-10, max_iters=500)
        assert est == pytest.approx(0.9, abs=1e-8)

    def test_identity(self):
        est, _, _ = spectral_power_iteration(np.eye(5), tol=1e-10, max_iters=500)
        assert est == pytest.approx(1.0, rel=1e-9)

    def test_zero_matrix_short_circuits(self):
        est, u, iters = spectral_power_iteration(np.zeros((3, 3)), tol=1e-10, max_iters=500)
        assert est == 0.0
        assert iters == 0
        np.testing.assert_array_equal(u, cold_start_vector((3, 3)))

    def test_warm_vector_in_nullspace_is_an_error(self):
        # the iteration no longer restarts; a zero estimate of a nonzero weight is refused
        lay = LayerParams(
            weight=np.diag([0.5, 0.0]),
            bias=np.zeros(2),
            raw_beta=None,
            pi_u=np.array([0.0, 1.0]),
            pi_estimate=0.5,
        )
        est, _, iters = spectral_power_iteration(lay.weight, lay.pi_u, lay.pi_estimate)
        assert (est, iters) == (0.0, 1)
        with pytest.raises(NormalizationError, match="zero for a nonzero"):
            apply_lipschitz_constraint(BlockParams(layers=[lay]), 0.98)

    def test_matches_svd_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            W = rng.standard_normal((5, 5))
            est, _, _ = spectral_power_iteration(W, tol=1e-12, max_iters=5000)
            top = np.linalg.svd(W, compute_uv=False)[0]
            assert est == pytest.approx(top, rel=1e-6)
            assert est <= top + 1e-9  # lower-bound semantics

    def test_warm_start_deterministic(self):
        rng = np.random.default_rng(13)
        W = rng.standard_normal((6, 6))
        est1, u1, _ = spectral_power_iteration(W, tol=1e-10, max_iters=500)
        est_a, u_a, _ = spectral_power_iteration(W, u1.copy(), est1, tol=1e-10)
        est_b, u_b, _ = spectral_power_iteration(W, u1.copy(), est1, tol=1e-10)
        assert est_a == est_b
        np.testing.assert_array_equal(u_a, u_b)

    def test_unchanged_matrix_converges_in_one_iteration(self):
        rng = np.random.default_rng(14)
        W = rng.standard_normal((6, 6))
        est1, u1, _ = spectral_power_iteration(W, tol=1e-3, max_iters=200)
        _, _, iters = spectral_power_iteration(W, u1, est1, tol=1e-3)
        assert iters <= 1

    def test_warm_start_beats_cold_after_tiny_update(self):
        rng = np.random.default_rng(15)
        W = rng.standard_normal((8, 8))
        est, u, _ = spectral_power_iteration(W, tol=1e-9, max_iters=500)
        W2 = W + 1e-6 * rng.standard_normal((8, 8))
        _, _, warm = spectral_power_iteration(W2, u, est, tol=1e-9, max_iters_warm=500)
        _, _, cold = spectral_power_iteration(W2, tol=1e-9, max_iters=500)
        assert warm < cold


class TestConstraint:
    def test_rescaling_hits_coefficient(self):
        rng = np.random.default_rng(21)
        params = init_block_params(rng, 2, hidden=16, init_norm_fraction=2.5)
        norms = checkpoint_constraint(params, 0.98)
        for n, lay in zip(norms, params.layers):
            assert n == pytest.approx(0.98, rel=1e-6)
            top = np.linalg.svd(lay.weight, compute_uv=False)[0]
            assert top <= 0.98 * (1 + 1e-3)

    def test_small_weights_untouched(self):
        rng = np.random.default_rng(22)
        params = init_block_params(rng, 2, hidden=8, init_norm_fraction=0.5)
        before = [lay.weight.copy() for lay in params.layers]
        apply_lipschitz_constraint(params, 0.98)
        for b, lay in zip(before, params.layers):
            np.testing.assert_array_equal(b, lay.weight)

    def test_warm_restart_on_unchanged_free_matrix_takes_one_iteration(self):
        # after a rescale pi_estimate is coeff; the stopping test must start
        # from the norm the free matrix had, pi_estimate * pi_scale
        rng = np.random.default_rng(24)
        params = init_block_params(rng, 2, hidden=16, init_norm_fraction=2.5)
        free = [lay.weight.copy() for lay in params.layers]
        apply_lipschitz_constraint(params, 0.98)
        assert all(lay.pi_scale > 1.0 for lay in params.layers)
        for lay, weight in zip(params.layers, free):
            lay.weight[...] = weight
        apply_lipschitz_constraint(params, 0.98)
        assert [lay.pi_iters_used for lay in params.layers] == [1, 1, 1]

    def test_scaling_linearity(self):
        rng = np.random.default_rng(23)
        params = init_block_params(rng, 2, hidden=8, init_norm_fraction=1.0)
        params.layers[0].weight *= 2.0 / 0.98  # spectral norm exactly 2
        norms = checkpoint_constraint(params, 0.98)
        assert norms[0] == pytest.approx(0.98, rel=1e-6)

    def test_rejects_bad_coefficient(self):
        params = init_block_params(np.random.default_rng(0), 2, hidden=4)
        with pytest.raises(ValueError):
            apply_lipschitz_constraint(params, 1.5)

    def test_empirical_lipschitz_below_norm_product(self):
        rng = np.random.default_rng(24)
        params = init_block_params(rng, 2, hidden=32, init_norm_fraction=1.4)
        norms = checkpoint_constraint(params, 0.98)
        bound = float(np.prod(norms))
        emp = empirical_lipschitz(params, np.random.default_rng(25), n_pairs=10_000)
        assert emp <= bound + 1e-9
        assert bound <= 0.98**3 + 1e-9

    def test_exact_preset_constraint_is_exact(self):
        rng = np.random.default_rng(26)
        params = init_block_params(
            rng, 2, hidden=16, norm_preset="inf", init_norm_fraction=1.8
        )
        norms = checkpoint_constraint(params, 0.98)
        for n, lay in zip(norms, params.layers):
            assert exact_induced_norm(lay.weight, np.inf) <= 0.98 + 1e-15
            assert n <= 0.98 + 1e-15

    def test_unsupported_norm_orders_rejected(self):
        # a block at p = 3 would otherwise be measured as spectral
        params = init_block_params(np.random.default_rng(27), 2, hidden=4)
        params.norm = 3.0
        with pytest.raises(ShapeError, match="norm orders: p = 3.0"):
            apply_lipschitz_constraint(params, 0.98)

    @pytest.mark.parametrize("preset", ["spectral", "inf", "one"])
    def test_certification_refuses_weight_scaled_after_constraint(self, preset):
        params = init_block_params(
            np.random.default_rng(29), 2, hidden=16, norm_preset=preset, init_norm_fraction=1.5
        )
        constrain = apply_lipschitz_constraint

        def constrain_then_scale(block, *args, **kwargs):
            reported = constrain(block, *args, **kwargs)
            block.layers[1].weight *= 1.01
            return reported

        with mock.patch("resflow.norms.apply_lipschitz_constraint", constrain_then_scale):
            with pytest.raises(NormalizationError, match="layer 1: exact induced norm"):
                checkpoint_constraint(params, 0.98)

    @pytest.mark.parametrize("preset", ["spectral", "inf", "one"])
    def test_constrained_models_certify(self, preset):
        for seed in range(5):
            params = init_block_params(
                np.random.default_rng(seed), 2, hidden=64, norm_preset=preset,
                init_norm_fraction=1.5,
            )
            checkpoint_constraint(params, 0.98)  # raises on a violation
            for lay in params.layers:
                if preset == "spectral":
                    exact = np.linalg.norm(lay.weight, 2)
                else:
                    exact = exact_induced_norm(lay.weight, params.norm)
                assert exact <= 0.98 * (1 + CERTIFY_TOL)

    def test_zero_estimate_for_nonzero_matrix_is_an_error(self):
        params = init_block_params(np.random.default_rng(28), 2, hidden=4)
        # sabotage the cached state so the estimate would be zero
        lay = params.layers[0]
        lay.weight[...] = 0.0
        lay.weight[0, 0] = 1e-300  # denormal-ish but nonzero
        with pytest.raises(NormalizationError):
            # force an impossible situation via a doctored norm function
            with mock.patch("resflow.norms.induced_norm_for_layer", return_value=0.0):
                apply_lipschitz_constraint(params, 0.98)


class TestConstraintGradient:
    """Chain rule through ``W = V / max(1, ||V|| / coeff)``.

    The loss is ``sum_l <R_l, W_l(V)>``, so ``R`` is the weight gradient
    and the VJP must match central differences of the constrained weights.
    """

    COEFF = 0.9

    def constrained(self, block):
        block = block.copy()
        apply_lipschitz_constraint(
            block, self.COEFF, tol=1e-15, max_iters=5000, max_iters_warm=5000
        )
        return block

    def loss(self, block, R):
        return sum(np.vdot(r, lay.weight) for r, lay in zip(R, self.constrained(block).layers))

    def weight_grads(self, block, R):
        grads = BlockGrads(block)
        for g, r in zip(grads.layers, R):
            g.weight[...] = r
        return grads

    @pytest.mark.parametrize("preset", ["spectral", "inf", "one"])
    def test_vjp_matches_finite_differences(self, preset):
        rng = np.random.default_rng(3)
        V = init_block_params(
            rng, 2, hidden=5, coeff=self.COEFF, norm_preset=preset, init_norm_fraction=1.6
        )
        for lay in V.layers:
            assert np.min(np.abs(lay.weight)) > 1e-4  # no sign flips under FD steps
            if preset != "spectral":
                sums = np.sort(np.abs(lay.weight).sum(axis=1 if preset == "inf" else 0))
                assert len(sums) == 1 or sums[-1] - sums[-2] > 1e-3  # unique argmax
        R = [rng.standard_normal(lay.weight.shape) for lay in V.layers]
        block = self.constrained(V)
        assert all(lay.pi_scale == pytest.approx(1.6) for lay in block.layers)
        grads = lipschitz_constraint_vjp(block, self.weight_grads(block, R))
        h = 1e-6
        for l, lay in enumerate(V.layers):
            fd = np.zeros_like(lay.weight)
            for idx in np.ndindex(lay.weight.shape):
                plus, minus = V.copy(), V.copy()
                plus.layers[l].weight[idx] += h
                minus.layers[l].weight[idx] -= h
                fd[idx] = (self.loss(plus, R) - self.loss(minus, R)) / (2 * h)
            np.testing.assert_allclose(grads.layers[l].weight, fd, atol=1e-7)

    def test_unconstrained_layers_pass_gradient_through(self):
        rng = np.random.default_rng(4)
        block = init_block_params(rng, 2, hidden=5, coeff=self.COEFF, init_norm_fraction=0.7)
        apply_lipschitz_constraint(block, self.COEFF)
        R = [rng.standard_normal(lay.weight.shape) for lay in block.layers]
        grads = lipschitz_constraint_vjp(block, self.weight_grads(block, R))
        for g, r in zip(grads.layers, R):
            np.testing.assert_array_equal(g.weight, r)


class TestPresetsAndInit:
    def test_presets(self):
        for preset, p in (("spectral", 2.0), ("inf", np.inf), ("one", 1.0)):
            assert init_block_params(np.random.default_rng(30), 2, hidden=4, norm_preset=preset).norm == p
        with pytest.raises(ValueError):
            init_block_params(np.random.default_rng(30), 2, hidden=4, norm_preset="fro")

    def test_init_norm_fraction(self):
        for preset in ("spectral", "inf", "one"):
            params = init_block_params(
                np.random.default_rng(31), 2, hidden=12, norm_preset=preset
            )
            p = params.norm
            for lay in params.layers:
                if p == 2.0:
                    n = np.linalg.svd(lay.weight, compute_uv=False)[0]
                else:
                    n = exact_induced_norm(lay.weight, p)
                assert n == pytest.approx(0.7 * 0.98, rel=1e-6)

    def test_beta_initialization(self):
        params = init_block_params(np.random.default_rng(32), 2, hidden=4)
        for lay in params.layers[:-1]:
            assert lay.beta == pytest.approx(0.5, rel=1e-9)
        assert params.layers[-1].raw_beta is None

    def test_cold_start_vector_is_unit_norm_and_deterministic(self):
        u1 = cold_start_vector((5, 7))
        u2 = cold_start_vector((5, 7))
        np.testing.assert_array_equal(u1, u2)
        assert vector_norm(u1, 2.0) == pytest.approx(1.0, rel=1e-12)

    def test_lipschitz_of_forward_map_respects_bound(self):
        rng = np.random.default_rng(33)
        params = init_block_params(rng, 2, hidden=24, init_norm_fraction=1.2)
        norms = checkpoint_constraint(params, 0.9)
        emp = empirical_lipschitz(params, np.random.default_rng(34), n_pairs=5000)
        assert emp <= float(np.prod(norms)) + 1e-9


def test_block_forward_unchanged_by_noop_constraint():
    rng = np.random.default_rng(41)
    params = init_block_params(rng, 2, hidden=8)
    x = rng.standard_normal((10, 2))
    before = block_forward(params, x)
    apply_lipschitz_constraint(params, 0.98)
    np.testing.assert_array_equal(before, block_forward(params, x))

"""Log-determinant estimators against exact small-dimension oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resflow.blocks import BlockParams, LayerParams, grads_vector, param_vector, set_param_vector
from resflow.errors import ContractivityError, GuardError
from resflow.instrument import StorageMeter
from resflow.logdet import (
    EstimatorConfig,
    RouletteDist,
    biased_logdet_batch,
    biased_logdet_exact_trace_rows,
    biased_value_and_grad_rows,
    exact_logdet,
    exact_series_logdet,
    exact_value_and_grad_rows,
    naive_series_grad,
    neumann_grad_exact_trace,
    neumann_grad_samples,
    neumann_logdet_grad,
    roulette_logdet_batch,
    roulette_logdet_rows,
    roulette_value_and_neumann_grad_rows,
)
from resflow.norms import init_block_params


def linear_block(A):
    A = np.asarray(A, dtype=np.float64)
    return BlockParams(layers=[LayerParams(weight=A, bias=np.zeros(A.shape[0]), raw_beta=None)])


def zero_block():
    return linear_block(np.zeros((2, 2)))


def mlp_block(seed=0, hidden=8, frac=0.7):
    return init_block_params(
        np.random.default_rng(seed), 2, hidden=hidden, init_norm_fraction=frac
    )


X0 = np.array([0.4, -0.2])


class FixedProbe:
    """Generator stand-in whose next Gaussian probe is given."""

    def __init__(self, v):
        self.v = np.asarray(v, dtype=np.float64)

    def standard_normal(self, shape):
        return self.v.reshape(shape).copy()


class TestRouletteDist:
    def test_survival_function(self):
        dist = RouletteDist(q=0.5)
        np.testing.assert_allclose(dist.survival(np.array([1, 2, 3])), [1.0, 0.5, 0.25])

    def test_full_support(self):
        dist = RouletteDist(q=0.5)
        draws = dist.sample(np.random.default_rng(0), size=100_000)
        assert draws.min() >= 1
        assert draws.max() > 10  # deep tail reached

    def test_expected_terms(self):
        assert RouletteDist(q=0.5, n_exact=2).expected_terms() == 4.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RouletteDist(q=0.0)
        with pytest.raises(ValueError):
            RouletteDist(n_exact=-1)


class TestExactOracles:
    def test_zero_jacobian(self):
        assert exact_logdet(zero_block(), X0) == 0.0
        assert exact_series_logdet(zero_block(), X0) == 0.0

    def test_linear_diagonal(self):
        params = linear_block(np.diag([0.5, 0.5]))
        assert exact_logdet(params, X0) == pytest.approx(2 * np.log(1.5), rel=1e-12)

    def test_scalar_mercator_series(self):
        params = linear_block(np.array([[0.5]]))
        val = exact_series_logdet(params, np.zeros(1))
        assert val == pytest.approx(np.log(1.5), abs=1e-11)

    def test_oracles_agree(self):
        for seed in range(5):
            params = mlp_block(seed=seed)
            x = np.random.default_rng(seed + 100).standard_normal(2)
            a = exact_logdet(params, x)
            b = exact_series_logdet(params, x, tol=1e-12)
            assert a == pytest.approx(b, abs=1e-10)

    def test_series_diverges_for_expansive_map(self):
        params = linear_block(np.diag([1.5, 0.2]))
        with pytest.raises(ContractivityError):
            exact_series_logdet(params, X0, max_terms=500)

    def test_batched_exact(self):
        from resflow.blocks import block_forward_cache

        params = mlp_block(seed=7)
        X = np.random.default_rng(8).standard_normal((6, 2))
        batched = exact_logdet(params, X)
        rows = np.array([exact_logdet(params, x) for x in X])
        np.testing.assert_allclose(batched, rows, rtol=1e-12)
        # the exact training route's values, from its own forward or a given
        # cache, are these bit for bit, and it reports no series terms
        for cache in (None, block_forward_cache(params, X)[1]):
            values, terms, _, _ = exact_value_and_grad_rows(params, X, cache=cache)
            np.testing.assert_array_equal(values.view(np.int64), batched.view(np.int64))
            np.testing.assert_array_equal(terms, np.zeros(6, dtype=np.int64))


class TestExactTrainingRoute:
    """The dense oracle in the training routes' contract."""

    def test_out_cot_adds_the_pathwise_gradient(self):
        from resflow.blocks import block_param_grad_of_output

        params = mlp_block(seed=9, hidden=6, frac=1.2)
        rng = np.random.default_rng(10)
        X, u = rng.standard_normal((5, 2)), rng.standard_normal((5, 2))
        values, _, g, ig = exact_value_and_grad_rows(params, X)
        values_u, _, g_u, ig_u = exact_value_and_grad_rows(params, X, out_cot=u)
        g_path, vjp = block_param_grad_of_output(params, X, u)
        np.testing.assert_array_equal(values_u, values)
        np.testing.assert_allclose(
            grads_vector(g_u), grads_vector(g) + grads_vector(g_path), rtol=1e-12, atol=1e-12
        )
        np.testing.assert_allclose(ig_u, ig + vjp, rtol=1e-12, atol=1e-12)


class TestBiasedTruncated:
    def test_exact_traces_converge_with_many_terms(self):
        params = mlp_block(seed=1)
        value = biased_logdet_exact_trace_rows(params, X0, 200)[0]
        assert value == pytest.approx(exact_logdet(params, X0), abs=1e-10)

    def test_hand_computed_linear_sum(self):
        a = 0.5
        params = linear_block(np.diag([a, a]))
        cfg = EstimatorConfig(n_fixed=3, n_hutchinson=1)
        vals, terms = biased_logdet_batch(params, X0, cfg, np.random.default_rng(3), 1)
        v = np.random.default_rng(3).standard_normal(2)  # the one probe drawn
        expected = sum(
            (-1.0) ** (k + 1) / k * (a**k) * float(v @ v) for k in (1, 2, 3)
        )
        assert vals[0] == pytest.approx(expected, rel=1e-12)
        assert terms[0] == 3

    def test_deterministic_given_seed(self):
        params = mlp_block(seed=2)
        cfg = EstimatorConfig(n_fixed=5)
        v1, _ = biased_logdet_batch(params, X0, cfg, np.random.default_rng(42), 3)
        v2, _ = biased_logdet_batch(params, X0, cfg, np.random.default_rng(42), 3)
        np.testing.assert_array_equal(v1, v2)

    def test_bias_grows_with_contraction(self):
        # matched linear blocks: J = c * I, truncation at 5 terms
        cfg = EstimatorConfig(n_fixed=5)
        biases = {}
        for c in (0.5, 0.98):
            params = linear_block(np.diag([c, c]))
            vals, _ = biased_logdet_batch(params, X0, cfg, np.random.default_rng(9), 50_000)
            biases[c] = abs(vals.mean() - exact_logdet(params, X0))
        assert biases[0.98] > 5 * biases[0.5]


class TestRouletteLogdet:
    def test_zero_branch_gives_exact_zero(self):
        cfg = EstimatorConfig()
        vals, _ = roulette_logdet_batch(zero_block(), X0, cfg, np.random.default_rng(0), 20)
        np.testing.assert_array_equal(vals, 0.0)

    def test_minimum_terms(self):
        cfg = EstimatorConfig()
        _, terms = roulette_logdet_batch(mlp_block(seed=3), X0, cfg, np.random.default_rng(1), 50)
        assert terms.min() >= cfg.roulette.n_exact + 1

    def test_unbiased_linear_block(self):
        params = linear_block(np.diag([0.5, 0.5]))
        cfg = EstimatorConfig()
        vals, terms = roulette_logdet_batch(params, X0, cfg, np.random.default_rng(5), 100_000)
        exact = 2 * np.log(1.5)
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - exact) < 3 * se

    def test_work_distribution(self):
        params = mlp_block(seed=4)
        cfg = EstimatorConfig()
        _, terms = roulette_logdet_batch(params, X0, cfg, np.random.default_rng(6), 100_000)
        assert terms.mean() == pytest.approx(4.0, abs=0.05)

    def test_single_call_matches_batch_distribution(self):
        params = mlp_block(seed=5)
        cfg = EstimatorConfig()
        # the rows route forwards every copy of the point; the batch route
        # shares one forward cache between all draws
        rows = np.tile(X0, (4000, 1))
        series, _, _ = roulette_logdet_rows(params, rows, cfg, np.random.default_rng(7))
        singles = series()
        batch, _ = roulette_logdet_batch(params, X0, cfg, np.random.default_rng(8), 4000)
        # same estimator, independent streams: means within joint 4 SE
        se = np.sqrt(singles.var(ddof=1) / 4000 + batch.var(ddof=1) / 4000)
        assert abs(singles.mean() - batch.mean()) < 4 * se

    def test_rows_variant_matches_exact_in_expectation(self):
        params = mlp_block(seed=6)
        X = np.random.default_rng(9).standard_normal((5, 2))
        cfg = EstimatorConfig()
        rng = np.random.default_rng(10)
        acc = np.zeros(5)
        M = 4000
        for _ in range(M):
            series, _, _ = roulette_logdet_rows(params, X, cfg, rng)
            acc += series()
        exact = exact_logdet(params, X)
        np.testing.assert_allclose(acc / M, exact, atol=0.05)

    def test_multi_probe_averaging_reduces_variance(self):
        params = mlp_block(seed=12, frac=1.2)
        single = EstimatorConfig(n_hutchinson=1)
        multi = EstimatorConfig(n_hutchinson=4)
        v1, _ = roulette_logdet_batch(params, X0, single, np.random.default_rng(0), 20_000)
        v4, t4 = roulette_logdet_batch(params, X0, multi, np.random.default_rng(1), 20_000)
        assert v4.var() < v1.var()
        assert t4.mean() == pytest.approx(16.0, abs=0.5)  # 4 probes x ~4 terms
        # both center on the same value
        se = np.sqrt(v1.var() / 20_000 + v4.var() / 20_000)
        assert abs(v1.mean() - v4.mean()) < 4 * se


class TestNeumannGradient:
    def test_zero_branch_bias_gradient_is_zero(self):
        # log det depends on biases only through J; with J = 0 the bias
        # gradient vanishes sample by sample (weights do not: the
        # resolvent at J = 0 is the identity)
        cfg = EstimatorConfig()
        rng = np.random.default_rng(0)
        for _ in range(10):
            g = neumann_logdet_grad(zero_block(), X0, cfg, rng)[0]
            np.testing.assert_array_equal(g.layers[0].bias, 0.0)
        exact = exact_value_and_grad_rows(zero_block(), X0)[2]
        np.testing.assert_allclose(exact.layers[0].weight, np.eye(2), atol=1e-12)

    def test_zero_mlp_branch_gradient_is_zero_samplewise(self):
        params = mlp_block(seed=0)
        for lay in params.layers:
            lay.weight[...] = 0.0
            lay.bias[...] = 0.0
        cfg = EstimatorConfig()
        rng = np.random.default_rng(1)
        for _ in range(5):
            g = neumann_logdet_grad(params, X0, cfg, rng)[0]
            np.testing.assert_array_equal(grads_vector(g), 0.0)

    def test_linear_diagonal_closed_form(self):
        a = 0.5
        params = linear_block(np.diag([a, a]))
        cfg = EstimatorConfig()
        rng = np.random.default_rng(1)
        acc = None
        M = 20_000
        for _ in range(M):
            g = grads_vector(neumann_logdet_grad(params, X0, cfg, rng)[0])
            acc = g if acc is None else acc + g
        mean = acc / M
        # d/dA log det(I+A) = (I+A)^{-T}; diagonal entries 1/(1+a), off-diagonal 0
        w_mean = mean[:4].reshape(2, 2)
        np.testing.assert_allclose(np.diag(w_mean), 1 / (1 + a), atol=0.02)
        assert abs(w_mean[0, 1]) < 0.02 and abs(w_mean[1, 0]) < 0.02
        # the shared-diagonal scalar derivative: 2/(1+a)
        assert np.trace(w_mean) == pytest.approx(2 / (1 + a), abs=0.03)

    def test_unbiased_against_exact_gradient(self):
        params = mlp_block(seed=2, hidden=6)
        cfg = EstimatorConfig()
        mean, se, terms = neumann_grad_samples(params, X0, cfg, np.random.default_rng(2), 60_000)
        exact = grads_vector(exact_value_and_grad_rows(params, X0)[2])
        z = np.where(se > 0, (mean - exact) / np.where(se > 0, se, 1.0), np.abs(mean - exact))
        assert np.max(np.abs(z)) < 4.0
        assert terms == pytest.approx(4.0, abs=0.1)

    def test_exact_trace_equality_with_naive_series(self):
        params = mlp_block(seed=3, hidden=6)
        for n in (1, 5, 12):
            (g_naive, ig_naive), (g_neumann, ig_neumann) = (
                oracle(params, X0, n) for oracle in (naive_series_grad, neumann_grad_exact_trace)
            )
            np.testing.assert_allclose(grads_vector(g_naive), grads_vector(g_neumann), rtol=1e-10, atol=1e-14)
            np.testing.assert_allclose(ig_naive, ig_neumann, rtol=1e-10, atol=1e-14)

    def test_input_gradient_unbiased(self):
        params = mlp_block(seed=4, hidden=6)
        M = 30_000
        # one call averaging M probe/truncation draws, each one sample of the estimator
        cfg = EstimatorConfig(n_hutchinson=M)
        _, ig = neumann_logdet_grad(params, X0, cfg, np.random.default_rng(3))
        h = 1e-5
        fd = np.array(
            [
                (exact_logdet(params, X0 + h * e) - exact_logdet(params, X0 - h * e)) / (2 * h)
                for e in np.eye(2)
            ]
        )
        # the gradient is about (6.3e-4, -1.8e-4) and the estimate's standard
        # error at this M about (1.7e-5, 5e-6): the bound is four of the larger
        np.testing.assert_allclose(ig, fd, rtol=0, atol=7e-5)
        # the exact route's input gradient has only the differences' error
        np.testing.assert_allclose(exact_value_and_grad_rows(params, X0)[3][0], fd, rtol=0, atol=1e-9)


class TestNaiveSeriesGradient:
    def test_first_term_is_trace_gradient(self):
        params = mlp_block(seed=5, hidden=6)
        g1 = grads_vector(naive_series_grad(params, X0, 1)[0])
        g2 = grads_vector(neumann_grad_exact_trace(params, X0, 1)[0])
        np.testing.assert_allclose(g1, g2, rtol=1e-12)

    def test_linear_diagonal_matches_truncated_series(self):
        a = 0.4
        params = linear_block(np.diag([a, a]))
        n = 6
        g = naive_series_grad(params, X0, n)[0].layers[0].weight
        # d/dA_ii of sum_k (-1)^(k+1)/k tr(A^k) = sum_k (-1)^(k+1) a^(k-1)
        expected = sum((-1.0) ** (k + 1) * a ** (k - 1) for k in range(1, n + 1))
        np.testing.assert_allclose(np.diag(g), expected, rtol=1e-12)

    def test_converged_matches_fd_of_exact_logdet(self):
        params = mlp_block(seed=6, hidden=6, frac=0.5)
        g = grads_vector(naive_series_grad(params, X0, 20)[0])
        vec = param_vector(params)
        fd = np.zeros_like(vec)
        for i in range(vec.size):
            e = np.zeros_like(vec)
            e[i] = 1e-5
            plus, minus = params.copy(), params.copy()
            set_param_vector(plus, vec + e)
            set_param_vector(minus, vec - e)
            fd[i] = (exact_logdet(plus, X0) - exact_logdet(minus, X0)) / 2e-5
        np.testing.assert_allclose(g, fd, atol=1e-6)

    def test_term_guard(self):
        with pytest.raises(GuardError):
            naive_series_grad(mlp_block(), X0, 21)
        with pytest.raises(GuardError):
            naive_series_grad(mlp_block(), X0, 0)


class TestStorageContract:
    def test_neumann_storage_constant_in_truncation(self):
        params = mlp_block(seed=7)
        cfg = EstimatorConfig()
        peaks = []
        for n in (1, 5, 20, 100):
            meter = StorageMeter()
            neumann_logdet_grad(params, X0, cfg, np.random.default_rng(0), force_n=n, meter=meter)
            peaks.append(meter.peak)
        assert len(set(peaks)) == 1

    def test_naive_storage_linear_in_truncation(self):
        params = mlp_block(seed=8)
        peaks = {}
        for n in (1, 5, 10, 20):
            meter = StorageMeter()
            naive_series_grad(params, X0, n, meter=meter)
            peaks[n] = meter.peak
        # two chains retained per extra term
        assert peaks[5] - peaks[1] == 2 * 4
        assert peaks[10] - peaks[5] == 2 * 5
        assert peaks[20] - peaks[10] == 2 * 10

    def test_training_routes_traced_bytes(self):
        """tracemalloc peak of one warmed call of each training route, 512 rows,
        hidden 128, every row's truncation K forced to N (``n_exact = N - 1``
        with a tail of one term almost surely, or ``n_fixed = N``).

        One chain vector per row is ``per_term`` bytes.  The Neumann route
        holds no per-term array, so its peak moves by less than one chain
        vector from N = 2 to 32 (9.81 MiB at each, measured), and so does the
        peak of its series alone, the part training runs on the series
        worker (1.19 -> 1.42 MiB when it keeps every term's chain output):
        the reverse pass's (rows, hidden) temporaries set the route's peak,
        so a series that held its terms only while it ran would not show
        there.  The biased route keeps both chains of every term, over 60
        chain vectors more at N = 32 (10.12 -> 10.59 MiB), of which the bound
        asks for half.
        """
        import tracemalloc

        from resflow.blocks import block_forward_cache
        from resflow.logdet import neumann_series_rows

        params = mlp_block(seed=19, hidden=128, frac=1.0)
        X = np.random.default_rng(20).standard_normal((512, 2))
        per_term, cache = X.nbytes, block_forward_cache(params, X)[1]

        def peak(call):
            call()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                call()
                return tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()

        ns, routes = (2, 8, 32), (roulette_value_and_neumann_grad_rows, biased_value_and_grad_rows)
        neumann, biased, series = [], [], []
        for n in ns:
            cfg = EstimatorConfig(roulette=RouletteDist(0.999999, n - 1), n_fixed=n)
            for route, peaks in zip(routes, (neumann, biased)):
                peaks.append(peak(lambda: route(params, X, cfg, np.random.default_rng(21))))
            series.append(peak(lambda: neumann_series_rows(params, cache, cfg, np.random.default_rng(21), 512)()))
        mib = {name: [f"{b / 2**20:.2f}" for b in peaks]
               for name, peaks in (("neumann", neumann), ("biased", biased), ("series", series))}
        assert max(neumann) - min(neumann) < per_term, mib
        assert max(series) - min(series) < per_term, mib
        assert biased[0] < biased[1] < biased[2], mib
        assert biased[2] - biased[0] > 30 * per_term, mib


class TestSeriesKernel:
    """The one term loop against dense Jacobian powers, draw by draw."""

    @staticmethod
    def dense_sums(jac, v, K, dist):
        # sum_k c_k v^T J^k v and sum_k b_k (J^T)^k v, weights from the
        # roulette law: term k > n_exact is divided by (1 - q)^(k - n_exact - 1)
        values, w = np.zeros(len(v)), np.zeros_like(v)
        for i in range(len(v)):
            power = np.eye(len(v[i]))  # J^(k-1)
            for k in range(1, K[i] + 1):
                weight = (1 - dist.q) ** max(0, k - dist.n_exact - 1)
                w[i] += (-1.0) ** (k + 1) / weight * (power.T @ v[i])
                power = jac[i] @ power
                values[i] += (-1.0) ** (k + 1) / k / weight * (v[i] @ power @ v[i])
        return values, w

    @pytest.mark.parametrize(
        "case", ["batch", "shared_point", "point_of_row", "no_tail", "one_tail_row"]
    )
    def test_values_and_cotangent_match_dense_powers(self, case):
        from resflow.blocks import block_dense_jacobian, block_forward_cache
        from resflow.logdet import _draw, _series

        params = mlp_block(seed=13, hidden=8, frac=1.2)
        X = np.random.default_rng(14).standard_normal((12, 2))
        cfg = EstimatorConfig()
        point = np.arange(12)  # the cache row each probe row reads
        if case == "shared_point":
            X, point = X[:1], np.zeros(12, dtype=int)
        elif case == "point_of_row":  # 3 probes per point
            cfg = EstimatorConfig(n_hutchinson=3)
            X, point = X[:4], np.arange(12) // 3
        v, K, coefs = _draw(np.random.default_rng(15), 2, cfg, 12)
        # replay: all probes first, then all truncations
        replay = np.random.default_rng(15)
        np.testing.assert_array_equal(v, replay.standard_normal((12, 2)))
        np.testing.assert_array_equal(K, cfg.roulette.n_exact + cfg.roulette.sample(replay, 12))
        assert len(set(K)) > 2
        if case == "no_tail":  # every row stops at the same term
            K = np.full(12, K.max())
        elif case == "one_tail_row":  # one row goes on past all the others
            K = np.where(np.arange(12) == 7, K.max(), K.min())

        jac = block_dense_jacobian(params, X)[point]
        expected_values, expected_w = self.dense_sums(jac, v, K, cfg.roulette)

        _, cache = block_forward_cache(params, X)
        # with the cotangent every row stops one step early: the values lack
        # their last term, which the last chain state dotted with J v gives
        values, w, last = _series(params, cache, v, K, *coefs)
        jv = np.einsum("ijk,ik->ij", jac, v)
        np.testing.assert_allclose(values + coefs[0][K - 1] * np.einsum("ij,ij->i", last, jv),
                                   expected_values, rtol=1e-12)
        np.testing.assert_allclose(w, expected_w, rtol=1e-12)
        # value-only calls step with J, all K terms
        values_jvp, no_w, no_last = _series(params, cache, v, K, coefs[0])
        np.testing.assert_allclose(values_jvp, expected_values, rtol=1e-12)
        assert no_w is None and no_last is None
        _, w_only, no_last = _series(params, cache, v, K, None, coefs[1])
        np.testing.assert_allclose(w_only, expected_w, rtol=1e-12)
        assert no_last is None


def minor_faults(call, repeats=3):
    """Fewest minor page faults over ``repeats`` runs of ``call``, after a warm-up run."""
    resource = pytest.importorskip("resource")
    call()
    counts = []
    for _ in range(repeats):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        call()
        counts.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return min(counts)


@pytest.mark.parametrize("cotangent", [False, True], ids=["values_jvp", "cotangent_vjp"])
def test_series_page_faults_do_not_grow_with_terms(cotangent):
    """The term loop reuses one set of work buffers: 40 terms fault no more
    pages than 4 (fresh (rows, hidden) temporaries per term would fault
    about ten times as many, each given back to the OS between terms)."""
    from resflow.blocks import block_forward_cache
    from resflow.logdet import _coefficients, _series

    params = mlp_block(seed=17, hidden=128)
    rng = np.random.default_rng(18)
    X, v = rng.standard_normal((500, 2)), rng.standard_normal((500, 2))
    _, cache = block_forward_cache(params, X)

    def run(n_terms):
        values, grads = _coefficients(n_terms)
        K = np.full(500, n_terms)
        return lambda: _series(params, cache, v, K, values, grads if cotangent else None)

    assert minor_faults(run(40)) <= 2 * minor_faults(run(4))


class TestTrainingEstimators:
    def test_combined_values_match_standalone_distribution(self):
        params = mlp_block(seed=9)
        X = np.random.default_rng(4).standard_normal((3, 2))
        cfg = EstimatorConfig()
        rng = np.random.default_rng(5)
        acc = np.zeros(3)
        acc_t = 0.0
        M = 5000
        for _ in range(M):
            vals, terms, _, _ = roulette_value_and_neumann_grad_rows(params, X, cfg, rng)
            acc += vals
            acc_t += terms.mean()
        np.testing.assert_allclose(acc / M, exact_logdet(params, X), atol=0.05)
        assert acc_t / M == pytest.approx(4.0, abs=0.1)

    def test_combined_gradient_unbiased(self):
        # eigenvalues +-0.45 stay below 1 - q, so the reweighted Neumann tail
        # has finite variance; the gradient of log det(I + A) in A is (I + A)^-T
        A = np.array([[0.45, 0.3], [0.0, -0.45]])
        params = linear_block(A)
        X = np.random.default_rng(6).standard_normal((64, 2))
        cfg = EstimatorConfig()
        rng = np.random.default_rng(7)
        M = 3000
        samples = np.empty((M, 4))
        for i in range(M):
            _, _, g, _ = roulette_value_and_neumann_grad_rows(params, X, cfg, rng)
            samples[i] = g.layers[0].weight.ravel()
        exact = X.shape[0] * np.linalg.inv(np.eye(2) + A).T.ravel()
        se = samples.std(axis=0, ddof=1) / np.sqrt(M)
        z = (samples.mean(axis=0) - exact) / se
        assert np.max(np.abs(z)) < 4.5

    def test_combined_gradient_matches_per_row_neumann(self):
        # same probes and truncations: the batched cotangent of each row must
        # equal the single-point Neumann gradient at that row's truncation
        params = mlp_block(seed=10, hidden=5, frac=1.2)
        X = np.random.default_rng(6).standard_normal((12, 2))
        cfg = EstimatorConfig()
        _, terms, g, ig = roulette_value_and_neumann_grad_rows(
            params, X, cfg, np.random.default_rng(7)
        )
        replay = np.random.default_rng(7)
        probes = replay.standard_normal(X.shape)
        n_tail = cfg.roulette.sample(replay, size=X.shape[0])
        np.testing.assert_array_equal(terms, cfg.roulette.n_exact + n_tail)
        assert len(set(n_tail)) > 1
        expected = np.zeros_like(grads_vector(g))
        for i in range(X.shape[0]):
            g_i, ig_i = neumann_logdet_grad(params, X[i], cfg, FixedProbe(probes[i]), force_n=int(n_tail[i]))
            expected += grads_vector(g_i)
            np.testing.assert_allclose(ig[i], ig_i, rtol=1e-10, atol=1e-13)
        np.testing.assert_allclose(grads_vector(g), expected, rtol=1e-10, atol=1e-13)

    @pytest.mark.parametrize("n_hutchinson", [1, 3])
    def test_values_equal_the_full_k_step_series(self, n_hutchinson):
        # the training series stops each row one step early and takes the
        # last term from the reverse pass's J v: the same values as the
        # value-only series that runs all K steps, for the same draws
        from resflow.blocks import block_forward_cache
        from resflow.logdet import _draw, _series

        params = mlp_block(seed=12, hidden=8, frac=1.2)
        X = np.random.default_rng(13).standard_normal((10, 2))
        cfg = EstimatorConfig(n_hutchinson=n_hutchinson)
        rows = 10 * n_hutchinson
        values, _, _, _ = roulette_value_and_neumann_grad_rows(
            params, X, cfg, np.random.default_rng(14), out_cot=np.ones((10, 2))
        )
        v, K, (coefs, _) = _draw(np.random.default_rng(14), 2, cfg, rows)
        assert len(set(K)) > 2
        _, cache = block_forward_cache(params, X)
        full, _, _ = _series(params, cache, v, K, coefs)  # row i reads point i // n_hutchinson
        np.testing.assert_allclose(values, full.reshape(10, n_hutchinson).mean(axis=1), rtol=1e-12)

    def test_biased_rows_expectation_is_truncated_series(self):
        params = mlp_block(seed=11, hidden=5, frac=1.2)
        from resflow.norms import checkpoint_constraint

        checkpoint_constraint(params, 0.98)
        X = np.random.default_rng(8).standard_normal((2, 2))
        cfg = EstimatorConfig(n_fixed=5)
        M = 40_000
        # M draws at each point, as one batch of M copies of X
        vals, _, _, _ = biased_value_and_grad_rows(
            params, np.tile(X, (M, 1)), cfg, np.random.default_rng(9)
        )
        vals = vals.reshape(M, 2)
        expected = biased_logdet_exact_trace_rows(params, X, 5)
        # the k = 2 term is -3e-3 at one point, against a standard error of
        # about 5.5e-4 per point: bound the error in standard errors
        se = vals.std(axis=0, ddof=1) / np.sqrt(M)
        assert np.max(np.abs(vals.mean(axis=0) - expected) / se) < 4.0


@given(st.integers(1, 12), st.floats(0.1, 0.9))
@settings(max_examples=40, deadline=None)
def test_roulette_coefficients_survival_reweighting(k, q):
    from resflow.logdet import _coefficients

    dist = RouletteDist(q=q, n_exact=2)
    coefs, _ = _coefficients(12, dist)
    base = (-1.0) ** (k + 1) / k
    if k <= 2:
        assert coefs[k - 1] == pytest.approx(base, rel=1e-12)
    else:
        assert coefs[k - 1] == pytest.approx(base / (1 - q) ** (k - 2 - 1), rel=1e-12)

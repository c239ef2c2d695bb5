"""Acceptance suite: one test per shipping criterion, with a printed verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  The training-dependent criteria share a single
session-scoped checkerboard run.
"""

import numpy as np
import pytest

from resflow.activations import lipswish_d1, lipswish_d2, softplus_d1, softplus_d2
from resflow.blocks import grads_vector, param_vector, set_param_vector
from resflow.config import TrainConfig
from resflow.data import make_dataset
from resflow.flow import ResidualBlock, inverse, sample, transform
from resflow.grid import compute_grid
from resflow.instrument import StorageMeter
from resflow.logdet import (
    EstimatorConfig,
    exact_logdet,
    naive_series_grad,
    neumann_grad_exact_trace,
    neumann_grad_samples,
    neumann_logdet_grad,
    roulette_logdet_batch,
)
from resflow.norms import (
    checkpoint_constraint,
    empirical_lipschitz,
    exact_induced_norm,
    init_block_params,
    layer_norms,
)
from resflow.train import fit, gaussian_fit_nll, nats_to_bits

pytestmark = pytest.mark.acceptance


def report(criterion: int, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"[criterion {criterion:2d}] {verdict}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


# -- shared trained artifact --------------------------------------------------

TRAIN_SEED = 0
# 2D toy runs need a larger step and a slower second-moment decay than the
# image-scale optimizer defaults; see README and the training-dynamics tests
TRAIN_LR = 5e-2
TRAIN_BETA2 = 0.999


@pytest.fixture(scope="session")
def trained_run(tmp_path_factory):
    """2000-step unbiased 10-block checkerboard run used by criteria 7, 8, 10."""
    out = tmp_path_factory.mktemp("checkerboard_run")
    cfg = TrainConfig(
        dataset="checkerboard",
        blocks=10,
        steps=2000,
        estimator_kind="unbiased",
        seed=TRAIN_SEED,
        lr=TRAIN_LR,
        adam_beta2=TRAIN_BETA2,
        n_eval=2000,
        eval_every=500,
        checkpoint_every=0,
    )
    state = fit(cfg, out)
    import json

    records = [
        json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()
    ]
    eval_records = [r for r in records if "eval_nll_nats" in r]
    from resflow.train import eval_model

    return {
        "state": state,
        "model": eval_model(state),
        "out": out,
        "init_eval": eval_records[0],
        "final_eval": eval_records[-1],
    }


def contractive_block(seed, hidden=64, frac=0.9):
    return init_block_params(
        np.random.default_rng(seed), 2, hidden=hidden, init_norm_fraction=frac
    )


# -- criteria -----------------------------------------------------------------


def test_criterion_1_logdet_unbiasedness():
    """Roulette estimates center on the exact log-determinant."""
    worst = 0.0
    for seed in (11, 12, 13, 14, 15):
        params = contractive_block(seed)
        x = np.random.default_rng(seed + 50).standard_normal(2)
        exact = exact_logdet(params, x)
        vals, _ = roulette_logdet_batch(
            params, x, EstimatorConfig(), np.random.default_rng(seed + 100), 100_000
        )
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        z = abs(vals.mean() - exact) / se
        worst = max(worst, z)
    report(1, worst < 3.0, f"max |z| over 5 blocks = {worst:.2f} (need < 3)")


def test_criterion_2_gradient_unbiasedness():
    """Neumann gradients center on finite differences of the exact oracle."""
    worst = 0.0
    for seed in (21, 22, 23, 24, 25):
        params = contractive_block(seed, hidden=6)
        x = np.random.default_rng(seed + 50).standard_normal(2)
        mean, se, _ = neumann_grad_samples(
            params, x, EstimatorConfig(), np.random.default_rng(seed + 100), 100_000
        )
        vec = param_vector(params)
        fd = np.zeros_like(vec)
        for i in range(vec.size):
            e = np.zeros_like(vec)
            e[i] = 1e-5
            plus, minus = params.copy(), params.copy()
            set_param_vector(plus, vec + e)
            set_param_vector(minus, vec - e)
            fd[i] = (exact_logdet(plus, x) - exact_logdet(minus, x)) / 2e-5
        z = np.where(se > 1e-13, np.abs(mean - fd) / np.where(se > 1e-13, se, 1.0), 0.0)
        worst = max(worst, float(z.max()))
    # exact-trace equality of the two gradient series
    params = contractive_block(31, hidden=8)
    x = np.array([0.3, -0.7])
    rel = 0.0
    for n in (3, 8, 15):
        a = grads_vector(naive_series_grad(params, x, n)[0])
        b = grads_vector(neumann_grad_exact_trace(params, x, n)[0])
        rel = max(rel, float(np.max(np.abs(a - b) / (np.abs(b) + 1e-12))))
    ok = worst < 3.0 and rel < 1e-8
    report(2, ok, f"max |z| = {worst:.2f} (need < 3); series equality rel err = {rel:.1e}")


def test_criterion_3_expected_series_length():
    """Expected work of the unbiased estimator is 4 terms."""
    params = contractive_block(41)
    _, terms = roulette_logdet_batch(
        params, np.zeros(2), EstimatorConfig(), np.random.default_rng(41), 100_000
    )
    mean_terms = float(terms.mean())
    report(3, abs(mean_terms - 4.0) <= 0.05, f"mean terms = {mean_terms:.4f} (need 4.0 +- 0.05)")


def test_criterion_4_bias_pathology(tmp_path):
    """Fixed truncation turns pathological at strong contraction; roulette does not."""
    from resflow.cli import main as cli_main

    out = tmp_path / "diag"
    code = cli_main(
        [
            "diagnose",
            "--arch", "linear",
            "--seed", "4",
            "--n-samples", "100000",
            "--out-dir", str(out),
        ]
    )
    assert code == 0
    rows = {}
    lines = (out / "diagnose.csv").read_text().splitlines()[1:]
    for line in lines:
        coeff, est, mean, exact, bias, se, terms = line.split(",")
        rows[(float(coeff), est)] = (float(mean), float(exact), float(bias), float(se))
    ratio = abs(rows[(0.98, "biased-5")][2]) / max(abs(rows[(0.5, "biased-5")][2]), 1e-12)
    unbiased_ok = all(
        abs(rows[(c, "unbiased")][2]) <= 3 * rows[(c, "unbiased")][3] for c in (0.5, 0.98)
    )
    coeffs = (0.5, 0.7, 0.9, 0.98)
    biased5 = [abs(rows[(c, "biased-5")][2]) for c in coeffs]
    monotone_ok = all(a < b for a, b in zip(biased5, biased5[1:]))
    ok = ratio >= 5.0 and unbiased_ok and monotone_ok
    report(
        4,
        ok,
        f"biased-5 |bias| ratio 0.98/0.5 = {ratio:.1f} (need >= 5); increasing in "
        f"coeff = {monotone_ok}; unbiased rows within 3 SE = {unbiased_ok}",
    )


def test_criterion_5_lipswish_bound_and_curvature():
    """Slope cap just under 1.1 pre-scaling; curvature alive at matched slope."""
    z = np.arange(-10.0, 10.0, 1e-5)
    swish_peak = float(np.max(np.abs(1.1 * lipswish_d1(z, 1.0))))
    slope_ok = 1.0997 <= swish_peak <= 1.1000
    all_beta_ok = all(
        float(np.max(np.abs(lipswish_d1(np.linspace(-50, 50, 400_001), b)))) <= 1.0
        for b in (0.1, 0.5, 1.0, 2.0, 5.0)
    )
    d1 = np.abs(lipswish_d1(z, 1.0))
    level = 0.999 * d1.max()
    near = np.abs(d1 - level) < 1e-4
    lipswish_curv = float(np.min(np.abs(lipswish_d2(z[near], 1.0))))
    z999 = float(np.log(0.999 / 0.001))  # softplus slope 0.999
    softplus_curv = float(softplus_d2(z999))
    ok = slope_ok and all_beta_ok and lipswish_curv > 0.01 and softplus_curv < 1e-3
    report(
        5,
        ok,
        f"swish slope peak = {swish_peak:.5f} in [1.0997, 1.1]; all-beta cap <= 1: "
        f"{all_beta_ok}; curvature at 99.9% slope = {lipswish_curv:.3f} (> 0.01) vs "
        f"softplus {softplus_curv:.2e} (< 1e-3) at slope {softplus_d1(z999):.4f}",
    )


def test_criterion_6_lipschitz_enforcement():
    """Per-layer norms clamped at the coefficient; map obeys the product bound."""
    ok = True
    details = []
    for preset in ("spectral", "inf", "one"):
        params = init_block_params(
            np.random.default_rng(61), 2, hidden=64, norm_preset=preset,
            init_norm_fraction=1.6,
        )
        norms = checkpoint_constraint(params, 0.98)
        if preset == "spectral":
            svd = [float(np.linalg.svd(l.weight, compute_uv=False)[0]) for l in params.layers]
            ok &= all(s <= 0.98 * (1 + 1e-3) for s in svd)
            details.append(f"spectral svd max {max(svd):.6f}")
        else:
            p = np.inf if preset == "inf" else 1.0
            exact = [exact_induced_norm(l.weight, p) for l in params.layers]
            ok &= all(e <= 0.98 + 1e-12 for e in exact)
            details.append(f"{preset} max {max(exact):.6f}")
        emp = empirical_lipschitz(params, np.random.default_rng(62), n_pairs=10_000)
        ok &= emp <= float(np.prod(norms)) + 1e-9
        details.append(f"{preset} emp {emp:.4f} <= prod {float(np.prod(norms)):.4f}")
    report(6, bool(ok), "; ".join(details))


def test_criterion_7_invertibility(trained_run):
    """Round trips under 1e-7; fixed-point residuals contract geometrically."""
    model = trained_run["model"]
    rng = np.random.default_rng(71)
    X = make_dataset("checkerboard", seed=71).sample(1000)
    Z = transform(model, X)
    X_back = inverse(model, Z, tol=1e-10, max_iters=1000)
    rt_data = float(np.max(np.linalg.norm(X_back - X, axis=1)))
    Z2 = rng.standard_normal((1000, 2))
    X2 = inverse(model, Z2, tol=1e-10, max_iters=1000)
    rt_base = float(np.max(np.linalg.norm(transform(model, X2) - Z2, axis=1)))
    _, residuals = inverse(model, Z2[:100], tol=1e-12, max_iters=1000, return_residuals=True)
    blocks = [l for l in reversed(model.layers) if isinstance(l, ResidualBlock)]
    ratio_ok = True
    for lay, block_res in zip(blocks, residuals):
        bound = float(np.prod(layer_norms(lay.params)))
        meaningful = [r for r in block_res if r > 1e-12]
        for a, b in zip(meaningful, meaningful[1:]):
            ratio_ok &= b <= bound * a * (1 + 1e-6)
    ok = rt_data < 1e-7 and rt_base < 1e-7 and ratio_ok
    report(
        7,
        bool(ok),
        f"round-trip data {rt_data:.2e}, base {rt_base:.2e} (need < 1e-7); "
        f"geometric decay at per-block norm product: {ratio_ok}",
    )


def test_criterion_8_normalization(trained_run):
    """Exact-mode density of the trained model integrates to 1 within 2%."""
    grid = compute_grid(trained_run["model"], (-8, 8, -8, 8), (400, 400), mode="exact")
    integral = grid.integral()
    report(8, 0.98 <= integral <= 1.02, f"midpoint integral = {integral:.4f} (need 1 +- 0.02)")


def test_criterion_9_memory_contract():
    """Neumann gradient storage flat in the truncation; naive storage linear."""
    params = contractive_block(91)
    x = np.array([0.2, -0.5])
    neumann_peaks = []
    for n in (1, 5, 20, 100):
        meter = StorageMeter()
        neumann_logdet_grad(
            params, x, EstimatorConfig(), np.random.default_rng(0), force_n=n, meter=meter
        )
        neumann_peaks.append(meter.peak)
    naive_peaks = {}
    for n in (1, 5, 10, 20):
        meter = StorageMeter()
        naive_series_grad(params, x, n, meter=meter)
        naive_peaks[n] = meter.peak
    increments = [
        naive_peaks[5] - naive_peaks[1],
        naive_peaks[10] - naive_peaks[5],
        naive_peaks[20] - naive_peaks[10],
    ]
    linear_ok = increments == [2 * 4, 2 * 5, 2 * 10]
    constant_ok = len(set(neumann_peaks)) == 1
    report(
        9,
        constant_ok and linear_ok,
        f"neumann peaks {neumann_peaks} constant; naive peaks {sorted(naive_peaks.values())} "
        f"grow by 2 arrays/term",
    )


def test_criterion_10_training_progress(trained_run):
    """Checkerboard run sheds at least one bit and beats the Gaussian fit."""
    init_bits = trained_run["init_eval"]["eval_nll_bits"]
    final_bits = trained_run["final_eval"]["eval_nll_bits"]
    improvement = init_bits - final_bits
    eval_points = make_dataset("checkerboard", seed=TRAIN_SEED + 777_001).sample(4000)
    gauss_bits = nats_to_bits(gaussian_fit_nll(eval_points))
    samples = sample(trained_run["model"], np.random.default_rng(10), 2000)
    inside = float(np.mean(np.all(np.abs(samples) <= 4.0, axis=1)))
    ok = improvement >= 1.0 and final_bits < gauss_bits and inside >= 0.95
    report(
        10,
        bool(ok),
        f"eval NLL {init_bits:.3f} -> {final_bits:.3f} bits (improvement "
        f"{improvement:.3f}, need >= 1.0); gaussian-fit floor {gauss_bits:.3f}; "
        f"samples in support box: {inside:.1%} (need >= 95%)",
    )

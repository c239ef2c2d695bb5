"""Command-line interface contracts: files, determinism, exit codes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from resflow import cli
from resflow.cli import build_parser, build_train_config, main, parse_overrides
from resflow.grid import read_grid_csv


BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def run_cli(*args):
    return main(list(args))


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A small trained run shared by the checkpoint-consuming commands."""
    out = tmp_path_factory.mktemp("run")
    code = run_cli(
        "train",
        "--out-dir",
        str(out),
        "--dataset",
        "checkerboard",
        "--blocks",
        "2",
        "--steps",
        "5",
        "--train.hidden=8",
        "--train.batch_size=64",
        "--train.n_eval=100",
        "--train.eval_every=5",
        "--train.checkpoint_every=0",
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def empty_model_checkpoint(tmp_path_factory):
    from resflow.checkpoint import save_checkpoint
    from resflow.flow import FlowModel

    path = tmp_path_factory.mktemp("empty") / "empty.txt"
    save_checkpoint(path, FlowModel(dim=2, layers=[]), meta={"train.dataset": "checkerboard"})
    return path


class TestTrain:
    def test_run_directory_contents(self, tiny_run):
        assert (tiny_run / "metrics.jsonl").exists()
        assert (tiny_run / "config.txt").exists()
        assert (tiny_run / "checkpoint_final.txt").exists()
        records = [
            json.loads(line) for line in (tiny_run / "metrics.jsonl").read_text().splitlines()
        ]
        assert records[-1]["step"] == 5

    def test_biased_flag_round_trips_into_config(self, tmp_path):
        out = tmp_path / "ablation"
        code = run_cli(
            "train",
            "--out-dir",
            str(out),
            "--estimator",
            "biased",
            "--n-fixed",
            "5",
            "--steps",
            "2",
            "--blocks",
            "1",
            "--train.hidden=8",
            "--train.batch_size=32",
            "--train.n_eval=50",
        )
        assert code == 0
        config = (out / "config.txt").read_text()
        assert "estimator.kind = biased" in config
        assert "estimator.n_fixed = 5" in config

    def test_blas_thread_count_does_not_change_training_bytes(self, tmp_path):
        """The same run with BLAS on 1 and on 2 threads writes the same bytes.

        At the acceptance width (hidden 128, batch 512) every reduction that
        reaches an output is large enough for a BLAS dot to split it between
        threads, which changes its summation order; ``lr=0.05`` rescales
        layers from the first step, so the constraint's gradient is on the
        path too.  The unbiased gradient now runs at one BLAS thread either
        way (``blocks.series_worker``), so here only the rest of the step
        sees two; ``tests/test_train.py::TestBlasScope`` keeps the gradient
        at two threads covered: without the setter it runs on the caller
        with BLAS at 2 threads and must give the worker's bytes.
        """
        src = str(Path(__file__).resolve().parents[1] / "src")
        runner = "import sys; from resflow.cli import main; sys.exit(main())"
        outs = {}
        for threads in ("1", "2"):
            env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
            env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, PYTHONPATH=src)
            out = tmp_path / f"blas{threads}"
            proc = subprocess.run(
                [sys.executable, "-c", runner, "train", "--out-dir", str(out),
                 "--blocks", "2", "--steps", "6", "--train.hidden=128",
                 "--train.batch_size=512", "--train.lr=0.05", "--train.n_eval=200",
                 "--train.eval_every=3", "--train.checkpoint_every=0"],
                env=env, capture_output=True, text=True, timeout=600,
            )
            assert proc.returncode == 0, proc.stderr
            outs[threads] = [(out / name).read_bytes() for name in ("metrics.jsonl", "checkpoint_final.txt")]
        records = [json.loads(line) for line in outs["1"][0].decode().splitlines()]
        rescaled = [n == 0.98 for rec in records[1:] for block in rec["layer_norms"] for n in block]
        assert any(rescaled)
        assert outs["1"][0] == outs["2"][0]
        assert outs["1"][1] == outs["2"][1]

    def test_missing_config_file_exits_2_naming_path(self, tmp_path, capsys):
        code = run_cli("train", "--config", str(tmp_path / "absent.cfg"))
        assert code == 2
        assert "absent.cfg" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override",
        [
            "--estimator.q=1.5",
            "--lipschitz.coeff=1.2",
            "--train.hidden=0",
            "--train.batch_size=-1",
            "--lipschitz.norm_preset=foo",
            "--train.dataset=moons",
            "--estimator.n_hutchinson=0",
            "--estimator.hutchinson=foo",
            "--train.steps=-1",
            "--train.blocks=-1",
            "--train.n_eval=0",
            "--train.n_eval=1",
            "--train.eval_every=0",
            "--train.eval_every=-5",
            "--train.checkpoint_every=-1",
            "--lipschitz.max_iters=0",
            "--lipschitz.max_iters_warm=0",
            "--lipschitz.tol=0",
            "--train.adam_beta1=1.5",
            "--train.adam_beta2=1.0",
            "--train.adam_beta2=-0.1",
        ],
    )
    def test_bad_config_value_exits_2_before_writing(self, tmp_path, override):
        out = tmp_path / "run"
        assert run_cli("train", "--out-dir", str(out), "--steps", "1", override) == 2
        assert not out.exists()

    def test_keys_with_digits_reach_train_config(self):
        args, extras = build_parser().parse_known_args(
            ["train", "--train.adam_beta1=0.8", "--train.adam_beta2=0.999"]
        )
        cfg = build_train_config(args, parse_overrides(extras))
        assert (cfg.adam_beta1, cfg.adam_beta2) == (0.8, 0.999)

    def test_unknown_override_exits_2(self, capsys):
        code = run_cli("train", "--train.warp=9")
        assert code == 2

    def test_usage_error_exit_code(self):
        assert run_cli("sample") == 2  # missing required arguments

    def test_no_command_exits_2(self):
        assert run_cli() == 2


class TestSample:
    def test_zero_samples_header_only(self, tiny_run, tmp_path):
        out = tmp_path / "s0"
        code = run_cli(
            "sample", "--checkpoint", str(tiny_run / "checkpoint_final.txt"),
            "--n", "0", "--out-dir", str(out),
        )
        assert code == 0
        assert (out / "samples.csv").read_text() == "x,y\n"

    def test_sample_count_and_determinism(self, tiny_run, tmp_path):
        args = (
            "sample", "--checkpoint", str(tiny_run / "checkpoint_final.txt"),
            "--n", "50", "--seed", "3",
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli(*args, "--out-dir", str(out_a)) == 0
        assert run_cli(*args, "--out-dir", str(out_b)) == 0
        assert (out_a / "samples.csv").read_bytes() == (out_b / "samples.csv").read_bytes()
        lines = (out_a / "samples.csv").read_text().splitlines()
        assert lines[0] == "x,y"
        assert len(lines) == 51

    def test_check_inverse_reports_small_error(self, tiny_run, tmp_path, capsys):
        code = run_cli(
            "sample", "--checkpoint", str(tiny_run / "checkpoint_final.txt"),
            "--n", "20", "--check-inverse", "--out-dir", str(tmp_path / "ci"),
        )
        assert code == 0
        out = capsys.readouterr().out
        line = [l for l in out.splitlines() if l.startswith("check_inverse_max_error=")][0]
        assert float(line.split("=")[1]) < 1e-7

    @pytest.mark.parametrize("name", ["../../x.csv", "absolute"])
    def test_out_with_a_directory_part_exits_2_without_output(self, tiny_run, tmp_path, name):
        out = tmp_path / "deep" / "out"
        target = tmp_path / "x.csv"
        name = str(target) if name == "absolute" else name
        code = run_cli(
            "sample", "--checkpoint", str(tiny_run / "checkpoint_final.txt"),
            "--n", "5", "--out", name, "--out-dir", str(out),
        )
        assert code == 2
        assert not target.exists() and not (tmp_path / "deep").exists()


class TestGrid:
    def test_empty_model_center_brightest(self, empty_model_checkpoint, tmp_path):
        out = tmp_path / "grid"
        code = run_cli(
            "grid", "--checkpoint", str(empty_model_checkpoint),
            "--bounds=-3,3,-3,3", "--resolution", "101,101",
            "--out-dir", str(out),
        )
        assert code == 0
        grid = read_grid_csv(out / "grid.csv")
        values = grid.values
        iy, ix = np.unravel_index(np.argmax(values), values.shape)
        assert (ix, iy) == (50, 50)
        pgm = (out / "grid.pgm").read_text().splitlines()
        assert pgm[0] == "P2"
        assert pgm[1] == "101 101"
        assert pgm[2] == "255"
        pixels = np.array([[int(t) for t in row.split()] for row in pgm[3:]])
        assert pixels.max() == 255
        # file rows run top to bottom; the brightest pixel is the center
        assert pixels[50, 50] == 255

    def test_grid_integral_near_one(self, tiny_run, tmp_path):
        out = tmp_path / "gint"
        code = run_cli(
            "grid", "--checkpoint", str(tiny_run / "checkpoint_final.txt"),
            "--bounds=-8,8,-8,8", "--resolution", "200,200",
            "--out-dir", str(out),
        )
        assert code == 0
        grid = read_grid_csv(out / "grid.csv")
        assert 0.98 <= grid.integral() <= 1.02

    def test_byte_determinism(self, empty_model_checkpoint, tmp_path):
        args = (
            "grid", "--checkpoint", str(empty_model_checkpoint),
            "--bounds=-2,2,-2,2", "--resolution", "21,21",
        )
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(*args, "--out-dir", str(a)) == 0
        assert run_cli(*args, "--out-dir", str(b)) == 0
        assert (a / "grid.csv").read_bytes() == (b / "grid.csv").read_bytes()
        assert (a / "grid.pgm").read_bytes() == (b / "grid.pgm").read_bytes()

    def test_bad_bounds_exit_2(self, empty_model_checkpoint, tmp_path):
        code = run_cli(
            "grid", "--checkpoint", str(empty_model_checkpoint),
            "--bounds=1,2", "--out-dir", str(tmp_path / "x"),
        )
        assert code == 2

    @pytest.mark.parametrize(
        "arg",
        ["--resolution=0,5", "--bounds=4,-4,-4,4", "--bounds=-inf,4,-4,4", "--bounds=-1e308,1e308,-4,4"],
        ids=["zero_resolution", "reversed_bounds", "infinite_bounds", "infinite_width"],
    )
    def test_empty_grid_exits_2_without_output(self, empty_model_checkpoint, tmp_path, arg):
        out = tmp_path / "x"
        code = run_cli("grid", "--checkpoint", str(empty_model_checkpoint), arg, "--out-dir", str(out))
        assert code == 2
        assert not out.exists()


class TestEval:
    def test_eval_record(self, tiny_run, tmp_path, capsys):
        out = tmp_path / "ev"
        code = run_cli(
            "eval", "--checkpoint", str(tiny_run / "checkpoint_final.txt"),
            "--mode", "exact", "--n-eval", "200", "--out-dir", str(out),
        )
        assert code == 0
        record = json.loads((out / "eval.json").read_text())
        assert record["eval_mode"] == "exact"
        assert record["eval_nll_bits"] == pytest.approx(
            record["eval_nll_nats"] / np.log(2), rel=1e-12
        )
        printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert printed == record

    def test_exact_and_estimator_modes_agree(self, tiny_run, tmp_path):
        records = {}
        for mode in ("exact", "estimator"):
            out = tmp_path / mode
            code = run_cli(
                "eval", "--checkpoint", str(tiny_run / "checkpoint_final.txt"),
                "--mode", mode, "--n-eval", "300", "--seed", "0",
                "--out-dir", str(out),
            )
            assert code == 0
            records[mode] = json.loads((out / "eval.json").read_text())
        tol = 3 * np.hypot(
            records["exact"]["eval_nll_se_nats"], records["estimator"]["eval_nll_se_nats"]
        )
        assert abs(records["exact"]["eval_nll_nats"] - records["estimator"]["eval_nll_nats"]) < tol

    def test_missing_checkpoint_exit_2(self, tmp_path):
        code = run_cli("eval", "--checkpoint", str(tmp_path / "none.txt"))
        assert code == 2

    @pytest.mark.parametrize("subs", [r"1", r"\d+"], ids=["one_layer", "whole_block"])
    def test_unsupported_norm_orders_exit_2_without_output(self, tiny_run, tmp_path, capsys, subs):
        # one layer at (3, 3) breaks the chain; a whole block at (3, 3) chains but
        # has no exact norm or spectral iteration to measure it
        text = (tiny_run / "checkpoint_final.txt").read_text()
        block = re.search(r"^(model\.layer\.\d+)\.kind = block$", text, re.M).group(1)
        pattern = rf"^({re.escape(block)}\.sub\.{subs}\.norm_(in|out)) = 2\.0$"
        text, n = re.subn(pattern, r"\1 = 3.0", text, flags=re.M)
        assert n >= 2
        ckpt = tmp_path / "orders3.txt"
        ckpt.write_text(text)
        out = tmp_path / "ev"
        code = run_cli("eval", "--checkpoint", str(ckpt), "--out-dir", str(out))
        assert code == 2
        assert "norm orders" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n_eval", ["0", "-3", "1"])
    def test_fewer_than_two_points_exit_2_without_output(self, tiny_run, tmp_path, n_eval):
        """One point has no standard error, none no mean."""
        out = tmp_path / "ev"
        code = run_cli(
            "eval", "--checkpoint", str(tiny_run / "checkpoint_final.txt"),
            "--n-eval", n_eval, "--out-dir", str(out),
        )
        assert code == 2
        assert not out.exists()


class TestCheckpointCommands:
    @pytest.mark.parametrize(
        "command",
        [["sample", "--n", "10"], ["eval", "--mode", "exact"], ["grid", "--resolution", "5,5"]],
        ids=["sample", "eval_exact", "grid"],
    )
    def test_bad_metadata_exits_2_without_output(self, tiny_run, tmp_path, capsys, command):
        text = (tiny_run / "checkpoint_final.txt").read_text()
        text, n = re.subn(
            r"^meta\.train\.polyak_decay = .*$", "meta.train.polyak_decay = 1.5", text, flags=re.M
        )
        assert n == 1
        ckpt = tmp_path / "decay.txt"
        ckpt.write_text(text)
        out = tmp_path / "out"
        code = run_cli(command[0], "--checkpoint", str(ckpt), *command[1:], "--out-dir", str(out))
        assert code == 2
        assert "polyak_decay" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "pattern, repl",
        [
            (r"^model\.dim = 2$", "model.dim = two"),
            (r"^(model\.layer\.\d+\.sub\.0\.weight = \d+x\d+\|)[^,]+", r"\1zz"),
            (r"^(model\.layer\.\d+\.sub\.0\.weight = )8x2\|", r"\g<1>9x2|"),
            (r"^(array\.polyak\.shadow = )[^,]+", r"\1zz"),
        ],
        ids=["dim_not_int", "weight_not_float", "weight_shape", "shadow_not_float"],
    )
    def test_corrupt_checkpoint_exits_2_without_output(self, tiny_run, tmp_path, capsys, pattern, repl):
        text, n = re.subn(pattern, repl, (tiny_run / "checkpoint_final.txt").read_text(), count=1, flags=re.M)
        assert n == 1
        ckpt = tmp_path / "corrupt.txt"
        ckpt.write_text(text)
        out = tmp_path / "out"
        assert run_cli("eval", "--checkpoint", str(ckpt), "--out-dir", str(out)) == 2
        assert str(ckpt) in capsys.readouterr().err
        assert not out.exists()

    def test_eval_record_keys_match_training_eval(self, tiny_run, tmp_path):
        from resflow.config import TrainConfig
        from resflow.train import evaluate, init_train_state

        out = tmp_path / "ev"
        code = run_cli(
            "eval", "--checkpoint", str(tiny_run / "checkpoint_final.txt"),
            "--mode", "estimator", "--n-eval", "20", "--out-dir", str(out),
        )
        assert code == 0
        record = json.loads((out / "eval.json").read_text())
        state = init_train_state(TrainConfig(blocks=1, hidden=4, n_eval=20))
        assert set(record) - {"checkpoint"} == set(evaluate(state, mode="estimator")) - {"step"}


class TestDiagnose:
    def test_table_shape_and_unbiased_rows(self, tmp_path):
        out = tmp_path / "diag"
        code = run_cli(
            "diagnose", "--arch", "linear", "--seed", "1",
            "--n-samples", "20000", "--out-dir", str(out),
        )
        assert code == 0
        lines = (out / "diagnose.csv").read_text().splitlines()
        assert lines[0] == "coeff,estimator,mc_mean,exact,bias,se,mean_terms"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 4 * 3  # coeffs x estimators
        for row in rows:
            coeff, est, mean, exact, bias, se, terms = row
            assert float(se) > 0
            if est == "unbiased" and float(coeff) <= 0.7:
                assert abs(float(bias)) <= 3 * float(se)
            if est == "unbiased":
                assert float(terms) == pytest.approx(4.0, abs=0.15)
            if est.startswith("biased-"):
                assert float(terms) == pytest.approx(float(est.split("-")[1]), abs=1e-12)

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RESFLOW_OUT_DIR", str(tmp_path / "envout"))
        code = run_cli("diagnose", "--arch", "linear", "--n-samples", "2000")
        assert code == 0
        assert (tmp_path / "envout" / "diagnose.csv").exists()

    def test_checkpoint_source(self, tiny_run, tmp_path, monkeypatch):
        load, loads = cli.load_checkpoint, []

        def counted(path):
            loads.append(path)
            return load(path)

        monkeypatch.setattr(cli, "load_checkpoint", counted)
        out = tmp_path / "diagck"
        code = run_cli(
            "diagnose", "--checkpoint", str(tiny_run / "checkpoint_final.txt"),
            "--block-index", "0", "--n-samples", "2000",
            "--coeffs", "0.5,0.98", "--out-dir", str(out),
        )
        assert code == 0
        lines = (out / "diagnose.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 3
        assert len(loads) == 1  # one parse serves every coefficient

    def test_bad_block_index_exit_2(self, tiny_run, tmp_path):
        code = run_cli(
            "diagnose", "--checkpoint", str(tiny_run / "checkpoint_final.txt"),
            "--block-index", "9", "--out-dir", str(tmp_path / "x"),
        )
        assert code == 2

    def test_threads_do_not_change_output(self, tmp_path):
        cases = {
            # one chunk of a block with no hidden layer
            "linear": ["--arch", "linear", "--n-samples", "5000"],
            # three chunks of an MLP block's series: each worker thread runs
            # the pooled kernels, in its own pool
            "mlp": ["--arch", "mlp", "--coeffs", "0.9", "--n-samples", "30000"],
        }
        for name, args in cases.items():
            outs = {}
            for threads in (1, 2):
                out = tmp_path / f"{name}{threads}"
                code = run_cli(
                    "diagnose", *args, "--seed", "2", "--threads", str(threads),
                    "--out-dir", str(out),
                )
                assert code == 0
                outs[threads] = (out / "diagnose.csv").read_bytes()
            assert outs[1] == outs[2], name

    def test_threads_only_on_diagnose_and_at_least_one(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("train", "--threads", "2", "--out-dir", str(out), "--steps", "1") == 2
        assert not out.exists()
        out = tmp_path / "diag"
        assert run_cli("diagnose", "--threads", "0", "--n-samples", "100", "--out-dir", str(out)) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["--at", "1,2,3"],
            ["--n-samples", "0"],
            ["--n-samples", "1"],
            ["--coeffs", "0.5,1.5"],
            ["--coeffs", "0"],
            ["--arch", "mlp", "--hidden", "0"],
        ],
        ids=["at_wrong_dim", "no_samples", "one_sample", "coeff_above_1", "coeff_0", "no_hidden"],
    )
    def test_bad_input_exits_2_without_output(self, tmp_path, args):
        out = tmp_path / "diag"
        assert run_cli("diagnose", "--n-samples", "100", *args, "--out-dir", str(out)) == 2
        assert not out.exists()

"""Trainer, evaluation, inference and CLI behaviour on tiny synthetic data."""

import gc
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import icc
from icc import data as D
from icc import model as M
from icc import tensor as T
from icc import train as TR
from icc.cli import main as cli_main
from icc.checkpoint import load_checkpoint, save_checkpoint
from icc.errors import ConfigError, DataError


@pytest.fixture(scope="module")
def tiny_dirs(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    train = D.generate_synthetic((2, 6), 64, 64, 6, seed=100)
    val = D.generate_synthetic((2, 6), 64, 64, 3, seed=101)
    D.save_dataset(train, root / "train")
    D.save_dataset(val, root / "val")
    return root


GRAPH_HEAD = "ICCGRAPH 1\nablation none\ntap output input\nlayer input kind=input channels=3\n"


def run_cli_process(*args):
    """``icc <args>`` in a separate process, so that an uncaught exception
    shows as exit 1 and a traceback on stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(icc.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "icc.cli", *map(str, args)],
        capture_output=True, text=True, env=env, timeout=120,
    )


def run_infer_process(ckpt, graph, image, output):
    return run_cli_process("infer", "--checkpoint", ckpt, "--graph", graph,
                           "--image", image, "--output", output)


def tiny_config(tiny_dirs, out, **kw):
    base = dict(
        epochs=1,
        batch_size=3,
        crop_size=64,
        width_scale=0.125,
        sinkhorn_iters=50,
        seed=0,
        train_dir=str(tiny_dirs / "train"),
        val_dir=str(tiny_dirs / "val"),
        out_dir=str(out),
    )
    base.update(kw)
    return TR.TrainConfig(**base)


class TestConfig:
    def test_file_and_overrides(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# comment\nepochs=3\nlearning_rate=2e-4\nablation=no-context\n",
            encoding="utf-8",
        )
        cfg = TR.TrainConfig.from_file(cfg_file).apply_pairs({"epochs": "5"})
        assert cfg.epochs == 5
        assert cfg.learning_rate == 2e-4
        assert cfg.ablation == "no-context"

    def test_values_parse_by_field_type(self):
        # an int held in a float field still takes a float value
        cfg = TR.TrainConfig(width_scale=1).apply_pairs({"width_scale": "0.5"})
        assert cfg.width_scale == 0.5
        cfg = TR.TrainConfig(learning_rate=1).apply_pairs({"learning_rate": "2e-4"})
        assert cfg.learning_rate == 2e-4
        with pytest.raises(ConfigError, match="bad value '3.0' for config key 'epochs'"):
            TR.TrainConfig().apply_pairs({"epochs": "3.0"})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            TR.TrainConfig().apply_pairs({"warp_speed": "9"})

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            TR.TrainConfig(epochs=0)
        with pytest.raises(ConfigError):
            TR.TrainConfig(learning_rate=-1.0)
        with pytest.raises(ConfigError):
            TR.TrainConfig(crop_size=40)
        with pytest.raises(ConfigError, match="positive multiple"):
            TR.TrainConfig(crop_size=0, ablation="no-context")
        with pytest.raises(ConfigError):
            TR.TrainConfig(ablation="no-everything")
        nan, inf = float("nan"), float("inf")
        for key, values in {
            "width_scale": (nan, inf),
            "learning_rate": (nan, inf, 0.0),
            "sinkhorn_iters": (0,),
            "ot_epsilon": (-1.0, nan, inf),
            "lambda1": (nan, -0.1),
            "lambda2": (-5.0, inf),
            "weight_decay": (nan, -1e-4),
            "seed": (-1,),
        }.items():
            for value in values:
                with pytest.raises(ConfigError, match=key.replace("_", ".")):
                    TR.TrainConfig(**{key: value})
        # the last epoch's rate, 1e-4 * (1e-200) ** 2, is 0.0 in floating point
        with pytest.raises(ConfigError, match="learning_rate.*lr_gamma"):
            TR.TrainConfig(lr_gamma=1e-200, epochs=3)
        TR.TrainConfig(lr_gamma=1e-200, epochs=2)

    def test_malformed_line(self, tmp_path):
        f = tmp_path / "bad.cfg"
        f.write_text("epochs 3\n")
        with pytest.raises(ConfigError, match="key=value"):
            TR.TrainConfig.from_file(f)


class TestMetrics:
    def test_mae_rmse_hand_case(self):
        mae, rmse = TR.aggregate_metrics([10.0, 20.0], [12.0, 16.0])
        assert mae == 3.0
        assert abs(rmse - np.sqrt(10.0)) < 1e-12

    def test_perfect_predictions(self):
        mae, rmse = TR.aggregate_metrics([3.0, 7.0, 11.0], [3.0, 7.0, 11.0])
        assert mae == 0.0 and rmse == 0.0

    def test_constant_mean_predictor_rmse_is_population_std(self):
        rng = np.random.default_rng(0)
        z = rng.uniform(5, 50, 40)
        zhat = np.full_like(z, z.mean())
        mae, rmse = TR.aggregate_metrics(z, zhat)
        assert abs(rmse - z.std()) < 1e-12
        assert mae <= rmse

    def test_mae_never_exceeds_rmse(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            z = rng.uniform(0, 100, 10)
            zhat = rng.uniform(0, 100, 10)
            mae, rmse = TR.aggregate_metrics(z, zhat)
            assert mae <= rmse + 1e-12

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            TR.aggregate_metrics([], [])


class TestTrainLoop:
    def test_single_epoch_smoke(self, tiny_dirs, tmp_path):
        cfg = tiny_config(tiny_dirs, tmp_path / "run")
        result = TR.train(cfg)
        assert result.checkpoint_path.exists()
        assert result.graph_path.exists()
        assert len(result.history) == 1
        log = result.log_path.read_text(encoding="utf-8").strip().splitlines()
        assert len(log) == 1 and log[0].startswith("epoch=0 ")
        saved = load_checkpoint(result.checkpoint_path)
        graph = M.GraphDescription.from_text(result.graph_path.read_text(encoding="utf-8"))
        assert {s.name for s in graph.parameters()} <= set(saved)

    def test_seeded_run_is_deterministic(self, tiny_dirs, tmp_path):
        a = TR.train(tiny_config(tiny_dirs, tmp_path / "a"))
        b = TR.train(tiny_config(tiny_dirs, tmp_path / "b"))
        assert a.history[0].loss == b.history[0].loss
        assert a.history[0].val_mae == b.history[0].val_mae

    def test_best_checkpoint_never_worse_than_first_epoch(self, tiny_dirs, tmp_path):
        cfg = tiny_config(tiny_dirs, tmp_path / "run3", epochs=3)
        result = TR.train(cfg)
        assert result.best_val_mae <= result.history[0].val_mae
        assert result.history[result.best_epoch].val_mae == result.best_val_mae
        # the validation MAE is the one `icc eval` reports for the kept checkpoint
        graph, params = TR.load_model(result.checkpoint_path)
        assert TR.evaluate(graph, params, cfg.val_dir).mae == result.best_val_mae

    def test_precision_64_checkpoint_leaves_default_dtype(self, tiny_dirs, tmp_path):
        before = T.default_dtype()
        result = TR.train(tiny_config(tiny_dirs, tmp_path / "run64", precision=64))
        assert T.default_dtype() is before
        saved = load_checkpoint(result.checkpoint_path)
        assert {a.dtype for a in saved.values()} == {np.dtype(np.float64)}

    def test_unconverged_solves_are_reported(self, tiny_dirs, tmp_path):
        result = TR.train(tiny_config(tiny_dirs, tmp_path / "iters1", width_scale=0.25,
                                      sinkhorn_iters=1))
        stats = result.history[0]
        # every crop of the tiny set holds heads, so each sample is one solve
        assert stats.solves == 6
        assert 0 < stats.unconverged <= stats.solves
        assert stats.marginal_error_max > 0
        log = result.log_path.read_text(encoding="utf-8").strip()
        assert log == stats.line()
        assert [kv.split("=")[0] for kv in log.split()] == [
            "epoch", "loss", "l_c", "l_ot", "l_tv", "val_mae", "lr"]

    def test_a_step_lets_go_of_the_last_before_its_forward(self, tiny_dirs, tmp_path,
                                                          monkeypatch):
        # two steps of 3 crops: once the optimizer has used step 1's output
        # and parameter gradients, nothing holds them through step 2's forward
        refs, alive_at_forward = [], []
        forward, backward = M.forward, M.ForwardResult.backward

        def recording_forward(*args, **kw):
            run = forward(*args, **kw)
            if kw.get("requires_grad"):
                alive_at_forward.append([r() is not None for r in refs])
                refs.append(weakref.ref(run.output.data))
            return run

        def recording_backward(self, seed):
            grads = backward(self, seed)
            refs.extend(weakref.ref(g) for g in grads.values())
            return grads

        monkeypatch.setattr(M, "forward", recording_forward)
        monkeypatch.setattr(M.ForwardResult, "backward", recording_backward)
        gc.collect()
        gc.disable()
        try:
            TR.train(tiny_config(tiny_dirs, tmp_path / "steps"))
        finally:
            gc.enable()
        assert len(alive_at_forward) == 2
        assert alive_at_forward[0] == []
        assert len(alive_at_forward[1]) > 100 and not any(alive_at_forward[1])

    def test_lr_decays_per_epoch(self, tiny_dirs, tmp_path):
        cfg = tiny_config(tiny_dirs, tmp_path / "run4", epochs=3, lr_gamma=0.5)
        result = TR.train(cfg)
        lrs = [s.lr for s in result.history]
        assert lrs == [cfg.learning_rate, cfg.learning_rate * 0.5, cfg.learning_rate * 0.25]


@pytest.fixture(scope="module")
def trained(tiny_dirs, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    result = TR.train(tiny_config(tiny_dirs, out))
    return TR.load_model(result.checkpoint_path)


class TestEvaluateAndInfer:
    def test_evaluate_is_pure(self, trained, tiny_dirs):
        graph, params = trained
        a = TR.evaluate(graph, params, tiny_dirs / "val")
        b = TR.evaluate(graph, params, tiny_dirs / "val")
        assert a.records == b.records
        assert a.mae == b.mae and a.rmse == b.rmse
        assert a.mae <= a.rmse

    def test_latency_percentiles(self, trained, tiny_dirs):
        graph, params = trained
        res = TR.evaluate(graph, params, tiny_dirs / "val")
        assert len(res.records) == 3
        assert 0 < res.seconds_median <= res.seconds_max
        assert res.seconds_per_image <= res.seconds_max
        assert [kv.split("=")[0] for kv in res.line().split()] == [
            "n", "mae", "rmse", "sec_per_image", "sec_median", "sec_max"]

    def test_aggregates_recomputable_from_records(self, trained, tiny_dirs):
        graph, params = trained
        res = TR.evaluate(graph, params, tiny_dirs / "val")
        z = [r[1] for r in res.records]
        zhat = [r[2] for r in res.records]
        mae, rmse = TR.aggregate_metrics(z, zhat)
        assert mae == res.mae and rmse == res.rmse

    def test_infer_writes_readable_density(self, trained, tiny_dirs, tmp_path):
        graph, params = trained
        image = sorted((tiny_dirs / "val").glob("*.ppm"))[0]
        out = tmp_path / "pred.iccd"
        count = TR.infer(graph, params, image, out)
        dmap = D.read_density(out)
        assert dmap.values.shape == (8, 8)  # 64/8
        assert abs(float(dmap.values.sum()) - count) < 1e-3

    def test_infer_upsampled_preserves_count(self, trained, tiny_dirs, tmp_path):
        graph, params = trained
        image = sorted((tiny_dirs / "val").glob("*.ppm"))[0]
        small = tmp_path / "s.iccd"
        big = tmp_path / "b.iccd"
        c1 = TR.infer(graph, params, image, small)
        c2 = TR.infer(graph, params, image, big, upsample=True)
        assert c1 == c2
        full = D.read_density(big)
        assert full.values.shape == (64, 64)
        if c1 > 0:
            assert abs(float(full.values.sum()) - c1) / c1 < 1e-3

    def test_zeroed_final_decoder_gives_zero_count(self, trained, tiny_dirs, tmp_path):
        graph, params = trained
        params = dict(params)
        last = max(i for i in range(1, 10) if f"decoder.conv{i}.w" in params)
        params[f"decoder.conv{last}.w"] = np.zeros_like(params[f"decoder.conv{last}.w"])
        params[f"decoder.conv{last}.b"] = np.zeros_like(params[f"decoder.conv{last}.b"])
        image = sorted((tiny_dirs / "val").glob("*.ppm"))[0]
        out = tmp_path / "zero.iccd"
        count = TR.infer(graph, params, image, out)
        assert count == 0.0


class TestCLI:
    def test_synth_writes_pairs(self, tmp_path, capsys):
        rc = cli_main(["synth", "--out-dir", str(tmp_path / "ds"), "--n", "5",
                       "--height", "40", "--width", "40", "--seed", "3"])
        assert rc == 0
        files = list((tmp_path / "ds").iterdir())
        assert len(files) == 10

    def test_synth_same_seed_identical_bytes(self, tmp_path):
        for sub in ("a", "b"):
            cli_main(["synth", "--out-dir", str(tmp_path / sub), "--n", "2",
                      "--height", "32", "--width", "32", "--seed", "7"])
        for f in sorted((tmp_path / "a").iterdir()):
            assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()

    def test_flops_prints_totals(self, capsys):
        rc = cli_main(["flops", "--height", "256", "--width", "256"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "G" in out and "multiplies" in out

    def test_flops_ablation_reduces_total(self, capsys):
        cli_main(["flops", "--height", "256", "--width", "256"])
        full = capsys.readouterr().out
        cli_main(["flops", "--height", "256", "--width", "256", "--ablation", "no-inception"])
        reduced = capsys.readouterr().out

        def total(txt):
            line = [ln for ln in txt.splitlines() if ln.startswith("operations")][0]
            return float(line.split(":")[1].strip().split()[0])

        assert total(reduced) < total(full)

    def test_flops_repeatable(self, capsys):
        cli_main(["flops", "--height", "128", "--width", "128", "--records"])
        a = capsys.readouterr().out
        cli_main(["flops", "--height", "128", "--width", "128", "--records"])
        b = capsys.readouterr().out
        assert a == b

    def test_config_error_exit_code(self, tmp_path, capsys):
        rc = cli_main(["train", "--train-dir", str(tmp_path), "--val-dir", str(tmp_path),
                       "--set", "epochs=zero"])
        assert rc == 2
        assert cli_main(["flops", "--width-scale", "nan"]) == 2
        rc = cli_main(["train", "--train-dir", str(tmp_path), "--val-dir", str(tmp_path),
                       "--set", "lr_gamma=1e-200", "--set", "epochs=3"])
        assert rc == 2 and "lr_gamma" in capsys.readouterr().err
        # finite and positive, but a layer's base width times it overflows
        assert cli_main(["flops", "--width-scale", "1e308"]) == 2
        assert "width scale 1e+308" in capsys.readouterr().err

    def test_data_error_exit_code(self, tmp_path, capsys):
        rc = cli_main(["train", "--train-dir", str(tmp_path / "nope"),
                       "--val-dir", str(tmp_path / "nope"), "--out-dir", str(tmp_path)])
        assert rc == 3

    def test_infer_unreadable_image_exit_code(self, tiny_dirs, tmp_path, capsys):
        out = tmp_path / "m"
        TR.train(tiny_config(tiny_dirs, out))
        bad = tmp_path / "missing.ppm"
        rc = cli_main(["infer", "--checkpoint", str(out / "model.iccw"),
                       "--image", str(bad), "--output", str(tmp_path / "o.iccd")])
        assert rc == 3

    @pytest.mark.parametrize("text, reason", [
        ("layer x kind=relu\n", "ICCGRAPH"),
        ("ICCGRAPH 1\nablation\n", "truncated"),
        ("ICCGRAPH 1\nablation none\ntap out\n", "truncated"),
        ("ICCGRAPH 1\nablation none\nlayer\n", "truncated"),
        ("ICCGRAPH 1\nablation none\nnode x kind=relu\n", "unrecognized"),
        (f"{GRAPH_HEAD}layer x kind=warp inputs=input\n", "unknown kind 'warp'"),
        (f"{GRAPH_HEAD}layer x kind=conv inputs=input cin=3 kh=1 kw=1 stride_h=1 stride_w=1 "
         "pad_h=0 pad_w=0\n", "needs attribute(s) cout"),
        ("ICCGRAPH 1\ntap output input\nlayer input kind=input channels=three\n",
         "channels='three' is not int"),
        (f"{GRAPH_HEAD}layer x kind=add inputs=input\n", "takes 2 inputs, got 1"),
        (f"{GRAPH_HEAD}layer x kind=relu inputs=nope\n", "'nope' names no earlier layer"),
        (f"{GRAPH_HEAD}layer x kind=interpolate inputs=input method=bilinear match=later\n"
         "layer later kind=relu inputs=input\n", "'later' names no earlier layer"),
        ("ICCGRAPH 1\ntap output ghost\nlayer input kind=input channels=3\n",
         "tap output names no layer"),
        ("ICCGRAPH 1\nablation none\nlayer input kind=input channels=3\n", "tap output"),
        (f"{GRAPH_HEAD}tap output x\nlayer x kind=relu inputs=input\n",
         "tap output is bound to two layers ('input', 'x')"),
        (f"{GRAPH_HEAD}layer x kind=relu inputs=input tap=output\n",
         "tap output is bound to two layers ('input', 'x')"),
        (f"{GRAPH_HEAD}layer x kind=relu inputs=input tap=\n", "layer x: empty tap name"),
        (f"{GRAPH_HEAD}layer x kind=scalar_add inputs=input value=nan\n",
         "attribute value=nan is not a finite float"),
        (f"{GRAPH_HEAD}layer x kind=scalar_add inputs=input value=-inf\n",
         "attribute value=-inf is not a finite float"),
        (f"{GRAPH_HEAD}layer x kind=scalar_add inputs=input value=1e999\n",
         "attribute value=inf is not a finite float"),
    ], ids=["no-header", "ablation", "tap", "layer", "unknown-line", "unknown-kind",
            "missing-attr", "attr-type", "arity", "input-name", "match-name", "tap-name",
            "no-output-tap", "tap-rebound", "tap-token-disagrees", "tap-token-empty", "value-nan",
            "value-inf", "value-1e999"])
    def test_malformed_graph_exit_code(self, tmp_path, text, reason):
        ckpt = tmp_path / "model.iccw"
        save_checkpoint(ckpt, {"w": np.zeros(1, np.float32)})
        graph = tmp_path / "bad.graph"
        graph.write_text(text, encoding="utf-8")
        proc = run_infer_process(ckpt, graph, tmp_path / "unused.ppm", tmp_path / "o.iccd")
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
        assert reason in proc.stderr

    @pytest.mark.parametrize("args, message", [
        (["flops", "--height", "0"],
         "a 0x1920 input (padded to 0x1920) does not fit: stem.conv1.conv"),
        (["flops", "--height", "-5"],
         "a -5x1920 input (padded to 0x1920) does not fit: stem.conv1.conv"),
        (["flops", "--height", "16", "--width", "16"],
         "a 16x16 input (padded to 32x32) does not fit: context.s6.pool"),
        (["synth", "--count-min", "10", "--count-max", "5"], "invalid count range 10..5"),
        (["synth", "--height", "0"], "image size 0x256 is below the 8x8 minimum"),
        (["synth", "--n", "-1"], "invalid image count -1: need n >= 0"),
        (["synth", "--seed", "-1"], "seed must be >= 0, got -1"),
    ], ids=["flops-0", "flops-negative", "flops-16x16", "synth-range", "synth-size", "synth-n",
            "synth-seed"])
    def test_bad_size_or_range_exit_code(self, tmp_path, args, message):
        if args[0] == "synth":
            args = args + ["--out-dir", tmp_path / "synth"]
        proc = run_cli_process(*args)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert message in proc.stderr

    MISMATCHES = {
        "wider-checkpoint": "misshapen: stem.conv1.conv.w (16, 3, 3, 3) (graph: (8, 3, 3, 3))",
        "missing-weight": "1 missing: decoder.conv1.w",
        "missing-running-mean": "1 missing: stem.conv1.bn.running_mean",
        "bias-length": "misshapen: decoder.conv1.b (5,) (graph: (64,))",
        "image-16x16": "16x16 image (padded to 32x32) does not fit: context.s6.pool",
        "image-0x0": "0x0 image (padded to 0x0) does not fit: stem.conv1.conv",
        "float64-array": "1 not float32: decoder.conv1.b (float64)",
        "repeated-name": "parameter 'decoder.conv1.b' appears twice",
        "output-not-map": "output tap stem.pool2 gives (48, 8, 8), not a (1, 8, 8) density map",
    }

    @pytest.mark.parametrize("case", list(MISMATCHES))
    def test_mismatched_model_input_exit_code(self, tmp_path, case):
        graph = M.build_icc(M.ModelConfig(width_scale=0.25))
        params = M.init_parameters(graph, 0)
        if case == "wider-checkpoint":
            params = M.init_parameters(M.build_icc(M.ModelConfig(width_scale=0.5)), 0)
        elif case == "missing-weight":
            del params["decoder.conv1.w"]
        elif case == "missing-running-mean":
            del params["stem.conv1.bn.running_mean"]
        elif case == "bias-length":
            params["decoder.conv1.b"] = np.zeros(5, np.float32)
        elif case == "float64-array":
            params["decoder.conv1.b"] = params["decoder.conv1.b"].astype(np.float64)
        elif case == "output-not-map":
            graph.taps["output"] = "stem.pool2"
        extent = {"image-16x16": 16, "image-0x0": 0}.get(case, 64)
        image = tmp_path / "scene.ppm"
        D.write_ppm(image, np.full((3, extent, extent), 0.5, np.float32))
        ckpt = tmp_path / "model.iccw"
        save_checkpoint(ckpt, params)
        if case == "repeated-name":  # a second record appended after the first file's
            extra = tmp_path / "extra.iccw"
            save_checkpoint(extra, {"decoder.conv1.b": params["decoder.conv1.b"]})
            ckpt.write_bytes(ckpt.read_bytes() + extra.read_bytes()[8:])
        (tmp_path / "model.graph").write_text(graph.to_text(), encoding="utf-8")
        proc = run_infer_process(ckpt, tmp_path / "model.graph", image, tmp_path / "o.iccd")
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
        assert self.MISMATCHES[case] in proc.stderr

    def test_cli_train_eval_round_trip(self, tiny_dirs, tmp_path, capsys):
        out = tmp_path / "cli_run"
        rc = cli_main([
            "train", "--train-dir", str(tiny_dirs / "train"), "--val-dir", str(tiny_dirs / "val"),
            "--out-dir", str(out), "--width-scale", "0.125", "--seed", "1",
            "--set", "epochs=1", "--set", "crop_size=64", "--set", "batch_size=3",
            "--set", "sinkhorn_iters=50",
        ])
        assert rc == 0
        rc = cli_main(["eval", "--checkpoint", str(out / "model.iccw"),
                       "--data-dir", str(tiny_dirs / "val")])
        assert rc == 0
        assert "mae=" in capsys.readouterr().out


class TestDivergenceHandling:
    def test_numeric_error_names_epoch_step_samples_and_layer(self, tiny_dirs, tmp_path,
                                                               monkeypatch):
        from icc.errors import NumericError

        real = M.init_parameters

        def poisoned(*args, **kwargs):
            params = real(*args, **kwargs)
            params["stem.conv1.conv.w"][0, 0, 1, 1] = np.inf
            return params

        monkeypatch.setattr(M, "init_parameters", poisoned)
        with pytest.raises(NumericError) as raised:
            TR.train(tiny_config(tiny_dirs, tmp_path / "inf"))
        message = str(raised.value)
        head, _, rest = message.partition(": ")
        assert head.startswith("epoch 0 step 0 (samples ")
        ids = head.removeprefix("epoch 0 step 0 (samples ").removesuffix(")").split(", ")
        assert len(ids) == 3  # the batch size
        assert set(ids) <= {f"synth_100_{i:04d}" for i in range(6)}
        assert rest.startswith("stem.conv1.conv: conv2d: non-finite")

    def test_non_finite_loss_aborts_keeping_checkpoint(self, tiny_dirs, tmp_path, monkeypatch):
        from icc.errors import NumericError

        calls = {"n": 0}
        real = TR._sample_loss

        def poisoned(target, pred, cfg):
            calls["n"] += 1
            if calls["n"] > 8:  # after the first epoch's six samples
                return float("nan"), (0.0, 0.0, 0.0), np.zeros_like(pred), None
            return real(target, pred, cfg)

        monkeypatch.setattr(TR, "_sample_loss", poisoned)
        cfg = tiny_config(tiny_dirs, tmp_path / "diverge", epochs=3)
        with pytest.raises(NumericError, match="diverged"):
            TR.train(cfg)
        # the epoch-0 checkpoint survives the abort
        assert (tmp_path / "diverge" / "model.iccw").exists()
        graph, params = TR.load_model(tmp_path / "diverge" / "model.iccw")
        assert params

"""Architecture structure, execution shapes, ablations and initialization."""

import dataclasses

import numpy as np
import pytest

from icc import model as M
from icc import tensor as T
from icc import train as TR
from icc.errors import ConfigError, DataError, NumericError, ShapeError
from icc.flops import count_graph


def small_config(**kw):
    return M.ModelConfig(width_scale=kw.pop("width_scale", 0.25), **kw)


def run_image(graph, params, h, w, seed=0, **kw):
    x = np.random.default_rng(seed).uniform(0, 1, (1, 3, h, w)).astype(np.float32)
    return M.forward(graph, params, x, **kw)


def legacy_text(graph):
    """``graph.to_text()`` in the older format, which also marked each tapped
    layer with a ``tap=<name>`` token between its attributes and its block."""
    tap_of = {n: t for t, n in graph.taps.items()}
    lines = []
    for ln in graph.to_text().splitlines():
        fields = ln.split()
        if fields[0] == "layer" and fields[1] in tap_of:
            block = [f for f in fields if f.startswith("block=")]
            fields = [f for f in fields if f not in block] + [f"tap={tap_of[fields[1]]}"] + block
        lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"


def tapping(graph, names):
    """``graph`` with a tap, named after its layer, on each of ``names``."""
    return dataclasses.replace(graph, taps={**graph.taps, **{n: n for n in names}})


class TestGraphStructure:
    def test_backbone_has_twelve_blocks(self):
        graph = M.build_icc(M.ModelConfig())
        blocks = list(dict.fromkeys(l.block for l in graph.layers if l.block))
        assert len(blocks) == 12
        assert blocks[:7] == [
            "stem.conv1", "stem.conv2", "stem.conv3", "stem.pool1",
            "stem.conv4", "stem.conv5", "stem.pool2",
        ]
        assert blocks[7:] == [
            "inception_a1", "inception_a2", "inception_a3", "reduction_b", "inception_c1",
        ]

    def test_taps_exist_and_point_at_real_layers(self):
        graph = M.build_icc(M.ModelConfig())
        names = {l.name for l in graph.layers}
        for tap in ("Feature1", "Feature2", "Feature3", "output"):
            assert graph.taps[tap] in names

    def test_feature1_is_second_maxpool(self):
        graph = M.build_icc(M.ModelConfig())
        layer = graph.layer_map()[graph.taps["Feature1"]]
        assert layer.kind == "maxpool"
        assert layer.name == "stem.pool2"

    def test_inception_channel_arithmetic(self):
        graph = M.build_icc(M.ModelConfig())
        report = count_graph(graph, (3, 256, 256))
        shapes = {l.name: l.out_shape for l in report.layers}
        assert shapes["stem.pool2"] == (192, 32, 32)
        assert shapes["inception_a1.concat"] == (256, 32, 32)  # 64+64+96+32
        assert shapes["inception_a2.concat"] == (288, 32, 32)  # 64+64+96+64
        assert shapes["inception_a3.concat"] == (288, 32, 32)
        assert shapes["reduction_b.concat"] == (768, 16, 16)  # 384+96+288
        assert shapes["inception_c1.concat"] == (768, 16, 16)  # 4 x 192
        assert shapes["fusion"] == (1440, 32, 32)  # 2*192 + 288 + 768
        assert shapes["density"] == (1, 32, 32)

    def test_inception_c_uses_only_factorized_kernels(self):
        graph = M.build_icc(M.ModelConfig())
        for l in graph.layers:
            if l.block == "inception_c1" and l.kind == "conv":
                assert (l.attrs["kh"], l.attrs["kw"]) in ((1, 1), (1, 7), (7, 1)), l.name
            if l.block == "inception_c1":
                assert l.kind in ("conv", "batchnorm", "relu", "avgpool", "concat")

    def test_graph_text_round_trip(self):
        graph = M.build_icc(M.ModelConfig(width_scale=0.5, use_contextual_module=True))
        text = graph.to_text()
        back = M.GraphDescription.from_text(text)
        assert back.taps == graph.taps
        assert back.ablation == graph.ablation
        assert len(back.layers) == len(graph.layers)
        for a,ipt in zip(back.layers, graph.layers):
            assert a == ipt
        assert back.to_text() == text

    @pytest.mark.parametrize("ablation", TR.ABLATIONS)
    def test_legacy_tap_tokens_load_as_tap_lines(self, ablation):
        graph = M.build_icc(TR.TrainConfig(ablation=ablation, width_scale=0.25).model_config())
        text = legacy_text(graph)
        assert text.count(" tap=") == len(graph.taps)
        assert M.GraphDescription.from_text(text) == graph

    def test_text_has_no_tap_tokens(self):
        assert " tap=" not in M.build_icc(small_config()).to_text()

    def test_text_header_required(self):
        with pytest.raises(ValueError, match="ICCGRAPH"):
            M.GraphDescription.from_text("layer x kind=conv\n")


class TestShapes:
    def test_output_stride_8_when_divisible(self):
        cfg = small_config()
        graph = M.build_icc(cfg)
        params = M.init_parameters(graph, 0)
        for h, w in [(64, 64), (96, 64), (128, 160)]:
            run = run_image(graph, params, h, w)
            assert run.output.shape == (1, 1, h // 8, w // 8)

    def test_predict_density_pads_and_crops(self):
        cfg = small_config()
        graph = M.build_icc(cfg)
        params = M.init_parameters(graph, 0)
        img = np.random.default_rng(3).uniform(0, 1, (3, 100, 130)).astype(np.float32)
        out = M.predict_density(graph, params, img)
        assert out.shape == (13, 17)  # ceil(100/8), ceil(130/8)

    def test_full_width_block_shapes_execute(self):
        graph = M.build_icc(M.ModelConfig())
        params = M.init_parameters(graph, 0)
        concats = ["inception_a1.concat", "reduction_b.concat", "inception_c1.concat"]
        run = run_image(tapping(graph, concats), params, 128, 128)
        assert run.taps["inception_a1.concat"].shape == (1, 256, 16, 16)
        assert run.taps["reduction_b.concat"].shape == (1, 768, 8, 8)
        assert run.taps["inception_c1.concat"].shape == (1, 768, 8, 8)
        assert run.taps["Feature1"].shape == (1, 192, 16, 16)
        assert run.taps["Feature2"].shape == (1, 288, 16, 16)
        assert run.taps["Feature3"].shape == (1, 768, 8, 8)
        assert run.output.shape == (1, 1, 16, 16)

    def test_analyzer_shapes_match_execution(self):
        cfg = small_config()
        graph = M.build_icc(cfg)
        report = count_graph(graph, (3, 64, 96))
        shapes = {l.name: l.out_shape for l in report.layers}
        # a float32 input runs in the parameters' dtype, through every layer
        for dtype in (np.float32, np.float64):
            params = M.init_parameters(graph, 0, dtype)
            run = run_image(tapping(graph, shapes), params, 64, 96)
            for name in shapes:
                t = run.taps[name]
                assert shapes[name] == t.shape[1:], name
                assert t.dtype == dtype, (name, t.dtype)

    def test_wrong_channel_count_rejected(self):
        cfg = small_config()
        graph = M.build_icc(cfg)
        params = M.init_parameters(graph, 0)
        with pytest.raises(ShapeError, match="channels"):
            M.forward(graph, params, np.zeros((1, 4, 64, 64), dtype=np.float32))

    def test_layer_errors_name_the_layer(self):
        graph = M.build_icc(small_config())
        params = M.init_parameters(graph, 0)
        with pytest.raises(ShapeError, match=r"^input: expects 3 channels, got 4 \(dim 1\)$"):
            M.forward(graph, params, np.zeros((1, 4, 64, 64), dtype=np.float32))
        # NaN, not inf: an inf weight times the zero padding warns in matmul first
        params["inception_a2.b3_2.conv.w"][0, 0, 0, 0] = np.nan
        with pytest.raises(NumericError,
                           match="^inception_a2.b3_2.conv: conv2d: non-finite values in output$"):
            run_image(graph, params, 64, 64)

    def test_mismatched_parameters_rejected(self):
        graph = M.build_icc(small_config())
        params = M.init_parameters(graph, 0)
        params["stray.w"] = np.zeros(1, np.float32)
        del params["decoder.conv1.b"]
        with pytest.raises(DataError, match="1 missing: decoder.conv1.b; 1 extra: stray.w"):
            M.forward(graph, params, np.zeros((1, 3, 64, 64), dtype=np.float32))

    def test_ops_looked_up_when_they_run(self, monkeypatch):
        # a wrapper installed on icc.tensor after import must see every op
        ops = {"conv2d", "batchnorm2d", "maxpool2d", "avgpool2d", "adaptive_avgpool2d",
               "interpolate", "upsample", "concat_channels", "channel_sum", "relu", "sigmoid",
               "add", "sub", "mul", "div"}
        called = set()
        for op in ops:
            def wrapped(*args, _op=op, _real=getattr(T, op), **kw):
                called.add(_op)
                return _real(*args, **kw)
            monkeypatch.setattr(T, op, wrapped)
        graph = M.build_icc(small_config())
        M.forward(graph, M.init_parameters(graph, 0), np.ones((1, 3, 64, 64), np.float32))
        assert called == ops


class TestContextualModule:
    def _context_graph(self, channels, scales):
        b = M._Builder(1.0)
        b.emit("input", "input", (), dict(channels=channels), channels=channels)
        out = M._contextual_module(b, "input", tuple(scales))
        return M.GraphDescription(layers=b.layers, taps={"output": out})

    def test_single_scale_constant_base(self):
        g = self._context_graph(3, [1])
        params = M.init_parameters(g, 0)
        x = np.full((1, 3, 8, 8), 0.5, dtype=np.float32)
        run = M.forward(tapping(g, ["context.s1.up"]), params, x)
        assert run.output.shape == (1, 6, 8, 8)  # 2C channels
        up = run.taps["context.s1.up"].data
        assert np.abs(up - up.mean(axis=(2, 3), keepdims=True)).max() < 1e-6

    def test_zero_convs_give_concat_base_zero(self):
        g = self._context_graph(4, [1, 2])
        params = M.init_parameters(g, 0)
        for name in list(params):
            if name.startswith("context") and (name.endswith(".w") or name.endswith(".b")):
                params[name] = np.zeros_like(params[name])
        x = np.random.default_rng(0).uniform(0, 1, (1, 4, 8, 8)).astype(np.float32)
        run = M.forward(g, params, x)
        out = run.output.data
        assert np.abs(out[:, :4] - x).max() < 1e-7
        assert np.abs(out[:, 4:]).max() < 1e-7

    def test_full_scales_random_base(self):
        g = self._context_graph(6, [1, 2, 3, 6])
        params = M.init_parameters(g, 3)
        x = np.random.default_rng(4).normal(size=(2, 6, 24, 24)).astype(np.float32)
        gates = [f"context.s{s}.sigmoid" for s in (1, 2, 3, 6)]
        run = M.forward(tapping(g, gates), params, x)
        assert run.output.shape == (2, 12, 24, 24)
        assert np.isfinite(run.output.data).all()
        for name in gates:
            gate = run.taps[name].data
            assert np.all(gate > 0) and np.all(gate < 1)

    def test_scale_exceeding_extent_rejected(self):
        g = self._context_graph(3, [1, 6])
        params = M.init_parameters(g, 0)
        x = np.zeros((1, 3, 4, 4), dtype=np.float32)
        with pytest.raises(ShapeError):
            M.forward(g, params, x)


class TestDecoder:
    def _decoder_graph(self, cin=64, plan=(16, 8, 4)):
        b = M._Builder(1.0)
        b.emit("input", "input", (), dict(channels=cin), channels=cin)
        x = "input"
        for i, cout in enumerate(plan):
            x = b.conv(f"decoder.conv{i + 1}", x, cout, 1 if i == 0 else 3, bias=True)
            x = b.emit(f"decoder.relu{i + 1}", "relu", [x])
        out = b.emit("density", "channel_sum", [x], channels=1)
        return M.GraphDescription(layers=b.layers, taps={"output": out})

    def test_zero_input_zero_output(self):
        g = self._decoder_graph()
        params = M.init_parameters(g, 0)  # biases start at zero
        run = M.forward(g, params, np.zeros((1, 64, 8, 8), dtype=np.float32))
        assert np.all(run.output.data == 0.0)

    def test_output_non_negative(self):
        g = self._decoder_graph()
        params = M.init_parameters(g, 1)
        x = np.random.default_rng(5).normal(size=(2, 64, 8, 8)).astype(np.float32)
        run = M.forward(g, params, x)
        assert np.all(run.output.data >= 0.0)


class TestAblations:
    def test_no_inception_blocks(self):
        cfg = small_config(use_inception_blocks=False)
        graph = M.build_icc(cfg)
        assert graph.ablation == "no-inception"
        assert "Feature2" not in graph.taps and "Feature3" not in graph.taps
        params = M.init_parameters(graph, 0)
        run = run_image(graph, params, 64, 64)
        assert run.output.shape == (1, 1, 8, 8)

    def test_no_contextual_module(self):
        cfg = small_config(use_contextual_module=False)
        graph = M.build_icc(cfg)
        assert graph.ablation == "no-context"
        assert not any(l.name.startswith("context") for l in graph.layers)
        fusion = graph.layer_map()["fusion"]
        assert len(fusion.inputs) == 2  # Feature2 + upsampled Feature3
        full = M.build_icc(M.ModelConfig(use_contextual_module=False))
        report = count_graph(full, (3, 256, 256))
        shapes = {l.name: l.out_shape for l in report.layers}
        assert shapes["fusion"][0] == 288 + 768
        params = M.init_parameters(graph, 0)
        run = run_image(graph, params, 64, 64)
        assert run.output.shape == (1, 1, 8, 8)

    def test_both_paths_disabled_rejected(self):
        with pytest.raises(ConfigError, match="fusion"):
            M.build_icc(M.ModelConfig(use_contextual_module=False, use_inception_blocks=False))

    def test_config_validation(self):
        for width in (0.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="width"):
                M.ModelConfig(width_scale=width)


class TestInitialization:
    def test_same_seed_identical(self):
        graph = M.build_icc(small_config())
        a = M.init_parameters(graph, 42)
        b = M.init_parameters(graph, 42)
        assert a.keys() == b.keys()
        for k in a:
            assert np.array_equal(a[k], b[k])

    def test_different_seeds_differ(self):
        graph = M.build_icc(small_config())
        a = M.init_parameters(graph, 1)
        b = M.init_parameters(graph, 2)
        assert any(not np.array_equal(a[k], b[k]) for k in a)

    def test_bn_and_bias_defaults(self):
        graph = M.build_icc(small_config())
        params = M.init_parameters(graph, 0)
        assert np.all(params["stem.conv1.bn.gamma"] == 1.0)
        assert np.all(params["stem.conv1.bn.beta"] == 0.0)
        assert np.all(params["decoder.conv1.b"] == 0.0)

    def test_density_head_starts_small(self):
        # the conv feeding the summed output initializes at a fraction of the
        # fan-in scale so initial count predictions sit near zero
        graph = M.build_icc(small_config())
        params = M.init_parameters(graph, 0)
        last = max(i for i in range(1, 10) if f"decoder.conv{i}.w" in params)
        head = params[f"decoder.conv{last}.w"]
        body = params["decoder.conv1.w"]
        fan_head = np.prod(head.shape[1:])
        fan_body = np.prod(body.shape[1:])
        assert head.std() < 0.1 * np.sqrt(2.0 / fan_head)
        assert abs(body.std() - np.sqrt(2.0 / fan_body)) < 0.1 * np.sqrt(2.0 / fan_body)

    def test_activations_finite_on_random_input(self):
        graph = M.build_icc(small_config())
        params = M.init_parameters(graph, 7)
        run = run_image(graph, params, 64, 64, seed=9)
        assert np.isfinite(run.output.data).all()

    def test_parameter_count_below_vgg16_frontend(self):
        full = M.build_icc(M.ModelConfig())
        vgg = M.build_vgg16_frontend()
        assert M.parameter_count(full) < M.parameter_count(vgg)


class TestFusionPermutation:
    def test_permuting_taps_and_decoder_channels_is_invariant(self):
        cfg = small_config()
        graph = M.build_icc(cfg)
        params = M.init_parameters(graph, 11)
        x = np.random.default_rng(12).uniform(0, 1, (1, 3, 64, 64)).astype(np.float32)
        base = M.forward(graph, params, x).output.data

        fusion = graph.layer_map()["fusion"]
        report = count_graph(graph, (3, 64, 64))
        shapes = {l.name: l.out_shape for l in report.layers}
        sizes = [shapes[src][0] for src in fusion.inputs]
        # rotate the fusion inputs by one
        perm = [1, 2, 0]
        new_inputs = tuple(fusion.inputs[i] for i in perm)
        layers = [
            dataclasses.replace(l, inputs=new_inputs) if l.name == "fusion" else l
            for l in graph.layers
        ]
        permuted = M.GraphDescription(layers=layers, taps=graph.taps, ablation=graph.ablation)

        starts = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
        blocks = [np.arange(starts[i], starts[i + 1]) for i in range(len(sizes))]
        order = np.concatenate([blocks[i] for i in perm])
        params2 = dict(params)
        params2["decoder.conv1.w"] = params["decoder.conv1.w"][:, order]

        out = M.forward(permuted, params2, x).output.data
        assert np.abs(out - base).max() < 1e-5

    def test_count_is_sum_of_map(self):
        cfg = small_config()
        graph = M.build_icc(cfg)
        params = M.init_parameters(graph, 0)
        run = run_image(graph, params, 64, 64)
        dmap = run.output.data[0, 0]
        assert abs(dmap.sum() - run.output.data.sum()) < 1e-6

"""Operation counting: golden cases, composition, scaling laws, comparisons."""

import random

import numpy as np
import pytest

from icc import model as M
from icc.errors import ShapeError
from icc.flops import FlopReport, count_conv, count_graph, factorization_savings, gformat


class TestCountConv:
    def test_standard_3x3_golden_case(self):
        # 3x3 kernel, 3 input channels, 64 outputs, valid on a 4x4 image
        m, a = count_conv(3, 64, 3, 3, 2, 2)
        assert m == 6912 and a == 6656
        assert m + a == 13568

    def test_factorized_golden_case(self):
        # 1x1 collapse to one channel, then 3x3 up to 64 channels
        first = count_conv(3, 1, 1, 1, 4, 4)
        second = count_conv(1, 64, 3, 3, 2, 2)
        assert sum(first) == 80
        assert sum(second) == 4352
        assert sum(first) + sum(second) == 4432

    def test_unit_conv(self):
        m, a = count_conv(1, 1, 1, 1, 1, 1)
        assert m == 1 and a == 0

    def test_bias_adds_one_per_output(self):
        m0, a0 = count_conv(2, 3, 3, 3, 4, 4, bias=False)
        m1, a1 = count_conv(2, 3, 3, 3, 4, 4, bias=True)
        assert m1 == m0 and a1 == a0 + 3 * 4 * 4

    def test_counts_are_exact_integers(self):
        m, a = count_conv(192, 768, 7, 1, 135, 240)
        assert isinstance(m, int) and isinstance(a, int)


class TestFactorizationSavings:
    def test_reference_configuration(self):
        ratio = factorization_savings(3, 3, 64, 4, 4)
        assert abs(ratio - 0.673) < 0.005

    def test_degenerate_1x1_adds_cost(self):
        # a single-channel input gains nothing from the collapse stage
        assert factorization_savings(1, 1, 64, 4, 4) <= 0.0

    def test_monotone_in_input_channels(self):
        ratios = [factorization_savings(3, cin, 64, 8, 8) for cin in range(1, 33)]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            factorization_savings(2, 3, 8, 8, 8)


def single_conv_graph(cin, cout, k, h, w, stride=1, pad=0, bias=False):
    layers = [
        M.Layer("input", "input", (), dict(channels=cin)),
        M.Layer("conv", "conv", ("input",),
                dict(cin=cin, cout=cout, kh=k, kw=k, stride_h=stride, stride_w=stride,
                     pad_h=pad, pad_w=pad, bias=bias)),
    ]
    return M.GraphDescription(layers=layers, taps={"output": "conv"})


class TestCountGraph:
    def test_empty_graph(self):
        g = M.GraphDescription(layers=[M.Layer("input", "input", (), dict(channels=3))],
                               taps={})
        report = count_graph(g, (3, 8, 8), pad_rule=False)
        assert report.total_ops == 0

    def test_single_conv_matches_count_conv(self):
        g = single_conv_graph(3, 64, 3, 4, 4)
        report = count_graph(g, (3, 4, 4), pad_rule=False)
        assert report.total_ops == 13568
        assert report.total_multiplies == 6912

    def test_totals_sum_per_layer_records(self):
        graph = M.build_icc(M.ModelConfig(width_scale=0.25))
        report = count_graph(graph, (3, 64, 64))
        assert report.total_ops == sum(l.total for l in report.layers)
        assert report.total_multiplies == sum(l.multiplies for l in report.layers)

    def test_layer_order_invariance(self):
        graph = M.build_icc(M.ModelConfig(width_scale=0.25))
        report = count_graph(graph, (3, 64, 64))
        shuffled = list(report.layers)
        random.Random(0).shuffle(shuffled)
        clone = FlopReport(layers=shuffled, input_shape=report.input_shape,
                           padded_shape=report.padded_shape)
        assert clone.total_ops == report.total_ops

    def test_doubling_extents_quadruples_stride1_convs(self):
        graph = M.build_icc(M.ModelConfig())
        r1 = count_graph(graph, (3, 256, 256))
        r2 = count_graph(graph, (3, 512, 512))
        by_name_1 = {l.name: l for l in r1.layers}
        for l in r2.layers:
            if l.kind == "conv" and l.name.startswith("stem") and "conv1" not in l.name:
                assert l.total == 4 * by_name_1[l.name].total, l.name

    def test_pad_rule_mirrors_execution(self):
        graph = M.build_icc(M.ModelConfig())
        report = count_graph(graph, (3, 1080, 1920))
        assert report.padded_shape == (3, 1088, 1920)
        out = [l for l in report.layers if l.name == "density"][0]
        assert out.out_shape == (1, 136, 240)

    def test_ablation_counts_less_than_full(self):
        full = count_graph(M.build_icc(M.ModelConfig()), (3, 512, 512))
        for ablation in ("no-inception", "no-context"):
            reduced = count_graph(M.build_icc(M.ModelConfig(ablation=ablation)), (3, 512, 512))
            assert reduced.total_ops < full.total_ops
            assert reduced.total_multiplies < full.total_multiplies

    def test_full_model_below_vgg16_frontend(self):
        full = count_graph(M.build_icc(M.ModelConfig()), (3, 1080, 1920))
        vgg = count_graph(M.build_vgg16_frontend(), (3, 1080, 1920))
        assert full.total_ops < vgg.total_ops
        assert full.total_multiplies < vgg.total_multiplies

    def test_unresolvable_shape_names_layer(self):
        layers = [
            M.Layer("input", "input", (), dict(channels=3)),
            M.Layer("bad", "conv", ("input",),
                    dict(cin=3, cout=4, kh=9, kw=9, stride_h=1, stride_w=1,
                         pad_h=0, pad_w=0, bias=False)),
        ]
        g = M.GraphDescription(layers=layers, taps={})
        with pytest.raises(ShapeError, match="bad"):
            count_graph(g, (3, 4, 4), pad_rule=False)

    def test_report_formats(self):
        graph = M.build_icc(M.ModelConfig(width_scale=0.25))
        report = count_graph(graph, (3, 64, 64))
        table = report.table()
        assert "stem.conv1.conv" in table
        assert "convention" in table
        lines = report.lines()
        last = lines.strip().splitlines()[-1].split()
        assert last[0] == "TOTAL"
        assert int(last[-1]) == report.total_ops

    def test_gformat_two_decimals(self):
        assert gformat(125_530_000_000) == "125.53 G"
        assert gformat(13568) == "0.00 G"


class TestTable1Reproduction:
    """The published complexity column is stated in fused-MAC units; the
    multiply total is the commensurate figure (one multiply per
    inner-product term). The reference front ends below reproduce the
    published competitor numbers, anchoring the unit.
    """

    def test_vgg16_frontend_matches_published_mac_scale(self):
        vgg = count_graph(M.build_vgg16_frontend(), (3, 1080, 1920), pad_rule=False)
        # CSRNet/CAN front end: published complexity columns put the 10-conv
        # VGG-16 stem near 577 GMAC at 1080P
        assert abs(vgg.total_multiplies - 577e9) / 577e9 < 0.01

    def test_full_model_multiplies_near_published_value(self):
        graph = M.build_icc(M.ModelConfig())
        report = count_graph(graph, (3, 1080, 1920))
        assert abs(report.total_multiplies - 125.53e9) / 125.53e9 < 0.15

    def test_mul_add_total_is_roughly_twice_macs(self):
        graph = M.build_icc(M.ModelConfig())
        report = count_graph(graph, (3, 1080, 1920))
        ratio = report.total_ops / report.total_multiplies
        assert 1.9 < ratio < 2.1

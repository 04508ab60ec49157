"""Tests of the benchmark harness's own logic (no icc model runs here).

Kept out of the repository's default test collection (the file name does not
match test_*.py), so the repository suite is unchanged by the benchmark. Run
with: python3 -m pytest -q perfbench/harness_checks.py
"""

import types

import numpy as np
import pytest

import harness as H


def test_self_time_subtracts_direct_children_only():
    spans = [
        H.Span("root", 0.0, 10.0, -1, 1),
        H.Span("a", 1.0, 4.0, 0, 1),
        H.Span("a.inner", 2.0, 3.0, 1, 1),
        H.Span("b", 5.0, 9.0, 0, 1),
    ]
    assert H.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(H.self_times(spans)) == spans[0].duration


def _module_with_nested_calls():
    mod = types.ModuleType("fake_ops")
    exec(
        "def interpolate(x):\n    return [v * 2 for v in x]\n"
        "def upsample(x):\n    return interpolate(x)\n"
        "class Result:\n"
        "    def __init__(self, n):\n        self.n = n\n"
        "    def backward(self):\n        return self.n\n",
        mod.__dict__,
    )
    return mod


def test_tracer_nests_spans_and_restores_originals():
    mod = _module_with_nested_calls()
    originals = (mod.upsample, mod.interpolate, mod.Result.__dict__["backward"])
    tracer = H.Tracer("test")
    tracer.register(mod, "upsample", "ops.upsample")
    tracer.register(mod, "interpolate", "ops.interpolate", lambda a, k, r: len(r))
    tracer.register(mod.Result, "backward", "ops.backward")
    tracer.install(call=3)
    try:
        assert mod.upsample([1, 2]) == [2, 4]
        assert mod.Result(7).backward() == 7
    finally:
        tracer.uninstall()
    assert (mod.upsample, mod.interpolate, mod.Result.__dict__["backward"]) == originals

    up, interp, back = tracer.spans
    assert (up.name, interp.name, back.name) == ("ops.upsample", "ops.interpolate", "ops.backward")
    assert (up.parent, interp.parent, back.parent) == (-1, 0, -1)
    assert {s.call for s in tracer.spans} == {3}
    selfs = H.self_times(tracer.spans)
    # nested op time is counted once: the outer span keeps only its own part
    assert selfs[0] + selfs[1] == pytest.approx(up.duration)
    assert tracer.observed == {"ops.interpolate": [(3, 2)]}
    # uninstalled wrappers record nothing
    mod.upsample([1])
    assert len(tracer.spans) == 3


def test_tracer_records_a_span_when_the_call_raises():
    mod = types.ModuleType("fake_raise")
    exec("def boom():\n    raise ArithmeticError('nan')\n", mod.__dict__)
    tracer = H.Tracer("test")
    tracer.register(mod, "boom", "ops.boom")
    tracer.install(call=1)
    try:
        with pytest.raises(ArithmeticError):
            mod.boom()
    finally:
        tracer.uninstall()
    assert [s.name for s in tracer.spans] == ["ops.boom"]


@pytest.mark.parametrize(
    "n, expected_p",
    [(10, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0),
     (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond_it(n, expected_p):
    values = list(range(1, n + 1))[::-1]
    tail = H.tail_percentile(values)
    if expected_p is None:
        assert tail is None
        return
    p, value = tail
    assert p == expected_p
    assert sum(1 for v in values if v > value) >= 10
    assert value == -(-int(p * 10) * n // 1000)


def test_median_of_even_and_odd_counts():
    assert H.median([3.0, 1.0, 2.0]) == 2.0
    assert H.median([4.0, 1.0, 2.0, 3.0]) == 2.5


def test_density_check_flags_perturbed_prediction():
    rng = np.random.default_rng(0)
    ref = rng.uniform(0.0, 1e-3, size=(135, 240)).astype(np.float32)
    count = float(ref.sum(dtype=np.float64))
    assert H.check_density(ref.copy(), count, (1080, 1920), ref) == []
    # a float32 rounding-level difference passes
    close = ref * np.float32(1 + 1e-6)
    assert H.check_density(close, float(close.sum(dtype=np.float64)), (1080, 1920), ref) == []
    perturbed = ref.copy()
    perturbed[10, 20] += 0.01 * ref.max()
    assert H.check_density(perturbed, float(perturbed.sum(dtype=np.float64)), (1080, 1920), ref)


def test_density_check_flags_shape_nan_and_count():
    good = np.full((3, 4), 0.5, dtype=np.float32)
    assert H.check_density(good, 6.0, (17, 32)) == []
    assert H.check_density(good, 6.0, (25, 32))
    assert H.check_density(good, 6.0, (17, 40))
    bad = good.copy()
    bad[0, 0] = np.nan
    assert H.check_density(bad, 6.0, (17, 32))
    assert H.check_density(good, 7.0, (17, 32))


def test_loss_check_flags_nan_and_out_of_envelope():
    env = (10.0, 12.0)
    assert H.check_losses([11.0, 3.0, 0.5], 11.0, env) == []
    assert H.check_losses([11.0, float("nan")], 11.0, env)
    assert H.check_losses([11.0], float("nan"), env)
    assert H.check_losses([13.0], 13.0, env)


def test_envelope_is_mean_plus_minus_four_sd():
    lo, hi = H.envelope([1.0, 2.0, 3.0])
    assert (lo, hi) == pytest.approx((-2.0, 6.0))


def test_inputs_depend_only_on_the_seed(tmp_path):
    def make(seed, name):
        image, points = H.synth_scene(np.random.default_rng(seed), 64, 96, 7)
        H.write_ppm(tmp_path / f"{name}.ppm", image)
        H.write_points(tmp_path / f"{name}.pts", points)
        return (tmp_path / f"{name}.ppm").read_bytes(), (tmp_path / f"{name}.pts").read_bytes()

    assert make(5, "a") == make(5, "b")
    assert make(5, "a") != make(6, "c")
    image, points = H.synth_scene(np.random.default_rng(1), 64, 96, 7)
    assert image.shape == (3, 64, 96) and image.dtype == np.float32
    assert len(points) == 7 and 0.0 <= image.min() and image.max() <= 1.0


def test_iccd_reader_round_trip(tmp_path):
    grid = np.arange(12, dtype="<f4").reshape(3, 4)
    raw = b"ICCD" + np.array([1, 3, 4], dtype="<u4").tobytes() + grid.tobytes()
    (tmp_path / "m.iccd").write_bytes(raw)
    assert np.array_equal(H.read_iccd(tmp_path / "m.iccd"), grid)
    (tmp_path / "bad.iccd").write_bytes(raw[:-4])
    with pytest.raises(ValueError):
        H.read_iccd(tmp_path / "bad.iccd")

"""The five input parsers raise only DataError / ConfigError on malformed input.

The CLI maps those to exit codes 3 / 2, so any other exception here would end
an ``icc`` run in a traceback. Inputs are random bytes or text, alone or
behind a valid prefix so the fuzzing reaches past the header checks.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from icc import data as D
from icc import model as M
from icc import train as TR
from icc.checkpoint import load_checkpoint, save_checkpoint
from icc.errors import ConfigError, DataError, NumericError, ShapeError

FUZZ = settings(max_examples=60, deadline=None)


def _valid_checkpoint() -> bytes:
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "valid.iccw"
        save_checkpoint(path, {"conv.w": np.zeros((2, 1, 1, 1), np.float32)})
        return path.read_bytes()


VALID = {
    "graph": M.build_vgg16_frontend().to_text().encode("utf-8"),
    "iccw": _valid_checkpoint(),
    "ppm": b"P6\n2 1\n255\n" + bytes(6),
    "pts": b"ICCPTS 1\n1.0 2.0\n",
    "cfg": b"epochs=3\ncrop_size=128\n",
}


def fuzzed(fmt: str):
    """Random bytes; a cut of the valid file; or that cut plus random bytes."""
    valid = VALID[fmt]
    cut = st.integers(0, len(valid)).map(lambda n: valid[:n])
    return st.one_of(st.binary(max_size=64), cut, st.tuples(cut, st.binary(max_size=32)).map(
        lambda p: p[0] + p[1]))


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("parsers")


def write(directory: Path, name: str, raw: bytes) -> Path:
    path = directory / name
    path.write_bytes(raw)
    return path


@FUZZ
@given(raw=fuzzed("graph"))
@example(raw=b"ICCGRAPH 1\ntap output x\nlayer x kind=input channels=\xff\n")
def test_graph_text(scratch, raw):
    ckpt = write(scratch, "model.iccw", VALID["iccw"])
    try:
        TR.load_model(ckpt, write(scratch, "model.graph", raw))
    except DataError:
        pass


VALUES = {
    int: st.sampled_from([1, 1, 2, 3, 3, 0, -1]), float: st.sampled_from([1e-6, 2]),
    bool: st.booleans(), str: st.sampled_from(["bilinear", "nearest", "cubic", "x"]),
}


@st.composite
def graph_texts(draw):
    """Graphs of up to five layers of any kind, with attributes mostly of the
    right type and range; some are dropped, some take a bad value."""
    layers = [M.Layer("input", "input", (), {"channels": 3})]
    for i in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(sorted(M.KINDS)))
        spec = M.KINDS[kind]
        names = [l.name for l in layers]
        attrs = {k: draw(VALUES[t]) for k, t in spec.attrs.items() if draw(st.integers(0, 15))}
        attrs.update({k: draw(VALUES[t]) for k, t in spec.optional.items() if draw(st.booleans())})
        if "match" in attrs:
            attrs["match"] = draw(st.sampled_from(names + ["later"]))
        arity = spec.arity if spec.arity is not None else draw(st.integers(1, 3))
        inputs = tuple(draw(st.sampled_from(names)) for _ in range(arity))
        layers.append(M.Layer(f"l{i}", kind, inputs, attrs))
    output = draw(st.sampled_from([l.name for l in layers] + ["ghost"]))
    return M.GraphDescription(layers, {"output": output}).to_text()


@FUZZ
@given(text=graph_texts())
def test_graph_layers(text):
    """A graph that parses and whose shapes infer must also run."""
    try:
        graph = M.GraphDescription.from_text(text)
        M.infer_shapes(graph, (3, 32, 32))
    except (DataError, ShapeError):
        return
    params, image = M.init_parameters(graph, 0), np.ones((3, 32, 32), np.float32)
    try:
        M.forward(graph, params, M.pad_to_multiple(image)[None])
    except NumericError:  # e.g. a division by a difference of equal maps; exit code 4
        return
    try:
        M.predict_density(graph, params, image)
    except DataError:  # the output tap is not a density map
        pass


@FUZZ
@given(raw=fuzzed("iccw"))
@example(raw=b"ICCW")
@example(raw=b"ICCW\x01\x00\x00\x00\x02\x00\x00\x00\xff\xfe\x00\x00\x00\x00\x00")
def test_iccw(scratch, raw):
    try:
        load_checkpoint(write(scratch, "f.iccw", raw))
    except DataError:
        pass


@FUZZ
@given(raw=fuzzed("ppm"))
@example(raw=b"P6 -1 -1 255\n\x00\x00\x00")
@example(raw=b"P6 0 -4 255\n")
def test_ppm(scratch, raw):
    try:
        D.read_ppm(write(scratch, "f.ppm", raw))
    except DataError:
        pass


@FUZZ
@given(raw=fuzzed("pts"))
@example(raw=b"ICCPTS 1\n\xff 1.0\n")
def test_iccpts(scratch, raw):
    try:
        D.read_points(write(scratch, "f.pts", raw))
    except DataError:
        pass


@FUZZ
@given(raw=fuzzed("cfg"))
@example(raw=b"epochs=\xff\n")
def test_config(scratch, raw):
    try:
        TR.TrainConfig.from_file(write(scratch, "f.cfg", raw))
    except ConfigError:
        pass


@pytest.mark.parametrize("raw", [b"P6 -1 -1 255\n\x00\x00\x00", b"P6 3 -2 255\n"])
def test_ppm_negative_extents_named(scratch, raw):
    with pytest.raises(DataError, match="negative PPM extents"):
        D.read_ppm(write(scratch, "neg.ppm", raw))


def test_zero_size_ppm_reads_as_empty_image(scratch):
    # a 0x0 image is well-formed; predict_density is where it is refused
    assert D.read_ppm(write(scratch, "empty.ppm", b"P6\n0 0\n255\n")).shape == (3, 0, 0)

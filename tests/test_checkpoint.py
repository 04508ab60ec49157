"""ICCW checkpoint format: bit-exact round trips and corruption handling."""

import numpy as np
import pytest

from icc.checkpoint import load_checkpoint, save_checkpoint
from icc.errors import DataError
from icc.model import ModelConfig, build_icc, init_parameters


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    params = {
        "conv.w": rng.normal(size=(4, 3, 3, 3)).astype(np.float32),
        "conv.b": rng.normal(size=4).astype(np.float32),
        "stats.mean": rng.normal(size=7),  # float64
        "scalar": np.array(3.5, dtype=np.float32).reshape(()),
    }
    path = tmp_path / "m.iccw"
    save_checkpoint(path, params)
    back = load_checkpoint(path)
    assert list(back) == list(params)
    for k in params:
        assert back[k].dtype == params[k].dtype
        assert back[k].shape == params[k].shape
        assert back[k].tobytes() == params[k].tobytes()


def test_magic_and_version(tmp_path):
    path = tmp_path / "m.iccw"
    save_checkpoint(path, {"a": np.zeros(2, dtype=np.float32)})
    raw = path.read_bytes()
    assert raw[:4] == b"ICCW"
    assert int.from_bytes(raw[4:8], "little") == 1


def test_full_model_parameters_round_trip(tmp_path):
    graph = build_icc(ModelConfig(width_scale=0.25))
    params = init_parameters(graph, 5)
    path = tmp_path / "model.iccw"
    save_checkpoint(path, params)
    back = load_checkpoint(path)
    assert back.keys() == params.keys()
    for k in params:
        assert np.array_equal(back[k], params[k])


def test_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.iccw"
    path.write_bytes(b"NOPE" + bytes(16))
    with pytest.raises(DataError, match="ICCW"):
        load_checkpoint(path)


def test_rejects_truncated_record(tmp_path):
    path = tmp_path / "m.iccw"
    save_checkpoint(path, {"a": np.arange(32, dtype=np.float32)})
    path.write_bytes(path.read_bytes()[:-12])
    with pytest.raises(DataError, match="truncated"):
        load_checkpoint(path)


def test_rejects_a_repeated_name(tmp_path):
    # records follow the 8-byte header back to back, so a second file's
    # records appended to a first make one checkpoint that names "w" twice
    first, second, path = tmp_path / "a.iccw", tmp_path / "b.iccw", tmp_path / "m.iccw"
    save_checkpoint(first, {"w": np.zeros(2, np.float32), "b": np.ones(1, np.float32)})
    save_checkpoint(second, {"w": np.ones(2, np.float32)})
    path.write_bytes(first.read_bytes() + second.read_bytes()[8:])
    with pytest.raises(DataError, match="parameter 'w' appears twice"):
        load_checkpoint(path)


def test_rejects_integer_arrays():
    with pytest.raises(ValueError, match="dtype"):
        save_checkpoint("/tmp/never-written.iccw", {"a": np.arange(3)})

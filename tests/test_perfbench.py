"""The benchmark's tracer against the library names it wraps.

``perfbench/workloads.py`` wraps library functions by name, so a renamed or
reshaped one would otherwise only fail a traced benchmark run.
"""

import copy
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_records_each_sinkhorn_solve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import harness
    import workloads

    from icc import loss as L

    tracer = harness.Tracer("test")
    workloads.register_layers(tracer)
    rng = np.random.default_rng(0)
    y = rng.uniform(0.1, 1.0, (4, 5))
    yhat = rng.uniform(0.1, 1.0, (4, 5))
    tracer.install(1)
    try:
        L.ot_loss(y, yhat, max_iters=30)
    finally:
        tracer.uninstall()
    assert not hasattr(L.sinkhorn, "__wrapped__")
    [(call, solve)] = tracer.observed["loss.sinkhorn"]
    assert call == 1
    iterations, converged, marginal_error = solve
    assert type(iterations) is int and 1 <= iterations <= 30
    assert type(converged) is bool
    assert type(marginal_error) is float and marginal_error >= 0.0
    assert {"loss.ot_loss", "loss.sinkhorn"} <= {s.name for s in tracer.spans}


def test_traced_call_counts_of_one_prediction(monkeypatch):
    # The per-kind call counts the benchmark reports for one width-0.25
    # prediction: an op that starts or stops calling another public op (a
    # conv bias added through ``add``, say) changes them. The fusion concat
    # is not built: decoder.conv1 runs as three convs summed by two adds.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import harness
    import workloads

    from icc import model as M

    graph = M.build_icc(M.ModelConfig(width_scale=0.25))
    params = M.init_parameters(graph, 0, np.float32)
    image = np.random.default_rng(0).uniform(0, 1, (3, 64, 64)).astype(np.float32)
    tracer = harness.Tracer("test")
    workloads.register_layers(tracer)
    tracer.install(1)
    try:
        M.predict_density(graph, params, image)
    finally:
        tracer.uninstall()
    metrics = workloads.layer_metrics(tracer, graph, 0.0, 0.0)
    calls = {kind: metrics[f"tensor.{kind}.calls"] for kind in workloads.TENSOR_KINDS}
    assert calls == {"conv2d": 53, "maxpool2d": 3, "avgpool2d": 8, "batchnorm2d": 40,
                     "interpolate": 6, "concat_channels": 6, "elementwise": 66}


def test_each_workload_builds_its_config_and_graph(monkeypatch, tmp_path):
    # what the workloads' make_inputs, setup and call reach of the library;
    # no inputs are written, config() only names paths under ``work``
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    from icc import model as M

    for name, workload in workloads.WORKLOADS.items():
        workload = copy.copy(workload)
        workload.work = tmp_path / name
        if hasattr(workload, "config"):
            assert isinstance(workload.config().model_config(), M.ModelConfig)
        assert "output" in workload.graph().taps
    for module, attr in (("T", "set_default_dtype"), ("M", "init_parameters"),
                         ("C", "save_checkpoint"), ("TR", "load_model"), ("TR", "train"),
                         ("TR", "infer")):
        assert callable(getattr(getattr(workloads, module), attr)), f"{module}.{attr}"

"""The benchmark's tracer must still find every function it wraps, and a
traced run must reach the traced names."""

import importlib.util
import json
import os

from fednoisy import cli, config, nn, server

FEDBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "fedbench")


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"fedbench_{name}", os.path.join(FEDBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_child_times_the_experiment_setup_it_names(tmp_path, monkeypatch):
    # child.time_setup builds server.Experiment with the keywords setup_s
    # times; a signature change that breaks the benchmark fails here
    built = []

    class Recording(server.Experiment):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(server, "Experiment", Recording)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "subset_size": 60, "test_size": 30, "hidden_dims": [8],
        "server": {"num_clients": 3}, "workers": 1,
        "out_dir": str(tmp_path / "out")}))
    seconds = load("child").time_setup(config, server, str(path))
    assert seconds > 0
    assert len(built) == 1 and len(built[0].assignments) == 3


def test_tracer_installs_and_uninstalls_cleanly():
    # a renamed or removed traced function makes install() raise here
    tracer = load("tracer")
    forward = nn.forward
    t = tracer.install()
    try:
        assert nn.forward.__wrapped__ is forward
    finally:
        t.uninstall()
    assert nn.forward is forward
    assert t.leftovers() == []


def tiny_run(tmp_path, name, tracer=None):
    # 100 rows over 6 clients: shards of 17 and 16, so two cohort groups
    out = tmp_path / name
    cfg = {"subset_size": 100, "test_size": 50, "hidden_dims": [8],
           "client": {"local_epochs": 2, "batch_size": 8},
           "server": {"rounds": 3, "num_clients": 6, "t_corr": 2},
           "workers": 2, "out_dir": str(out)}
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    t = tracer.install() if tracer is not None else None
    try:
        assert cli.main(["run", "--config", str(path)]) == 0
    finally:
        if t is not None:
            t.uninstall()
    return (out / "metrics.csv").read_bytes(), t


def test_traced_run_records_the_training_spans_and_keeps_the_metrics(
        tmp_path):
    tracer = load("tracer")
    want, _ = tiny_run(tmp_path, "plain")
    got, t = tiny_run(tmp_path, "traced", tracer)
    assert got == want
    assert t.leftovers() == []
    names = {s[tracer.NAME] for s in t.spans}
    for name in ("client.local_train", "nn.loss_and_grad", "nn.forward"):
        assert name in names, f"no {name} span recorded"
    trained = [s[tracer.CLIENT] for s in t.spans
               if s[tracer.NAME] == "client.local_train"]
    assert sorted(c for ids in trained for c in ids) == sorted(3 * list(range(6)))

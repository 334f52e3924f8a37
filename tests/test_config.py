"""Unit tests for config parsing, validation, defaults, and the echo."""

import json
import re
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fednoisy import config as cfg_mod
from fednoisy import checkpoint, cli, data, server
from fednoisy.client import ClientConfig
from fednoisy.config import (DatasetConfig, ExperimentConfig, build_config,
                             build_datasets, config_to_dict, parse_config)
from fednoisy.data import NoiseSpec, PartitionSpec
from fednoisy.errors import ConfigError
from fednoisy.server import ServerConfig
from tests_util import config_documents, write_idx_pair


def write_config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


def test_empty_object_gets_protocol_defaults(tmp_path):
    cfg = parse_config(write_config(tmp_path, {}))
    assert cfg.server.num_clients == 20
    assert cfg.server.rounds == 150
    assert cfg.server.t_corr == 60
    assert cfg.server.alpha == 0.6
    assert cfg.server.tau == 50.0
    assert cfg.server.beta == 0.6
    assert cfg.client.lr == 0.01
    assert cfg.client.batch_size == 60
    assert cfg.client.local_epochs == 10
    assert cfg.server.aggregator == server.FED_NCL
    # the partition's client count and seed are the server's and the run's
    train, test = build_datasets(cfg)
    exp = server.Experiment(
        train, test, partition=cfg.partition, noise=cfg.noise,
        client_config=cfg.client, server_config=cfg.server,
        hidden_dims=tuple(cfg.hidden_dims), seed=cfg.seed,
        workers=cfg.resolved_workers())
    want = data.make_partitions(train, cfg.partition, 20, cfg.seed)
    assert len(exp.assignments) == 20
    for got, a in zip(exp.assignments, want):
        assert np.array_equal(got.indices, a.indices)


def test_negative_beta_names_the_key(tmp_path):
    with pytest.raises(ConfigError, match="beta"):
        parse_config(write_config(tmp_path, {"server": {"beta": -1}}))


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="frobnicate"):
        parse_config(write_config(tmp_path, {"frobnicate": 1}))
    with pytest.raises(ConfigError, match="server.frob"):
        parse_config(write_config(tmp_path, {"server": {"frob": 1}}))
    # readings that were measured and removed
    for key, value in (("penalty_mode", "divisor"), ("unweighted", False)):
        with pytest.raises(ConfigError, match=f"unknown key server.{key}"):
            parse_config(write_config(tmp_path, {"server": {key: value}}))


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config(tmp_path / "nope.json")
    with pytest.raises(ConfigError, match=f"{re.escape(str(tmp_path))} cannot "
                                          "be read"):
        parse_config(tmp_path)  # a directory


def test_malformed_json_is_config_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        parse_config(path)
    path.write_bytes(b'{"seed": "\xff"}')
    with pytest.raises(ConfigError, match=f"{re.escape(str(path))} is not UTF-8"):
        parse_config(path)


def test_echo_round_trip(tmp_path):
    payload = {
        "dataset": {"kind": "synthetic", "classes": 5, "dims": 12, "spread": 0.8},
        "subset_size": 500, "test_size": 100, "hidden_dims": [16, 8],
        "partition": {"kind": "class_skew", "p_class": 0.9, "alpha_dir": 0.3},
        "noise": {"mode": "trunc_gauss", "mean": 0.4, "std": 0.45},
        "client": {"lr": 0.05, "local_epochs": 3},
        "server": {"aggregator": "trimmed_mean", "trim_pct": 15.0, "rounds": 12},
        "seed": 99, "out_dir": "somewhere", "workers": 2,
    }
    cfg = parse_config(write_config(tmp_path, payload))
    assert build_config(config_to_dict(cfg)) == cfg


def test_echo_is_exhaustive(tmp_path):
    echo = config_to_dict(parse_config(write_config(tmp_path, {})))
    assert set(echo) == {"dataset", "subset_size", "test_size", "hidden_dims",
                         "partition", "noise", "client", "server", "seed",
                         "out_dir", "save_checkpoints", "checkpoint_every",
                         "workers"}
    assert set(echo["server"]) == {
        "aggregator", "trim_pct", "beta", "tau", "t_k", "alpha", "t_corr",
        "eta", "rounds", "num_clients"}


def test_fedprox_gets_default_mu(tmp_path):
    cfg = parse_config(write_config(tmp_path,
                                    {"server": {"aggregator": "fedprox"}}))
    assert cfg.client.prox_mu == 0.01
    cfg = parse_config(write_config(
        tmp_path, {"server": {"aggregator": "fedprox"},
                   "client": {"prox_mu": 0.5}}))
    assert cfg.client.prox_mu == 0.5


def test_fixed_rates_must_match_client_count(tmp_path):
    payload = {"noise": {"mode": "fixed", "rates": [0.0, 1.0]},
               "server": {"num_clients": 3}}
    with pytest.raises(ConfigError, match="rates"):
        parse_config(write_config(tmp_path, payload))
    payload["noise"]["rates"] = [0.0, 1.0, 0.5]
    cfg = parse_config(write_config(tmp_path, payload))
    assert cfg.noise.rates == (0.0, 1.0, 0.5)


# each section's dataclass, and the Experiment keyword that takes it
SECTIONS = {"dataset": (DatasetConfig, None),
            "partition": (PartitionSpec, "partition"),
            "noise": (NoiseSpec, "noise"),
            "client": (ClientConfig, "client_config"),
            "server": (ServerConfig, "server_config")}

# the message each refused value gets, by (section, key)
MESSAGES = {
    ("client", "lr"): "must be > 0",
    ("client", "local_epochs"): "must be >= 1",
    ("client", "batch_size"): "must be >= 1",
    ("client", "prox_mu"): "must be >= 0",
    ("client", "h_on"): "must be 'global' or 'local'",
    ("client", "train_on"): "must be 'corrected_all' or 'relabeled_only'",
    ("server", "trim_pct"): "must be in [0, 50)",
    ("server", "alpha"): "must be in (0, 1)",
    ("server", "tau"): "must be >= 1",
    ("server", "t_k"): "must be >= 1",
    ("server", "t_corr"): "must be >= 1",
    ("server", "eta"): "must be in [0, 1]",
    ("server", "rounds"): "must be >= 0",
    ("server", "aggregator"):
        "must be one of fedavg, trimmed_mean, fedprox, fed_ncl",
    ("server", "beta"): "must be > 0",
    ("noise", "clean_prob"): "must be in (0, 1]",
    ("noise", "std"): "must be > 0",
    ("noise", "low"): "need 0 <= low < high <= 1",
    ("partition", "kind"): "must be iid, class_skew, or quantity_skew",
    ("partition", "p_class"): "must be in (0, 1]",
    ("partition", "alpha_dir"): "must be > 0",
    ("dataset", "kind"): "must be 'synthetic' or 'mnist'",
    ("dataset", "classes"): "need at least 2 classes",
}


def library_run(section, key, value):
    """Train one round as a library caller would, with ``section`` built
    from ``{key: value}``; for the dataset section, build the datasets."""
    cls, arg = SECTIONS[section]
    if arg is None:
        build_datasets(ExperimentConfig(**{section: cls(**{key: value})}))
        return
    ds = data.make_synthetic(3, 10, 4, 1.0, seed=0)
    kw = {"partition": PartitionSpec(), "noise": NoiseSpec(),
          "client_config": ClientConfig(local_epochs=1),
          "server_config": ServerConfig(rounds=1, num_clients=2)}
    kw[arg] = cls(**{key: value})
    server.Experiment(ds, ds, **kw, hidden_dims=(4,), seed=0,
                      workers=1).run_round(1)


@pytest.mark.parametrize("section,key,value", [
    ("client", "lr", 0), ("client", "lr", -0.1),
    ("client", "local_epochs", 0), ("client", "batch_size", 0),
    ("client", "h_on", "sideways"), ("client", "prox_mu", -1),
    ("client", "train_on", "everything"),
    ("server", "trim_pct", 50), ("server", "alpha", 1.0),
    ("server", "tau", 0.5), ("server", "t_corr", 0),
    ("server", "eta", 1.5), ("server", "aggregator", "krum"),
    ("server", "beta", 0), ("server", "t_k", 0), ("server", "rounds", -1),
    ("noise", "clean_prob", 0), ("noise", "clean_prob", 1.2),
    ("noise", "std", 0), ("noise", "low", 1.0),  # low >= high
    ("partition", "kind", "triangular"), ("partition", "p_class", 0),
    ("partition", "alpha_dir", 0),
    ("dataset", "kind", "imagenet"), ("dataset", "classes", 1),
])
def test_invariant_violations_name_the_key(tmp_path, capsys, monkeypatch,
                                           section, key, value):
    message = MESSAGES[section, key]
    refused = f"^{re.escape(f'{key}: {message}')}$"
    # the section's dataclass refuses the value when it is built
    with pytest.raises(ConfigError, match=refused):
        SECTIONS[section][0](**{key: value})
    # the CLI refuses the same value and adds the section to the key
    path = write_config(tmp_path, {section: {key: value},
                                   "out_dir": str(tmp_path / "out")})
    assert cli.main(["run", "--config", str(path)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: {section}.{key}: {message}\n")
    # and so does the library, before any client trains
    monkeypatch.setattr(server, "local_train",
                        lambda *args: pytest.fail("a client trained"))
    with pytest.raises(ConfigError, match=refused):
        library_run(section, key, value)


@pytest.mark.parametrize("cls", [DatasetConfig, ExperimentConfig,
                                 PartitionSpec, NoiseSpec, ClientConfig,
                                 ServerConfig], ids=lambda cls: cls.__name__)
def test_config_sections_are_frozen(cls):
    cfg = cls()
    for f in fields(cls):
        with pytest.raises(FrozenInstanceError):
            setattr(cfg, f.name, getattr(cfg, f.name))


def test_config_sequences_are_immutable():
    # a library caller's lists become tuples, which the checks then cover
    cfg = ExperimentConfig(hidden_dims=[8, 4])
    assert cfg.hidden_dims == (8, 4)
    with pytest.raises(AttributeError):
        ExperimentConfig().hidden_dims.append(0)
    spec = NoiseSpec(mode="fixed", rates=[0.5])
    assert spec.rates == (0.5,)
    with pytest.raises(TypeError):
        spec.rates[0] = 7.0


@pytest.mark.parametrize("kind", ["synthetic", "mnist"])
def test_negative_test_size_rejected_for_every_kind(tmp_path, capsys, kind):
    # a readable IDX pair: the size must be refused before load_idx reads it
    img, lbl = write_idx_pair(tmp_path, np.zeros((4, 2, 2), np.uint8),
                              [0, 1, 0, 1])
    paths = {"images": str(img), "labels": str(lbl),
             "test_images": str(img), "test_labels": str(lbl)}
    document = {"dataset": {"kind": kind, **(paths if kind == "mnist"
                                              else {})},
                "test_size": -3, "out_dir": str(tmp_path / "out")}
    path = write_config(tmp_path, document)
    assert cli.main(["run", "--config", str(path)]) == cli.EXIT_CONFIG
    want = "must be >= 1" if kind == "synthetic" else "must be >= 0"
    assert capsys.readouterr().err == f"config error: test_size: {want}\n"


def test_noise_low_high_defaults_allow_degenerate_override(tmp_path):
    cfg = parse_config(write_config(
        tmp_path, {"noise": {"mode": "trunc_gauss", "low": 0.2, "high": 0.8}}))
    assert (cfg.noise.low, cfg.noise.high) == (0.2, 0.8)


def test_bernoulli_boundary_p_equal_one_accepted(tmp_path):
    cfg = parse_config(write_config(tmp_path, {"noise": {"clean_prob": 1.0}}))
    assert cfg.noise.clean_prob == 1.0


def test_mnist_requires_paths(tmp_path):
    with pytest.raises(ConfigError, match="images"):
        parse_config(write_config(tmp_path, {"dataset": {"kind": "mnist"}}))


def test_build_datasets_synthetic_sizes(tmp_path):
    cfg = parse_config(write_config(tmp_path, {
        "dataset": {"kind": "synthetic", "classes": 4, "dims": 6},
        "subset_size": 103, "test_size": 41}))
    train, test = build_datasets(cfg)
    assert len(train) == 103
    assert len(test) == 41
    assert train.dim == 6 and train.num_classes == 4


def test_build_datasets_deterministic(tmp_path):
    cfg = parse_config(write_config(tmp_path, {"subset_size": 50,
                                               "test_size": 20,
                                               "dataset": {"dims": 5}}))
    import numpy as np
    t1, _ = build_datasets(cfg)
    t2, _ = build_datasets(cfg)
    assert np.array_equal(t1.features, t2.features)


def saved_probe(tmp_path, monkeypatch, document, size):
    """Run ``document`` with checkpoints and a ``size``-row CKA probe;
    returns the probe ``cka`` reads back."""
    out = tmp_path / "out"
    document = {**document, "hidden_dims": [4], "save_checkpoints": True,
                "checkpoint_every": 1,
                "client": {"local_epochs": 1, "batch_size": 8},
                "server": {"aggregator": "fedavg", "rounds": 2,
                           "num_clients": 2},
                "out_dir": str(out)}
    monkeypatch.setattr(cli, "CKA_PROBE_SIZE", size)
    assert cli.main(["run", "--config",
                     str(write_config(tmp_path, document))]) == 0
    ckpt = out / "checkpoints"
    manifests = [checkpoint.read_manifest(checkpoint.round_dir(ckpt, r))
                 for r in (1, 2)]
    assert manifests[0]["probe_id"] == manifests[1]["probe_id"]
    return checkpoint.read_probe(ckpt, manifests[1])


@pytest.mark.parametrize("size", [1, 41, 42, 43, 512])
def test_build_probe_is_the_first_test_rows_synthetic(tmp_path, monkeypatch,
                                                      size):
    # 145 rows over 4 classes round up to a 148-row pool
    document = {"dataset": {"classes": 4, "dims": 6, "spread": 0.7},
                "subset_size": 103, "test_size": 42, "seed": 3}
    want = build_datasets(build_config(document))[1].features[:size]
    got = saved_probe(tmp_path, monkeypatch, document, size)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("test_size", [0, 5, 30])
@pytest.mark.parametrize("size", [1, 7, 512])
def test_build_probe_is_the_first_test_rows_idx(tmp_path, monkeypatch,
                                                test_size, size):
    rng = np.random.default_rng(1)
    images = rng.integers(0, 256, size=(20, 3, 2)).astype(np.uint8)
    img, lbl = write_idx_pair(tmp_path, images, bytes(range(20)))
    document = {"dataset": {"kind": "mnist", "images": str(img),
                            "labels": str(lbl), "test_images": str(img),
                            "test_labels": str(lbl)},
                "test_size": test_size}
    want = build_datasets(build_config(document))[1].features[:size]
    got = saved_probe(tmp_path, monkeypatch, document, size)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_workers_resolution(tmp_path):
    cfg = parse_config(write_config(tmp_path, {"workers": 0}))
    assert cfg.resolved_workers() >= 1
    cfg = parse_config(write_config(tmp_path, {"workers": 3}))
    assert cfg.resolved_workers() == 3


def test_workers_zero_counts_only_the_cpus_the_process_may_use(
        tmp_path, monkeypatch):
    monkeypatch.setattr(cfg_mod.os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    cfg = parse_config(write_config(tmp_path, {"workers": 0}))
    assert cfg.resolved_workers() == 1


@pytest.mark.parametrize("payload,key", [
    ([], "config document"), ({"server": 3}, "server"),
    ({"hidden_dims": 64}, "hidden_dims"),
    ({"hidden_dims": None}, "hidden_dims"),
    ({"noise": {"mode": "fixed", "rates": 0.3}}, "noise.rates"),
    ({"noise": {"rates": "0.3"}}, "noise.rates"),
])
def test_wrong_container_types_name_the_key(payload, key):
    with pytest.raises(ConfigError, match=f"^{re.escape(key)}: expected"):
        build_config(payload)


@pytest.mark.parametrize("payload,key", [
    ({"save_checkpoints": "false"}, "save_checkpoints"),
    ({"save_checkpoints": 1}, "save_checkpoints"),
    ({"save_checkpoints": "no"}, "save_checkpoints"),
    ({"save_checkpoints": 0}, "save_checkpoints"),
    ({"dataset": {"images": 3}}, "dataset.images"),
    ({"dataset": {"kind": ["synthetic"]}}, "dataset.kind"),
    ({"client": {"h_on": None}}, "client.h_on"),
    ({"out_dir": 5}, "out_dir"),
    ({"out_dir": None}, "out_dir"),
    ({"seed": True}, "seed"),
    ({"server": {"tau": "50"}}, "server.tau"),
])
def test_values_are_not_coerced(payload, key):
    with pytest.raises(ConfigError, match=f"^{re.escape(key)}: expected"):
        build_config(payload)


@pytest.mark.parametrize("key", ["num_clients", "seed"])
def test_derived_partition_keys_rejected(key):
    # filled from server.num_clients and the master seed
    with pytest.raises(ConfigError, match=f"unknown key partition.{key}"):
        build_config({"partition": {key: 3}})


@settings(max_examples=200, deadline=None)
@given(config_documents())
def test_round_trip_property(document):
    cfg = build_config(document)
    assert build_config(config_to_dict(cfg)) == cfg


def key_tree(section):
    return {k: key_tree(v) if isinstance(v, dict) else None
            for k, v in section.items()}


@settings(max_examples=100, deadline=None)
@given(config_documents(full=True), st.data())
def test_echo_keys_are_the_accepted_keys(document, data):
    echo = config_to_dict(build_config(document))
    assert key_tree(echo) == key_tree(document)
    # and any key the echo lacks, at any level, is rejected
    name = data.draw(st.sampled_from(
        [""] + [k for k, v in echo.items() if isinstance(v, dict)]))
    section = echo[name] if name else echo
    key = data.draw(st.text(min_size=1).filter(lambda k: k not in section))
    section[key] = 0
    prefix = f"{name}." if name else ""
    with pytest.raises(ConfigError,
                       match=f"^unknown key {re.escape(prefix + key)}$"):
        build_config(echo)


@settings(max_examples=200, deadline=None)
@given(config_documents())
@example({"server": {"tau": 50}})
def test_echo_types_follow_the_defaults(document):
    """A JSON int given for a float field (e.g. "tau": 50) echoes as a float."""
    def check(echo, default):
        for key, value in echo.items():
            if isinstance(value, dict):
                check(value, default[key])
            elif value is not None and default[key] is not None:
                assert type(value) is type(default[key]), key

    echo = config_to_dict(build_config(document))
    check(echo, config_to_dict(build_config({})))
    assert all(type(h) is int for h in echo["hidden_dims"])
    assert all(type(r) is float for r in echo["noise"]["rates"] or [])

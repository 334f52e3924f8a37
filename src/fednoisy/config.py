"""Experiment configuration: JSON parsing, validation, defaults, and echo.

Every omitted field falls back to the protocol defaults (20 clients, 150
rounds, correction at round 60, lr 0.01, batch 60, 10 local epochs,
alpha 0.6, tau 50, beta 0.6). Unknown keys are rejected and every validation
error names the offending key. ``config_to_dict`` emits an exhaustive echo
such that ``build_config(config_to_dict(cfg)) == cfg``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import data, server
from .client import (H_ON_GLOBAL, H_ON_LOCAL, TRAIN_CORRECTED_ALL,
                     TRAIN_RELABELED_ONLY, ClientConfig)
from .data import NoiseSpec, PartitionSpec
from .errors import ConfigError
from .server import ServerConfig

SYNTHETIC = "synthetic"
MNIST = "mnist"

DEFAULT_FEDPROX_MU = 0.01


@dataclass
class DatasetConfig:
    """Where training/test data comes from: IDX files or generated blobs."""

    kind: str = SYNTHETIC
    classes: int = 10
    dims: int = 784
    spread: float = 1.0
    images: str | None = None
    labels: str | None = None
    test_images: str | None = None
    test_labels: str | None = None


@dataclass
class ExperimentConfig:
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    subset_size: int = 2000
    test_size: int = 1000
    hidden_dims: list[int] = field(default_factory=lambda: [64, 32])
    partition: PartitionSpec = field(default_factory=PartitionSpec)
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    client: ClientConfig = field(default_factory=ClientConfig)
    server: ServerConfig = field(default_factory=ServerConfig)
    seed: int = 0
    out_dir: str = "runs/out"
    save_checkpoints: bool = False
    checkpoint_every: int = 10
    workers: int = 0   # 0 = one worker per available core

    def resolved_workers(self) -> int:
        return self.workers if self.workers > 0 else (os.cpu_count() or 1)


def _require(cond: bool, key: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{key}: {message}")


def _take(section: dict, allowed: dict, prefix: str) -> dict:
    """Merge user keys over defaults, rejecting anything unknown."""
    out = dict(allowed)
    for key, value in section.items():
        if key not in allowed:
            raise ConfigError(f"unknown key {prefix}{key}")
        out[key] = value
    return out


def _num(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key}: expected a number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{key}: must be finite")
    return value


def _int(value, key: str) -> int:
    v = _num(value, key)
    if int(v) != v:
        raise ConfigError(f"{key}: expected an integer, got {value!r}")
    return int(v)


def _build_dataset(section: dict) -> DatasetConfig:
    defaults = {"kind": SYNTHETIC, "classes": 10, "dims": 784, "spread": 1.0,
                "images": None, "labels": None, "test_images": None,
                "test_labels": None}
    v = _take(section, defaults, "dataset.")
    _require(v["kind"] in (SYNTHETIC, MNIST), "dataset.kind",
             f"must be '{SYNTHETIC}' or '{MNIST}'")
    cfg = DatasetConfig(
        kind=v["kind"], classes=_int(v["classes"], "dataset.classes"),
        dims=_int(v["dims"], "dataset.dims"),
        spread=float(_num(v["spread"], "dataset.spread")),
        images=v["images"], labels=v["labels"],
        test_images=v["test_images"], test_labels=v["test_labels"])
    if cfg.kind == SYNTHETIC:
        _require(cfg.classes >= 2, "dataset.classes", "need at least 2 classes")
        _require(cfg.dims >= 1, "dataset.dims", "must be >= 1")
        _require(cfg.spread >= 0, "dataset.spread", "must be >= 0")
    else:
        for key in ("images", "labels", "test_images", "test_labels"):
            _require(getattr(cfg, key) is not None, f"dataset.{key}",
                     "required for IDX datasets")
    return cfg


def _build_partition(section: dict) -> PartitionSpec:
    defaults = {"kind": data.IID, "p_class": 0.7, "alpha_dir": 0.5,
                "sigma_log": 0.3}
    v = _take(section, defaults, "partition.")
    _require(v["kind"] in (data.IID, data.CLASS_SKEW, data.QUANTITY_SKEW),
             "partition.kind", "must be iid, class_skew, or quantity_skew")
    p_class = float(_num(v["p_class"], "partition.p_class"))
    alpha_dir = float(_num(v["alpha_dir"], "partition.alpha_dir"))
    sigma_log = float(_num(v["sigma_log"], "partition.sigma_log"))
    _require(0 < p_class <= 1, "partition.p_class", "must be in (0, 1]")
    _require(alpha_dir > 0, "partition.alpha_dir", "must be > 0")
    _require(sigma_log >= 0, "partition.sigma_log", "must be >= 0")
    # num_clients and seed are filled from the server section / master seed
    return PartitionSpec(kind=v["kind"], p_class=p_class, alpha_dir=alpha_dir,
                         sigma_log=sigma_log)


def _build_noise(section: dict) -> NoiseSpec:
    defaults = {"mode": data.BERNOULLI, "clean_prob": 0.7, "within_rate": 1.0,
                "mean": 0.3, "std": 0.4, "low": 0.0, "high": 1.0, "rates": None}
    v = _take(section, defaults, "noise.")
    _require(v["mode"] in (data.BERNOULLI, data.TRUNC_GAUSS, data.FIXED),
             "noise.mode", "must be bernoulli, trunc_gauss, or fixed")
    spec = NoiseSpec(
        mode=v["mode"],
        clean_prob=float(_num(v["clean_prob"], "noise.clean_prob")),
        within_rate=float(_num(v["within_rate"], "noise.within_rate")),
        mean=float(_num(v["mean"], "noise.mean")),
        std=float(_num(v["std"], "noise.std")),
        low=float(_num(v["low"], "noise.low")),
        high=float(_num(v["high"], "noise.high")),
        rates=None if v["rates"] is None else
        [float(_num(r, "noise.rates")) for r in v["rates"]])
    _require(0 < spec.clean_prob <= 1, "noise.clean_prob", "must be in (0, 1]")
    _require(0 <= spec.within_rate <= 1, "noise.within_rate", "must be in [0, 1]")
    _require(spec.std > 0, "noise.std", "must be > 0")
    _require(0 <= spec.low < spec.high <= 1, "noise.low",
             "need 0 <= low < high <= 1")
    if spec.mode == data.FIXED:
        _require(spec.rates is not None, "noise.rates",
                 "required when noise.mode is fixed")
        _require(all(0 <= r <= 1 for r in spec.rates), "noise.rates",
                 "every rate must be in [0, 1]")
    return spec


def _build_client(section: dict) -> ClientConfig:
    defaults = {"lr": 0.01, "local_epochs": 10, "batch_size": 60,
                "prox_mu": 0.0, "h_on": H_ON_GLOBAL,
                "train_on": TRAIN_CORRECTED_ALL}
    v = _take(section, defaults, "client.")
    cfg = ClientConfig(
        lr=float(_num(v["lr"], "client.lr")),
        local_epochs=_int(v["local_epochs"], "client.local_epochs"),
        batch_size=_int(v["batch_size"], "client.batch_size"),
        prox_mu=float(_num(v["prox_mu"], "client.prox_mu")),
        h_on=v["h_on"], train_on=v["train_on"])
    _require(cfg.lr > 0, "client.lr", "must be > 0")
    _require(cfg.local_epochs >= 1, "client.local_epochs", "must be >= 1")
    _require(cfg.batch_size >= 1, "client.batch_size", "must be >= 1")
    _require(cfg.prox_mu >= 0, "client.prox_mu", "must be >= 0")
    _require(cfg.h_on in (H_ON_GLOBAL, H_ON_LOCAL), "client.h_on",
             "must be 'global' or 'local'")
    _require(cfg.train_on in (TRAIN_CORRECTED_ALL, TRAIN_RELABELED_ONLY),
             "client.train_on", "must be 'corrected_all' or 'relabeled_only'")
    return cfg


def _build_server(section: dict) -> ServerConfig:
    defaults = {"aggregator": server.FED_NCL, "trim_pct": 10.0, "beta": 0.6,
                "tau": 50.0, "t_k": 10, "alpha": 0.6, "t_corr": 60, "eta": 0.8,
                "rounds": 150, "num_clients": 20,
                "penalty_mode": server.PENALTY_DIVISOR, "unweighted": False}
    v = _take(section, defaults, "server.")
    cfg = ServerConfig(
        aggregator=v["aggregator"],
        trim_pct=float(_num(v["trim_pct"], "server.trim_pct")),
        beta=float(_num(v["beta"], "server.beta")),
        tau=float(_num(v["tau"], "server.tau")),
        t_k=_int(v["t_k"], "server.t_k"),
        alpha=float(_num(v["alpha"], "server.alpha")),
        t_corr=_int(v["t_corr"], "server.t_corr"),
        eta=float(_num(v["eta"], "server.eta")),
        rounds=_int(v["rounds"], "server.rounds"),
        num_clients=_int(v["num_clients"], "server.num_clients"),
        penalty_mode=v["penalty_mode"],
        unweighted=bool(v["unweighted"]))
    _require(cfg.aggregator in server.AGGREGATORS, "server.aggregator",
             f"must be one of {', '.join(server.AGGREGATORS)}")
    _require(0 <= cfg.trim_pct < 50, "server.trim_pct", "must be in [0, 50)")
    _require(cfg.beta > 0, "server.beta", "must be > 0")
    _require(cfg.tau >= 1, "server.tau", "must be >= 1")
    _require(cfg.t_k >= 1, "server.t_k", "must be >= 1")
    _require(0 < cfg.alpha < 1, "server.alpha", "must be in (0, 1)")
    _require(cfg.t_corr >= 1, "server.t_corr", "must be >= 1")
    _require(0 <= cfg.eta <= 1, "server.eta", "must be in [0, 1]")
    _require(cfg.rounds >= 0, "server.rounds", "must be >= 0")
    _require(cfg.num_clients >= 1, "server.num_clients", "must be >= 1")
    _require(cfg.penalty_mode in (server.PENALTY_DIVISOR, server.PENALTY_LITERAL),
             "server.penalty_mode", "must be 'divisor' or 'literal'")
    return cfg


def build_config(document: dict) -> ExperimentConfig:
    """Validate a parsed JSON document into an ExperimentConfig."""
    if not isinstance(document, dict):
        raise ConfigError("config document must be a JSON object")
    top_defaults = {"dataset": {}, "subset_size": 2000, "test_size": 1000,
                    "hidden_dims": [64, 32], "partition": {}, "noise": {},
                    "client": {}, "server": {}, "seed": 0,
                    "out_dir": "runs/out", "save_checkpoints": False,
                    "checkpoint_every": 10, "workers": 0}
    v = _take(document, top_defaults, "")
    for name in ("dataset", "partition", "noise", "client", "server"):
        if not isinstance(v[name], dict):
            raise ConfigError(f"{name}: expected an object")

    cfg = ExperimentConfig(
        dataset=_build_dataset(v["dataset"]),
        subset_size=_int(v["subset_size"], "subset_size"),
        test_size=_int(v["test_size"], "test_size"),
        hidden_dims=[_int(h, "hidden_dims") for h in v["hidden_dims"]],
        partition=_build_partition(v["partition"]),
        noise=_build_noise(v["noise"]),
        client=_build_client(v["client"]),
        server=_build_server(v["server"]),
        seed=_int(v["seed"], "seed"),
        out_dir=str(v["out_dir"]),
        save_checkpoints=bool(v["save_checkpoints"]),
        checkpoint_every=_int(v["checkpoint_every"], "checkpoint_every"),
        workers=_int(v["workers"], "workers"))

    _require(all(h >= 1 for h in cfg.hidden_dims), "hidden_dims",
             "every hidden width must be >= 1")
    _require(cfg.subset_size >= 0, "subset_size", "must be >= 0")
    if cfg.dataset.kind == SYNTHETIC:
        _require(cfg.subset_size >= 1, "subset_size",
                 "synthetic datasets need an explicit size")
        _require(cfg.test_size >= 1, "test_size", "must be >= 1")
    _require(cfg.workers >= 0, "workers", "must be >= 0")
    _require(cfg.checkpoint_every >= 1, "checkpoint_every", "must be >= 1")
    if cfg.noise.mode == data.FIXED:
        _require(cfg.noise.rates is not None
                 and len(cfg.noise.rates) == cfg.server.num_clients,
                 "noise.rates",
                 f"need exactly {cfg.server.num_clients} rates")

    # FedProx is defined by its proximal term; fill the standard mu if unset
    if cfg.server.aggregator == server.FEDPROX and cfg.client.prox_mu == 0:
        cfg.client.prox_mu = DEFAULT_FEDPROX_MU

    cfg.partition.num_clients = cfg.server.num_clients
    cfg.partition.seed = cfg.seed
    return cfg


def parse_config(path) -> ExperimentConfig:
    """Read and validate a JSON config file."""
    try:
        with open(path) as fh:
            document = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file {path} is not valid JSON: {err}")
    return build_config(document)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Exhaustive echo of every effective value; round-trips via build_config."""
    return {
        "dataset": {
            "kind": cfg.dataset.kind, "classes": cfg.dataset.classes,
            "dims": cfg.dataset.dims, "spread": cfg.dataset.spread,
            "images": cfg.dataset.images, "labels": cfg.dataset.labels,
            "test_images": cfg.dataset.test_images,
            "test_labels": cfg.dataset.test_labels,
        },
        "subset_size": cfg.subset_size,
        "test_size": cfg.test_size,
        "hidden_dims": list(cfg.hidden_dims),
        "partition": {
            "kind": cfg.partition.kind, "p_class": cfg.partition.p_class,
            "alpha_dir": cfg.partition.alpha_dir,
            "sigma_log": cfg.partition.sigma_log,
        },
        "noise": {
            "mode": cfg.noise.mode, "clean_prob": cfg.noise.clean_prob,
            "within_rate": cfg.noise.within_rate, "mean": cfg.noise.mean,
            "std": cfg.noise.std, "low": cfg.noise.low, "high": cfg.noise.high,
            "rates": None if cfg.noise.rates is None else list(cfg.noise.rates),
        },
        "client": {
            "lr": cfg.client.lr, "local_epochs": cfg.client.local_epochs,
            "batch_size": cfg.client.batch_size, "prox_mu": cfg.client.prox_mu,
            "h_on": cfg.client.h_on, "train_on": cfg.client.train_on,
        },
        "server": {
            "aggregator": cfg.server.aggregator, "trim_pct": cfg.server.trim_pct,
            "beta": cfg.server.beta, "tau": cfg.server.tau,
            "t_k": cfg.server.t_k, "alpha": cfg.server.alpha,
            "t_corr": cfg.server.t_corr, "eta": cfg.server.eta,
            "rounds": cfg.server.rounds, "num_clients": cfg.server.num_clients,
            "penalty_mode": cfg.server.penalty_mode,
            "unweighted": cfg.server.unweighted,
        },
        "seed": cfg.seed,
        "out_dir": cfg.out_dir,
        "save_checkpoints": cfg.save_checkpoints,
        "checkpoint_every": cfg.checkpoint_every,
        "workers": cfg.workers,
    }


def build_datasets(cfg: ExperimentConfig):
    """Materialize (train, test) datasets for a config."""
    if cfg.dataset.kind == SYNTHETIC:
        # one pool so train and test share the class centers; the generator
        # shuffles, so slicing gives disjoint i.i.d. splits
        classes = cfg.dataset.classes
        total = cfg.subset_size + cfg.test_size
        per_class = -(-total // classes)
        pool = data.make_synthetic(classes, per_class, cfg.dataset.dims,
                                   cfg.dataset.spread, seed=(cfg.seed, 10))
        train = pool.subset(slice(0, cfg.subset_size))
        test = pool.subset(slice(cfg.subset_size, total))
        return train, test

    train = data.load_idx(cfg.dataset.images, cfg.dataset.labels)
    test = data.load_idx(cfg.dataset.test_images, cfg.dataset.test_labels)
    if cfg.subset_size and cfg.subset_size < len(train):
        rng = np.random.default_rng((cfg.seed, 12))
        keep = rng.choice(len(train), size=cfg.subset_size, replace=False)
        train = train.subset(np.sort(keep))
    if cfg.test_size and cfg.test_size < len(test):
        test = test.subset(slice(0, cfg.test_size))
    return train, test

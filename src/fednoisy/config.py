"""Experiment configuration: JSON parsing, validation, defaults, and echo.

Each default is written once, in its dataclass field; parsing and the echo
walk the fields. Every omitted field keeps its default, unknown keys are
rejected, values are type-checked by the field's annotation and every
validation error names the offending key. ``config_to_dict`` emits an
exhaustive echo such that ``build_config(config_to_dict(cfg)) == cfg``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields, is_dataclass

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
        if self.workers > 0:
            return self.workers
        # the CPUs this process may run on, which an affinity mask or a
        # cpuset can make fewer than the machine's
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1


def _require(cond: bool, key: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{key}: {message}")


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


def _float(value, key: str) -> float:
    return float(_num(value, key))


def _bool(value, key: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{key}: expected true or false, got {value!r}")
    return value


def _str(value, key: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{key}: expected a string, got {value!r}")
    return value


def _list(item):
    def parse(value, key: str) -> list:
        if not isinstance(value, list):
            raise ConfigError(f"{key}: expected a list, got {value!r}")
        return [item(v, key) for v in value]
    return parse


def _optional(parse):
    return lambda value, key: None if value is None else parse(value, key)


# leaf parsers by field annotation; nested dataclass fields are sections
_PARSERS = {
    "int": _int, "float": _float, "bool": _bool, "str": _str,
    "str | None": _optional(_str), "list[int]": _list(_int),
    "list[float] | None": _optional(_list(_float)),
}

def _build(cls, section, prefix: str = ""):
    """Parse one section into ``cls``; omitted keys keep the field default."""
    if not isinstance(section, dict):
        raise ConfigError(f"{prefix[:-1] or 'config document'}: "
                          "expected an object")
    known = {f.name: f for f in fields(cls)}
    values = {}
    for name, value in section.items():
        f = known.get(name)
        if f is None:
            raise ConfigError(f"unknown key {prefix}{name}")
        if is_dataclass(f.default_factory):
            values[name] = _build(f.default_factory, value, f"{prefix}{name}.")
        else:
            values[name] = _PARSERS[f.type](value, prefix + name)
    return cls(**values)


def _validate(cfg: ExperimentConfig) -> None:
    ds = cfg.dataset
    _require(ds.kind in (SYNTHETIC, MNIST), "dataset.kind",
             f"must be '{SYNTHETIC}' or '{MNIST}'")
    if ds.kind == SYNTHETIC:
        _require(ds.classes >= 2, "dataset.classes", "need at least 2 classes")
        _require(ds.dims >= 1, "dataset.dims", "must be >= 1")
        _require(ds.spread >= 0, "dataset.spread", "must be >= 0")
    else:
        for key in ("images", "labels", "test_images", "test_labels"):
            _require(getattr(ds, key) is not None, f"dataset.{key}",
                     "required for IDX datasets")

    part = cfg.partition
    _require(part.kind in (data.IID, data.CLASS_SKEW, data.QUANTITY_SKEW),
             "partition.kind", "must be iid, class_skew, or quantity_skew")
    _require(0 < part.p_class <= 1, "partition.p_class", "must be in (0, 1]")
    _require(part.alpha_dir > 0, "partition.alpha_dir", "must be > 0")
    _require(part.sigma_log >= 0, "partition.sigma_log", "must be >= 0")

    noise = cfg.noise
    _require(noise.mode in (data.BERNOULLI, data.TRUNC_GAUSS, data.FIXED),
             "noise.mode", "must be bernoulli, trunc_gauss, or fixed")
    _require(0 < noise.clean_prob <= 1, "noise.clean_prob", "must be in (0, 1]")
    _require(0 <= noise.within_rate <= 1, "noise.within_rate",
             "must be in [0, 1]")
    _require(noise.std > 0, "noise.std", "must be > 0")
    _require(0 <= noise.low < noise.high <= 1, "noise.low",
             "need 0 <= low < high <= 1")
    if noise.mode == data.FIXED:
        _require(noise.rates is not None, "noise.rates",
                 "required when noise.mode is fixed")
        _require(all(0 <= r <= 1 for r in noise.rates), "noise.rates",
                 "every rate must be in [0, 1]")

    cl = cfg.client
    _require(cl.lr > 0, "client.lr", "must be > 0")
    _require(cl.local_epochs >= 1, "client.local_epochs", "must be >= 1")
    _require(cl.batch_size >= 1, "client.batch_size", "must be >= 1")
    _require(cl.prox_mu >= 0, "client.prox_mu", "must be >= 0")
    _require(cl.h_on in (H_ON_GLOBAL, H_ON_LOCAL), "client.h_on",
             "must be 'global' or 'local'")
    _require(cl.train_on in (TRAIN_CORRECTED_ALL, TRAIN_RELABELED_ONLY),
             "client.train_on", "must be 'corrected_all' or 'relabeled_only'")

    sv = cfg.server
    _require(sv.aggregator in server.AGGREGATORS, "server.aggregator",
             f"must be one of {', '.join(server.AGGREGATORS)}")
    _require(0 <= sv.trim_pct < 50, "server.trim_pct", "must be in [0, 50)")
    _require(sv.beta > 0, "server.beta", "must be > 0")
    _require(sv.tau >= 1, "server.tau", "must be >= 1")
    _require(sv.t_k >= 1, "server.t_k", "must be >= 1")
    _require(0 < sv.alpha < 1, "server.alpha", "must be in (0, 1)")
    _require(sv.t_corr >= 1, "server.t_corr", "must be >= 1")
    _require(0 <= sv.eta <= 1, "server.eta", "must be in [0, 1]")
    _require(sv.rounds >= 0, "server.rounds", "must be >= 0")
    _require(sv.num_clients >= 1, "server.num_clients", "must be >= 1")
    _require(sv.penalty_mode in (server.PENALTY_DIVISOR, server.PENALTY_LITERAL),
             "server.penalty_mode", "must be 'divisor' or 'literal'")

    _require(all(h >= 1 for h in cfg.hidden_dims), "hidden_dims",
             "every hidden width must be >= 1")
    _require(cfg.subset_size >= 0, "subset_size", "must be >= 0")
    if ds.kind == SYNTHETIC:
        _require(cfg.subset_size >= 1, "subset_size",
                 "synthetic datasets need an explicit size")
        _require(cfg.test_size >= 1, "test_size", "must be >= 1")
    _require(cfg.seed >= 0, "seed", "must be >= 0")
    _require(cfg.workers >= 0, "workers", "must be >= 0")
    _require(cfg.checkpoint_every >= 1, "checkpoint_every", "must be >= 1")
    if noise.mode == data.FIXED:
        _require(len(noise.rates) == sv.num_clients, "noise.rates",
                 f"need exactly {sv.num_clients} rates")


def build_config(document: dict) -> ExperimentConfig:
    """Validate a parsed JSON document into an ExperimentConfig."""
    cfg = _build(ExperimentConfig, document)
    _validate(cfg)

    # FedProx is defined by its proximal term; fill the standard mu if unset
    if cfg.server.aggregator == server.FEDPROX and cfg.client.prox_mu == 0:
        cfg.client.prox_mu = DEFAULT_FEDPROX_MU
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


def config_to_dict(cfg) -> dict:
    """Exhaustive echo of every accepted key of a config (or of one of its
    sections); round-trips via build_config."""
    echo = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if is_dataclass(value):
            value = config_to_dict(value)
        elif isinstance(value, list):
            value = list(value)
        echo[f.name] = value
    return echo


def build_datasets(cfg: ExperimentConfig):
    """Materialize (train, test) datasets for a config."""
    if cfg.dataset.kind == SYNTHETIC:
        # one pool so train and test share the class centers; the generator
        # shuffles, so slicing gives disjoint i.i.d. splits
        ds = cfg.dataset
        total = cfg.subset_size + cfg.test_size
        pool = data.make_synthetic(ds.classes, -(-total // ds.classes),
                                   ds.dims, ds.spread, (cfg.seed, 10))
        train = pool.subset(slice(0, cfg.subset_size))
        test = pool.subset(slice(cfg.subset_size, total))
        return train, test

    train = data.load_idx(cfg.dataset.images, cfg.dataset.labels)
    # the first test_size test images (all with 0)
    test = data.load_idx(cfg.dataset.test_images, cfg.dataset.test_labels,
                         cfg.test_size or None)
    if cfg.subset_size and cfg.subset_size < len(train):
        rng = np.random.default_rng((cfg.seed, 12))
        keep = rng.choice(len(train), size=cfg.subset_size, replace=False)
        train = train.subset(np.sort(keep))
    return train, test

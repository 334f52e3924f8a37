"""Experiment configuration: JSON parsing, defaults, and echo.

Each default is written once, in its dataclass field, and each dataclass
checks its own fields when built; parsing and the echo walk the fields.
Every omitted field keeps its default, unknown keys are rejected, values
are type-checked by the field's annotation and every validation error
names the offending key. ``config_to_dict`` emits an exhaustive echo such
that ``build_config(config_to_dict(cfg)) == cfg``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields, is_dataclass, replace

import numpy as np

from . import data, server
from .client import ClientConfig
from .data import NoiseSpec, PartitionSpec
from .errors import ConfigError, require
from .server import ServerConfig

SYNTHETIC = "synthetic"
MNIST = "mnist"

DEFAULT_FEDPROX_MU = 0.01


@dataclass(frozen=True)
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

    def __post_init__(self):
        require(self.kind in (SYNTHETIC, MNIST), "kind",
                f"must be '{SYNTHETIC}' or '{MNIST}'")
        if self.kind == SYNTHETIC:
            require(self.classes >= 2, "classes", "need at least 2 classes")
            require(self.dims >= 1, "dims", "must be >= 1")
            require(self.spread >= 0, "spread", "must be >= 0")
        else:
            for key in ("images", "labels", "test_images", "test_labels"):
                require(getattr(self, key) is not None, key,
                        "required for IDX datasets")


@dataclass(frozen=True)
class ExperimentConfig:
    """A run's sections and top-level keys; checks those that span sections."""

    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    subset_size: int = 2000
    test_size: int = 1000
    hidden_dims: tuple[int, ...] = (64, 32)
    partition: PartitionSpec = field(default_factory=PartitionSpec)
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    client: ClientConfig = field(default_factory=ClientConfig)
    server: ServerConfig = field(default_factory=ServerConfig)
    seed: int = 0
    out_dir: str = "runs/out"
    save_checkpoints: bool = False
    checkpoint_every: int = 10
    workers: int = 0   # 0 = one worker per available core

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(self.hidden_dims))
        require(all(h >= 1 for h in self.hidden_dims), "hidden_dims",
                "every hidden width must be >= 1")
        require(self.subset_size >= 0, "subset_size", "must be >= 0")
        if self.dataset.kind == SYNTHETIC:
            require(self.subset_size >= 1, "subset_size",
                    "synthetic datasets need an explicit size")
            require(self.test_size >= 1, "test_size", "must be >= 1")
        else:  # 0 keeps every IDX test image
            require(self.test_size >= 0, "test_size", "must be >= 0")
        require(self.seed >= 0, "seed", "must be >= 0")
        require(self.out_dir != "", "out_dir", "must not be empty")
        require(self.workers >= 0, "workers", "must be >= 0")
        require(self.checkpoint_every >= 1, "checkpoint_every",
                "must be >= 1")
        if self.noise.mode == data.FIXED:
            n = self.server.num_clients
            require(len(self.noise.rates) == n, "noise.rates",
                    f"need exactly {n} rates")

    def resolved_workers(self) -> int:
        if self.workers > 0:
            return self.workers
        # the CPUs this process may run on, which an affinity mask or a
        # cpuset can make fewer than the machine's
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1


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


def _tuple(item):
    def parse(value, key: str) -> tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{key}: expected a list, got {value!r}")
        return tuple(item(v, key) for v in value)
    return parse


def _optional(parse):
    return lambda value, key: None if value is None else parse(value, key)


# leaf parsers by field annotation; nested dataclass fields are sections
_PARSERS = {
    "int": _int, "float": _float, "bool": _bool, "str": _str,
    "str | None": _optional(_str), "tuple[int, ...]": _tuple(_int),
    "tuple[float, ...] | None": _optional(_tuple(_float)),
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
    try:
        return cls(**values)
    except ConfigError as err:  # the section names its field, not itself
        raise ConfigError(f"{prefix}{err}") from None


def build_config(document: dict) -> ExperimentConfig:
    """Validate a parsed JSON document into an ExperimentConfig."""
    cfg = _build(ExperimentConfig, document)
    # FedProx is defined by its proximal term; fill the standard mu if unset
    if cfg.server.aggregator == server.FEDPROX and cfg.client.prox_mu == 0:
        cfg = replace(cfg, client=replace(cfg.client,
                                          prox_mu=DEFAULT_FEDPROX_MU))
    return cfg


def parse_config(path) -> ExperimentConfig:
    """Read and validate a JSON config file."""
    try:
        with open(path, encoding="utf-8") as fh:
            document = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except OSError as err:  # a directory, say
        raise ConfigError(f"config file {path} cannot be read: {err.strerror}")
    except UnicodeDecodeError as err:
        raise ConfigError(f"config file {path} is not UTF-8: {err}")
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
        elif isinstance(value, tuple):
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

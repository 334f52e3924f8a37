"""Digests of fednoisy's deterministic output files, for tests/golden.json.

Runs a handful of tiny configs through the CLI: ``run`` + ``cka`` for each
of CONFIGS, one ``compare`` and one ``noise-preview``. Between them they
cover every aggregator, noise mode, partition kind, ``h_on`` and
``train_on``. Every output file but the timing log and the config echo
(which records the output path) is hashed with SHA-256.

The bits of a trained model depend on the BLAS kernel, so the digests are
keyed by numpy's OpenBLAS config string and numpy's version
(:func:`host_key`). Regenerate this host's entry, keeping every other
host's, from the repository root with:

    PYTHONPATH=src python tests/regen_golden.py

A change that moves a digest on purpose says which files and why.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import sys
import tempfile

import numpy as np

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden.json")
REGEN_COMMAND = "PYTHONPATH=src python tests/regen_golden.py"
# written by every run, but not deterministic: wall times, and the echo's
# out_dir
UNHASHED = ("timings.log", "config_echo.json")


def _config(**overrides) -> dict:
    cfg = {
        "dataset": {"kind": "synthetic", "classes": 3, "dims": 6,
                    "spread": 0.8},
        "subset_size": 180, "test_size": 60, "hidden_dims": [8],
        "client": {"lr": 0.1, "local_epochs": 2, "batch_size": 16},
        "server": {"rounds": 4, "num_clients": 6, "t_corr": 2, "t_k": 2},
        "noise": {"clean_prob": 0.5},
        "seed": 3, "workers": 1,
        "save_checkpoints": True, "checkpoint_every": 2,
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            cfg[key] = {**cfg.get(key, {}), **value}
        else:
            cfg[key] = value
    return cfg


# each trained by ``run``, then reported by ``cka``
CONFIGS = {
    "fed_ncl_local_relabeled": _config(
        client={"h_on": "local", "train_on": "relabeled_only"},
        server={"aggregator": "fed_ncl"}),
    "fed_ncl_trunc_gauss_class_skew": _config(
        dataset={"classes": 4}, partition={"kind": "class_skew"},
        noise={"mode": "trunc_gauss"},
        server={"aggregator": "fed_ncl"}, workers=2),
    "fed_ncl_fixed_quantity_skew_local": _config(
        partition={"kind": "quantity_skew"},
        noise={"mode": "fixed", "rates": [0.0, 0.8, 0.0, 0.6, 0.0, 0.0]},
        client={"h_on": "local", "batch_size": 8},
        server={"aggregator": "fed_ncl"}),
    "fedprox_quantity_skew": _config(
        partition={"kind": "quantity_skew"}, hidden_dims=[8, 5],
        server={"aggregator": "fedprox"}),
    "fed_ncl_wide_local": _config(
        dataset={"dims": 48, "classes": 5}, subset_size=400,
        hidden_dims=[16, 8],
        client={"h_on": "local", "batch_size": 20},
        server={"aggregator": "fed_ncl", "num_clients": 8}),
    "trimmed_mean_one_batch": _config(
        client={"batch_size": 30},
        server={"aggregator": "trimmed_mean", "trim_pct": 20.0}),
    # the benchmark's shapes, where OpenBLAS takes other GEMM paths than on
    # the tiny configs, and the only config here whose clients train on
    # local_train's dual path
    "fed_ncl_benchmark_shape": _config(
        dataset={"dims": 784, "classes": 10, "spread": 2.0},
        subset_size=200, hidden_dims=[64, 32],
        client={"lr": 0.01, "local_epochs": 10, "batch_size": 60},
        server={"aggregator": "fed_ncl", "rounds": 2, "num_clients": 2}),
    # dual path across a relabeled_only correction: client 4's shard drops
    # from 60 rows to 20 at t_corr and keeps training on the dual path, on
    # the shard Gram that the cut after t_corr makes from its new rows
    "fed_ncl_dual_relabeled": _config(
        dataset={"dims": 784, "classes": 10, "spread": 2.0},
        subset_size=360, hidden_dims=[64, 32],
        client={"lr": 0.02, "local_epochs": 10, "batch_size": 60,
                "train_on": "relabeled_only"},
        server={"aggregator": "fed_ncl", "rounds": 5, "t_corr": 3,
                "alpha": 0.3, "eta": 0.7},
        workers=2),
}
# trained on local_train's dual path (tests/test_golden.py asserts it)
DUAL_CONFIGS = ("fed_ncl_benchmark_shape", "fed_ncl_dual_relabeled")
COMPARE = ("compare_fedavg_fed_ncl", _config(
    noise={"mode": "trunc_gauss"}, save_checkpoints=False),
    "fedavg,fed_ncl")
NOISE_PREVIEW = ("noise_preview_trunc_gauss", _config(
    dataset={"classes": 4}, partition={"kind": "class_skew"},
    noise={"mode": "trunc_gauss"}))


def host_key() -> str:
    """numpy's OpenBLAS config string and numpy's version."""
    lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    get_config = lib.scipy_openblas_get_config64_
    get_config.argtypes = []
    get_config.restype = ctypes.c_char_p
    return f"{get_config().decode().strip()} | numpy {np.__version__}"


def _cli(command: list[str], cfg: dict, out_dir: str) -> None:
    from fednoisy.cli import main

    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "config.json")
    with open(path, "w") as fh:
        json.dump(dict(cfg, out_dir=out_dir), fh)
    code = main([command[0], "--config", path, *command[1:]])
    if code != 0:
        raise RuntimeError(f"{' '.join(command)} on {out_dir} exited {code}")
    os.remove(path)


def output_digests(root: str) -> dict[str, str]:
    """Run every golden config under ``root`` (an empty directory) and
    return the SHA-256 of each output file, keyed by its path under
    ``root``."""
    for name, cfg in CONFIGS.items():
        out = os.path.join(root, name)
        _cli(["run"], cfg, out)
        _cli(["cka"], cfg, out)
    name, cfg, aggregators = COMPARE
    _cli(["compare", "--aggregators", aggregators], cfg,
         os.path.join(root, name))
    name, cfg = NOISE_PREVIEW
    _cli(["noise-preview"], cfg, os.path.join(root, name))

    digests = {}
    for folder, _, names in os.walk(root):
        for file_name in names:
            if file_name in UNHASHED:
                continue
            path = os.path.join(folder, file_name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            digests[os.path.relpath(path, root).replace(os.sep, "/")] = digest
    return dict(sorted(digests.items()))


def read_golden() -> dict[str, dict[str, str]]:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def main() -> int:
    golden = read_golden() if os.path.isfile(GOLDEN_PATH) else {}
    with tempfile.TemporaryDirectory() as root:
        golden[host_key()] = output_digests(root)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(golden[host_key()])} digests for {host_key()!r} "
          f"to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

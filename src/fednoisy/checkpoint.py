"""Model checkpoints: flat little-endian float64 blobs plus a JSON manifest.

A blob is a model's ``ModelParams.flat`` buffer verbatim (W0, b0, W1, b1, ...).

A round directory holds ``global.bin``, one ``client_###.bin`` per client,
and ``manifest.json`` recording layer shapes, activations, and the ground
truth noise rates (so CKA analysis can split noisy/clean groups later).

Beside the rounds, ``probe.npy`` holds the run's CKA probe rows (an .npy
array, written once by :func:`save_probe`), and every manifest of the run
records its fingerprint as ``probe_id``. :func:`read_probe` refuses a probe
file whose fingerprint is not the manifest's, so ``cka`` needs neither the
run's data nor its seed and never pairs models with another run's probe.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable, Iterator

import numpy as np

from . import nn
from .analysis import probe_fingerprint
from .errors import DataFormatError

MANIFEST_NAME = "manifest.json"
GLOBAL_NAME = "global.bin"
PROBE_NAME = "probe.npy"
# the keys load_round reads
MANIFEST_KEYS = ("layer_shapes", "activations", "global", "clients",
                 "noise_rates", "round")


def round_dir(base_dir, round_idx: int) -> str:
    return os.path.join(base_dir, f"round_{round_idx:04d}")


def _replace_file(path, mode: str, write) -> None:
    """Call ``write(fh)`` on a temporary file opened with ``mode`` and
    renamed over ``path``, so a crash mid-write never leaves a truncated
    ``path``."""
    tmp_path = path + ".tmp"
    try:
        with open(tmp_path, mode) as fh:
            write(fh)
        os.replace(tmp_path, path)
    finally:
        if os.path.exists(tmp_path):
            os.remove(tmp_path)


def save_probe(base_dir, probe: np.ndarray) -> str:
    """Write the CKA probe rows to ``base_dir/probe.npy``; returns their
    fingerprint, the ``probe_id`` the run's manifests record."""
    os.makedirs(base_dir, exist_ok=True)
    _replace_file(os.path.join(base_dir, PROBE_NAME), "wb",
                  lambda fh: np.save(fh, probe, allow_pickle=False))
    return probe_fingerprint(probe)


def read_probe(base_dir, manifest: dict) -> np.ndarray:
    """The probe rows in ``base_dir/probe.npy``, refused unless their
    fingerprint is the ``probe_id`` that ``manifest`` records."""
    probe_path = os.path.join(base_dir, PROBE_NAME)
    if not os.path.isfile(probe_path):
        raise FileNotFoundError(f"missing CKA probe: expected {probe_path}; "
                                "rerun with save_checkpoints=true")
    probe = np.load(probe_path, allow_pickle=False)
    found = probe_fingerprint(probe)
    stored = manifest.get("probe_id")
    if found != stored:
        raise DataFormatError(
            f"{probe_path} holds CKA probe {found}, but the checkpoint "
            f"manifest records {stored or '(no probe_id)'}")
    return probe


def save_round(base_dir, round_idx: int, global_params: nn.ModelParams,
               client_params: list[nn.ModelParams], noise_rates, *,
               probe_id: str | None = None) -> str:
    path = round_dir(base_dir, round_idx)
    os.makedirs(path, exist_ok=True)
    manifest = {
        "round": round_idx,
        "layer_shapes": [list(shape) for shape in global_params.shapes],
        "activations": list(global_params.activations),
        "num_clients": len(client_params),
        "noise_rates": [float(r) for r in noise_rates],
        "global": GLOBAL_NAME,
        "clients": [f"client_{c:03d}.bin" for c in range(len(client_params))],
    }
    if probe_id is not None:
        manifest["probe_id"] = probe_id
    for name, params in zip([GLOBAL_NAME, *manifest["clients"]],
                            [global_params, *client_params]):
        params.flat.astype("<f8", copy=False).tofile(os.path.join(path, name))
    # written last and renamed into place, so a readable manifest always
    # describes a complete round, even after a crash mid-write
    def write_manifest(fh):
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")

    _replace_file(os.path.join(path, MANIFEST_NAME), "w", write_manifest)
    return path


def read_manifest(path) -> dict:
    """The manifest of a round directory, checked for the keys load_round
    reads and for one noise rate per client."""
    manifest_path = os.path.join(path, MANIFEST_NAME)
    if not os.path.isfile(manifest_path):
        raise FileNotFoundError(
            f"missing checkpoint manifest: expected {manifest_path}")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    missing = [key for key in MANIFEST_KEYS if key not in manifest]
    if missing:
        raise DataFormatError(f"checkpoint manifest {manifest_path} lacks "
                              f"key(s) {', '.join(missing)}")
    counts = {"noise_rates": len(manifest["noise_rates"]),
              "clients": len(manifest["clients"])}
    if "num_clients" in manifest:
        counts["num_clients"] = manifest["num_clients"]
    if len(set(counts.values())) > 1:
        found = ", ".join(f"{key} {n}" for key, n in counts.items())
        raise DataFormatError(f"checkpoint manifest {manifest_path} disagrees "
                              f"on the client count: {found}")
    return manifest


def read_model(path, name: str, manifest: dict) -> nn.ModelParams:
    """The model in blob ``name`` of a round directory, shaped by its
    manifest."""
    blob_path = os.path.join(path, name)
    if not os.path.isfile(blob_path):
        raise FileNotFoundError(f"missing checkpoint blob: {blob_path}")
    shapes = manifest["layer_shapes"]
    nbytes = os.path.getsize(blob_path)
    expected = 8 * sum(o * i + o for o, i in shapes)
    if nbytes != expected:
        raise DataFormatError(f"{blob_path}: checkpoint blob holds {nbytes} "
                              f"bytes, expected {expected}")
    # read straight into the model's buffer, which "<f8" is on a
    # little-endian host (elsewhere astype swaps the bytes)
    flat = np.fromfile(blob_path, dtype="<f8").astype(np.float64, copy=False)
    return nn.ModelParams.from_flat(flat, shapes, manifest["activations"])


class _ClientModels:
    def __init__(self, path, manifest: dict):
        self.path = path
        self.manifest = manifest

    def __iter__(self) -> Iterator[nn.ModelParams]:
        for name in self.manifest["clients"]:
            yield read_model(self.path, name, self.manifest)


def client_models(path, manifest: dict) -> Iterable[nn.ModelParams]:
    """The manifest's client models in order. Every iteration reads the
    blobs again, each only when the previous model is consumed, so any
    number of passes keep one model alive at a time."""
    return _ClientModels(path, manifest)


def load_round(path) -> tuple[nn.ModelParams, list[nn.ModelParams], list[float], int]:
    """Returns (global, clients, noise_rates, round_idx) for a round directory."""
    manifest = read_manifest(path)
    return (read_model(path, manifest["global"], manifest),
            list(client_models(path, manifest)), manifest["noise_rates"],
            manifest["round"])


def available_rounds(base_dir) -> list[int]:
    if not os.path.isdir(base_dir):
        return []
    rounds = []
    for name in os.listdir(base_dir):
        if name.startswith("round_") and name[6:].isdigit():
            rounds.append(int(name[6:]))
    return sorted(rounds)

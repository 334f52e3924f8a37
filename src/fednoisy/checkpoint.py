"""Model checkpoints: flat little-endian float64 blobs plus a JSON manifest.

A blob is a model's ``ModelParams.flat`` buffer verbatim (W0, b0, W1, b1, ...).

A round directory holds ``global.bin``, one ``client_###.bin`` per client,
and ``manifest.json`` recording layer shapes and the ground truth noise
rates (so CKA analysis can split noisy/clean groups later). It is written
as ``round_NNNN.tmp/`` and renamed into place, so a ``round_NNNN/`` is
always a complete round.

Beside the rounds, ``probe.npy`` holds the run's CKA probe rows (an .npy
array, written once by :func:`save_probe`), and every manifest of the run
records its fingerprint as ``probe_id``. :func:`read_probe` refuses a probe
file whose fingerprint is not the manifest's, so ``cka`` needs neither the
run's data nor its seed and never pairs models with another run's probe.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from collections.abc import Sequence

import numpy as np

from . import nn
from .errors import DataFormatError

MANIFEST_NAME = "manifest.json"
GLOBAL_NAME = "global.bin"
PROBE_NAME = "probe.npy"


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_file_name(v) -> bool:  # inside the round directory, never out of it
    return (isinstance(v, str) and v != "" and ".." not in v
            and os.path.basename(v) == v)


def _list_of(check):
    return lambda v: isinstance(v, list) and all(map(check, v))


def _is_shape_chain(v) -> bool:
    pairs = _list_of(lambda s: isinstance(s, list) and len(s) == 2
                     and all(_is_int(n) and n > 0 for n in s))
    return pairs(v) and all(a[0] == b[1] for a, b in zip(v, v[1:]))


# the keys load_round reads, each with what it must hold; an older
# manifest's "activations" is ignored
MANIFEST_KEYS = {
    "layer_shapes": ("a list of [out, in] pairs of positive ints, each in "
                     "the out before it", _is_shape_chain),
    "global": ("a plain file name", _is_file_name),
    "clients": ("a list of plain file names", _list_of(_is_file_name)),
    "noise_rates": ("a list of finite numbers", _list_of(
        lambda r: _is_int(r) or isinstance(r, float) and np.isfinite(r))),
    "round": ("an int", _is_int),
    "num_clients": ("an int", _is_int),
}


def round_dir(base_dir, round_idx: int) -> str:
    return os.path.join(base_dir, f"round_{round_idx:04d}")


def probe_fingerprint(probe: np.ndarray) -> str:
    """The probe's row and column counts and a SHA-256 prefix of its bytes."""
    digest = hashlib.sha256(np.ascontiguousarray(probe).tobytes()).hexdigest()
    return f"n{probe.shape[0]}d{probe.shape[1]}-{digest[:12]}"


def save_probe(base_dir, probe: np.ndarray) -> str:
    """Write the CKA probe rows to ``base_dir/probe.npy``; returns their
    fingerprint, the ``probe_id`` the run's manifests record. The file is
    written under a temporary name and renamed into place, so a crash
    mid-write never leaves a truncated probe."""
    os.makedirs(base_dir, exist_ok=True)
    path = os.path.join(base_dir, PROBE_NAME)
    tmp_path = path + ".tmp"
    try:
        with open(tmp_path, "wb") as fh:
            np.save(fh, probe, allow_pickle=False)
        os.replace(tmp_path, path)
    finally:
        if os.path.exists(tmp_path):
            os.remove(tmp_path)
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
    """Write a round's models and manifest to ``round_dir(base_dir,
    round_idx)`` and return that path. The round is written to a ``.tmp``
    directory and renamed into place, replacing an earlier save of the
    round, so a failed save leaves no partial round and the earlier save
    whole."""
    path = round_dir(base_dir, round_idx)
    tmp_path = path + ".tmp"
    shutil.rmtree(tmp_path, ignore_errors=True)  # left by a killed save
    os.makedirs(tmp_path)
    manifest = {
        "round": round_idx,
        "layer_shapes": [list(shape) for shape in global_params.shapes],
        "num_clients": len(client_params),
        "noise_rates": [float(r) for r in noise_rates],
        "global": GLOBAL_NAME,
        "clients": [f"client_{c:03d}.bin" for c in range(len(client_params))],
    }
    if probe_id is not None:
        manifest["probe_id"] = probe_id
    try:
        for name, params in zip([GLOBAL_NAME, *manifest["clients"]],
                                [global_params, *client_params]):
            params.flat.astype("<f8", copy=False).tofile(
                os.path.join(tmp_path, name))
        with open(os.path.join(tmp_path, MANIFEST_NAME), "w") as fh:
            json.dump(manifest, fh, indent=1, sort_keys=True)
            fh.write("\n")
        if os.path.isdir(path):
            shutil.rmtree(path)
        os.rename(tmp_path, path)
    finally:
        shutil.rmtree(tmp_path, ignore_errors=True)
    return path


def read_manifest(path) -> dict:
    """The manifest of a round directory, checked for the keys load_round
    reads, for their types and for one noise rate per client."""
    manifest_path = os.path.join(path, MANIFEST_NAME)
    if not os.path.isfile(manifest_path):
        raise FileNotFoundError(
            f"missing checkpoint manifest: expected {manifest_path}")
    with open(manifest_path) as fh:
        try:
            manifest = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as err:
            raise DataFormatError(f"checkpoint manifest {manifest_path} is "
                                  f"not valid JSON: {err}") from err
    if not isinstance(manifest, dict):
        raise DataFormatError(
            f"checkpoint manifest {manifest_path} is not a JSON object")
    missing = [key for key in MANIFEST_KEYS if key not in manifest]
    if missing:
        raise DataFormatError(f"checkpoint manifest {manifest_path} lacks "
                              f"key(s) {', '.join(missing)}")
    for key, (kind, check) in MANIFEST_KEYS.items():
        if not check(manifest[key]):
            raise DataFormatError(f"checkpoint manifest {manifest_path}: "
                                  f"{key} must be {kind}")
    counts = {"noise_rates": len(manifest["noise_rates"]),
              "clients": len(manifest["clients"]),
              "num_clients": manifest["num_clients"]}
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
    return nn.ModelParams.from_flat(flat, shapes)


class ClientModels(Sequence):
    """A round directory's client models as a sized sequence. Indexing reads
    the client's blob then, so every pass reads the blobs again, and a pass
    that drops each model before the next keeps one alive at a time."""

    def __init__(self, path, manifest: dict):
        self.path, self.manifest = path, manifest

    def __len__(self) -> int:
        return len(self.manifest["clients"])

    def __getitem__(self, c: int) -> nn.ModelParams:
        return read_model(self.path, self.manifest["clients"][c], self.manifest)


def load_round(path) -> tuple[nn.ModelParams, list[nn.ModelParams], list[float], int]:
    """Returns (global, clients, noise_rates, round_idx) for a round directory."""
    manifest = read_manifest(path)
    return (read_model(path, manifest["global"], manifest),
            list(ClientModels(path, manifest)), manifest["noise_rates"],
            manifest["round"])


def available_rounds(base_dir) -> list[int]:
    if not os.path.isdir(base_dir):
        return []
    rounds = []
    for name in os.listdir(base_dir):
        if name.startswith("round_") and name[6:].isdigit():
            rounds.append(int(name[6:]))
    return sorted(rounds)

"""Unit tests for checkpoint blobs and manifests."""

import itertools
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fednoisy import checkpoint, nn
from fednoisy.errors import DataFormatError
from tests_util import flatten_params, model_stacks


def model(seed=0):
    return nn.init_params([5, 4, 3], seed)


def save_one(tmp_path, m):
    """Save ``m`` as the global model of a round; returns the round
    directory, its manifest and the blob's path."""
    path = checkpoint.save_round(tmp_path, 1, m, [m], [0.0])
    manifest = checkpoint.read_manifest(path)
    return path, manifest, os.path.join(path, manifest["global"])


def test_blob_round_trip(tmp_path):
    m = model(1)
    path, manifest, _ = save_one(tmp_path, m)
    back = checkpoint.read_model(path, manifest["global"], manifest)
    for l in range(m.num_layers):
        assert np.array_equal(back.weights[l], m.weights[l])
        assert np.array_equal(back.biases[l], m.biases[l])
    assert back.shapes == m.shapes


def test_blob_is_little_endian_float64(tmp_path):
    m = model(2)
    blob = open(save_one(tmp_path, m)[2], "rb").read()
    n_params = sum(w.size + b.size for w, b in zip(m.weights, m.biases))
    assert len(blob) == 8 * n_params
    first = np.frombuffer(blob[:8], dtype="<f8")[0]
    assert first == m.weights[0][0, 0]


@settings(max_examples=40, deadline=None)
@given(model_stacks())
def test_blob_is_flat_buffer_and_round_trips(tmp_path_factory, models):
    # the clients are rows of one stacked buffer, as a cohort's are
    stack = np.stack([m.flat for m in models])
    clients = [nn.ModelParams.from_flat(row, m.shapes)
               for row, m in zip(stack, models)]
    path = checkpoint.save_round(tmp_path_factory.mktemp("blobs"), 1,
                                 models[0], clients, [0.0] * len(models))
    manifest = checkpoint.read_manifest(path)
    names = [manifest["global"], *manifest["clients"]]
    for name, m in zip(names, [models[0], *models], strict=True):
        with open(os.path.join(path, name), "rb") as fh:
            assert fh.read() == flatten_params(m).astype("<f8").tobytes()
        back = checkpoint.read_model(path, name, manifest)
        assert back.flat.dtype == np.float64
        assert back.flat.tobytes() == m.flat.tobytes()
        assert back.shapes == m.shapes


def test_blob_size_mismatch_rejected(tmp_path):
    path, manifest, blob_path = save_one(tmp_path, model(3))
    with open(blob_path, "ab") as fh:
        fh.write(bytes(8))
    with pytest.raises(DataFormatError, match="expected") as err:
        checkpoint.read_model(path, manifest["global"], manifest)
    assert blob_path in str(err.value)


def test_round_save_load(tmp_path):
    g = model(4)
    clients = [model(5), model(6)]
    checkpoint.save_round(tmp_path, 30, g, clients, [0.0, 1.0])
    back_g, back_clients, rates, round_idx = checkpoint.load_round(
        checkpoint.round_dir(tmp_path, 30))
    assert round_idx == 30
    assert rates == [0.0, 1.0]
    assert len(back_clients) == 2
    assert np.array_equal(back_g.weights[0], g.weights[0])
    assert np.array_equal(back_clients[1].weights[1], clients[1].weights[1])


def test_manifest_records_probe_id_when_given(tmp_path):
    g = model(8)
    with_id = checkpoint.save_round(tmp_path / "a", 10, g, [g], [0.0],
                                    probe_id="n512d784-0123456789ab")
    without = checkpoint.save_round(tmp_path / "b", 10, g, [g], [0.0])
    assert checkpoint.read_manifest(with_id)["probe_id"] == "n512d784-0123456789ab"
    assert "probe_id" not in checkpoint.read_manifest(without)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(1, 5), st.data())
def test_probe_round_trips_bit_for_bit(tmp_path_factory, rows, cols, data_):
    values = data_.draw(st.lists(st.floats(allow_nan=True, allow_infinity=True),
                                 min_size=(rows + 1) * cols,
                                 max_size=(rows + 1) * cols))
    # leading rows of a larger array, as run's probe is of its test set
    probe = np.array(values).reshape(rows + 1, cols)[:rows]
    base = tmp_path_factory.mktemp("probe")
    probe_id = checkpoint.save_probe(base, probe)
    assert probe_id == checkpoint.probe_fingerprint(probe)
    assert os.listdir(base) == [checkpoint.PROBE_NAME]
    back = checkpoint.read_probe(base, {"probe_id": probe_id})
    assert back.dtype == np.float64 and back.shape == probe.shape
    assert back.tobytes() == probe.tobytes()


def test_save_probe_replaces_an_earlier_probe(tmp_path):
    checkpoint.save_probe(tmp_path, np.zeros((4, 3)))
    probe_id = checkpoint.save_probe(tmp_path, np.ones((2, 3)))
    back = checkpoint.read_probe(tmp_path, {"probe_id": probe_id})
    assert np.array_equal(back, np.ones((2, 3)))
    assert os.listdir(tmp_path) == [checkpoint.PROBE_NAME]


@pytest.mark.parametrize("manifest", [{}, {"probe_id": None},
                                      {"probe_id": "n3d3-0123456789ab"}])
def test_read_probe_refuses_another_fingerprint(tmp_path, manifest):
    probe_id = checkpoint.save_probe(tmp_path, np.eye(3))
    with pytest.raises(DataFormatError) as err:
        checkpoint.read_probe(tmp_path, manifest)
    assert os.path.join(tmp_path, checkpoint.PROBE_NAME) in str(err.value)
    assert probe_id in str(err.value)


def test_read_probe_names_a_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError) as err:
        checkpoint.read_probe(tmp_path, {"probe_id": "n3d3-0123456789ab"})
    assert os.path.join(tmp_path, checkpoint.PROBE_NAME) in str(err.value)


def test_available_rounds(tmp_path):
    assert checkpoint.available_rounds(tmp_path / "nothing") == []
    g = model(7)
    for r in (20, 10, 30):
        checkpoint.save_round(tmp_path, r, g, [g], [0.0])
    assert checkpoint.available_rounds(tmp_path) == [10, 20, 30]


def read_round_files(path):
    return {name: open(os.path.join(path, name), "rb").read()
            for name in sorted(os.listdir(path))}


def test_failed_manifest_write_leaves_no_manifest(tmp_path, monkeypatch):
    def half_dump(obj, fh, **kwargs):
        fh.write('{"round": ')
        raise OSError("disk full")

    g = model(9)
    kept = checkpoint.save_round(tmp_path / "kept", 10, g, [g], [0.0])
    kept_files = read_round_files(kept)
    monkeypatch.setattr(checkpoint.json, "dump", half_dump)
    with pytest.raises(OSError, match="disk full"):
        checkpoint.save_round(tmp_path / "new", 10, g, [g], [0.0])
    # a failed first save leaves no round directory, not even a .tmp one
    assert os.listdir(tmp_path / "new") == []
    assert checkpoint.available_rounds(tmp_path / "new") == []
    # a failed rewrite leaves the previous blobs and manifest whole
    with pytest.raises(OSError, match="disk full"):
        checkpoint.save_round(tmp_path / "kept", 10, model(10), [model(11)],
                              [0.0])
    assert sorted(kept_files) == [
        "client_000.bin", "global.bin", checkpoint.MANIFEST_NAME]
    assert read_round_files(kept) == kept_files
    assert os.listdir(tmp_path / "kept") == ["round_0010"]


def test_save_round_replaces_an_earlier_save_and_a_stale_tmp(tmp_path):
    g = model(9)
    checkpoint.save_round(tmp_path, 10, g, [g, g], [0.0, 1.0])
    stale = checkpoint.round_dir(tmp_path, 10) + ".tmp"
    os.makedirs(stale)
    open(os.path.join(stale, "client_007.bin"), "wb").close()
    path = checkpoint.save_round(tmp_path, 10, model(1), [model(2)], [0.5])
    assert path == checkpoint.round_dir(tmp_path, 10)
    assert os.listdir(tmp_path) == ["round_0010"]
    assert sorted(os.listdir(path)) == [
        "client_000.bin", "global.bin", checkpoint.MANIFEST_NAME]
    back_g, back_clients, rates, _ = checkpoint.load_round(path)
    assert back_g.flat.tobytes() == model(1).flat.tobytes()
    assert [c.flat.tobytes() for c in back_clients] == [model(2).flat.tobytes()]
    assert rates == [0.5]


def test_failed_probe_write_leaves_the_earlier_probe(tmp_path, monkeypatch):
    def half_save(fh, arr, **kwargs):
        fh.write(b"\x93NUMPY")
        raise OSError("disk full")

    probe_id = checkpoint.save_probe(tmp_path, np.eye(3))
    monkeypatch.setattr(checkpoint.np, "save", half_save)
    with pytest.raises(OSError, match="disk full"):
        checkpoint.save_probe(tmp_path, np.ones((3, 3)))
    assert os.listdir(tmp_path) == [checkpoint.PROBE_NAME]
    back = checkpoint.read_probe(tmp_path, {"probe_id": probe_id})
    assert np.array_equal(back, np.eye(3))


def test_missing_manifest_lists_expected_path(tmp_path):
    with pytest.raises(FileNotFoundError, match="manifest"):
        checkpoint.load_round(tmp_path)


@pytest.mark.parametrize("text,reason", [
    ('{"round": ', "not valid JSON"),      # truncated mid-write
    (b"\xff\xfe\x00", "not valid JSON"),   # not text
    ("[1, 2]", "not a JSON object"),
    ("null", "not a JSON object"),
])
def test_unreadable_manifest_names_its_path(tmp_path, text, reason):
    path = checkpoint.save_round(tmp_path, 10, model(8), [model(8)], [0.0])
    manifest_path = os.path.join(path, checkpoint.MANIFEST_NAME)
    with open(manifest_path, "wb") as fh:
        fh.write(text if isinstance(text, bytes) else text.encode())
    for read in (checkpoint.read_manifest, checkpoint.load_round):
        with pytest.raises(DataFormatError, match=reason) as err:
            read(path)
        assert manifest_path in str(err.value)


@pytest.mark.parametrize("key", ["layer_shapes", "global", "clients",
                                 "noise_rates", "round"])
def test_manifest_missing_key_names_key_and_path(tmp_path, key):
    g = model(8)
    path = checkpoint.save_round(tmp_path, 10, g, [g], [0.0])
    manifest_path = os.path.join(path, checkpoint.MANIFEST_NAME)
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    del manifest[key]
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh)
    with pytest.raises(DataFormatError) as err:
        checkpoint.load_round(path)
    assert key in str(err.value)
    assert manifest_path in str(err.value)


def edit_manifest(path, **changes):
    manifest_path = os.path.join(path, checkpoint.MANIFEST_NAME)
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    manifest.update(changes)
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh)
    return manifest_path


@pytest.mark.parametrize("changes", [
    {"noise_rates": [0.0, 1.0, 1.0]},   # 3 rates for 2 clients
    {"noise_rates": [0.0]},
    {"num_clients": 3},
])
def test_manifest_with_mismatched_client_counts_rejected(tmp_path, changes):
    g = model(3)
    path = checkpoint.save_round(tmp_path, 10, g, [model(4), model(5)],
                                 [0.0, 1.0])
    manifest_path = edit_manifest(path, **changes)
    for read in (checkpoint.read_manifest, checkpoint.load_round):
        with pytest.raises(DataFormatError, match="client count") as err:
            read(path)
        assert manifest_path in str(err.value)


@pytest.mark.parametrize("key, value", [
    ("noise_rates", 0.5),
    ("noise_rates", [0.0, "0.5"]),
    ("noise_rates", [0.0, float("nan")]),
    ("noise_rates", [0.0, True]),
    ("clients", "client_000.bin"),
    ("clients", ["client_000.bin", "../../../c.json"]),
    ("clients", ["client_000.bin", "sub/client_001.bin"]),
    ("clients", ["client_000.bin", 1]),
    ("global", "../global.bin"),
    ("layer_shapes", [[4, "5"], [3, 4]]),
    ("layer_shapes", [[4, 5], [3]]),
    ("layer_shapes", [[4, 5], [0, 4]]),
    ("layer_shapes", [[4, 5.0], [3, 4]]),
    ("layer_shapes", "[[4, 5], [3, 4]]"),
    ("layer_shapes", [[4, 5], [5, 2]]),  # the blob size of [[4, 5], [3, 4]]
    ("num_clients", "2"),
    ("num_clients", 2.0),
    ("round", "10"),
    ("round", 10.0),
    ("round", True),
])
def test_manifest_with_a_mistyped_key_names_key_and_path(tmp_path, key, value):
    g = model(3)
    path = checkpoint.save_round(tmp_path, 10, g, [model(4), model(5)],
                                 [0.0, 1.0])
    manifest_path = edit_manifest(path, **{key: value})
    for read in (checkpoint.read_manifest, checkpoint.load_round):
        with pytest.raises(DataFormatError, match=f"{key} must be") as err:
            read(path)
        assert manifest_path in str(err.value)


def test_client_models_streams_the_blobs_in_order(tmp_path):
    clients = [model(s) for s in range(10, 14)]
    path = checkpoint.save_round(tmp_path, 20, model(9), clients, [0.0] * 4)
    manifest = checkpoint.read_manifest(path)
    models = checkpoint.ClientModels(path, manifest)
    assert len(models) == 4
    want = [c.flat.tobytes() for c in clients]
    assert [m.flat.tobytes() for m in models] == want
    # every pass reads the blobs again
    replaced = model(15)
    replaced.flat.tofile(os.path.join(path, manifest["clients"][1]))
    assert [m.flat.tobytes() for m in models] == [
        want[0], replaced.flat.tobytes(), *want[2:]]
    stream = iter(models)
    first = next(stream)
    assert first.flat.tobytes() == want[0]
    # the blobs are read as the stream is consumed, not up front
    os.remove(os.path.join(path, manifest["clients"][3]))
    assert [m.flat.tobytes() for m in itertools.islice(stream, 2)] == [
        replaced.flat.tobytes(), want[2]]
    with pytest.raises(FileNotFoundError, match="client_003.bin"):
        next(stream)
    # and indexing reads a blob when the model is taken, not before
    assert models[2].flat.tobytes() == want[2]
    clients[0].flat.tofile(os.path.join(path, manifest["clients"][2]))
    assert models[2].flat.tobytes() == want[0]
    with pytest.raises(FileNotFoundError, match="client_003.bin"):
        models[3]
    assert len(models) == 4


def test_truncated_blob_names_its_path(tmp_path):
    path = checkpoint.save_round(tmp_path, 20, model(9), [model(1), model(2)],
                                 [0.0, 0.0])
    blob_path = os.path.join(path, "client_001.bin")
    with open(blob_path, "r+b") as fh:
        fh.truncate(os.path.getsize(blob_path) - 8)
    with pytest.raises(DataFormatError, match="expected") as err:
        checkpoint.load_round(path)
    assert blob_path in str(err.value)

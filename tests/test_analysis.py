"""Unit tests for CKA, divergence traces, accuracy, and metrics persistence."""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fednoisy import analysis, data, nn
from fednoisy.analysis import RoundMetrics, linear_cka
from tests_util import model_stacks


def rand(n, p, seed):
    return np.random.default_rng(seed).normal(size=(n, p))


# -------------------------------------------------------------- linear CKA

def test_cka_self_similarity_is_one():
    x = rand(50, 8, 0)
    assert linear_cka(x, x) == pytest.approx(1.0, abs=1e-9)


def test_cka_orthogonal_and_scale_invariance():
    rng = np.random.default_rng(1)
    x = rand(60, 10, 2)
    q, _ = np.linalg.qr(rng.normal(size=(10, 10)))
    assert linear_cka(x, x @ q) == pytest.approx(1.0, abs=1e-9)
    assert linear_cka(x, -3.7 * x) == pytest.approx(1.0, abs=1e-9)
    y = rand(60, 6, 3)
    assert linear_cka(x, y) == pytest.approx(linear_cka(x, 2.5 * y), abs=1e-9)


def test_cka_independent_features_near_zero():
    x = rand(2000, 16, 4)
    y = rand(2000, 16, 5)
    assert linear_cka(x, y) < 0.05


def test_cka_symmetry_and_bounds():
    for seed in range(5):
        x, y = rand(40, 7, seed), rand(40, 9, seed + 50)
        v = linear_cka(x, y)
        assert v == pytest.approx(linear_cka(y, x), abs=1e-12)
        assert -1e-9 <= v <= 1 + 1e-9


def test_cka_rejects_degenerate_inputs():
    x = rand(30, 4, 6)
    with pytest.raises(ValueError):
        linear_cka(x, np.ones((30, 3)))  # zero variance after centering
    with pytest.raises(ValueError):
        linear_cka(x[:1], x[:1])  # single sample
    from fednoisy.errors import ShapeError
    with pytest.raises(ShapeError):
        linear_cka(x, rand(29, 4, 7))


# --------------------------------------------------------- cka_layer_report

def small_models(n_models, seed0=0, sizes=(6, 5, 4, 3)):
    return [nn.init_params(list(sizes), s)
            for s in range(seed0, seed0 + n_models)]


def test_report_identical_models_all_ones():
    m = small_models(1)[0]
    probe = rand(32, 6, 8)
    report = analysis.cka_layer_report([m.copy(), m.copy()], m, probe,
                                       noisy_ids=[1])
    for mat in report.matrices:
        assert np.allclose(mat, 1.0, atol=1e-9)
    assert report.mean_noisy == pytest.approx([1.0] * 3, abs=1e-9)


def test_report_matrices_symmetric_unit_diagonal():
    models = small_models(4)
    probe = rand(40, 6, 9)
    report = analysis.cka_layer_report(models[:3], models[3], probe, [0])
    assert report.num_layers == 3
    for mat in report.matrices:
        assert mat.shape == (4, 4)
        assert np.allclose(mat, mat.T, atol=1e-12)
        assert np.allclose(np.diag(mat), 1.0, atol=1e-9)
        assert mat.min() >= -1e-9 and mat.max() <= 1 + 1e-9


def test_report_group_means_partition_clients():
    models = small_models(5)
    probe = rand(30, 6, 10)
    report = analysis.cka_layer_report(models[:4], models[4], probe, [1, 3])
    g = 4
    for l in range(report.num_layers):
        mat = report.matrices[l]
        assert report.mean_noisy[l] == pytest.approx(
            (mat[1, g] + mat[3, g]) / 2, abs=1e-12)
        assert report.mean_clean[l] == pytest.approx(
            (mat[0, g] + mat[2, g]) / 2, abs=1e-12)


K = analysis._CKA_BLOCK


@settings(max_examples=100, deadline=None)
@given(model_stacks(counts=st.sampled_from(
           [2, K - 1, K, K + 1, K + 2, 2 * K + 1, 2 * K + 2])),
       st.sampled_from([2, 3, 5, 8, 12]), st.integers(0, 2**32 - 1))
def test_report_matches_pairwise_oracle(models, rows, seed):
    # client counts 1, K-2 .. K+1, 2K and 2K+1 put the M = clients + 1 models
    # on both sides of the GEMM block boundaries; rows run below and above
    # the layer widths (1-6)
    probe = np.random.default_rng(seed).normal(size=(rows, models[0].in_dim))
    feats = [nn.forward(m, probe)[0] for m in models]
    n_models = len(models)
    try:
        oracle = [[[linear_cka(feats[i][l], feats[j][l]) for j in range(n_models)]
                   for i in range(n_models)] for l in range(models[0].num_layers)]
    except ValueError:  # some model has a zero-variance layer on this probe
        with pytest.raises(ValueError, match="zero-variance"):
            analysis.cka_layer_report(models[:-1], models[-1], probe, [0])
        return
    report = analysis.cka_layer_report(models[:-1], models[-1], probe, [0])
    for mat, want in zip(report.matrices, oracle, strict=True):
        want = np.array(want)
        np.fill_diagonal(want, 1.0)
        assert np.abs(mat - want).max() <= 1e-12
        assert np.array_equal(mat, mat.T)
        assert (np.diag(mat) == 1.0).all()
        assert mat.min() >= 0.0 and mat.max() <= 1.0


def test_report_rejects_zero_variance_model():
    models = small_models(3)
    dead = nn.ModelParams([np.zeros_like(w) for w in models[0].weights],
                          [np.zeros_like(b) for b in models[0].biases])
    with pytest.raises(ValueError, match="zero-variance"):
        analysis.cka_layer_report([models[1], dead], models[2], rand(20, 6, 1),
                                  [1])


@pytest.mark.parametrize("widths, passes", [
    ([64, 32, 10], [[0], [1, 2]]),      # the 784-64-32-10 MLP
    ([5, 4, 3], [[0], [1], [2]]),
    ([32, 64, 10], [[0], [1], [2]]),
    ([4, 4, 8], [[0, 1], [2]]),
    ([7], [[0]]),
])
def test_passes_hold_at_most_the_widest_layer(widths, passes):
    assert [list(p) for p in analysis._cka_passes(widths)] == passes


def test_report_runs_each_pass_up_to_its_last_layer(monkeypatch):
    # widths 6, 4, 2: passes {0} and {1, 2}, each one forward per model
    models = small_models(K + 2, sizes=(6, 6, 4, 2))
    forward, seen = nn.forward, []

    def recording_forward(params, batch):
        seen.append(params)
        return forward(params, batch)

    monkeypatch.setattr(nn, "forward", recording_forward)
    report = analysis.cka_layer_report(models[:-1], models[-1],
                                       rand(20, 6, 2), [0])
    assert report.num_layers == 3
    assert seen == models + models


class Reloading:
    """A sized sequence that, like ``checkpoint.ClientModels``, makes a
    fresh model on every access. A pass starts at index 0; ``live``
    records, as each model is made, how many it made before are still
    alive."""

    def __init__(self, models):
        self.models = models
        self.passes = 0
        self.refs, self.live = [], []

    def __len__(self):
        return len(self.models)

    def __getitem__(self, i):
        self.passes += i == 0
        self.live.append(sum(r() is not None for r in self.refs))
        fresh = self.models[i].copy()
        self.refs.append(weakref.ref(fresh))
        return fresh


def test_report_streams_client_models():
    models = small_models(K + 3)
    probe = rand(25, 6, 3)
    want = analysis.cka_layer_report(models[:-1], models[-1], probe, [1, 4])
    source = Reloading(models[:-1])
    got = analysis.cka_layer_report(source, models[-1], probe, [1, 4])
    # widths 5, 4, 3: one pass per layer, each holding at most the model
    # made before
    assert source.passes == 3
    assert len(source.live) == 3 * (K + 2) and max(source.live) <= 1
    assert got.num_clients == K + 2
    assert got.mean_noisy == want.mean_noisy
    assert got.mean_clean == want.mean_clean
    for a, b in zip(got.matrices, want.matrices, strict=True):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("source", [
    lambda models: (m for m in models), lambda models: iter(models)])
def test_report_refuses_an_iterator(source):
    models = small_models(3)
    with pytest.raises(TypeError, match="has no len"):
        analysis.cka_layer_report(source(models[:2]), models[2],
                                  rand(20, 6, 1), [0])


def test_report_rejects_an_empty_client_stream():
    model = small_models(1)[0]
    with pytest.raises(ValueError, match="at least one client"):
        analysis.cka_layer_report([], model, rand(20, 6, 1), [])


@pytest.mark.parametrize("noisy", [[2], [-1], [0, 5]])
def test_report_rejects_noisy_ids_outside_clients(noisy):
    models = small_models(3)
    with pytest.raises(ValueError, match=r"\[0, 2\)"):
        analysis.cka_layer_report(models[:2], models[2], rand(20, 6, 1),
                                  noisy)


def test_report_rejects_repeated_noisy_ids():
    # a repeated id would weight that client twice in mean_noisy
    models = small_models(4)
    with pytest.raises(ValueError, match=r"repeat an id"):
        analysis.cka_layer_report(models[:3], models[3], rand(20, 6, 1),
                                  [1, 1, 2])


def test_report_rejects_single_row_probe():
    models = small_models(3)
    with pytest.raises(ValueError, match="at least 2 samples"):
        analysis.cka_layer_report(models[:2], models[2], rand(1, 6, 1), [0])


# -------------------------------------------------------- divergence / acc

def test_weight_divergence_matches_param_distance():
    models = small_models(3)
    out, _ = analysis.weight_divergence(models[0], models)
    assert out[0] == 0.0
    assert out[1] == pytest.approx(nn.param_sq_distance(models[0], models[1]))


def test_accuracy_constant_model_on_balanced_set():
    ds = data.make_synthetic(4, 25, 3, 0.5, seed=0)
    constant = nn.ModelParams([np.zeros((4, 3))],
                              [np.array([5.0, 0.0, 0.0, 0.0])])
    assert analysis.evaluate_accuracy(constant, ds) == pytest.approx(0.25)


def test_accuracy_oracle_model_is_perfect():
    ds = data.make_synthetic(3, 30, 5, 0.01, seed=1)
    centers = np.stack([ds.features[ds.labels == c].mean(axis=0)
                        for c in range(3)])
    oracle = nn.ModelParams([100 * centers], [np.zeros(3)])
    assert analysis.evaluate_accuracy(oracle, ds) == 1.0


def test_accuracy_random_model_near_chance():
    ds = data.make_synthetic(10, 1000, 8, 100.0, seed=2)  # labels ~ unlearnable
    model = nn.init_params([8, 6, 10], 3)
    assert analysis.evaluate_accuracy(model, ds) == pytest.approx(0.1, abs=0.02)


def test_mean_last_accuracy_is_arithmetic_mean():
    metrics = [round_metrics(r, acc=0.5 + r / 100) for r in range(1, 21)]
    want = np.mean([m.test_accuracy for m in metrics[-10:]])
    assert analysis.mean_last_accuracy(metrics, 10) == want
    for k in (0, -2):
        with pytest.raises(ValueError, match=f"k must be >= 1, got {k}"):
            analysis.mean_last_accuracy(metrics, k)


# ----------------------------------------------------------------- metrics

def round_metrics(r, n_clients=3, n_layers=2, acc=0.9):
    rng = np.random.default_rng(r)
    w = rng.random((n_layers, n_clients))
    w /= w.sum(axis=1, keepdims=True)
    return RoundMetrics(
        round_idx=r, test_accuracy=acc, client_ids=list(range(n_clients)),
        divergence=list(rng.random(n_clients)),
        reliability=list(rng.random(n_clients)),
        flagged=[bool(v) for v in rng.integers(0, 2, n_clients)],
        corrected=[False] * n_clients, n_relabeled=[0] * n_clients,
        weights=[[float(v) for v in row] for row in w], wall_clock=1.23)


def assert_metrics_close(a, b, tol=1e-9):
    assert len(a) == len(b)
    for m1, m2 in zip(a, b):
        assert m1.round_idx == m2.round_idx
        assert m1.test_accuracy == pytest.approx(m2.test_accuracy, abs=tol)
        assert m1.client_ids == m2.client_ids
        assert m1.flagged == m2.flagged
        assert m1.corrected == m2.corrected
        assert m1.n_relabeled == m2.n_relabeled
        assert np.allclose(m1.divergence, m2.divergence, atol=tol)
        assert np.allclose(m1.reliability, m2.reliability, atol=tol)
        assert np.allclose(m1.weights, m2.weights, atol=tol)


def test_empty_metrics_csv_is_header_only(tmp_path):
    path = tmp_path / "m.csv"
    analysis.write_metrics([], path, "csv")
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("round,client_id,test_accuracy")


def test_empty_metrics_jsonl_is_empty(tmp_path):
    path = tmp_path / "m.jsonl"
    analysis.write_metrics([], path, "jsonl")
    assert path.read_text() == ""


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_metrics_round_trip(tmp_path, fmt):
    metrics = [round_metrics(r) for r in range(1, 6)]
    path = tmp_path / f"m.{fmt}"
    analysis.write_metrics(metrics, path, fmt)
    assert_metrics_close(analysis.read_metrics(path, fmt), metrics)


def test_csv_row_count_matches_rounds_times_clients(tmp_path):
    metrics = [round_metrics(r, n_clients=20) for r in range(1, 151)]
    path = tmp_path / "m.csv"
    analysis.write_metrics(metrics, path, "csv")
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + 150 * 20


def test_metrics_writing_deterministic(tmp_path):
    metrics = [round_metrics(r) for r in range(1, 4)]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    analysis.write_metrics(metrics, p1, "csv")
    # wall-clock differences must not leak into the file
    for m in metrics:
        m.wall_clock += 99.0
    analysis.write_metrics(metrics, p2, "csv")
    assert p1.read_bytes() == p2.read_bytes()


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(ValueError):
        analysis.write_metrics([], tmp_path / "m.xml", "xml")


def test_format_round_rejects_an_unknown_format():
    with pytest.raises(ValueError, match="unknown metrics format 'xml'"):
        analysis.format_round(round_metrics(1), "xml")

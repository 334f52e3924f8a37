"""Unit tests for dataset synthesis, partitioning, and noise injection."""

import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from fednoisy import data, nn
from fednoisy.errors import DataFormatError
from tests_util import (make_synthetic_reference, truncated_normal_cdf,
                        truncated_normal_mean, write_idx_pair)


# ---------------------------------------------------------------- load_idx

def tiny_images():
    return np.array([[[0, 255], [128, 64]],
                     [[255, 0], [0, 255]]], dtype=np.uint8)


def test_load_idx_round_trip(tmp_path):
    imgs = tiny_images()
    ip, lp = write_idx_pair(tmp_path, imgs, [1, 0])
    ds = data.load_idx(ip, lp)
    assert len(ds) == 2 and ds.dim == 4
    assert np.array_equal(ds.labels, [1, 0])
    assert np.allclose(ds.features[0], [0, 1.0, 128 / 255, 64 / 255])
    assert ds.features.max() <= 1.0


def test_load_idx_gzip_suffix(tmp_path):
    ip, lp = write_idx_pair(tmp_path, tiny_images(), [3, 7], gz=True)
    ds = data.load_idx(ip, lp)
    assert len(ds) == 2
    assert ds.num_classes == 8  # max label + 1


def test_load_idx_bad_magic(tmp_path):
    ip, lp = write_idx_pair(tmp_path, tiny_images(), [0, 1], image_magic=0x123)
    with pytest.raises(DataFormatError, match="magic"):
        data.load_idx(ip, lp)


def test_load_idx_truncated(tmp_path):
    ip, lp = write_idx_pair(tmp_path, tiny_images(), [0, 1], truncate=3)
    with pytest.raises(DataFormatError, match="truncated"):
        data.load_idx(ip, lp)


def test_load_idx_count_mismatch(tmp_path):
    ip, lp = write_idx_pair(tmp_path, tiny_images(), [0, 1, 1])
    with pytest.raises(DataFormatError, match="mismatch"):
        data.load_idx(ip, lp)


@pytest.mark.parametrize("gz", [False, True])
@pytest.mark.parametrize("count", [0, 1, 3, 5, 9])
def test_load_idx_count_keeps_the_first_rows(tmp_path, gz, count):
    images = np.random.default_rng(2).integers(0, 256, size=(5, 3, 4),
                                               dtype=np.uint8)
    ip, lp = write_idx_pair(tmp_path, images, [0, 4, 1, 1, 2], gz=gz)
    full = data.load_idx(ip, lp)
    got = data.load_idx(ip, lp, count)
    assert got.features.shape == full.features[:count].shape
    assert got.features.tobytes() == full.features[:count].tobytes()
    assert np.array_equal(got.labels, full.labels[:count])
    # the label file is still read whole
    assert got.num_classes == full.num_classes == 5


@pytest.mark.parametrize("count", [-1, -3])
def test_load_idx_negative_count_rejected(tmp_path, count):
    ip, lp = write_idx_pair(tmp_path, tiny_images(), [0, 1])
    with pytest.raises(ValueError, match=f"^count must be >= 0, got {count}$"):
        data.load_idx(ip, lp, count)


def test_load_idx_count_still_checks_the_label_count(tmp_path):
    ip, lp = write_idx_pair(tmp_path, tiny_images(), [0, 1, 1])
    with pytest.raises(DataFormatError, match="mismatch"):
        data.load_idx(ip, lp, 1)


def official_mnist_dir():
    env = os.environ.get("FEDNOISY_MNIST_DIR")
    base = env or os.path.join(os.path.dirname(__file__), "..", "data", "mnist")
    for suffix in ("", ".gz"):
        ip = os.path.join(base, "train-images-idx3-ubyte" + suffix)
        lp = os.path.join(base, "train-labels-idx1-ubyte" + suffix)
        if os.path.isfile(ip) and os.path.isfile(lp):
            return ip, lp
    return None


@pytest.mark.skipif(official_mnist_dir() is None,
                    reason="official MNIST files not present")
def test_load_idx_official_mnist():
    ip, lp = official_mnist_dir()
    ds = data.load_idx(ip, lp)
    assert len(ds) == 60_000
    assert ds.dim == 784
    assert ds.num_classes == 10
    assert 0.0 <= ds.features.min() and ds.features.max() <= 1.0


# ------------------------------------------------------------ make_synthetic

def test_synthetic_shapes_and_histogram():
    ds = data.make_synthetic(3, 100, 5, 0.5, seed=0)
    assert len(ds) == 300 and ds.num_classes == 3
    assert np.array_equal(np.bincount(ds.labels), [100, 100, 100])


def test_synthetic_degenerate_blobs_nearest_centroid():
    ds = data.make_synthetic(4, 50, 6, 1e-9, seed=1)
    centers = np.stack([ds.features[ds.labels == k].mean(axis=0) for k in range(4)])
    d2 = ((ds.features[:, None, :] - centers[None]) ** 2).sum(axis=2)
    assert (d2.argmin(axis=1) == ds.labels).all()


def test_synthetic_determinism():
    a = data.make_synthetic(3, 20, 4, 0.3, seed=9)
    b = data.make_synthetic(3, 20, 4, 0.3, seed=9)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


@pytest.mark.parametrize("chunk", [1, 2, 3, 256])
@settings(max_examples=30, deadline=None)
@given(st.integers(2, 5), st.integers(1, 80), st.integers(1, 9),
       st.floats(-1e300, 1e300), st.integers(0, 2**64 - 1))
def test_synthetic_equals_reference_bitwise(chunk, classes, per_class, dim,
                                            spread, seed):
    # chunks of 1-3 rows put cycles on both sides of the chunk boundaries
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "_PERMUTE_CHUNK_ROWS", chunk)
        got = data.make_synthetic(classes, per_class, dim, spread, seed)
    features, labels = make_synthetic_reference(classes, per_class, dim,
                                                spread, seed)
    assert got.features.tobytes() == features.tobytes()
    assert np.array_equal(got.labels, labels)
    assert got.num_classes == classes


def test_synthetic_peak_memory_is_one_pool():
    pool_bytes = 3000 * 784 * 8
    tracemalloc.start()
    try:
        ds = data.make_synthetic(10, 300, 784, 2.0, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ds.features.nbytes == pool_bytes
    # the out-of-place formula peaks at two pools
    assert peak < 1.2 * pool_bytes


def test_synthetic_trainable_by_mlp():
    # spread 0.5 in 10 dims: a small MLP should fit it almost perfectly
    ds = data.make_synthetic(3, 100, 10, 0.5, seed=2)
    params = nn.init_params([10, 16, 3], seed=0)
    rng = np.random.default_rng(0)
    for _ in range(50):
        order = rng.permutation(len(ds))
        for chunk in np.array_split(order, 10):
            _, grad = nn.loss_and_grad(params, ds.features[chunk], ds.labels[chunk])
            params = nn.sgd_step(params, grad, 0.1)
    preds, _ = nn.predict_confidences(params, ds.features)
    assert (preds == ds.labels).mean() > 0.95


# ------------------------------------------------------------- partitioning

def check_soundness(assignments, n):
    all_idx = np.concatenate([a.indices for a in assignments])
    assert len(all_idx) == n
    assert len(np.unique(all_idx)) == n


def test_iid_single_client():
    ds = data.make_synthetic(2, 10, 3, 0.5, seed=0)
    parts = data.partition_iid(ds, 1, seed=0)
    assert len(parts) == 1 and len(parts[0]) == 20
    assert np.array_equal(parts[0].true_labels, parts[0].noisy_labels)


def test_iid_equal_shards():
    ds = data.make_synthetic(2, 50, 3, 0.5, seed=0)
    parts = data.partition_iid(ds, 20, seed=1)
    assert [len(p) for p in parts] == [5] * 20
    check_soundness(parts, 100)


def test_iid_too_many_clients():
    ds = data.make_synthetic(2, 2, 3, 0.5, seed=0)
    with pytest.raises(ValueError):
        data.partition_iid(ds, 5, seed=0)


def test_iid_label_histograms_chi2():
    ds = data.make_synthetic(10, 1000, 2, 1.0, seed=3)
    parts = data.partition_iid(ds, 10, seed=4)
    global_frac = np.bincount(ds.labels, minlength=10) / len(ds)
    for p in parts:
        observed = np.bincount(ds.labels[p.indices], minlength=10)
        expected = global_frac * len(p)
        chi2 = ((observed - expected) ** 2 / expected).sum()
        # 9 dof, alpha = 0.01
        assert chi2 < stats.chi2.ppf(0.99, df=9)


def test_class_skew_near_iid_limit():
    ds = data.make_synthetic(10, 2000, 2, 1.0, seed=5)
    parts = data.partition_class_skew(ds, 10, p_class=1.0, alpha_dir=1e6, seed=6)
    check_soundness(parts, len(ds))
    for p in parts:
        frac = np.bincount(ds.labels[p.indices], minlength=10) / len(p)
        tv = 0.5 * np.abs(frac - 0.1).sum()
        assert tv < 0.05  # within 5% of the IID composition


def test_class_skew_single_client():
    ds = data.make_synthetic(3, 30, 2, 1.0, seed=7)
    parts = data.partition_class_skew(ds, 1, p_class=1.0, alpha_dir=0.5, seed=8)
    assert len(parts[0]) == len(ds)


def test_class_skew_concentration():
    ds = data.make_synthetic(10, 500, 2, 1.0, seed=9)
    hits = 0
    for seed in range(5):
        parts = data.partition_class_skew(ds, 10, p_class=1.0, alpha_dir=0.1,
                                          seed=seed)
        top = 0.0
        for p in parts:
            if len(p) == 0:
                continue
            frac = np.bincount(ds.labels[p.indices], minlength=10) / len(p)
            top = max(top, frac.max())
        hits += top > 0.6
    assert hits >= 3  # majority of seeds show a dominated client


def test_class_skew_assigns_everything():
    ds = data.make_synthetic(5, 123, 2, 1.0, seed=10)
    parts = data.partition_class_skew(ds, 7, p_class=0.8, alpha_dir=0.5, seed=11)
    check_soundness(parts, len(ds))


def test_quantity_skew_degenerate_sigma():
    ds = data.make_synthetic(2, 101, 2, 1.0, seed=12)
    parts = data.partition_quantity_skew(ds, 20, sigma_log=0.0, seed=13)
    sizes = np.array([len(p) for p in parts])
    assert sizes.sum() == 202
    assert sizes.max() - sizes.min() <= 1


def test_quantity_skew_normalization():
    ds = data.make_synthetic(10, 1000, 2, 1.0, seed=14)
    parts = data.partition_quantity_skew(ds, 20, sigma_log=0.3, seed=15)
    sizes = np.array([len(p) for p in parts])
    assert sizes.sum() == 10000
    assert sizes.min() >= 1
    check_soundness(parts, 10000)


def test_quantity_skew_log_size_std():
    ds = data.make_synthetic(10, 1000, 2, 1.0, seed=16)
    stds = []
    for seed in range(50):
        parts = data.partition_quantity_skew(ds, 20, sigma_log=0.3, seed=seed)
        sizes = np.array([len(p) for p in parts], dtype=float)
        stds.append(np.log(sizes).std())
    assert abs(np.mean(stds) - 0.3) < 0.1


# ------------------------------------------------------- truncated gaussian

def test_trunc_gauss_in_bounds():
    draws = data.sample_truncated_gaussian(0.3, 0.6, 0.0, 1.0, seed=0, count=5000)
    assert (draws >= 0).all() and (draws <= 1).all()


def test_trunc_gauss_tiny_sigma_concentrates():
    draws = data.sample_truncated_gaussian(0.4, 1e-9, 0.0, 1.0, seed=1, count=100)
    assert np.abs(draws - 0.4).max() < 1e-6


def test_trunc_gauss_matches_analytic_mean():
    draws = data.sample_truncated_gaussian(0.4, 0.45, 0.0, 1.0, seed=2, count=100_000)
    want = truncated_normal_mean(0.4, 0.45, 0.0, 1.0)
    assert abs(draws.mean() - want) < 0.01


def test_trunc_gauss_ks_against_analytic_cdf():
    draws = data.sample_truncated_gaussian(0.3, 0.4, 0.0, 1.0, seed=3, count=10_000)
    res = stats.kstest(draws, lambda x: truncated_normal_cdf(x, 0.3, 0.4, 0.0, 1.0))
    assert res.pvalue > 0.01


def test_trunc_gauss_invalid_bounds():
    with pytest.raises(ValueError):
        data.sample_truncated_gaussian(0.3, 0.4, 1.0, 0.0, seed=0, count=10)
    with pytest.raises(ValueError):
        data.sample_truncated_gaussian(0.3, -1.0, 0.0, 1.0, seed=0, count=10)


# ----------------------------------------------------------- client rates

def test_rates_bernoulli_all_clean():
    spec = data.NoiseSpec(mode=data.BERNOULLI, clean_prob=1.0, within_rate=0.8)
    rates = data.sample_client_noise_rates(spec, 50, seed=0)
    assert (rates == 0).all()


def test_rates_bernoulli_frequency():
    spec = data.NoiseSpec(mode=data.BERNOULLI, clean_prob=0.7, within_rate=1.0)
    rates = data.sample_client_noise_rates(spec, 10_000, seed=1)
    clean_frac = (rates == 0).mean()
    assert abs(clean_frac - 0.7) < 0.02
    assert set(np.unique(rates)) <= {0.0, 1.0}


def test_rates_trunc_gauss_stats():
    spec = data.NoiseSpec(mode=data.TRUNC_GAUSS, mean=0.3, std=0.4)
    rates = data.sample_client_noise_rates(spec, 10_000, seed=2)
    assert (rates >= 0).all() and (rates <= 1).all()
    want = truncated_normal_mean(0.3, 0.4, 0.0, 1.0)
    assert abs(rates.mean() - want) < 0.01


def test_rates_fixed_mode():
    spec = data.NoiseSpec(mode=data.FIXED, rates=[0.0, 0.5, 1.0])
    rates = data.sample_client_noise_rates(spec, 3, seed=0)
    assert np.array_equal(rates, [0.0, 0.5, 1.0])
    with pytest.raises(ValueError):
        data.sample_client_noise_rates(spec, 4, seed=0)


# ------------------------------------------------------------ label flips

def make_assignment(n=100, k=10, seed=0):
    labels = np.random.default_rng(seed).integers(0, k, size=n).astype(np.int64)
    return data.ClientAssignment(0, np.arange(n), labels, labels.copy())


def test_noise_rate_zero_is_identity():
    a = make_assignment()
    out = data.apply_symmetric_noise(a, 0.0, 10, seed=1)
    assert np.array_equal(out.noisy_labels, a.true_labels)


def test_noise_rate_one_binary_flips_all():
    labels = np.array([0, 1, 1, 0], dtype=np.int64)
    a = data.ClientAssignment(0, np.arange(4), labels, labels.copy())
    out = data.apply_symmetric_noise(a, 1.0, 2, seed=2)
    assert np.array_equal(out.noisy_labels, 1 - labels)


def test_noise_statistics_and_uniformity():
    a = make_assignment(n=10_000, k=10, seed=3)
    out = data.apply_symmetric_noise(a, 0.5, 10, seed=4)
    flipped = out.noisy_labels != out.true_labels
    assert abs(flipped.mean() - 0.5) < 0.02
    # flipped labels uniform over the 9 wrong classes: chi-square over offsets
    offsets = (out.noisy_labels[flipped] - out.true_labels[flipped]) % 10
    observed = np.bincount(offsets, minlength=10)[1:]
    expected = flipped.sum() / 9
    chi2 = ((observed - expected) ** 2 / expected).sum()
    assert chi2 < stats.chi2.ppf(0.99, df=8)


def test_noise_never_flips_to_self():
    a = make_assignment(n=5000, k=4, seed=5)
    out = data.apply_symmetric_noise(a, 1.0, 4, seed=6)
    assert (out.noisy_labels != out.true_labels).all()


def test_noise_preserves_true_labels_and_determinism():
    a = make_assignment(n=200, k=6, seed=7)
    out1 = data.apply_symmetric_noise(a, 0.4, 6, seed=8)
    out2 = data.apply_symmetric_noise(a, 0.4, 6, seed=8)
    assert np.array_equal(out1.noisy_labels, out2.noisy_labels)
    assert np.array_equal(out1.true_labels, a.true_labels)


def test_noise_requires_two_classes():
    a = make_assignment(n=10, k=1, seed=9)
    with pytest.raises(ValueError):
        data.apply_symmetric_noise(a, 0.5, 1, seed=0)


def test_expected_corruption_over_seeds():
    a = make_assignment(n=10_000, k=10, seed=10)
    fracs = [
        (data.apply_symmetric_noise(a, 0.3, 10, seed=s).noisy_labels
         != a.true_labels).mean()
        for s in range(10)
    ]
    assert abs(np.mean(fracs) - 0.3) < 0.02

"""Shared helpers for the test suite (oracles and tiny builders)."""

import ctypes
import gzip
import math
import struct

import numpy as np
from hypothesis import reject
from hypothesis import strategies as st

from fednoisy import client, data, nn


def blas_threads():
    """numpy's OpenBLAS thread count, read through its exported getter."""
    lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    return lib.scipy_openblas_get_num_threads64_()


def flatten_params(params):
    """Flatten a ModelParams into one 1-D vector (layer order, W then b)."""
    parts = []
    for w, b in zip(params.weights, params.biases):
        parts.append(w.ravel())
        parts.append(b.ravel())
    return np.concatenate(parts)


def make_synthetic_reference(num_classes, per_class, dim, spread, seed):
    """``data.make_synthetic`` by its defining formula, out of place:
    (features, labels)."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 1.0, size=(num_classes, dim))
    labels = np.repeat(np.arange(num_classes), per_class)
    features = centers[labels] + spread * rng.normal(size=(labels.size, dim))
    order = rng.permutation(labels.size)
    return features[order], labels[order]


def write_idx_pair(tmp_path, images, labels, gz=False, image_magic=0x803,
                   label_magic=0x801, truncate=0):
    """Write (n, rows, cols) uint8 images and their labels as an IDX pair
    ``images.idx``/``labels.idx`` (``.gz`` with ``gz``) under ``tmp_path``."""
    n, rows, cols = images.shape
    img_bytes = struct.pack(">IIII", image_magic, n, rows, cols) + images.tobytes()
    lbl_bytes = struct.pack(">II", label_magic, len(labels)) + bytes(labels)
    if truncate:
        img_bytes = img_bytes[:-truncate]
    suffix = ".gz" if gz else ""
    img_path = tmp_path / f"images.idx{suffix}"
    lbl_path = tmp_path / f"labels.idx{suffix}"
    opener = gzip.open if gz else open
    with opener(img_path, "wb") as fh:
        fh.write(img_bytes)
    with opener(lbl_path, "wb") as fh:
        fh.write(lbl_bytes)
    return img_path, lbl_path


def dual_train_reference(g, assignment, dataset, config, round_idx, seed):
    """``client.local_train``'s dual path for one client, written out:
    (trained params, h).

    Z0 = X·W0ᵀ and K = X·Xᵀ of the client's shard X once; at each step, in
    the client's RNG order, the pre-activation Z0[o] - K[o]·A, the shared
    head, the head's SGD step with the proximal pull, A scaled by
    1 - lr·prox_mu and lr·dL/dz0 scattered into A's rows ``o``. Layer 0 is
    W0 - AᵀX at the end.
    """
    n, b, lr, mu = (len(assignment), config.batch_size, config.lr,
                    config.prox_mu)
    x = dataset.features[assignment.indices]
    w0 = g.weights[0]
    split = w0.size
    z0 = x @ w0.T
    gram = x @ x.T
    coef = np.zeros(z0.shape)
    head = g.flat[split:]
    rng = np.random.default_rng((seed, assignment.client_id, round_idx))
    for _ in range(config.local_epochs):
        order = rng.permutation(n)
        for start in range(0, n, b):
            o = order[start:start + b]
            # the head reads every block but W0
            model = nn.ModelParams.from_flat(
                np.concatenate([w0.ravel(), head]), g.shapes)
            grad = nn.ModelParams.from_flat(np.zeros(g.flat.size), g.shapes)
            activations, _ = nn.forward_head(
                model, z0[o] - gram[o] @ coef + model.biases[0])
            _, delta = nn.head_grad(model, activations,
                                    assignment.noisy_labels[o], grad)
            step = grad.flat[split:]
            if mu > 0:
                step = step + mu * (head - g.flat[split:])
                coef = coef * (1.0 - lr * mu)
            head = head - lr * step
            coef[o] = coef[o] + lr * delta
    params = nn.ModelParams.from_flat(
        np.concatenate([(w0 - coef.T @ x).ravel(), head]), g.shapes)
    evaluated = g if config.h_on == client.H_ON_GLOBAL else params
    return params, client.data_quality_loss(evaluated, assignment, dataset)


@st.composite
def model_stacks(draw, counts=st.integers(2, 9), out_widths=st.integers(1, 6)):
    """Random congruent models: 1-3 layers, widths 1-6 (the output width
    drawn from ``out_widths``), as many as ``counts`` draws (2-9 by default).

    Values are standard normals times one scale per stack (1e-3, 1 or 1e3).
    """
    widths = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
    widths.append(draw(out_widths))
    n_clients = draw(counts)
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shapes = list(zip(widths[1:], widths))
    return [nn.ModelParams(
        [scale * rng.normal(size=shape) for shape in shapes],
        [scale * rng.normal(size=out_dim) for out_dim, _ in shapes])
        for _ in range(n_clients)]


@st.composite
def config_documents(draw, full=False):
    """Valid config documents: a random subset of the accepted keys, or with
    ``full`` every accepted key, at every level.

    Float fields get JSON ints as well as floats where some int is valid, so
    the echo's float typing is exercised.
    """
    def pick(keys, required=()):
        req = {k: v for k, v in keys.items() if full or k in required}
        opt = {k: v for k, v in keys.items() if k not in req}
        return draw(st.fixed_dictionaries(req, optional=opt))

    mnist = draw(st.booleans())
    paths = ["images", "labels", "test_images", "test_labels"]
    path = st.text() if mnist else st.none() | st.text()
    dataset = pick({
        "kind": st.just("mnist" if mnist else "synthetic"),
        "classes": st.integers(2, 20), "dims": st.integers(1, 1000),
        "spread": st.floats(0, 10) | st.integers(0, 3),
        **{name: path for name in paths}},
        required=["kind", *paths] if mnist else ())
    server = pick({
        "aggregator": st.sampled_from(["fedavg", "trimmed_mean", "fedprox",
                                       "fed_ncl"]),
        "trim_pct": st.floats(0, 50, exclude_max=True) | st.integers(0, 49),
        "beta": st.floats(0, 1e6, exclude_min=True) | st.integers(1, 10),
        "tau": st.floats(1, 1e6) | st.integers(1, 100),
        "t_k": st.integers(1, 100),
        "alpha": st.floats(0, 1, exclude_min=True, exclude_max=True),
        "t_corr": st.integers(1, 300),
        "eta": st.floats(0, 1) | st.integers(0, 1),
        "rounds": st.integers(0, 300), "num_clients": st.integers(1, 30)})
    n_clients = server.get("num_clients", 20)
    mode = draw(st.sampled_from(["bernoulli", "trunc_gauss", "fixed"]))
    rate = st.floats(0, 1) | st.integers(0, 1)
    low, high = sorted(draw(st.lists(st.floats(0, 1), min_size=2,
                                     max_size=2, unique=True)))
    noise = pick({
        "mode": st.just(mode),
        "clean_prob": st.floats(0, 1, exclude_min=True) | st.just(1),
        # a trunc_gauss mean inside [low, high] leaves most windows mass
        "within_rate": rate, "mean": st.floats(low, high)
        if mode == "trunc_gauss" else st.floats(-10, 10) | st.integers(-1, 1),
        "std": st.floats(0, 10, exclude_min=True) | st.integers(1, 3),
        "low": st.just(low), "high": st.just(high),
        "rates": st.lists(rate, min_size=n_clients, max_size=n_clients)
        if mode == "fixed" else st.none() | st.lists(rate, max_size=5)},
        required=("mode", "rates") if mode == "fixed" else ())
    # a trunc_gauss window must hold probability mass, which NoiseSpec checks
    try:
        data.NoiseSpec(**noise)
    except ValueError:
        reject()
    return pick({
        "dataset": st.just(dataset),
        "subset_size": st.integers(0 if mnist else 1, 5000),
        "test_size": st.integers(1, 5000),
        "hidden_dims": st.lists(st.integers(1, 128), max_size=4),
        "partition": st.just(pick({
            "kind": st.sampled_from(["iid", "class_skew", "quantity_skew"]),
            "p_class": st.floats(0, 1, exclude_min=True) | st.just(1),
            "alpha_dir": st.floats(0, 100, exclude_min=True)
            | st.integers(1, 5),
            "sigma_log": st.floats(0, 5) | st.integers(0, 2)})),
        "noise": st.just(noise),
        "client": st.just(pick({
            "lr": st.floats(0, 10, exclude_min=True) | st.integers(1, 2),
            "local_epochs": st.integers(1, 20),
            "batch_size": st.integers(1, 256),
            "prox_mu": st.floats(0, 10) | st.integers(0, 1),
            "h_on": st.sampled_from(["global", "local"]),
            "train_on": st.sampled_from(["corrected_all",
                                         "relabeled_only"])})),
        "server": st.just(server),
        "seed": st.integers(0, 2**32 - 1), "out_dir": st.text(min_size=1),
        "save_checkpoints": st.booleans(),
        "checkpoint_every": st.integers(1, 50), "workers": st.integers(0, 8)},
        # the mnist paths and the fixed rates hold only with their section
        required=["dataset"] * mnist + ["server"] * (mode == "fixed"))


def std_normal_cdf(x):
    """Standard normal CDF via erf; independent of scipy."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def std_normal_pdf(x):
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def truncated_normal_mean(mu, sigma, low, high):
    """Analytic mean of a normal truncated to [low, high]."""
    a = (low - mu) / sigma
    b = (high - mu) / sigma
    z = std_normal_cdf(b) - std_normal_cdf(a)
    return mu + sigma * (std_normal_pdf(a) - std_normal_pdf(b)) / z


def truncated_normal_cdf(x, mu, sigma, low, high):
    a = (low - mu) / sigma
    b = (high - mu) / sigma
    z = std_normal_cdf(b) - std_normal_cdf(a)
    xi = np.clip((np.asarray(x) - mu) / sigma, a, b)
    return (np.vectorize(std_normal_cdf)(xi) - std_normal_cdf(a)) / z

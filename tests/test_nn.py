"""Unit tests for the dense network engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from fednoisy import nn
from fednoisy.errors import NumericError, ShapeError
from tests_util import blas_threads, model_stacks


def small_net(seed=0, sizes=(2, 3, 2)):
    return nn.init_params(list(sizes), seed)


# ---------------------------------------------------------------- oracles

def matmul_oracle(a, b):
    """Naive triple-loop matrix multiply."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            s = 0.0
            for t in range(k):
                s += a[i, t] * b[t, j]
            out[i, j] = s
    return out


def forward_oracle(params, batch):
    """ReLU after every layer but the last."""
    a = batch
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = matmul_oracle(a, w.T) + b
        a = np.maximum(z, 0.0) if l < params.num_layers - 1 else z
    return a


def flatten(params):
    return np.concatenate([np.concatenate([w.ravel(), b.ravel()])
                           for w, b in zip(params.weights, params.biases)])


def numerical_grad(params, x, y, step=1e-5):
    """Central finite differences of the mean loss, coordinate by coordinate."""
    grads = []
    for l in range(params.num_layers):
        for arrs in (params.weights, params.biases):
            g = np.zeros_like(arrs[l])
            it = np.nditer(arrs[l], flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arrs[l][idx]
                arrs[l][idx] = orig + step
                up = nn.loss_and_grad(params, x, y)[0].mean()
                arrs[l][idx] = orig - step
                down = nn.loss_and_grad(params, x, y)[0].mean()
                arrs[l][idx] = orig
                g[idx] = (up - down) / (2 * step)
            grads.append(g)
    return grads


# ------------------------------------------------------------ BLAS threads

def test_import_pins_the_blas_threads():
    assert blas_threads() == nn.BLAS_THREADS == 1


def test_pin_refuses_a_blas_without_the_setter(monkeypatch):
    monkeypatch.setattr(nn, "_BLAS_SETTER", "no_such_setter")
    with pytest.raises(RuntimeError, match="numpy's BLAS .scipy-openblas"):
        nn.pin_blas_threads(2)
    assert blas_threads() == 1


# ------------------------------------------------------------ init_params

def test_init_shapes_and_zero_biases():
    p = small_net(seed=7)
    assert [w.shape for w in p.weights] == [(3, 2), (2, 3)]
    assert all((b == 0).all() for b in p.biases)


def test_init_deterministic():
    a, b = small_net(seed=7), small_net(seed=7)
    assert all((wa == wb).all() for wa, wb in zip(a.weights, b.weights))


def test_init_seed_sensitivity():
    a, b = small_net(seed=7), small_net(seed=8)
    assert any((wa != wb).any() for wa, wb in zip(a.weights, b.weights))


def test_init_rejects_bad_layer_sizes():
    for sizes in ([], [4], [4, 0], [0, 3], [4, 3, 0, 2]):
        with pytest.raises(ShapeError):
            nn.init_params(sizes, 0)


def test_init_weight_scale():
    p = nn.init_params([100, 400, 10], seed=3)
    assert np.std(p.weights[0]) == pytest.approx(np.sqrt(2 / 100), rel=0.1)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=2, max_size=4), st.data())
def test_bias_length_must_match_weight_rows(widths, data_):
    shapes = list(zip(widths[1:], widths))
    layer = data_.draw(st.integers(0, len(shapes) - 1))
    out_dim = shapes[layer][0]
    bad = data_.draw(st.integers(0, 7).filter(lambda n: n != out_dim))
    weights = [np.ones(shape) for shape in shapes]
    biases = [np.zeros(bad if l == layer else o)
              for l, (o, _) in enumerate(shapes)]
    with pytest.raises(ShapeError):
        nn.ModelParams(weights, biases)


# ---------------------------------------------------------------- forward

def test_forward_zero_params_zero_logits():
    p = small_net()
    for w in p.weights:
        w[:] = 0.0
    _, logits = nn.forward(p, np.ones((4, 2)))
    assert (logits == 0).all()


def test_forward_identity_layer_passes_batch_through():
    p = nn.ModelParams([np.eye(3)], [np.zeros(3)])
    x = np.random.default_rng(0).normal(size=(5, 3))
    _, logits = nn.forward(p, x)
    assert np.array_equal(logits, x)


def test_forward_matches_naive_oracle():
    rng = np.random.default_rng(42)
    p = small_net(seed=1, sizes=(4, 5, 3))
    x = rng.normal(size=(6, 4))
    _, logits = nn.forward(p, x)
    expected = forward_oracle(p, x)
    assert np.allclose(logits, expected, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_forward_applies_relu_on_hidden_layers_only(depth):
    rng = np.random.default_rng(depth)
    sizes = [4, 5, 6, 5][:depth] + [3]
    p = small_net(seed=depth, sizes=sizes)
    # biases around -0.5 leave units of every layer below zero
    for b in p.biases:
        b[:] = rng.normal(-0.5, 1.0, size=b.shape)
    x = rng.normal(size=(7, 4))
    acts, logits = nn.forward(p, x)
    assert np.allclose(logits, forward_oracle(p, x), rtol=1e-12, atol=1e-14)
    assert all((a >= 0).all() for a in acts[:-1])
    assert (logits < 0).any()


def test_forward_rejects_width_mismatch():
    with pytest.raises(ShapeError):
        nn.forward(small_net(), np.ones((4, 3)))


def test_forward_activations_are_post_activation():
    p = small_net(seed=5, sizes=(3, 4, 2))
    acts, logits = nn.forward(p, np.random.default_rng(1).normal(size=(8, 3)))
    assert len(acts) == 2
    assert (acts[0] >= 0).all()  # relu output
    assert acts[1] is logits


# ----------------------------------------------------------- loss_and_grad

def test_uniform_logits_loss_is_log_k():
    p = nn.ModelParams([np.zeros((10, 4))], [np.zeros(10)])
    x = np.random.default_rng(0).normal(size=(7, 4))
    y = np.arange(7) % 10
    loss = nn.loss_and_grad(p, x, y)[0].mean()
    assert loss == pytest.approx(np.log(10), abs=1e-12)
    assert loss == pytest.approx(2.302585092994046, abs=1e-12)


def test_saturated_logits_loss_near_zero():
    p = nn.ModelParams([np.zeros((3, 2))], [np.array([1000.0, 0.0, 0.0])])
    rows, _ = nn.loss_and_grad(p, np.ones((5, 2)), np.zeros(5, dtype=int))
    assert 0 <= rows.mean() < 1e-6


def test_label_out_of_range_rejected():
    p = small_net()
    with pytest.raises(ValueError, match="label"):
        nn.loss_and_grad(p, np.ones((2, 2)), np.array([0, 5]))


@pytest.mark.parametrize("x,y", [
    (np.ones((0, 2)), np.array([], dtype=int)),
    (np.ones((2, 2)), np.array([0, 5])),
    (np.ones((2, 2)), np.array([-1, 0])),
])
def test_cross_entropy_rejects_like_loss_and_grad(x, y):
    p = small_net()
    with pytest.raises(ValueError) as want:
        nn.loss_and_grad(p, x, y)
    with pytest.raises(ValueError) as got:
        nn.cross_entropy(p, x, y)
    assert str(got.value) == str(want.value)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(9)
    p = small_net(seed=4, sizes=(3, 5, 4))
    x = rng.normal(size=(6, 3))
    y = rng.integers(0, 4, size=6)
    _, grad = nn.loss_and_grad(p, x, y)
    numeric = numerical_grad(p, x, y)
    analytic = []
    for l in range(p.num_layers):
        analytic.extend([grad.weights[l], grad.biases[l]])
    for got, want in zip(analytic, numeric):
        denom = np.maximum(np.abs(want), 1e-8)
        assert (np.abs(got - want) / denom).max() < 1e-4


def test_loss_nonnegative_random():
    rng = np.random.default_rng(11)
    p = small_net(seed=2, sizes=(4, 6, 3))
    for _ in range(10):
        rows, _ = nn.loss_and_grad(p, rng.normal(size=(5, 4)),
                                   rng.integers(0, 3, size=5))
        assert rows.mean() >= 0


@settings(max_examples=40, deadline=None)
@given(model_stacks(counts=st.integers(2, 2)), st.integers(1, 12),
       st.integers(0, 2**32 - 1))
def test_loss_and_grad_into_dirty_buffer_equals_fresh_call(models, n, seed):
    params, dirty = models
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, params.in_dim))
    y = rng.integers(0, params.out_dim, size=n)
    rows, fresh = nn.loss_and_grad(params, x, y)
    got_rows, got = nn.loss_and_grad(params, x, y, out=dirty)
    assert got is dirty
    assert got_rows.mean() == rows.mean()
    assert np.array_equal(got.flat, fresh.flat)


@settings(max_examples=40, deadline=None)
@given(model_stacks(counts=st.just(1)), st.integers(1, 12),
       st.integers(0, 2**32 - 1))
def test_row_losses_are_the_rows_of_the_mean_loss(models, n, seed):
    params = models[0]
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, params.in_dim))
    y = rng.integers(0, params.out_dim, size=n)
    rows, _ = nn.loss_and_grad(params, x, y)
    assert rows.shape == (n,)
    assert rows.tobytes() == nn.cross_entropy(params, x, y).tobytes()
    # their mean is the mean loss as the kernels took it before returning
    # rows: the label's negated log-probabilities, averaged
    _, logits = nn.forward(params, x)
    log_probs = nn.softmax_loss(logits, y)[1]
    assert rows.mean() == np.negative(log_probs[np.arange(n), y]).mean()
    # log-sum-exp minus the label's logit, to the rounding of the logits
    want = logsumexp(logits, axis=1) - logits[np.arange(n), y]
    scale = max(1.0, np.abs(logits).max())
    assert np.allclose(rows, want, rtol=0, atol=1e-12 * scale)


def test_loss_and_grad_rejects_mismatched_buffer():
    p = small_net(sizes=(2, 3, 2))
    with pytest.raises(ShapeError):
        nn.loss_and_grad(p, np.ones((2, 2)), np.array([0, 1]),
                         out=small_net(sizes=(2, 4, 2)))


def stacked(models):
    """The models as one cohort over a (k, P) block."""
    first = models[0]
    return nn.ModelParams.from_flat(np.stack([m.flat for m in models]),
                                    first.shapes)


@settings(max_examples=60, deadline=None)
@given(model_stacks(counts=st.integers(1, 5),
                    out_widths=st.sampled_from([1, 3, 9, 12])),
       st.integers(1, 12), st.booleans(), st.integers(0, 2**32 - 1))
def test_stacked_loss_and_grad_equals_per_slice_calls(models, n, shared, seed):
    # a cohort (or, ``shared``, one model over a stacked batch) gets the bits
    # of each slice's own 2-D call: row losses, their means, log-probabilities
    # and gradient
    rng = np.random.default_rng(seed)
    k, first = len(models), models[0]
    x = rng.normal(size=(k, n, first.in_dim))
    y = rng.integers(0, first.out_dim, size=(k, n))
    cohort = first if shared else stacked(models)
    try:
        rows, grad = nn.loss_and_grad(cohort, x, y)
    except NumericError:
        # then some slice overflows on its own too
        with pytest.raises(NumericError):
            for j in range(k):
                nn.forward(first if shared else models[j], x[j])
        return
    assert rows.shape == (k, n)
    assert nn.cross_entropy(cohort, x, y).tobytes() == rows.tobytes()
    log_probs = nn.softmax_loss(nn.forward(cohort, x)[1], y)[1]
    means = rows.mean(axis=-1)
    assert grad.flat.shape == (k, first.flat.size)
    for j in range(k):
        model = first if shared else models[j]
        want_rows, want = nn.loss_and_grad(model, x[j], y[j])
        assert rows[j].tobytes() == want_rows.tobytes()
        assert means[j] == want_rows.mean()
        assert grad.flat[j].tobytes() == want.flat.tobytes()
        assert log_probs[j].tobytes() == \
            nn.softmax_loss(nn.forward(model, x[j])[1], y[j])[1].tobytes()


def test_stacked_params_view_their_block():
    models = [small_net(seed=s, sizes=(3, 4, 2)) for s in range(3)]
    cohort = stacked(models)
    assert cohort.weights[1].shape == (3, 2, 4)
    assert cohort.biases[0].shape == (3, 4)
    cohort.weights[1][2] += 1.0
    row = nn.ModelParams.from_flat(cohort.flat[2], cohort.shapes)
    assert np.array_equal(row.weights[1], models[2].weights[1] + 1.0)
    assert np.array_equal(row.biases[1], models[2].biases[1])


# ------------------------------------------------------------------- sgd

def test_sgd_zero_lr_is_identity():
    p = small_net(seed=1)
    _, grad = nn.loss_and_grad(p, np.ones((2, 2)), np.array([0, 1]))
    out = nn.sgd_step(p, grad, 0.0)
    assert all(np.array_equal(a, b) for a, b in zip(out.weights, p.weights))


def test_sgd_closed_form():
    p = nn.ModelParams([np.array([[1.0]])], [np.array([1.0])])
    g = nn.ModelParams([np.array([[0.5]])], [np.array([0.5])])
    out = nn.sgd_step(p, g, 0.1)
    assert out.weights[0][0, 0] == pytest.approx(0.95, abs=0)
    assert out.biases[0][0] == pytest.approx(0.95, abs=0)


def test_sgd_matches_coordinate_loop():
    rng = np.random.default_rng(3)
    p = small_net(seed=8, sizes=(3, 4, 2))
    g = nn.ModelParams([rng.normal(size=w.shape) for w in p.weights],
                       [rng.normal(size=b.shape) for b in p.biases])
    lr = 0.37
    out = nn.sgd_step(p, g, lr)
    for l in range(p.num_layers):
        for idx in np.ndindex(p.weights[l].shape):
            assert out.weights[l][idx] == p.weights[l][idx] - lr * g.weights[l][idx]
        for i in range(p.biases[l].shape[0]):
            assert out.biases[l][i] == p.biases[l][i] - lr * g.biases[l][i]


def test_sgd_zero_grad_fixed_point():
    p = small_net(seed=6)
    g = nn.ModelParams([np.zeros_like(w) for w in p.weights],
                       [np.zeros_like(b) for b in p.biases])
    out = nn.sgd_step(p, g, 0.5)
    assert all(np.array_equal(a, b) for a, b in zip(out.weights, p.weights))


def test_sgd_shape_mismatch_rejected():
    p = small_net()
    g = nn.ModelParams([np.zeros((9, 9))], [np.zeros(9)])
    with pytest.raises(ShapeError):
        nn.sgd_step(p, g, 0.1)


# -------------------------------------------------------------- distances

def test_distance_zero_for_identical():
    p = small_net(seed=2)
    assert nn.param_sq_distance(p, p.copy()) == 0.0


def test_distance_hand_sum():
    a = nn.ModelParams([np.array([[1.0, 2.0]])], [np.array([0.0])])
    b = nn.ModelParams([np.array([[0.0, 0.0]])], [np.array([0.0])])
    assert nn.param_sq_distance(a, b) == pytest.approx(5.0, abs=0)


def test_distance_matches_flatten_oracle():
    from tests_util import flatten_params
    a, b = small_net(seed=1, sizes=(4, 6, 3)), small_net(seed=2, sizes=(4, 6, 3))
    want = float(((flatten_params(a) - flatten_params(b)) ** 2).sum())
    assert nn.param_sq_distance(a, b) == pytest.approx(want, rel=1e-12)


def test_layer_distance_decomposition():
    a, b = small_net(seed=3, sizes=(3, 5, 4, 2)), small_net(seed=4, sizes=(3, 5, 4, 2))
    total = sum(nn.layer_sq_distance(a, b, l) for l in range(a.num_layers))
    assert total == pytest.approx(nn.param_sq_distance(a, b), rel=1e-12)


def test_layer_distance_localized_perturbation():
    a = small_net(seed=5, sizes=(2, 3, 2))
    b = a.copy()
    b.weights[1][0, :2] += 1.0  # k=2 coordinates in layer 1
    assert nn.layer_sq_distance(a, b, 0) == 0.0
    assert nn.layer_sq_distance(a, b, 1) == pytest.approx(2.0, abs=0)


def test_layer_distance_out_of_range():
    p = small_net()
    with pytest.raises(ValueError):
        nn.layer_sq_distance(p, p, 2)


def test_distance_symmetry():
    a, b = small_net(seed=1), small_net(seed=9)
    assert nn.param_sq_distance(a, b) == nn.param_sq_distance(b, a)


@settings(max_examples=60, deadline=None)
@given(model_stacks(), st.booleans())
def test_sq_distances_equal_the_two_distance_functions_bitwise(models, reuse):
    a = models[0]
    scratch = np.full_like(a.flat, np.nan) if reuse else None
    for b in models[1:]:
        total, per_layer = nn.sq_distances(a, b, out=scratch)
        assert total == nn.param_sq_distance(a, b)
        assert per_layer == [nn.layer_sq_distance(a, b, l)
                             for l in range(a.num_layers)]


def test_sq_distances_reject_mismatched_models():
    with pytest.raises(ShapeError):
        nn.sq_distances(small_net(sizes=(2, 3, 2)), small_net(sizes=(2, 4, 2)))


# ---------------------------------------------------- predict_confidences

def test_uniform_logits_confidence_is_one_over_k():
    p = nn.ModelParams([np.zeros((10, 3))], [np.zeros(10)])
    labels, conf = nn.predict_confidences(p, np.ones((4, 3)))
    assert (labels == 0).all()  # tie broken to lowest index
    assert np.allclose(conf, 0.1, atol=0)


def test_saturated_confidence():
    p = nn.ModelParams([np.zeros((3, 2))], [np.array([1000.0, 0.0, 0.0])])
    labels, conf = nn.predict_confidences(p, np.ones((2, 2)))
    assert (labels == 0).all()
    assert (conf > 1 - 1e-6).all()


def test_confidences_match_direct_softmax():
    rng = np.random.default_rng(17)
    p = small_net(seed=12, sizes=(4, 5, 3))
    x = rng.normal(size=(9, 4))
    labels, conf = nn.predict_confidences(p, x)
    _, logits = nn.forward(p, x)
    for i in range(9):
        e = np.exp(logits[i] - logits[i].max())
        probs = e / e.sum()
        assert labels[i] == int(np.argmax(probs))
        assert conf[i] == pytest.approx(probs.max(), rel=1e-12)
        assert 0 < conf[i] <= 1

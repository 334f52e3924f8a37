"""Unit tests for local training, data-quality loss, and label correction."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fednoisy import client, data, nn
from fednoisy.client import _COHORT, TRAIN_RELABELED_ONLY, ClientConfig
from fednoisy.errors import NumericError
from tests_util import dual_train_reference, model_stacks


def blob_dataset(k=3, per_class=40, dim=6, spread=0.5, seed=0):
    return data.make_synthetic(k, per_class, dim, spread, seed)


def whole_dataset_assignment(ds, client_id=0):
    labels = ds.labels.copy()
    return data.ClientAssignment(client_id, np.arange(len(ds)), labels,
                                 labels.copy())


def fresh_params(ds, hidden=(8,), seed=0):
    return nn.init_params([ds.dim, *hidden, ds.num_classes], seed)


def train_alone(g, a, ds, cfg, round_idx, seed):
    """``local_train`` of a cohort of one: the client's update."""
    [update] = client.local_train(g, client.Cohort((a,)), ds, cfg, round_idx,
                                  seed)
    return update


def on_path(dual):
    """A context in which ``local_train`` takes its dual path if ``dual``,
    else its primal path, whatever the sizes."""
    return mock.patch.object(client, "takes_dual_path", lambda *args: dual)


# ------------------------------------------------------------- local_train

def test_zero_lr_returns_global_bit_exact():
    ds = blob_dataset()
    a = whole_dataset_assignment(ds)
    g = fresh_params(ds)
    cfg = ClientConfig(local_epochs=2, batch_size=16)
    # the config refuses lr 0; local_train's arithmetic must still keep g
    object.__setattr__(cfg, "lr", 0.0)
    update = train_alone(g, a, ds, cfg, round_idx=1, seed=0)
    assert all(np.array_equal(w1, w2)
               for w1, w2 in zip(update.params.weights, g.weights))
    assert update.n_samples == len(ds)
    assert update.client_id == 0


def test_single_step_matches_composed_primitives():
    ds = blob_dataset(per_class=1, k=2)
    a = whole_dataset_assignment(ds)
    # keep only one sample so the epoch is a single batch of one
    a = data.ClientAssignment(0, a.indices[:1], a.true_labels[:1],
                              a.noisy_labels[:1])
    g = fresh_params(ds)
    cfg = ClientConfig(lr=0.05, local_epochs=1, batch_size=1)
    update = train_alone(g, a, ds, cfg, round_idx=0, seed=3)
    _, grad = nn.loss_and_grad(g, ds.features[a.indices], a.noisy_labels)
    want = nn.sgd_step(g, grad, 0.05)
    assert all(np.array_equal(w1, w2)
               for w1, w2 in zip(update.params.weights, want.weights))
    assert all(np.array_equal(b1, b2)
               for b1, b2 in zip(update.params.biases, want.biases))


def test_local_train_never_mutates_global():
    ds = blob_dataset()
    a = whole_dataset_assignment(ds)
    g = fresh_params(ds)
    snapshot = g.copy()
    train_alone(g, a, ds, ClientConfig(local_epochs=1), 1, seed=0)
    assert all(np.array_equal(w1, w2) for w1, w2 in zip(g.weights, snapshot.weights))
    assert all(np.array_equal(b1, b2) for b1, b2 in zip(g.biases, snapshot.biases))


def test_local_train_matches_manual_sgd_loop():
    # with prox_mu = 0 and the same shuffles, training is exactly composed sgd steps
    ds = blob_dataset(per_class=17, k=2, dim=4)
    a = whole_dataset_assignment(ds, client_id=5)
    g = fresh_params(ds)
    cfg = ClientConfig(lr=0.02, local_epochs=3, batch_size=8)
    update = train_alone(g, a, ds, cfg, round_idx=2, seed=11)

    rng = np.random.default_rng((11, 5, 2))
    x, y = ds.features[a.indices], a.noisy_labels
    params = g.copy()
    for _ in range(cfg.local_epochs):
        order = rng.permutation(len(a))
        for start in range(0, len(a), cfg.batch_size):
            chunk = order[start:start + cfg.batch_size]
            _, grad = nn.loss_and_grad(params, x[chunk], y[chunk])
            params = nn.sgd_step(params, grad, cfg.lr)
    assert all(np.array_equal(w1, w2)
               for w1, w2 in zip(update.params.weights, params.weights))


@settings(max_examples=40, deadline=None)
@given(model_stacks(counts=st.just(1)), st.integers(1, 20), st.integers(1, 8),
       st.integers(1, 3), st.sampled_from([1e-3, 0.05]),
       st.sampled_from([0.0, 0.01, 1.0]), st.integers(0, 2**32 - 1))
def test_local_train_equals_reference_sgd_loop_bitwise(models, n, batch,
                                                       epochs, lr, mu, seed):
    # the reference: fresh gradients, the additive proximal term, nn.sgd_step
    g = models[0]
    rng = np.random.default_rng(seed)
    ds = data.LabeledDataset(rng.normal(size=(n, g.in_dim)),
                             rng.integers(0, g.out_dim, size=n), g.out_dim)
    a = whole_dataset_assignment(ds, client_id=3)
    cfg = ClientConfig(lr=lr, local_epochs=epochs, batch_size=batch,
                       prox_mu=mu)

    order_rng = np.random.default_rng((seed, 3, 4))
    params = g.copy()
    for _ in range(epochs):
        order = order_rng.permutation(n)
        for start in range(0, n, batch):
            chunk = order[start:start + batch]
            _, grad = nn.loss_and_grad(params, ds.features[chunk],
                                       ds.labels[chunk])
            if mu > 0:
                grad = nn.ModelParams.from_flat(
                    grad.flat + mu * (params.flat - g.flat), g.shapes)
            params = nn.sgd_step(params, grad, lr)

    with on_path(dual=False):
        if not np.isfinite(params.flat).all():
            with pytest.raises(NumericError):
                train_alone(g, a, ds, cfg, round_idx=4, seed=seed)
            return
        update = train_alone(g, a, ds, cfg, round_idx=4, seed=seed)
    assert np.array_equal(update.params.flat, params.flat)


def dual_cohort(k, n, dim, hidden, classes, seed):
    """(dataset, k members of n rows, received model) for the dual path."""
    rng = np.random.default_rng(seed)
    rows = 2 * n + 3
    ds = data.LabeledDataset(rng.normal(size=(rows, dim)),
                             rng.integers(0, classes, size=rows), classes)
    members = []
    for cid in rng.choice(50, size=k, replace=False):
        idx = rng.choice(rows, size=n, replace=False)
        members.append(data.ClientAssignment(
            int(cid), idx, ds.labels[idx], rng.integers(0, classes, n)))
    return ds, members, nn.init_params([dim, *hidden, classes], seed)


dual_configs = dict(
    k=st.integers(1, 5), n=st.integers(2, 9), dim=st.integers(40, 90),
    hidden=st.lists(st.integers(3, 8), min_size=1, max_size=2),
    classes=st.sampled_from([2, 9]), batch=st.integers(1, 9),
    epochs=st.integers(2, 3), mu=st.sampled_from([0.0, 0.01]),
    h_on=st.sampled_from([client.H_ON_GLOBAL, client.H_ON_LOCAL]),
    seed=st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(**dual_configs)
# ragged last batches, on every run
@example(k=3, n=7, dim=60, hidden=[6], classes=9, batch=3, epochs=2, mu=0.01,
         h_on=client.H_ON_GLOBAL, seed=5)
@example(k=5, n=9, dim=90, hidden=[8, 4], classes=2, batch=4, epochs=3,
         mu=0.0, h_on=client.H_ON_LOCAL, seed=1)
def test_dual_path_equals_its_reference_loop_bitwise(k, n, dim, hidden,
                                                     classes, batch, epochs,
                                                     mu, h_on, seed):
    ds, members, g = dual_cohort(k, n, dim, hidden, classes, seed)
    cfg = ClientConfig(lr=0.05, local_epochs=epochs, batch_size=batch,
                       prox_mu=mu, h_on=h_on)
    assume(client.takes_dual_path(n, g.shapes, cfg))
    updates = client.local_train(g, client.Cohort(tuple(members)), ds, cfg,
                                 round_idx=2, seed=seed)
    for a, got in zip(members, updates, strict=True):
        params, h = dual_train_reference(g, a, ds, cfg, 2, seed)
        assert got.params.flat.tobytes() == params.flat.tobytes()
        assert got.h == h


@settings(max_examples=40, deadline=None)
@given(**dual_configs)
def test_primal_and_dual_paths_agree(k, n, dim, hidden, classes, batch,
                                     epochs, mu, h_on, seed):
    # the two paths sum in different orders, so they agree to rounding only
    ds, members, g = dual_cohort(k, n, dim, hidden, classes, seed)
    cfg = ClientConfig(lr=0.05, local_epochs=epochs, batch_size=batch,
                       prox_mu=mu, h_on=h_on)
    cohort = client.Cohort(tuple(members))
    runs = []
    for dual in (False, True):
        with on_path(dual):
            runs.append(client.local_train(g, cohort, ds, cfg, 2, seed))
    for primal, dual in zip(*runs):
        want = primal.params.flat
        assert np.abs(dual.params.flat - want).max() \
            <= 1e-12 * np.abs(want).max()
        assert dual.h == pytest.approx(primal.h, rel=1e-12, abs=0)


@pytest.mark.parametrize("n, shapes, epochs, batch, dual", [
    # fedbench's desk client: 100 rows, 784-64-32-10, 10 epochs of 60
    (100, [(64, 784), (32, 64), (10, 32)], 10, 60, True),
    # fedbench's crowd client: one step a round
    (20, [(64, 784), (32, 64), (10, 32)], 1, 20, False),
    # an MNIST-sized shard: K would outgrow the model, and so would its work
    (3000, [(64, 784), (32, 64), (10, 32)], 10, 60, False),
    # fewer multiply-adds on the dual path, but K (1600) outgrows P (1005)
    (40, [(1, 1000), (2, 1)], 50, 10, False),
    # steps enough and K small, but more multiply-adds on the dual path
    (100, [(8, 6), (3, 8)], 2, 16, False),
])
def test_the_path_follows_the_sizes(n, shapes, epochs, batch, dual):
    cfg = ClientConfig(local_epochs=epochs, batch_size=batch)
    assert client.takes_dual_path(n, shapes, cfg) is dual


@settings(max_examples=60, deadline=None)
@given(st.integers(1, _COHORT + 1), st.integers(1, 20), st.integers(1, 8),
       st.integers(1, 3), st.sampled_from([0.0, 0.01]),
       st.sampled_from([client.H_ON_GLOBAL, client.H_ON_LOCAL]),
       st.lists(st.integers(1, 6), max_size=2), st.integers(1, 7),
       st.sampled_from([2, 9, 12]), st.integers(0, 2**32 - 1))
def test_cohort_equals_one_client_calls_bitwise(k, n, batch, epochs, mu, h_on,
                                                hidden, dim, classes, seed):
    # 9 and 12 classes put the log-softmax row sums in numpy's pairwise regime
    rng = np.random.default_rng(seed)
    rows = 3 * n + 5
    ds = data.LabeledDataset(rng.normal(size=(rows, dim)),
                             rng.integers(0, classes, size=rows), classes)
    members = []
    for cid in rng.choice(50, size=k, replace=False):
        idx = rng.choice(rows, size=n, replace=False)
        members.append(data.ClientAssignment(
            int(cid), idx, ds.labels[idx], rng.integers(0, classes, n)))
    g = nn.init_params([dim, *hidden, classes], seed)
    cfg = ClientConfig(lr=0.05, local_epochs=epochs, batch_size=batch,
                       prox_mu=mu, h_on=h_on)

    singles = [train_alone(g, a, ds, cfg, round_idx=3, seed=seed)
               for a in members]
    cohort = client.Cohort(tuple(members))
    assert cohort.client_id == tuple(a.client_id for a in members)
    updates = client.local_train(g, cohort, ds, cfg, round_idx=3, seed=seed)
    assert len(updates) == k
    for got, want in zip(updates, singles):
        assert (got.client_id, got.n_samples) == (want.client_id, n)
        assert got.params.flat.tobytes() == want.params.flat.tobytes()
        assert got.h == want.h


@pytest.mark.parametrize("n, batch, epochs", [(20, 20, 1), (100, 60, 2),
                                              (99, 32, 2)])
def test_cohort_equals_one_client_calls_on_benchmark_shapes(n, batch, epochs):
    # 784-64-32-10, where OpenBLAS picks its kernel by row count: one GEMM
    # over the cohort's concatenated rows would move the bits
    ds = data.make_synthetic(10, 40, 784, 2.0, seed=3)
    g = nn.init_params([784, 64, 32, 10], 5)
    cfg = ClientConfig(lr=0.05, local_epochs=epochs, batch_size=batch)
    rng = np.random.default_rng(9)
    members = []
    for client_id in range(_COHORT):
        idx = rng.permutation(len(ds))[:n]
        members.append(data.ClientAssignment(client_id, idx, ds.labels[idx],
                                             rng.integers(0, 10, n)))
    updates = client.local_train(g, client.Cohort(tuple(members)), ds, cfg,
                                 round_idx=3, seed=1)
    for a, got in zip(members, updates):
        want = train_alone(g, a, ds, cfg, round_idx=3, seed=1)
        assert got.params.flat.tobytes() == want.params.flat.tobytes()
        assert got.h == want.h


@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.sampled_from([2, 5, 24]), min_size=1, max_size=12),
       workers=st.integers(1, 3), seed=st.integers(0, 2**16))
# two groups on the dual path and one on the primal path, on every run
@example(sizes=[5, 2, 24, 5, 5, 2, 24, 5, 5, 5, 2], workers=2, seed=0)
def test_cut_cohorts_groups_by_size_in_client_order(sizes, workers, seed):
    # 60-8-3 with 2 epochs of 4: 2 and 5 rows take the dual path, 24 rows
    # (24² > P) the primal one
    rng = np.random.default_rng(seed)
    ds = data.LabeledDataset(rng.normal(size=(40, 60)),
                             rng.integers(0, 3, size=40), 3)
    members = []
    for cid, n in enumerate(sizes):
        idx = rng.choice(40, size=n, replace=False)
        members.append(data.ClientAssignment(cid, idx, ds.labels[idx],
                                             ds.labels[idx]))
    shapes = nn.init_params([60, 8, 3], 0).shapes
    cfg = ClientConfig(local_epochs=2, batch_size=4)
    cohorts = client.cut_cohorts(members, ds, shapes, cfg, workers)
    assert sorted(a.client_id for c in cohorts
                  for a in c.members) == list(range(len(sizes)))
    for n in set(sizes):
        group = [a for a in members if len(a) == n]
        runs = [c for c in cohorts if len(c.members[0]) == n]
        # runs of the group, each of one shard size, in client order
        assert [a for c in runs for a in c.members] == group
        step = min(_COHORT, math.ceil(len(group) / workers))
        assert all(len(c.members) <= step for c in runs)
        if not client.takes_dual_path(n, shapes, cfg):
            assert all(c.gram is None for c in runs)
            continue
        block = runs[0].gram.base
        assert block.shape == (len(group), n, n)
        for c in runs:
            assert c.gram.base is block
            assert np.shares_memory(c.gram, block)
            assert c.gram.tobytes() == \
                client.shard_grams(c.members, ds).tobytes()


def test_cohort_rejects_unequal_shards():
    ds = blob_dataset()
    a = whole_dataset_assignment(ds)
    b = data.ClientAssignment(1, a.indices[:5], a.true_labels[:5],
                              a.noisy_labels[:5])
    with pytest.raises(ValueError, match="cohort shards differ"):
        client.local_train(fresh_params(ds), client.Cohort((a, b)), ds,
                           ClientConfig(), 1, seed=0)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_cohort_names_its_first_diverged_client():
    # a zero one-layer model has zero logits on any rows, so huge rows pass
    # the forward pass and overflow only the update
    rng = np.random.default_rng(0)
    n, dim = 6, 3
    features = rng.normal(size=(4 * n, dim))
    features[2 * n:] *= 1e300          # the rows of clients 2 and 3
    ds = data.LabeledDataset(features, rng.integers(0, 3, 4 * n), 3)
    members = tuple(data.ClientAssignment(
        c, np.arange(c * n, (c + 1) * n), ds.labels[c * n:(c + 1) * n],
        ds.labels[c * n:(c + 1) * n]) for c in range(4))
    g = nn.ModelParams([np.zeros((3, dim))], [np.zeros(3)])
    cfg = ClientConfig(lr=1e10, local_epochs=1, batch_size=n)
    with pytest.raises(NumericError, match="^client 2 diverged to non-finite "
                       "parameters in round 1$"):
        client.local_train(g, client.Cohort(members), ds, cfg, 1, seed=0)
    with pytest.raises(NumericError, match="^client 3 diverged"):
        train_alone(g, members[3], ds, cfg, 1, seed=0)
    ok = client.local_train(g, client.Cohort(members[:2]), ds, cfg, 1, seed=0)
    assert all(np.isfinite(u.params.flat).all() for u in ok)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("dual", [False, True])
def test_a_cohort_that_diverges_before_its_last_update_names_it(dual):
    # members 2 and 3 overflow in their first update, so the second epoch's
    # forward pass (the dual path: the first step's, through K) is not finite
    rng = np.random.default_rng(0)
    n, dim = 6, 3
    features = rng.normal(size=(4 * n, dim))
    features[2 * n:] *= 1e300
    ds = data.LabeledDataset(features, rng.integers(0, 3, 4 * n), 3)
    members = tuple(data.ClientAssignment(
        c, np.arange(c * n, (c + 1) * n), ds.labels[c * n:(c + 1) * n],
        ds.labels[c * n:(c + 1) * n]) for c in range(4))
    g = nn.ModelParams([np.zeros((3, dim))], [np.zeros(3)])
    cfg = ClientConfig(lr=1e10, local_epochs=2, batch_size=n)
    with on_path(dual), pytest.raises(
            NumericError,
            match="^client 2 diverged to non-finite logits in round 7$"):
        client.local_train(g, client.Cohort(members), ds, cfg, 7, seed=0)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_dual_path_names_its_first_diverged_client(monkeypatch):
    # on the dual path a step's dL/dz0 goes only into A, so one made
    # non-finite in the last step reaches no forward pass: only the written
    # layer 0 shows it
    ds, members, g = dual_cohort(4, 6, 60, [6], 2, seed=3)
    cfg = ClientConfig(lr=0.05, local_epochs=2, batch_size=3)
    assert client.takes_dual_path(6, g.shapes, cfg)
    steps = []
    real = nn.head_grad

    def poisoned(*args, **kwargs):
        loss, delta = real(*args, **kwargs)
        steps.append(len(delta))
        if len(steps) == 4:        # the last step: members 2 and 3
            delta[2:] = np.inf
        return loss, delta

    monkeypatch.setattr(nn, "head_grad", poisoned)
    with pytest.raises(NumericError, match=f"^client {members[2].client_id} "
                       "diverged to non-finite parameters in round 1$"):
        client.local_train(g, client.Cohort(tuple(members)), ds, cfg, 1,
                           seed=0)
    assert steps == [4] * 4


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("mu", [0.0, 0.01])
def test_sgd_steps_allocate_nothing_parameter_sized(mu, monkeypatch):
    # parameters (~355 KB) dwarf a step's batch-sized temporaries, so a
    # parameter-sized buffer made in a step shows in that step's peak; on
    # each path, whatever path the sizes would pick
    rng = np.random.default_rng(0)
    ds = data.LabeledDataset(rng.normal(size=(4, 100)),
                             rng.integers(0, 10, size=4), 10)
    a = whole_dataset_assignment(ds)
    g = fresh_params(ds, hidden=(400,))

    def train(epochs):   # two steps of 2 rows an epoch
        cfg = ClientConfig(lr=0.01, local_epochs=epochs, batch_size=2,
                           prox_mu=mu)
        train_alone(g, a, ds, cfg, round_idx=1, seed=0)

    marks = []   # (traced now, peak since the previous step began) per step
    real = nn.head_grad

    def marked(*args, **kwargs):
        marks.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        return real(*args, **kwargs)

    for dual in (False, True):
        with on_path(dual):
            assert traced_peak(lambda: train(20)) \
                <= traced_peak(lambda: train(1)) + 4096
            marks.clear()
            with monkeypatch.context() as m:
                # both paths run each step's backprop through the shared head
                m.setattr(nn, "head_grad", marked)
                traced_peak(lambda: train(20))
        assert len(marks) == 40
        step_growth = [peak - now
                       for (now, _), (_, peak) in zip(marks, marks[1:])]
        assert max(step_growth) < g.flat.nbytes // 4


def test_prox_term_pulls_toward_global():
    # the additive prox gradient is a stable contraction only for lr*mu < 2;
    # mu = 10 at lr = 0.05 sits safely inside that range
    ds = blob_dataset(per_class=30)
    a = whole_dataset_assignment(ds)
    g = fresh_params(ds)
    dists = []
    for mu in [0.0, 1.0, 10.0]:
        u = train_alone(
            g, a, ds, ClientConfig(lr=0.05, local_epochs=5, prox_mu=mu), 1, seed=7)
        dists.append(nn.param_sq_distance(u.params, g))
    assert dists[2] < dists[1] < dists[0]


def test_zero_local_epochs_rejected():
    ds = blob_dataset()
    with pytest.raises(ValueError, match="local_epochs"):
        train_alone(fresh_params(ds), whole_dataset_assignment(ds), ds,
                    ClientConfig(local_epochs=0), 1, seed=0)


def test_zero_batch_size_rejected():
    ds = blob_dataset()
    with pytest.raises(ValueError, match="batch_size"):
        train_alone(fresh_params(ds), whole_dataset_assignment(ds), ds,
                    ClientConfig(batch_size=0), 1, seed=0)


def test_empty_assignment_rejected():
    ds = blob_dataset()
    a = data.ClientAssignment(0, np.array([], dtype=np.int64),
                              np.array([], dtype=np.int64),
                              np.array([], dtype=np.int64))
    with pytest.raises(ValueError):
        train_alone(fresh_params(ds), a, ds, ClientConfig(), 1, seed=0)


def test_local_train_deterministic():
    ds = blob_dataset()
    a = whole_dataset_assignment(ds)
    g = fresh_params(ds)
    cfg = ClientConfig(local_epochs=2)
    u1 = train_alone(g, a, ds, cfg, 3, seed=42)
    u2 = train_alone(g, a, ds, cfg, 3, seed=42)
    assert all(np.array_equal(w1, w2)
               for w1, w2 in zip(u1.params.weights, u2.params.weights))
    assert u1.h == u2.h


# ------------------------------------------------------- data_quality_loss

@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(1, 50), st.integers(1, 3),
       st.sampled_from([0.0, 0.01, 1.0]), st.integers(1, 12),
       st.integers(1, 16), st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_h_from_first_step_equals_data_quality_loss(n, batch, epochs, mu, dim,
                                                    hidden, k, seed):
    # the first step's rows plus one pass over the rest of its epoch: the
    # same losses as one pass over the shard, up to the BLAS's rounding of a
    # row in a smaller batch
    rng = np.random.default_rng(seed)
    ds = data.LabeledDataset(rng.normal(size=(n + 5, dim)),
                             rng.integers(0, k, size=n + 5), k)
    idx = rng.permutation(n + 5)[:n]
    a = data.ClientAssignment(2, idx, ds.labels[idx], rng.integers(0, k, n))
    g = nn.init_params([dim, hidden, k], seed)
    cfg = ClientConfig(lr=0.05, local_epochs=epochs, batch_size=batch,
                       prox_mu=mu)
    update = train_alone(g, a, ds, cfg, round_idx=1, seed=seed)
    assert update.h == pytest.approx(client.data_quality_loss(g, a, ds),
                                     rel=1e-13, abs=0)


@pytest.mark.parametrize("n, batch", [(20, 20), (100, 60)])
def test_h_from_first_step_bitwise_on_benchmark_shapes(n, batch):
    # the crowd and desk clients of fedbench: 784-64-32-10, one shard each
    ds = data.make_synthetic(10, 40, 784, 2.0, seed=3)
    g = nn.init_params([784, 64, 32, 10], 5)
    cfg = ClientConfig(lr=0.05, local_epochs=2, batch_size=batch)
    rng = np.random.default_rng(9)
    for client_id in range(4):
        idx = rng.permutation(len(ds))[:n]
        a = data.ClientAssignment(client_id, idx, ds.labels[idx],
                                  rng.integers(0, 10, n))
        update = train_alone(g, a, ds, cfg, round_idx=3, seed=1)
        assert update.h == client.data_quality_loss(g, a, ds)


@pytest.mark.parametrize("n, batch, rows", [(20, 20, [20]), (20, 60, [20]),
                                            (100, 60, [60, 40, 40])])
def test_h_on_global_runs_the_received_model_once_per_row(n, batch, rows,
                                                          monkeypatch):
    # forward passes of one epoch: the steps', then the rest of the first
    # epoch's order under the received model, and no data_quality_loss pass
    ds = blob_dataset(per_class=50)
    a = data.ClientAssignment(0, np.arange(n), ds.labels[:n], ds.labels[:n])
    calls = []
    real = nn.forward

    def counted(params, batch_x):
        calls.append(batch_x.shape[-2])   # rows of each cohort member
        return real(params, batch_x)

    monkeypatch.setattr(nn, "forward", counted)
    monkeypatch.setattr(client, "data_quality_loss", None)
    train_alone(fresh_params(ds), a, ds,
                ClientConfig(local_epochs=1, batch_size=batch), 1, seed=0)
    assert calls == rows


def test_h_on_local_is_data_quality_loss_of_the_trained_model():
    ds = blob_dataset()
    a = data.apply_symmetric_noise(whole_dataset_assignment(ds), 0.4, 3, seed=1)
    g = fresh_params(ds)
    update = train_alone(
        g, a, ds, ClientConfig(local_epochs=3, batch_size=16, h_on="local"),
        2, seed=4)
    assert update.h == client.data_quality_loss(update.params, a, ds)
    assert update.h != client.data_quality_loss(g, a, ds)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, _COHORT), st.integers(1, 129), st.sampled_from([3, 17, 784]),
       st.sampled_from([(8,), (64, 32)]), st.integers(1, 64),
       st.integers(0, 2**32 - 1))
def test_h_on_local_is_each_members_data_quality_loss_bitwise(k, n, dim,
                                                             hidden, batch,
                                                             seed):
    # one stacked cross_entropy over the trained (k, P) block: each member
    # gets the bits of its own pass
    rng = np.random.default_rng(seed)
    rows = n + 7
    ds = data.LabeledDataset(rng.normal(size=(rows, dim)),
                             rng.integers(0, 10, rows), 10)
    members = []
    for cid in range(k):
        idx = rng.choice(rows, size=n, replace=False)
        members.append(data.ClientAssignment(cid, idx, ds.labels[idx],
                                             rng.integers(0, 10, n)))
    g = nn.init_params([dim, *hidden, 10], seed)
    cfg = ClientConfig(lr=0.05, local_epochs=1, batch_size=batch,
                       h_on="local")
    updates = client.local_train(g, client.Cohort(tuple(members)), ds, cfg,
                                 round_idx=1, seed=seed)
    for a, u in zip(members, updates):
        assert u.h == client.data_quality_loss(u.params, a, ds)


def test_h_uniform_logit_model():
    ds = blob_dataset(k=4, per_class=25)
    a = whole_dataset_assignment(ds)
    zero = nn.ModelParams([np.zeros((4, ds.dim))], [np.zeros(4)])
    h = client.data_quality_loss(zero, a, ds)
    assert h == pytest.approx(len(ds) * np.log(4), rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 30), st.integers(0, 2**32 - 1))
def test_h_is_loss_and_grad_loss_times_n_bitwise(k, n, seed):
    ds = data.make_synthetic(k + 1, n, 5, 0.5, seed % 1000)
    rng = np.random.default_rng(seed)
    idx = rng.permutation(len(ds))[:n]
    a = data.ClientAssignment(0, idx, ds.labels[idx], rng.integers(0, k + 1, n))
    g = nn.init_params([5, 4, k + 1], seed)
    mean_loss, _ = nn.loss_and_grad(g, ds.features[a.indices], a.noisy_labels)
    assert client.data_quality_loss(g, a, ds) == mean_loss * n


def test_h_near_zero_for_confident_correct_model():
    ds = blob_dataset(k=2, per_class=10, spread=0.01)
    a = whole_dataset_assignment(ds)
    # oracle: huge-margin linear model aligned with the class centers
    centers = np.stack([ds.features[ds.labels == c].mean(axis=0) for c in range(2)])
    w = 1e4 * centers
    oracle = nn.ModelParams([w], [np.zeros(2)])
    h = client.data_quality_loss(oracle, a, ds)
    assert h < 1e-3


def test_h_higher_for_flipped_client():
    # a model trained on clean data scores flipped labels worse than clean ones
    wins = 0
    for seed in range(10):
        ds = blob_dataset(k=3, per_class=60, dim=8, spread=0.6, seed=seed)
        trainer = whole_dataset_assignment(ds)
        g = fresh_params(ds, hidden=(12,), seed=seed)
        trained = train_alone(
            g, trainer, ds, ClientConfig(lr=0.1, local_epochs=8, batch_size=30),
            1, seed=seed).params
        clean = whole_dataset_assignment(ds)
        noisy = data.apply_symmetric_noise(clean, 1.0, 3, seed=seed + 100)
        h_clean = client.data_quality_loss(trained, clean, ds)
        h_noisy = client.data_quality_loss(trained, noisy, ds)
        wins += h_noisy > h_clean
    assert wins >= 9


def test_h_monotone_in_flip_rate():
    from scipy.stats import spearmanr
    rates = [0.0, 0.25, 0.5, 0.75, 1.0]
    rhos = []
    for seed in range(10):
        ds = blob_dataset(k=3, per_class=60, dim=8, spread=0.6, seed=seed)
        g = fresh_params(ds, hidden=(12,), seed=seed)
        trained = train_alone(
            g, whole_dataset_assignment(ds),
            ds, ClientConfig(lr=0.1, local_epochs=8, batch_size=30), 1,
            seed=seed).params
        base = whole_dataset_assignment(ds)
        hs = [client.data_quality_loss(
            trained, data.apply_symmetric_noise(base, r, 3, seed=seed + 7), ds)
            for r in rates]
        rhos.append(spearmanr(rates, hs).statistic)
    assert np.mean(rhos) > 0.9


# --------------------------------------------------- apply_label_correction

def confident_oracle(ds, confidence=0.99):
    """A model whose argmax equals the true label with the given confidence."""
    k, d = ds.num_classes, ds.dim
    centers = np.stack([ds.features[ds.labels == c].mean(axis=0) for c in range(k)])
    # scale logits until min confidence clears the target
    for scale in [1.0, 10.0, 100.0, 1000.0]:
        params = nn.ModelParams([scale * centers], [np.zeros(k)])
        preds, conf = nn.predict_confidences(params, ds.features)
        if (preds == ds.labels).all() and conf.min() > confidence:
            return params
    raise AssertionError("could not build a confident oracle on this blob set")


def test_eta_one_never_relabels():
    ds = blob_dataset(spread=0.05)
    a = data.apply_symmetric_noise(whole_dataset_assignment(ds), 0.5, 3, seed=0)
    oracle = confident_oracle(ds)
    out, n = client.apply_label_correction(a, oracle, ds, eta=1.0)
    assert n == 0
    assert np.array_equal(out.noisy_labels, a.noisy_labels)


def test_eta_zero_relabels_everything():
    ds = blob_dataset()
    a = whole_dataset_assignment(ds)
    g = fresh_params(ds)
    out, n = client.apply_label_correction(a, g, ds, eta=0.0)
    preds, _ = nn.predict_confidences(g, ds.features[a.indices])
    assert n == len(ds)
    assert np.array_equal(out.noisy_labels, preds)


def test_oracle_correction_restores_labels():
    ds = blob_dataset(spread=0.05)
    flipped = data.apply_symmetric_noise(whole_dataset_assignment(ds), 0.5, 3,
                                         seed=1)
    oracle = confident_oracle(ds, confidence=0.99)
    out, n = client.apply_label_correction(flipped, oracle, ds, eta=0.9)
    assert (out.noisy_labels == out.true_labels).all()
    assert n == len(ds)


def test_correction_idempotent_and_preserves_truth():
    ds = blob_dataset()
    a = data.apply_symmetric_noise(whole_dataset_assignment(ds), 0.3, 3, seed=2)
    g = fresh_params(ds)
    once, n1 = client.apply_label_correction(a, g, ds, eta=0.5)
    twice, n2 = client.apply_label_correction(once, g, ds, eta=0.5)
    assert np.array_equal(once.noisy_labels, twice.noisy_labels)
    assert np.array_equal(once.true_labels, a.true_labels)
    assert np.array_equal(once.indices, a.indices)


def test_relabeled_set_equals_confidence_mask():
    ds = blob_dataset()
    a = data.apply_symmetric_noise(whole_dataset_assignment(ds), 0.6, 3, seed=3)
    g = fresh_params(ds)
    eta = 0.4
    out, n = client.apply_label_correction(a, g, ds, eta)
    preds, mask = client.correction_mask(a, g, ds, eta)
    # relabeled set must be exactly the high-confidence set
    assert n == mask.sum()
    assert np.array_equal(out.noisy_labels[~mask], a.noisy_labels[~mask])
    assert np.array_equal(out.noisy_labels[mask], preds[mask])


def test_relabeled_only_keeps_exactly_the_relabeled_samples():
    ds = blob_dataset()
    a = data.apply_symmetric_noise(whole_dataset_assignment(ds), 0.6, 3, seed=3)
    g = fresh_params(ds)
    eta = 0.4
    preds, mask = client.correction_mask(a, g, ds, eta)
    assert 0 < mask.sum() < len(a)
    out, n = client.apply_label_correction(a, g, ds, eta, TRAIN_RELABELED_ONLY)
    assert n == mask.sum()
    assert np.array_equal(out.indices, a.indices[mask])
    assert np.array_equal(out.true_labels, a.true_labels[mask])
    assert np.array_equal(out.noisy_labels, preds[mask])
    assert out.client_id == a.client_id


def test_relabeled_only_keeps_everything_when_nothing_relabeled():
    ds = blob_dataset()
    a = data.apply_symmetric_noise(whole_dataset_assignment(ds), 0.6, 3, seed=3)
    out, n = client.apply_label_correction(a, fresh_params(ds), ds, 1.0,
                                           TRAIN_RELABELED_ONLY)
    assert n == 0
    assert np.array_equal(out.indices, a.indices)
    assert np.array_equal(out.noisy_labels, a.noisy_labels)

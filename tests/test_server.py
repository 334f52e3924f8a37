"""Unit tests for aggregation, detection, and round orchestration."""

import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fednoisy import analysis, client, data, nn, server
from fednoisy.client import (H_ON_LOCAL, TRAIN_RELABELED_ONLY, ClientConfig,
                             ClientUpdate, Cohort, local_train)
from fednoisy.data import NoiseSpec, PartitionSpec
from fednoisy.server import (ROW_SUM_TOL, ReliabilityScores, ServerConfig,
                             aggregate_fedavg, aggregate_layerwise,
                             aggregate_trimmed_mean, detect_noisy,
                             detection_precision_recall, layerwise_weights,
                             penalty_m, reliability_scores, select_s_corr)
from tests_util import model_stacks


def scalar_params(value, bias=0.0):
    return nn.ModelParams([np.array([[float(value)]])],
                          [np.array([float(bias)])])


def scalar_update(cid, value, n=1, h=0.0):
    return ClientUpdate(cid, scalar_params(value), h, n)


def random_update(cid, rng, sizes=(3, 4, 2), n=10, h=1.0):
    params = nn.init_params(list(sizes), int(rng.integers(1 << 30)))
    return ClientUpdate(cid, params, h, n)


def scores_from(q_values):
    q = np.asarray(q_values, dtype=np.float64)
    return ReliabilityScores(list(range(q.size)), q, np.zeros_like(q),
                             float(q.mean()), float(q.std()),
                             np.zeros((1, q.size)))


def layer_div(g, updates):
    """The (L, C) layer distances to ``g`` that a round's scores record."""
    return analysis.weight_divergence(g, [u.params for u in updates])[1]


# ----------------------------------------------------------------- fedavg

def test_fedavg_identical_updates():
    updates = [scalar_update(i, 3.5, n=4) for i in range(5)]
    out = aggregate_fedavg(updates)
    assert out.weights[0][0, 0] == pytest.approx(3.5, rel=1e-12)


def test_fedavg_equal_sizes_midpoint():
    out = aggregate_fedavg([scalar_update(0, 0.0, n=7), scalar_update(1, 2.0, n=7)])
    assert out.weights[0][0, 0] == pytest.approx(1.0, rel=1e-12)


def test_fedavg_weighted_vs_unweighted_hand_case():
    updates = [scalar_update(0, 0.0, n=1), scalar_update(1, 0.0, n=1),
               scalar_update(2, 4.0, n=2)]
    assert aggregate_fedavg(updates).weights[0][0, 0] == pytest.approx(2.0, rel=1e-12)
    assert aggregate_fedavg(updates, unweighted=True).weights[0][0, 0] == \
        pytest.approx(4.0 / 3.0, rel=1e-12)


def test_fedavg_matches_weighted_mean_oracle():
    rng = np.random.default_rng(0)
    updates = [random_update(i, rng, n=int(rng.integers(1, 30))) for i in range(6)]
    out = aggregate_fedavg(updates)
    sizes = np.array([u.n_samples for u in updates], dtype=float)
    wgt = sizes / sizes.sum()
    for l in range(out.num_layers):
        want = sum(w * u.params.weights[l] for w, u in zip(wgt, updates))
        assert np.allclose(out.weights[l], want, rtol=1e-12)


def test_fedavg_empty_rejected():
    with pytest.raises(ValueError):
        aggregate_fedavg([])


# ------------------------------------------------------------ trimmed mean

def test_trimmed_mean_zero_pct_is_plain_mean():
    updates = [scalar_update(i, v) for i, v in enumerate([1.0, 2.0, 6.0])]
    out = aggregate_trimmed_mean(updates, 0.0)
    assert out.weights[0][0, 0] == pytest.approx(3.0, rel=1e-12)


def test_trimmed_mean_hand_sorted_case():
    updates = [scalar_update(i, v) for i, v in enumerate([5.0, 1.0, 3.0, 2.0, 4.0])]
    out = aggregate_trimmed_mean(updates, 20.0)  # m = 1 per side
    assert out.weights[0][0, 0] == pytest.approx(3.0, rel=1e-12)


def test_trimmed_mean_matches_bruteforce_oracle():
    rng = np.random.default_rng(1)
    updates = [random_update(i, rng, sizes=(5, 10)) for i in range(7)]
    out = aggregate_trimmed_mean(updates, 20.0)  # m = floor(1.4) = 1
    stacked = np.stack([u.params.weights[0] for u in updates])
    c = 7
    for idx in np.ndindex(stacked.shape[1:]):
        vals = sorted(stacked[(slice(None),) + idx])
        kept = vals[1:c - 1]
        s = 0.0
        for v in kept:
            s += v
        assert out.weights[0][idx] == s / len(kept)


def test_trimmed_mean_overtrim_rejected():
    # pct < 50 guarantees 2m < C, so the boundary lives at the pct check
    updates = [scalar_update(i, float(i)) for i in range(4)]
    with pytest.raises(ValueError):
        aggregate_trimmed_mean(updates, 50.0)
    out = aggregate_trimmed_mean(updates, 49.0)  # m = 1, keeps the middle two
    assert out.weights[0][0, 0] == pytest.approx(1.5, rel=1e-12)


# trim_pct / 100 * c rounds below the integer in each of these
@pytest.mark.parametrize("pct, c, m", [(29.0, 100, 29), (29.0, 200, 58),
                                       (35.0, 180, 63)])
def test_trimmed_mean_trims_floor_of_pct_of_clients(pct, c, m):
    updates = [scalar_update(i, float(i * i)) for i in range(c)]
    out = aggregate_trimmed_mean(updates, pct)
    assert out.weights[0][0, 0] == pytest.approx(
        np.mean(np.arange(m, c - m) ** 2.0), rel=1e-12)


def test_trimmed_mean_invalid_pct():
    with pytest.raises(ValueError):
        aggregate_trimmed_mean([scalar_update(0, 1.0)], -1.0)


# ------------------------------------------------------- reliability scores

def test_reliability_zero_divergence_zero_q():
    g = scalar_params(2.0)
    update = ClientUpdate(0, scalar_params(2.0), 5.0, 10)
    scores = reliability_scores([update], g)
    assert scores.q[0] == 0.0
    assert scores.divergence[0] == 0.0


def test_reliability_hand_arithmetic():
    g = scalar_params(0.0)
    # distance^2 = 2 via weight sqrt(2); h = 3; n = 6 -> q = 1
    update = ClientUpdate(0, scalar_params(np.sqrt(2.0)), 3.0, 6)
    scores = reliability_scores([update], g)
    assert scores.q[0] == pytest.approx(1.0, rel=1e-12)


def test_reliability_requires_positive_sample_count():
    g = scalar_params(0.0)
    with pytest.raises(ValueError):
        reliability_scores([ClientUpdate(0, scalar_params(1.0), 1.0, 0)], g)


# ---------------------------------------------------------------- detection

def test_detect_all_equal_scores_flags_nothing():
    noisy = detect_noisy(scores_from([1.0] * 10), beta=0.6)
    assert noisy == set()
    assert set(range(10)) - noisy == set(range(10))


def test_detect_hand_computed_outlier():
    q = [1.0] * 9 + [10.0]
    scores = scores_from(q)
    assert scores.mean == pytest.approx(1.9)
    assert scores.std == pytest.approx(2.7)
    noisy = detect_noisy(scores, beta=0.6)
    assert noisy == {9}
    assert set(range(10)) - noisy == set(range(9))


def test_detect_huge_beta_flags_nothing():
    noisy = detect_noisy(scores_from([1.0, 5.0, 2.0, 8.0]), beta=1e12)
    assert noisy == set()


def test_detect_single_client_flags_nothing():
    noisy = detect_noisy(scores_from([3.0]), beta=0.6)
    assert noisy == set() and {0} - noisy == {0}


def test_detect_one_sided():
    rng = np.random.default_rng(5)
    for _ in range(20):
        scores = scores_from(rng.exponential(size=12))
        noisy = detect_noisy(scores, beta=0.1)
        for cid in noisy:
            assert scores.q[cid] > scores.mean


def test_detect_partition_covers_all():
    scores = scores_from([0.1, 0.2, 5.0, 0.15])
    noisy = detect_noisy(scores, beta=0.6)
    assert set(scores.client_ids) == set(range(4))
    assert noisy <= set(scores.client_ids)


# ------------------------------------------------------------- select_s_corr

def history_with_counts(counts, rounds):
    return [{c for c, k in counts.items() if r < k} for r in range(rounds)]


def test_s_corr_always_flagged_included():
    h = history_with_counts({0: 10, 1: 0}, rounds=10)
    assert select_s_corr(h, alpha=0.6, t_corr=10) == {0}


def test_s_corr_never_flagged_excluded():
    h = history_with_counts({0: 0, 1: 0}, rounds=10)
    assert select_s_corr(h, alpha=0.6, t_corr=10) == set()


def test_s_corr_boundary_is_strict():
    h = history_with_counts({0: 6, 1: 7}, rounds=10)
    # count == alpha * t_corr exactly (6 == 0.6*10) is excluded
    assert select_s_corr(h, alpha=0.6, t_corr=10) == {1}


def test_s_corr_short_history_rejected():
    h = history_with_counts({0: 3}, rounds=3)
    with pytest.raises(ValueError):
        select_s_corr(h, alpha=0.6, t_corr=10)


def test_s_corr_subset_of_ever_flagged():
    h = history_with_counts({0: 9, 1: 2, 2: 7}, rounds=10)
    out = select_s_corr(h, alpha=0.6, t_corr=10)
    assert out <= {0, 1, 2}
    assert out == {0, 2}


# ---------------------------------------------------------------- penalty

def test_penalty_clean_client_is_one():
    assert penalty_m(0, 5, set(), tau=50.0, t_k=10) == 1.0
    assert penalty_m(0, 500, {1, 2}, tau=50.0, t_k=10) == 1.0


def test_penalty_saturates_at_tau():
    assert penalty_m(0, 10, {0}, tau=50.0, t_k=10) == 50.0
    assert penalty_m(0, 99, {0}, tau=50.0, t_k=10) == 50.0


def test_penalty_linear_ramp():
    assert penalty_m(0, 5, {0}, tau=50.0, t_k=10) == 25.0


def test_penalty_nondecreasing():
    vals = [penalty_m(0, t, {0}, tau=50.0, t_k=10) for t in range(1, 30)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert max(vals) == 50.0


# --------------------------------------------------------- layerwise weights

def identical_updates(global_params, n_clients, n=5):
    return [ClientUpdate(i, global_params.copy(), 1.0, n)
            for i in range(n_clients)]


def test_layerwise_uniform_when_all_clean_and_identical():
    g = nn.init_params([3, 4, 2], 0)
    updates = identical_updates(g, 4)
    w = layerwise_weights(updates, layer_div(g, updates), set(), 1,
                          ServerConfig())
    assert np.allclose(w, 0.25, atol=1e-12)


def test_layerwise_rows_sum_to_one():
    rng = np.random.default_rng(2)
    g = nn.init_params([3, 4, 2], 1)
    updates = [random_update(i, rng, n=int(rng.integers(1, 50))) for i in range(6)]
    w = layerwise_weights(updates, layer_div(g, updates), {1, 4}, 7,
                          ServerConfig())
    assert np.abs(w.sum(axis=1) - 1.0).max() < 1e-9
    assert (w > 0).all()


def test_layerwise_divisor_penalty_ratio():
    g = nn.init_params([3, 4, 2], 3)
    updates = identical_updates(g, 2)  # equal N, d = 1 everywhere
    cfg = ServerConfig(tau=50.0, t_k=10)
    # T >= T_k
    w = layerwise_weights(updates, layer_div(g, updates), {1}, 10, cfg)
    for l in range(w.shape[0]):
        assert w[l, 1] / w[l, 0] == pytest.approx(1 / 50, rel=1e-12)


def test_layerwise_flagging_strictly_decreases_weight():
    rng = np.random.default_rng(3)
    g = nn.init_params([3, 4, 2], 4)
    updates = [random_update(i, rng, n=7) for i in range(5)]
    cfg = ServerConfig()
    w_clean = layerwise_weights(updates, layer_div(g, updates), set(), 5, cfg)
    w_flag = layerwise_weights(updates, layer_div(g, updates), {2}, 5, cfg)
    assert (w_flag[:, 2] < w_clean[:, 2]).all()


def test_layerwise_scale_invariance():
    rng = np.random.default_rng(4)
    g = nn.init_params([3, 4, 2], 5)
    updates = [random_update(i, rng, n=3) for i in range(4)]
    scaled = [ClientUpdate(u.client_id, u.params, u.h, u.n_samples * 13)
              for u in updates]
    cfg = ServerConfig()
    w1 = layerwise_weights(updates, layer_div(g, updates), {0}, 3, cfg)
    w2 = layerwise_weights(scaled, layer_div(g, scaled), {0}, 3, cfg)
    assert np.allclose(w1, w2, rtol=1e-12)


# ------------------------------------------------------- layerwise aggregate

def test_layerwise_uniform_equals_unweighted_fedavg():
    rng = np.random.default_rng(6)
    updates = [random_update(i, rng) for i in range(5)]
    w = np.full((updates[0].params.num_layers, 5), 0.2)
    got = aggregate_layerwise(updates, w)
    want = aggregate_fedavg(updates, unweighted=True)
    for l in range(got.num_layers):
        assert np.allclose(got.weights[l], want.weights[l], rtol=1e-12)
        assert np.allclose(got.biases[l], want.biases[l], rtol=1e-12)


def test_layerwise_concentrated_weight_selects_client():
    rng = np.random.default_rng(7)
    updates = [random_update(i, rng) for i in range(3)]
    w = np.zeros((updates[0].params.num_layers, 3))
    w[:, 1] = 1.0
    got = aggregate_layerwise(updates, w)
    for l in range(got.num_layers):
        assert np.array_equal(got.weights[l], updates[1].params.weights[l])


def test_layerwise_matches_coordinate_loop_oracle():
    rng = np.random.default_rng(8)
    updates = [random_update(i, rng) for i in range(3)]
    n_layers = updates[0].params.num_layers
    raw = rng.random((n_layers, 3))
    w = raw / raw.sum(axis=1, keepdims=True)
    got = aggregate_layerwise(updates, w)
    for l in range(n_layers):
        expect = np.zeros_like(got.weights[l])
        for idx in np.ndindex(expect.shape):
            s = 0.0
            for ci in range(3):
                s += w[l, ci] * updates[ci].params.weights[l][idx]
            expect[idx] = s
        assert np.allclose(got.weights[l], expect, rtol=1e-12, atol=1e-15)


def test_layerwise_rejects_bad_rows():
    rng = np.random.default_rng(9)
    updates = [random_update(i, rng) for i in range(3)]
    w = np.full((updates[0].params.num_layers, 3), 0.5)
    with pytest.raises(ValueError):
        aggregate_layerwise(updates, w)


def test_conservation_under_identical_inputs():
    # floating accumulation allows a few ulps, nothing more
    g = nn.init_params([4, 6, 3], 11)
    updates = identical_updates(g, 20, n=100)
    for out in [aggregate_fedavg(updates),
                aggregate_fedavg(updates, unweighted=True),
                aggregate_trimmed_mean(updates, 20.0),
                aggregate_layerwise(
                    updates, layerwise_weights(updates, layer_div(g, updates),
                                               set(), 1, ServerConfig()))]:
        for l in range(g.num_layers):
            assert np.allclose(out.weights[l], g.weights[l], rtol=1e-12, atol=0)


# ---------------------------------------------------------------- experiment

def tiny_experiment(aggregator, *, rounds=3, clients=4, seed=0, noise=None,
                    workers=1, client_kw=None, partition=None, **server_kw):
    ds = data.make_synthetic(3, 40, 6, 0.6, seed=100)
    test = data.make_synthetic(3, 20, 6, 0.6, seed=101)
    cfg = ServerConfig(aggregator=aggregator, rounds=rounds,
                       num_clients=clients, t_corr=server_kw.pop("t_corr", 60),
                       **server_kw)
    return server.Experiment(
        ds, test,
        partition=partition or PartitionSpec(kind=data.IID),
        noise=noise or NoiseSpec(mode=data.FIXED, rates=[0.0] * clients),
        client_config=ClientConfig(**{"lr": 0.05, "local_epochs": 2,
                                      "batch_size": 16, **(client_kw or {})}),
        server_config=cfg, hidden_dims=(8,), seed=seed, workers=workers)


def test_zero_rounds_returns_empty_and_leaves_model():
    exp = tiny_experiment(server.FEDAVG, rounds=0)
    before = exp.global_params.copy()
    metrics = exp.run()
    assert metrics == []
    assert all(np.array_equal(a, b)
               for a, b in zip(exp.global_params.weights, before.weights))


@pytest.mark.parametrize("aggregator", server.AGGREGATORS)
def test_single_client_round_returns_client_params(aggregator):
    exp = tiny_experiment(aggregator, clients=1, rounds=1)
    from fednoisy.client import Cohort, local_train
    [expected] = local_train(exp.global_params, Cohort((exp.assignments[0],)),
                             exp.dataset, exp.client_config, 1, exp.seed)
    exp.run_round(1)
    new_global = exp.global_params
    for l in range(new_global.num_layers):
        assert np.allclose(new_global.weights[l], expected.params.weights[l],
                           rtol=1e-12)


@pytest.mark.parametrize("aggregator", server.AGGREGATORS)
def test_each_aggregator_records_the_rows_it_applies(aggregator):
    exp = tiny_experiment(aggregator, rounds=2, clients=5,
                          partition=PartitionSpec(kind=data.QUANTITY_SKEW),
                          noise=NoiseSpec(mode=data.FIXED,
                                          rates=[0.0, 1.0, 0.0, 1.0, 0.0]))
    for round_idx in (1, 2):
        m, updates = exp.run_round(round_idx)
        new_global = exp.global_params
        weights = np.array(m.weights)
        assert weights.shape == (new_global.num_layers, 5)
        if aggregator == server.TRIMMED_MEAN:
            want = aggregate_trimmed_mean(updates, exp.config.trim_pct)
            assert (weights == 1 / 5).all()
        else:
            want = aggregate_layerwise(updates, weights)
        if aggregator in (server.FEDAVG, server.FEDPROX):
            assert len({len(a) for a in exp.assignments}) > 1
            assert new_global.flat.tobytes() == \
                aggregate_fedavg(updates).flat.tobytes()
            assert np.array_equal(weights, np.tile(
                server.fedavg_weights(updates, False), (len(weights), 1)))
        assert new_global.flat.tobytes() == want.flat.tobytes()


@pytest.mark.parametrize("aggregator", server.AGGREGATORS)
def test_metric_stream_deterministic(aggregator):
    runs = []
    for _ in range(2):
        exp = tiny_experiment(aggregator, rounds=2, seed=7)
        runs.append(exp.run())
    for m1, m2 in zip(*runs):
        assert m1 == m2  # wall_clock excluded from dataclass comparison


@pytest.mark.parametrize("aggregator, client_kw", [
    *((name, {}) for name in server.AGGREGATORS),
    (server.FED_NCL, {"h_on": H_ON_LOCAL})],
    ids=[*server.AGGREGATORS, "fed_ncl-h_on_local"])
def test_worker_count_does_not_change_results(aggregator, client_kw):
    exps = [tiny_experiment(aggregator, rounds=2, seed=3, workers=w,
                            client_kw=client_kw) for w in (1, 3)]
    m1, m2 = (exp.run() for exp in exps)
    assert m1 == m2
    assert exps[0].global_params.flat.tobytes() == \
        exps[1].global_params.flat.tobytes()


def test_loss_and_grad_runs_once_per_cohort_step(monkeypatch):
    exp = tiny_experiment(server.FEDAVG, clients=6, rounds=1)
    assert {len(a) for a in exp.assignments} == {20}  # 2 steps of 16 an epoch
    calls = []
    real = nn.loss_and_grad

    def counted(params, batch_x, *args, **kwargs):
        calls.append(np.shape(batch_x)[0])
        return real(params, batch_x, *args, **kwargs)

    monkeypatch.setattr(nn, "loss_and_grad", counted)
    exp.run_round(1)
    sizes = [min(client._COHORT, 6 - i) for i in range(0, 6, client._COHORT)]
    assert calls == [k for k in sizes for _ in range(4)]


@pytest.mark.parametrize("workers, cohorts", [
    (1, [(0, 2, 3, 6), (7,), (1, 4, 8), (5,)]),
    (2, [(0, 2, 3), (6, 7), (1, 4), (8,), (5,)]),
])
def test_unequal_shards_train_in_client_order_as_single_clients(workers,
                                                                cohorts):
    from fednoisy.client import Cohort, local_train
    assert client._COHORT == 4   # the cohorts listed above
    exp = tiny_experiment(server.FED_NCL, clients=9, workers=workers)
    rng = np.random.default_rng(4)
    exp.assignments = []
    for cid, n in enumerate([10, 7, 10, 10, 7, 12, 10, 10, 7]):
        idx = rng.choice(len(exp.dataset), size=n, replace=False)
        exp.assignments.append(data.ClientAssignment(
            cid, idx, exp.dataset.labels[idx], rng.integers(0, 3, n)))
    assert [c.client_id for c in exp._cohorts()] == cohorts
    updates = exp._train_clients(2)
    assert [u.client_id for u in updates] == list(range(9))
    for a, u in zip(exp.assignments, updates):
        [want] = local_train(exp.global_params, Cohort((a,)), exp.dataset,
                             exp.client_config, 2, exp.seed)
        assert u.n_samples == len(a)
        assert u.params.flat.tobytes() == want.params.flat.tobytes()
        assert u.h == want.h


@pytest.mark.parametrize("partition, train_on", [
    (PartitionSpec(kind=data.QUANTITY_SKEW, sigma_log=0.3), None),
    (PartitionSpec(kind=data.IID), TRAIN_RELABELED_ONLY),
])
def test_unequal_shards_same_run_at_one_and_two_workers(partition, train_on):
    runs = []
    for workers in (1, 2):
        exp = server.Experiment(
            data.make_synthetic(3, 60, 6, 0.6, seed=200),
            data.make_synthetic(3, 20, 6, 0.6, seed=201),
            partition=partition,
            noise=NoiseSpec(mode=data.FIXED, rates=[0.0, 0.0, 0.0, 1.0, 1.0]),
            client_config=ClientConfig(lr=0.05, local_epochs=2, batch_size=16,
                                       train_on=train_on or "corrected_all"),
            server_config=ServerConfig(aggregator=server.FED_NCL, rounds=4,
                                       num_clients=5, t_corr=2, alpha=0.1,
                                       eta=0.4),
            hidden_dims=(8,), seed=6, workers=workers)
        runs.append((exp.run(), exp.global_params.flat.tobytes(),
                     [len(a) for a in exp.assignments]))
    assert runs[0] == runs[1]
    metrics, _, sizes = runs[0]
    assert len(set(sizes)) > 1   # unequal shards in the last rounds
    assert all(m.client_ids == list(range(5)) for m in metrics)


def dual_experiment(*, clients=5, per_class=14, partition=None, rates=None,
                    epochs=3, batch=4, h_on="global", train_on="corrected_all",
                    t_corr=2, eta=0.5, rounds=4, seed=1, workers=1):
    """A fed_ncl experiment whose small shapes (60-8-3, a few rows a client)
    train on local_train's dual path."""
    return server.Experiment(
        data.make_synthetic(3, per_class, 60, 0.6, seed=200),
        data.make_synthetic(3, 10, 60, 0.6, seed=201),
        partition=partition or PartitionSpec(kind=data.IID),
        noise=NoiseSpec(mode=data.FIXED,
                        rates=rates or [0.0, 1.0, 0.0, 0.0, 1.0]),
        client_config=ClientConfig(lr=0.05, local_epochs=epochs,
                                   batch_size=batch, h_on=h_on,
                                   train_on=train_on),
        server_config=ServerConfig(aggregator=server.FED_NCL, rounds=rounds,
                                   num_clients=clients, t_corr=t_corr,
                                   alpha=0.1, eta=eta),
        hidden_dims=(8,), seed=seed, workers=workers)


def fresh_gram_train(global_params, cohort, *args):
    """``local_train`` making its members' shard Grams for the call."""
    return local_train(global_params, Cohort(cohort.members), *args)


@settings(max_examples=25, deadline=None)
@given(clients=st.integers(2, 6), per_class=st.integers(4, 14),
       skew=st.booleans(), noisy=st.lists(st.booleans(), min_size=6,
                                          max_size=6),
       epochs=st.integers(2, 3), batch=st.integers(2, 5),
       h_on=st.sampled_from(["global", H_ON_LOCAL]),
       train_on=st.sampled_from(["corrected_all", TRAIN_RELABELED_ONLY]),
       t_corr=st.integers(1, 3), eta=st.sampled_from([0.4, 0.7]),
       workers=st.sampled_from([1, 3]), seed=st.integers(0, 2**16))
# dual_experiment's own run, whose client 1 loses rows at t_corr, on every run
@example(clients=5, per_class=14, skew=False,
         noisy=[False, True, False, False, True, False], epochs=3, batch=4,
         h_on=H_ON_LOCAL, train_on=TRAIN_RELABELED_ONLY, t_corr=2, eta=0.5,
         workers=3, seed=1)
@example(clients=5, per_class=14, skew=False,
         noisy=[False, True, False, False, True, False], epochs=3, batch=4,
         h_on="global", train_on=TRAIN_RELABELED_ONLY, t_corr=2, eta=0.5,
         workers=1, seed=1)
def test_kept_shard_grams_equal_grams_made_each_call(
        clients, per_class, skew, noisy, epochs, batch, h_on, train_on,
        t_corr, eta, workers, seed):
    def make():
        return dual_experiment(
            clients=clients, per_class=per_class, epochs=epochs, batch=batch,
            partition=PartitionSpec(kind=data.QUANTITY_SKEW if skew
                                    else data.IID),
            rates=[float(v) for v in noisy[:clients]], h_on=h_on,
            train_on=train_on, t_corr=t_corr, eta=eta, rounds=4, seed=seed,
            workers=workers)

    kept = make()
    assume(min(len(a) for a in kept.assignments) > 0)
    assume(any(c.gram is not None for c in kept._cohorts()))
    fresh = make()
    for round_idx in range(1, 5):
        got = kept.run_round(round_idx)
        with mock.patch.object(server, "local_train", fresh_gram_train):
            want = fresh.run_round(round_idx)
        assert got[0] == want[0]
        for u, v in zip(got[1], want[1], strict=True):
            assert u.client_id == v.client_id
            assert u.params.flat.tobytes() == v.params.flat.tobytes()
            assert u.h == v.h
        assert kept.global_params.flat.tobytes() == \
            fresh.global_params.flat.tobytes()


@pytest.mark.parametrize("train_on, remade", [
    ("corrected_all", set()),
    # at t_corr = 2 client 1 keeps 7 of its 9 rows, while client 3 has all
    # its 8 relabeled and keeps its rows
    (TRAIN_RELABELED_ONLY, {1}),
])
def test_a_shard_gram_is_made_once_per_run_and_again_on_new_rows(
        train_on, remade, monkeypatch):
    exp = dual_experiment(train_on=train_on)
    assert [len(a) for a in exp.assignments] == [9, 9, 8, 8, 8]
    made, real = [], client.shard_grams

    def counted(members, *args):
        if sys._getframe(1).f_code is not client.cut_cohorts.__code__:
            raise AssertionError("local_train made a shard Gram itself")
        made.extend(a.client_id for a in members)
        return real(members, *args)

    monkeypatch.setattr(client, "shard_grams", counted)
    rows = [a.indices for a in exp.assignments]
    built = []
    for round_idx in range(1, 5):
        exp.run_round(round_idx)
        built.append(sorted(made))
        made.clear()
    assert exp.s_corr == {1, 3}
    assert {a.client_id for a, r in zip(exp.assignments, rows)
            if not np.array_equal(a.indices, r)} == remade
    # once per cut: round 1's, and the one after t_corr's correction
    assert built == [[0, 1, 2, 3, 4], [], [0, 1, 2, 3, 4], []]


def test_history_partition_every_round(monkeypatch):
    real, detected = server.detect_noisy, []

    def recording_detect(*args):
        detected.append(real(*args))
        return detected[-1]

    monkeypatch.setattr(server, "detect_noisy", recording_detect)
    exp = tiny_experiment(server.FED_NCL, rounds=3,
                          noise=NoiseSpec(mode=data.FIXED,
                                          rates=[0.0, 0.0, 1.0, 1.0]))
    exp.run()
    assert exp.history == detected
    for noisy in exp.history:
        assert noisy <= set(range(4))
    assert len(exp.history) == 3


def test_label_correction_fires_at_t_corr():
    exp = tiny_experiment(
        server.FED_NCL, rounds=4, t_corr=3, eta=0.0, alpha=0.1,
        noise=NoiseSpec(mode=data.FIXED, rates=[0.0, 0.0, 1.0, 1.0]))
    metrics = exp.run()
    corrected_rounds = [m.round_idx for m in metrics if any(m.corrected)]
    if corrected_rounds:  # detection drives selection; firing only at t_corr
        assert corrected_rounds == [3]
    relabels = [sum(m.n_relabeled) for m in metrics]
    assert all(r == 0 for i, r in enumerate(relabels) if metrics[i].round_idx != 3)


def test_relabeled_only_correction_runs_one_forward_per_client(monkeypatch):
    exp = tiny_experiment(server.FED_NCL, t_corr=2, alpha=0.1, eta=0.4,
                          client_kw={"train_on": TRAIN_RELABELED_ONLY})
    for _ in range(2):
        exp.history.append({1, 3})
    before = {c: exp.assignments[c] for c in (1, 3)}
    preds = {c: nn.predict_confidences(
        exp.global_params, exp.dataset.features[before[c].indices])
        for c in (1, 3)}
    calls = []
    predict = nn.predict_confidences

    def counting(*args):
        calls.append(args)
        return predict(*args)

    monkeypatch.setattr(nn, "predict_confidences", counting)
    relabeled = exp._correct_labels(exp.global_params)
    assert set(relabeled) == exp.s_corr == {1, 3} and len(calls) == 2
    assert any(0 < relabeled[c] < len(before[c]) for c in (1, 3))
    for c in (1, 3):
        labels, conf = preds[c]
        mask = conf > 0.4
        assert relabeled[c] == mask.sum()
        if mask.any():
            assert np.array_equal(exp.assignments[c].indices,
                                  before[c].indices[mask])
            assert np.array_equal(exp.assignments[c].noisy_labels, labels[mask])


def test_baselines_do_not_correct_labels():
    exp = tiny_experiment(
        server.FEDAVG, rounds=4, t_corr=3, eta=0.0, alpha=0.1,
        noise=NoiseSpec(mode=data.FIXED, rates=[0.0, 0.0, 1.0, 1.0]))
    metrics = exp.run()
    assert all(not any(m.corrected) for m in metrics)
    assert exp.s_corr == set()


def test_unknown_aggregator_rejected():
    with pytest.raises(ValueError, match="aggregator"):
        tiny_experiment("krum")


@pytest.mark.parametrize("client_kw, field", [
    ({"h_on": "Global"}, "h_on"),
    ({"train_on": "relabelled_only"}, "train_on"),
    ({"batch_size": 0}, "batch_size")])
def test_misspelt_client_setting_rejected(client_kw, field):
    with pytest.raises(ValueError, match=field):
        tiny_experiment(server.FED_NCL, client_kw=client_kw)


@pytest.mark.parametrize("workers", [0, -1])
def test_fewer_than_one_worker_rejected(workers):
    with pytest.raises(ValueError, match=f"workers.*{workers}"):
        tiny_experiment(server.FEDAVG, workers=workers)


def test_partition_spec_has_no_client_count_or_seed():
    # both are the run's: ServerConfig.num_clients and the master seed
    for key in ("num_clients", "seed"):
        with pytest.raises(TypeError, match=key):
            PartitionSpec(**{key: 5})


PARTITION_DS = data.make_synthetic(3, 40, 6, 0.6, seed=100)


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from([data.IID, data.CLASS_SKEW, data.QUANTITY_SKEW]),
       clients=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_partitions_cover_disjointly_and_experiment_uses_its_count_and_seed(
        kind, clients, seed):
    spec = PartitionSpec(kind=kind)
    parts = data.make_partitions(PARTITION_DS, spec, clients, seed)
    assert [a.client_id for a in parts] == list(range(clients))
    indices = np.concatenate([a.indices for a in parts])
    assert np.array_equal(np.sort(indices), np.arange(len(PARTITION_DS)))
    exp = server.Experiment(
        PARTITION_DS, PARTITION_DS, partition=spec, noise=NoiseSpec(),
        client_config=ClientConfig(),
        server_config=ServerConfig(num_clients=clients), hidden_dims=(4,),
        seed=seed, workers=1)
    assert len(exp.assignments) == clients
    for got, want in zip(exp.assignments, parts):
        assert np.array_equal(got.indices, want.indices)


@pytest.mark.parametrize("kind,kw", [
    ("class_skew", {"p_class": 1.0, "alpha_dir": 0.5}),
    ("quantity_skew", {"sigma_log": 0.3}),
])
def test_non_iid_partitions_run_end_to_end(kind, kw):
    ds = data.make_synthetic(3, 60, 6, 0.6, seed=200)
    test = data.make_synthetic(3, 20, 6, 0.6, seed=201)
    exp = server.Experiment(
        ds, test,
        partition=PartitionSpec(kind=kind, **kw),
        noise=NoiseSpec(mode=data.TRUNC_GAUSS, mean=0.3, std=0.4),
        client_config=ClientConfig(lr=0.05, local_epochs=1, batch_size=16),
        server_config=ServerConfig(aggregator=server.FED_NCL, rounds=2,
                                   num_clients=4),
        hidden_dims=(8,), seed=5, workers=1)
    metrics = exp.run()
    assert len(metrics) == 2
    assert all(0 <= r <= 1 for r in exp.noise_rates)
    sizes = [len(a) for a in exp.assignments]
    assert sum(sizes) == len(ds)
    for m in metrics:
        w = np.array(m.weights)
        assert np.abs(w.sum(axis=1) - 1.0).max() < 1e-9
        assert 0.0 <= m.test_accuracy <= 1.0


# --------------------------------------------------------- precision/recall

def test_precision_recall_basic():
    p, r = detection_precision_recall({2, 3}, [0.0, 0.0, 1.0, 1.0])
    assert (p, r) == (1.0, 1.0)
    p, r = detection_precision_recall({1, 2}, [0.0, 0.0, 1.0, 1.0])
    assert p == 0.5 and r == 0.5
    p, r = detection_precision_recall(set(), [0.0, 0.0])
    assert (p, r) == (1.0, 1.0)


# ----------------------------------------------- properties over random stacks

def stack_updates(models, sizes):
    return [ClientUpdate(c, m, 1.0, n)
            for c, (m, n) in enumerate(zip(models, sizes))]


def assert_within_client_hull(out, models):
    stack = np.stack([m.flat for m in models])
    # a weighted sum may overshoot the extremes by rounding, never by more
    slack = 8 * np.finfo(np.float64).eps * np.abs(stack).max(axis=0)
    assert (out.flat >= stack.min(axis=0) - slack).all()
    assert (out.flat <= stack.max(axis=0) + slack).all()


@settings(max_examples=40, deadline=None)
@given(model_stacks(), st.data())
def test_fedavg_is_layerwise_with_tiled_rows(models, data_):
    sizes = data_.draw(st.lists(st.integers(1, 50), min_size=len(models),
                                max_size=len(models)))
    unweighted = data_.draw(st.booleans())
    updates = stack_updates(models, sizes)
    rows = np.tile(server.fedavg_weights(updates, unweighted),
                   (models[0].num_layers, 1))
    got = aggregate_fedavg(updates, unweighted)
    want = aggregate_layerwise(updates, rows)
    assert got.flat.tobytes() == want.flat.tobytes()
    assert got.shapes == models[0].shapes


@settings(max_examples=40, deadline=None)
@given(model_stacks(), st.data())
def test_aggregates_stay_within_client_hull(models, data_):
    c, n_layers = len(models), models[0].num_layers
    sizes = data_.draw(st.lists(st.integers(1, 50), min_size=c, max_size=c))
    updates = stack_updates(models, sizes)
    raw = np.array(data_.draw(st.lists(
        st.floats(1e-3, 1.0), min_size=n_layers * c, max_size=n_layers * c)))
    rows = raw.reshape(n_layers, c)
    rows /= rows.sum(axis=1, keepdims=True)
    trim = data_.draw(st.floats(0.0, 49.0))
    assert_within_client_hull(aggregate_fedavg(updates), models)
    assert_within_client_hull(aggregate_layerwise(updates, rows), models)
    assert_within_client_hull(aggregate_trimmed_mean(updates, trim), models)


@settings(max_examples=40, deadline=None)
@given(model_stacks(), st.data())
def test_aggregate_layerwise_equals_block_loop_bitwise(models, data_):
    c, n_layers = len(models), models[0].num_layers
    raw = np.array(data_.draw(st.lists(
        st.floats(1e-3, 1.0), min_size=n_layers * c, max_size=n_layers * c)))
    rows = raw.reshape(n_layers, c)
    rows /= rows.sum(axis=1, keepdims=True)
    want = np.zeros_like(models[0].flat)
    for column, m in zip(rows.T, models):
        for w, block in zip(column, m.layer_slices):
            want[block] += w * m.flat[block]
    got = aggregate_layerwise(stack_updates(models, [1] * c), rows)
    assert np.array_equal(got.flat, want)


def draw_weighting(models, data_):
    """Updates over ``models`` (random sizes and h), a flagged subset, a
    round and the default server config."""
    c = len(models)
    sizes = data_.draw(st.lists(st.integers(1, 50), min_size=c, max_size=c))
    h = data_.draw(st.lists(st.floats(1e-3, 100.0), min_size=c, max_size=c))
    updates = [ClientUpdate(i, m, hi, n)
               for i, (m, n, hi) in enumerate(zip(models, sizes, h))]
    flagged = data_.draw(st.sets(st.integers(0, c - 1)))
    return updates, flagged, data_.draw(st.integers(1, 30)), ServerConfig()


@settings(max_examples=40, deadline=None)
@given(model_stacks(), st.data())
def test_layerwise_weights_equal_per_layer_distance_loop_bitwise(models, data_):
    updates, flagged, rnd, cfg = draw_weighting(models, data_)
    g = models[0]
    sizes = np.array([u.n_samples for u in updates], dtype=np.float64)
    m = np.array([penalty_m(u.client_id, rnd, flagged, cfg.tau, cfg.t_k)
                  for u in updates])
    dist = np.array([[nn.layer_sq_distance(g, u.params, l) for u in updates]
                     for l in range(g.num_layers)])
    want = np.zeros((g.num_layers, len(updates)))
    for l in range(g.num_layers):
        d = np.array([1.0 + v for v in dist[l]])
        score = sizes / d / m
        want[l] = score / score.sum()
    # a round passes the distances that reliability_scores recorded
    shared = reliability_scores(updates, g).layer_divergence
    assert np.array_equal(shared, dist)
    assert np.array_equal(
        layerwise_weights(updates, shared, flagged, rnd, cfg), want)


@settings(max_examples=60, deadline=None)
@given(model_stacks(), st.data())
def test_client_order_permutes_weights_and_keeps_flagged_set(models, data_):
    updates, flagged, rnd, cfg = draw_weighting(models, data_)
    g = data_.draw(st.sampled_from(models))
    perm = data_.draw(st.permutations(range(len(updates))))
    shuffled = [updates[i] for i in perm]

    w = layerwise_weights(updates, layer_div(g, updates), flagged, rnd, cfg)
    w_shuffled = layerwise_weights(shuffled, layer_div(g, shuffled), flagged,
                                   rnd, cfg)
    assert np.allclose(w_shuffled, w[:, perm], rtol=1e-12, atol=0)

    beta = data_.draw(st.floats(0.05, 2.0))
    scores = reliability_scores(updates, g)
    threshold = scores.mean + beta * scores.std
    # summing q in another order moves the threshold by ulps; a q that close
    # to it may legitimately flip
    assume(not np.any(np.abs(scores.q - threshold)
                      <= 1e-9 * abs(threshold)))
    assert detect_noisy(reliability_scores(shuffled, g), beta) == \
        detect_noisy(scores, beta)


def assert_close_to_client_scale(got, want, models):
    # summing clients in another order moves a coordinate by ulps of the
    # largest client value there, not of the (possibly cancelled) result
    scale = np.abs(np.stack([m.flat for m in models])).max(axis=0)
    assert (np.abs(got.flat - want.flat) <= 1e-12 * scale).all()


@settings(max_examples=40, deadline=None)
@given(model_stacks(), st.data())
def test_aggregates_invariant_under_client_order(models, data_):
    c, n_layers = len(models), models[0].num_layers
    sizes = data_.draw(st.lists(st.integers(1, 50), min_size=c, max_size=c))
    raw = np.array(data_.draw(st.lists(
        st.floats(1e-3, 1.0), min_size=n_layers * c, max_size=n_layers * c)))
    rows = raw.reshape(n_layers, c)
    rows /= rows.sum(axis=1, keepdims=True)
    trim = data_.draw(st.floats(0.0, 49.0))
    unweighted = data_.draw(st.booleans())
    perm = data_.draw(st.permutations(range(c)))
    updates = stack_updates(models, sizes)
    shuffled = [updates[i] for i in perm]

    assert_close_to_client_scale(aggregate_fedavg(shuffled, unweighted),
                                 aggregate_fedavg(updates, unweighted), models)
    assert_close_to_client_scale(aggregate_trimmed_mean(shuffled, trim),
                                 aggregate_trimmed_mean(updates, trim), models)
    assert_close_to_client_scale(aggregate_layerwise(shuffled, rows[:, perm]),
                                 aggregate_layerwise(updates, rows), models)


@settings(max_examples=60, deadline=None)
@given(model_stacks(), st.floats(1e-6, 1e6), st.floats(0.05, 2.0), st.data())
def test_detect_noisy_invariant_under_q_scaling(models, factor, beta, data_):
    g = data_.draw(st.sampled_from(models))
    q = reliability_scores(stack_updates(models, [1] * len(models)), g).q
    scores = scores_from(q)
    threshold = scores.mean + beta * scores.std
    # scaling rounds q, its mean and its std by ulps; a q that close to the
    # threshold may legitimately flip
    assume(not np.any(np.abs(q - threshold) <= 1e-9 * abs(threshold)))
    assert detect_noisy(scores_from(factor * q), beta) == \
        detect_noisy(scores, beta)


@settings(max_examples=60, deadline=None)
@given(model_stacks(), st.data())
def test_layerwise_weight_rows_sum_to_one(models, data_):
    updates, flagged, rnd, cfg = draw_weighting(models, data_)
    g = data_.draw(st.sampled_from(models))
    w = layerwise_weights(updates, layer_div(g, updates), flagged, rnd, cfg)
    assert (w >= 0).all()
    assert np.abs(w.sum(axis=1) - 1.0).max() <= ROW_SUM_TOL


@settings(max_examples=60, deadline=None)
@given(model_stacks(), st.floats(1.0, 1e6), st.floats(1.0, 1e6), st.data())
def test_divisor_penalty_growth_never_raises_a_flagged_weight(models, tau_a,
                                                              tau_b, data_):
    updates, flagged, rnd, _ = draw_weighting(models, data_)
    flagged = flagged or {0}
    g = data_.draw(st.sampled_from(models))
    low, high = sorted((tau_a, tau_b))
    w_low = layerwise_weights(updates, layer_div(g, updates), flagged, rnd,
                              ServerConfig(tau=low))
    w_high = layerwise_weights(updates, layer_div(g, updates), flagged, rnd,
                               ServerConfig(tau=high))
    cols = sorted(flagged)
    # every flagged score is divided by the same larger penalty; when all
    # clients are flagged the shares stay put, up to the rounding of the sum
    assert (w_high[:, cols] <= w_low[:, cols] * (1 + 1e-12)).all()


@settings(max_examples=40, deadline=None)
@given(model_stacks(), st.data())
def test_trimmed_mean_at_zero_pct_is_unweighted_fedavg(models, data_):
    sizes = data_.draw(st.lists(st.integers(1, 50), min_size=len(models),
                                max_size=len(models)))
    updates = stack_updates(models, sizes)
    assert_close_to_client_scale(aggregate_trimmed_mean(updates, 0.0),
                                 aggregate_fedavg(updates, unweighted=True),
                                 models)

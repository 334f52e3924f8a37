"""Round orchestration and the four aggregators.

Detection identifies noisy clients from the distribution of reliability
scores (model divergence times normalized data-quality loss); the
noise-robust aggregator then builds a separate weight row per layer that
penalizes flagged clients, and after a warm-up horizon the persistently
flagged clients get their labels corrected by the global model.

The penalty enters as a divisor on a client's base score (w ∝ N/(m·d)), so a
flagged client's influence shrinks by up to the cap.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import nn
from .analysis import RoundMetrics, evaluate_accuracy, weight_divergence
# correction_mask is re-exported next to apply_label_correction, which calls it
from .client import (ClientConfig, ClientUpdate, Cohort,  # noqa: F401
                     apply_label_correction, correction_mask, cut_cohorts,
                     local_train)
from .data import (ClientAssignment, LabeledDataset, NoiseSpec, PartitionSpec,
                   apply_symmetric_noise, make_partitions,
                   sample_client_noise_rates)
from .errors import ShapeError, require

FEDAVG = "fedavg"
TRIMMED_MEAN = "trimmed_mean"
FEDPROX = "fedprox"
FED_NCL = "fed_ncl"
AGGREGATORS = (FEDAVG, TRIMMED_MEAN, FEDPROX, FED_NCL)

ROW_SUM_TOL = 1e-9


@dataclass(frozen=True)
class ServerConfig:
    """Aggregation and detection hyperparameters (defaults per the protocol)."""

    aggregator: str = FED_NCL
    trim_pct: float = 10.0     # per-side trim percentage for trimmed mean
    beta: float = 0.6          # detection threshold in std units
    tau: float = 50.0          # penalty cap
    t_k: int = 10              # rounds until the penalty ramps to tau
    alpha: float = 0.6         # correction quorum fraction
    t_corr: int = 60           # round at which label correction triggers
    eta: float = 0.8           # relabeling confidence threshold
    rounds: int = 150
    num_clients: int = 20

    def __post_init__(self):
        require(self.aggregator in AGGREGATORS, "aggregator",
                f"must be one of {', '.join(AGGREGATORS)}")
        require(0 <= self.trim_pct < 50, "trim_pct", "must be in [0, 50)")
        require(self.beta > 0, "beta", "must be > 0")
        require(self.tau >= 1, "tau", "must be >= 1")
        require(self.t_k >= 1, "t_k", "must be >= 1")
        require(0 < self.alpha < 1, "alpha", "must be in (0, 1)")
        require(self.t_corr >= 1, "t_corr", "must be >= 1")
        require(0 <= self.eta <= 1, "eta", "must be in [0, 1]")
        require(self.rounds >= 0, "rounds", "must be >= 0")
        require(self.num_clients >= 1, "num_clients", "must be >= 1")


@dataclass
class ReliabilityScores:
    """Per-client q values for one round plus their population statistics."""

    client_ids: list[int]
    q: np.ndarray
    divergence: np.ndarray     # e per client, kept for diagnostics
    mean: float
    std: float
    # (L, C) per-layer squared distances to the global model, from the same
    # pass as ``divergence``; layerwise_weights takes them from here
    layer_divergence: np.ndarray


# -------------------------------------------------------------- aggregators

def _common_layout(updates: list[ClientUpdate]) -> nn.ModelParams:
    """The first client's model, once every client's layer shapes match it."""
    first = updates[0]
    for u in updates:
        if u.params.shapes != first.params.shapes:
            raise ShapeError(f"client {u.client_id} layer shapes "
                             f"{u.params.shapes} differ from client "
                             f"{first.client_id}'s {first.params.shapes}")
    return first.params


def fedavg_weights(updates: list[ClientUpdate]) -> np.ndarray:
    sizes = np.array([u.n_samples for u in updates], dtype=np.float64)
    total = sizes.sum()
    if total == 0:
        raise ValueError(f"clients {[u.client_id for u in updates]} hold no "
                         "samples; FedAvg weights by sample count")
    return sizes / total


def aggregate_fedavg(updates: list[ClientUpdate]) -> nn.ModelParams:
    """Coordinate-wise mean weighted by sample counts: layer-wise
    aggregation with the same row for every layer."""
    if not updates:
        raise ValueError("no updates to aggregate")
    row = fedavg_weights(updates)
    return aggregate_layerwise(
        updates, np.tile(row, (updates[0].params.num_layers, 1)))


def aggregate_trimmed_mean(updates: list[ClientUpdate],
                           trim_pct: float) -> nn.ModelParams:
    """Per coordinate: sort client values, drop trim_pct% per side, average."""
    if not updates:
        raise ValueError("no updates to aggregate")
    if not 0 <= trim_pct < 50:
        raise ValueError("trim_pct must be in [0, 50)")
    c = len(updates)
    m = math.floor(trim_pct * c / 100)
    if 2 * m >= c:
        raise ValueError(f"trimming {m} per side leaves no clients out of {c}")
    first = _common_layout(updates)
    stack = np.sort(np.stack([u.params.flat for u in updates]), axis=0)
    return nn.ModelParams.from_flat(stack[m:c - m].mean(axis=0), first.shapes)


# ---------------------------------------------------------------- detection

def reliability_scores(updates: list[ClientUpdate],
                       global_params: nn.ModelParams) -> ReliabilityScores:
    """q_c = ||theta_G - theta_c||^2 * h_c / n_c, with population mean/std."""
    if not updates:
        raise ValueError("no updates to score")
    if any(u.n_samples <= 0 for u in updates):
        raise ValueError("updates must carry positive sample counts")
    e, layers = weight_divergence(global_params, [u.params for u in updates])
    h_per_sample = np.array([u.h / u.n_samples for u in updates])
    q = e * h_per_sample
    return ReliabilityScores([u.client_id for u in updates], q, e,
                             float(q.mean()), float(q.std()), layers)


def detect_noisy(scores: ReliabilityScores, beta: float) -> set[int]:
    """Flag clients whose q exceeds the mean by more than beta std-devs.

    One-sided: only high scores flag. With identical scores (or one client)
    the deviation is exactly zero, so nothing flags.
    """
    q = scores.q
    if q.size < 2 or np.ptp(q) == 0.0:
        return set()
    return {cid for cid, v in zip(scores.client_ids, q)
            if v - scores.mean > beta * scores.std}


def select_s_corr(history: list[set[int]], alpha: float,
                  t_corr: int) -> set[int]:
    """Clients flagged in strictly more than alpha * t_corr of the first
    t_corr rounds of ``history``, the per-round flagged sets."""
    if len(history) < t_corr:
        raise ValueError(f"history covers {len(history)} rounds, need {t_corr}")
    counts = Counter(c for flagged in history[:t_corr] for c in flagged)
    return {c for c, n in counts.items() if n > alpha * t_corr}


def penalty_m(client_id: int, round_idx: int, flagged_now: set[int],
              tau: float, t_k: int) -> float:
    """Time-ramped penalty factor: 1 for clean clients, min(T/T_k * tau, tau)
    for flagged ones."""
    if round_idx < 1:
        raise ValueError("rounds are 1-based")
    if client_id not in flagged_now:
        return 1.0
    return min(round_idx / t_k * tau, tau)


# ------------------------------------------------------ layer-wise weighting

def layerwise_weights(updates: list[ClientUpdate], layer_divergence: np.ndarray,
                      flagged_now: set[int], round_idx: int,
                      config: ServerConfig) -> np.ndarray:
    """L x C weight matrix: per layer, normalize N^c scores discounted by the
    layer distance d = 1 + ||theta_l^G - theta_l^c||^2 and the penalty m,
    w ∝ N/(m·d), so flagged clients shrink.

    ``layer_divergence`` is the (L, C) matrix of squared layer distances to
    the global model that ``reliability_scores`` records.
    """
    sizes = np.array([u.n_samples for u in updates], dtype=np.float64)
    penalties = np.array([
        penalty_m(u.client_id, round_idx, flagged_now, config.tau, config.t_k)
        for u in updates])
    d = 1.0 + layer_divergence
    score = sizes / d / penalties
    return score / score.sum(axis=1, keepdims=True)


def aggregate_layerwise(updates: list[ClientUpdate],
                        weights: np.ndarray) -> nn.ModelParams:
    """Build each global layer as its own weighted average over clients.

    Every weight must be finite and >= 0, and every layer row must sum to 1.
    """
    if not updates:
        raise ValueError("no updates to aggregate")
    first = _common_layout(updates)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (first.num_layers, len(updates)):
        raise ShapeError(
            f"weight matrix {weights.shape} does not match "
            f"{first.num_layers} layers x {len(updates)} clients")
    bad = ~(np.isfinite(weights) & (weights >= 0))
    if bad.any():
        l, c = np.argwhere(bad)[0]
        raise ValueError(f"layer {l} weight of client {updates[c].client_id} "
                         f"is {weights[l, c]}; weights must be finite and >= 0")
    if np.abs(weights.sum(axis=1) - 1.0).max() > ROW_SUM_TOL:
        raise ValueError("every layer row must sum to 1")
    out = np.zeros_like(first.flat)
    scaled = np.empty_like(first.flat)
    for column, u in zip(weights.T, updates):
        for w, block in zip(column, first.layer_slices):
            np.multiply(u.params.flat[block], w, out=scaled[block])
        out += scaled
    return nn.ModelParams.from_flat(out, first.shapes)


# ---------------------------------------------------------------- experiment

class Experiment:
    """Owns the global model, client assignments, and detection history.

    Construction partitions the dataset, samples per-client noise rates from
    the noise spec, and injects label flips; ``run`` then executes the
    configured number of rounds. Everything derives from the master seed, so
    identical configurations reproduce bit-identical metric streams at any
    worker count.
    """

    def __init__(self, dataset: LabeledDataset, test_set: LabeledDataset, *,
                 partition: PartitionSpec, noise: NoiseSpec,
                 client_config: ClientConfig, server_config: ServerConfig,
                 hidden_dims, seed: int, workers: int):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.dataset = dataset
        self.test_set = test_set
        self.client_config = client_config
        self.config = server_config
        self.seed = seed
        self.workers = workers

        c = server_config.num_clients
        assignments = make_partitions(dataset, partition, c, seed)
        self.noise_rates = sample_client_noise_rates(noise, c, (seed, 1))
        self.assignments = [
            apply_symmetric_noise(a, float(rate), dataset.num_classes,
                                  (seed, 2, a.client_id))
            for a, rate in zip(assignments, self.noise_rates)]

        sizes = [dataset.dim, *hidden_dims, dataset.num_classes]
        self.global_params = nn.init_params(sizes, (seed, 0))
        self.history: list[set[int]] = []   # each round's flagged set
        self.s_corr: set[int] = set()
        self.metrics: list[RoundMetrics] = []
        # the cohorts and the assignments they were cut from
        self._cut: list[Cohort] = []
        self._cut_from: list[ClientAssignment] = []

    # -- round pieces ------------------------------------------------------

    def _cohorts(self) -> list[Cohort]:
        """:func:`cut_cohorts` of the assignments, kept until an assignment
        changes (label correction); a new cut makes its shard Grams again."""
        if len(self._cut_from) == len(self.assignments) and all(
                a is b for a, b in zip(self._cut_from, self.assignments)):
            return self._cut
        self._cut = []   # frees the old cut's Grams before the new ones
        self._cut = cut_cohorts(self.assignments, self.dataset,
                                self.global_params.shapes, self.client_config,
                                self.workers)
        self._cut_from = list(self.assignments)
        return self._cut

    def _train_clients(self, round_idx: int) -> list[ClientUpdate]:
        def work(cohort: Cohort) -> list[ClientUpdate]:
            return local_train(self.global_params, cohort, self.dataset,
                               self.client_config, round_idx, self.seed)

        cohorts = self._cohorts()
        if self.workers == 1:
            trained = [work(c) for c in cohorts]
        else:
            with ThreadPoolExecutor(max_workers=self.workers) as pool:
                trained = list(pool.map(work, cohorts))
        by_id = {u.client_id: u for updates in trained for u in updates}
        return [by_id[a.client_id] for a in self.assignments]

    def _aggregate(self, updates: list[ClientUpdate], scores: ReliabilityScores,
                   flagged: set[int], round_idx: int
                   ) -> tuple[nn.ModelParams, np.ndarray]:
        cfg = self.config
        n_layers, c = self.global_params.num_layers, len(updates)
        if cfg.aggregator == TRIMMED_MEAN:
            # no per-client weights; record the nominal 1/C rows
            return (aggregate_trimmed_mean(updates, cfg.trim_pct),
                    np.full((n_layers, c), 1.0 / c))
        if cfg.aggregator == FED_NCL:
            w = layerwise_weights(updates, scores.layer_divergence, flagged,
                                  round_idx, cfg)
        else:  # FedAvg and FedProx: the sample-count row on every layer
            w = np.tile(fedavg_weights(updates), (n_layers, 1))
        return aggregate_layerwise(updates, w), w

    def _correct_labels(self, new_global: nn.ModelParams) -> dict[int, int]:
        """Relabel the clients of ``s_corr``; their relabel counts."""
        cfg = self.config
        self.s_corr = select_s_corr(self.history, cfg.alpha, cfg.t_corr)
        relabeled: dict[int, int] = {}
        for cid in sorted(self.s_corr):
            self.assignments[cid], relabeled[cid] = apply_label_correction(
                self.assignments[cid], new_global, self.dataset, cfg.eta,
                self.client_config.train_on)
        return relabeled

    def run_round(self, round_idx: int) -> tuple[RoundMetrics, list[ClientUpdate]]:
        """One full round: train, score, detect, aggregate, maybe correct.
        Returns the round's metrics and client updates; the new global model
        is ``global_params``."""
        t0 = time.perf_counter()
        cfg = self.config
        updates = self._train_clients(round_idx)
        scores = reliability_scores(updates, self.global_params)
        noisy = detect_noisy(scores, cfg.beta)
        self.history.append(noisy)

        new_global, weight_matrix = self._aggregate(updates, scores, noisy,
                                                    round_idx)

        relabeled: dict[int, int] = {}   # by corrected client
        if cfg.aggregator == FED_NCL and round_idx == cfg.t_corr:
            relabeled = self._correct_labels(new_global)

        metrics = RoundMetrics(
            round_idx=round_idx,
            test_accuracy=evaluate_accuracy(new_global, self.test_set),
            client_ids=[u.client_id for u in updates],
            divergence=[float(v) for v in scores.divergence],
            reliability=[float(v) for v in scores.q],
            flagged=[u.client_id in noisy for u in updates],
            corrected=[u.client_id in relabeled for u in updates],
            n_relabeled=[relabeled.get(u.client_id, 0) for u in updates],
            weights=[[float(v) for v in row] for row in weight_matrix],
            wall_clock=time.perf_counter() - t0)
        self.global_params = new_global
        self.metrics.append(metrics)
        return metrics, updates

    def run(self) -> list[RoundMetrics]:
        for round_idx in range(1, self.config.rounds + 1):
            self.run_round(round_idx)
        return self.metrics


def detection_precision_recall(flagged: set[int],
                               noise_rates) -> tuple[float, float]:
    """Precision/recall of a flag set against ground-truth rates (> 0 = noisy).

    Empty denominators count as perfect (nothing to get wrong).
    """
    truly_noisy = {c for c, r in enumerate(np.asarray(noise_rates)) if r > 0}
    if flagged:
        precision = len(flagged & truly_noisy) / len(flagged)
    else:
        precision = 1.0
    if truly_noisy:
        recall = len(flagged & truly_noisy) / len(truly_noisy)
    else:
        recall = 1.0
    return precision, recall

"""Simulated client: local SGD (optionally proximal), data-quality loss,
and label-correction application.

Clients with equal shard sizes train in lockstep as a ``Cohort``, one
stacked step per batch position. A client never mutates the global
parameters it receives; any number of clients or cohorts may train
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import nn
from .data import ClientAssignment, LabeledDataset
from .errors import NonFiniteLogits, NumericError, require

H_ON_GLOBAL = "global"
H_ON_LOCAL = "local"
TRAIN_CORRECTED_ALL = "corrected_all"
TRAIN_RELABELED_ONLY = "relabeled_only"

# most clients one local_train call trains in lockstep. Measured per round
# against one client per call, 4 took ~17% off both the desk protocol and
# crowd on the primal path. With the desk protocol on the dual path, cohorts
# of 10 or 20 there and of 10 or 25 on crowd were no faster than 4, and held
# 3-12 MB more peak RSS
_COHORT = 4


@dataclass(frozen=True)
class ClientConfig:
    """Local-training knobs.

    ``prox_mu`` > 0 adds the proximal pull toward the received global model
    (FedProx); ``h_on`` picks which parameters evaluate the data-quality
    loss: the received global model (default) or the freshly trained local
    one.
    """

    lr: float = 0.01
    local_epochs: int = 10
    batch_size: int = 60
    prox_mu: float = 0.0
    h_on: str = H_ON_GLOBAL
    train_on: str = TRAIN_CORRECTED_ALL

    def __post_init__(self):
        require(self.lr > 0, "lr", "must be > 0")
        require(self.local_epochs >= 1, "local_epochs", "must be >= 1")
        require(self.batch_size >= 1, "batch_size", "must be >= 1")
        require(self.prox_mu >= 0, "prox_mu", "must be >= 0")
        require(self.h_on in (H_ON_GLOBAL, H_ON_LOCAL), "h_on",
                "must be 'global' or 'local'")
        require(self.train_on in (TRAIN_CORRECTED_ALL, TRAIN_RELABELED_ONLY),
                "train_on", "must be 'corrected_all' or 'relabeled_only'")


@dataclass
class ClientUpdate:
    """One client's round output."""

    client_id: int
    params: nn.ModelParams
    h: float              # summed cross-entropy of local (feature, label) pairs
    n_samples: int


def data_quality_loss(eval_params: nn.ModelParams, assignment: ClientAssignment,
                      dataset: LabeledDataset) -> float:
    """Summed cross-entropy of the client's training pairs under eval_params.

    The caller normalizes by the sample count inside the reliability score.
    """
    if len(assignment) == 0:
        raise ValueError("assignment is empty")
    x = dataset.features[assignment.indices]
    mean_loss = nn.cross_entropy(eval_params, x, assignment.noisy_labels)[0]
    return mean_loss * len(assignment)


@dataclass(frozen=True)
class Cohort:
    """Clients with equal shard sizes, which ``local_train`` trains in
    lockstep. ``client_id`` is the tuple of member ids, in member order.

    ``gram``, when given, holds the members' :func:`shard_grams`, which the
    dual path reads instead of making K for the call.
    """

    members: tuple[ClientAssignment, ...]
    gram: np.ndarray | None = None

    @property
    def client_id(self) -> tuple[int, ...]:
        return tuple(a.client_id for a in self.members)


def shard_grams(members, dataset: LabeledDataset) -> np.ndarray:
    """K = X·Xᵀ of each member's shard X (n × d), the dual path's Grams, as
    one (k, n, n) block."""
    n = len(members[0])
    gram = np.empty((len(members), n, n))
    for a, gram_c in zip(members, gram):
        x = dataset.features[a.indices]
        np.matmul(x, x.swapaxes(-1, -2), out=gram_c)
    return gram


def cut_cohorts(assignments, dataset: LabeledDataset, shapes,
                config: ClientConfig, workers: int) -> list[Cohort]:
    """The clients grouped by shard size in client order, each group cut
    into cohorts of at most ``_COHORT``, or fewer so that every worker gets
    one.

    A group that trains on the dual path has its members' shard Grams made
    in one (C_s, n, n) block, and each of its cohorts carries the view of
    its run of members.
    """
    groups: dict[int, list[ClientAssignment]] = {}
    for a in assignments:
        groups.setdefault(len(a), []).append(a)
    cohorts = []
    for n, group in groups.items():
        step = min(_COHORT, math.ceil(len(group) / workers))
        gram = (shard_grams(group, dataset)
                if takes_dual_path(n, shapes, config) else None)
        cohorts += [Cohort(tuple(group[i:i + step]),
                           None if gram is None else gram[i:i + step])
                    for i in range(0, len(group), step)]
    return cohorts


def takes_dual_path(n: int, shapes, config: ClientConfig) -> bool:
    """Whether ``local_train`` trains a cohort of ``n``-row shards under
    layer shapes ``shapes`` on its dual path.

    Each step's layer-0 weight gradient dL/dz0ᵀ·x lies in the row space of
    the member's shard X (n × d), so layer 0 stays W0 − AᵀX, W0 the received
    weights and A an (n × h) coefficient block. A step then needs only rows
    of Z0 = X·W0ᵀ, made once per call, and of K = X·Xᵀ, which depends on
    the shard alone (``Cohort.gram`` keeps it across calls). The dual path is
    taken when the cohort steps more than once, when its layer-0
    multiply-adds (n²·d for K, 2·n·d·h for Z0 and the final W0, and
    epochs·n²·h for the steps' K·A) are fewer than the primal path's two
    GEMMs a step (2·epochs·n·d·h), and when n² ≤ P, so that one member's K
    is no larger than its model.
    """
    (h, d), epochs = shapes[0], config.local_epochs
    steps = epochs * -(-n // config.batch_size)
    dual = n * n * d + 2 * n * d * h + epochs * n * n * h
    size = sum(o * i + o for o, i in shapes)
    return steps > 1 and dual < 2 * epochs * n * d * h and n * n <= size


def local_train(global_params: nn.ModelParams, cohort: Cohort,
                dataset: LabeledDataset, config: ClientConfig, round_idx: int,
                seed: int) -> list[ClientUpdate]:
    """Mini-batch SGD on each member's (features, noisy_labels) shard.

    Returns the cohort's k updates in member order, each bit for bit what the
    client would get in a cohort of its own. Deterministic given (seed,
    client_id, round_idx) per client. A member that goes non-finite raises
    ``NumericError`` naming the first such member and ``round_idx``.

    The cohort trains in lockstep: each batch position is one stacked step
    over a (k, B, dim) batch and one update of a (k, P) parameter block,
    whose rows are the updates' params. The incoming global parameters are
    never mutated: the first step reads them through a broadcast and writes
    its result into the block, which later steps update in place, with the
    same arithmetic as ``nn.sgd_step``. One gradient block (and, with
    ``prox_mu`` > 0, one scratch block for the proximal term) serves every
    step. A step takes one of two paths, chosen by :func:`takes_dual_path`
    from the sizes alone:

    - primal: ``nn.loss_and_grad`` of the block;
    - dual: layer 0 is kept as W0 − AᵀX, and each step forms the batch's
      pre-activation Z0[o] − K[o]·A + b0 (K from ``cohort.gram``, or made
      for the call when it is None), runs ``nn.head_grad`` on it,
      updates b0 and the later layers as the primal path does, and adds
      lr·dL/dz0 into A's rows ``o`` (after scaling A by 1 − lr·prox_mu). The
      trained W0 − AᵀX is written into the block at the end.

    Each ``h`` is the member's ``data_quality_loss``. With ``h_on`` = local
    they come from one stacked ``nn.cross_entropy`` of the trained block
    over the members' shards. With ``h_on`` = global, the dual path runs the
    received model's head on Z0 + b0, ``data_quality_loss``'s own GEMM, so
    ``h`` keeps its bits. The primal path reuses the first step's forward
    pass of the received model: that batch's row losses, plus one more pass
    over the rest of the first epoch's order, give
    ``data_quality_loss(global_params, ...)`` (bit for bit wherever the BLAS
    rounds a row the same in a smaller batch).
    """
    members = cohort.members
    n = len(members[0])
    for a in members:
        if len(a) == 0:
            raise ValueError(f"client {a.client_id} has no samples")
        if len(a) != n:
            raise ValueError(f"cohort shards differ: client {a.client_id} has "
                             f"{len(a)} samples, client "
                             f"{members[0].client_id} {n}")
    rngs = [np.random.default_rng((seed, a.client_id, round_idx))
            for a in members]
    orders = (np.stack([rng.permutation(n) for rng in rngs])
              for _ in range(config.local_epochs))
    indices = np.stack([a.indices for a in members])
    labels = np.stack([a.noisy_labels for a in members])

    params = nn.ModelParams.from_flat(
        np.empty((len(members), global_params.flat.size)), global_params.shapes)
    grad = nn.ModelParams.from_flat(np.empty_like(params.flat), params.shapes)
    pull = np.empty_like(params.flat) if config.prox_mu > 0 else None
    args = (global_params, params, grad, pull, indices, labels, orders,
            dataset, config)

    def diverged(member: int, what: str) -> NumericError:
        return NumericError(f"client {members[member].client_id} diverged to "
                            f"non-finite {what} in round {round_idx}")

    try:
        if takes_dual_path(n, global_params.shapes, config):
            gram = cohort.gram
            if gram is None:
                gram = shard_grams(members, dataset)
            elif gram.shape != (len(members), n, n):
                raise ValueError(f"cohort gram {gram.shape} does not match "
                                 f"{len(members)} members of {n} rows")
            h = _train_dual(*args, gram)
        else:
            h = _train_primal(*args)
        finite = np.isfinite(params.flat).all(axis=1)
        if not finite.all():
            raise diverged(int(np.argmin(finite)), "parameters")
        if h is None:
            h = nn.cross_entropy(params, dataset.features[indices],
                                 labels)[0] * n
    except NonFiniteLogits as err:
        raise diverged(err.first_slice, "logits") from err

    models = [nn.ModelParams.from_flat(row, params.shapes) for row in params.flat]
    return [ClientUpdate(a.client_id, m, float(h_c), n)
            for a, m, h_c in zip(members, models, h)]


def _sgd_update(current: np.ndarray, received: np.ndarray, grad: np.ndarray,
                out: np.ndarray, pull: np.ndarray | None,
                config: ClientConfig) -> None:
    """out = current - lr * (grad + prox_mu * (current - received)), with
    ``nn.sgd_step``'s arithmetic; overwrites ``grad`` and ``pull``."""
    if pull is not None:
        np.subtract(current, received, out=pull)
        pull *= config.prox_mu
        grad += pull
    np.multiply(grad, config.lr, out=grad)
    np.subtract(current, grad, out=out)


def _train_primal(global_params: nn.ModelParams, params: nn.ModelParams,
                  grad: nn.ModelParams, pull: np.ndarray | None,
                  indices: np.ndarray, labels: np.ndarray, orders,
                  dataset: LabeledDataset,
                  config: ClientConfig) -> np.ndarray | None:
    """Train the (k, P) block ``params`` by stacked ``nn.loss_and_grad``
    steps, through the gradient block ``grad`` and, with ``prox_mu`` > 0,
    the scratch block ``pull``. Returns each member's ``h_on`` = global
    ``h``, else None."""
    k, n = labels.shape
    b = config.batch_size
    cols = np.arange(k)[:, None]
    # the received model's row losses, in the first epoch's order
    h_rows = np.empty((k, n)) if config.h_on == H_ON_GLOBAL else None
    first_rows = None if h_rows is None else h_rows[:, :b]
    current = global_params
    for epoch, order in enumerate(orders):
        idx, y = indices[cols, order], labels[cols, order]
        if epoch == 0:
            first_order, first_idx, first_y = order, idx, y
        for start in range(0, n, b):
            nn.loss_and_grad(current, dataset.features[idx[:, start:start + b]],
                             y[:, start:start + b], out=grad,
                             row_losses=first_rows
                             if current is global_params else None)
            _sgd_update(current.flat, global_params.flat, grad.flat,
                        params.flat, pull, config)
            current = params
    if h_rows is None:
        return None
    if n > b:
        nn.cross_entropy(global_params, dataset.features[first_idx[:, b:]],
                         first_y[:, b:], row_losses=h_rows[:, b:])
    losses = np.empty((k, n))
    losses[cols, first_order] = h_rows
    # data_quality_loss's sum, over each client's rows in assignment order
    return losses.mean(axis=1) * n


def _train_dual(global_params: nn.ModelParams, params: nn.ModelParams,
                grad: nn.ModelParams, pull: np.ndarray | None,
                indices: np.ndarray, labels: np.ndarray, orders,
                dataset: LabeledDataset, config: ClientConfig,
                gram: np.ndarray) -> np.ndarray | None:
    """:func:`_train_primal` with layer 0 kept as W0 − AᵀX over each
    member's shard X (:func:`takes_dual_path`), given the members' shard
    Grams ``gram``; the steps use only the head's part of ``grad`` and
    ``pull``. Writes W0 − AᵀX into the block's layer 0 at the end."""
    k, n = labels.shape
    b, lr = config.batch_size, config.lr
    cols = np.arange(k)[:, None]
    w0 = global_params.weights[0]
    head = slice(w0.size, None)        # b0 and the later layers, in flat
    # one member's (n, d) shard gathered at a time keeps the call's peak
    # memory near the primal path's; Z0's GEMM is data_quality_loss's
    z0 = np.empty((k, n, w0.shape[0]))
    for idx, z0_c in zip(indices, z0):
        np.matmul(dataset.features[idx], w0.swapaxes(-1, -2), out=z0_c)
    coef = np.zeros(z0.shape)
    pull = None if pull is None else pull[:, head]
    current = global_params
    for order in orders:
        y = labels[cols, order]
        for start in range(0, n, b):
            o = order[:, start:start + b]
            activations, _ = nn.forward_head(
                current, z0[cols, o] - gram[cols, o] @ coef
                + current.biases[0][..., None, :])
            _, delta = nn.head_grad(current, activations, y[:, start:start + b],
                                    grad)
            _sgd_update(current.flat[..., head], global_params.flat[head],
                        grad.flat[:, head], params.flat[:, head], pull, config)
            if pull is not None:
                coef *= 1.0 - lr * config.prox_mu
            delta *= lr
            coef[cols, o] += delta
            current = params
    for idx, coef_c, w0_c in zip(indices, coef, params.weights[0]):
        np.matmul(coef_c.swapaxes(-1, -2), dataset.features[idx], out=w0_c)
        # per member: on the whole strided (k, h, d) view, numpy would copy
        # the operand that overlaps its output
        np.subtract(w0, w0_c, out=w0_c)
    if config.h_on != H_ON_GLOBAL:
        return None
    activations, _ = nn.forward_head(global_params,
                                     z0 + global_params.biases[0][..., None, :])
    return nn.softmax_loss(activations[-1], labels)[0] * n


def correction_mask(assignment: ClientAssignment, global_params: nn.ModelParams,
                    dataset: LabeledDataset,
                    eta: float) -> tuple[np.ndarray, np.ndarray]:
    """(predicted labels, confidence > eta mask) for the client's samples."""
    predicted, conf = nn.predict_confidences(
        global_params, dataset.features[assignment.indices])
    return predicted, conf > eta


def apply_label_correction(assignment: ClientAssignment,
                           global_params: nn.ModelParams,
                           dataset: LabeledDataset, eta: float,
                           train_on: str = TRAIN_CORRECTED_ALL
                           ) -> tuple[ClientAssignment, int]:
    """Relabel samples whose global-model confidence strictly exceeds eta.

    Features and true_labels are untouched; idempotent for fixed
    global_params. With ``train_on`` = relabeled_only the corrected
    assignment keeps only the relabeled samples, unless none was relabeled
    (a client must keep at least one sample). Returns the corrected
    assignment and the relabel count.
    """
    if not 0 <= eta <= 1:
        raise ValueError("eta must be in [0, 1]")
    predicted, mask = correction_mask(assignment, global_params, dataset, eta)
    noisy = np.where(mask, predicted, assignment.noisy_labels).astype(np.int64)
    if train_on == TRAIN_RELABELED_ONLY and mask.any():
        corrected = replace(assignment, indices=assignment.indices[mask],
                            true_labels=assignment.true_labels[mask],
                            noisy_labels=noisy[mask])
    else:
        corrected = replace(assignment, noisy_labels=noisy)
    return corrected, int(mask.sum())

"""Simulated client: local SGD (optionally proximal), data-quality loss,
and label-correction application.

Clients with equal shard sizes train in lockstep as a ``Cohort``, one
stacked step per batch position. A client never mutates the global
parameters it receives; any number of clients or cohorts may train
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import nn
from .data import ClientAssignment, LabeledDataset
from .errors import NumericError

H_ON_GLOBAL = "global"
H_ON_LOCAL = "local"
TRAIN_CORRECTED_ALL = "corrected_all"
TRAIN_RELABELED_ONLY = "relabeled_only"


@dataclass
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
    lockstep. ``client_id`` is the tuple of member ids, in member order."""

    members: tuple[ClientAssignment, ...]

    @property
    def client_id(self) -> tuple[int, ...]:
        return tuple(a.client_id for a in self.members)


def local_train(global_params: nn.ModelParams, cohort: Cohort,
                dataset: LabeledDataset, config: ClientConfig, round_idx: int,
                seed: int) -> list[ClientUpdate]:
    """Mini-batch SGD on each member's (features, noisy_labels) shard.

    Returns the cohort's k updates in member order, each bit for bit what the
    client would get in a cohort of its own. Deterministic given (seed,
    client_id, round_idx) per client.

    The cohort trains in lockstep: each batch position is one stacked
    ``nn.loss_and_grad`` over a (k, B, dim) batch and one update of a
    (k, P) parameter block, whose rows are the updates' params. The
    incoming global parameters are never mutated: the first step reads them
    through a broadcast and writes its result into the block, which later
    steps update in place, with the same arithmetic as ``nn.sgd_step``. One
    gradient block (and, with ``prox_mu`` > 0, one scratch block for the
    proximal term) serves every step.

    Each ``h`` is the member's ``data_quality_loss``. With ``h_on`` = local
    they come from one stacked ``nn.cross_entropy`` of the trained block
    over the members' shards. With ``h_on`` = global, ``h`` reuses the first
    step's forward pass of the received model: that batch's row losses, plus
    one more pass over the rest of the first epoch's order, give
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
    if config.local_epochs < 1:
        raise ValueError("local_epochs must be >= 1")
    k, b = len(members), config.batch_size
    rngs = [np.random.default_rng((seed, a.client_id, round_idx))
            for a in members]
    indices = np.stack([a.indices for a in members])
    labels = np.stack([a.noisy_labels for a in members])
    cols = np.arange(k)[:, None]

    params = nn.ModelParams.from_flat(np.empty((k, global_params.flat.size)),
                                      global_params.shapes)
    grad = nn.ModelParams.from_flat(np.empty_like(params.flat), params.shapes)
    pull = np.empty_like(params.flat) if config.prox_mu > 0 else None
    # the received model's row losses, in the first epoch's order
    h_rows = np.empty((k, n)) if config.h_on == H_ON_GLOBAL else None
    first_rows = None if h_rows is None else h_rows[:, :b]
    current = global_params
    for epoch in range(config.local_epochs):
        order = np.stack([rng.permutation(n) for rng in rngs])
        idx, y = indices[cols, order], labels[cols, order]
        if epoch == 0:
            first_order, first_idx, first_y = order, idx, y
        for start in range(0, n, b):
            nn.loss_and_grad(current, dataset.features[idx[:, start:start + b]],
                             y[:, start:start + b], out=grad,
                             row_losses=first_rows
                             if current is global_params else None)
            if pull is not None:
                np.subtract(current.flat, global_params.flat, out=pull)
                pull *= config.prox_mu
                grad.flat += pull
            np.multiply(grad.flat, config.lr, out=grad.flat)
            np.subtract(current.flat, grad.flat, out=params.flat)
            current = params

    finite = np.isfinite(params.flat).all(axis=1)
    if not finite.all():
        bad = members[int(np.argmin(finite))]
        raise NumericError(
            f"client {bad.client_id} diverged to non-finite parameters")

    models = [nn.ModelParams.from_flat(row, params.shapes) for row in params.flat]
    if h_rows is None:
        h = nn.cross_entropy(params, dataset.features[indices], labels)[0] * n
    else:
        if n > b:
            nn.cross_entropy(global_params, dataset.features[first_idx[:, b:]],
                             first_y[:, b:], row_losses=h_rows[:, b:])
        losses = np.empty((k, n))
        losses[cols, first_order] = h_rows
        # data_quality_loss's sum, over each client's rows in assignment order
        h = losses.mean(axis=1) * n
    return [ClientUpdate(a.client_id, m, float(h_c), n)
            for a, m, h_c in zip(members, models, h)]


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

"""Simulated client: local SGD (optionally proximal), data-quality loss,
and label-correction application.

A client never mutates the global parameters it receives; any number of
clients may train concurrently.
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
    round_idx: int


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


def local_train(global_params: nn.ModelParams, assignment: ClientAssignment,
                dataset: LabeledDataset, config: ClientConfig, round_idx: int,
                seed: int) -> ClientUpdate:
    """Mini-batch SGD on the client's (features, noisy_labels) shard.

    Deterministic given (seed, client_id, round_idx). The incoming global
    parameters are never mutated: the first step reads them and writes its
    result into the client's own vector, which later steps update in place,
    with the same arithmetic as ``nn.sgd_step``. One gradient buffer (and,
    with ``prox_mu`` > 0, one scratch vector for the proximal term) serves
    every step.

    With ``h_on`` = global, ``h`` reuses the first step's forward pass of the
    received model: that batch's row losses, plus one more pass over the rest
    of the first epoch's order, give ``data_quality_loss(global_params, ...)``
    (bit for bit wherever the BLAS rounds a row the same in a smaller batch).
    """
    n = len(assignment)
    if n == 0:
        raise ValueError(f"client {assignment.client_id} has no samples")
    if config.local_epochs < 1:
        raise ValueError("local_epochs must be >= 1")
    rng = np.random.default_rng((seed, assignment.client_id, round_idx))
    x = dataset.features[assignment.indices]
    y = assignment.noisy_labels

    params = nn.ModelParams.from_flat(np.empty_like(global_params.flat),
                                      global_params.shapes,
                                      global_params.activations)
    grad = nn.ModelParams.from_flat(np.empty_like(params.flat), params.shapes,
                                    params.activations)
    pull = np.empty_like(params.flat) if config.prox_mu > 0 else None
    # the received model's row losses, in the first epoch's order
    h_rows = np.empty(n) if config.h_on == H_ON_GLOBAL else None
    first_rows = None if h_rows is None else h_rows[:config.batch_size]
    current = global_params
    for epoch in range(config.local_epochs):
        order = rng.permutation(n)
        if epoch == 0:
            first_order = order
        for start in range(0, n, config.batch_size):
            chunk = order[start:start + config.batch_size]
            nn.loss_and_grad(current, x[chunk], y[chunk], out=grad,
                             row_losses=first_rows
                             if current is global_params else None)
            if pull is not None:
                np.subtract(current.flat, global_params.flat, out=pull)
                pull *= config.prox_mu
                grad.flat += pull
            np.multiply(grad.flat, config.lr, out=grad.flat)
            np.subtract(current.flat, grad.flat, out=params.flat)
            current = params

    if not params.all_finite():
        raise NumericError(
            f"client {assignment.client_id} diverged to non-finite parameters")

    if h_rows is None:
        h = data_quality_loss(params, assignment, dataset)
    else:
        rest = first_order[config.batch_size:]
        if rest.size:
            nn.cross_entropy(global_params, x[rest], y[rest],
                             row_losses=h_rows[config.batch_size:])
        losses = np.empty(n)
        losses[first_order] = h_rows
        # data_quality_loss's sum, over the rows in assignment order
        h = float(losses.mean()) * n
    return ClientUpdate(assignment.client_id, params, h, n, round_idx)


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

"""Diagnostics: linear CKA layer similarity, weight-divergence traces,
accuracy evaluation, and metrics persistence.

Metrics serialization is deterministic: floats are written at 9 significant
digits and per-round wall-clock stays in memory only (timing belongs in a
separate log so repeated runs produce byte-identical files).
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .data import LabeledDataset
from .errors import ShapeError

CSV_FORMAT = "csv"
JSONL_FORMAT = "jsonl"

_FIXED_COLUMNS = ["round", "client_id", "test_accuracy", "e", "q", "flagged",
                  "corrected", "n_relabeled"]


# ------------------------------------------------------------------- CKA

# Models per feature block in cka_layer_report, chosen by measurement: 4, 8
# and 16 ran equally fast, and blocks of this size reuse freed memory
_CKA_BLOCK = 8


def linear_cka(x: np.ndarray, y: np.ndarray) -> float:
    """Linear CKA between two representation matrices sharing their rows.

    Columns are mean-centered; the score is ||Yc' Xc||_F^2 divided by
    ||Xc' Xc||_F * ||Yc' Yc||_F, which lands in [0, 1] with 1 for identical
    (up to orthogonal transform / isotropic scale) representations.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ShapeError(f"need matching sample counts, got {x.shape} vs {y.shape}")
    if x.shape[0] < 2:
        raise ValueError("CKA needs at least 2 samples")
    xc = x - x.mean(axis=0)
    yc = y - y.mean(axis=0)
    x_norm = np.linalg.norm(xc.T @ xc)
    y_norm = np.linalg.norm(yc.T @ yc)
    if x_norm == 0.0 or y_norm == 0.0:
        raise ValueError("CKA is undefined for zero-variance representations")
    cross = np.linalg.norm(yc.T @ xc) ** 2
    return float(cross / (x_norm * y_norm))


@dataclass
class CkaReport:
    """Per-layer pairwise CKA across client models plus the global model.

    ``matrices[l]`` is (C+1)x(C+1), symmetric, unit diagonal; the global
    model occupies the last row/column. ``mean_noisy[l]`` / ``mean_clean[l]``
    average each group's similarity to the global model at layer l.
    """

    num_clients: int
    matrices: list[np.ndarray]
    mean_noisy: list[float]
    mean_clean: list[float]

    @property
    def num_layers(self) -> int:
        return len(self.matrices)


def cka_layer_report(client_models: Sequence[nn.ModelParams],
                     global_model: nn.ModelParams, probe: np.ndarray,
                     noisy_ids) -> CkaReport:
    """Run every model on a shared probe batch and compare layer features.

    The layers are split into passes (:func:`_cka_passes`) whose widths add
    up to at most the widest layer's. Each pass runs ``client_models[0]``
    to ``client_models[C-1]`` forward, then the global model, so a sequence
    that reads a model when indexed (:class:`checkpoint.ClientModels`) keeps
    one alive at a time, and only the pass's features are held. Every entry
    is :func:`linear_cka` of the two models' features, computed by
    :func:`_layer_cka` with a different summation order.
    """
    if len(probe) < 2:
        raise ValueError("CKA needs at least 2 samples")
    num_clients = len(client_models)
    if num_clients < 1:
        raise ValueError("need at least one client model")
    noisy = sorted(int(c) for c in noisy_ids)
    if noisy and not 0 <= noisy[0] <= noisy[-1] < num_clients:
        raise ValueError(f"noisy client ids {noisy} must lie in "
                         f"[0, {num_clients})")
    noisy_set = set(noisy)
    if len(noisy_set) < len(noisy):
        raise ValueError(f"noisy client ids {noisy} repeat an id")
    widths = [shape[0] for shape in global_model.shapes]
    matrices = []
    for layers in _cka_passes(widths):
        blocks: list = [[] for _ in layers]
        for c in range(num_clients):
            _add_features(blocks, layers, widths, c, client_models[c], probe)
        _add_features(blocks, layers, widths, num_clients, global_model, probe)
        for k, l in enumerate(layers):
            matrices.append(_layer_cka(blocks[k], widths[l], num_clients + 1))
            # freed before the next layer's matrix and the next pass's blocks
            blocks[k] = None

    g = num_clients
    clean = [c for c in range(num_clients) if c not in noisy_set]
    mean_noisy = [float(np.mean([mat[c, g] for c in noisy])) if noisy else math.nan
                  for mat in matrices]
    mean_clean = [float(np.mean([mat[c, g] for c in clean])) if clean else math.nan
                  for mat in matrices]
    return CkaReport(num_clients, matrices, mean_noisy, mean_clean)


def _cka_passes(widths: list[int]) -> list[range]:
    """Runs of consecutive layers whose widths add up to at most the widest
    layer's: 784-64-32-10 gives {0} and {1, 2}. Each run is one pass of
    cka_layer_report, so its features take no more memory than the widest
    layer's alone."""
    max_width = max(widths)
    passes, start, total = [], 0, 0
    for l, d in enumerate(widths):
        if total + d > max_width:
            passes.append(range(start, l))
            start, total = l, 0
        total += d
    passes.append(range(start, len(widths)))
    return passes


def _add_features(blocks: list[list[np.ndarray]], layers: range,
                  widths: list[int], i: int, model: nn.ModelParams,
                  probe: np.ndarray) -> None:
    """Centre model i's features at each of ``layers`` into its d columns of
    the layer's block i // _CKA_BLOCK, from one forward pass of the model.

    A block is allocated when its first model arrives. Several blocks, not
    one (n, M*d) array: small blocks reuse memory the allocator already
    holds, where one large array maps new pages.
    """
    b, col = divmod(i, _CKA_BLOCK)
    feats = nn.forward(model, probe)[0][layers.start:layers.stop]
    for layer, d, a in zip(blocks, widths[layers.start:layers.stop], feats,
                           strict=True):
        if col == 0:
            layer.append(np.empty((len(probe), _CKA_BLOCK * d)))
        np.subtract(a, a.mean(axis=0), out=layer[b][:, col * d:(col + 1) * d])


def _layer_cka(blocks: list[np.ndarray], d: int, m: int) -> np.ndarray:
    """Pairwise linear CKA of m models' centred features at one layer.

    ``blocks`` hold the d-column features of _CKA_BLOCK models each, in
    model order; the last block is cut here to its models' columns. For
    model i, sq[i, j] = ||Xi' Xj||_F^2 for every j >= i comes from one GEMM
    per block, and the diagonal of sq gives the self-norms.
    """
    blocks[-1] = blocks[-1][:, :(m - (len(blocks) - 1) * _CKA_BLOCK) * d]
    sq = np.zeros((m, m))
    prod = np.empty(_CKA_BLOCK * d * d)
    for i in range(m):
        b, col = divmod(i, _CKA_BLOCK)
        xi = blocks[b][:, col * d:(col + 1) * d]
        j, start = i, col * d
        for block in blocks[b:]:
            k = (block.shape[1] - start) // d
            # block' Xi, not Xi' block: BLAS then packs the narrow Xi, as in
            # the training GEMMs, so the report does not raise peak memory
            g = prod[:k * d * d].reshape(k * d, d)
            np.matmul(block[:, start:].T, xi, out=g)
            np.square(g, out=g)
            sq[i, j:j + k] = g.sum(axis=1).reshape(k, d).sum(axis=1)
            j, start = j + k, 0

    norms = np.sqrt(np.diag(sq))
    if not norms.all():
        raise ValueError("CKA is undefined for zero-variance representations")
    upper = np.triu(sq / np.outer(norms, norms), 1)
    mat = upper + upper.T
    np.fill_diagonal(mat, 1.0)
    # Cauchy-Schwarz bounds CKA by 1; rounding can overshoot it by ulps
    return np.minimum(mat, 1.0, out=mat)


# ------------------------------------------------------------ accuracy etc.

def weight_divergence(global_params: nn.ModelParams,
                      clients: list[nn.ModelParams]
                      ) -> tuple[np.ndarray, np.ndarray]:
    """``(e, layers)``: each client's squared parameter distance to the
    global model (``nn.param_sq_distance``), a (C,) array, and the (L, C)
    per-layer squared distances (``nn.layer_sq_distance``) from the same
    pass, through one scratch buffer."""
    scratch = np.empty_like(global_params.flat)
    e = np.empty(len(clients))
    layers = np.empty((global_params.num_layers, len(clients)))
    for c, model in enumerate(clients):
        e[c], layers[:, c] = nn.sq_distances(global_params, model, out=scratch)
    return e, layers


def evaluate_accuracy(params: nn.ModelParams, test_set: LabeledDataset) -> float:
    """Fraction of argmax predictions matching the labels."""
    if len(test_set) == 0:
        raise ValueError("test set is empty")
    preds, _ = nn.predict_confidences(params, test_set.features)
    return float((preds == test_set.labels).mean())


def mean_last_accuracy(metrics: list["RoundMetrics"], k: int = 10) -> float:
    """Arithmetic mean of the last k per-round test accuracies."""
    if k < 1:  # metrics[-0:] is every round
        raise ValueError(f"k must be >= 1, got {k}")
    tail = metrics[-k:]
    if not tail:
        raise ValueError("no rounds recorded")
    return sum(m.test_accuracy for m in tail) / len(tail)


# ---------------------------------------------------------------- metrics

@dataclass
class RoundMetrics:
    """One round's record: accuracy, per-client diagnostics, layer weights.

    ``weights`` is the L x C aggregation weight matrix applied (or implied)
    this round. ``wall_clock`` is in-memory only and never serialized, so
    metric files stay byte-identical across reruns.
    """

    round_idx: int
    test_accuracy: float
    client_ids: list[int]
    divergence: list[float]          # e = ||theta_G - theta_c||^2
    reliability: list[float]         # q = e * h / n
    flagged: list[bool]
    corrected: list[bool]
    n_relabeled: list[int]
    weights: list[list[float]]       # L rows, C columns
    wall_clock: float = field(default=0.0, compare=False)

    @property
    def num_layers(self) -> int:
        return len(self.weights)


def _f(x: float) -> str:
    return format(float(x), ".9g")


def metrics_header(fmt: str, n_layers: int) -> str:
    """A metrics file's text before its first round: the CSV header, whose
    ``w_l*`` columns need the model's layer count, or nothing for JSONL."""
    if fmt not in (CSV_FORMAT, JSONL_FORMAT):
        raise ValueError(f"unknown metrics format {fmt!r}")
    columns = _FIXED_COLUMNS + [f"w_l{l}" for l in range(n_layers)]
    return ",".join(columns) + "\n" if fmt == CSV_FORMAT else ""


def format_round(m: RoundMetrics, fmt: str) -> str:
    """One round's text in a format :func:`metrics_header` accepts: a CSV
    row per client, or one JSONL record."""
    if fmt == CSV_FORMAT:
        return "".join(",".join([
            str(m.round_idx), str(cid), _f(m.test_accuracy), _f(m.divergence[i]),
            _f(m.reliability[i]), str(int(m.flagged[i])), str(int(m.corrected[i])),
            str(m.n_relabeled[i]), *(_f(row[i]) for row in m.weights)]) + "\n"
            for i, cid in enumerate(m.client_ids))
    if fmt != JSONL_FORMAT:
        raise ValueError(f"unknown metrics format {fmt!r}")
    return json.dumps({
        "round": m.round_idx,
        "test_accuracy": float(_f(m.test_accuracy)),
        "client_ids": m.client_ids,
        "e": [float(_f(v)) for v in m.divergence],
        "q": [float(_f(v)) for v in m.reliability],
        "flagged": [bool(v) for v in m.flagged],
        "corrected": [bool(v) for v in m.corrected],
        "n_relabeled": [int(v) for v in m.n_relabeled],
        "weights": [[float(_f(v)) for v in row] for row in m.weights],
    }, separators=(",", ":")) + "\n"


def write_metrics(metrics: list[RoundMetrics], path, fmt: str) -> None:
    """Persist metrics as CSV (one row per round x client) or JSONL (per round)."""
    header = metrics_header(fmt, metrics[0].num_layers if metrics else 0)
    with open(path, "w") as fh:
        fh.write(header)
        fh.writelines(format_round(m, fmt) for m in metrics)


def read_metrics(path, fmt: str) -> list[RoundMetrics]:
    """Parse files produced by :func:`write_metrics`."""
    if fmt == CSV_FORMAT:
        return _read_csv(path)
    if fmt == JSONL_FORMAT:
        return _read_jsonl(path)
    raise ValueError(f"unknown metrics format {fmt!r}")


def _read_csv(path) -> list[RoundMetrics]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        n_layers = len(header) - len(_FIXED_COLUMNS)
        by_round: dict[int, RoundMetrics] = {}
        for row in reader:
            r = int(row[0])
            m = by_round.get(r)
            if m is None:
                m = RoundMetrics(r, float(row[2]), [], [], [], [], [], [],
                                 [[] for _ in range(n_layers)])
                by_round[r] = m
            m.client_ids.append(int(row[1]))
            m.divergence.append(float(row[3]))
            m.reliability.append(float(row[4]))
            m.flagged.append(bool(int(row[5])))
            m.corrected.append(bool(int(row[6])))
            m.n_relabeled.append(int(row[7]))
            for l in range(n_layers):
                m.weights[l].append(float(row[8 + l]))
    return [by_round[r] for r in sorted(by_round)]


def _read_jsonl(path) -> list[RoundMetrics]:
    out = []
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            out.append(RoundMetrics(
                rec["round"], rec["test_accuracy"], rec["client_ids"], rec["e"],
                rec["q"], rec["flagged"], rec["corrected"], rec["n_relabeled"],
                rec["weights"]))
    return out

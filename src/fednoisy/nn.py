"""Minimal dense neural-network engine.

Parameter containers, forward/backward pass, SGD step, and the
parameter-distance primitives used by the aggregation and detection code.
Everything is plain float64 numpy. No function here mutates its arguments,
except the ``out`` buffer a caller passes, so any number of workers may share
one model; ``client.local_train`` updates only its own private copy in place.

The training kernels (:func:`forward`, :func:`cross_entropy`,
:func:`loss_and_grad`) also take a cohort: models stacked on a leading axis
(a ``ModelParams`` over a ``(k, P)`` buffer) and batches of shape
``(k, B, dim)``, one slice per model. A stacked ``np.matmul`` makes one BLAS
call per slice with that slice's own shapes, and every reduction runs over
the same axis and length, so each slice gets the bits of its own 2-D call.
Unstacked params run every slice of a stacked batch (the received model of
a cohort's first step).

Importing this module pins numpy's OpenBLAS to :data:`BLAS_THREADS`.
"""

from __future__ import annotations

import ctypes

import numpy as np

from .errors import NumericError, ShapeError

# A GEMM's bits depend on how many threads split it, and OpenBLAS's default
# count follows the host's cores. One fixed thread makes every model bit
# independent of the host and of ``workers``, and leaves the cores to the
# training pool instead of oversubscribing them.
BLAS_THREADS = 1
_BLAS_SETTER = "scipy_openblas_set_num_threads64_"


def pin_blas_threads(n: int) -> None:
    """Set numpy's bundled OpenBLAS to ``n`` threads, for the whole process.

    Raises RuntimeError naming numpy's BLAS when that BLAS exports no such
    setter: fednoisy does not run on an unpinned BLAS.
    """
    try:
        # the extension's handle resolves symbols of the BLAS it links
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        setter = getattr(lib, _BLAS_SETTER)
    except (AttributeError, OSError) as err:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        raise RuntimeError(
            f"numpy's BLAS ({blas.get('name')} {blas.get('version')}) exports "
            f"no {_BLAS_SETTER}, so fednoisy cannot pin its thread count") from err
    setter(n)


pin_blas_threads(BLAS_THREADS)


class ModelParams:
    """Ordered per-layer parameter blocks of a dense classifier, in one buffer.

    The classifier is an MLP: ReLU after every layer but the last, whose
    outputs are the logits.

    ``flat`` is one contiguous float64 vector laid out W0, b0, W1, b1, ...
    with each ``W`` row-major; a checkpoint blob is exactly ``flat`` in
    little-endian. ``weights[l]`` (shape (out_dim, in_dim)) and ``biases[l]``
    (shape (out_dim,)) are views into it, so writes through either show in
    ``flat``; replace their contents, never the list entries.
    ``layer_slices[l]`` selects layer l's W and b in ``flat``'s last axis.
    The unit exchanged between clients and server.

    A cohort of k models wraps a ``(k, P)`` buffer, one model a row; then
    ``weights[l]`` has shape (k, out_dim, in_dim) and ``biases[l]`` (k,
    out_dim).
    """

    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray]):
        if len(weights) != len(biases):
            raise ShapeError(
                f"{len(weights)} weight blocks but {len(biases)} bias blocks")
        shapes = [np.shape(w) for w in weights]
        for l, (shape, b) in enumerate(zip(shapes, biases)):
            if len(shape) != 2 or np.shape(b) != shape[:1]:
                raise ShapeError(f"layer {l}: bias shape {np.shape(b)} does "
                                 f"not fit weight shape {shape}")
        flat = np.concatenate([np.ravel(a) for pair in zip(weights, biases)
                               for a in pair], dtype=np.float64)
        self._bind(flat, shapes)

    @classmethod
    def from_flat(cls, flat: np.ndarray, shapes) -> "ModelParams":
        """Wrap a float64 vector laid out as ``flat`` for ``shapes``, or a
        (k, P) block of k such rows, without copying it."""
        params = cls.__new__(cls)
        params._bind(flat, shapes)
        return params

    def _bind(self, flat, shapes) -> None:
        self.shapes = [(int(o), int(i)) for o, i in shapes]
        size = sum(o * i + o for o, i in self.shapes)
        if flat.dtype != np.float64 or flat.ndim not in (1, 2) \
                or flat.shape[-1] != size:
            raise ShapeError(f"flat buffer {flat.dtype}{flat.shape} does not "
                             f"hold layers {self.shapes}")
        self.flat = flat
        self.weights, self.biases, self.layer_slices = [], [], []
        lead = flat.shape[:-1]
        start = 0
        for o, i in self.shapes:
            mid = start + o * i
            end = mid + o
            self.weights.append(flat[..., start:mid].reshape(*lead, o, i))
            self.biases.append(flat[..., mid:end])
            self.layer_slices.append(slice(start, end))
            start = end

    @property
    def num_layers(self) -> int:
        return len(self.shapes)

    @property
    def in_dim(self) -> int:
        return self.shapes[0][1]

    @property
    def out_dim(self) -> int:
        return self.shapes[-1][0]

    def copy(self) -> "ModelParams":
        return ModelParams.from_flat(self.flat.copy(), self.shapes)


def _check_congruent(a: ModelParams, b: ModelParams) -> None:
    if a.shapes != b.shapes:
        raise ShapeError(f"layer shapes differ: {a.shapes} vs {b.shapes}")


def init_params(layer_sizes, seed) -> ModelParams:
    """Scaled-Gaussian (He) initialization: std = sqrt(2/in_dim), zero biases.

    ``layer_sizes`` runs from the input to the output width, e.g.
    (784, 64, 32, 10). Deterministic for a given seed.
    """
    if len(layer_sizes) < 2 or min(layer_sizes) < 1:
        raise ShapeError(f"need an input and an output size, each >= 1, "
                         f"got {list(layer_sizes)}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for in_dim, out_dim in zip(layer_sizes, layer_sizes[1:]):
        weights.append(rng.normal(0.0, np.sqrt(2.0 / in_dim),
                                  size=(out_dim, in_dim)))
        biases.append(np.zeros(out_dim))
    return ModelParams(weights, biases)


def forward(params: ModelParams, batch: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Run the network on a batch of rows, or a cohort on a (k, B, dim) stack.

    Returns (activations, logits) where activations[l] is layer l's output,
    after its ReLU on a hidden layer; the final entry is the logits.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim not in (2, 3) or batch.shape[-1] != params.in_dim:
        raise ShapeError(
            f"batch width {batch.shape} incompatible with input dim {params.in_dim}")
    activations = []
    a = batch
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = a @ w.swapaxes(-1, -2) + b[..., None, :]
        a = np.maximum(z, 0.0) if l < params.num_layers - 1 else z
        activations.append(a)
    logits = activations[-1]
    if not np.isfinite(logits).all():
        raise NumericError("forward pass produced non-finite logits")
    return activations, logits


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    # Max-subtraction keeps exp() in range for extreme logits.
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _label_positions(labels: np.ndarray, classes: int) -> np.ndarray:
    """Each row's label position in a C-contiguous (..., B, classes) array's
    flat view: one fancy index for any number of leading axes."""
    return np.arange(0, labels.size * classes, classes).reshape(labels.shape) \
        + labels


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy(params: ModelParams, batch_x: np.ndarray, labels: np.ndarray,
                  row_losses: np.ndarray | None = None
                  ) -> tuple[float | np.ndarray, list[np.ndarray], np.ndarray]:
    """Mean softmax cross-entropy of a labelled batch under ``params``.

    Also returns the per-layer activations and the log-probabilities, which
    :func:`loss_and_grad` backpropagates through. Each row's loss is written
    into ``row_losses`` (a float64 array of ``labels``' shape) when given;
    the mean over the last axis is their mean: a scalar for one batch, a
    (k,) array for a cohort (``labels`` of shape (k, B)).
    """
    labels = np.asarray(labels)
    if labels.shape[-1] == 0:
        raise ValueError("batch is empty")
    activations, logits = forward(params, batch_x)
    k = logits.shape[-1]
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"label out of range [0, {k})")
    log_probs = _log_softmax(logits)
    picked = log_probs.reshape(-1)[_label_positions(labels, k)]
    rows = np.negative(picked, out=row_losses)
    return rows.mean(axis=-1), activations, log_probs


def loss_and_grad(params: ModelParams, batch_x: np.ndarray,
                  labels: np.ndarray, out: ModelParams | None = None,
                  row_losses: np.ndarray | None = None
                  ) -> tuple[float | np.ndarray, ModelParams]:
    """Mean softmax cross-entropy and its exact backprop gradient, laid out
    like ``params``.

    The gradient is written into ``out`` when given (a ``ModelParams`` with
    ``params``' shapes), else into a new one. Every element is overwritten,
    so a caller may reuse one buffer across steps. ``row_losses`` receives
    each row's loss, as in :func:`cross_entropy`. On a cohort batch the
    gradient holds one row per slice, also under unstacked ``params``.
    """
    mean_loss, activations, log_probs = cross_entropy(params, batch_x, labels,
                                                      row_losses)
    labels = np.asarray(labels)
    n = labels.shape[-1]

    probs = np.exp(log_probs)
    delta = probs
    delta.reshape(-1)[_label_positions(labels, delta.shape[-1])] -= 1.0
    delta /= n

    batch_x = np.asarray(batch_x, dtype=np.float64)
    if out is None:
        size = params.flat.shape[-1:]
        out = ModelParams.from_flat(np.empty(batch_x.shape[:-2] + size), params.shapes)
    else:
        _check_congruent(params, out)
    for l in range(params.num_layers - 1, -1, -1):
        below = batch_x if l == 0 else activations[l - 1]
        np.matmul(delta.swapaxes(-1, -2), below, out=out.weights[l])
        delta.sum(axis=-2, out=out.biases[l])
        if l > 0:
            # layer l - 1 is hidden: through its ReLU
            delta = delta @ params.weights[l] * (activations[l - 1] > 0)
    return mean_loss, out


def sgd_step(params: ModelParams, grad: ModelParams, lr: float) -> ModelParams:
    """One gradient-descent step: p' = p - lr * g, per coordinate."""
    if lr < 0:
        raise ValueError("learning rate must be >= 0")
    _check_congruent(params, grad)
    return ModelParams.from_flat(params.flat - lr * grad.flat, params.shapes)


def param_sq_distance(a: ModelParams, b: ModelParams) -> float:
    """Squared Euclidean distance over every coordinate of the two models."""
    _check_congruent(a, b)
    diff = a.flat - b.flat
    return float((diff * diff).sum())


def layer_sq_distance(a: ModelParams, b: ModelParams, layer: int) -> float:
    """Squared distance restricted to one layer's weight+bias block.

    Layers are indexed 0..L-1; summed over all layers this equals
    param_sq_distance.
    """
    _check_congruent(a, b)
    if not 0 <= layer < a.num_layers:
        raise ValueError(f"layer index {layer} outside [0, {a.num_layers})")
    block = a.layer_slices[layer]
    diff = a.flat[block] - b.flat[block]
    sq = diff * diff
    # W and b summed apart: one sum over the whole block rounds differently,
    # which would move fed_ncl's layer weights (and the global model) by ulps
    n_w = a.weights[layer].size
    return float(sq[:n_w].sum() + sq[n_w:].sum())


def sq_distances(a: ModelParams, b: ModelParams, out: np.ndarray | None = None
                 ) -> tuple[float, list[float]]:
    """(param_sq_distance(a, b), [layer_sq_distance(a, b, l) for each l]) from
    one pass over the two models, with the same bits as those two functions.

    The squared differences go into ``out`` (a float64 vector of ``a.flat``'s
    shape) when given, else into a new vector; reusing one ``out`` across
    calls keeps the loop free of parameter-sized allocations.
    """
    _check_congruent(a, b)
    sq = np.subtract(a.flat, b.flat, out=out)
    np.multiply(sq, sq, out=sq)
    per_layer = []
    for w, block in zip(a.weights, a.layer_slices):
        layer = sq[block]
        per_layer.append(float(layer[:w.size].sum() + layer[w.size:].sum()))
    return float(sq.sum()), per_layer


def predict_confidences(params: ModelParams,
                        batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample (argmax label, max softmax probability).

    Ties break to the lowest class index.
    """
    _, logits = forward(params, batch)
    probs = softmax(logits)
    labels = probs.argmax(axis=1)
    return labels, probs[np.arange(probs.shape[0]), labels]

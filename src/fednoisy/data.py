"""Dataset loading/synthesis, client partitioning, and label-noise injection.

Client-noise scenarios come in two flavors: a Bernoulli model where each
client is either fully clean or corrupted at a fixed within-client rate, and
a truncated-Gaussian model where every client draws its own corruption
fraction from a bounded normal. Label flips are symmetric: a corrupted label
moves to one of the other K-1 classes uniformly.
"""

from __future__ import annotations

import gzip
import struct
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DataFormatError, require

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

BERNOULLI = "bernoulli"
TRUNC_GAUSS = "trunc_gauss"
FIXED = "fixed"

IID = "iid"
CLASS_SKEW = "class_skew"
QUANTITY_SKEW = "quantity_skew"

_PRESENCE_RETRIES = 100


@dataclass
class LabeledDataset:
    """Feature matrix (N x d), integer labels in [0, K), and K itself."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: np.ndarray) -> "LabeledDataset":
        return LabeledDataset(self.features[indices], self.labels[indices],
                              self.num_classes)


@dataclass
class ClientAssignment:
    """One client's slice of the parent dataset plus its label state.

    ``true_labels`` keeps the pre-noise copy; ``noisy_labels`` are what the
    client actually trains on.
    """

    client_id: int
    indices: np.ndarray
    true_labels: np.ndarray
    noisy_labels: np.ndarray

    def __len__(self) -> int:
        return self.indices.shape[0]


@dataclass(frozen=True)
class NoiseSpec:
    """Declarative description of the client-noise scenario.

    bernoulli: a client is clean with probability ``clean_prob``, otherwise
    its labels flip at ``within_rate``. trunc_gauss: each client's rate is a
    truncated-normal draw on [low, high]. fixed: ``rates`` gives the rate per
    client explicitly (used to reproduce fixed noisy-set studies).
    """

    mode: str = BERNOULLI
    clean_prob: float = 0.7
    within_rate: float = 1.0
    mean: float = 0.3
    std: float = 0.4
    low: float = 0.0
    high: float = 1.0
    rates: list[float] | None = None

    def __post_init__(self):
        require(self.mode in (BERNOULLI, TRUNC_GAUSS, FIXED), "mode",
                "must be bernoulli, trunc_gauss, or fixed")
        require(0 < self.clean_prob <= 1, "clean_prob", "must be in (0, 1]")
        require(0 <= self.within_rate <= 1, "within_rate", "must be in [0, 1]")
        require(self.std > 0, "std", "must be > 0")
        require(0 <= self.low < self.high <= 1, "low",
                "need 0 <= low < high <= 1")
        if self.mode == TRUNC_GAUSS:  # the sampler's own check, no draws
            try:
                sample_truncated_gaussian(self.mean, self.std, self.low,
                                          self.high, 0, count=0)
            except ValueError as err:
                raise ConfigError(f"mean: {err}") from err
        if self.mode == FIXED:
            require(self.rates is not None, "rates",
                    "required when noise.mode is fixed")
            require(all(0 <= r <= 1 for r in self.rates), "rates",
                    "every rate must be in [0, 1]")


@dataclass(frozen=True)
class PartitionSpec:
    """How the parent dataset is divided among clients. The client count and
    seed are the run's; ``make_partitions`` takes them as arguments."""

    kind: str = IID
    p_class: float = 0.7      # class-presence probability (class skew)
    alpha_dir: float = 0.5    # Dirichlet concentration (class skew)
    sigma_log: float = 0.3    # lognormal std of client sizes (quantity skew)

    def __post_init__(self):
        require(self.kind in (IID, CLASS_SKEW, QUANTITY_SKEW), "kind",
                "must be iid, class_skew, or quantity_skew")
        require(0 < self.p_class <= 1, "p_class", "must be in (0, 1]")
        require(self.alpha_dir > 0, "alpha_dir", "must be > 0")
        require(self.sigma_log >= 0, "sigma_log", "must be >= 0")


# ----------------------------------------------------------------- loading

def _read_exact(fh, count: int, what: str) -> bytes:
    buf = fh.read(count)
    if len(buf) != count:
        raise DataFormatError(f"truncated IDX file while reading {what}")
    return buf


def _open_maybe_gzip(path):
    if str(path).endswith(".gz"):
        return gzip.open(path, "rb")
    return open(path, "rb")


def load_idx(images_path, labels_path, count: int | None = None
             ) -> LabeledDataset:
    """Load an IDX image/label pair (big-endian; .gz accepted by suffix).

    Pixels are scaled to [0, 1]; image and label counts must agree. With
    ``count``, only the first ``count`` images are read and kept; the label
    file is still read whole, so ``num_classes`` and the count check are
    those of the full pair.
    """
    if count is not None and count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    with _open_maybe_gzip(images_path) as fh:
        magic, n, rows, cols = struct.unpack(">IIII", _read_exact(fh, 16, "image header"))
        if magic != IDX_IMAGES_MAGIC:
            raise DataFormatError(
                f"bad image magic 0x{magic:08x} in {images_path}")
        keep = n if count is None else min(count, n)
        raw = _read_exact(fh, keep * rows * cols, "pixels")
    features = np.frombuffer(raw, dtype=np.uint8).reshape(
        keep, rows * cols).astype(np.float64)
    features /= 255.0

    with _open_maybe_gzip(labels_path) as fh:
        magic, n_labels = struct.unpack(">II", _read_exact(fh, 8, "label header"))
        if magic != IDX_LABELS_MAGIC:
            raise DataFormatError(
                f"bad label magic 0x{magic:08x} in {labels_path}")
        raw = _read_exact(fh, n_labels, "labels")
    labels = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)

    if n_labels != n:
        raise DataFormatError(
            f"image/label count mismatch: {n} images vs {n_labels} labels")
    return LabeledDataset(features, labels[:keep],
                          int(labels.max()) + 1 if n else 0)


def make_synthetic(num_classes: int, per_class: int, dim: int, spread: float,
                   seed: int) -> LabeledDataset:
    """Gaussian blobs, one center per class; linearly separable for small spread.

    Row i is ``centers[labels[j]] + spread * noise[j]`` for j = order[i]. It
    is built in place, so the pool is the only large array alive.
    """
    if num_classes < 2 or per_class < 1:
        raise ValueError("need num_classes >= 2 and per_class >= 1")
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 1.0, size=(num_classes, dim))
    labels = np.repeat(np.arange(num_classes), per_class)
    features = rng.normal(size=(labels.size, dim))
    features *= spread
    # the unshuffled labels run class by class, per_class rows each
    for k, center in enumerate(centers):
        features[k * per_class:(k + 1) * per_class] += center
    order = rng.permutation(labels.size)
    _permute_rows(features, order)
    return LabeledDataset(features, labels[order], num_classes)


# rows moved per fancy-indexed copy in _permute_rows: the copy's buffer stays
# small beside the pool, and the Python loop stays short
_PERMUTE_CHUNK_ROWS = 256


def _permute_rows(rows: np.ndarray, order: np.ndarray) -> None:
    """``rows[:] = rows[order]`` in place, one cycle of ``order`` at a time.

    Along a cycle c = (c0, c1 = order[c0], ...), row c[t] takes row c[t + 1]:
    rows move down the cycle in chunks, each chunk read before it is
    written, and the saved first row closes the cycle.
    """
    nxt = order.tolist()
    seen = bytearray(len(nxt))
    for start in range(len(nxt)):
        if seen[start]:
            continue
        cycle = []
        i = start
        while not seen[i]:
            seen[i] = 1
            cycle.append(i)
            i = nxt[i]
        if len(cycle) == 1:
            continue
        cycle = np.array(cycle)
        first = rows[start].copy()
        last = len(cycle) - 1
        for t in range(0, last, _PERMUTE_CHUNK_ROWS):
            end = min(t + _PERMUTE_CHUNK_ROWS, last)
            rows[cycle[t:end]] = rows[cycle[t + 1:end + 1]]
        rows[cycle[last]] = first


# -------------------------------------------------------------- partitions

def _assignments_from_index_lists(dataset: LabeledDataset,
                                  shards: list[np.ndarray]) -> list[ClientAssignment]:
    out = []
    for cid, idx in enumerate(shards):
        idx = np.asarray(idx, dtype=np.int64)
        labels = dataset.labels[idx].copy()
        out.append(ClientAssignment(cid, idx, labels, labels.copy()))
    return out


def partition_iid(dataset: LabeledDataset, num_clients: int,
                  seed: int) -> list[ClientAssignment]:
    """Random permutation split into near-equal disjoint shards."""
    n = len(dataset)
    if num_clients > n:
        raise ValueError(f"cannot split {n} samples across {num_clients} clients")
    rng = np.random.default_rng(seed)
    shards = np.array_split(rng.permutation(n), num_clients)
    return _assignments_from_index_lists(dataset, shards)


def partition_class_skew(dataset: LabeledDataset, num_clients: int,
                         p_class: float, alpha_dir: float,
                         seed: int) -> list[ClientAssignment]:
    """Bernoulli class presence + Dirichlet proportions among present clients.

    The presence matrix is resampled (bounded retries) until every class is
    held by at least one client; all samples end up assigned.
    """
    if not 0 < p_class <= 1:
        raise ValueError("p_class must be in (0, 1]")
    if alpha_dir <= 0:
        raise ValueError("alpha_dir must be > 0")
    k = dataset.num_classes
    rng = np.random.default_rng(seed)

    presence = None
    for _ in range(_PRESENCE_RETRIES):
        cand = rng.random((k, num_clients)) < p_class
        if cand.any(axis=1).all():
            presence = cand
            break
    if presence is None:
        raise ValueError(
            f"could not draw a presence matrix covering all {k} classes "
            f"in {_PRESENCE_RETRIES} tries (p_class={p_class})")

    shards: list[list[np.ndarray]] = [[] for _ in range(num_clients)]
    for j in range(k):
        idx = np.flatnonzero(dataset.labels == j)
        idx = rng.permutation(idx)
        holders = np.flatnonzero(presence[j])
        props = rng.dirichlet(np.full(holders.size, alpha_dir))
        counts = rng.multinomial(idx.size, props)
        start = 0
        for holder, cnt in zip(holders, counts):
            shards[holder].append(idx[start:start + cnt])
            start += cnt
    merged = [np.sort(np.concatenate(s)) if s else np.empty(0, dtype=np.int64)
              for s in shards]
    return _assignments_from_index_lists(dataset, merged)


def partition_quantity_skew(dataset: LabeledDataset, num_clients: int,
                            sigma_log: float, seed: int) -> list[ClientAssignment]:
    """Client sizes proportional to lognormal draws; composition IID within."""
    n = len(dataset)
    if num_clients > n:
        raise ValueError(f"cannot split {n} samples across {num_clients} clients")
    rng = np.random.default_rng(seed)
    draws = rng.lognormal(mean=0.0, sigma=sigma_log, size=num_clients)
    target = draws / draws.sum() * n
    sizes = np.floor(target).astype(np.int64)
    # hand the rounding remainder to the largest fractional parts
    remainder = n - int(sizes.sum())
    frac_order = np.argsort(-(target - sizes), kind="stable")
    sizes[frac_order[:remainder]] += 1
    # every client keeps at least one sample
    while (sizes == 0).any():
        sizes[int(np.argmax(sizes))] -= 1
        sizes[int(np.argmax(sizes == 0))] += 1
    perm = rng.permutation(n)
    bounds = np.cumsum(sizes)[:-1]
    return _assignments_from_index_lists(dataset, np.split(perm, bounds))


def make_partitions(dataset: LabeledDataset, spec: PartitionSpec,
                    num_clients: int, seed: int) -> list[ClientAssignment]:
    """Split ``dataset`` into ``num_clients`` shards as ``spec.kind`` says."""
    if spec.kind == IID:
        return partition_iid(dataset, num_clients, seed)
    if spec.kind == CLASS_SKEW:
        return partition_class_skew(dataset, num_clients, spec.p_class,
                                    spec.alpha_dir, seed)
    if spec.kind == QUANTITY_SKEW:
        return partition_quantity_skew(dataset, num_clients, spec.sigma_log,
                                       seed)
    raise ValueError(f"unknown partition kind {spec.kind!r}")


# ------------------------------------------------------------------ noise

def sample_truncated_gaussian(mean: float, std: float, low: float, high: float,
                              seed, count: int) -> np.ndarray:
    """Inverse-CDF draws from a normal truncated to [low, high]."""
    # imported here: scipy.special adds ~21 MB of RSS and ~0.3 s to the
    # import, and only this sampler needs it
    from scipy.special import ndtr, ndtri

    if not low < high:
        raise ValueError(f"need low < high, got [{low}, {high}]")
    if std <= 0:
        raise ValueError("std must be > 0")
    cdf_low = ndtr((low - mean) / std)
    cdf_high = ndtr((high - mean) / std)
    if not cdf_high > cdf_low:
        raise ValueError("truncation window has no probability mass")
    rng = np.random.default_rng(seed)
    u = rng.random(count)
    draws = mean + std * ndtri(cdf_low + u * (cdf_high - cdf_low))
    return np.clip(draws, low, high)


def sample_client_noise_rates(spec: NoiseSpec, num_clients: int,
                              seed) -> np.ndarray:
    """Per-client corruption rates under the configured scenario."""
    if spec.mode == BERNOULLI:
        rng = np.random.default_rng(seed)
        clean = rng.random(num_clients) < spec.clean_prob
        return np.where(clean, 0.0, spec.within_rate)
    if spec.mode == TRUNC_GAUSS:
        return sample_truncated_gaussian(spec.mean, spec.std, spec.low,
                                         spec.high, seed, num_clients)
    if spec.mode == FIXED:
        if spec.rates is None or len(spec.rates) != num_clients:
            raise ValueError(
                f"fixed noise mode needs exactly {num_clients} rates")
        return np.asarray(spec.rates, dtype=np.float64)
    raise ValueError(f"unknown noise mode {spec.mode!r}")


def apply_symmetric_noise(assignment: ClientAssignment, rate: float,
                          num_classes: int, seed) -> ClientAssignment:
    """Flip each label with probability ``rate``, uniformly to a wrong class."""
    if not 0 <= rate <= 1:
        raise ValueError("rate must be in [0, 1]")
    if rate > 0 and num_classes < 2:
        raise ValueError("symmetric noise needs at least 2 classes")
    rng = np.random.default_rng(seed)
    n = len(assignment)
    flip = rng.random(n) < rate
    # offset in 1..K-1 lands uniformly on the K-1 classes != true label
    offsets = rng.integers(1, num_classes, size=n) if num_classes > 1 else np.zeros(n, dtype=np.int64)
    noisy = np.where(flip, (assignment.true_labels + offsets) % num_classes,
                     assignment.true_labels)
    return replace(assignment, noisy_labels=noisy.astype(np.int64))

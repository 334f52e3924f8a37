"""fednoisy: a deterministic federated-learning simulator with noisy clients.

Implements the full noisy-client pipeline (noise modeling, reliability-score
detection, penalized layer-wise aggregation, label correction) alongside
FedAvg, trimmed-mean, and FedProx baselines, with linear-CKA layer
diagnostics. Pure numpy, desk-scale by default.
"""

__version__ = "0.1.0"

from . import analysis, checkpoint, client, config, data, nn, server  # noqa: F401
from .client import ClientConfig, ClientUpdate  # noqa: F401
from .config import ExperimentConfig, parse_config  # noqa: F401
from .data import LabeledDataset, NoiseSpec, PartitionSpec  # noqa: F401
from .nn import ModelParams  # noqa: F401
from .server import Experiment, ServerConfig  # noqa: F401

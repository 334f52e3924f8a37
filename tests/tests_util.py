"""Shared helpers for the test suite (oracles and tiny builders)."""

import math

import numpy as np
from hypothesis import strategies as st

from fednoisy import nn


def flatten_params(params):
    """Flatten a ModelParams into one 1-D vector (layer order, W then b)."""
    parts = []
    for w, b in zip(params.weights, params.biases):
        parts.append(w.ravel())
        parts.append(b.ravel())
    return np.concatenate(parts)


@st.composite
def model_stacks(draw, counts=st.integers(2, 9)):
    """Random congruent models: 1-3 layers, widths 1-6, as many as ``counts``
    draws (2-9 by default).

    Values are standard normals times one scale per stack (1e-3, 1 or 1e3).
    """
    widths = draw(st.lists(st.integers(1, 6), min_size=2, max_size=4))
    n_clients = draw(counts)
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    specs = nn.mlp_specs(widths)
    return [nn.ModelParams(
        [scale * rng.normal(size=(s.out_dim, s.in_dim)) for s in specs],
        [scale * rng.normal(size=s.out_dim) for s in specs],
        [s.activation for s in specs]) for _ in range(n_clients)]


def std_normal_cdf(x):
    """Standard normal CDF via erf; independent of scipy."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def std_normal_pdf(x):
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def truncated_normal_mean(mu, sigma, low, high):
    """Analytic mean of a normal truncated to [low, high]."""
    a = (low - mu) / sigma
    b = (high - mu) / sigma
    z = std_normal_cdf(b) - std_normal_cdf(a)
    return mu + sigma * (std_normal_pdf(a) - std_normal_pdf(b)) / z


def truncated_normal_cdf(x, mu, sigma, low, high):
    a = (low - mu) / sigma
    b = (high - mu) / sigma
    z = std_normal_cdf(b) - std_normal_cdf(a)
    xi = np.clip((np.asarray(x) - mu) / sigma, a, b)
    return (np.vectorize(std_normal_cdf)(xi) - std_normal_cdf(a)) / z

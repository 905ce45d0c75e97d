"""Small multilayer perceptron with hand-written reverse-mode gradients.

Hidden layers use tanh, the output layer is linear. Weights are stored as
(fan_in, fan_out) matrices so a batch forward is x @ W + b. All math is
float64 and deterministic for a seeded generator.

Parameter layout: all parameters of a network live in one float64 vector,
``MlpPolicy.flat``, ordered W0, b0, W1, b1, ... with each W row-major.
``weights`` and ``biases`` are views into it, gradients from
``mlp_backward`` use the same layout, and ``policy.bin`` stores it as its
payload. This module is the only one that knows the layout.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeMismatch


def param_count(layer_sizes: list[int]) -> int:
    """Length of the flat parameter vector for these layer sizes."""
    return sum(fan_in * fan_out + fan_out for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]))


def _layer_views(layer_sizes: list[int], flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    weights, biases = [], []
    offset = 0
    for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
        weights.append(flat[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out))
        offset += fan_in * fan_out
        biases.append(flat[offset : offset + fan_out])
        offset += fan_out
    return weights, biases


class MlpPolicy:
    """Network parameters as one flat vector; the given per-layer arrays are copied into it."""

    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray]):
        if len(weights) != len(biases) or not weights:
            raise ShapeMismatch("weights and biases must pair up")
        for i, (w, b) in enumerate(zip(weights, biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[1] != b.shape[0]:
                raise ShapeMismatch(f"layer {i}: W {w.shape} incompatible with b {b.shape}")
            if i > 0 and weights[i - 1].shape[1] != w.shape[0]:
                raise ShapeMismatch(f"layer {i}: fan-in {w.shape[0]} != previous fan-out")
        self.flat = np.concatenate([p.ravel() for pair in zip(weights, biases) for p in pair], dtype=float)
        if not np.isfinite(self.flat).all():
            raise ShapeMismatch("non-finite parameters")
        self.weights, self.biases = _layer_views([weights[0].shape[0]] + [w.shape[1] for w in weights], self.flat)

    @classmethod
    def from_flat(cls, layer_sizes: list[int], flat: np.ndarray) -> "MlpPolicy":
        """A policy holding a copy of ``flat``, whose length is param_count(layer_sizes)."""
        return cls(*_layer_views(layer_sizes, flat))

    @property
    def layer_sizes(self) -> list[int]:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    @property
    def input_size(self) -> int:
        return self.weights[0].shape[0]

    @property
    def output_size(self) -> int:
        return self.weights[-1].shape[1]

    def copy(self) -> "MlpPolicy":
        return MlpPolicy(self.weights, self.biases)


def init_mlp(layer_sizes: list[int], rng: np.random.Generator) -> MlpPolicy:
    """Glorot-uniform weights, zero biases."""
    if len(layer_sizes) < 2 or any(s < 1 for s in layer_sizes):
        raise ShapeMismatch(f"bad layer sizes {layer_sizes}")
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpPolicy(weights, biases)


def _as_batch(policy: MlpPolicy, x: np.ndarray) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != policy.input_size:
        raise ShapeMismatch(f"input shape {x.shape} for input size {policy.input_size}")
    return x, single


def mlp_forward(policy: MlpPolicy, x: np.ndarray) -> np.ndarray:
    """Action values (or logits) for a single observation or a batch."""
    x, single = _as_batch(policy, x)
    h = x
    last = len(policy.weights) - 1
    for i, (w, b) in enumerate(zip(policy.weights, policy.biases)):
        h = h @ w + b
        if i != last:
            h = np.tanh(h)
    return h[0] if single else h


def forward_cached(policy: MlpPolicy, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Batch forward keeping each layer's input for the backward pass."""
    x, single = _as_batch(policy, x)
    if single:
        raise ShapeMismatch("forward_cached expects a batch")
    cache = []
    h = x
    last = len(policy.weights) - 1
    for i, (w, b) in enumerate(zip(policy.weights, policy.biases)):
        cache.append(h)
        h = h @ w + b
        if i != last:
            h = np.tanh(h)
    return h, cache


def mlp_backward(policy: MlpPolicy, cache: list[np.ndarray], grad_out: np.ndarray) -> np.ndarray:
    """Gradient of a scalar loss given dL/d(output), laid out like policy.flat."""
    grad = np.empty_like(policy.flat)
    grad_w, grad_b = _layer_views(policy.layer_sizes, grad)
    delta = np.asarray(grad_out, dtype=float)
    for i in range(len(policy.weights) - 1, -1, -1):
        inputs = cache[i]
        if i != len(policy.weights) - 1:
            # recompute the tanh output of layer i that fed layer i+1
            activated = cache[i + 1]
            delta = delta * (1.0 - activated * activated)
        np.matmul(inputs.T, delta, out=grad_w[i])
        delta.sum(axis=0, out=grad_b[i])
        if i > 0:
            delta = delta @ policy.weights[i].T
    return grad


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax(logits: np.ndarray) -> np.ndarray:
    return np.exp(log_softmax(logits))


def softmax_pair(logits: np.ndarray) -> np.ndarray:
    """softmax of one pair of logits: softmax's float operations without its
    axis reductions, so equal to it bit for bit, in about a third of the time."""
    l0, l1 = logits.tolist()
    shifted = logits - (l0 if l0 > l1 else l1)
    e0, e1 = np.exp(shifted).tolist()
    return np.exp(shifted - np.log(e0 + e1))

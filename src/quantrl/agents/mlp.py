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
    if type(x) is not np.ndarray or x.dtype != np.float64:
        x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != policy.weights[0].shape[0]:
        raise ShapeMismatch(f"input shape {x.shape} for input size {policy.input_size}")
    return x, single


def mlp_forward(policy: MlpPolicy, x: np.ndarray) -> np.ndarray:
    """Action values (or logits) for a single observation or a batch."""
    x, single = _as_batch(policy, x)
    h = x
    for w, b in zip(policy.weights[:-1], policy.biases):
        h = np.tanh(h @ w + b)
    h = h @ policy.weights[-1] + policy.biases[-1]
    return h[0] if single else h


class Workspace:
    """Scratch buffers that ``forward_cached``, ``mlp_backward`` and the losses
    reuse on every call for one network shape and batches of up to ``rows``
    rows: each layer's output, each hidden layer's backward delta and
    ``1 - a*a`` factor, one flat gradient (laid out like ``policy.flat``) with
    per-layer views built once, and the losses' row index ``0..rows-1`` and
    output-gradient buffer. A full batch uses the buffers themselves; a batch
    of n < ``rows`` rows uses their leading n rows, which are C-contiguous like
    freshly allocated arrays, so every matmul sees the shapes and layouts it
    would see without a workspace.

    Aliasing: the output and cache that ``forward_cached`` returns, the
    output gradient a loss writes and the gradient that ``mlp_backward``
    returns are this workspace's buffers. They stay valid only until the next
    call that uses this workspace.
    """

    def __init__(self, policy: MlpPolicy, rows: int):
        if rows < 1:
            raise ShapeMismatch(f"workspace needs at least one row, got {rows}")
        sizes = policy.layer_sizes
        self.rows = rows
        self.outputs = tuple(np.empty((rows, n)) for n in sizes[1:])
        self.deltas = tuple(np.empty((rows, n)) for n in sizes[1:-1])
        self.factors = tuple(np.empty((rows, n)) for n in sizes[1:-1])
        self.loss_buffers = (np.arange(rows), np.empty((rows, sizes[-1])))
        self.grad = np.empty(param_count(sizes))
        self.grad_w, self.grad_b = _layer_views(sizes, self.grad)

    def leading(self, buffers: tuple[np.ndarray, ...], n: int) -> tuple[np.ndarray, ...]:
        """The first n rows of each of these buffers: the buffers themselves
        when n is ``rows``."""
        if not 1 <= n <= self.rows:
            raise ShapeMismatch(f"batch of {n} rows for a workspace of {self.rows}")
        return buffers if n == self.rows else tuple(buf[:n] for buf in buffers)


def forward_cached(policy: MlpPolicy, x: np.ndarray,
                   workspace: Workspace | None = None) -> tuple[np.ndarray, list[np.ndarray]]:
    """Batch forward keeping each layer's input for the backward pass.

    The output and the cached activations live in ``workspace`` (a fresh one
    when none is given); the cache also holds ``x`` itself."""
    x, single = _as_batch(policy, x)
    if single:
        raise ShapeMismatch("forward_cached expects a batch")
    if workspace is None:
        workspace = Workspace(policy, len(x))
    outputs = workspace.leading(workspace.outputs, len(x))
    cache = [x, *outputs[:-1]]
    last = len(outputs) - 1
    for i, (w, b, h) in enumerate(zip(policy.weights, policy.biases, outputs)):
        np.matmul(cache[i], w, out=h)
        h += b
        if i != last:
            np.tanh(h, out=h)
    return outputs[-1], cache


def mlp_backward(policy: MlpPolicy, cache: list[np.ndarray], grad_out: np.ndarray,
                 workspace: Workspace | None = None) -> np.ndarray:
    """Gradient of a scalar loss given dL/d(output), laid out like policy.flat.

    The gradient is ``workspace.grad`` (of a fresh workspace when none is
    given): valid until the workspace's next call."""
    delta = np.asarray(grad_out, dtype=float)
    if workspace is None:
        workspace = Workspace(policy, len(delta))
    deltas = workspace.leading(workspace.deltas, len(delta))
    factors = workspace.leading(workspace.factors, len(delta))
    grad_w, grad_b = workspace.grad_w, workspace.grad_b
    for i in range(len(grad_w) - 1, -1, -1):
        if i != len(grad_w) - 1:
            # the tanh derivative at the output of layer i, which fed layer i+1
            activated, factor = cache[i + 1], factors[i]
            np.multiply(activated, activated, out=factor)
            np.subtract(1.0, factor, out=factor)
            delta *= factor
        np.matmul(cache[i].T, delta, out=grad_w[i])
        delta.sum(axis=0, out=grad_b[i])
        if i > 0:
            delta = np.matmul(delta, policy.weights[i].T, out=deltas[i - 1])
    return workspace.grad


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax(logits: np.ndarray) -> np.ndarray:
    return np.exp(log_softmax(logits))


"""Parameter-update rules on a flat parameter vector: plain SGD (default) and Adam."""

from __future__ import annotations

import numpy as np


class Sgd:
    def __init__(self, lr: float):
        self.lr = lr

    def update(self, params: np.ndarray, grads: np.ndarray) -> None:
        params -= self.lr * grads


class Adam:
    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = 0.0
        self._v = 0.0

    def update(self, params: np.ndarray, grads: np.ndarray) -> None:
        self.t += 1
        bias1 = 1.0 - self.beta1 ** self.t
        bias2 = 1.0 - self.beta2 ** self.t
        self._m = self.beta1 * self._m + (1.0 - self.beta1) * grads
        self._v = self.beta2 * self._v + (1.0 - self.beta2) * grads * grads
        params -= self.lr * (self._m / bias1) / (np.sqrt(self._v / bias2) + self.eps)


def make_optimizer(name: str, lr: float):
    if name == "sgd":
        return Sgd(lr)
    if name == "adam":
        return Adam(lr)
    raise ValueError(f"unknown optimizer {name!r}")

"""Parameter-update rules on a flat parameter vector: plain SGD (default) and Adam.

Both update ``params`` in place through scratch vectors allocated at the
first update, with the float operations of the textbook expressions in
their order, so a step allocates nothing and yields the same bits as the
allocating expressions.
"""

from __future__ import annotations

import numpy as np


class Sgd:
    def __init__(self, lr: float):
        self.lr = lr
        self._step = None

    def update(self, params: np.ndarray, grads: np.ndarray) -> None:
        """params -= lr * grads"""
        if self._step is None:
            self._step = np.empty_like(params)
        np.multiply(grads, self.lr, out=self._step)
        params -= self._step


class Adam:
    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = self._v = self._num = self._den = None

    def update(self, params: np.ndarray, grads: np.ndarray) -> None:
        """m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g;
        params -= lr*(m/bias1) / (sqrt(v/bias2) + eps)"""
        if self._m is None:
            self._m, self._v, self._num, self._den = (np.zeros_like(params) for _ in range(4))
        self.t += 1
        bias1 = 1.0 - self.beta1 ** self.t
        bias2 = 1.0 - self.beta2 ** self.t
        m, v, num, den = self._m, self._v, self._num, self._den
        m *= self.beta1
        np.multiply(grads, 1.0 - self.beta1, out=num)
        m += num
        v *= self.beta2
        np.multiply(grads, 1.0 - self.beta2, out=num)
        num *= grads
        v += num
        np.divide(m, bias1, out=num)
        num *= self.lr
        np.divide(v, bias2, out=den)
        np.sqrt(den, out=den)
        den += self.eps
        num /= den
        params -= num


def make_optimizer(name: str, lr: float):
    if name == "sgd":
        return Sgd(lr)
    if name == "adam":
        return Adam(lr)
    raise ValueError(f"unknown optimizer {name!r}")

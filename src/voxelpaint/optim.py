"""Adam optimizer with bias-corrected moment estimates."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor


class Adam:
    """Keeps first/second moment buffers per parameter and a step counter.

    A parameter whose .grad is None is treated as having a zero gradient;
    its moments still decay, which is ordinary Adam behavior.
    """

    def __init__(self, params: list[Tensor], lr: float = 1e-4,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        b1, b2 = betas
        if not (0.0 <= b1 < 1.0 and 0.0 <= b2 < 1.0):
            raise ValueError(f"betas must lie in [0, 1), got {betas}")
        self.params = list(params)
        self.lr = lr
        self.beta1 = b1
        self.beta2 = b2
        self.eps = eps
        self.step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        c1 = 1.0 - self.beta1 ** t
        c2 = 1.0 - self.beta2 ** t
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            m *= self.beta1
            v *= self.beta2
            if g is not None:
                m += (1.0 - self.beta1) * g
                v += (1.0 - self.beta2) * (g * g)
            m_hat = m / c1
            v_hat = v / c2
            p.data -= (self.lr * m_hat / (np.sqrt(v_hat) + self.eps)).astype(p.data.dtype, copy=False)

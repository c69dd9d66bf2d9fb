"""Adam optimiser (Kingma & Ba) over named numpy parameter dicts."""

from __future__ import annotations

import numpy as np

from repro.errors import TrainingError

__all__ = ["Adam"]


class Adam:
    """Adam with bias correction; lr 0.001 matches Table 2."""

    def __init__(
        self,
        params: dict[str, np.ndarray],
        lr: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        clip: float = 5.0,
    ):
        if lr <= 0:
            raise TrainingError("learning rate must be positive")
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.clip = clip
        self._m = {name: np.zeros_like(p) for name, p in params.items()}
        self._v = {name: np.zeros_like(p) for name, p in params.items()}
        self.steps = 0

    def step(self, grads: dict[str, np.ndarray]) -> None:
        """Apply one update from a gradient dict (missing keys skipped)."""
        self.steps += 1
        t = self.steps
        for name, grad in grads.items():
            if name not in self.params:
                raise TrainingError(f"gradient for unknown parameter {name!r}")
            if self.clip > 0:
                norm = float(np.sqrt((grad * grad).sum()))
                if norm > self.clip:
                    grad = grad * (self.clip / norm)
            m = self._m[name]
            v = self._v[name]
            m *= self.beta1
            m += (1 - self.beta1) * grad
            v *= self.beta2
            v += (1 - self.beta2) * grad * grad
            m_hat = m / (1 - self.beta1**t)
            v_hat = v / (1 - self.beta2**t)
            self.params[name] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def state(self) -> dict:
        """Copies of the moment estimates and the step count."""
        return {
            "m": {name: m.copy() for name, m in self._m.items()},
            "v": {name: v.copy() for name, v in self._v.items()},
            "steps": self.steps,
        }

    def load_state(self, state: dict) -> None:
        """Resume from a :meth:`state` of an optimiser over the same params."""
        for name in self._m:
            self._m[name][...] = state["m"][name]
            self._v[name][...] = state["v"][name]
        self.steps = state["steps"]

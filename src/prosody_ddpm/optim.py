"""Adaptive moment estimation over named parameter dicts.

Parameters are immutable tensors, so a step returns a fresh dict rather
than updating in place; optimizer state is keyed by parameter name and
serializes into checkpoints.
"""

from __future__ import annotations

import numpy as np

from .numerics import Gradients, Tensor


class Adam:
    def __init__(self, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(
        self,
        params: dict[str, Tensor],
        grads: Gradients,
        frozen: frozenset[str] = frozenset(),
    ) -> dict[str, Tensor]:
        """One update; returns the new parameter dict (same key order)."""
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        out: dict[str, Tensor] = {}
        for name, p in params.items():
            if name in frozen:
                out[name] = p
                continue
            g = grads.wrt(p)
            m = self.m.get(name)
            if m is None:
                m = np.zeros_like(p.data)
                v = np.zeros_like(p.data)
                self.m[name] = m
                self.v[name] = v
            else:
                v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            update = (self.lr / bc1) * m / (np.sqrt(v / bc2) + self.eps)
            out[name] = Tensor(p.data - update, _checked_op=None)
        return out

    def load_state(self, t: int, rows: list[tuple[str, np.ndarray, np.ndarray]]) -> None:
        self.t = t
        for name, m, v in rows:
            if m.size:
                self.m[name] = m.copy()
                self.v[name] = v.copy()

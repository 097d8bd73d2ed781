"""Adaptive moment estimation over named parameter dicts.

Parameters are immutable tensors, so a step returns a fresh dict rather
than updating in place; optimizer state is keyed by parameter name and
serializes into checkpoints.  Only the learning rate is configurable; the
decay rates and epsilon are Kingma & Ba's values (arXiv 1412.6980).
"""

from __future__ import annotations

import numpy as np

from .config import OptimizerSection
from .numerics import Gradients, Tensor

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
# Each parameter is updated in runs of this many elements, so that the
# update's passes over a run stay in cache.
CHUNK = 1 << 14


class Adam:
    def __init__(self, config: OptimizerSection):
        self.config = config
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, Tensor], grads: Gradients) -> dict[str, Tensor]:
        """One update; returns the new parameter dict (same key order)."""
        lr = self.config.lr
        self.t += 1
        bc1 = 1.0 - BETA1**self.t
        bc2 = 1.0 - BETA2**self.t
        out: dict[str, Tensor] = {}
        for name, p in params.items():
            g = grads.wrt(p)
            m = self.m.get(name)
            if m is None:
                m = np.zeros_like(p.data)
                v = np.zeros_like(p.data)
                self.m[name] = m
                self.v[name] = v
            else:
                v = self.v[name]
            new = np.empty_like(p.data)
            flat = [a.reshape(-1) for a in (g, m, v, p.data, new)]
            for i in range(0, p.size, CHUNK):
                gi, mi, vi, pi, ni = (a[i : i + CHUNK] for a in flat)
                # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g^2;
                # p - (lr / bc1) m / (sqrt(v / bc2) + eps)
                t = np.multiply(gi, 1.0 - BETA1)
                mi *= BETA1
                mi += t
                np.multiply(gi, gi, out=t)
                t *= 1.0 - BETA2
                vi *= BETA2
                vi += t
                np.divide(vi, bc2, out=t)
                np.sqrt(t, out=t)
                t += EPS
                np.multiply(mi, lr / bc1, out=ni)
                ni /= t
                np.subtract(pi, ni, out=ni)
            out[name] = Tensor(new, _checked_op=None)
        return out

    def load_state(self, t: int, rows: list[tuple[str, np.ndarray, np.ndarray]]) -> None:
        self.t = t
        for name, m, v in rows:
            self.m[name] = m.copy()
            self.v[name] = v.copy()

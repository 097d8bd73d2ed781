"""Deterministic variance-predictor baseline trained with MSE.

Three independent convolutional heads (pitch, energy, log-duration) read
the shared condition vectors; each is two blocks of non-causal kernel-3
convolution, a smooth nonlinearity, layer normalization and dropout,
followed by a linear projection to one value per token.  At inference
dropout is off and the mapping is a pure function of the condition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .numerics import Gradients, Rng, Tape, Tensor

HEADS = ("pitch", "energy", "log_duration")


@dataclass(frozen=True)
class BaselineConfig:
    cond_dim: int = 64
    width: int = 256
    kernel_size: int = 3
    dropout: float = 0.5


class BaselineNet:
    def __init__(self, config: BaselineConfig, params: dict[str, Tensor]):
        self.config = config
        self.params = params

    @classmethod
    def init(cls, config: BaselineConfig, rng: Rng) -> "BaselineNet":
        c = config
        k, w = c.kernel_size, c.width
        params: dict[str, Tensor] = {}
        for head in HEADS:
            params[f"{head}.conv1.w"] = nm.uniform_fanin(rng, (k, c.cond_dim, w), k * c.cond_dim)
            params[f"{head}.conv1.b"] = nm.zeros(w)
            params[f"{head}.ln1.g"] = Tensor(np.ones(w))
            params[f"{head}.ln1.b"] = nm.zeros(w)
            params[f"{head}.conv2.w"] = nm.uniform_fanin(rng, (k, w, w), k * w)
            params[f"{head}.conv2.b"] = nm.zeros(w)
            params[f"{head}.ln2.g"] = Tensor(np.ones(w))
            params[f"{head}.ln2.b"] = nm.zeros(w)
            params[f"{head}.out.w"] = nm.uniform_fanin(rng, (w, 1), w)
            params[f"{head}.out.b"] = nm.zeros(1)
        return cls(c, params)

    def head_forward(self, head: str, cond: Tensor, rng: Rng | None, training: bool) -> Tensor:
        p = self.params
        rate = self.config.dropout
        if training and rate > 0.0 and rng is None:
            raise ValueError("training forward with dropout needs an rng")
        h = nm.silu(nm.conv1d_dilated(cond, p[f"{head}.conv1.w"], p[f"{head}.conv1.b"]))
        h = nm.layer_norm(h, p[f"{head}.ln1.g"], p[f"{head}.ln1.b"])
        h = nm.dropout(h, rate, rng, training)
        h = nm.silu(nm.conv1d_dilated(h, p[f"{head}.conv2.w"], p[f"{head}.conv2.b"]))
        h = nm.layer_norm(h, p[f"{head}.ln2.g"], p[f"{head}.ln2.b"])
        h = nm.dropout(h, rate, rng, training)
        return nm.add(nm.matmul(h, p[f"{head}.out.w"]), p[f"{head}.out.b"])

    def forward(self, cond: Tensor, rng: Rng | None, training: bool) -> Tensor:
        """Predictions ``(..., length, 3)``, one column per head in ``HEADS`` order."""
        return nm.concat([self.head_forward(h, cond, rng, training) for h in HEADS])


def baseline_predict(model: BaselineNet, cond: Tensor) -> np.ndarray:
    """Single deterministic prediction ``(..., length, 3)``; dropout off."""
    return model.forward(cond, None, training=False).data


def baseline_loss_graph(
    model: BaselineNet,
    cond: Tensor,
    target: np.ndarray,
    mask: np.ndarray | None = None,
    rng: Rng | None = None,
    training: bool = True,
) -> Tensor:
    """Mean squared error over unmasked elements, recorded on the active tape."""
    return nm.masked_mse(model.forward(cond, rng, training), target, mask, "baseline_loss")


def baseline_train_step(
    model: BaselineNet,
    cond: Tensor,
    target: np.ndarray,
    mask: np.ndarray | None = None,
    rng: Rng | None = None,
) -> tuple[float, Gradients]:
    """Loss plus gradients for all baseline parameters."""
    with Tape() as tape:
        loss = baseline_loss_graph(model, cond, target, mask, rng, training=True)
    return loss.item(), nm.backward(tape, loss)

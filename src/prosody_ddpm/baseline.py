"""Deterministic variance-predictor baseline trained with MSE.

Three independent convolutional heads (pitch, energy, log-duration) read
the shared condition vectors; each is two blocks of non-causal
convolution, a smooth nonlinearity, layer normalization and dropout,
followed by a linear projection to one value per token.  The heads run
as one network with a head axis: one first conv whose output axis holds
every head's channels, then a second conv and an output projection whose
weights carry a leading head axis (block-diagonal, so the heads stay
independent), and layer normalization per head.  At inference dropout is
off and the mapping is a pure function of the condition.  Inputs are
unpadded, as for the denoiser: every position is a real token.  Sizes
and the dropout rate come from ``[baseline]``; the input width is
``denoiser.cond_dim``, the condition encoder's output.
"""

from __future__ import annotations

import numpy as np

from . import numerics as nm
from .config import Config
from .denoiser import KERNEL
from .numerics import Rng, Tensor

HEADS = ("pitch", "energy", "log_duration")


class BaselineNet:
    def __init__(self, config: Config, params: dict[str, Tensor]):
        self.config = config
        self.params = params

    @classmethod
    def init(cls, config: Config, rng: Rng | None) -> "BaselineNet":
        k, w, n = KERNEL, config.baseline.width, len(HEADS)
        cond_dim = config.denoiser.cond_dim
        conv1 = np.zeros((k, cond_dim, n * w))
        conv2, out = np.zeros((n, k, w, w)), np.zeros((n, w, 1))
        # Each head draws its weights in turn, as a network of its own would.
        # With no rng nothing is written, so the zero pages are never touched.
        for h in range(n if rng is not None else 0):
            conv1[..., h * w : (h + 1) * w] = nm.uniform_fanin(rng, (k, cond_dim, w), k * cond_dim).data
            conv2[h] = nm.uniform_fanin(rng, (k, w, w), k * w).data
            out[h] = nm.uniform_fanin(rng, (w, 1), w).data
        return cls(config, {
            "conv1.w": Tensor(conv1, _checked_op=None),
            "conv1.b": nm.zeros(n * w),
            "ln1.g": Tensor(np.ones((n, w))),
            "ln1.b": nm.zeros((n, w)),
            "conv2.w": Tensor(conv2, _checked_op=None),
            "conv2.b": nm.zeros(n * w),
            "ln2.g": Tensor(np.ones((n, w))),
            "ln2.b": nm.zeros((n, w)),
            "out.w": Tensor(out, _checked_op=None),
            "out.b": nm.zeros(n),
        })

    def head_forward(self, cond: Tensor, rng: Rng | None, training: bool) -> Tensor:
        """All heads at once: ``(..., length, 3)``, one column per head."""
        p = self.params
        rate = self.config.baseline.dropout
        h = nm.conv1d_dilated(cond, p["conv1.w"], p["conv1.b"], act="silu")
        h = nm.dropout(nm.layer_norm(h, p["ln1.g"], p["ln1.b"]), rate, rng, training)
        h = nm.conv1d_dilated(h, p["conv2.w"], p["conv2.b"], act="silu")
        h = nm.dropout(nm.layer_norm(h, p["ln2.g"], p["ln2.b"]), rate, rng, training)
        return nm.matmul(h, p["out.w"], p["out.b"])

    def forward(self, cond: Tensor, rng: Rng | None, training: bool) -> Tensor:
        """Predictions ``(..., length, 3)``, one column per head in ``HEADS`` order."""
        if training and self.config.baseline.dropout > 0.0 and rng is None:
            raise ValueError("training forward with dropout needs an rng")
        return self.head_forward(cond, rng, training)


def baseline_predict(model: BaselineNet, cond: Tensor) -> np.ndarray:
    """Single deterministic prediction ``(..., length, 3)``; dropout off."""
    return model.forward(cond, None, training=False).data


def baseline_loss_graph(
    model: BaselineNet,
    cond: Tensor,
    target: np.ndarray,
    rng: Rng | None = None,
    training: bool = True,
) -> Tensor:
    """Mean squared error over every element, recorded on the active tape."""
    return nm.mse(model.forward(cond, rng, training), target, "baseline_loss")

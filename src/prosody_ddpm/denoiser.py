"""Conditional non-causal WaveNet noise predictor.

The network maps a noisy 3-feature sequence, per-token condition vectors,
and a diffusion step index to a noise estimate of the same shape as the
input.  Ten residual layers of gated dilated convolutions (kernel 3,
channel width 64 by default) with per-layer condition injection follow
the usual conditional-WaveNet recipe; the diffusion step enters as a
sinusoidal embedding passed through a two-layer projection and
broadcast-added to every layer's input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import numerics as nm
from .numerics import Rng, Tensor


def step_embedding(t, dim: int) -> np.ndarray:
    """Sinusoidal encoding of diffusion step ``t``.

    Accepts a scalar step or an integer array ``(batch,)``; returns
    ``(1, 1, dim)`` or ``(batch, 1, dim)`` so it broadcasts over sequence
    positions.  Deterministic function of ``t``.
    """
    if dim % 2 != 0:
        raise ValueError(f"step embedding dim must be even, got {dim}")
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    half = dim // 2
    freq = np.exp(-np.log(10_000.0) * np.arange(half) / max(half - 1, 1))
    ang = t[:, None] * freq[None, :]
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=-1)[:, None, :]


@dataclass(frozen=True)
class ConditionEncoderConfig:
    vocab_size: int
    embed_dim: int = 64
    hidden: int = 256
    cond_dim: int = 64
    kernel_size: int = 3


class ConditionEncoder:
    """Learned per-token condition vectors from token classes and context.

    An embedding table followed by a two-layer non-causal convolutional
    context encoder; trained jointly with whichever predictor consumes it.
    """

    def __init__(self, config: ConditionEncoderConfig, params: dict[str, Tensor]):
        self.config = config
        self.params = params

    @classmethod
    def init(cls, config: ConditionEncoderConfig, rng: Rng) -> "ConditionEncoder":
        c = config
        k = c.kernel_size
        params = {
            "cond.embed": nm.uniform_fanin(rng, (c.vocab_size, c.embed_dim), c.embed_dim),
            "cond.conv1.w": nm.uniform_fanin(rng, (k, c.embed_dim, c.hidden), k * c.embed_dim),
            "cond.conv1.b": nm.zeros(c.hidden),
            "cond.conv2.w": nm.uniform_fanin(rng, (k, c.hidden, c.cond_dim), k * c.hidden),
            "cond.conv2.b": nm.zeros(c.cond_dim),
        }
        return cls(c, params)

    def forward(self, ids: np.ndarray) -> Tensor:
        """Condition vectors for ``ids`` of shape ``(length,)`` or ``(batch, length)``."""
        ids = np.asarray(ids)
        if ids.size and (ids.min() < 0 or ids.max() >= self.config.vocab_size):
            raise ValueError(
                f"unknown token id {int(ids.max() if ids.max() >= self.config.vocab_size else ids.min())}"
                f" for vocabulary of size {self.config.vocab_size}"
            )
        p = self.params
        h = nm.embed_lookup(p["cond.embed"], ids)
        h = nm.silu(nm.conv1d_dilated(h, p["cond.conv1.w"], p["cond.conv1.b"]))
        return nm.conv1d_dilated(h, p["cond.conv2.w"], p["cond.conv2.b"])


@dataclass(frozen=True)
class DenoiserConfig:
    channels: int = 64
    layers: int = 10
    kernel_size: int = 3
    dilation_cycle: tuple[int, ...] = (1, 2, 4, 8, 16)
    cond_dim: int = 64
    step_hidden: int = 256
    features: int = 3

    def dilations(self) -> list[int]:
        return [self.dilation_cycle[i % len(self.dilation_cycle)] for i in range(self.layers)]

    def receptive_field(self) -> int:
        return 1 + (self.kernel_size - 1) * sum(self.dilations())


class Conditioning(NamedTuple):
    """Denoiser inputs that stay fixed over a whole reverse chain."""

    proj: list[Tensor]  # per layer: condition projection, (..., length, 2C)
    skip_b: Tensor  # sum of the per-layer skip biases, (C,)


class Denoiser:
    """Noise predictor ``(x_t, c, t) -> eps_hat`` with ``x_t``-shaped output.

    Each residual layer is DiffWave-shaped: one dilated conv with ``2C``
    outputs (filter and gate), one ``2C``-wide condition projection, a
    single gate primitive, and a residual 1x1.  The per-layer skip 1x1s
    act as one projection of the concatenated gate outputs.  Everything
    that depends only on the condition or the step is computed by
    :meth:`condition` and :meth:`steps`, once per chain (once per step in
    training), and passed to :meth:`forward`.
    """

    def __init__(self, config: DenoiserConfig, params: dict[str, Tensor]):
        self.config = config
        self.params = params

    @classmethod
    def init(cls, config: DenoiserConfig, rng: Rng) -> "Denoiser":
        c = config
        ch, k = c.channels, c.kernel_size

        def fused(shape, fan_in) -> Tensor:
            # Filter then gate (or their condition projections), drawn in
            # that order and joined on the output axis.
            halves = [nm.uniform_fanin(rng, shape, fan_in).data for _ in range(2)]
            return Tensor(np.concatenate(halves, axis=-1), _checked_op=None)

        params: dict[str, Tensor] = {
            "in.w": nm.uniform_fanin(rng, (c.features, ch), c.features),
            "in.b": nm.zeros(ch),
            "step.fc1.w": nm.uniform_fanin(rng, (ch, c.step_hidden), ch),
            "step.fc1.b": nm.zeros(c.step_hidden),
            "step.fc2.w": nm.uniform_fanin(rng, (c.step_hidden, ch), c.step_hidden),
            "step.fc2.b": nm.zeros(ch),
        }
        skip_w = []
        for i in range(c.layers):
            pre = f"layer{i}"
            params[f"{pre}.conv.w"] = fused((k, ch, ch), k * ch)
            params[f"{pre}.conv.b"] = nm.zeros(2 * ch)
            params[f"{pre}.cond.w"] = fused((c.cond_dim, ch), c.cond_dim)
            params[f"{pre}.cond.b"] = nm.zeros(2 * ch)
            # The last layer feeds only the skip aggregation; a residual
            # projection there would be a dead branch.
            if i < c.layers - 1:
                params[f"{pre}.res.w"] = nm.uniform_fanin(rng, (ch, ch), ch)
                params[f"{pre}.res.b"] = nm.zeros(ch)
            skip_w.append(nm.uniform_fanin(rng, (ch, ch), ch).data)
        params["skip.w"] = Tensor(np.concatenate(skip_w, axis=0), _checked_op=None)
        params["skip.b"] = nm.zeros((c.layers, ch))
        params["post.w"] = nm.uniform_fanin(rng, (ch, ch), ch)
        params["post.b"] = nm.zeros(ch)
        # Zero-initialized head so the initial noise estimate is exactly 0,
        # which keeps the first training steps stable.
        params["out.w"] = nm.zeros((ch, c.features))
        params["out.b"] = nm.zeros(c.features)
        return cls(c, params)

    def condition(self, cond: Tensor) -> Conditioning:
        """Chain constants for ``cond`` (``(..., length, cond_dim)``): its
        per-layer projections and the summed skip bias."""
        c, p = self.config, self.params
        if cond.data.ndim < 2 or cond.shape[-1] != c.cond_dim:
            raise nm.ShapeError("denoiser", f"condition {cond.shape} needs {c.cond_dim} channels")
        proj = [
            nm.matmul(cond, p[f"layer{i}.cond.w"], p[f"layer{i}.cond.b"]) for i in range(c.layers)
        ]
        return Conditioning(proj, nm.matmul(Tensor(np.ones(c.layers)), p["skip.b"]))

    def steps(self, t) -> Tensor:
        """Step-MLP output for a scalar step, ``(1, C)``, or an integer array
        of steps, ``(len(t), 1, C)``; either broadcasts over positions."""
        p = self.params
        emb = step_embedding(t, self.config.channels)
        if np.ndim(t) == 0:
            emb = emb[0]
        e = nm.matmul(Tensor(emb), p["step.fc1.w"], p["step.fc1.b"])
        return nm.matmul(nm.silu(e), p["step.fc2.w"], p["step.fc2.b"])

    def forward(self, x_t: Tensor, cond: Conditioning, e: Tensor) -> Tensor:
        """Noise estimate for ``x_t`` of shape ``(..., length, features)``.

        ``cond`` comes from :meth:`condition` and must match ``x_t`` on all
        axes but the last; ``e`` comes from :meth:`steps`.
        """
        c, p = self.config, self.params
        if x_t.shape[-1] != c.features:
            raise nm.ShapeError("denoiser", f"expected {c.features} features, got {x_t.shape}")
        if cond.proj[0].shape[:-1] != x_t.shape[:-1]:
            raise nm.ShapeError(
                "denoiser", f"condition {cond.proj[0].shape} does not match input {x_t.shape}"
            )
        h = nm.relu(nm.matmul(x_t, p["in.w"], p["in.b"]))
        gated = []
        for i, dil in enumerate(c.dilations()):
            pre = f"layer{i}"
            z = nm.conv1d_dilated(nm.add(h, e), p[f"{pre}.conv.w"], p[f"{pre}.conv.b"], dil)
            gated.append(nm.gated_tanh(nm.add(z, cond.proj[i])))
            if i < c.layers - 1:
                h = nm.add(h, nm.matmul(gated[-1], p[f"{pre}.res.w"], p[f"{pre}.res.b"]))
        skip = nm.relu(nm.matmul(nm.concat(gated), p["skip.w"], cond.skip_b))
        out = nm.relu(nm.matmul(skip, p["post.w"], p["post.b"]))
        return nm.matmul(out, p["out.w"], p["out.b"])


def count_parameters(model) -> int:
    """Exact number of scalar parameters in any model with a params dict."""
    return int(np.sum([p.size for p in model.params.values()]))

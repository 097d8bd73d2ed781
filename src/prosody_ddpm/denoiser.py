"""Conditional non-causal WaveNet noise predictor.

The network maps a noisy 3-feature sequence, per-token condition vectors,
and a diffusion step index to a noise estimate of the same shape as the
input.  Residual layers of gated dilated convolutions with per-layer
condition injection follow the usual conditional-WaveNet recipe; the
diffusion step enters as a sinusoidal embedding passed through a
two-layer projection and added once to the residual stream.  Both
networks take their sizes from the run :class:`~prosody_ddpm.config.Config`.
Inputs are unpadded: a batch stacks sequences of one length, and every
position is a real token.
"""

from __future__ import annotations

import numpy as np

from . import numerics as nm
from .config import Config
from .data import DIM_NAMES
from .numerics import Rng, Tensor

# Kernel width of every convolution in all three networks (as in DiffWave).
KERNEL = 3


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


class ConditionEncoder:
    """Learned per-token condition vectors from token classes and context.

    An embedding table followed by a two-layer non-causal convolutional
    context encoder; trained jointly with whichever predictor consumes it.
    """

    def __init__(self, params: dict[str, Tensor]):
        self.params = params

    @classmethod
    def init(cls, config: Config, rng: Rng | None) -> "ConditionEncoder":
        """Sizes come from ``[condition]``, ``data.vocab_size`` and
        ``denoiser.cond_dim`` (the width every network reads)."""
        c, k = config.condition, KERNEL
        vocab, cond_dim = config.data.vocab_size, config.denoiser.cond_dim
        params = {
            "cond.embed": nm.uniform_fanin(rng, (vocab, c.embed_dim), c.embed_dim),
            "cond.conv1.w": nm.uniform_fanin(rng, (k, c.embed_dim, c.hidden), k * c.embed_dim),
            "cond.conv1.b": nm.zeros(c.hidden),
            "cond.conv2.w": nm.uniform_fanin(rng, (k, c.hidden, cond_dim), k * c.hidden),
            "cond.conv2.b": nm.zeros(cond_dim),
        }
        return cls(params)

    def forward(self, ids: np.ndarray) -> Tensor:
        """Condition vectors for ``ids`` of shape ``(length,)`` or ``(batch, length)``."""
        ids = np.asarray(ids)
        p = self.params
        vocab = p["cond.embed"].shape[0]
        if ids.size and (ids.min() < 0 or ids.max() >= vocab):
            raise ValueError(
                f"unknown token id {int(ids.max() if ids.max() >= vocab else ids.min())}"
                f" for vocabulary of size {vocab}"
            )
        h = nm.embed_lookup(p["cond.embed"], ids)
        h = nm.conv1d_dilated(h, p["cond.conv1.w"], p["cond.conv1.b"], act="silu")
        return nm.conv1d_dilated(h, p["cond.conv2.w"], p["cond.conv2.b"])


class Denoiser:
    """Noise predictor ``(x_t, c, t) -> eps_hat`` with ``x_t``-shaped output.

    Each residual layer is DiffWave-shaped: one dilated conv with ``2C``
    outputs (filter and gate) biased by a ``2C``-wide condition projection
    and gated in the same call, and a residual 1x1 that adds itself to the
    stream.  The per-layer skip 1x1s act as one projection of the
    concatenated gate outputs.  Everything
    that depends only on the condition or the step is computed by
    :meth:`condition` and :meth:`steps`, once per chain (once per step in
    training), and passed to :meth:`forward`.  Layer ``i`` dilates by
    ``dilation_cycle[i % len(dilation_cycle)]``.
    """

    def __init__(self, config: Config, params: dict[str, Tensor]):
        self.config = config
        self.params = params

    @classmethod
    def init(cls, config: Config, rng: Rng | None) -> "Denoiser":
        """Sizes come from ``[denoiser]``."""
        c = config.denoiser
        ch, k, f = c.channels, KERNEL, len(DIM_NAMES)

        def fused(shape, fan_in) -> Tensor:
            # Filter then gate (or their condition projections), drawn in
            # that order and joined on the output axis.
            halves = [nm.uniform_fanin(rng, shape, fan_in).data for _ in range(2)]
            return Tensor(np.concatenate(halves, axis=-1), _checked_op=None)

        params: dict[str, Tensor] = {
            "in.w": nm.uniform_fanin(rng, (f, ch), f),
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
            params[f"{pre}.cond.w"] = fused((c.cond_dim, ch), c.cond_dim)
            params[f"{pre}.cond.b"] = nm.zeros(2 * ch)
            # The last layer feeds only the skip aggregation; a residual
            # projection there would be a dead branch.
            if i < c.layers - 1:
                params[f"{pre}.res.w"] = nm.uniform_fanin(rng, (ch, ch), ch)
                params[f"{pre}.res.b"] = nm.zeros(ch)
            skip_w.append(nm.uniform_fanin(rng, (ch, ch), ch).data)
        params["skip.w"] = Tensor(np.concatenate(skip_w, axis=0), _checked_op=None)
        params["skip.b"] = nm.zeros(ch)
        params["post.w"] = nm.uniform_fanin(rng, (ch, ch), ch)
        params["post.b"] = nm.zeros(ch)
        # Zero-initialized head so the initial noise estimate is exactly 0,
        # which keeps the first training steps stable.
        params["out.w"] = nm.zeros((ch, f))
        params["out.b"] = nm.zeros(f)
        return cls(config, params)

    def condition(self, cond: Tensor) -> list[Tensor]:
        """Chain constants for ``cond`` (``(..., length, cond_dim)``): each
        layer's condition projection, ``(..., length, 2C)``, which is that
        layer's conv bias."""
        c, p = self.config.denoiser, self.params
        if cond.data.ndim < 2 or cond.shape[-1] != c.cond_dim:
            raise nm.ShapeError("denoiser", f"condition {cond.shape} needs {c.cond_dim} channels")
        return [nm.matmul(cond, p[f"layer{i}.cond.w"], p[f"layer{i}.cond.b"]) for i in range(c.layers)]

    def steps(self, t) -> Tensor:
        """Step-MLP output for a scalar step, ``(1, C)``, or an integer array
        of steps, ``(len(t), 1, C)``; either broadcasts over positions."""
        p = self.params
        emb = step_embedding(t, self.config.denoiser.channels)
        if np.ndim(t) == 0:
            emb = emb[0]
        e = nm.matmul(Tensor(emb), p["step.fc1.w"], p["step.fc1.b"], act="silu")
        return nm.matmul(e, p["step.fc2.w"], p["step.fc2.b"])

    def forward(self, x_t: Tensor, cond: list[Tensor], e: Tensor) -> Tensor:
        """Noise estimate for ``x_t`` of shape ``(..., length, features)``.

        ``cond`` comes from :meth:`condition` and must match ``x_t`` on all
        axes but the last; ``e`` comes from :meth:`steps`.  ``e`` joins the
        residual stream once, which carries it to every layer's conv.
        """
        c, p = self.config.denoiser, self.params
        if x_t.shape[-1] != len(DIM_NAMES):
            raise nm.ShapeError("denoiser", f"expected {len(DIM_NAMES)} features, got {x_t.shape}")
        if cond[0].shape[:-1] != x_t.shape[:-1]:
            raise nm.ShapeError(
                "denoiser", f"condition {cond[0].shape} does not match input {x_t.shape}"
            )
        h = nm.matmul(x_t, p["in.w"], p["in.b"], act="relu", res=e)
        gated = []
        cycle = c.dilation_cycle
        for i in range(c.layers):
            pre = f"layer{i}"
            dil = cycle[i % len(cycle)]
            gated.append(nm.conv1d_dilated(h, p[f"{pre}.conv.w"], cond[i], dil, act="gate"))
            if i < c.layers - 1:
                h = nm.matmul(gated[-1], p[f"{pre}.res.w"], p[f"{pre}.res.b"], res=h)
        skip = nm.matmul(nm.concat(gated), p["skip.w"], p["skip.b"], act="relu")
        out = nm.matmul(skip, p["post.w"], p["post.b"], act="relu")
        return nm.matmul(out, p["out.w"], p["out.b"])


def count_parameters(model) -> int:
    """Exact number of scalar parameters in any model with a params dict."""
    return int(np.sum([p.size for p in model.params.values()]))

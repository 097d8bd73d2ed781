"""Inference adapters turning trained bundles into evaluation predictors."""

from __future__ import annotations

import numpy as np

from . import diffusion
from .baseline import baseline_predict
from .checkpoint import Checkpoint
from .data import NormStats, ProsodySequence, TokenSequence, denormalize
from .diffusion import NoiseSchedule
from .evaluation import Predictor
from .numerics import Rng, Tensor
from .training import TrainableModel, model_from_checkpoint, schedule_from_config


def ddpm_predictor(
    model: TrainableModel,
    sched: NoiseSchedule,
    stats: NormStats,
    name: str = "ddpm",
) -> Predictor:
    def draw(tokens: TokenSequence, rng: Rng, n: int) -> list[ProsodySequence]:
        # Run the n chains for one utterance in lockstep; same length, so
        # they batch cleanly.
        vec = model.cond.forward(tokens.as_array()).data
        tiled = Tensor(np.broadcast_to(vec, (n,) + vec.shape).copy())
        x0 = diffusion.sample_model_space(model.net, tiled, sched, rng)
        return [denormalize(x0[i], stats) for i in range(n)]

    return Predictor(name=name, stochastic=True, fn=draw)


def baseline_predictor(model: TrainableModel, stats: NormStats, name: str = "baseline") -> Predictor:
    def draw(tokens: TokenSequence, rng: Rng | None, n: int) -> list[ProsodySequence]:
        vec = model.cond.forward(tokens.as_array())
        return [denormalize(baseline_predict(model.net, vec), stats)] * n

    return Predictor(name=name, stochastic=False, fn=draw)


def predictor_from_checkpoint(ck: Checkpoint, name: str | None = None) -> Predictor:
    model = model_from_checkpoint(ck)
    if ck.kind == "ddpm":
        return ddpm_predictor(
            model, schedule_from_config(ck.config), ck.stats, name or ck.kind
        )
    return baseline_predictor(model, ck.stats, name or ck.kind)

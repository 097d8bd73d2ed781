"""Training orchestration for the diffusion predictor and the baseline.

A trainable model is a condition encoder plus a prediction network whose
parameter dicts share one flat namespace (``cond.*`` for the encoder).
Each step draws a batch of train utterances of one length, with
replacement (see :func:`draw_batch`), so no padding reaches a network and
no mask is needed.  All randomness flows through a single checkpointed
stream, so an interrupted run resumed from its last checkpoint finishes
bit-identically to an uninterrupted one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffusion, numerics as nm
from .baseline import BaselineNet, baseline_loss_graph
from .checkpoint import Checkpoint
from .config import Config, ConfigError, canonical_text
from .data import Corpus, NormStats, assign_splits, compute_norm_stats, normalize
from .denoiser import ConditionEncoder, Denoiser
from .diffusion import NoiseSchedule, linear_schedule
from .numerics import Rng, Tape, Tensor
from .optim import Adam


class TrainingDiverged(RuntimeError):
    def __init__(self, step: int):
        super().__init__(f"training loss became non-finite at step {step}; last checkpoint kept")
        self.step = step


def schedule_from_config(config: Config) -> NoiseSchedule:
    s = config.schedule
    return linear_schedule(s.steps, s.beta_start, s.beta_end)


@dataclass
class TrainableModel:
    """Condition encoder + prediction network over one parameter namespace."""

    kind: str
    cond: ConditionEncoder
    net: Denoiser | BaselineNet

    @property
    def params(self) -> dict[str, Tensor]:
        return {**self.cond.params, **self.net.params}

    def replace_params(self, new: dict[str, Tensor]) -> None:
        self.cond.params = {k: new[k] for k in self.cond.params}
        self.net.params = {k: new[k] for k in self.net.params}


def init_model(config: Config, kind: str, rng: Rng | None) -> TrainableModel:
    """Draw the condition encoder, then the network, from ``rng``; with
    ``rng=None`` nothing is drawn and every weight is zero."""
    nets = {"ddpm": Denoiser, "baseline": BaselineNet}
    if kind not in nets:
        raise ValueError(f"unknown model kind {kind!r}")
    cond = ConditionEncoder.init(config, rng)
    return TrainableModel(kind=kind, cond=cond, net=nets[kind].init(config, rng))


def model_from_checkpoint(ck: Checkpoint) -> TrainableModel:
    """The checkpoint's model; its parameters must have the names and shapes
    its stored config gives."""
    model = init_model(ck.config, ck.kind, None)
    what = "checkpoint does not match its config topology"
    if set(ck.params) != set(model.params):
        raise ConfigError(f"{what}: parameter names do not match")
    for k, p in model.params.items():
        got = ck.params[k].shape
        if got != p.shape:
            raise ConfigError(f"{what}: parameter {k!r} has shape {got}, not {p.shape}")
    model.replace_params(ck.params)
    return model


@dataclass
class PreparedCorpus:
    corpus: Corpus
    stats: NormStats
    token_ids: list[np.ndarray]
    targets: list[np.ndarray]  # model-space (length, 3) per train utterance
    by_length: dict[int, np.ndarray]  # length -> indices of the train utterances of that length


def prepare_corpus(config: Config, corpus: Corpus) -> PreparedCorpus:
    tagged = assign_splits(corpus, config.data.split_seed, config.data.holdout_fraction)
    max_id = max(max(u.tokens.ids) for u in tagged.utterances)
    if max_id >= config.data.vocab_size:
        raise ConfigError(
            f"corpus contains token id {max_id} but data.vocab_size is {config.data.vocab_size}"
        )
    train = tagged.subset("train")
    rows = [u.prosody.features() for u in train]
    stats = compute_norm_stats(rows)
    by_length: dict[int, list[int]] = {}
    for i, r in enumerate(rows):
        by_length.setdefault(len(r), []).append(i)
    return PreparedCorpus(
        corpus=tagged,
        stats=stats,
        token_ids=[u.tokens.as_array() for u in train],
        targets=[normalize(r, stats) for r in rows],
        by_length={n: np.array(ix) for n, ix in by_length.items()},
    )


def draw_batch(prep: PreparedCorpus, rng: Rng, size: int) -> np.ndarray:
    """Indices of ``size`` train utterances of one length.

    The first is uniform over the train split; the rest are drawn with
    replacement from the utterances of its length.  So every utterance
    has probability ``1/N`` in every slot, and nothing needs padding.
    """
    first = int(rng.integers(0, len(prep.token_ids)))
    group = prep.by_length[len(prep.token_ids[first])]
    return np.concatenate(([first], group[rng.integers(0, len(group), size - 1)]))


def _assemble_batch(prep: PreparedCorpus, idxs: np.ndarray):
    """Stack the utterances ``idxs``, all of one length, as ``(ids, x0)``."""
    return np.stack([prep.token_ids[i] for i in idxs]), np.stack([prep.targets[i] for i in idxs])


def make_checkpoint(
    config: Config, model: TrainableModel, optimizer: Adam, rng: Rng, step: int, stats: NormStats
) -> Checkpoint:
    return Checkpoint(
        kind=model.kind,
        config=config,
        step=step,
        params=model.params,
        stats=stats,
        rng_state=rng.state(),
        opt_t=optimizer.t,
        # Moment buffers are updated in place by Adam; snapshot copies.
        opt_m={k: v.copy() for k, v in optimizer.m.items()},
        opt_v={k: v.copy() for k, v in optimizer.v.items()},
    )


def _loss_and_grads(model: TrainableModel, kind: str, sched, rng: Rng, ids, x0):
    """One step's loss and leaf gradients.

    The step's tape and the forward values it holds are freed on return,
    before the optimizer allocates its temporaries.
    """
    with Tape() as tape:
        cvec = model.cond.forward(ids)
        if kind == "ddpm":
            t = rng.integers(1, sched.steps + 1, len(ids))
            eps = rng.normal(x0.shape)
            loss = diffusion.training_loss_graph(model.net, x0, cvec, t, eps, sched)
        else:
            loss = baseline_loss_graph(model.net, cvec, x0, rng=rng, training=True)
    return loss, nm.backward(tape, loss)


def train_model(
    config: Config,
    corpus: Corpus,
    kind: str,
    resume: Checkpoint | None = None,
    steps: int | None = None,
    on_checkpoint=None,
    on_log=None,
) -> tuple[Checkpoint, list[tuple[int, float]]]:
    """Run the training loop; returns the final checkpoint and loss log.

    ``on_checkpoint`` receives periodic checkpoints (including the one
    that is kept when the loss diverges); ``on_log`` receives
    ``(step, loss)`` rows at the configured cadence.
    """
    prep = prepare_corpus(config, corpus)
    sched = schedule_from_config(config) if kind == "ddpm" else None
    total_steps = config.train.steps if steps is None else steps
    optimizer = Adam(config.optimizer)

    if resume is not None:
        if resume.kind != kind:
            raise ConfigError(f"checkpoint is a {resume.kind!r} model, requested {kind!r}")
        if canonical_text(resume.config) != canonical_text(config):
            raise ConfigError("checkpoint config conflicts with the requested config")
        if not resume.stats.equals(prep.stats):
            raise ConfigError("checkpoint normalization statistics do not match the corpus")
        model = model_from_checkpoint(resume)
        rng = Rng(config.train.seed)
        rng.set_state(resume.rng_state)
        optimizer.load_state(
            resume.opt_t, [(k, resume.opt_m[k], resume.opt_v[k]) for k in resume.opt_m]
        )
        start_step = resume.step
    else:
        rng = Rng(config.train.seed)
        model = init_model(config, kind, rng)
        start_step = 0

    log: list[tuple[int, float]] = []
    batch = config.optimizer.batch_size

    step = start_step
    while step < total_steps:
        ids, x0 = _assemble_batch(prep, draw_batch(prep, rng, batch))
        # Primitives check their outputs: a non-finite loss or gradient raises here.
        try:
            loss, grads = _loss_and_grads(model, kind, sched, rng, ids, x0)
        except nm.NonFiniteError as e:
            raise TrainingDiverged(step + 1) from e
        model.replace_params(optimizer.step(model.params, grads))
        del grads  # not held through the next step's forward and backward
        step += 1
        if step % config.train.log_every == 0 or step == total_steps:
            log.append((step, loss.item()))
            if on_log is not None:
                on_log(*log[-1])
        every = config.train.checkpoint_every
        if on_checkpoint is not None and every and step % every == 0 and step < total_steps:
            on_checkpoint(make_checkpoint(config, model, optimizer, rng, step, prep.stats))

    final = make_checkpoint(config, model, optimizer, rng, step, prep.stats)
    if on_checkpoint is not None:
        on_checkpoint(final)
    return final, log

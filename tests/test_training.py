"""Exact-length training batches: the sampling rule of ``train_model``."""

import numpy as np
import pytest

import prosody_ddpm.training as training
from prosody_ddpm.config import default_config
from prosody_ddpm.data import Corpus, desk_bench_spec, generate_corpus, normalize
from prosody_ddpm.numerics import Rng
from prosody_ddpm.training import draw_batch, prepare_corpus, train_model

TINY = [
    ("schedule.steps", "20"),
    ("denoiser.channels", "8"),
    ("denoiser.layers", "2"),
    ("denoiser.dilation_cycle", "1,2"),
    ("denoiser.cond_dim", "8"),
    ("denoiser.step_hidden", "16"),
    ("condition.embed_dim", "8"),
    ("condition.hidden", "16"),
    ("baseline.width", "12"),
    ("data.vocab_size", "6"),
    ("data.holdout_fraction", "0.3"),
    ("optimizer.batch_size", "5"),
    ("train.log_every", "10"),
    ("train.checkpoint_every", "0"),
]


@pytest.fixture(scope="module")
def corpus():
    """Length groups of very different sizes, and four lengths with one
    utterance each, so some length has a single train utterance."""
    spec = desk_bench_spec(6)
    groups = [(50, 4), (15, 6), (3, 9)] + [(1, n) for n in (10, 11, 12, 13)]
    utts = [
        u
        for i, (count, n) in enumerate(groups)
        for u in generate_corpus(spec, count, (n, n), Rng((31, i))).utterances
    ]
    return Corpus(utts)


@pytest.fixture(scope="module")
def prep(corpus):
    return prepare_corpus(default_config(TINY), corpus)


@pytest.fixture(scope="module", params=["ddpm", "baseline"])
def batches(request, corpus):
    """Every ``(ids, x0)`` a 40-step run assembles."""
    seen = []
    real = training._assemble_batch

    def spy(prep, idxs):
        seen.append(real(prep, idxs))
        return seen[-1]

    mp = pytest.MonkeyPatch()
    mp.setattr(training, "_assemble_batch", spy)
    try:
        train_model(default_config(TINY + [("train.steps", "40")]), corpus, request.param)
    finally:
        mp.undo()
    return seen


def test_every_batch_has_one_length(batches):
    assert len(batches) == 40
    for ids, x0 in batches:
        assert ids.shape == x0.shape[:-1] and ids.shape[0] == 5
    assert len({ids.shape[1] for ids, _ in batches}) > 1  # lengths do vary across batches


def test_only_train_utterances_are_drawn(batches, prep):
    # Each drawn row is the normalized prosody of a train utterance, never of
    # a held-out one (normalized with the same train statistics).
    def rows(utts):
        return {normalize(u.prosody.features(), prep.stats).tobytes() for u in utts}

    train = rows(prep.corpus.subset("train"))
    held_out = rows(prep.corpus.subset("val") + prep.corpus.subset("test"))
    assert held_out and not held_out & train
    drawn = {row.tobytes() for _, x0 in batches for row in x0}
    assert drawn <= train


def test_lone_length_batch_repeats_its_utterance(prep):
    lone = {n: g[0] for n, g in prep.by_length.items() if len(g) == 1}
    assert lone
    rng = Rng(5)
    hits = 0
    for _ in range(2000):
        idxs = draw_batch(prep, rng, 5)
        n = len(prep.token_ids[idxs[0]])
        if n in lone:
            hits += 1
            assert idxs.tolist() == [lone[n]] * 5
            ids, x0 = training._assemble_batch(prep, idxs)
            assert (ids == prep.token_ids[lone[n]]).all() and (x0 == prep.targets[lone[n]]).all()
    assert hits > 0


def test_every_slot_draws_each_utterance_with_probability_one_over_n(prep):
    # 20000 batches of 16 from N train utterances: a (slot, utterance) count
    # is Binomial(20000, 1/N), about 5 standard deviations inside 25% of its
    # mean at this N.  Drawing a length first and then an utterance of that
    # length would give the lone utterances several times 1/N.
    n, draws, size = len(prep.token_ids), 20000, 16
    rng = Rng(9)
    idxs = np.stack([draw_batch(prep, rng, size) for _ in range(draws)])
    counts = np.stack([np.bincount(idxs[:, s], minlength=n) for s in range(size)])
    freq = counts / draws
    assert np.abs(freq * n - 1.0).max() < 0.25
    # The fill slots are independent draws with replacement, not copies of
    # the first: in the largest group, two fill slots agree with probability
    # 1/|group|.
    big = max(prep.by_length.values(), key=len)
    in_big = np.isin(idxs[:, 0], big)
    same = np.mean(idxs[in_big, 1] == idxs[in_big, 2])
    assert same == pytest.approx(1 / len(big), abs=0.02)

"""Denoiser topology, condition encoder, and parameter accounting."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import prosody_ddpm.numerics as nm
from prosody_ddpm.config import (
    ConditionSection,
    Config,
    DataSection,
    DenoiserSection,
    OptimizerSection,
)
from prosody_ddpm.denoiser import (
    KERNEL,
    ConditionEncoder,
    Denoiser,
    count_parameters,
    step_embedding,
)
from prosody_ddpm.diffusion import linear_schedule, training_loss_graph
from prosody_ddpm.numerics import Rng, Tape, Tensor
from prosody_ddpm.optim import Adam

SMALL = Config(
    denoiser=DenoiserSection(channels=8, layers=3, dilation_cycle=(1, 2), cond_dim=6, step_hidden=12),
    condition=ConditionSection(embed_dim=6, hidden=10),
    data=DataSection(vocab_size=5),
)


def run(den, x, cond, t):
    return den.forward(x, den.condition(cond), den.steps(t))


def small_models(seed=0):
    rng = Rng(seed)
    den = Denoiser.init(SMALL, rng)
    enc = ConditionEncoder.init(SMALL, rng)
    return den, enc


class TestForward:
    def test_minimal_length(self, rng):
        den, enc = small_models()
        cond = enc.forward(np.array([2]))
        out = run(den, Tensor(rng.normal((1, 3))), cond, 4)
        assert out.shape == (1, 3)

    def test_output_matches_input_shape(self, rng):
        den, enc = small_models()
        for shape in [(7, 3), (2, 5, 3)]:
            ids = np.zeros(shape[:-1], dtype=np.int64)
            out = run(den, Tensor(rng.normal(shape)), enc.forward(ids), 9)
            assert out.shape == shape

    def test_step_embedding_is_live(self, rng):
        den, enc = small_models()
        # jitter the zero head so the output is nonzero
        den.params["out.w"] = Tensor(rng.normal((8, 3)) * 0.2)
        x = Tensor(rng.normal((4, 3)))
        cond = enc.forward(np.array([0, 1, 2, 3]))
        a = run(den, x, cond, 1).data
        b = run(den, x, cond, 37).data
        assert np.abs(a - b).max() > 1e-9

    def test_interior_translation_equivariance(self, rng):
        den, enc = small_models()
        den.params["out.w"] = Tensor(rng.normal((8, 3)) * 0.2)
        d = SMALL.denoiser
        dilations = [d.dilation_cycle[i % len(d.dilation_cycle)] for i in range(d.layers)]
        rf = 1 + (KERNEL - 1) * sum(dilations)
        n, k = 40, 5
        pattern_ids = rng.integers(0, 5, 20)
        ids1 = np.zeros(n, dtype=np.int64)
        ids2 = np.zeros(n, dtype=np.int64)
        ids1[5 : 5 + 20] = pattern_ids
        ids2[5 + k : 5 + k + 20] = pattern_ids
        base = rng.normal((20, 3))
        x1 = np.zeros((n, 3))
        x2 = np.zeros((n, 3))
        x1[5 : 5 + 20] = base
        x2[5 + k : 5 + k + 20] = base
        y1 = run(den, Tensor(x1), enc.forward(ids1), 11).data
        y2 = run(den, Tensor(x2), enc.forward(ids2), 11).data
        lo, hi = 5 + rf, 5 + 20 - rf
        np.testing.assert_allclose(y1[lo:hi], y2[lo + k : hi + k], atol=1e-10)

    def test_condition_shape_mismatch(self, rng):
        den, enc = small_models()
        with pytest.raises(nm.ShapeError, match="condition"):
            run(den, Tensor(rng.normal((4, 3))), enc.forward(np.array([0, 1])), 3)

    def test_deterministic_forward(self, rng):
        den, enc = small_models()
        x = Tensor(rng.normal((6, 3)))
        cond = enc.forward(np.arange(5) % 5)
        with pytest.raises(nm.ShapeError):
            run(den, x, cond, 2)  # length mismatch 6 vs 5
        cond = enc.forward(np.arange(6) % 5)
        np.testing.assert_array_equal(run(den, x, cond, 2).data, run(den, x, cond, 2).data)


def test_forward_tape_does_only_input_dependent_work(rng):
    # One reverse step at six layers records 16 primitives.  Each linear op
    # takes its activation and residual add as an epilogue: the input
    # projection its ReLU and the step features, each conv its gate, each
    # residual 1x1 its add to the stream, and the skip and post projections
    # their ReLUs.
    cfg = Config(denoiser=replace(SMALL.denoiser, layers=6, dilation_cycle=(1, 2, 4)))
    den = Denoiser.init(cfg, Rng(0))
    cond = den.condition(Tensor(rng.normal((2, 5, 6))))
    e = den.steps(np.array([3, 9]))
    with Tape() as tape:
        den.forward(Tensor(rng.normal((2, 5, 3))), cond, e)
    ops = Counter(op for op, _, _ in tape.records)
    assert ops == {"matmul": 9, "conv1d_dilated": 6, "concat": 1}


def test_step_mlp_and_condition_encoder_tapes(rng):
    # The step MLP's SiLU and the encoder's first-conv SiLU are epilogues.
    den, enc = small_models()
    with Tape() as tape:
        den.steps(np.array([3, 9]))
    assert [op for op, _, _ in tape.records] == ["matmul", "matmul"]
    with Tape() as tape:
        enc.forward(np.array([[0, 1, 2], [4, 3, 1]]))
    assert [op for op, _, _ in tape.records] == ["embed_lookup", "conv1d_dilated", "conv1d_dilated"]


def test_condition_tape_is_one_matmul_per_layer(rng):
    # Each layer's condition projection carries the layer's only conv bias,
    # so the chain constants are six biased matmuls and nothing else.
    cfg = Config(denoiser=replace(SMALL.denoiser, layers=6, dilation_cycle=(1, 2, 4)))
    den = Denoiser.init(cfg, Rng(0))
    with Tape() as tape:
        proj = den.condition(Tensor(rng.normal((2, 5, 6))))
    assert Counter(op for op, _, _ in tape.records) == {"matmul": 6}
    assert [p.shape for p in proj] == [(2, 5, 16)] * 6


class TestStepEmbedding:
    def test_deterministic_function_of_t(self):
        np.testing.assert_array_equal(step_embedding(13, 16), step_embedding(13, 16))
        assert np.abs(step_embedding(13, 16) - step_embedding(14, 16)).max() > 0

    def test_shapes(self):
        assert step_embedding(3, 16).shape == (1, 1, 16)
        assert step_embedding(np.array([3, 5]), 16).shape == (2, 1, 16)

    def test_odd_dim_rejected(self):
        with pytest.raises(ValueError, match="even"):
            step_embedding(3, 15)


class TestConditionEncoder:
    def test_identical_tokens_identical_condition(self):
        _, enc = small_models()
        ids = np.array([1, 3, 2, 2])
        np.testing.assert_array_equal(enc.forward(ids).data, enc.forward(ids).data)

    def test_cond_dim_default_matches_channels(self):
        cfg = Config()
        assert cfg.denoiser.cond_dim == cfg.denoiser.channels == 64
        assert ConditionEncoder.init(cfg, Rng(0)).forward(np.array([0])).shape == (1, 64)

    def test_one_token_perturbation_changes_condition(self, rng):
        _, enc = small_models(seed=3)
        base = np.array([0, 1, 2, 3, 4, 0, 1, 2])
        other = base.copy()
        other[4] = 3
        a = enc.forward(base).data
        b = enc.forward(other).data
        assert np.abs(a[4] - b[4]).max() > 1e-9

    def test_unknown_token_id(self):
        _, enc = small_models()
        with pytest.raises(ValueError, match="unknown token id"):
            enc.forward(np.array([0, 5]))
        with pytest.raises(ValueError, match="unknown token id"):
            enc.forward(np.array([-1]))


class TestParameterAccounting:
    def test_single_linear_layer_count(self):
        class Tiny:
            params = {"w": Tensor(np.zeros((3, 64))), "b": Tensor(np.zeros(64))}

        assert count_parameters(Tiny()) == 3 * 64 + 64

    def test_default_topology_closed_form(self):
        # Independent hand count over the declared topology.
        den = Denoiser.init(Config(), Rng(0))
        cfg, features = Config().denoiser, 3
        ch, k, d, h = cfg.channels, KERNEL, cfg.cond_dim, cfg.step_hidden
        per_layer = (
            2 * k * ch * ch  # filter and gate dilated convs, biased by the condition projection
            + 2 * (d * ch + ch)  # condition projections for filter and gate
            + ch * ch  # skip 1x1
        )
        expect = (
            (features * ch + ch)  # input projection
            + (ch * h + h) + (h * ch + ch)  # step embedding projections
            + cfg.layers * per_layer
            + ch  # one skip bias shared by every layer's skip 1x1
            + (cfg.layers - 1) * (ch * ch + ch)  # residual 1x1 (absent on the last layer)
            + (ch * ch + ch)  # post-skip 1x1
            + (ch * features + features)  # output head
        )
        assert count_parameters(den) == expect

    def test_default_predictor_total_in_expected_range(self):
        den = Denoiser.init(Config(), Rng(0))
        enc = ConditionEncoder.init(Config(), Rng(0))
        total = count_parameters(den) + count_parameters(enc)
        assert 5e5 <= total <= 1.2e6, total


class TestGradientFlow:
    def test_every_parameter_group_reached(self, rng):
        # The head starts at zero, so the trunk sees gradients from the
        # second step on; after one update every group must be live.
        den, enc = small_models(seed=1)
        sched = linear_schedule(30, 1e-3, 0.2)
        ids = np.array([[0, 1, 2, 3, 4]])
        opt = Adam(OptimizerSection(lr=1e-3))
        last = None
        for _ in range(2):
            x0 = rng.normal((1, 5, 3))
            eps = rng.normal((1, 5, 3))
            with Tape() as tape:
                cvec = enc.forward(ids)
                loss = training_loss_graph(den, x0, cvec, rng.integers(1, 31, 1), eps, sched)
            grads = nm.backward(tape, loss)
            merged = {**enc.params, **den.params}
            new = opt.step(merged, grads)
            enc.params = {k: new[k] for k in enc.params}
            den.params = {k: new[k] for k in den.params}
            last = {k: np.abs(grads.wrt(p)).max() for k, p in merged.items()}
        dead = [k for k, v in last.items() if v == 0.0]
        assert not dead, f"dead parameter groups: {dead}"


# -- unfused reference ------------------------------------------------------
#
# The denoiser as first written: separate filter/gate convs and condition
# projections per layer, one skip 1x1 per layer, and the condition and step
# projections recomputed on every call.  The fused model must compute the
# same function from the same seed.  The reference's biases come in groups
# that act only through their sum (a layer's conv and condition biases;
# the per-layer skip biases), and the fused model keeps one bias per group.


def _reference_init(c: DenoiserSection, rng: Rng) -> dict:
    ch, k = c.channels, KERNEL
    params = {
        "in.w": nm.uniform_fanin(rng, (3, ch), 3),
        "in.b": nm.zeros(ch),
        "step.fc1.w": nm.uniform_fanin(rng, (ch, c.step_hidden), ch),
        "step.fc1.b": nm.zeros(c.step_hidden),
        "step.fc2.w": nm.uniform_fanin(rng, (c.step_hidden, ch), c.step_hidden),
        "step.fc2.b": nm.zeros(ch),
    }
    for i in range(c.layers):
        pre = f"layer{i}"
        params[f"{pre}.filter.w"] = nm.uniform_fanin(rng, (k, ch, ch), k * ch)
        params[f"{pre}.filter.b"] = nm.zeros(ch)
        params[f"{pre}.gate.w"] = nm.uniform_fanin(rng, (k, ch, ch), k * ch)
        params[f"{pre}.gate.b"] = nm.zeros(ch)
        params[f"{pre}.cond_f.w"] = nm.uniform_fanin(rng, (c.cond_dim, ch), c.cond_dim)
        params[f"{pre}.cond_f.b"] = nm.zeros(ch)
        params[f"{pre}.cond_g.w"] = nm.uniform_fanin(rng, (c.cond_dim, ch), c.cond_dim)
        params[f"{pre}.cond_g.b"] = nm.zeros(ch)
        if i < c.layers - 1:
            params[f"{pre}.res.w"] = nm.uniform_fanin(rng, (ch, ch), ch)
            params[f"{pre}.res.b"] = nm.zeros(ch)
        params[f"{pre}.skip.w"] = nm.uniform_fanin(rng, (ch, ch), ch)
        params[f"{pre}.skip.b"] = nm.zeros(ch)
    params["post.w"] = nm.uniform_fanin(rng, (ch, ch), ch)
    params["post.b"] = nm.zeros(ch)
    params["out.w"] = nm.zeros((ch, 3))
    params["out.b"] = nm.zeros(3)
    return params


def _reference_forward(c: DenoiserSection, p: dict, x_t, cond, t):
    emb = step_embedding(t, c.channels)
    if x_t.data.ndim == 2:
        emb = emb[0]
    e = nm.add(nm.matmul(Tensor(emb), p["step.fc1.w"]), p["step.fc1.b"])
    e = nm.add(nm.matmul(nm.mul(e, nm.sigmoid(e)), p["step.fc2.w"]), p["step.fc2.b"])
    h = nm.relu(nm.add(nm.matmul(x_t, p["in.w"]), p["in.b"]))
    skip_sum = None
    for i in range(c.layers):
        pre = f"layer{i}"
        dil = c.dilation_cycle[i % len(c.dilation_cycle)]
        inp = nm.add(h, e)
        f = nm.conv1d_dilated(inp, p[f"{pre}.filter.w"], p[f"{pre}.filter.b"], dilation=dil)
        f = nm.add(f, nm.add(nm.matmul(cond, p[f"{pre}.cond_f.w"]), p[f"{pre}.cond_f.b"]))
        g = nm.conv1d_dilated(inp, p[f"{pre}.gate.w"], p[f"{pre}.gate.b"], dilation=dil)
        g = nm.add(g, nm.add(nm.matmul(cond, p[f"{pre}.cond_g.w"]), p[f"{pre}.cond_g.b"]))
        gated = nm.mul(nm.tanh(f), nm.sigmoid(g))
        if i < c.layers - 1:
            h = nm.add(h, nm.add(nm.matmul(gated, p[f"{pre}.res.w"]), p[f"{pre}.res.b"]))
        s = nm.add(nm.matmul(gated, p[f"{pre}.skip.w"]), p[f"{pre}.skip.b"])
        skip_sum = s if skip_sum is None else nm.add(skip_sum, s)
    out = nm.relu(nm.add(nm.matmul(nm.relu(skip_sum), p["post.w"]), p["post.b"]))
    return nm.add(nm.matmul(out, p["out.w"]), p["out.b"])


def _fuse(c: DenoiserSection, ref: dict, join=sum) -> dict:
    """Arrays of the unfused layout rearranged into the fused one; each
    group of redundant bias copies becomes ``join`` of the copies."""
    cat = np.concatenate
    out = {k: ref[k] for k in ("in.w", "in.b", "step.fc1.w", "step.fc1.b", "step.fc2.w",
                               "step.fc2.b")}
    for i in range(c.layers):
        pre = f"layer{i}"
        out[f"{pre}.conv.w"] = cat([ref[f"{pre}.filter.w"], ref[f"{pre}.gate.w"]], axis=-1)
        out[f"{pre}.cond.w"] = cat([ref[f"{pre}.cond_f.w"], ref[f"{pre}.cond_g.w"]], axis=-1)
        out[f"{pre}.cond.b"] = join([cat([ref[f"{pre}.cond_f.b"], ref[f"{pre}.cond_g.b"]]),
                                     cat([ref[f"{pre}.filter.b"], ref[f"{pre}.gate.b"]])])
        if i < c.layers - 1:
            out[f"{pre}.res.w"] = ref[f"{pre}.res.w"]
            out[f"{pre}.res.b"] = ref[f"{pre}.res.b"]
    out["skip.w"] = cat([ref[f"layer{i}.skip.w"] for i in range(c.layers)], axis=0)
    out["skip.b"] = join([ref[f"layer{i}.skip.b"] for i in range(c.layers)])
    for k in ("post.w", "post.b", "out.w", "out.b"):
        out[k] = ref[k]
    return out


def test_matches_unfused_reference(rng):
    # Dilation 4 reaches past a 3-token input, so skipped taps are covered;
    # the fourth layer wraps around the dilation cycle.
    cfg = DenoiserSection(channels=8, layers=4, dilation_cycle=(1, 2, 4), cond_dim=6, step_hidden=12)
    ref = _reference_init(cfg, Rng(5))
    den = Denoiser.init(Config(denoiser=cfg), Rng(5))
    fused_init = _fuse(cfg, {k: v.data for k, v in ref.items()})
    assert list(den.params) == list(fused_init)
    for k, v in fused_init.items():
        np.testing.assert_array_equal(den.params[k].data, v, err_msg=k)

    # Nonzero biases and head, so every parameter carries gradient.
    ref = {k: Tensor(v.data + rng.normal(v.shape) * 0.1) for k, v in ref.items()}
    den.params = {k: Tensor(v) for k, v in _fuse(cfg, {k: v.data for k, v in ref.items()}).items()}
    for shape, t in [((6, 3), 1), ((6, 3), 17), ((2, 3, 3), np.array([4, 250])),
                     ((3, 5, 3), np.array([1, 60, 999]))]:
        x = Tensor(rng.normal(shape))
        cond = Tensor(rng.normal(shape[:-1] + (6,)))
        weights = Tensor(rng.normal(shape))
        with Tape() as tape:
            want = _reference_forward(cfg, ref, x, cond, t)
            loss = nm.sum(nm.mul(want, weights))
        want_grads = nm.backward(tape, loss)
        with Tape() as tape:
            got = run(den, x, cond, t)
            loss = nm.sum(nm.mul(got, weights))
        got_grads = nm.backward(tape, loss)
        np.testing.assert_allclose(got.data, want.data, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got_grads.wrt(x), want_grads.wrt(x), rtol=0, atol=1e-12)
        np.testing.assert_allclose(got_grads.wrt(cond), want_grads.wrt(cond), rtol=0, atol=1e-12)
        # A fused bias's gradient equals that of each reference copy it
        # replaces, so the copies were one parameter.
        want_fused = _fuse(cfg, {k: want_grads.wrt(v) for k, v in ref.items()}, join=list)
        for k, p in den.params.items():
            copies = want_fused[k] if isinstance(want_fused[k], list) else [want_fused[k]]
            for want in copies:
                np.testing.assert_allclose(
                    got_grads.wrt(p), want, rtol=0, atol=1e-12, err_msg=f"{shape} {k}"
                )

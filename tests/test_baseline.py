"""Deterministic MSE baseline: prediction contract, loss, mean collapse."""

import numpy as np
import pytest

import prosody_ddpm.numerics as nm
from prosody_ddpm.baseline import BaselineNet, baseline_loss_graph, baseline_predict
from prosody_ddpm.config import BaselineSection, Config, DenoiserSection, OptimizerSection
from prosody_ddpm.denoiser import count_parameters
from prosody_ddpm.numerics import Rng, Tape, Tensor
from prosody_ddpm.training import init_model
from prosody_ddpm.optim import Adam

from conftest import fd_check, jitter_params, loss_and_grads


def small(cond_dim: int, width: int, dropout: float) -> Config:
    """A run config whose baseline reads ``cond_dim``-wide conditions."""
    return Config(
        denoiser=DenoiserSection(cond_dim=cond_dim),
        baseline=BaselineSection(width=width, dropout=dropout),
    )


SMALL = small(6, 12, 0.5)


class TestPredict:
    def test_same_condition_identical_output(self, rng):
        net = BaselineNet.init(SMALL, rng)
        c = Tensor(rng.normal((7, 6)))
        np.testing.assert_array_equal(baseline_predict(net, c), baseline_predict(net, c))

    def test_minimal_length_shape(self, rng):
        net = BaselineNet.init(SMALL, rng)
        assert baseline_predict(net, Tensor(rng.normal((1, 6)))).shape == (1, 3)

    def test_batched_shape(self, rng):
        net = BaselineNet.init(SMALL, rng)
        assert baseline_predict(net, Tensor(rng.normal((4, 5, 6)))).shape == (4, 5, 3)


class TestLoss:
    def test_zero_loss_when_prediction_equals_target(self, rng):
        cfg = small(6, 12, 0.0)
        net = BaselineNet.init(cfg, rng)
        c = Tensor(rng.normal((5, 6)))
        target = baseline_predict(net, c)
        loss, _ = loss_and_grads(lambda: baseline_loss_graph(net, c, target))
        assert loss == pytest.approx(0.0, abs=1e-24)

    def test_unit_error_loss(self, rng):
        # All-zero parameters predict 0 everywhere; all-ones target -> loss 1.
        net = BaselineNet.init(SMALL, rng)
        net.params = {k: nm.zeros(p.shape) for k, p in net.params.items()}
        c = Tensor(rng.normal((9, 6)))
        loss, _ = loss_and_grads(lambda: baseline_loss_graph(net, c, np.ones((9, 3)), rng=rng))
        assert loss == pytest.approx(1.0, abs=1e-12)

    def test_gradients_match_finite_differences(self, rng):
        cfg = small(4, 6, 0.0)
        net = BaselineNet.init(cfg, rng)
        jitter_params(net.params, rng)
        c_data = rng.normal((5, 4))
        target = rng.normal((5, 3))

        def loss_fn(params):
            net.params = params
            return baseline_loss_graph(net, Tensor(c_data), target, training=False)

        fd_check(loss_fn, dict(net.params), probes_per_tensor=2)

    def test_dropout_gradients_with_fixed_mask(self, rng):
        cfg = small(4, 6, 0.3)
        net = BaselineNet.init(cfg, rng)
        jitter_params(net.params, rng)
        c_data = rng.normal((4, 4))
        target = rng.normal((4, 3))

        def loss_fn(params):
            net.params = params
            return baseline_loss_graph(net, Tensor(c_data), target, rng=Rng(5), training=True)

        fd_check(loss_fn, dict(net.params), probes_per_tensor=2)


class TestParameterBudget:
    def test_default_baseline_exceeds_default_diffusion_predictor(self):
        from prosody_ddpm.denoiser import ConditionEncoder, Denoiser

        r = Rng(0)
        enc = ConditionEncoder.init(Config(), r)
        den = Denoiser.init(Config(), r)
        base = BaselineNet.init(Config(), r)
        n_ddpm = count_parameters(enc) + count_parameters(den)
        n_base = count_parameters(enc) + count_parameters(base)
        assert n_base > n_ddpm


class TestMeanCollapse:
    def test_bimodal_target_collapses_to_conditional_mean(self, rng):
        # MSE optimum is the conditional mean: modes at +/-m with equal
        # weight pull the trained prediction to ~0.
        m = 2.0
        net = BaselineNet.init(small(4, 16, 0.1), rng)
        opt = Adam(OptimizerSection(lr=2e-3))
        c_data = rng.normal((8, 4))  # one fixed condition set
        for step in range(600):
            # Each condition's sign alternates, so both modes have equal weight
            # in every pair of steps.
            signs = np.where((np.arange(8)[:, None] + step) % 2, -1.0, 1.0)
            target = np.concatenate([signs * m, rng.normal((8, 2)) * 0.05], axis=1)
            loss, grads = loss_and_grads(
                lambda: baseline_loss_graph(net, Tensor(c_data), target, rng=rng)
            )
            net.params = opt.step(net.params, grads)
        pred = baseline_predict(net, Tensor(c_data))
        assert np.abs(pred[:, 0]).max() < 0.1 * m, pred[:, 0]


class TestStackedHeads:
    def test_parameter_counts_at_default_and_acceptance_size(self):
        assert count_parameters(BaselineNet.init(Config(), None)) == 742_659
        assert count_parameters(BaselineNet.init(small(48, 128, 0.1), None)) == 205_443

    def test_draw_records_eight_primitives(self):
        # Acceptance size, 10 tokens, condition encoder included.
        cfg = Config(denoiser=DenoiserSection(cond_dim=48), baseline=BaselineSection(width=128))
        model = init_model(cfg, "baseline", Rng(0))
        with Tape() as tape:
            baseline_predict(model.net, model.cond.forward(np.arange(10) % 20))
        assert [op for op, _, _ in tape.records] == [
            "embed_lookup", "conv1d_dilated", "conv1d_dilated",
            "conv1d_dilated", "layer_norm", "conv1d_dilated", "layer_norm", "matmul",
        ]

    @pytest.mark.parametrize("lead", [(), (2,)])
    def test_matches_three_separate_heads(self, lead, rng):
        # Each head as a network of its own: its part of every stacked
        # weight, unfused SiLU, one output column.
        net = BaselineNet.init(small(4, 6, 0.0), rng)
        jitter_params(net.params, rng)

        def part(name, h, w=6):
            if name == "conv1.w":
                return (Ellipsis, slice(h * w, (h + 1) * w))
            if name in ("conv1.b", "conv2.b"):
                return slice(h * w, (h + 1) * w)
            return slice(h, h + 1) if name == "out.b" else h  # the rest lead with heads

        heads = [{k: Tensor(v.data[part(k, h)]) for k, v in net.params.items()} for h in range(3)]

        def silu(z):
            return nm.mul(z, nm.sigmoid(z))

        def head(q, cond):
            x = nm.layer_norm(silu(nm.conv1d_dilated(cond, q["conv1.w"], q["conv1.b"])),
                              q["ln1.g"], q["ln1.b"])
            x = nm.layer_norm(silu(nm.conv1d_dilated(x, q["conv2.w"], q["conv2.b"])),
                              q["ln2.g"], q["ln2.b"])
            return nm.add(nm.matmul(x, q["out.w"]), q["out.b"])

        cond = Tensor(rng.normal(lead + (5, 4)))
        weights = Tensor(rng.normal(lead + (5, 3)))
        with Tape() as tape:
            got = net.forward(cond, None, False)
            loss = nm.sum(nm.mul(got, weights))
        got_grads = nm.backward(tape, loss)
        with Tape() as tape:
            want = nm.concat([head(q, cond) for q in heads])
            loss = nm.sum(nm.mul(want, weights))
        want_grads = nm.backward(tape, loss)
        assert np.array_equal(got.data, want.data)
        # Two gradients sum in another order: out.b's over the rows of all
        # heads at once, and the condition's over the first conv's 3 * 6
        # output channels in one product instead of per head.
        for h, q in enumerate(heads):
            for k, p in q.items():
                g, w = got_grads.wrt(net.params[k])[part(k, h)], want_grads.wrt(p)
                if k == "out.b":
                    np.testing.assert_allclose(g, w, rtol=1e-14)
                else:
                    assert np.array_equal(g, w), (h, k)
        np.testing.assert_allclose(got_grads.wrt(cond), want_grads.wrt(cond), rtol=1e-12,
                                   atol=1e-15)

"""Deterministic MSE baseline: prediction contract, loss, mean collapse."""

import numpy as np
import pytest

import prosody_ddpm.numerics as nm
from prosody_ddpm.baseline import BaselineNet, baseline_loss_graph, baseline_predict
from prosody_ddpm.config import BaselineSection, Config, DenoiserSection, OptimizerSection
from prosody_ddpm.numerics import Rng, Tensor
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
        from prosody_ddpm.denoiser import ConditionEncoder, Denoiser, count_parameters

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
        for _ in range(600):
            signs = np.where(rng.uniform((8, 1)) < 0.5, -1.0, 1.0)
            target = np.concatenate([signs * m, rng.normal((8, 2)) * 0.05], axis=1)
            loss, grads = loss_and_grads(
                lambda: baseline_loss_graph(net, Tensor(c_data), target, rng=rng)
            )
            net.params = opt.step(net.params, grads)
        pred = baseline_predict(net, Tensor(c_data))
        assert np.abs(pred[:, 0]).max() < 0.1 * m, pred[:, 0]

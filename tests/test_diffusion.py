"""Schedule tables, forward/reverse process identities, and the training loss."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prosody_ddpm.numerics as nm
from prosody_ddpm.data import NormStats, denormalize
from prosody_ddpm.denoiser import Denoiser, DenoiserConfig
from prosody_ddpm.diffusion import (
    forward_diffuse,
    linear_schedule,
    posterior_mean,
    reverse_step,
    sample_model_space,
    training_loss,
    training_loss_graph,
)
from prosody_ddpm.numerics import Rng, Tape, Tensor
from prosody_ddpm.optim import Adam

from conftest import fd_check


class StubModel:
    """Denoiser stand-in returning a fixed function of ``(x_t, cond, t)``.

    Its condition constants are the condition itself and its step
    features are the step numbers, so ``forward`` can hand ``t`` back.
    """

    def __init__(self, fn):
        self.fn = fn
        self.params = {"unused": Tensor(np.zeros(3))}

    def condition(self, cond):
        return cond

    def steps(self, t):
        return Tensor(np.asarray(t, dtype=np.float64))

    def forward(self, x_t, cond, e):
        return self.fn(x_t, cond, int(e.item()))


class TestSchedule:
    def test_paper_scale_endpoints(self):
        s = linear_schedule(500, 1e-4, 0.06)
        assert s.beta[1] == pytest.approx(1e-4, abs=0)
        assert s.beta[500] == pytest.approx(0.06, abs=0)

    def test_alpha_bar_terminal_by_direct_product(self):
        s = linear_schedule(500, 1e-4, 0.06)
        # Independent oracle: plain python product over the betas.
        prod = 1.0
        for t in range(1, 501):
            prod *= 1.0 - (1e-4 + (t - 1) / 499 * (0.06 - 1e-4))
        assert s.alpha_bar[500] == pytest.approx(prod, rel=1e-12)
        assert s.alpha_bar[500] < 1e-6

    def test_sigma1_zero_and_invariants(self):
        s = linear_schedule(500, 1e-4, 0.06)
        assert s.sigma[1] == 0.0
        assert np.all(s.sigma[2:] > 0.0)
        assert s.alpha_bar[0] == 1.0
        assert np.all(np.diff(s.alpha_bar) < 0.0)
        np.testing.assert_allclose(s.alpha[1:], 1.0 - s.beta[1:])

    def test_sigma_matches_posterior_variance_formula(self):
        s = linear_schedule(40, 1e-3, 0.2)
        for t in range(2, 41):
            expect = np.sqrt((1 - s.alpha_bar[t - 1]) / (1 - s.alpha_bar[t]) * s.beta[t])
            assert s.sigma[t] == pytest.approx(expect, rel=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError):
            linear_schedule(1, 1e-4, 0.06)
        with pytest.raises(ValueError):
            linear_schedule(10, 0.0, 0.06)
        with pytest.raises(ValueError):
            linear_schedule(10, 0.2, 0.1)
        with pytest.raises(ValueError):
            linear_schedule(10, 0.5, 1.0)

    @given(
        steps=st.integers(2, 300),
        b0=st.floats(1e-6, 0.05),
        spread=st.floats(0.0, 0.4),
    )
    @settings(max_examples=60, deadline=None)
    def test_invariants_hold_for_any_linear_schedule(self, steps, b0, spread):
        s = linear_schedule(steps, b0, min(b0 + spread, 0.9))
        assert np.all((s.beta[1:] > 0) & (s.beta[1:] < 1))
        assert np.all(np.diff(s.beta[1:]) >= 0)
        assert np.all(np.diff(s.alpha_bar) < 0)
        assert s.sigma[1] == 0.0


class TestForwardDiffuse:
    def test_zero_noise(self, rng):
        s = linear_schedule(100, 1e-4, 0.05)
        x0 = rng.normal((6, 3))
        out = forward_diffuse(x0, 40, np.zeros_like(x0), s)
        np.testing.assert_allclose(out, np.sqrt(s.alpha_bar[40]) * x0, rtol=1e-12)

    def test_unit_case_arithmetic(self):
        # beta_1 = 1e-4: sqrt(0.9999) + sqrt(0.0001) ~= 1.00995.
        s = linear_schedule(500, 1e-4, 0.06)
        out = forward_diffuse(np.ones((1, 1)), 1, np.ones((1, 1)), s)
        assert out[0, 0] == pytest.approx(np.sqrt(0.9999) + np.sqrt(1e-4), abs=1e-12)
        assert out[0, 0] == pytest.approx(1.00995, abs=5e-6)

    def test_variance_law_monte_carlo(self):
        # Var(x_t) -> abar * Var(x0) + (1 - abar) over many draws.
        s = linear_schedule(200, 1e-4, 0.05)
        r = Rng(5)
        n = 100_000
        sigma0 = 1.7
        for t in (3, 60, 200):
            x0 = r.normal(n) * sigma0
            eps = r.normal(n)
            xt = forward_diffuse(x0, t, eps, s)
            expect = s.alpha_bar[t] * sigma0**2 + (1 - s.alpha_bar[t])
            tol = 3.0 * expect * np.sqrt(2.0 / n)
            assert abs(xt.var() - expect) < tol

    def test_step_out_of_range(self):
        s = linear_schedule(10, 1e-4, 0.05)
        with pytest.raises(ValueError, match="outside"):
            forward_diffuse(np.zeros((2, 3)), 11, np.zeros((2, 3)), s)
        with pytest.raises(ValueError, match="outside"):
            forward_diffuse(np.zeros((2, 3)), 0, np.zeros((2, 3)), s)

    def test_batched_steps(self, rng):
        s = linear_schedule(50, 1e-3, 0.2)
        x0 = rng.normal((3, 4, 3))
        eps = rng.normal((3, 4, 3))
        t = np.array([1, 25, 50])
        out = forward_diffuse(x0, t, eps, s)
        for i, ti in enumerate(t):
            np.testing.assert_allclose(out[i], forward_diffuse(x0[i], int(ti), eps[i], s))

    def test_noise_shape_mismatch_rejected(self):
        s = linear_schedule(50, 1e-3, 0.2)
        with pytest.raises(ValueError, match="shape"):
            forward_diffuse(np.zeros((2, 3)), 1, np.zeros((3, 3)), s)


class TestPosteriorMean:
    def test_zero_prediction(self, rng):
        s = linear_schedule(100, 1e-4, 0.05)
        x_t = rng.normal((5, 3))
        np.testing.assert_allclose(
            posterior_mean(x_t, np.zeros_like(x_t), 7, s), x_t / np.sqrt(s.alpha[7])
        )

    def test_t1_collapses_to_clean_sample(self, rng):
        s = linear_schedule(100, 1e-4, 0.05)
        x0 = rng.normal((5, 3))
        eps = rng.normal((5, 3))
        x1 = forward_diffuse(x0, 1, eps, s)
        np.testing.assert_allclose(posterior_mean(x1, eps, 1, s), x0, atol=1e-10)

    def test_terminal_step_arithmetic(self):
        s = linear_schedule(100, 1e-4, 0.05)
        T = 100
        got = posterior_mean(np.ones((1, 1)), np.ones((1, 1)), T, s)[0, 0]
        expect = (1.0 - s.beta[T] / np.sqrt(1.0 - s.alpha_bar[T])) / np.sqrt(s.alpha[T])
        assert got == pytest.approx(expect, rel=1e-12)


class TestReverseStep:
    def test_t1_ignores_z(self, rng):
        s = linear_schedule(30, 1e-3, 0.2)
        model = StubModel(lambda x, c, t: Tensor(x.data * 0.1))
        x = rng.normal((4, 3))
        cond = Tensor(np.zeros((4, 2)))
        e = model.steps(1)
        a = reverse_step(model, x, cond, e, 1, rng.normal((4, 3)) * 100, s)
        b = reverse_step(model, x, cond, e, 1, None, s)
        np.testing.assert_array_equal(a, b)

    def test_bit_identical_for_fixed_inputs(self, rng):
        s = linear_schedule(30, 1e-3, 0.2)
        model = StubModel(lambda x, c, t: Tensor(np.tanh(x.data)))
        x = rng.normal((4, 3))
        z = rng.normal((4, 3))
        cond = Tensor(np.zeros((4, 2)))
        a = reverse_step(model, x, cond, model.steps(9), 9, z, s)
        b = reverse_step(model, x, cond, model.steps(9), 9, z, s)
        np.testing.assert_array_equal(a, b)

    def test_stochastic_term_variance(self, rng):
        # Repeated steps with independent z spread with std sigma_t.
        s = linear_schedule(30, 1e-3, 0.2)
        model = StubModel(lambda x, c, t: Tensor(np.zeros_like(x.data)))
        x = rng.normal((1, 3))
        cond = Tensor(np.zeros((1, 2)))
        t = 15
        draws = np.array(
            [reverse_step(model, x, cond, model.steps(t), t, rng.normal((1, 3)), s)[0, 0]
             for _ in range(4000)]
        )
        assert draws.std() == pytest.approx(s.sigma[t], rel=0.08)

    def test_chain_invokes_denoiser_exactly_T_times(self, rng):
        s = linear_schedule(23, 1e-3, 0.2)
        calls = []
        model = StubModel(lambda x, c, t: (calls.append(t), Tensor(x.data * 0.0))[1])
        sample_model_space(model, Tensor(np.zeros((5, 2))), s, rng)
        assert calls == list(range(23, 0, -1))


class TestTrainingLoss:
    def setup_method(self):
        self.sched = linear_schedule(40, 1e-3, 0.2)

    def test_perfect_predictor_zero_loss_zero_grads(self, rng):
        x0 = rng.normal((6, 3))
        eps = rng.normal((6, 3))
        model = StubModel(lambda x, c, t: Tensor(eps))
        loss, grads = training_loss(model, x0, Tensor(np.zeros((6, 2))), 11, eps, self.sched)
        assert loss == 0.0
        np.testing.assert_array_equal(grads.wrt(model.params["unused"]), np.zeros(3))

    def test_zero_predictor_unit_loss(self):
        # E[eps^2] = 1 for standard normal noise.
        r = Rng(3)
        model = StubModel(lambda x, c, t: Tensor(np.zeros(x.shape)))
        losses = []
        for _ in range(60):
            eps = r.normal((40, 3))
            loss, _ = training_loss(
                model, np.zeros((40, 3)), Tensor(np.zeros((40, 2))), 20, eps, self.sched
            )
            losses.append(loss)
        assert np.mean(losses) == pytest.approx(1.0, abs=0.05)

    def test_condition_length_mismatch(self, rng):
        model = StubModel(lambda x, c, t: Tensor(np.zeros(x.shape)))
        with pytest.raises(nm.ShapeError, match="token axes"):
            training_loss(model, rng.normal((6, 3)), Tensor(np.zeros((5, 2))), 3,
                          rng.normal((6, 3)), self.sched)

    def test_masked_positions_do_not_affect_loss(self, rng):
        cfg = DenoiserConfig(channels=8, layers=2, dilation_cycle=(1,), cond_dim=4, step_hidden=8)
        model = Denoiser.init(cfg, rng)
        x0 = rng.normal((2, 5, 3))
        eps = rng.normal((2, 5, 3))
        mask = np.array([[1, 1, 1, 0, 0], [1, 1, 1, 1, 1]], dtype=float)
        cond = Tensor(rng.normal((2, 5, 4)) * mask[..., None])
        t = np.array([7, 20])
        loss1, _ = training_loss(model, x0, cond, t, eps, self.sched, mask)
        x0_junk = x0.copy()
        x0_junk[0, 3:] = 123.0
        eps_junk = eps.copy()
        eps_junk[0, 3:] = -55.0
        loss2, _ = training_loss(model, x0_junk, cond, t, eps_junk, self.sched, mask)
        assert loss1 == pytest.approx(loss2, rel=1e-12)

    def test_all_masked_rejected(self, rng):
        model = StubModel(lambda x, c, t: Tensor(np.zeros(x.shape)))
        with pytest.raises(ValueError, match="mask"):
            training_loss(model, rng.normal((2, 3, 3)), Tensor(np.zeros((2, 3, 2))), 3,
                          rng.normal((2, 3, 3)), self.sched, np.zeros((2, 3)))

    def test_gradients_match_finite_differences(self, rng):
        cfg = DenoiserConfig(channels=6, layers=2, dilation_cycle=(1, 2), cond_dim=4, step_hidden=8)
        model = Denoiser.init(cfg, rng)
        from conftest import jitter_params

        jitter_params(model.params, rng)
        x0 = rng.normal((4, 3))
        eps = rng.normal((4, 3))
        cond_data = rng.normal((4, 4))

        def loss_fn(params):
            model.params = params
            return training_loss_graph(model, x0, Tensor(cond_data), 13, eps, self.sched)

        fd_check(loss_fn, dict(model.params), probes_per_tensor=2)


class TestSampling:
    def _trained_point_mass(self):
        cfg = DenoiserConfig(channels=16, layers=3, dilation_cycle=(1, 2, 4), cond_dim=8, step_hidden=32)
        rng = Rng(0)
        den = Denoiser.init(cfg, rng)
        sched = linear_schedule(60, 1e-4, 0.3)
        v = np.array([0.4, -0.3, 0.8])
        x0 = np.tile(v, (8, 4, 1))
        cond = Tensor(np.zeros((8, 4, 8)))
        opt = Adam(lr=2e-3)
        for _ in range(1800):
            t = rng.integers(1, 61, 8)
            eps = rng.normal((8, 4, 3))
            with Tape() as tape:
                loss = training_loss_graph(den, x0, cond, t, eps, sched)
            den.params = opt.step(den.params, nm.backward(tape, loss))
        return den, sched, v

    def test_point_mass_chain_converges(self):
        den, sched, v = self._trained_point_mass()
        x = sample_model_space(den, Tensor(np.zeros((16, 4, 8))), sched, Rng(77))
        rms = np.sqrt(((x - v) ** 2).mean(axis=(1, 2)))
        assert np.all(rms < 0.1), rms

    def test_same_seed_identical_different_seeds_differ(self, rng):
        cfg = DenoiserConfig(channels=8, layers=2, dilation_cycle=(1, 2), cond_dim=4, step_hidden=8)
        den = Denoiser.init(cfg, rng)
        sched = linear_schedule(25, 1e-3, 0.2)
        cond = Tensor(rng.normal((3, 4)))
        stats = NormStats(np.array([200.0, 1.0, 2.0]), np.array([50.0, 0.3, 0.5]))
        a, b, c = (
            denormalize(sample_model_space(den, cond, sched, Rng(seed)), stats) for seed in (1, 1, 2)
        )
        np.testing.assert_array_equal(a.pitch, b.pitch)
        np.testing.assert_array_equal(a.energy, b.energy)
        np.testing.assert_array_equal(a.duration, b.duration)
        assert not np.array_equal(a.pitch, c.pitch)

    def test_sample_output_is_physical(self, rng):
        cfg = DenoiserConfig(channels=8, layers=2, dilation_cycle=(1, 2), cond_dim=4, step_hidden=8)
        den = Denoiser.init(cfg, rng)
        sched = linear_schedule(25, 1e-3, 0.2)
        cond = Tensor(rng.normal((4, 4)))
        stats = NormStats(np.array([200.0, 1.0, 2.0]), np.array([50.0, 0.3, 0.5]))
        ps = denormalize(sample_model_space(den, cond, sched, Rng(9)), stats)
        assert np.all(ps.pitch > 0)
        assert np.all(ps.energy >= 0)
        assert np.all(ps.duration >= 1)
        assert ps.duration.dtype == np.int64

"""Adam's update rule against Kingma & Ba's closed form (arXiv 1412.6980)."""

import numpy as np

from prosody_ddpm.config import OptimizerSection
from prosody_ddpm.numerics import Gradients, Rng, Tensor
from prosody_ddpm.optim import BETA1, BETA2, EPS, Adam


def _grads(params: dict[str, Tensor], values: dict[str, np.ndarray]) -> Gradients:
    return Gradients({id(p): (p, values[name]) for name, p in params.items()})


def test_two_steps_match_the_published_rule():
    rng = Rng(5)
    lr, beta1, beta2, eps = 1e-2, 0.9, 0.999, 1e-8
    params = {"w": Tensor(rng.normal((3, 4))), "b": Tensor(rng.normal(4))}
    # "b" gets gradients near eps in size, so a change of eps shows; step 2's
    # gradients differ from step 1's, so both bias corrections show.
    gs = [
        {"w": rng.normal((3, 4)), "b": 1e-8 * rng.normal(4)},
        {"w": rng.normal((3, 4)), "b": 3e-8 * rng.normal(4)},
    ]
    opt = Adam(OptimizerSection(lr=lr))
    m = {k: np.zeros_like(p.data) for k, p in params.items()}
    v = {k: np.zeros_like(p.data) for k, p in params.items()}
    for t, g in enumerate(gs, start=1):
        new = opt.step(params, _grads(params, g))
        for k, p in params.items():
            m[k] = beta1 * m[k] + (1 - beta1) * g[k]
            v[k] = beta2 * v[k] + (1 - beta2) * g[k] ** 2
            m_hat = m[k] / (1 - beta1**t)
            v_hat = v[k] / (1 - beta2**t)
            expected = -lr * m_hat / (np.sqrt(v_hat) + eps)
            np.testing.assert_allclose(new[k].data - p.data, expected, rtol=1e-12, atol=0)
            np.testing.assert_allclose(opt.m[k], m[k], rtol=1e-12, atol=0)
            np.testing.assert_allclose(opt.v[k], v[k], rtol=1e-12, atol=0)
        params = new
    assert opt.t == 2


def _reference_step(opt, params, grads, lr):
    """The update as first written, one whole-array temporary per operation."""
    opt.t += 1
    bc1, bc2 = 1.0 - BETA1**opt.t, 1.0 - BETA2**opt.t
    out = {}
    for name, p in params.items():
        g = grads[name]
        m = opt.m.setdefault(name, np.zeros_like(p.data))
        v = opt.v.setdefault(name, np.zeros_like(p.data))
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        update = (lr / bc1) * m / (np.sqrt(v / bc2) + EPS)
        out[name] = Tensor(p.data - update)
    return out


def test_step_matches_its_expressions_bit_for_bit():
    # The step writes its intermediates into buffers it owns, keeping every
    # operation and its order; parameters and moments match the expressions.
    # "w" spans 4 runs of CHUNK elements and "h" 2, the second one short.
    rng = Rng(9)
    lr = 3e-3
    params = {"w": Tensor(rng.normal((256, 256))), "b": Tensor(rng.normal(7)),
              "h": Tensor(rng.normal((3, 7, 1000)))}
    opt, ref = Adam(OptimizerSection(lr=lr)), Adam(OptimizerSection(lr=lr))
    mine = want = params
    for _ in range(4):
        g = {k: rng.normal(p.shape) * 10.0 ** rng.integers(-9, 2) for k, p in params.items()}
        mine = opt.step(mine, _grads(mine, g))
        want = _reference_step(ref, want, g, lr)
        for k in params:
            assert np.array_equal(mine[k].data, want[k].data), k
            assert np.array_equal(opt.m[k], ref.m[k]) and np.array_equal(opt.v[k], ref.v[k]), k

"""Denoising-diffusion core: noise schedule, forward process, training
objective, and the reverse sampling chain.

The forward chain corrupts a clean sequence ``x0`` with Gaussian noise
under a fixed variance schedule; the reverse chain starts from white
noise and repeatedly applies a learned noise predictor to walk back to a
sample.  Schedule tables are precomputed once and shared read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numerics as nm
from .numerics import Gradients, Rng, Tape, Tensor


@dataclass(frozen=True)
class NoiseSchedule:
    """Precomputed diffusion tables, 1-indexed by step ``t``.

    ``alpha_bar`` has an extra slot for the ``t = 0`` boundary, which is
    defined as 1 so that ``sigma[1] == 0`` and the final reverse step is
    deterministic.  ``beta[0]``/``alpha[0]`` are NaN guards: step 0 is not
    part of the chain and reading it should fail loudly downstream.
    """

    steps: int
    beta: np.ndarray = field(repr=False)
    alpha: np.ndarray = field(repr=False)
    alpha_bar: np.ndarray = field(repr=False)
    sigma: np.ndarray = field(repr=False)

    def __post_init__(self):
        t = self.steps
        b = self.beta[1:]
        if t < 2:
            raise ValueError(f"schedule needs at least 2 steps, got {t}")
        if not (np.all(b > 0.0) and np.all(b < 1.0)):
            raise ValueError("beta values must lie strictly in (0, 1)")
        if np.any(np.diff(b) < 0.0):
            raise ValueError("beta must be non-decreasing")
        ab = self.alpha_bar
        if ab[0] != 1.0 or np.any(np.diff(ab) >= 0.0):
            raise ValueError("alpha_bar must start at 1 and decrease strictly")
        if self.sigma[1] != 0.0:
            raise ValueError("sigma[1] must be 0")

    def check_step(self, t) -> None:
        t = np.asarray(t)
        if np.any(t < 1) or np.any(t > self.steps):
            raise ValueError(f"step {t} outside [1, {self.steps}]")


def linear_schedule(steps: int, beta_start: float, beta_end: float) -> NoiseSchedule:
    """Linearly interpolated variance schedule hitting both endpoints.

    ``beta_t = beta_start + (t - 1) / (steps - 1) * (beta_end - beta_start)``
    for ``t`` in ``[1, steps]``.
    """
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ValueError(
            f"need 0 < beta_start <= beta_end < 1, got {beta_start}, {beta_end}"
        )
    beta = np.full(steps + 1, np.nan)
    beta[1:] = beta_start + (np.arange(steps) / (steps - 1)) * (beta_end - beta_start)
    alpha = 1.0 - beta
    alpha_bar = np.ones(steps + 1)
    alpha_bar[1:] = np.cumprod(alpha[1:])
    sigma = np.zeros(steps + 1)
    sigma[1:] = np.sqrt((1.0 - alpha_bar[:-1]) / (1.0 - alpha_bar[1:]) * beta[1:])
    return NoiseSchedule(steps=steps, beta=beta, alpha=alpha, alpha_bar=alpha_bar, sigma=sigma)


def forward_diffuse(x0: np.ndarray, t, eps: np.ndarray, sched: NoiseSchedule) -> np.ndarray:
    """Diffuse ``x0`` to step ``t``: ``sqrt(a_bar_t) x0 + sqrt(1 - a_bar_t) eps``.

    ``t`` may be a scalar step or an integer array with one step per
    leading (batch) entry of ``x0``.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if x0.shape != eps.shape:
        raise ValueError(f"x0 shape {x0.shape} != eps shape {eps.shape}")
    sched.check_step(t)
    ab = sched.alpha_bar[np.asarray(t)]
    ab = np.reshape(ab, np.shape(ab) + (1,) * (x0.ndim - np.ndim(ab)))
    return np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps


def posterior_mean(x_t: np.ndarray, eps_hat: np.ndarray, t: int, sched: NoiseSchedule) -> np.ndarray:
    """Mean of the reverse transition given the predicted noise.

    ``(x_t - beta_t / sqrt(1 - a_bar_t) * eps_hat) / sqrt(alpha_t)``.
    """
    sched.check_step(t)
    coef = sched.beta[t] / np.sqrt(1.0 - sched.alpha_bar[t])
    return (np.asarray(x_t) - coef * np.asarray(eps_hat)) / np.sqrt(sched.alpha[t])


def training_loss_graph(
    model,
    x0: np.ndarray,
    cond: Tensor,
    t,
    eps: np.ndarray,
    sched: NoiseSchedule,
    mask: np.ndarray | None = None,
) -> Tensor:
    """Masked mean-squared noise-prediction error, recorded on the active tape.

    ``x0``/``eps`` are model-space feature arrays of shape ``(length, 3)``
    or ``(batch, length, 3)``; ``cond`` is the matching condition tensor.
    Padding positions (``mask == 0``) are zeroed on the way into the
    denoiser and excluded from the mean.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    if cond.shape[:-1] != x0.shape[:-1]:
        raise nm.ShapeError(
            "training_loss", f"condition token axes {cond.shape} do not match x0 {x0.shape}"
        )
    x_t = forward_diffuse(x0, t, eps, sched)
    if mask is not None:
        mask = np.asarray(mask, dtype=np.float64)
        if mask.shape != x0.shape[:-1]:
            raise nm.ShapeError(
                "training_loss", f"mask shape {mask.shape} does not match x0 {x0.shape}"
            )
        x_t = x_t * mask[..., None]
    eps_hat = model.forward(Tensor(x_t), model.condition(cond), model.steps(t))
    return nm.masked_mse(eps_hat, eps, mask, "training_loss")


def training_loss(
    model,
    x0: np.ndarray,
    cond: Tensor,
    t,
    eps: np.ndarray,
    sched: NoiseSchedule,
    mask: np.ndarray | None = None,
) -> tuple[float, Gradients]:
    """Loss value plus gradients for every parameter of ``model``."""
    with Tape() as tape:
        loss = training_loss_graph(model, x0, cond, t, eps, sched, mask)
    return loss.item(), nm.backward(tape, loss)


def reverse_step(
    model,
    x_t: np.ndarray,
    cond,
    e: Tensor,
    t: int,
    z: np.ndarray | None,
    sched: NoiseSchedule,
) -> np.ndarray:
    """One reverse transition ``x_t -> x_{t-1}``.

    ``cond`` and ``e`` are the model's condition constants and its step
    features for ``t`` (``model.condition``, ``model.steps``).  ``z`` is
    the injected standard normal; it is forced to zero at ``t == 1``
    regardless of what the caller supplies (the last step is
    deterministic, and ``sigma[1] == 0`` enforces the same thing).
    """
    sched.check_step(t)
    eps_hat = model.forward(Tensor(x_t), cond, e).data
    mu = posterior_mean(x_t, eps_hat, t, sched)
    if t == 1 or z is None:
        return mu
    return mu + sched.sigma[t] * np.asarray(z)


def sample_model_space(
    model,
    cond: Tensor,
    sched: NoiseSchedule,
    rng: Rng,
    features: int = 3,
) -> np.ndarray:
    """Run the full reverse chain; returns model-space features.

    ``cond`` may be ``(length, cond_dim)`` for a single chain or
    ``(batch, length, cond_dim)`` to run independent chains of the same
    length in lockstep (one noise draw per chain per step).  The
    condition projections and the step features of every ``t`` are
    computed once, before the first step.
    """
    shape = cond.shape[:-1] + (features,)
    constants = model.condition(cond)
    step_features = model.steps(np.arange(1, sched.steps + 1)).data
    x = rng.normal(shape)
    for t in range(sched.steps, 0, -1):
        z = rng.normal(shape) if t > 1 else None
        e = Tensor(step_features[t - 1], _checked_op=None)
        x = reverse_step(model, x, constants, e, t, z, sched)
    return x

"""Shared fixtures and numeric-oracle helpers."""

from __future__ import annotations

import errno
import os

import numpy as np
import pytest

import prosody_ddpm.data as data
import prosody_ddpm.numerics as nm

# Gradient checks: central differences at h=1e-5, 1e-4 relative tolerance
# with a 1e-6 absolute floor.
FD_H = 1e-5
FD_RTOL = 1e-4
FD_ATOL = 1e-6


def fd_check(make_loss, tensors: dict[str, nm.Tensor], probes_per_tensor: int = 4, h: float = FD_H):
    """Compare tape gradients of ``make_loss(tensors)`` against central
    finite differences at a few indices of every tensor.

    ``make_loss`` must rebuild the graph from the current tensor dict and
    return a scalar Tensor recorded on the active tape.
    """
    with nm.Tape() as tape:
        loss = make_loss(tensors)
    grads = nm.backward(tape, loss)
    failures = []
    for name, t in tensors.items():
        g = grads.wrt(t)
        rng = np.random.default_rng(abs(hash(name)) % (2**32))
        idxs = sorted(set(rng.integers(0, t.size, probes_per_tensor).tolist()) | {0, t.size - 1})
        for fi in idxs:
            base = t.data.copy()
            vals = {}
            for sign in (1, -1):
                pert = base.reshape(-1).copy()
                pert[fi] += sign * h
                tensors[name] = nm.Tensor(pert.reshape(base.shape))
                with nm.Tape():
                    vals[sign] = make_loss(tensors).item()
            tensors[name] = nm.Tensor(base)
            numeric = (vals[1] - vals[-1]) / (2 * h)
            analytic = g.reshape(-1)[fi]
            tol = max(FD_ATOL, FD_RTOL * max(abs(analytic), abs(numeric)))
            if abs(analytic - numeric) > tol:
                failures.append((name, fi, analytic, numeric))
    assert not failures, f"gradient mismatches: {failures[:5]}"


def loss_and_grads(make_loss):
    """Value and gradients of the scalar loss ``make_loss()`` records on a fresh tape."""
    with nm.Tape() as tape:
        loss = make_loss()
    return loss.item(), nm.backward(tape, loss)


def pytest_collection_modifyitems(items):
    # Tests that use the acceptance suite's session ``bench`` fixture wait
    # for its training run (about five minutes); ``-m "not slow"`` skips them.
    for item in items:
        if "bench" in getattr(item, "fixturenames", ()):
            item.add_marker(pytest.mark.slow)


@pytest.fixture
def rng():
    return nm.Rng(1234)


def jitter_params(params: dict[str, nm.Tensor], rng: nm.Rng, scale: float = 0.05) -> None:
    """Perturb every parameter so no activation sits exactly on a relu kink
    (zero-initialized biases otherwise make finite differences straddle the
    non-differentiable point)."""
    for k, p in params.items():
        params[k] = nm.Tensor(p.data + rng.normal(p.shape) * scale)


@pytest.fixture
def disk_full(monkeypatch):
    """After ``disk_full(name)``, writes of files named ``name``
    through ``data.replace_file`` write half of what they are given and
    then fail like a full disk; other files are written as usual."""

    class DiskFull:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, chunk):
            self.fh.write(chunk[: len(chunk) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

    def fail(name: str) -> None:
        def open_tmp(file, *args, **kwargs):
            fh = open(file, *args, **kwargs)
            return DiskFull(fh) if os.path.basename(file) == f"{name}.tmp" else fh

        monkeypatch.setattr(data, "open", open_tmp, raising=False)

    return fail

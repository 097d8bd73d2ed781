"""Self-describing binary checkpoints.

Layout (all integers little-endian):

* magic ``PPCK``, u32 format version,
* model kind, canonical config snapshot, training-step counter,
* full generator state as JSON (the seed is ``train.seed`` in the config),
* normalization statistics (3 means + 3 stds as f64),
* named parameter blobs with shape prefixes, f64 little-endian,
* optional optimizer state: the step count, then both moment blobs of
  every parameter in parameter order (absent only before the first step).

Save -> load -> save is byte-identical; parameter order is preserved.
Files of earlier versions are rejected: their config keys or parameter
layouts differ from this version's.  A save goes through
:func:`~prosody_ddpm.data.replace_file`, so a write that fails partway
leaves the previous checkpoint intact, and the replaced file is freed off
the caller's path.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .config import Config, canonical_text, parse_config
from .data import NormStats, replace_file
from .numerics import Tensor

MAGIC = b"PPCK"
VERSION = 5
KINDS = ("ddpm", "baseline")


class CheckpointError(ValueError):
    """Unreadable or inconsistent checkpoint file."""


@dataclass
class Checkpoint:
    kind: str
    config: Config
    step: int
    params: dict[str, Tensor]
    stats: NormStats
    rng_state: dict = field(default_factory=dict)
    opt_t: int = 0
    opt_m: dict[str, np.ndarray] = field(default_factory=dict)
    opt_v: dict[str, np.ndarray] = field(default_factory=dict)


def _pack_str(write, s: str, width: str = "<I") -> None:
    raw = s.encode("utf-8")
    write(struct.pack(width, len(raw)))
    write(raw)


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise CheckpointError("truncated checkpoint file")
        chunk = self.buf[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u(self, fmt: str) -> int:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))[0]

    def s(self, width: str = "<I") -> str:
        return self.take(self.u(width)).decode("utf-8")

    def f64(self, count: int) -> np.ndarray:
        return np.frombuffer(self.take(count * 8), dtype="<f8").astype(np.float64)


def _pack_array(write, arr: np.ndarray) -> None:
    write(struct.pack("<B", arr.ndim))
    for d in arr.shape:
        write(struct.pack("<I", d))
    write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_array(r: _Reader) -> np.ndarray:
    ndim = r.u("<B")
    shape = tuple(r.u("<I") for _ in range(ndim))
    n = int(np.prod(shape)) if shape else 1
    return r.f64(n).reshape(shape)


def _write_checkpoint(ck: Checkpoint, write) -> None:
    """Pass the checkpoint's bytes to ``write`` piece by piece, in file order."""
    write(MAGIC)
    write(struct.pack("<I", VERSION))
    _pack_str(write, ck.kind, "<H")
    _pack_str(write, canonical_text(ck.config), "<Q")
    write(struct.pack("<Q", ck.step))
    _pack_str(write, json.dumps(ck.rng_state, sort_keys=True))
    write(np.ascontiguousarray(ck.stats.mean, dtype="<f8").tobytes())
    write(np.ascontiguousarray(ck.stats.std, dtype="<f8").tobytes())
    write(struct.pack("<I", len(ck.params)))
    for name, p in ck.params.items():
        _pack_str(write, name, "<H")
        _pack_array(write, p.data)
    has_opt = 1 if ck.opt_m else 0
    write(struct.pack("<B", has_opt))
    if has_opt:
        write(struct.pack("<Q", ck.opt_t))
        for name in ck.params:
            _pack_array(write, ck.opt_m[name])
            _pack_array(write, ck.opt_v[name])


def save_checkpoint(ck: Checkpoint, path) -> None:
    if ck.kind not in KINDS:
        raise CheckpointError(f"unknown model kind {ck.kind!r}")
    with replace_file(path, "wb") as fh:
        _write_checkpoint(ck, fh.write)


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        r = _Reader(fh.read())
    if r.take(4) != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    version = r.u("<I")
    if version < VERSION:
        raise CheckpointError(
            f"{path}: checkpoint format v{version} is older than v{VERSION}; retrain"
        )
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    kind = r.s("<H")
    if kind not in KINDS:
        raise CheckpointError(f"{path}: unknown model kind {kind!r}")
    config = parse_config(r.s("<Q"))
    step = r.u("<Q")
    try:
        rng_state = json.loads(r.s())
    except json.JSONDecodeError as e:
        raise CheckpointError(f"{path}: malformed RNG state: {e}") from None
    stats = NormStats(r.f64(3), r.f64(3))
    if not (np.all(np.isfinite(stats.mean)) and np.all(np.isfinite(stats.std) & (stats.std > 0))):
        raise CheckpointError(
            f"{path}: normalization statistics need finite means and finite positive stds,"
            f" got mean {stats.mean.tolist()} and std {stats.std.tolist()}"
        )

    def finite(what: str, name: str) -> np.ndarray:
        arr = _read_array(r)
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(f"{path}: non-finite values in {what} {name!r}")
        return arr

    n_params = r.u("<I")
    params: dict[str, Tensor] = {}
    for _ in range(n_params):
        name = r.s("<H")
        params[name] = Tensor(finite("parameter", name), _checked_op=None)
    opt_t = 0
    opt_m: dict[str, np.ndarray] = {}
    opt_v: dict[str, np.ndarray] = {}
    if r.u("<B"):
        opt_t = r.u("<Q")
        for name in params:
            opt_m[name] = finite("first moment of", name)
            opt_v[name] = finite("second moment of", name)
    if r.pos != len(r.buf):
        raise CheckpointError(f"{path}: {len(r.buf) - r.pos} trailing bytes after the checkpoint")
    return Checkpoint(
        kind=kind,
        config=config,
        step=step,
        params=params,
        stats=stats,
        rng_state=rng_state,
        opt_t=opt_t,
        opt_m=opt_m,
        opt_v=opt_v,
    )

"""Self-describing binary checkpoints.

Layout (all integers little-endian):

* magic ``PPCK``, u32 format version,
* model kind, canonical config snapshot, training-step counter,
* RNG identity (algorithm, seed, full generator state as JSON),
* normalization statistics (3 means + 3 stds as f64),
* named parameter blobs with shape prefixes, f64 little-endian,
* optional optimizer state (step count plus per-parameter moment blobs).

Save -> load -> save is byte-identical; parameter order is preserved.
Version 2 holds the fused denoiser layout (one filter+gate conv and one
condition projection per layer, one skip projection); version 1 files
name the unfused parameters and are rejected.  A save writes a sibling
temporary file and renames it over the target, so a write that fails
partway leaves the previous checkpoint intact.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .config import Config, canonical_text, parse_config
from .data import NormStats
from .numerics import Tensor

MAGIC = b"PPCK"
VERSION = 2
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
    rng_algorithm: str = "pcg64"
    rng_seed_json: str = "0"
    rng_state_json: str = ""
    opt_t: int = 0
    opt_m: dict[str, np.ndarray] = field(default_factory=dict)
    opt_v: dict[str, np.ndarray] = field(default_factory=dict)


def _pack_str(out: list[bytes], s: str, width: str = "<I") -> None:
    raw = s.encode("utf-8")
    out.append(struct.pack(width, len(raw)))
    out.append(raw)


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


def _pack_array(out: list[bytes], arr: np.ndarray) -> None:
    out.append(struct.pack("<B", arr.ndim))
    for d in arr.shape:
        out.append(struct.pack("<I", d))
    out.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_array(r: _Reader) -> np.ndarray:
    ndim = r.u("<B")
    shape = tuple(r.u("<I") for _ in range(ndim))
    n = int(np.prod(shape)) if shape else 1
    return r.f64(n).reshape(shape)


def save_checkpoint(ck: Checkpoint, path) -> None:
    if ck.kind not in KINDS:
        raise CheckpointError(f"unknown model kind {ck.kind!r}")
    out: list[bytes] = [MAGIC, struct.pack("<I", VERSION)]
    _pack_str(out, ck.kind, "<H")
    _pack_str(out, canonical_text(ck.config), "<Q")
    out.append(struct.pack("<Q", ck.step))
    _pack_str(out, ck.rng_algorithm, "<H")
    _pack_str(out, ck.rng_seed_json)
    _pack_str(out, ck.rng_state_json)
    out.append(np.ascontiguousarray(ck.stats.mean, dtype="<f8").tobytes())
    out.append(np.ascontiguousarray(ck.stats.std, dtype="<f8").tobytes())
    out.append(struct.pack("<I", len(ck.params)))
    for name, p in ck.params.items():
        _pack_str(out, name, "<H")
        _pack_array(out, p.data)
    has_opt = 1 if ck.opt_m else 0
    out.append(struct.pack("<B", has_opt))
    if has_opt:
        out.append(struct.pack("<Q", ck.opt_t))
        for name in ck.params:
            m = ck.opt_m.get(name)
            if m is None:
                out.append(struct.pack("<B", 0))
            else:
                out.append(struct.pack("<B", 1))
                _pack_array(out, m)
                _pack_array(out, ck.opt_v[name])
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(b"".join(out))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        r = _Reader(fh.read())
    if r.take(4) != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    version = r.u("<I")
    if version == 1:
        raise CheckpointError(
            f"{path}: checkpoint format v1 predates the fused denoiser layout (v2); retrain"
        )
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    kind = r.s("<H")
    if kind not in KINDS:
        raise CheckpointError(f"{path}: unknown model kind {kind!r}")
    config = parse_config(r.s("<Q"))
    step = r.u("<Q")
    rng_algorithm = r.s("<H")
    rng_seed_json = r.s()
    rng_state_json = r.s()
    stats = NormStats(r.f64(3), r.f64(3))
    n_params = r.u("<I")
    params: dict[str, Tensor] = {}
    for _ in range(n_params):
        name = r.s("<H")
        params[name] = Tensor(_read_array(r), _checked_op=None)
    opt_t = 0
    opt_m: dict[str, np.ndarray] = {}
    opt_v: dict[str, np.ndarray] = {}
    if r.u("<B"):
        opt_t = r.u("<Q")
        for name in params:
            if r.u("<B"):
                opt_m[name] = _read_array(r)
                opt_v[name] = _read_array(r)
    if r.pos != len(r.buf):
        raise CheckpointError(f"{path}: {len(r.buf) - r.pos} trailing bytes after the checkpoint")
    return Checkpoint(
        kind=kind,
        config=config,
        step=step,
        params=params,
        stats=stats,
        rng_algorithm=rng_algorithm,
        rng_seed_json=rng_seed_json,
        rng_state_json=rng_state_json,
        opt_t=opt_t,
        opt_m=opt_m,
        opt_v=opt_v,
    )


def rng_state_to_json(state: dict) -> str:
    return json.dumps(state, sort_keys=True)


def rng_state_from_json(text: str) -> dict:
    return json.loads(text)

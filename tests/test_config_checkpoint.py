"""Config parsing/validation and binary checkpoint round trips."""

import errno
import struct

import numpy as np
import pytest

from prosody_ddpm.checkpoint import (
    Checkpoint,
    CheckpointError,
    load_checkpoint,
    rng_state_to_json,
    save_checkpoint,
)
from prosody_ddpm.config import (
    ConfigError,
    canonical_text,
    config_hash,
    default_config,
    load_config,
    parse_config,
)
from prosody_ddpm.data import NormStats
from prosody_ddpm.numerics import Rng, Tensor


class TestConfig:
    def test_defaults_mirror_reference_setup(self):
        c = default_config()
        assert c.schedule.steps == 500
        assert c.schedule.beta_start == 1e-4
        assert c.schedule.beta_end == 0.06
        assert c.denoiser.channels == 64
        assert c.denoiser.layers == 10
        assert c.optimizer.batch_size == 16
        assert c.eval.bins == 128
        assert c.train.steps == 20_000

    def test_parse_sections_and_types(self):
        c = parse_config(
            "[schedule]\nsteps = 100\nbeta_end = 0.2\n"
            "[denoiser]\ndilation_cycle = 1, 2, 4\n"
            "[condition]\nfreeze = true\n"
        )
        assert c.schedule.steps == 100
        assert c.schedule.beta_end == 0.2
        assert c.denoiser.dilation_cycle == (1, 2, 4)
        assert c.condition.freeze is True

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[nope]\nx = 1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("[schedule]\nstep = 100\n")

    def test_type_errors(self):
        with pytest.raises(ConfigError, match="steps"):
            parse_config("[schedule]\nsteps = ten\n")
        with pytest.raises(ConfigError, match="freeze"):
            parse_config("[condition]\nfreeze = maybe\n")

    def test_overrides(self):
        c = parse_config("[train]\nsteps = 5\n", overrides=[("train.steps", "9"), ("eval.bins", "32")])
        assert c.train.steps == 9
        assert c.eval.bins == 32
        with pytest.raises(ConfigError, match="section.key"):
            parse_config("", overrides=[("steps", "9")])
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("", overrides=[("train.nope", "9")])

    def test_validation(self):
        for text in (
            "[schedule]\nsteps = 1\n",
            "[schedule]\nbeta_start = 0.5\nbeta_end = 0.1\n",
            "[denoiser]\nchannels = 63\n",
            "[denoiser]\nkernel_size = 4\n",
            "[denoiser]\nkernel_size = -1\n",
            "[denoiser]\ncond_dim = 0\n",
            "[denoiser]\nstep_hidden = -2\n",
            "[condition]\nembed_dim = 0\n",
            "[condition]\nhidden = 0\n",
            "[baseline]\nwidth = 0\n",
            "[baseline]\nkernel_size = -1\n",
            "[baseline]\nkernel_size = 2\n",
            "[baseline]\ndropout = 1.0\n",
            "[optimizer]\nlr = 0\n",
            "[optimizer]\nbeta1 = 1.0\n",
            "[optimizer]\nbeta1 = -0.1\n",
            "[optimizer]\nbeta2 = 1.5\n",
            "[optimizer]\neps = 0\n",
            "[optimizer]\nbatch_size = 0\n",
            "[data]\nholdout_fraction = 0\n",
            "[eval]\nbins = 1\n",
        ):
            with pytest.raises(ConfigError):
                parse_config(text)

    def test_canonical_text_roundtrip_and_hash(self):
        c = parse_config("[train]\nsteps = 7\n[schedule]\nbeta_end = 0.3\n")
        text = canonical_text(c)
        again = parse_config(text)
        assert canonical_text(again) == text
        assert config_hash(again) == config_hash(c)
        assert config_hash(c) != config_hash(default_config())
        assert len(config_hash(c)) == 12

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[train]\nsteps = 3\n")
        assert load_config(path).train.steps == 3


def _dummy_checkpoint() -> Checkpoint:
    rng = Rng(9)
    params = {
        "cond.embed": Tensor(rng.normal((4, 3))),
        "in.w": Tensor(rng.normal((3, 5))),
        "scalar": Tensor(rng.normal(())),
    }
    return Checkpoint(
        kind="ddpm",
        config=default_config([("train.steps", "11")]),
        step=7,
        params=params,
        stats=NormStats(np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0])),
        rng_seed_json="123",
        rng_state_json=rng_state_to_json(rng.state()),
        opt_t=5,
        opt_m={k: np.full(p.shape, 0.5) for k, p in params.items()},
        opt_v={k: np.full(p.shape, 0.25) for k, p in params.items()},
    )


class TestCheckpoint:
    def test_save_load_save_byte_identical(self, tmp_path):
        ck = _dummy_checkpoint()
        p1 = tmp_path / "a.bin"
        p2 = tmp_path / "b.bin"
        save_checkpoint(ck, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_fields_preserved(self, tmp_path):
        ck = _dummy_checkpoint()
        path = tmp_path / "c.bin"
        save_checkpoint(ck, path)
        back = load_checkpoint(path)
        assert back.kind == "ddpm"
        assert back.step == 7
        assert back.config.train.steps == 11
        assert list(back.params) == list(ck.params)
        for k in ck.params:
            np.testing.assert_array_equal(back.params[k].data, ck.params[k].data)
            np.testing.assert_array_equal(back.opt_m[k], ck.opt_m[k])
        assert back.stats.equals(ck.stats)
        assert back.rng_state_json == ck.rng_state_json
        assert back.opt_t == 5

    def test_rng_state_restores_stream(self, tmp_path):
        rng = Rng(4)
        rng.normal(10)
        ck = _dummy_checkpoint()
        ck.rng_state_json = rng_state_to_json(rng.state())
        path = tmp_path / "r.bin"
        save_checkpoint(ck, path)
        expected = rng.normal(6)
        fresh = Rng(0)
        import json

        fresh.set_state(json.loads(load_checkpoint(path).rng_state_json))
        np.testing.assert_array_equal(fresh.normal(6), expected)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_truncated(self, tmp_path):
        ck = _dummy_checkpoint()
        path = tmp_path / "t.bin"
        save_checkpoint(ck, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "g.bin"
        save_checkpoint(_dummy_checkpoint(), path)
        path.write_bytes(path.read_bytes() + b"garbage")
        with pytest.raises(CheckpointError, match="7 trailing bytes"):
            load_checkpoint(path)

    def test_version_1_rejected_as_unfused_layout(self, tmp_path):
        path = tmp_path / "v1.bin"
        save_checkpoint(_dummy_checkpoint(), path)
        data = path.read_bytes()
        path.write_bytes(data[:4] + struct.pack("<I", 1) + data[8:])
        with pytest.raises(CheckpointError, match="v1 predates the fused"):
            load_checkpoint(path)

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        import prosody_ddpm.checkpoint as checkpoint

        path = tmp_path / "keep.bin"
        save_checkpoint(_dummy_checkpoint(), path)
        before = path.read_bytes()

        class DiskFull:
            # Writes half of what it is given, then fails like a full disk.
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(checkpoint, "open", lambda *a, **k: DiskFull(open(*a, **k)),
                            raising=False)
        ck = _dummy_checkpoint()
        ck.step = 8
        with pytest.raises(OSError, match="No space"):
            save_checkpoint(ck, path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert load_checkpoint(path).step == 7
        assert sorted(p.name for p in tmp_path.iterdir()) == ["keep.bin"]

    def test_unknown_kind_rejected_on_save(self, tmp_path):
        ck = _dummy_checkpoint()
        ck.kind = "mystery"
        with pytest.raises(CheckpointError, match="kind"):
            save_checkpoint(ck, tmp_path / "k.bin")

"""Config parsing/validation and binary checkpoint round trips."""

import re
import struct
from dataclasses import fields, replace

import numpy as np
import pytest

from prosody_ddpm.checkpoint import (
    Checkpoint,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from prosody_ddpm.config import (
    BaselineSection,
    ConditionSection,
    Config,
    ConfigError,
    DataSection,
    DenoiserSection,
    canonical_text,
    config_hash,
    default_config,
    load_config,
    parse_config,
    validate,
)
from prosody_ddpm.data import NormStats
from prosody_ddpm.numerics import Rng, Tensor
from prosody_ddpm.training import init_model, model_from_checkpoint

from conftest import jitter_params


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
        )
        assert c.schedule.steps == 100
        assert c.schedule.beta_end == 0.2
        assert c.denoiser.dilation_cycle == (1, 2, 4)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[nope]\nx = 1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("[schedule]\nstep = 100\n")

    def test_type_errors(self):
        with pytest.raises(ConfigError, match="steps"):
            parse_config("[schedule]\nsteps = ten\n")

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
            "[denoiser]\ncond_dim = 0\n",
            "[denoiser]\nstep_hidden = -2\n",
            "[condition]\nembed_dim = 0\n",
            "[condition]\nhidden = 0\n",
            "[baseline]\nwidth = 0\n",
            "[baseline]\ndropout = 1.0\n",
            "[optimizer]\nlr = 0\n",
            "[optimizer]\nbatch_size = 0\n",
            "[data]\nholdout_fraction = 0\n",
            "[eval]\nbins = 1\n",
        ):
            with pytest.raises(ConfigError):
                parse_config(text)
        # Infinity passes the range checks (inf > 0), so parsing rejects it.
        for section, key in (("optimizer", "lr"), ("eval", "frame_rate")):
            with pytest.raises(ConfigError, match=rf"\[{section}\] {key}: not a finite number"):
                parse_config(f"[{section}]\n{key} = inf\n")

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


SMALL = Config(
    denoiser=DenoiserSection(channels=8, layers=2, dilation_cycle=(1, 2), cond_dim=6, step_hidden=12),
    condition=ConditionSection(embed_dim=6, hidden=10),
    baseline=BaselineSection(width=12),
    data=DataSection(vocab_size=5),
)
MODEL_KEYS = (
    [("denoiser", f.name) for f in fields(DenoiserSection)]
    + [("baseline", f.name) for f in fields(BaselineSection)]
    + [("condition", "embed_dim"), ("condition", "hidden"), ("data", "vocab_size")]
)


def _model_fingerprint(config: Config, kind: str):
    """Parameter shapes of a fresh ``kind`` model, and its output on fixed
    inputs and noise once every weight (the zero ddpm head too) is jittered."""
    model = init_model(config, kind, Rng(0))
    params = model.params
    jitter_params(params, Rng(1))
    model.replace_params(params)
    cond = model.cond.forward(np.array([[0, 1, 2, 3, 4, 3, 2, 1]]))
    net = model.net
    if kind == "ddpm":
        x_t = Tensor(Rng(2).normal((1, 8, 3)))
        out = net.forward(x_t, net.condition(cond), net.steps(np.array([3])))
    else:
        out = net.forward(cond, Rng(2), training=True)
    return {k: p.shape for k, p in params.items()}, out.data


@pytest.mark.parametrize("section,key", MODEL_KEYS, ids=[f"{s}.{k}" for s, k in MODEL_KEYS])
def test_every_model_key_reaches_the_model(section, key):
    value = getattr(getattr(SMALL, section), key)
    if isinstance(value, tuple):
        changed = value[::-1]
    elif isinstance(value, float):
        changed = value / 2
    else:
        changed = value + 2
    other = replace(SMALL, **{section: replace(getattr(SMALL, section), **{key: changed})})
    validate(other)
    # The condition encoder and ``denoiser.cond_dim`` feed both networks.
    kinds = {"denoiser": ["ddpm"], "baseline": ["baseline"]}.get(section, ["ddpm", "baseline"])
    if key == "cond_dim":
        kinds = ["ddpm", "baseline"]
    for kind in kinds:
        shapes, out = _model_fingerprint(SMALL, kind)
        other_shapes, other_out = _model_fingerprint(other, kind)
        assert shapes != other_shapes or not np.array_equal(out, other_out), (kind, section, key)


@pytest.mark.parametrize("kind", ["ddpm", "baseline"])
def test_model_from_checkpoint_draws_nothing(kind, monkeypatch):
    params = init_model(SMALL, kind, Rng(0)).params
    stats = NormStats(np.zeros(3), np.ones(3))
    ck = Checkpoint(kind=kind, config=SMALL, step=0, params=params, stats=stats)

    def no_draw(self, shape=()):
        raise AssertionError("a random draw while loading a checkpoint")

    monkeypatch.setattr(Rng, "uniform", no_draw)
    loaded = model_from_checkpoint(ck).params
    assert list(loaded) == list(params)
    assert all(loaded[k] is p for k, p in params.items())
    name = next(k for k, p in params.items() if p.data.ndim == 2)
    shape = (params[name].shape[0] + 1, params[name].shape[1])
    ck.params = {**params, name: Tensor(np.zeros(shape))}
    with pytest.raises(ConfigError, match=re.escape(f"parameter {name!r} has shape {shape}")):
        model_from_checkpoint(ck)


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
        rng_state=rng.state(),
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
        assert back.rng_state == ck.rng_state
        assert back.opt_t == 5

    def test_rng_state_restores_stream(self, tmp_path):
        rng = Rng(4)
        rng.normal(10)
        ck = _dummy_checkpoint()
        ck.rng_state = rng.state()
        path = tmp_path / "r.bin"
        save_checkpoint(ck, path)
        expected = rng.normal(6)
        fresh = Rng(0)
        fresh.set_state(load_checkpoint(path).rng_state)
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

    def test_malformed_rng_state_rejected_naming_file(self, tmp_path):
        path = tmp_path / "j.bin"
        save_checkpoint(_dummy_checkpoint(), path)
        data = path.read_bytes()
        at = data.index(b'{"bit_generator"')
        path.write_bytes(data[:at] + b"[" + data[at + 1 :])
        with pytest.raises(CheckpointError, match=re.escape(f"{path}: malformed RNG state")):
            load_checkpoint(path)

    @pytest.mark.parametrize("version", [1, 2, 3, 4])
    def test_older_versions_rejected(self, version, tmp_path):
        path = tmp_path / f"v{version}.bin"
        save_checkpoint(_dummy_checkpoint(), path)
        data = path.read_bytes()
        path.write_bytes(data[:4] + struct.pack("<I", version) + data[8:])
        message = f"{path}: checkpoint format v{version} is older than v5; retrain"
        with pytest.raises(CheckpointError, match=re.escape(message)):
            load_checkpoint(path)

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, disk_full):
        path = tmp_path / "keep.bin"
        save_checkpoint(_dummy_checkpoint(), path)
        before = path.read_bytes()

        disk_full("keep.bin")
        ck = _dummy_checkpoint()
        ck.step = 8
        with pytest.raises(OSError, match="No space"):
            save_checkpoint(ck, path)
        assert path.read_bytes() == before
        assert load_checkpoint(path).step == 7
        assert sorted(p.name for p in tmp_path.iterdir()) == ["keep.bin"]

    def test_non_finite_blob_rejected_naming_file_and_parameter(self, tmp_path):
        path = tmp_path / "nan.bin"
        ck = _dummy_checkpoint()
        ck.params["in.w"] = Tensor(np.full((3, 5), np.nan), _checked_op=None)
        save_checkpoint(ck, path)
        message = f"{path}: non-finite values in parameter 'in.w'"
        with pytest.raises(CheckpointError, match=re.escape(message)):
            load_checkpoint(path)
        ck = _dummy_checkpoint()
        ck.opt_v["scalar"] = np.array(np.inf)
        save_checkpoint(ck, path)
        with pytest.raises(CheckpointError, match="non-finite values in second moment of 'scalar'"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "mean, std",
        [
            ([1.0, 2.0, 3.0], [4.0, np.nan, 6.0]),
            ([1.0, 2.0, 3.0], [4.0, 5.0, np.inf]),
            ([1.0, 2.0, 3.0], [0.0, 5.0, 6.0]),
            ([1.0, 2.0, 3.0], [4.0, -1.0, 6.0]),
            ([np.nan, 2.0, 3.0], [4.0, 5.0, 6.0]),
        ],
        ids=["nan-std", "inf-std", "zero-std", "negative-std", "nan-mean"],
    )
    def test_invalid_norm_stats_rejected_naming_file(self, mean, std, tmp_path):
        path = tmp_path / "stats.bin"
        ck = _dummy_checkpoint()
        ck.stats = NormStats(np.array(mean), np.array(std))
        save_checkpoint(ck, path)
        with pytest.raises(CheckpointError, match=re.escape(f"{path}: normalization statistics")):
            load_checkpoint(path)

    def test_unknown_kind_rejected_on_save(self, tmp_path):
        ck = _dummy_checkpoint()
        ck.kind = "mystery"
        with pytest.raises(CheckpointError, match="kind"):
            save_checkpoint(ck, tmp_path / "k.bin")

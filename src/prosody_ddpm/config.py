"""Declarative run configuration.

Config files are INI-style ``key = value`` sections; every key has a
typed default below, unknown sections or keys are rejected, and a
canonical text rendering (stable ordering, repr floats) feeds both the
config hash and the checkpoint snapshot.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, field, fields


class ConfigError(ValueError):
    """Invalid configuration file, key, or value."""


@dataclass
class ScheduleSection:
    steps: int = 500
    beta_start: float = 1e-4
    beta_end: float = 0.06


@dataclass
class DenoiserSection:
    channels: int = 64
    layers: int = 10
    kernel_size: int = 3
    dilation_cycle: tuple = (1, 2, 4, 8, 16)
    cond_dim: int = 64
    step_hidden: int = 256


@dataclass
class ConditionSection:
    embed_dim: int = 64
    hidden: int = 256
    # Optional checkpoint to borrow the condition encoder from; ``freeze``
    # then keeps it out of the optimizer.
    init_from: str = ""
    freeze: bool = False


@dataclass
class BaselineSection:
    width: int = 256
    kernel_size: int = 3
    dropout: float = 0.5


@dataclass
class OptimizerSection:
    lr: float = 1e-3
    batch_size: int = 16
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


@dataclass
class DataSection:
    corpus: str = ""
    vocab_size: int = 20
    split_seed: int = 0
    holdout_fraction: float = 0.05


@dataclass
class TrainSection:
    steps: int = 20_000
    seed: int = 0
    checkpoint_every: int = 2_000
    log_every: int = 100


@dataclass
class EvalSection:
    bins: int = 128
    n_samples: int = 8
    seed: int = 0
    frame_rate: float = 80.0


@dataclass
class Config:
    schedule: ScheduleSection = field(default_factory=ScheduleSection)
    denoiser: DenoiserSection = field(default_factory=DenoiserSection)
    condition: ConditionSection = field(default_factory=ConditionSection)
    baseline: BaselineSection = field(default_factory=BaselineSection)
    optimizer: OptimizerSection = field(default_factory=OptimizerSection)
    data: DataSection = field(default_factory=DataSection)
    train: TrainSection = field(default_factory=TrainSection)
    eval: EvalSection = field(default_factory=EvalSection)


_SECTION_ORDER = [f.name for f in fields(Config)]


def _parse_value(section: str, key: str, text: str, default):
    kind = type(default)
    text = text.strip()
    try:
        if kind is bool:
            low = text.lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {text!r}")
        if kind is int:
            return int(text)
        if kind is float:
            return float(text)
        if kind is tuple:
            return tuple(int(v) for v in text.replace(",", " ").split())
        return text
    except ValueError as e:
        raise ConfigError(f"[{section}] {key}: {e}") from None


def _set_key(config: Config, section: str, key: str, text: str) -> None:
    if section not in _SECTION_ORDER:
        raise ConfigError(f"unknown section [{section}]")
    sec = getattr(config, section)
    names = {f.name for f in fields(sec)}
    if key not in names:
        raise ConfigError(f"unknown key {key!r} in section [{section}]")
    setattr(sec, key, _parse_value(section, key, text, getattr(sec, key)))


def parse_config(text: str, overrides: list[tuple[str, str]] | None = None) -> Config:
    """Parse config text plus ``section.key`` override pairs; validates fully."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as e:
        raise ConfigError(f"malformed config: {e}") from None
    config = Config()
    if cp.defaults():
        raise ConfigError("top-level keys outside a section are not allowed")
    for section in cp.sections():
        for key, value in cp.items(section):
            _set_key(config, section, key, value)
    for dotted, value in overrides or []:
        if dotted.count(".") != 1:
            raise ConfigError(f"override key must be section.key, got {dotted!r}")
        section, key = dotted.split(".")
        _set_key(config, section, key, value)
    validate(config)
    return config


def load_config(path, overrides: list[tuple[str, str]] | None = None) -> Config:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), overrides)


def default_config(overrides: list[tuple[str, str]] | None = None) -> Config:
    return parse_config("", overrides)


def validate(config: Config) -> None:
    s = config.schedule
    if s.steps < 2:
        raise ConfigError("schedule.steps must be >= 2")
    if not (0.0 < s.beta_start <= s.beta_end < 1.0):
        raise ConfigError("need 0 < schedule.beta_start <= schedule.beta_end < 1")
    d = config.denoiser
    if d.channels < 2 or d.channels % 2 != 0:
        raise ConfigError("denoiser.channels must be even and >= 2")
    c, b, o = config.condition, config.baseline, config.optimizer
    sizes = {
        "denoiser.layers": d.layers,
        "denoiser.cond_dim": d.cond_dim,
        "denoiser.step_hidden": d.step_hidden,
        "condition.embed_dim": c.embed_dim,
        "condition.hidden": c.hidden,
        "baseline.width": b.width,
        "optimizer.batch_size": o.batch_size,
        "data.vocab_size": config.data.vocab_size,
    }
    for name, size in sizes.items():
        if size < 1:
            raise ConfigError(f"{name} must be >= 1")
    kernels = {"denoiser.kernel_size": d.kernel_size, "baseline.kernel_size": b.kernel_size}
    for name, k in kernels.items():
        if k < 1 or k % 2 != 1:
            raise ConfigError(f"{name} must be odd and >= 1")
    if not d.dilation_cycle or any(v < 1 for v in d.dilation_cycle):
        raise ConfigError("denoiser.dilation_cycle entries must be >= 1")
    if not 0.0 <= b.dropout < 1.0:
        raise ConfigError("baseline.dropout must be in [0, 1)")
    if not (o.lr > 0.0 and o.eps > 0.0):
        raise ConfigError("optimizer.lr and optimizer.eps must be > 0")
    for name, beta in (("beta1", o.beta1), ("beta2", o.beta2)):
        if not 0.0 <= beta < 1.0:
            raise ConfigError(f"optimizer.{name} must be in [0, 1)")
    if not 0.0 < config.data.holdout_fraction < 1.0:
        raise ConfigError("data.holdout_fraction must be in (0, 1)")
    t = config.train
    if t.steps < 0 or t.log_every < 1 or t.checkpoint_every < 0:
        raise ConfigError("train.steps >= 0, log_every >= 1, checkpoint_every >= 0 required")
    e = config.eval
    if e.bins < 2 or e.n_samples < 1 or e.frame_rate <= 0.0:
        raise ConfigError("eval.bins >= 2, n_samples >= 1, frame_rate > 0 required")


def _format_value(v) -> str:
    if isinstance(v, tuple):
        return ",".join(str(x) for x in v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def canonical_text(config: Config) -> str:
    """Stable full rendering used for hashing and checkpoint snapshots."""
    lines = []
    for section in _SECTION_ORDER:
        sec = getattr(config, section)
        lines.append(f"[{section}]")
        for f in fields(sec):
            lines.append(f"{f.name} = {_format_value(getattr(sec, f.name))}")
        lines.append("")
    return "\n".join(lines)


def config_hash(config: Config) -> str:
    return hashlib.sha256(canonical_text(config).encode("utf-8")).hexdigest()[:12]


"""Corpus representation, prosody feature transforms, and a synthetic
corpus generator with known per-class conditional distributions.

Physical units are pitch in Hz (> 0), energy as a nonnegative amplitude
norm, and duration in integer frames (>= 1).  Models operate on the
"model space" triple (z-scored pitch, z-scored energy, z-scored
log-duration), where the z-scoring statistics come from the training
split only.
"""

from __future__ import annotations

import contextlib
import json
import os
import queue
import threading
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .numerics import Rng

DIM_NAMES = ("pitch", "energy", "log_duration")
PITCH_FLOOR_HZ = 1e-6
MAX_FRAMES = 2**53  # duration ceiling, exact in both float64 and int64


class CorpusError(ValueError):
    """Malformed corpus file or invalid record."""


@dataclass(frozen=True)
class TokenSequence:
    """Integer token-class ids, the conditioning identity of an utterance."""

    ids: tuple[int, ...]

    def __post_init__(self):
        if len(self.ids) < 1:
            raise ValueError("token sequence must have length >= 1")
        if any(i < 0 for i in self.ids):
            raise ValueError("token ids must be nonnegative")

    def __len__(self) -> int:
        return len(self.ids)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.ids, dtype=np.int64)


@dataclass(eq=False)
class ProsodySequence:
    """Per-token physical prosody values.

    ``duration`` is integer frames; its model-space representation is the
    natural log, so ``log_duration == ln(duration)`` exactly.
    """

    pitch: np.ndarray
    energy: np.ndarray
    duration: np.ndarray

    def __post_init__(self):
        self.pitch = np.asarray(self.pitch, dtype=np.float64)
        self.energy = np.asarray(self.energy, dtype=np.float64)
        self.duration = np.asarray(self.duration, dtype=np.int64)
        n = len(self.pitch)
        if not (len(self.energy) == len(self.duration) == n) or n < 1:
            raise ValueError("pitch, energy, duration must share one length >= 1")
        if not (np.all(np.isfinite(self.pitch)) and np.all(np.isfinite(self.energy))):
            raise ValueError("pitch and energy must be finite")
        if np.any(self.pitch <= 0.0):
            raise ValueError("pitch must be > 0 Hz")
        if np.any(self.energy < 0.0):
            raise ValueError("energy must be >= 0")
        if np.any(self.duration < 1):
            raise ValueError("duration must be >= 1 frame")

    def __len__(self) -> int:
        return len(self.pitch)

    @property
    def log_duration(self) -> np.ndarray:
        return np.log(self.duration.astype(np.float64))

    def features(self) -> np.ndarray:
        """Raw (length, 3) feature matrix: pitch, energy, log-duration."""
        return np.stack([self.pitch, self.energy, self.log_duration], axis=-1)


@dataclass(eq=False)
class Utterance:
    utt_id: str
    tokens: TokenSequence
    prosody: ProsodySequence

    def __post_init__(self):
        if len(self.tokens) != len(self.prosody):
            raise ValueError(
                f"{self.utt_id}: token count {len(self.tokens)} != prosody length {len(self.prosody)}"
            )


@dataclass(eq=False)
class Corpus:
    """Immutable utterance list with optional train/val/test index tags."""

    utterances: list[Utterance]
    splits: dict[str, tuple[int, ...]] | None = None

    def __post_init__(self):
        if not self.utterances:
            raise CorpusError("no utterances")

    def __len__(self) -> int:
        return len(self.utterances)

    def subset(self, split: str) -> list[Utterance]:
        if self.splits is None:
            raise ValueError("corpus has no split assignment; call assign_splits")
        return [self.utterances[i] for i in self.splits[split]]


def assign_splits(corpus: Corpus, seed: int, holdout_fraction: float) -> Corpus:
    """Deterministically tag utterances train/val/test.

    ``holdout_fraction`` of the corpus is reserved and halved into val and
    test (test gets the odd remainder so it is never empty when anything
    is held out).  Pure function of (corpus, seed).
    """
    if not 0.0 < holdout_fraction < 1.0:
        raise ValueError(f"holdout_fraction must be in (0, 1), got {holdout_fraction}")
    n = len(corpus)
    order = Rng(seed).permutation(n)
    n_holdout = max(1, int(round(n * holdout_fraction))) if n > 1 else 0
    holdout = order[:n_holdout]
    train = tuple(int(i) for i in order[n_holdout:])
    val = tuple(int(i) for i in holdout[: n_holdout // 2])
    test = tuple(int(i) for i in holdout[n_holdout // 2 :])
    if not train:
        raise ValueError("holdout leaves no training utterances")
    return Corpus(corpus.utterances, splits={"train": train, "val": val, "test": test})


# --------------------------------------------------------------------------
# Normalization
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class NormStats:
    """Per-dimension z-score statistics over (pitch, energy, log-duration)."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64))
        object.__setattr__(self, "std", np.asarray(self.std, dtype=np.float64))
        if self.mean.shape != (3,) or self.std.shape != (3,):
            raise ValueError("stats must be per-dimension vectors of length 3")

    def equals(self, other: "NormStats") -> bool:
        return np.array_equal(self.mean, other.mean) and np.array_equal(self.std, other.std)


def compute_norm_stats(rows: list[np.ndarray]) -> NormStats:
    """Mean/std of each feature over the train split's ``features()`` rows;
    zero spread is an error."""
    pooled = np.concatenate(rows, axis=0)
    mean = pooled.mean(axis=0)
    std = pooled.std(axis=0)
    for d, m, s in zip(DIM_NAMES, mean, std):
        # constant columns leave only rounding residue after centering
        if s < 1e-12 * max(1.0, abs(m)):
            raise ValueError(f"{d}: zero variance in train split, cannot normalize")
    return NormStats(mean, std)


def normalize(features: np.ndarray, stats: NormStats) -> np.ndarray:
    """Raw (length, 3) ``ProsodySequence.features()`` rows to model-space z-scores."""
    return (features - stats.mean) / stats.std


def denormalize(x: np.ndarray, stats: NormStats) -> ProsodySequence:
    """Model-space features back to physical units.

    The inverse of :func:`normalize` except for clamping physically
    impossible values: pitch is floored just above 0, energy at 0, and
    duration is rounded half-up to an integer frame count in
    ``[1, MAX_FRAMES]``.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != 3:
        raise ValueError(f"expected (length, 3) features, got {x.shape}")
    return _physical(x * stats.std + stats.mean)


def _physical(raw: np.ndarray) -> ProsodySequence:
    """Raw (length, 3) pitch, energy, log-duration rows clamped to physical units."""
    # Capping the log first keeps exp finite; the frame count then
    # saturates at MAX_FRAMES instead of overflowing.
    frames = np.floor(np.exp(np.minimum(raw[:, 2], np.log(2.0 * MAX_FRAMES))) + 0.5)
    return ProsodySequence(
        pitch=np.maximum(raw[:, 0], PITCH_FLOOR_HZ),
        energy=np.maximum(raw[:, 1], 0.0),
        duration=np.clip(frames, 1, MAX_FRAMES).astype(np.int64),
    )


# --------------------------------------------------------------------------
# Whole-file writes
# --------------------------------------------------------------------------

RELEASE_THREAD = "replace_file-release"
_released: queue.SimpleQueue = queue.SimpleQueue()
_release_lock = threading.Lock()
_release_worker: threading.Thread | None = None


def _close_released() -> None:
    while True:
        fd = _released.get()
        os.close(fd)


@contextlib.contextmanager
def replace_file(path, mode: str = "w"):
    """Yield a file (``mode`` "w": UTF-8 text, "wb": bytes) whose content
    replaces ``path`` atomically: it is written to ``<path>.tmp`` and renamed
    over ``path``.  If the block raises, the ``.tmp`` is removed and ``path``
    keeps its old bytes.  The replaced file is held open across the rename
    and closed on one background thread, because on a filesystem mounted with
    ``discard`` the last close of an inode waits while its blocks are freed.
    """
    global _release_worker
    tmp = f"{os.fspath(path)}.tmp"
    old = None
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        with contextlib.suppress(OSError):  # holding the old file is only a speed-up
            old = os.open(path, os.O_RDONLY)
        os.replace(tmp, path)
    except BaseException:
        if old is not None:
            os.close(old)
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
    if old is not None:
        with _release_lock:
            if _release_worker is None or not _release_worker.is_alive():
                _release_worker = threading.Thread(target=_close_released, name=RELEASE_THREAD, daemon=True)
                _release_worker.start()
        _released.put(old)


# --------------------------------------------------------------------------
# Corpus file format
# --------------------------------------------------------------------------
#
# One utterance per line, five tab-separated fields:
#   utt_id <TAB> token ids <TAB> pitch values <TAB> energies <TAB> durations
# where each field after the id is a space-separated list of equal length.


def save_corpus(corpus: Corpus, path) -> None:
    """Write ``corpus`` in the format above, replacing ``path`` through
    :func:`replace_file`: a failed write keeps the previous file."""
    lines = []
    for u in corpus.utterances:
        lines.append(
            "\t".join(
                [
                    u.utt_id,
                    " ".join(str(i) for i in u.tokens.ids),
                    # python float repr is the shortest exact round trip
                    " ".join(repr(float(v)) for v in u.prosody.pitch),
                    " ".join(repr(float(v)) for v in u.prosody.energy),
                    " ".join(str(int(v)) for v in u.prosody.duration),
                ]
            )
        )
    with replace_file(path) as fh:
        fh.write("\n".join(lines) + "\n")


def load_corpus(path) -> Corpus:
    utterances = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 5:
                raise CorpusError(f"line {lineno}: expected 5 tab-separated fields, got {len(parts)}")
            utt_id, ids_s, pitch_s, energy_s, dur_s = parts
            try:
                ids = tuple(int(v) for v in ids_s.split())
                pitch = np.array([float(v) for v in pitch_s.split()])
                energy = np.array([float(v) for v in energy_s.split()])
                duration_f = [float(v) for v in dur_s.split()]
            except ValueError as e:
                raise CorpusError(f"line {lineno}: {e}") from None
            if any(not d.is_integer() for d in duration_f):
                raise CorpusError(f"line {lineno} ({utt_id}): durations must be integers")
            if any(d > MAX_FRAMES for d in duration_f):
                raise CorpusError(f"line {lineno} ({utt_id}): durations must be at most {MAX_FRAMES}")
            if not (len(ids) == len(pitch) == len(energy) == len(duration_f)):
                raise CorpusError(f"line {lineno} ({utt_id}): field lengths differ")
            try:
                utterances.append(
                    Utterance(
                        utt_id=utt_id,
                        tokens=TokenSequence(ids),
                        prosody=ProsodySequence(
                            pitch=pitch,
                            energy=energy,
                            duration=np.array(duration_f, dtype=np.int64),
                        ),
                    )
                )
            except ValueError as e:
                raise CorpusError(f"line {lineno} ({utt_id}): {e}") from None
    return Corpus(utterances)


# --------------------------------------------------------------------------
# Synthetic corpora
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassSpec:
    """Mixture of Gaussians over (pitch Hz, energy, log-duration) for one class.

    ``weight_bias_left``/``weight_bias_right`` are optional (vocab, K)
    tables of log-weight offsets applied according to the neighboring
    token's class, re-normalized per token.
    """

    weights: np.ndarray
    means: np.ndarray  # (K, 3)
    covs: np.ndarray  # (K, 3, 3)
    weight_bias_left: np.ndarray | None = None
    weight_bias_right: np.ndarray | None = None


@dataclass(frozen=True)
class SyntheticSpec:
    """Ground-truth generating process for a synthetic corpus.

    ``mean_offset_left[j]`` / ``mean_offset_right[j]`` are additive shifts
    on the sampled mean when class ``j`` is the left/right neighbor of the
    current token (zero at utterance boundaries), which makes features
    context-dependent without changing their per-class mixture shape.
    """

    vocab_size: int
    classes: tuple[ClassSpec, ...]
    mean_offset_left: np.ndarray | None = None
    mean_offset_right: np.ndarray | None = None

    def __post_init__(self):
        if self.vocab_size < 1 or len(self.classes) != self.vocab_size:
            raise ValueError("need one class spec per vocabulary entry")
        for ci, cls in enumerate(self.classes):
            w = np.asarray(cls.weights)
            if w.ndim != 1 or len(w) != len(cls.means) or len(w) != len(cls.covs):
                raise ValueError(f"class {ci}: component tables must share length")
            if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-9:
                raise ValueError(f"class {ci}: weights must be nonnegative and sum to 1")
            for k, cov in enumerate(cls.covs):
                try:
                    np.linalg.cholesky(cov)
                except np.linalg.LinAlgError:
                    raise ValueError(f"class {ci} component {k}: covariance not positive definite") from None
            for bias, side in ((cls.weight_bias_left, "left"), (cls.weight_bias_right, "right")):
                if bias is not None and bias.shape != (self.vocab_size, len(w)):
                    raise ValueError(f"class {ci}: {side} weight bias must be (vocab, K)")
        for off, side in ((self.mean_offset_left, "left"), (self.mean_offset_right, "right")):
            if off is not None and off.shape != (self.vocab_size, 3):
                raise ValueError(f"{side} mean offsets must be (vocab, 3)")

    # Draw tables shared by every generate_corpus call on this spec.
    @cached_property
    def _chols(self) -> list[np.ndarray]:
        """Per class, the Cholesky factors of its component covariances."""
        return [np.linalg.cholesky(cls.covs) for cls in self.classes]

    @cached_property
    def _cdfs(self) -> dict[tuple[int, int | None, int | None], np.ndarray]:
        """Mixture CDFs keyed as in generate_corpus, each built at the first
        draw that needs it."""
        return {}


def save_spec(spec: SyntheticSpec, path) -> None:
    with replace_file(path) as fh:
        json.dump(asdict(spec), fh, indent=1, sort_keys=True, default=np.ndarray.tolist)
        fh.write("\n")


def load_spec(path) -> SyntheticSpec:
    """Read a spec written by :func:`save_spec`; lists become float64 arrays."""

    def arrays(doc: dict) -> dict:
        return {k: np.asarray(v, dtype=np.float64) if isinstance(v, list) else v for k, v in doc.items()}

    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
            classes = tuple(ClassSpec(**arrays(c)) for c in doc.pop("classes"))
            return SyntheticSpec(classes=classes, **arrays(doc))
        except (AttributeError, KeyError, TypeError, ValueError) as e:
            raise CorpusError(f"{path}: malformed spec ({type(e).__name__}: {e})") from None


def desk_bench_spec(vocab_size: int) -> SyntheticSpec:
    """Default synthetic benchmark with known distribution shapes.

    Per token class: pitch is bimodal for the first half of the classes
    (two equal-weight components at +/- 3 component-sigma around the class
    center) and unimodal for the rest; energy is a narrow bell whose mean
    is shifted additively by both neighbor classes, so it is close to a
    deterministic function of local context; log-duration is Gaussian,
    i.e. raw duration is right-skewed lognormal.
    """
    if vocab_size < 2:
        raise ValueError("desk bench needs at least 2 classes")
    rng = Rng(12345)
    pitch_centers = np.linspace(125.0, 255.0, vocab_size)
    energy_means = 0.8 + 0.8 * rng.permutation(vocab_size) / max(vocab_size - 1, 1)
    logdur_means = np.log(4.0) + (np.log(18.0) - np.log(4.0)) * rng.permutation(vocab_size) / max(
        vocab_size - 1, 1
    )
    pitch_sigma_bimodal = 10.0
    pitch_sigma_unimodal = 15.0
    energy_sigma = 0.012
    logdur_sigma = 0.35

    classes = []
    n_bimodal = vocab_size // 2
    for k in range(vocab_size):
        base = np.array([pitch_centers[k], energy_means[k], logdur_means[k]])
        if k < n_bimodal:
            offset = 3.0 * pitch_sigma_bimodal
            means = np.stack([base + np.array([-offset, 0, 0]), base + np.array([offset, 0, 0])])
            weights = np.array([0.5, 0.5])
            cov = np.diag([pitch_sigma_bimodal**2, energy_sigma**2, logdur_sigma**2])
            covs = np.stack([cov, cov])
        else:
            means = base[None, :]
            weights = np.array([1.0])
            covs = np.diag([pitch_sigma_unimodal**2, energy_sigma**2, logdur_sigma**2])[None, :, :]
        classes.append(ClassSpec(weights=weights, means=means, covs=covs))

    # Context acts on energy only: each neighbor class contributes a fixed
    # additive shift, drawn once here so the result is a pure function of
    # vocab_size.
    off_left = np.zeros((vocab_size, 3))
    off_right = np.zeros((vocab_size, 3))
    off_left[:, 1] = rng.uniform(vocab_size) * 0.24 - 0.12
    off_right[:, 1] = rng.uniform(vocab_size) * 0.24 - 0.12
    return SyntheticSpec(
        vocab_size=vocab_size,
        classes=tuple(classes),
        mean_offset_left=off_left,
        mean_offset_right=off_right,
    )


def _mixture_cdf(spec: SyntheticSpec, k: int, left: int | None, right: int | None) -> np.ndarray:
    """Component CDF of class ``k`` with its left/right neighbour weight
    biases applied (``None``: no bias), as ``Rng.categorical`` takes it."""
    cls = spec.classes[k]
    logw = np.log(cls.weights)
    if left is not None:
        logw = logw + cls.weight_bias_left[left]
    if right is not None:
        logw = logw + cls.weight_bias_right[right]
    w = np.exp(logw - logw.max())
    w /= w.sum()
    cdf = w.cumsum()
    cdf /= cdf[-1]
    if not np.isfinite(cdf).all():
        raise ValueError(f"class {k}: mixture weights not finite between neighbours {left} and {right}")
    return cdf


def generate_corpus(
    spec: SyntheticSpec,
    n_utterances: int,
    len_range: tuple[int, int],
    rng: Rng,
) -> Corpus:
    """Draw utterances with uniform token classes and mixture prosody.

    Duration is materialized by exponentiating the sampled log-duration
    and rounding half-up with a floor of one frame.
    """
    if n_utterances < 1:
        raise ValueError(f"n_utterances must be >= 1, got {n_utterances}")
    lo, hi = len_range
    if lo < 1 or hi < lo:
        raise ValueError(f"invalid len_range {len_range}")
    chols, cdfs = spec._chols, spec._cdfs
    utterances = []
    for ui in range(n_utterances):
        length = int(rng.integers(lo, hi + 1))
        ids = rng.integers(0, spec.vocab_size, length).tolist()
        feats = np.empty((length, 3))
        for pos, k in enumerate(ids):
            cls = spec.classes[k]
            left = ids[pos - 1] if pos > 0 else None
            right = ids[pos + 1] if pos < length - 1 else None
            # A class's CDF depends on a neighbour only through its bias table.
            key = (
                k,
                left if cls.weight_bias_left is not None else None,
                right if cls.weight_bias_right is not None else None,
            )
            cdf = cdfs.get(key)
            if cdf is None:
                cdf = cdfs[key] = _mixture_cdf(spec, *key)
            comp = rng.categorical(cdf)
            x = cls.means[comp] + chols[k][comp] @ rng.normal(3)
            if spec.mean_offset_left is not None and left is not None:
                x = x + spec.mean_offset_left[left]
            if spec.mean_offset_right is not None and right is not None:
                x = x + spec.mean_offset_right[right]
            feats[pos] = x
        utterances.append(
            Utterance(
                utt_id=f"utt{ui:05d}",
                tokens=TokenSequence(tuple(ids)),
                prosody=_physical(feats),
            )
        )
    return Corpus(utterances)

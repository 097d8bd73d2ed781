"""Distribution-diversity evaluation: histogram quantization, JS
divergence (pooled and per token class), mode coverage, and sampling-cost
measurement.

JS divergence is computed with the natural log, so values live in
``[0, ln 2]``; this is stated in every rendered report.  Token data is
held in one shape, a token table: ids ``(N,)`` and raw features
``(N, 3)`` concatenated in utterance order.  A report builds one
:class:`Reference` from the corpus, with bin edges over the train and
test splits (never from predictions, so compared systems are measured
against the same ruler) and the test split's histograms, and scores
every system against it.  :func:`evaluate_predictor` and
:func:`measure_rtf` share one per-utterance draw loop.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .data import DIM_NAMES, Corpus, ProsodySequence, TokenSequence, replace_file
from .numerics import Rng

LN2 = float(np.log(2.0))


@dataclass(frozen=True)
class BinningSpec:
    """Uniform bin edges for one prosody dimension.

    ``lo``/``hi`` span the pooled ground-truth range; out-of-range values
    clamp into the edge bins.  Duration is binned on the log scale.
    """

    dimension: str
    lo: float
    hi: float
    bins: int

    def __post_init__(self):
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        if self.bins < 2:
            raise ValueError(f"{self.dimension}: need at least 2 bins, got {self.bins}")
        if not self.lo < self.hi:
            raise ValueError(f"{self.dimension}: bin range [{self.lo}, {self.hi}] is empty")

    def edges(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.bins + 1)


def quantize(values, spec: BinningSpec) -> np.ndarray:
    """Normalized histogram of ``values`` under ``spec``."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("quantize: empty input")
    counts, _ = np.histogram(np.clip(v, spec.lo, spec.hi), bins=spec.bins, range=(spec.lo, spec.hi))
    return counts / v.size


def js_divergence(p, q) -> float:
    """Jensen-Shannon divergence between two probability vectors.

    ``JS(p, q) = (KL(p || m) + KL(q || m)) / 2`` with ``m = (p + q) / 2``,
    natural log, and the ``0 * log(0 / x) = 0`` convention.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape or p.ndim != 1:
        raise ValueError(f"js_divergence: incompatible shapes {p.shape} and {q.shape}")
    if np.any(p < 0.0) or np.any(q < 0.0):
        raise ValueError("js_divergence: negative mass")
    if abs(p.sum() - 1.0) > 1e-9 or abs(q.sum() - 1.0) > 1e-9:
        raise ValueError("js_divergence: inputs must each sum to 1")
    m = 0.5 * (p + q)

    def kl_to_m(a: np.ndarray) -> float:
        nz = a > 0.0
        return float(np.sum(a[nz] * np.log(a[nz] / m[nz])))

    return max(0.5 * (kl_to_m(p) + kl_to_m(q)), 0.0)


def mode_coverage(samples, modes: list[tuple[float, float]]) -> np.ndarray:
    """Fraction of samples within each mode's radius, plus the out-of-mode rest.

    ``modes`` is a list of ``(center, radius)`` pairs whose intervals must
    not overlap; the returned vector has one entry per mode followed by
    the out-of-mode fraction, and sums to 1.
    """
    s = np.asarray(samples, dtype=np.float64)
    if s.size == 0:
        raise ValueError("mode_coverage: no samples")
    if not modes:
        raise ValueError("mode_coverage: empty mode list")
    for center, radius in modes:
        if radius <= 0.0:
            raise ValueError(f"mode_coverage: radius must be positive, got {radius}")
    ordered = sorted(modes)
    for (c1, r1), (c2, r2) in zip(ordered, ordered[1:]):
        if c1 + r1 > c2 - r2:
            raise ValueError(f"mode_coverage: modes at {c1} and {c2} overlap")
    occ = [float(np.mean(np.abs(s - c) <= r)) for c, r in modes]
    occ.append(1.0 - sum(occ))
    return np.asarray(occ)


# --------------------------------------------------------------------------
# Predictor evaluation
# --------------------------------------------------------------------------


@dataclass
class Predictor:
    """A trained system under evaluation.

    ``fn(tokens, rng, n)`` draws ``n`` prosody sequences for one
    utterance from ``rng``.  A deterministic predictor ignores ``rng``
    and returns ``n`` copies of its one output.
    """

    name: str
    fn: Callable[[TokenSequence, Rng, int], list[ProsodySequence]]


def token_table(pairs) -> tuple[np.ndarray, np.ndarray]:
    """Token ids ``(N,)`` and raw features ``(N, 3)`` of a list of
    ``(tokens, prosody)`` pairs, concatenated in order."""
    ids = np.concatenate([tokens.as_array() for tokens, _ in pairs])
    feats = np.concatenate([prosody.features() for _, prosody in pairs])
    return ids, feats


def _histograms(ids, feats, binnings, classes):
    """Pooled histogram per dimension, and per class in ``classes``."""

    def per_dim(rows):
        return {dim: quantize(rows[:, d], binnings[dim]) for d, dim in enumerate(DIM_NAMES)}

    return per_dim(feats), {int(c): per_dim(feats[ids == c]) for c in classes}


@dataclass(frozen=True)
class Reference:
    """What every system in a report is scored against.

    Bin edges span the train and test splits; the histograms are the
    test split's (predictions are drawn for test utterances, so an oracle
    that replays the test ground truth scores exactly zero divergence).
    ``classes`` lists every class in either split.
    """

    binnings: dict[str, BinningSpec]
    hist: dict[str, np.ndarray]
    class_hist: dict[int, dict[str, np.ndarray]]
    classes: tuple[int, ...]


def _test_split(corpus: Corpus):
    test = corpus.subset("test")
    if not test:
        raise ValueError("test split is empty: a corpus needs at least 2 utterances to hold one out")
    return test


def build_reference(corpus: Corpus, bins: int) -> Reference:
    test = [(u.tokens, u.prosody) for u in _test_split(corpus)]
    all_ids, all_feats = token_table([(u.tokens, u.prosody) for u in corpus.subset("train")] + test)
    binnings = {
        dim: BinningSpec(dim, all_feats[:, d].min(), all_feats[:, d].max(), bins)
        for d, dim in enumerate(DIM_NAMES)
    }
    ids, feats = token_table(test)
    hist, class_hist = _histograms(ids, feats, binnings, np.unique(ids))
    return Reference(binnings, hist, class_hist, tuple(int(c) for c in np.unique(all_ids)))


def _draws(predictors: Sequence[Predictor], corpus: Corpus, seed: int, n: int, repeats: int = 1):
    """``(utterance, draws, seconds)`` per test utterance, with one entry of
    ``draws`` and ``seconds`` per predictor, timing only ``fn``.

    Every predictor draws ``n`` sequences from ``Rng((seed, index))``, so
    results do not depend on evaluation order.  Each of ``repeats`` rounds
    calls the predictors in turn, each from a fresh copy of that stream,
    so drifting host speed hits them alike; ``seconds`` holds the median
    per predictor.
    """
    for ui, utt in enumerate(_test_split(corpus)):
        outs = [None] * len(predictors)
        seconds = [[] for _ in predictors]
        for _ in range(repeats):
            for i, predictor in enumerate(predictors):
                rng = Rng((seed, ui))
                t0 = time.perf_counter()
                outs[i] = predictor.fn(utt.tokens, rng, n)
                seconds[i].append(time.perf_counter() - t0)
        yield utt, outs, [float(np.median(s)) for s in seconds]


@dataclass
class SystemEval:
    """Scores of one system, plus the token table of its draws."""

    name: str
    n_sequences: int
    pooled_js: dict[str, float]
    per_class_js: dict[int, dict[str, float]]
    per_class_mean_js: dict[str, float]
    pooled_hist: dict[str, np.ndarray]
    ids: np.ndarray
    feats: np.ndarray


@dataclass
class EvalReport:
    reference: Reference
    systems: list[SystemEval]
    warnings: list[str]
    metadata: dict[str, str]
    mode_coverage: dict[str, np.ndarray] = field(default_factory=dict)


def evaluate_predictor(
    predictor: Predictor,
    corpus: Corpus,
    seed: int,
    n_samples_per_utterance: int,
    ref: Reference,
) -> SystemEval:
    """Pool predictions over the test split and score them against ``ref``.

    Pure function of (predictor, corpus, seed, config).
    """
    pairs = [
        (utt.tokens, ps)
        for utt, (out,), _ in _draws([predictor], corpus, seed, n_samples_per_utterance)
        for ps in out
    ]
    ids, feats = token_table(pairs)
    hist, class_hist = _histograms(ids, feats, ref.binnings, ref.class_hist)
    per_class_js = {
        cls: {dim: js_divergence(class_hist[cls][dim], ref_hist[dim]) for dim in DIM_NAMES}
        for cls, ref_hist in ref.class_hist.items()
    }
    return SystemEval(
        name=predictor.name,
        n_sequences=len(pairs),
        pooled_js={dim: js_divergence(hist[dim], ref.hist[dim]) for dim in DIM_NAMES},
        per_class_js=per_class_js,
        per_class_mean_js={
            dim: float(np.mean([row[dim] for row in per_class_js.values()])) for dim in DIM_NAMES
        },
        pooled_hist=hist,
        ids=ids,
        feats=feats,
    )


def build_report(
    corpus: Corpus,
    predictors: list[Predictor],
    seed: int,
    n_samples_per_utterance: int,
    bins: int,
    metadata: dict[str, str],
    synthetic_spec=None,
) -> EvalReport:
    ref = build_reference(corpus, bins)
    absent = [c for c in ref.classes if c not in ref.class_hist]
    warnings = [f"class {c}: absent from the test set; omitted from the table" for c in absent]
    systems = [evaluate_predictor(p, corpus, seed, n_samples_per_utterance, ref) for p in predictors]
    meta = dict(metadata)
    meta["seed"] = str(seed)
    meta["bins"] = str(bins)
    meta["n_samples_per_utterance"] = str(n_samples_per_utterance)
    coverage: dict[str, np.ndarray] = {}
    if synthetic_spec is not None:
        coverage = _oracle_mode_coverage(synthetic_spec, systems, warnings)
    return EvalReport(
        reference=ref,
        systems=systems,
        warnings=warnings,
        metadata=meta,
        mode_coverage=coverage,
    )


def _oracle_mode_coverage(spec, systems: list[SystemEval], warnings: list[str]):
    """Occupancy of each multimodal class's pitch modes, per system.

    Mode radii are 1.5 component standard deviations around each
    component mean; classes whose intervals overlap are skipped.
    """
    coverage: dict[str, np.ndarray] = {}
    for cls_id, cls in enumerate(spec.classes):
        if len(cls.weights) < 2:
            continue
        modes = [
            (float(cls.means[k][0]), 1.5 * float(np.sqrt(cls.covs[k][0][0])))
            for k in range(len(cls.weights))
        ]
        for sysev in systems:
            values = sysev.feats[sysev.ids == cls_id, 0]
            if values.size == 0:
                continue
            try:
                coverage[f"{sysev.name}/class{cls_id}/pitch"] = mode_coverage(values, modes)
            except ValueError as e:
                warnings.append(f"mode coverage skipped for class {cls_id}: {e}")
                break
    return coverage


def render_report(report: EvalReport) -> str:
    """Deterministic text rendering (no timestamps, stable float format)."""
    out = []
    out.append("# prosody prediction evaluation")
    out.append("# js divergence uses the natural log; range [0, ln 2 = 0.693147]")
    out.append("")
    out.append("[metadata]")
    for k, v in report.metadata.items():
        out.append(f"{k} = {v}")
    out.append("")
    out.append("[binning]")
    out.append("dimension\tbins\tlo\thi")
    for dim in DIM_NAMES:
        b = report.reference.binnings[dim]
        out.append(f"{dim}\t{b.bins}\t{b.lo!r}\t{b.hi!r}")
    out.append("")
    out.append("[pooled_js]")
    out.append("dimension\tsystem\tjs")
    for dim in DIM_NAMES:
        for sysev in report.systems:
            out.append(f"{dim}\t{sysev.name}\t{sysev.pooled_js[dim]:.6f}")
    out.append("")
    out.append("[per_class_mean_js]")
    out.append("dimension\tsystem\tjs")
    for dim in DIM_NAMES:
        for sysev in report.systems:
            out.append(f"{dim}\t{sysev.name}\t{sysev.per_class_mean_js[dim]:.6f}")
    out.append("")
    out.append("[per_class_js]")
    out.append("class\tsystem\t" + "\t".join(DIM_NAMES))
    classes = sorted({c for s in report.systems for c in s.per_class_js})
    for cls in classes:
        for sysev in report.systems:
            row = sysev.per_class_js.get(cls)
            if row is None:
                continue
            cells = "\t".join(f"{row[dim]:.6f}" for dim in DIM_NAMES)
            out.append(f"{cls}\t{sysev.name}\t{cells}")
    if report.mode_coverage:
        out.append("")
        out.append("[mode_coverage]")
        out.append("key\toccupancy")
        for key in sorted(report.mode_coverage):
            occ = "\t".join(f"{v:.6f}" for v in report.mode_coverage[key])
            out.append(f"{key}\t{occ}")
    if report.warnings:
        out.append("")
        out.append("[warnings]")
        out.extend(report.warnings)
    out.append("")
    return "\n".join(out)


def write_histograms(report: EvalReport, directory) -> list[str]:
    """One TSV per dimension: bin edges, ground truth, then each system."""
    written = []
    for dim in DIM_NAMES:
        b = report.reference.binnings[dim]
        edges = b.edges()
        path = os.path.join(str(directory), f"hist_{dim}.tsv")
        names = [s.name for s in report.systems]
        with replace_file(path) as fh:
            fh.write("bin_lo\tbin_hi\tground_truth\t" + "\t".join(names) + "\n")
            for i in range(b.bins):
                cols = [repr(float(edges[i])), repr(float(edges[i + 1])), f"{report.reference.hist[dim][i]:.8f}"]
                cols += [f"{s.pooled_hist[dim][i]:.8f}" for s in report.systems]
                fh.write("\t".join(cols) + "\n")
        written.append(path)
    return written


# --------------------------------------------------------------------------
# Sampling cost
# --------------------------------------------------------------------------


# A baseline draw takes about a millisecond, so one timed call is at the mercy of host load.
RTF_REPEATS = 5


@dataclass(frozen=True)
class RtfResult:
    """Real-time factor: prediction seconds per second of implied audio."""

    rtf: float
    seconds_per_utterance: float
    audio_seconds_per_utterance: float
    n_utterances: int


def measure_rtf(
    predictors: Sequence[Predictor],
    corpus: Corpus,
    frame_rate: float,
    seed: int = 0,
) -> list[RtfResult]:
    """Wall-clock prediction time over implied audio time, averaged over
    the test split; one result per predictor, in order.

    Each test utterance's draw runs ``RTF_REPEATS`` times through the loop
    :func:`evaluate_predictor` uses, from the same per-utterance stream,
    and the median time of the predictor call counts.  The predictors
    take turns inside every repeat, so their times are comparable even
    when the host's speed drifts.  Audio time comes from ground-truth
    durations at the assumed frame rate.
    """
    if frame_rate <= 0.0:
        raise ValueError(f"frame_rate must be positive, got {frame_rate}")
    rows = [
        (utt.prosody.duration.sum() / frame_rate, *dt)
        for utt, _, dt in _draws(predictors, corpus, seed, 1, RTF_REPEATS)
    ]
    audio, *secs = np.array(rows, dtype=np.float64).T
    return [
        RtfResult(
            rtf=float(np.mean(col / audio)),
            seconds_per_utterance=float(col.mean()),
            audio_seconds_per_utterance=float(audio.mean()),
            n_utterances=len(audio),
        )
        for col in secs
    ]

"""Distribution-diversity evaluation: histogram quantization, JS
divergence (pooled and per token class), mode coverage, and sampling-cost
measurement.

JS divergence is computed with the natural log, so values live in
``[0, ln 2]``; this is stated in every rendered report.  Bin edges always
come from pooled ground truth (train plus test splits), never from
predictions, so compared systems are measured against the same ruler.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .data import DIM_NAMES, Corpus, ProsodySequence, TokenSequence
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
    bins: int = 128

    def __post_init__(self):
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        if self.bins < 2:
            raise ValueError(f"{self.dimension}: need at least 2 bins, got {self.bins}")
        if not self.lo < self.hi:
            raise ValueError(f"{self.dimension}: bin range [{self.lo}, {self.hi}] is empty")

    def edges(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.bins + 1)


def binning_from_values(dimension: str, values: np.ndarray, bins: int = 128) -> BinningSpec:
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError(f"{dimension}: no values to derive bin edges from")
    return BinningSpec(dimension, float(values.min()), float(values.max()), bins)


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
    utterance.  Stochastic predictors get ``n_samples`` draws per
    utterance from a per-utterance seeded stream; deterministic ones are
    called once per utterance with ``rng=None`` and ``n=1``.
    """

    name: str
    stochastic: bool
    fn: Callable[[TokenSequence, Rng | None, int], list[ProsodySequence]]


@dataclass
class SystemEval:
    name: str
    n_sequences: int
    n_tokens: int
    pooled_js: dict[str, float]
    per_class_js: dict[int, dict[str, float]]
    per_class_mean_js: dict[str, float]
    pooled_hist: dict[str, np.ndarray]
    # Raw per-class value pools, kept for mode-coverage style follow-ups;
    # not rendered into reports.
    per_class_values: dict[int, dict[str, np.ndarray]] = field(default_factory=dict)


@dataclass
class EvalReport:
    binnings: dict[str, BinningSpec]
    gt_hist: dict[str, np.ndarray]
    systems: list[SystemEval]
    warnings: list[str]
    metadata: dict[str, str]
    mode_coverage: dict[str, np.ndarray] = field(default_factory=dict)


def _collect_values(sequences: list[tuple[TokenSequence, ProsodySequence]]):
    """Pool (pitch, energy, log-duration) rows overall and per token class."""
    pooled: dict[str, list[np.ndarray]] = {d: [] for d in DIM_NAMES}
    per_class: dict[int, dict[str, list[np.ndarray]]] = {}
    n_tokens = 0
    for tokens, prosody in sequences:
        feats = prosody.features()
        n_tokens += len(tokens)
        ids = tokens.as_array()
        for d, dim in enumerate(DIM_NAMES):
            pooled[dim].append(feats[:, d])
        for cls in np.unique(ids):
            rows = feats[ids == cls]
            bucket = per_class.setdefault(int(cls), {d: [] for d in DIM_NAMES})
            for d, dim in enumerate(DIM_NAMES):
                bucket[dim].append(rows[:, d])
    pooled_arr = {d: np.concatenate(v) for d, v in pooled.items()}
    per_class_arr = {
        c: {d: np.concatenate(v) for d, v in dims.items()} for c, dims in per_class.items()
    }
    return pooled_arr, per_class_arr, n_tokens


@dataclass
class GroundTruth:
    """Reference pools: bin edges span train+test, histograms use the test
    split (predictions are drawn for test utterances, so an oracle that
    replays the test ground truth scores exactly zero divergence)."""

    edge_pool: dict[str, np.ndarray]
    test_pooled: dict[str, np.ndarray]
    test_per_class: dict[int, dict[str, np.ndarray]]
    all_classes: tuple[int, ...]


def ground_truth_pool(corpus: Corpus) -> GroundTruth:
    edge_rows = [(u.tokens, u.prosody) for u in corpus.subset("train") + corpus.subset("test")]
    test_rows = [(u.tokens, u.prosody) for u in corpus.subset("test")]
    edge_pool, edge_per_class, _ = _collect_values(edge_rows)
    test_pooled, test_per_class, _ = _collect_values(test_rows)
    return GroundTruth(
        edge_pool=edge_pool,
        test_pooled=test_pooled,
        test_per_class=test_per_class,
        all_classes=tuple(sorted(edge_per_class)),
    )


def make_binnings(gt_pooled: dict[str, np.ndarray], bins: int = 128) -> dict[str, BinningSpec]:
    return {dim: binning_from_values(dim, gt_pooled[dim], bins) for dim in DIM_NAMES}


def evaluate_predictor(
    predictor: Predictor,
    corpus: Corpus,
    seed: int,
    n_samples_per_utterance: int,
    binnings: dict[str, BinningSpec],
    gt: GroundTruth,
    warnings: list[str] | None = None,
) -> SystemEval:
    """Pool predictions over the test split and score them against ground truth.

    Pure function of (predictor, corpus, seed, config): each utterance
    gets its own seeded stream so the result does not depend on
    evaluation order.
    """
    test = corpus.subset("test")
    if not test:
        raise ValueError("evaluate_predictor: test split is empty")
    draws = n_samples_per_utterance if predictor.stochastic else 1
    outputs: list[tuple[TokenSequence, ProsodySequence]] = []
    for ui, utt in enumerate(test):
        rng = Rng((seed, ui)) if predictor.stochastic else None
        for ps in predictor.fn(utt.tokens, rng, draws):
            outputs.append((utt.tokens, ps))
    pooled, per_class, n_tokens = _collect_values(outputs)

    pooled_js = {}
    pooled_hist = {}
    gt_hist_cache = {dim: quantize(gt.test_pooled[dim], binnings[dim]) for dim in DIM_NAMES}
    for dim in DIM_NAMES:
        hist = quantize(pooled[dim], binnings[dim])
        pooled_hist[dim] = hist
        pooled_js[dim] = js_divergence(hist, gt_hist_cache[dim])

    per_class_js: dict[int, dict[str, float]] = {}
    for cls in gt.all_classes:
        if cls not in gt.test_per_class or cls not in per_class:
            msg = f"class {cls}: absent from the test set; omitted from the table"
            if warnings is not None and msg not in warnings:
                warnings.append(msg)
            continue
        per_class_js[cls] = {
            dim: js_divergence(
                quantize(per_class[cls][dim], binnings[dim]),
                quantize(gt.test_per_class[cls][dim], binnings[dim]),
            )
            for dim in DIM_NAMES
        }
    per_class_mean = {
        dim: float(np.mean([row[dim] for row in per_class_js.values()])) for dim in DIM_NAMES
    }
    return SystemEval(
        name=predictor.name,
        n_sequences=len(outputs),
        n_tokens=n_tokens,
        pooled_js=pooled_js,
        per_class_js=per_class_js,
        per_class_mean_js=per_class_mean,
        pooled_hist=pooled_hist,
        per_class_values=per_class,
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
    gt = ground_truth_pool(corpus)
    binnings = make_binnings(gt.edge_pool, bins)
    warnings: list[str] = []
    systems = [
        evaluate_predictor(p, corpus, seed, n_samples_per_utterance, binnings, gt, warnings)
        for p in predictors
    ]
    gt_hist = {dim: quantize(gt.test_pooled[dim], binnings[dim]) for dim in DIM_NAMES}
    meta = dict(metadata)
    meta["seed"] = str(seed)
    meta["bins"] = str(bins)
    meta["n_samples_per_utterance"] = str(n_samples_per_utterance)
    coverage: dict[str, np.ndarray] = {}
    if synthetic_spec is not None:
        coverage = _oracle_mode_coverage(synthetic_spec, systems, warnings)
    return EvalReport(
        binnings=binnings,
        gt_hist=gt_hist,
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
            values = sysev.per_class_values.get(cls_id, {}).get("pitch")
            if values is None or values.size == 0:
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
        b = report.binnings[dim]
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
    import os

    written = []
    for dim in DIM_NAMES:
        b = report.binnings[dim]
        edges = b.edges()
        path = os.path.join(str(directory), f"hist_{dim}.tsv")
        names = [s.name for s in report.systems]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("bin_lo\tbin_hi\tground_truth\t" + "\t".join(names) + "\n")
            for i in range(b.bins):
                cols = [repr(float(edges[i])), repr(float(edges[i + 1])), f"{report.gt_hist[dim][i]:.8f}"]
                cols += [f"{s.pooled_hist[dim][i]:.8f}" for s in report.systems]
                fh.write("\t".join(cols) + "\n")
        written.append(path)
    return written


# --------------------------------------------------------------------------
# Sampling cost
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RtfResult:
    """Real-time factor: prediction seconds per second of implied audio."""

    rtf: float
    seconds_per_utterance: float
    audio_seconds_per_utterance: float
    n_utterances: int


def measure_rtf(
    predictor: Predictor,
    corpus: Corpus,
    frame_rate: float,
    seed: int = 0,
) -> RtfResult:
    """Wall-clock prediction time over implied audio time, averaged over
    the test split.  Audio time comes from ground-truth durations at the
    assumed frame rate; zero-duration utterances are excluded.
    """
    if frame_rate <= 0.0:
        raise ValueError(f"frame_rate must be positive, got {frame_rate}")
    test = corpus.subset("test")
    rtfs = []
    total_s = 0.0
    total_audio = 0.0
    used = 0
    for ui, utt in enumerate(test):
        frames = int(utt.prosody.duration.sum())
        if frames == 0:
            continue
        rng = Rng((seed, ui)) if predictor.stochastic else None
        t0 = time.perf_counter()
        predictor.fn(utt.tokens, rng, 1)
        dt = time.perf_counter() - t0
        audio = frames / frame_rate
        rtfs.append(dt / audio)
        total_s += dt
        total_audio += audio
        used += 1
    if not used:
        raise ValueError("measure_rtf: no usable test utterances")
    return RtfResult(
        rtf=float(np.mean(rtfs)),
        seconds_per_utterance=total_s / used,
        audio_seconds_per_utterance=total_audio / used,
        n_utterances=used,
    )

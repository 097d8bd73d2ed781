"""Golden report: a tiny literal corpus scored by a replay and a noisy
predictor renders byte for byte as the files committed under
``tests/golden/``.

The corpus is written out as literals rather than drawn from
``generate_corpus`` so that no linear-algebra rounding can move the bin
edges; the spec gives class 0 two pitch modes so the mode-coverage
section is rendered, and class 2 appears only in the train split so the
report carries a warning.
"""

from pathlib import Path

import numpy as np

from prosody_ddpm.data import (
    ClassSpec,
    Corpus,
    ProsodySequence,
    SyntheticSpec,
    TokenSequence,
    Utterance,
)
from prosody_ddpm.evaluation import Predictor, build_report, render_report, write_histograms

GOLDEN = Path(__file__).parent / "golden"

# (token ids, pitch Hz, energy, duration frames); the first four are the
# train split, the last two the test split.
ROWS = [
    ((0, 1, 2), (98.5, 131.0, 205.25), (0.9, 1.1, 0.7), (4, 7, 12)),
    ((1, 0, 0, 2), (127.5, 161.0, 101.5, 198.0), (1.05, 0.85, 0.95, 0.75), (6, 3, 5, 10)),
    ((2, 1), (210.0, 133.25), (0.65, 1.2), (14, 8)),
    ((0, 0, 1), (159.0, 97.0, 129.0), (0.88, 0.92, 1.0), (2, 4, 9)),
    ((0, 1, 0), (102.0, 130.5, 158.5), (0.93, 1.08, 0.87), (3, 6, 5)),
    ((1, 0, 1, 0), (125.0, 99.5, 136.0, 162.5), (1.15, 0.9, 1.02, 0.84), (7, 4, 8, 2)),
]


def golden_corpus() -> Corpus:
    utts = [
        Utterance(f"g{i}", TokenSequence(ids), ProsodySequence(np.array(p), np.array(e), np.array(d)))
        for i, (ids, p, e, d) in enumerate(ROWS)
    ]
    return Corpus(utts, splits={"train": (0, 1, 2, 3), "val": (), "test": (4, 5)})


def golden_spec() -> SyntheticSpec:
    def cov(pitch_sd):
        return np.diag([pitch_sd**2, 0.01, 0.1])

    return SyntheticSpec(
        vocab_size=3,
        classes=(
            ClassSpec(
                weights=np.array([0.5, 0.5]),
                means=np.array([[100.0, 0.9, 1.4], [160.0, 0.9, 1.4]]),
                covs=np.stack([cov(5.0), cov(5.0)]),
            ),
            ClassSpec(np.array([1.0]), np.array([[130.0, 1.1, 2.0]]), cov(4.0)[None]),
            ClassSpec(np.array([1.0]), np.array([[205.0, 0.7, 2.5]]), cov(6.0)[None]),
        ),
    )


def golden_report():
    corpus = golden_corpus()
    lookup = {u.tokens.ids: u.prosody for u in corpus.utterances}

    def replay(tokens, rng, n):
        return [lookup[tokens.ids]] * n

    def noisy(tokens, rng, n):
        gt = lookup[tokens.ids]
        return [
            ProsodySequence(gt.pitch + 10.0 * rng.normal(len(tokens)), gt.energy, gt.duration)
            for _ in range(n)
        ]

    predictors = [
        Predictor(name="replay", fn=replay),
        Predictor(name="noisy", fn=noisy),
    ]
    return build_report(
        corpus,
        predictors,
        seed=5,
        n_samples_per_utterance=3,
        bins=16,
        metadata={"suite": "golden"},
        synthetic_spec=golden_spec(),
    )


def test_report_and_histograms_match_golden_files(tmp_path):
    report = golden_report()
    assert render_report(report) == (GOLDEN / "report.txt").read_text(encoding="utf-8")
    for path in write_histograms(report, tmp_path):
        name = Path(path).name
        assert Path(path).read_bytes() == (GOLDEN / name).read_bytes(), name

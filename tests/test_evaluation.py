"""Quantization, JS divergence, mode coverage, and evaluation plumbing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prosody_ddpm.data import (
    Corpus,
    ProsodySequence,
    TokenSequence,
    Utterance,
    assign_splits,
)
from prosody_ddpm.evaluation import (
    LN2,
    BinningSpec,
    Predictor,
    binning_from_values,
    build_report,
    evaluate_predictor,
    ground_truth_pool,
    js_divergence,
    make_binnings,
    measure_rtf,
    mode_coverage,
    quantize,
    render_report,
    write_histograms,
)
from prosody_ddpm.numerics import Rng


class TestQuantize:
    def test_identical_values_single_bin(self):
        spec = BinningSpec("pitch", 0.0, 10.0, bins=16)
        hist = quantize(np.full(50, 3.3), spec)
        assert hist.sum() == pytest.approx(1.0)
        assert hist.max() == pytest.approx(1.0)

    def test_uniform_sampling_oracle(self):
        # Multinomial check: each of 128 bins holds 1/128 +/- 3 binomial sd.
        n = 1_000_000
        values = Rng(1).uniform(n)
        spec = BinningSpec("pitch", 0.0, 1.0, bins=128)
        hist = quantize(values, spec)
        p = 1.0 / 128
        tol = 3.0 * np.sqrt(p * (1 - p) / n)
        assert np.all(np.abs(hist - p) < tol)

    def test_out_of_range_clamps_to_edge_bins(self):
        spec = BinningSpec("pitch", 0.0, 1.0, bins=4)
        hist = quantize([-5.0, 0.1, 7.0], spec)
        assert hist[0] == pytest.approx(2 / 3)
        assert hist[3] == pytest.approx(1 / 3)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            quantize([], BinningSpec("pitch", 0.0, 1.0))

    def test_binning_validation(self):
        with pytest.raises(ValueError, match="bins"):
            BinningSpec("pitch", 0.0, 1.0, bins=1)
        with pytest.raises(ValueError, match="range"):
            BinningSpec("pitch", 1.0, 1.0)
        with pytest.raises(ValueError, match="no values"):
            binning_from_values("pitch", np.array([]))


class TestJsDivergence:
    def test_identical_distributions(self):
        p = np.array([0.2, 0.3, 0.5])
        assert js_divergence(p, p) == 0.0

    def test_disjoint_supports_max_divergence(self):
        p = np.array([0.5, 0.5, 0.0, 0.0])
        q = np.array([0.0, 0.0, 0.25, 0.75])
        assert js_divergence(p, q) == pytest.approx(LN2, abs=1e-12)

    def test_reference_value(self):
        # Direct evaluation of the two KL terms gives 0.215761 (natural log).
        got = js_divergence([0.5, 0.5], [1.0, 0.0])
        expect = 0.5 * (0.5 * np.log(0.5 / 0.75) + 0.5 * np.log(0.5 / 0.25)) + 0.5 * np.log(1 / 0.75)
        assert got == pytest.approx(expect, abs=1e-15)
        assert got == pytest.approx(0.21576, abs=1e-5)

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="shapes"):
            js_divergence([0.5, 0.5], [1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="sum to 1"):
            js_divergence([0.5, 0.6], [1.0, 0.0])
        with pytest.raises(ValueError, match="negative"):
            js_divergence([1.5, -0.5], [1.0, 0.0])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_symmetry_and_bounds_random_pairs(self, seed):
        r = Rng(seed)
        n = int(r.integers(2, 40))
        p = r.uniform(n) + 1e-12
        q = r.uniform(n) + 1e-12
        p /= p.sum()
        q /= q.sum()
        a = js_divergence(p, q)
        b = js_divergence(q, p)
        assert abs(a - b) < 1e-12
        assert 0.0 <= a <= LN2 + 1e-12

    def test_permutation_invariance(self):
        r = Rng(9)
        p = r.uniform(32)
        q = r.uniform(32)
        p /= p.sum()
        q /= q.sum()
        perm = r.permutation(32)
        assert js_divergence(p, q) == pytest.approx(js_divergence(p[perm], q[perm]), abs=1e-14)


class TestModeCoverage:
    def test_all_samples_at_first_mode(self):
        occ = mode_coverage(np.full(100, -3.0), [(-3.0, 0.5), (3.0, 0.5)])
        np.testing.assert_allclose(occ, [1.0, 0.0, 0.0])

    def test_resampled_mixture_matches_weights(self):
        r = Rng(4)
        n = 20_000
        comp = r.uniform(n) < 0.3
        samples = np.where(comp, -4.0 + 0.3 * r.normal(n), 2.0 + 0.3 * r.normal(n))
        occ = mode_coverage(samples, [(-4.0, 1.0), (2.0, 1.0)])
        ci = 3.0 * np.sqrt(0.3 * 0.7 / n)
        assert abs(occ[0] - 0.3) < ci + 0.002
        assert abs(occ[1] - 0.7) < ci + 0.002
        assert occ[2] < 0.002

    def test_errors(self):
        with pytest.raises(ValueError, match="empty mode"):
            mode_coverage([1.0], [])
        with pytest.raises(ValueError, match="overlap"):
            mode_coverage([1.0], [(0.0, 1.0), (1.5, 1.0)])
        with pytest.raises(ValueError, match="no samples"):
            mode_coverage([], [(0.0, 1.0)])
        with pytest.raises(ValueError, match="radius"):
            mode_coverage([1.0], [(0.0, 0.0)])


def _toy_corpus(n=40, seed=0):
    r = Rng(seed)
    utts = []
    for i in range(n):
        length = int(r.integers(3, 7))
        ids = tuple(int(v) for v in r.integers(0, 4, length))
        utts.append(
            Utterance(
                utt_id=f"u{i:03d}",
                tokens=TokenSequence(ids),
                prosody=ProsodySequence(
                    pitch=150.0 + 40.0 * r.normal(length) ** 0 * r.uniform(length),
                    energy=1.0 + 0.2 * r.uniform(length),
                    duration=r.integers(2, 12, length),
                ),
            )
        )
    return assign_splits(Corpus(utts), seed=1, holdout_fraction=0.2)


def _replay_predictor(corpus, calls=None):
    lookup = {}
    for u in corpus.utterances:
        lookup[u.tokens.ids] = u.prosody

    def fn(tokens, rng, n):
        if calls is not None:
            calls.append((tokens.ids, rng, n))
        return [lookup[tokens.ids]] * n

    return Predictor(name="replay", stochastic=False, fn=fn)


class TestEvaluatePredictor:
    def test_replay_predictor_scores_zero(self):
        corpus = _toy_corpus()
        gt = ground_truth_pool(corpus)
        binnings = make_binnings(gt.edge_pool, bins=32)
        calls = []
        sysev = evaluate_predictor(_replay_predictor(corpus, calls), corpus, 0, 4, binnings, gt)
        # Deterministic: one call per test utterance, one draw, no stream.
        assert calls == [(u.tokens.ids, None, 1) for u in corpus.subset("test")]
        assert sysev.n_sequences == len(corpus.subset("test"))
        for dim in ("pitch", "energy", "log_duration"):
            assert sysev.pooled_js[dim] == 0.0
        for row in sysev.per_class_js.values():
            for dim in ("pitch", "energy", "log_duration"):
                assert row[dim] == 0.0

    def test_report_is_deterministic(self):
        corpus = _toy_corpus()
        reports = [
            render_report(
                build_report(corpus, [_replay_predictor(corpus)], seed=3,
                             n_samples_per_utterance=2, bins=16, metadata={"run": "x"})
            )
            for _ in range(2)
        ]
        assert reports[0] == reports[1]
        assert "natural log" in reports[0]

    def test_stochastic_predictor_uses_per_utterance_streams(self):
        corpus = _toy_corpus()
        gt = ground_truth_pool(corpus)
        binnings = make_binnings(gt.edge_pool, bins=16)
        calls = []

        def fn(tokens, rng, n):
            calls.append(n)
            length = len(tokens)
            return [
                ProsodySequence(
                    pitch=np.full(length, 150.0) + rng.normal(length),
                    energy=np.full(length, 1.0),
                    duration=np.full(length, 5),
                )
                for _ in range(n)
            ]

        pred = Predictor(name="noisy", stochastic=True, fn=fn)
        a = evaluate_predictor(pred, corpus, 7, 3, binnings, gt)
        assert calls == [3] * len(corpus.subset("test"))
        b = evaluate_predictor(pred, corpus, 7, 3, binnings, gt)
        assert a.pooled_js == b.pooled_js
        assert a.n_sequences == 3 * len(corpus.subset("test"))

    def test_histogram_files(self, tmp_path):
        corpus = _toy_corpus()
        report = build_report(corpus, [_replay_predictor(corpus)], seed=0,
                              n_samples_per_utterance=1, bins=16, metadata={})
        files = write_histograms(report, tmp_path)
        assert len(files) == 3
        lines = open(files[0]).read().strip().split("\n")
        assert lines[0].split("\t") == ["bin_lo", "bin_hi", "ground_truth", "replay"]
        assert len(lines) == 17


class TestMeasureRtf:
    def test_basic_result(self):
        corpus = _toy_corpus()
        pred = _replay_predictor(corpus)
        res = measure_rtf(pred, corpus, frame_rate=80.0)
        assert res.rtf > 0.0
        assert res.n_utterances == len(corpus.subset("test"))

    def test_frame_rate_validation(self):
        corpus = _toy_corpus()
        with pytest.raises(ValueError, match="frame_rate"):
            measure_rtf(_replay_predictor(corpus), corpus, frame_rate=0.0)

"""Corpus transforms, synthetic generation oracles, and the file format."""

import dataclasses
import os
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prosody_ddpm.config import Config, DataSection
from prosody_ddpm.data import (
    MAX_FRAMES,
    RELEASE_THREAD,
    ClassSpec,
    Corpus,
    CorpusError,
    NormStats,
    ProsodySequence,
    SyntheticSpec,
    TokenSequence,
    Utterance,
    assign_splits,
    compute_norm_stats,
    denormalize,
    desk_bench_spec,
    generate_corpus,
    load_corpus,
    load_spec,
    normalize,
    save_corpus,
    save_spec,
)
from prosody_ddpm.numerics import Rng
from prosody_ddpm.training import prepare_corpus

GOLDEN = Path(__file__).parent / "golden"


def single_class_spec(mean, stds, weights=None, means_delta=None):
    """One-class spec; optionally a mixture with pitch-shifted components."""
    mean = np.asarray(mean, dtype=float)
    if weights is None:
        weights = np.array([1.0])
        means = mean[None, :]
    else:
        weights = np.asarray(weights, dtype=float)
        means = np.stack([mean + np.array([d, 0.0, 0.0]) for d in means_delta])
    cov = np.diag(np.asarray(stds, dtype=float) ** 2)
    covs = np.stack([cov] * len(weights))
    return SyntheticSpec(
        vocab_size=1, classes=(ClassSpec(weights=weights, means=means, covs=covs),)
    )


def biased_spec() -> SyntheticSpec:
    """Two classes with neighbour weight biases and mean offsets on both sides."""
    cov = np.diag([25.0, 0.01, 0.04])
    return SyntheticSpec(
        vocab_size=2,
        classes=(
            ClassSpec(
                weights=np.array([0.25, 0.75]),
                means=np.array([[110.0, 0.9, 1.5], [150.0, 1.1, 2.0]]),
                covs=np.stack([cov, 2.0 * cov]),
                weight_bias_left=np.array([[0.5, -0.5], [-1.0, 1.0]]),
                weight_bias_right=np.array([[0.0, 0.25], [1.5, 0.0]]),
            ),
            ClassSpec(np.array([1.0]), np.array([[200.0, 0.7, 2.5]]), cov[None]),
        ),
        mean_offset_left=np.array([[3.0, 0.05, 0.0], [-3.0, 0.0, 0.1]]),
        mean_offset_right=np.array([[0.0, -0.05, 0.0], [1.0, 0.0, -0.1]]),
    )


class TestGeneration:
    def test_single_component_monte_carlo_mean(self):
        mu = [200.0, 1.2, 2.2]
        stds = [10.0, 0.05, 0.3]
        spec = single_class_spec(mu, stds)
        corpus = generate_corpus(spec, 2000, (10, 10), Rng(3))
        feats = np.concatenate([u.prosody.features() for u in corpus.utterances])
        n = len(feats)
        for d in range(2):  # pitch and energy are exact Gaussians
            bound = 3.0 * stds[d] / np.sqrt(n)
            assert abs(feats[:, d].mean() - mu[d]) < bound
        # log-duration picks up a small integer-rounding distortion
        assert abs(feats[:, 2].mean() - mu[2]) < 3.0 * stds[2] / np.sqrt(n) + 0.01

    def test_two_component_occupancy(self):
        spec = single_class_spec(
            [200.0, 1.0, 2.0], [0.5, 0.01, 0.1], weights=[0.5, 0.5], means_delta=[-3.0, 3.0]
        )
        corpus = generate_corpus(spec, 1000, (10, 10), Rng(5))
        pitch = np.concatenate([u.prosody.pitch for u in corpus.utterances])
        frac_low = float(np.mean(pitch < 200.0))
        assert abs(frac_low - 0.5) < 0.02

    def test_weight_bias_shifts_occupancy(self):
        # Context-modulated mixture weights: with a strong left-neighbor
        # bias toward the second component, occupancy moves off 0.5.
        spec0 = single_class_spec(
            [200.0, 1.0, 2.0], [0.5, 0.01, 0.1], weights=[0.5, 0.5], means_delta=[-3.0, 3.0]
        )
        cls = spec0.classes[0]
        biased = SyntheticSpec(
            vocab_size=1,
            classes=(
                ClassSpec(
                    weights=cls.weights,
                    means=cls.means,
                    covs=cls.covs,
                    weight_bias_left=np.array([[-2.0, 2.0]]),
                ),
            ),
        )
        corpus = generate_corpus(biased, 800, (10, 10), Rng(6))
        pitch = np.concatenate([u.prosody.pitch[1:] for u in corpus.utterances])
        assert np.mean(pitch > 200.0) > 0.9

    def test_neighbor_mean_offsets_are_additive(self):
        spec = single_class_spec([200.0, 1.0, 2.0], [1e-6, 1e-6, 1e-6])
        shifted = SyntheticSpec(
            vocab_size=1,
            classes=spec.classes,
            mean_offset_left=np.array([[5.0, 0.0, 0.0]]),
        )
        corpus = generate_corpus(shifted, 50, (3, 3), Rng(0))
        for u in corpus.utterances:
            assert u.prosody.pitch[0] == pytest.approx(200.0, abs=1e-3)  # no left neighbor
            assert u.prosody.pitch[1] == pytest.approx(205.0, abs=1e-3)

    def test_reused_spec_draws_like_a_fresh_one(self):
        # A spec keeps its draw tables between calls; they change no corpus.
        spec = biased_spec()
        generate_corpus(spec, 30, (1, 12), Rng(1))
        again = generate_corpus(spec, 30, (1, 12), Rng(2))
        fresh = generate_corpus(biased_spec(), 30, (1, 12), Rng(2))
        for a, b in zip(again.utterances, fresh.utterances, strict=True):
            assert a.tokens == b.tokens
            np.testing.assert_array_equal(a.prosody.features(), b.prosody.features())

    def test_len_range_degenerate(self):
        corpus = generate_corpus(single_class_spec([200, 1, 2], [1, 0.1, 0.1]), 20, (1, 1), Rng(0))
        assert all(len(u.tokens) == 1 for u in corpus.utterances)

    def test_errors(self):
        spec = single_class_spec([200, 1, 2], [1, 0.1, 0.1])
        with pytest.raises(ValueError, match="n_utterances"):
            generate_corpus(spec, 0, (2, 4), Rng(0))
        with pytest.raises(ValueError, match="len_range"):
            generate_corpus(spec, 5, (3, 2), Rng(0))
        biased = biased_spec()
        nan_bias = np.array([[np.nan, 0.0], [np.nan, 0.0]])
        nan_class = dataclasses.replace(biased.classes[0], weight_bias_left=nan_bias)
        nan_spec = dataclasses.replace(biased, classes=(nan_class, biased.classes[1]))
        # A CDF is built at the first draw that needs it, and a failed one is
        # not kept: one-token utterances draw no biased weights.
        generate_corpus(nan_spec, 5, (1, 1), Rng(0))
        for _ in range(2):
            with pytest.raises(ValueError, match="class 0: mixture weights not finite"):
                generate_corpus(nan_spec, 5, (2, 4), Rng(0))

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            single_class_spec([200, 1, 2], [1, 0.1, 0.1], weights=[0.7, 0.7], means_delta=[-1, 1])
        bad_cov = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ValueError, match="positive definite"):
            SyntheticSpec(
                vocab_size=1,
                classes=(
                    ClassSpec(
                        weights=np.array([1.0]),
                        means=np.zeros((1, 3)),
                        covs=bad_cov[None],
                    ),
                ),
            )

    def test_desk_bench_shape(self):
        spec = desk_bench_spec(20)
        assert spec.vocab_size == 20
        n_multi = sum(1 for c in spec.classes if len(c.weights) > 1)
        assert n_multi == 10
        # context offsets act on energy only
        assert np.all(spec.mean_offset_left[:, [0, 2]] == 0.0)
        assert np.any(spec.mean_offset_left[:, 1] != 0.0)

    def test_spec_json_roundtrip(self, tmp_path):
        spec = desk_bench_spec(8)
        path = tmp_path / "spec.json"
        save_spec(spec, path)
        loaded = load_spec(path)
        assert loaded.vocab_size == spec.vocab_size
        for a, b in zip(loaded.classes, spec.classes):
            np.testing.assert_array_equal(a.weights, b.weights)
            np.testing.assert_array_equal(a.means, b.means)
            np.testing.assert_array_equal(a.covs, b.covs)
        np.testing.assert_array_equal(loaded.mean_offset_left, spec.mean_offset_left)

    @pytest.mark.parametrize("name", ["corpus_desk20.tsv", "corpus_biased.tsv"])
    def test_corpus_matches_golden_file(self, tmp_path, name):
        # Pins the draw order and the arithmetic of generate_corpus byte for
        # byte.  The biased spec is the only one with neighbour weight
        # biases; lengths from 1 cover utterances with no neighbours.
        if name == "corpus_desk20.tsv":
            spec = desk_bench_spec(20)
        else:
            spec = load_spec(GOLDEN / "spec_biased.json")
        path = tmp_path / name
        save_corpus(generate_corpus(spec, 40, (1, 16), Rng(7)), path)
        assert path.read_bytes() == (GOLDEN / name).read_bytes()

    @pytest.mark.parametrize("name", ["spec_desk4.json", "spec_biased.json"])
    def test_spec_matches_golden_file(self, tmp_path, name):
        spec = desk_bench_spec(4) if name == "spec_desk4.json" else biased_spec()
        path = tmp_path / name
        save_spec(spec, path)
        assert path.read_bytes() == (GOLDEN / name).read_bytes()
        loaded = load_spec(GOLDEN / name)
        assert loaded.vocab_size == spec.vocab_size
        assert len(loaded.classes) == len(spec.classes)
        for got, want in [(loaded, spec), *zip(loaded.classes, spec.classes)]:
            for f in dataclasses.fields(want):
                if f.name in ("vocab_size", "classes"):
                    continue
                a, b = getattr(got, f.name), getattr(want, f.name)
                if b is None:
                    assert a is None, f.name
                else:
                    assert a.dtype == np.float64, f.name
                    np.testing.assert_array_equal(a, b)


class TestNormalization:
    def _corpus(self, seed=0, n=50):
        return generate_corpus(desk_bench_spec(6), n, (3, 9), Rng(seed))

    def test_train_split_z_scores(self):
        # prepare_corpus must pool only the train split: its targets are exact
        # z-scores, and its stats differ from those over every utterance.
        corpus = self._corpus(n=200)
        config = Config(data=DataSection(split_seed=3, holdout_fraction=0.05))
        prep = prepare_corpus(config, corpus)
        n_train = len(prep.corpus.subset("train"))
        assert 0 < n_train < len(corpus.utterances)
        assert len(prep.targets) == n_train
        pooled = np.concatenate(prep.targets)
        np.testing.assert_allclose(pooled.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(pooled.std(axis=0), 1.0, atol=1e-10)
        every = compute_norm_stats([u.prosody.features() for u in corpus.utterances])
        assert not np.array_equal(prep.stats.mean, every.mean)
        assert not np.array_equal(prep.stats.std, every.std)

    def test_roundtrip_identity(self):
        corpus = self._corpus()
        stats = NormStats(np.array([180.0, 1.1, 2.0]), np.array([40.0, 0.2, 0.5]))
        for u in corpus.utterances:
            back = denormalize(normalize(u.prosody.features(), stats), stats)
            assert np.abs(back.pitch - u.prosody.pitch).max() < 1e-12
            assert np.abs(back.energy - u.prosody.energy).max() < 1e-12
            np.testing.assert_array_equal(back.duration, u.prosody.duration)

    def test_log_duration_exact(self):
        ps = ProsodySequence(pitch=[100.0, 120.0], energy=[1.0, 2.0], duration=[3, 7])
        np.testing.assert_array_equal(ps.log_duration, np.log([3.0, 7.0]))

    def test_duration_rounding_half_up_floor_one(self):
        stats = NormStats(np.zeros(3), np.ones(3))
        x = np.array([[100.0, 1.0, np.log(2.5)], [100.0, 1.0, np.log(0.2)]])
        ps = denormalize(x, stats)
        assert ps.duration.tolist() == [3, 1]

    def test_overflowing_log_duration_saturates(self):
        # exp(1000) overflows float64; the frame count must saturate at the
        # ceiling (not wrap to the 1-frame floor) without a RuntimeWarning.
        x = np.array([[100.0, 1.0, 1000.0], [100.0, 1.0, 40.0], [100.0, 1.0, 36.0]])
        ps = denormalize(x, NormStats(np.zeros(3), np.ones(3)))
        assert ps.duration.tolist() == [MAX_FRAMES, MAX_FRAMES, int(np.floor(np.exp(36.0) + 0.5))]
        assert float(MAX_FRAMES) == MAX_FRAMES

    def test_zero_variance_rejected(self):
        utts = [
            Utterance(
                f"u{i}",
                TokenSequence((0, 1)),
                ProsodySequence(pitch=[100.0, 110.0], energy=[1.0, 1.1], duration=[4, 4]),
            )
            for i in range(40)
        ]
        corpus = assign_splits(Corpus(utts), seed=0, holdout_fraction=0.05)
        with pytest.raises(ValueError, match="zero variance"):
            compute_norm_stats([u.prosody.features() for u in corpus.subset("train")])


class TestSplits:
    def test_pure_function_of_corpus_and_seed(self):
        corpus = generate_corpus(desk_bench_spec(6), 100, (3, 6), Rng(1))
        a = assign_splits(corpus, seed=5, holdout_fraction=0.05)
        b = assign_splits(corpus, seed=5, holdout_fraction=0.05)
        c = assign_splits(corpus, seed=6, holdout_fraction=0.05)
        assert a.splits == b.splits
        assert a.splits != c.splits

    def test_default_ratio(self):
        corpus = generate_corpus(desk_bench_spec(6), 400, (3, 6), Rng(1))
        tagged = assign_splits(corpus, seed=0, holdout_fraction=0.05)
        held = len(tagged.splits["val"]) + len(tagged.splits["test"])
        assert held == round(0.05 * 400)
        assert len(tagged.splits["train"]) == 400 - held
        assert len(tagged.splits["test"]) >= 1
        all_idx = sorted(tagged.splits["train"] + tagged.splits["val"] + tagged.splits["test"])
        assert all_idx == list(range(400))


class TestCorpusFile:
    def _roundtrip(self, corpus, tmp_path):
        path = tmp_path / "corpus.tsv"
        save_corpus(corpus, path)
        return load_corpus(path)

    def test_lossless_roundtrip(self, tmp_path):
        corpus = generate_corpus(desk_bench_spec(10), 60, (1, 12), Rng(8))
        loaded = self._roundtrip(corpus, tmp_path)
        assert len(loaded) == len(corpus)
        for a, b in zip(loaded.utterances, corpus.utterances):
            assert a.utt_id == b.utt_id
            assert a.tokens.ids == b.tokens.ids
            np.testing.assert_array_equal(a.prosody.pitch, b.prosody.pitch)
            np.testing.assert_array_equal(a.prosody.energy, b.prosody.energy)
            np.testing.assert_array_equal(a.prosody.duration, b.prosody.duration)

    def test_same_seed_byte_identical_files(self, tmp_path):
        for i in (1, 2):
            c = generate_corpus(desk_bench_spec(5), 30, (2, 6), Rng(42))
            save_corpus(c, tmp_path / f"c{i}.tsv")
        assert (tmp_path / "c1.tsv").read_bytes() == (tmp_path / "c2.tsv").read_bytes()

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("")
        with pytest.raises(CorpusError, match="no utterances"):
            load_corpus(path)

    def test_nonpositive_pitch_rejected_with_utterance(self, tmp_path):
        path = tmp_path / "bad.tsv"
        # Non-finite pitch or energy is rejected the same way.
        for pitch, energy in [("-5.0", "1.0"), ("nan", "1.0"), ("inf", "1.0"), ("100.0", "nan")]:
            path.write_text(f"uttX\t0 1\t{pitch} 120.0\t{energy} 1.0\t3 4\n")
            with pytest.raises(CorpusError, match=r"line 1 \(uttX\)"):
                load_corpus(path)

    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("u0\t0\t100.0\t1.0\t3\nu1\t0 1\t100.0\t1.0\t3\n")
        with pytest.raises(CorpusError, match="line 2"):
            load_corpus(path)

    def test_non_integer_duration_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("u0\t0\t100.0\t1.0\t3.5\n")
        with pytest.raises(CorpusError, match="integers"):
            load_corpus(path)

    def test_duration_below_one_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        # So is a duration above MAX_FRAMES, which would overflow int64.
        for duration in ("0", "1e300", str(MAX_FRAMES * 2)):
            path.write_text(f"u0\t0\t100.0\t1.0\t{duration}\n")
            with pytest.raises(CorpusError, match=r"line 1 \(u0\)"):
                load_corpus(path)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts /proc/self/fd")
    def test_replaced_file_is_released_off_the_callers_path(self, tmp_path, monkeypatch):
        # The replaced file's last close, which may wait for its blocks to be
        # freed, happens on the release thread: block it there and check
        # that the writer has already returned.
        def open_fds():
            return len(os.listdir("/proc/self/fd"))

        def settle(count):
            deadline = time.monotonic() + 10
            while open_fds() != count and time.monotonic() < deadline:
                time.sleep(0.01)
            return open_fds()

        old, new = (generate_corpus(desk_bench_spec(4), 3, (2, 4), Rng(seed)) for seed in (1, 2))
        save_corpus(new, tmp_path / "expected.tsv")
        path = tmp_path / "c.tsv"
        save_corpus(old, path)
        close, entered, gate = os.close, threading.Event(), threading.Event()

        def blocked_close(fd):
            on_release_thread = threading.current_thread().name == RELEASE_THREAD
            if on_release_thread and os.readlink(f"/proc/self/fd/{fd}") == f"{path} (deleted)":
                entered.set()
                gate.wait(10)
            close(fd)

        monkeypatch.setattr(os, "close", blocked_close)
        try:
            save_corpus(new, path)
            assert entered.wait(10)
            assert path.read_bytes() == (tmp_path / "expected.tsv").read_bytes()
            while_held = open_fds()
        finally:
            gate.set()
        assert settle(while_held - 1) == while_held - 1
        for i in range(20):
            save_corpus((old, new)[i % 2], path)
        assert sum(t.name == RELEASE_THREAD for t in threading.enumerate()) == 1
        assert settle(while_held - 1) == while_held - 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.tsv", "expected.tsv"]

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_property(self, tmp_path_factory, seed):
        tmp = tmp_path_factory.mktemp("prop")
        corpus = generate_corpus(desk_bench_spec(4), 5, (1, 5), Rng(seed))
        path = tmp / "c.tsv"
        save_corpus(corpus, path)
        loaded = load_corpus(path)
        for a, b in zip(loaded.utterances, corpus.utterances):
            np.testing.assert_array_equal(a.prosody.pitch, b.prosody.pitch)
            np.testing.assert_array_equal(a.prosody.energy, b.prosody.energy)


class TestInvariants:
    def test_prosody_sequence_validation(self):
        with pytest.raises(ValueError, match="pitch"):
            ProsodySequence(pitch=[0.0], energy=[1.0], duration=[2])
        with pytest.raises(ValueError, match="energy"):
            ProsodySequence(pitch=[100.0], energy=[-0.1], duration=[2])
        for pitch, energy in [(np.nan, 1.0), (np.inf, 1.0), (100.0, np.nan), (100.0, np.inf)]:
            with pytest.raises(ValueError, match="finite"):
                ProsodySequence(pitch=[pitch], energy=[energy], duration=[2])
        with pytest.raises(ValueError, match="duration"):
            ProsodySequence(pitch=[100.0], energy=[0.1], duration=[0])
        with pytest.raises(ValueError, match="length"):
            ProsodySequence(pitch=[100.0, 120.0], energy=[0.1], duration=[2])

    def test_token_sequence_validation(self):
        with pytest.raises(ValueError):
            TokenSequence(())
        with pytest.raises(ValueError):
            TokenSequence((-1,))

"""Training loop contracts and end-to-end command-line flows."""

import os

import numpy as np
import pytest

from prosody_ddpm.checkpoint import load_checkpoint, save_checkpoint
from prosody_ddpm.cli import main
from prosody_ddpm.config import default_config
from prosody_ddpm.data import desk_bench_spec, generate_corpus, load_corpus, save_corpus, save_spec
from prosody_ddpm.numerics import Rng
from prosody_ddpm.training import TrainingDiverged, train_model

TINY = [
    ("schedule.steps", "20"),
    ("denoiser.channels", "8"),
    ("denoiser.layers", "2"),
    ("denoiser.dilation_cycle", "1,2"),
    ("denoiser.cond_dim", "8"),
    ("denoiser.step_hidden", "16"),
    ("condition.embed_dim", "8"),
    ("condition.hidden", "16"),
    ("baseline.width", "12"),
    ("data.vocab_size", "6"),
    ("optimizer.batch_size", "4"),
    ("train.log_every", "10"),
    ("train.checkpoint_every", "0"),
]


def tiny_config(*extra):
    return default_config(TINY + list(extra))


@pytest.fixture(scope="module")
def tiny_corpus():
    return generate_corpus(desk_bench_spec(6), 80, (3, 8), Rng(21))


@pytest.fixture(scope="module")
def tiny_corpus_file(tiny_corpus, tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "tiny.tsv"
    save_corpus(tiny_corpus, path)
    save_spec(desk_bench_spec(6), str(path) + ".spec.json")
    return str(path)


class TestTrainModel:
    def test_zero_steps_initial_checkpoint_empty_log(self, tiny_corpus):
        ck, log = train_model(tiny_config(("train.steps", "0")), tiny_corpus, "ddpm")
        assert ck.step == 0
        assert log == []
        assert ck.opt_m == {}

    def test_loss_drops_from_unit_start(self, tiny_corpus):
        # Zero-initialized head means the first losses sit near E[eps^2] = 1.
        cfg = tiny_config(
            ("train.steps", "300"), ("train.log_every", "1"), ("optimizer.batch_size", "8")
        )
        _, log = train_model(cfg, tiny_corpus, "ddpm")
        first = np.mean([l for _, l in log[:10]])
        last = np.mean([l for _, l in log[-30:]])
        assert 0.8 < first < 1.2
        assert last < first - 0.05

    def test_resume_matches_uninterrupted_run(self, tiny_corpus, tmp_path):
        cfg = tiny_config(("train.steps", "30"))
        full, _ = train_model(cfg, tiny_corpus, "ddpm")

        half, _ = train_model(cfg, tiny_corpus, "ddpm", steps=15)
        assert half.step == 15
        resumed, _ = train_model(cfg, tiny_corpus, "ddpm", resume=half)
        assert resumed.step == 30
        for k in full.params:
            np.testing.assert_array_equal(resumed.params[k].data, full.params[k].data)
        assert resumed.rng_state_json == full.rng_state_json
        # byte-level: identical checkpoints serialize identically
        p1 = tmp_path / "full.bin"
        p2 = tmp_path / "resumed.bin"
        save_checkpoint(full, p1)
        save_checkpoint(resumed, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_resume_config_conflict(self, tiny_corpus):
        half, _ = train_model(tiny_config(("train.steps", "30")), tiny_corpus, "ddpm", steps=5)
        from prosody_ddpm.config import ConfigError

        with pytest.raises(ConfigError, match="conflicts"):
            train_model(tiny_config(("train.steps", "31")), tiny_corpus, "ddpm", resume=half)
        with pytest.raises(ConfigError, match="kind|model"):
            train_model(tiny_config(("train.steps", "30")), tiny_corpus, "baseline", resume=half)

    def test_divergence_aborts_with_step_and_keeps_checkpoint(
        self, tiny_corpus, monkeypatch
    ):
        # The gated activations are bounded, so a runaway loss is hard to
        # provoke from the outside; inject one to exercise the abort path.
        import prosody_ddpm.numerics as nm
        import prosody_ddpm.training as training

        real = training.diffusion.training_loss_graph
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] >= 5:
                raise nm.NonFiniteError("loss")
            return real(*args, **kwargs)

        monkeypatch.setattr(training.diffusion, "training_loss_graph", flaky)
        saved = []
        cfg = tiny_config(("train.steps", "10"), ("train.checkpoint_every", "2"))
        with pytest.raises(TrainingDiverged) as exc:
            train_model(cfg, tiny_corpus, "ddpm", on_checkpoint=saved.append)
        assert exc.value.step == 5
        assert saved and saved[-1].step == 4  # last periodic snapshot survives

    def test_vocab_too_small_rejected(self, tiny_corpus):
        from prosody_ddpm.config import ConfigError

        with pytest.raises(ConfigError, match="vocab_size"):
            train_model(tiny_config(("data.vocab_size", "3")), tiny_corpus, "ddpm", steps=1)

    def test_baseline_training_runs(self, tiny_corpus):
        ck, log = train_model(tiny_config(("train.steps", "20")), tiny_corpus, "baseline")
        assert ck.kind == "baseline"
        assert any(k.startswith("pitch.") for k in ck.params)

    def test_frozen_condition_encoder(self, tiny_corpus, tmp_path):
        donor, _ = train_model(tiny_config(("train.steps", "8")), tiny_corpus, "baseline")
        donor_path = tmp_path / "donor.bin"
        save_checkpoint(donor, donor_path)
        cfg = tiny_config(
            ("train.steps", "10"),
            ("condition.init_from", str(donor_path)),
            ("condition.freeze", "true"),
        )
        ck, _ = train_model(cfg, tiny_corpus, "ddpm")
        for k in donor.params:
            if k.startswith("cond."):
                np.testing.assert_array_equal(ck.params[k].data, donor.params[k].data)


class TestCommands:
    def test_gen_data_deterministic(self, tmp_path):
        a = tmp_path / "a.tsv"
        b = tmp_path / "b.tsv"
        for out in (a, b):
            assert main(["gen-data", "--out", str(out), "--seed", "5", "--utterances", "20",
                         "--min-len", "2", "--max-len", "5", "--vocab", "6"]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert os.path.exists(str(a) + ".spec.json")
        assert len(load_corpus(a)) == 20

    def test_gen_data_zero_utterances(self, tmp_path, capsys):
        rc = main(["gen-data", "--out", str(tmp_path / "x.tsv"), "--utterances", "0"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_train_sample_eval_rtf_flow(self, tiny_corpus_file, tmp_path, capsys):
        run_d = tmp_path / "ddpm"
        run_b = tmp_path / "base"
        args = ["train", "--corpus", tiny_corpus_file]
        for key, val in TINY:
            args += [f"--{key}", val]
        rc = main(args + ["--model", "ddpm", "--out", str(run_d), "--train.steps", "12"])
        assert rc == 0
        rc = main(args + ["--model", "baseline", "--out", str(run_b), "--train.steps", "12",
                          "--eval.frame_rate", "40"])
        assert rc == 0
        capsys.readouterr()

        ck_d = str(run_d / "checkpoint.bin")
        ck_b = str(run_b / "checkpoint.bin")
        assert load_checkpoint(ck_d).step == 12
        log_lines = (run_d / "loss_log.tsv").read_text().strip().split("\n")
        assert len(log_lines) == 2  # log_every=10 over 12 steps: rows at 10 and 12
        assert (run_d / "config.txt").read_text().startswith("[schedule]")

        # sampling: same seed byte-identical, different seed differs
        s1 = tmp_path / "s1.tsv"
        s2 = tmp_path / "s2.tsv"
        s3 = tmp_path / "s3.tsv"
        base = ["sample", "--checkpoint", ck_d, "--tokens", "0 1 2 3", "-n", "2"]
        assert main(base + ["--seed", "3", "--out", str(s1)]) == 0
        assert main(base + ["--seed", "3", "--out", str(s2)]) == 0
        assert main(base + ["--seed", "4", "--out", str(s3)]) == 0
        assert s1.read_bytes() == s2.read_bytes()
        assert s1.read_bytes() != s3.read_bytes()
        loaded = load_corpus(s1)
        assert len(loaded) == 2
        assert loaded.utterances[0].tokens.ids == (0, 1, 2, 3)
        capsys.readouterr()

        # unknown token id fails before sampling
        rc = main(["sample", "--checkpoint", ck_d, "--tokens", "0 99", "--out", str(tmp_path / "bad.tsv")])
        assert rc == 2
        assert "unknown token id" in capsys.readouterr().err

        # baseline refuses n > 1
        rc = main(["sample", "--checkpoint", ck_b, "--tokens", "0 1", "-n", "2",
                   "--out", str(tmp_path / "b.tsv")])
        assert rc == 2
        assert "deterministic" in capsys.readouterr().err
        assert main(["sample", "--checkpoint", ck_b, "--tokens", "0 1", "-n", "1",
                     "--out", str(tmp_path / "b1.tsv")]) == 0
        capsys.readouterr()

        # eval: schema plus byte-identical rerun
        ev1 = tmp_path / "ev1"
        ev2 = tmp_path / "ev2"
        eval_args = ["eval", "--ddpm", ck_d, "--baseline", ck_b, "--corpus", tiny_corpus_file,
                     "--eval.n_samples", "2", "--eval.bins", "16"]
        assert main(eval_args + ["--out", str(ev1)]) == 0
        assert main(eval_args + ["--out", str(ev2)]) == 0
        r1 = (ev1 / "report.txt").read_bytes()
        assert r1 == (ev2 / "report.txt").read_bytes()
        text = r1.decode()
        for dim in ("pitch", "energy", "log_duration"):
            for system in ("ddpm", "baseline"):
                assert f"{dim}\t{system}\t" in text
        assert "[mode_coverage]" in text  # sidecar spec found next to corpus
        assert (ev1 / "hist_pitch.tsv").exists()
        capsys.readouterr()

        # rtf prints figures; the frame rate defaults to the checkpoint's
        # eval.frame_rate (40 here) and an explicit flag overrides it
        def audio_seconds(*flags):
            assert main(["rtf", "--checkpoint", ck_b, "--corpus", tiny_corpus_file, *flags]) == 0
            out = capsys.readouterr().out
            assert "rtf:" in out and "seconds_per_utterance:" in out
            return float(out.split("audio_seconds_per_utterance:")[1].split()[0])

        at_40 = audio_seconds()
        assert at_40 == pytest.approx(2.0 * audio_seconds("--frame-rate", "80"), abs=2e-6)
        assert at_40 == pytest.approx(audio_seconds("--frame-rate", "40"), abs=0.0)

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_sample_rejects_count_below_one(self, n, tmp_path, capsys):
        # The count is checked before the checkpoint is opened, so a missing
        # checkpoint file does not mask the error.
        rc = main(["sample", "--checkpoint", str(tmp_path / "missing.bin"), "--tokens", "0 1",
                   "-n", n, "--out", str(tmp_path / "s.tsv")])
        assert rc == 2
        assert f"-n must be at least 1, got {n}" in capsys.readouterr().err
        assert not (tmp_path / "s.tsv").exists()

    def test_eval_rejects_mismatched_stats(self, tiny_corpus_file, tmp_path, capsys):
        args = ["train", "--corpus", tiny_corpus_file]
        for key, val in TINY:
            args += [f"--{key}", val]
        run_a = tmp_path / "a"
        run_b = tmp_path / "b"
        assert main(args + ["--model", "ddpm", "--out", str(run_a), "--train.steps", "2"]) == 0
        # different split seed -> different normalization statistics
        assert main(args + ["--model", "baseline", "--out", str(run_b), "--train.steps", "2",
                            "--data.split_seed", "9"]) == 0
        capsys.readouterr()
        rc = main(["eval", "--ddpm", str(run_a / "checkpoint.bin"),
                   "--baseline", str(run_b / "checkpoint.bin"),
                   "--corpus", tiny_corpus_file, "--out", str(tmp_path / "ev")])
        assert rc == 2
        assert "normalization statistics" in capsys.readouterr().err

    def test_invalid_adam_beta_rejected(self, tiny_corpus_file, tmp_path, capsys):
        rc = main(["train", "--model", "ddpm", "--corpus", tiny_corpus_file,
                   "--out", str(tmp_path / "r"), "--optimizer.beta1", "1.0"])
        assert rc == 2
        assert "beta1" in capsys.readouterr().err

    def test_unknown_override_rejected(self, tiny_corpus_file, tmp_path, capsys):
        rc = main(["train", "--model", "ddpm", "--corpus", tiny_corpus_file,
                   "--out", str(tmp_path / "r"), "--train.stepz", "5"])
        assert rc == 2
        assert "unknown key" in capsys.readouterr().err

    def test_train_divergence_exit_code(self, tiny_corpus_file, tmp_path, capsys, monkeypatch):
        import prosody_ddpm.numerics as nm
        import prosody_ddpm.training as training

        def boom(*args, **kwargs):
            raise nm.NonFiniteError("loss")

        monkeypatch.setattr(training.diffusion, "training_loss_graph", boom)
        args = ["train", "--corpus", tiny_corpus_file, "--model", "ddpm",
                "--out", str(tmp_path / "d")]
        for key, val in TINY:
            args += [f"--{key}", val]
        rc = main(args + ["--train.steps", "10"])
        assert rc == 3
        assert "non-finite" in capsys.readouterr().err

"""Training loop contracts and end-to-end command-line flows."""

import os
import struct

import numpy as np
import pytest

from prosody_ddpm.checkpoint import load_checkpoint, save_checkpoint
from prosody_ddpm.cli import main
from prosody_ddpm.config import Config, default_config
from prosody_ddpm.data import (
    Corpus,
    desk_bench_spec,
    generate_corpus,
    load_corpus,
    load_spec,
    save_corpus,
    save_spec,
)
from prosody_ddpm.denoiser import count_parameters
from prosody_ddpm.numerics import Rng, Tensor
from prosody_ddpm.training import TrainingDiverged, model_from_checkpoint, train_model

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

# Former keys whose values are constants (``denoiser.KERNEL``,
# ``optim.BETA1/BETA2/EPS``), each with that constant's value.
REMOVED_SETTINGS = {
    "denoiser.kernel_size": "3",
    "baseline.kernel_size": "3",
    "optimizer.beta1": "0.9",
    "optimizer.beta2": "0.999",
    "optimizer.eps": "1e-8",
}

# A valid one-class spec plus a key save_spec never writes.
UNKNOWN_KEY_SPEC = (
    '{"vocab_size": 1, "classes": [{"weights": [1.0], "means": [[100.0, 1.0, 1.0]], '
    '"covs": [[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]]}], "colour": "red"}'
)


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


@pytest.fixture(scope="module")
def untrained(tiny_corpus_file, tmp_path_factory):
    """Step-0 ddpm and baseline checkpoints on the tiny corpus's splits."""
    root = tmp_path_factory.mktemp("untrained")
    args = ["train", "--corpus", tiny_corpus_file, "--train.steps", "0"]
    args += [f"--{key}={val}" for key, val in TINY]
    paths = {}
    for kind in ("ddpm", "baseline"):
        assert main(args + ["--model", kind, "--out", str(root / kind)]) == 0
        paths[kind] = str(root / kind / "checkpoint.bin")
    return paths


@pytest.fixture
def one_utterance_corpus(tiny_corpus, tmp_path):
    path = tmp_path / "one.tsv"
    save_corpus(Corpus(tiny_corpus.utterances[:1]), path)
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
        assert resumed.rng_state == full.rng_state
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

    @pytest.mark.parametrize("kind", ["ddpm", "baseline"])
    def test_step_memory_backward_and_tape_lifetime(self, kind, tiny_corpus, monkeypatch):
        # tracemalloc counts numpy's buffers too, and a seeded step makes the
        # same allocations on every run, so these levels are exact.
        import tracemalloc
        import weakref

        import prosody_ddpm.numerics as nm
        from prosody_ddpm.optim import Adam

        enter, backward, step = nm.Tape.__enter__, nm.backward, Adam.step
        seen: dict = {"tape_alive_at_adam": []}

        def traced_enter(tape):
            seen["start"] = tracemalloc.get_traced_memory()[0]
            return enter(tape)

        def traced_backward(tape, loss):
            seen["tape"] = weakref.ref(tape)
            seen["forward"] = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            grads = backward(tape, loss)
            seen["backward_peak"] = tracemalloc.get_traced_memory()[1]
            return grads

        def traced_step(optimizer, *args, **kwargs):
            seen["tape_alive_at_adam"].append(seen["tape"]() is not None)
            return step(optimizer, *args, **kwargs)

        monkeypatch.setattr(nm.Tape, "__enter__", traced_enter)
        monkeypatch.setattr(nm, "backward", traced_backward)
        monkeypatch.setattr(Adam, "step", traced_step)
        cfg = tiny_config(("train.steps", "2"), ("optimizer.batch_size", "16"))
        tracemalloc.start()
        try:
            train_model(cfg, tiny_corpus, kind)
        finally:
            tracemalloc.stop()
        # The levels are those of the second step, when Adam's moments exist.
        forward = seen["forward"] - seen["start"]
        added = seen["backward_peak"] - seen["forward"]
        assert added < 0.6 * forward
        assert seen["tape_alive_at_adam"] == [False, False]


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

    def test_gen_data_vocab_defaults_to_config(self, tmp_path):
        out = str(tmp_path / "c.tsv")
        assert main(["gen-data", "--out", out, "--utterances", "3", "--max-len", "6"]) == 0
        assert load_spec(out + ".spec.json").vocab_size == Config().data.vocab_size

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

        # rtf prints figures; the frame rate is the checkpoint's
        # eval.frame_rate (40 here) unless --eval.frame_rate overrides it
        rtf = ["rtf", "--checkpoint", ck_b, "--corpus", tiny_corpus_file]

        def audio_seconds(*flags):
            assert main(rtf + list(flags)) == 0
            out = capsys.readouterr().out
            assert "rtf:" in out and "seconds_per_utterance:" in out
            return float(out.split("audio_seconds_per_utterance:")[1].split()[0])

        at_40 = audio_seconds()
        assert at_40 == pytest.approx(2.0 * audio_seconds("--eval.frame_rate", "80"), abs=2e-6)
        assert at_40 == pytest.approx(audio_seconds("--eval.frame_rate", "40"), abs=0.0)
        # like eval, rtf takes eval.* overrides only
        assert main(rtf + ["--train.steps", "5"]) == 2
        assert "only eval.* overrides apply here, got --train.steps" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_sample_rejects_count_below_one(self, n, tmp_path, capsys):
        # The count is checked before the checkpoint is opened, so a missing
        # checkpoint file does not mask the error.
        rc = main(["sample", "--checkpoint", str(tmp_path / "missing.bin"), "--tokens", "0 1",
                   "-n", n, "--out", str(tmp_path / "s.tsv")])
        assert rc == 2
        assert f"-n must be at least 1, got {n}" in capsys.readouterr().err
        assert not (tmp_path / "s.tsv").exists()

    def test_sample_rejects_empty_token_sequence(self, untrained, tmp_path, capsys):
        rc = main(["sample", "--checkpoint", untrained["ddpm"], "--tokens", "",
                   "--out", str(tmp_path / "s.tsv")])
        assert rc == 2
        assert "token sequence must have length >= 1" in capsys.readouterr().err
        assert not (tmp_path / "s.tsv").exists()

    def test_sample_names_misshapen_parameter(self, untrained, tmp_path, capsys):
        ck = load_checkpoint(untrained["ddpm"])
        name = next(k for k, p in ck.params.items() if p.data.ndim == 1)
        size = ck.params[name].shape[0] + 1
        ck.params[name] = Tensor(np.zeros(size))
        save_checkpoint(ck, tmp_path / "bad.bin")
        rc = main(["sample", "--checkpoint", str(tmp_path / "bad.bin"), "--tokens", "0 1",
                   "--out", str(tmp_path / "s.tsv")])
        assert rc == 2
        assert f"parameter {name!r} has shape ({size},)" in capsys.readouterr().err

    @pytest.mark.parametrize("version", [2, 3, 4])
    def test_sample_rejects_older_checkpoint(self, untrained, tmp_path, capsys, version):
        with open(untrained["ddpm"], "rb") as fh:
            data = fh.read()
        old = tmp_path / f"v{version}.bin"
        old.write_bytes(data[:4] + struct.pack("<I", version) + data[8:])
        rc = main(["sample", "--checkpoint", str(old), "--tokens", "0 1",
                   "--out", str(tmp_path / "s.tsv")])
        assert rc == 2
        assert f"checkpoint format v{version} is older than v5; retrain" in capsys.readouterr().err
        assert not (tmp_path / "s.tsv").exists()

    def test_eval_report_states_parameter_counts(self, untrained, tiny_corpus_file, tmp_path):
        out = tmp_path / "ev"
        assert main(["eval", "--ddpm", untrained["ddpm"], "--baseline", untrained["baseline"],
                     "--corpus", tiny_corpus_file, "--eval.n_samples", "1", "--out", str(out)]) == 0
        metadata = (out / "report.txt").read_text().split("[metadata]\n")[1].split("\n\n")[0]
        for kind in ("ddpm", "baseline"):
            model = model_from_checkpoint(load_checkpoint(untrained[kind]))
            assert f"{kind}_network_parameters = {count_parameters(model.net)}" in metadata
            assert f"{kind}_encoder_parameters = {count_parameters(model.cond)}" in metadata

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

    def test_eval_names_empty_test_split(self, untrained, one_utterance_corpus, tmp_path, capsys):
        rc = main(["eval", "--ddpm", untrained["ddpm"], "--baseline", untrained["baseline"],
                   "--corpus", one_utterance_corpus, "--out", str(tmp_path / "ev")])
        assert rc == 2
        assert "test split is empty" in capsys.readouterr().err

    def test_rtf_names_empty_test_split(self, untrained, one_utterance_corpus, capsys):
        rc = main(["rtf", "--checkpoint", untrained["baseline"], "--corpus", one_utterance_corpus])
        assert rc == 2
        assert "test split is empty" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc", ['{"vocab_size": 20}', "[1, 2]", pytest.param(UNKNOWN_KEY_SPEC, id="unknown-key")]
    )
    def test_eval_rejects_malformed_spec(self, untrained, tiny_corpus, tmp_path, capsys, doc):
        corpus = tmp_path / "c.tsv"
        save_corpus(tiny_corpus, corpus)
        (tmp_path / "c.tsv.spec.json").write_text(doc)
        rc = main(["eval", "--ddpm", untrained["ddpm"], "--baseline", untrained["baseline"],
                   "--corpus", str(corpus), "--out", str(tmp_path / "ev")])
        assert rc == 2
        assert "c.tsv.spec.json: malformed spec" in capsys.readouterr().err

    @pytest.mark.parametrize("dotted", list(REMOVED_SETTINGS))
    def test_removed_setting_rejected(self, tiny_corpus_file, tmp_path, capsys, dotted):
        rc = main(["train", "--model", "ddpm", "--corpus", tiny_corpus_file,
                   "--out", str(tmp_path / "r"), f"--{dotted}", REMOVED_SETTINGS[dotted]])
        assert rc == 2
        key = dotted.split(".")[1]
        assert f"unknown key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

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

    def test_train_divergence_keeps_logged_rows(self, tiny_corpus_file, tmp_path, monkeypatch):
        import prosody_ddpm.numerics as nm
        import prosody_ddpm.training as training

        real = training.diffusion.training_loss_graph
        steps = []

        def non_finite_at_step_5(*args, **kwargs):
            steps.append(len(steps) + 1)
            if steps[-1] == 5:
                raise nm.NonFiniteError("loss")
            return real(*args, **kwargs)

        monkeypatch.setattr(training.diffusion, "training_loss_graph", non_finite_at_step_5)
        out = tmp_path / "d"
        args = ["train", "--corpus", tiny_corpus_file, "--model", "ddpm", "--out", str(out)]
        for key, val in TINY:
            args += [f"--{key}", val]
        assert main(args + ["--train.steps", "10", "--train.log_every", "2"]) == 3
        rows = (out / "loss_log.tsv").read_text().splitlines()
        assert [int(row.split("\t")[0]) for row in rows] == [2, 4]

    def test_resume_keeps_loss_log(self, tiny_corpus_file, tmp_path, monkeypatch):
        # A run stopped at step 25, after its step-20 checkpoint, and resumed
        # into the same directory leaves the uninterrupted run's log.
        import prosody_ddpm.numerics as nm
        import prosody_ddpm.training as training

        args = ["train", "--corpus", tiny_corpus_file, "--model", "ddpm"]
        for key, val in TINY + [("train.steps", "30"), ("train.log_every", "2"),
                                ("train.checkpoint_every", "10")]:
            args += [f"--{key}", val]
        assert main(args + ["--out", str(tmp_path / "full")]) == 0

        real, calls = training.diffusion.training_loss_graph, []

        def stop_at_step_25(*a, **kw):
            calls.append(None)
            if len(calls) == 25:
                raise nm.NonFiniteError("loss")
            return real(*a, **kw)

        out = tmp_path / "cut"
        monkeypatch.setattr(training.diffusion, "training_loss_graph", stop_at_step_25)
        assert main(args + ["--out", str(out)]) == 3
        monkeypatch.undo()
        cut = (out / "loss_log.tsv").read_text().splitlines()
        assert int(cut[-1].split("\t")[0]) == 24
        assert main(args + ["--out", str(out), "--resume", str(out / "checkpoint.bin")]) == 0
        full = (tmp_path / "full" / "loss_log.tsv").read_bytes()
        assert (out / "loss_log.tsv").read_bytes() == full
        full_ck = (tmp_path / "full" / "checkpoint.bin").read_bytes()
        assert (out / "checkpoint.bin").read_bytes() == full_ck

    def test_sample_replaces_previous_output(self, untrained, tmp_path):
        out = tmp_path / "s.tsv"
        argv = ["sample", "--checkpoint", untrained["ddpm"], "--tokens", "0 1 2", "--out", str(out)]
        assert main(argv + ["-n", "5"]) == 0
        assert len(load_corpus(out)) == 5
        assert main(argv + ["-n", "1"]) == 0
        assert len(out.read_text().splitlines()) == 1

    @pytest.mark.parametrize(
        "name", ["corpus.tsv", "corpus.tsv.spec.json", "config.txt", "report.txt", "hist_energy.tsv"]
    )
    def test_failed_write_keeps_previous_artifact(
        self, name, untrained, tiny_corpus_file, tmp_path, disk_full
    ):
        # Each command runs once, then again with an argument that changes
        # the file's content while writes of ``name`` fail halfway.
        gen = ["gen-data", "--out", str(tmp_path / "corpus.tsv"), "--utterances", "4"]
        train = ["train", "--model", "baseline", "--corpus", tiny_corpus_file, "--out", str(tmp_path),
                 "--train.steps", "0"] + [f"--{key}={val}" for key, val in TINY]
        evaluate = ["eval", "--ddpm", untrained["ddpm"], "--baseline", untrained["baseline"],
                    "--corpus", tiny_corpus_file, "--out", str(tmp_path), "--eval.n_samples", "2"]
        argv, change = {
            "corpus.tsv": (gen, ["--seed", "1"]),
            "corpus.tsv.spec.json": (gen, ["--vocab", "7"]),
            "config.txt": (train, ["--train.seed", "1"]),
            "report.txt": (evaluate, ["--eval.seed", "1"]),
            "hist_energy.tsv": (evaluate, ["--eval.seed", "1"]),
        }[name]
        assert main(argv) == 0
        before = sorted(p.name for p in tmp_path.iterdir())
        old = (tmp_path / name).read_bytes()
        disk_full(name)
        with pytest.raises(OSError, match="No space"):
            main(argv + change)
        assert (tmp_path / name).read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == before

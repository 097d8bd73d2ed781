"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest -s tests/test_acceptance.py`` to watch).

The slow criteria share one session-scoped benchmark: a synthetic corpus
with bimodal pitch, context-driven narrow energy, and lognormal duration,
plus a diffusion predictor and MSE baseline trained on it.
"""

from contextlib import contextmanager

import numpy as np
import pytest

import prosody_ddpm.numerics as nm
from prosody_ddpm.baseline import BaselineNet, baseline_loss_graph
from prosody_ddpm.checkpoint import load_checkpoint, save_checkpoint
from prosody_ddpm.cli import main
from prosody_ddpm.config import (
    BaselineSection,
    ConditionSection,
    Config,
    DataSection,
    DenoiserSection,
    OptimizerSection,
    default_config,
)
from prosody_ddpm.data import (
    assign_splits,
    desk_bench_spec,
    generate_corpus,
    load_corpus,
    save_corpus,
)
from prosody_ddpm.denoiser import KERNEL, ConditionEncoder, Denoiser, count_parameters
from prosody_ddpm.diffusion import linear_schedule, sample_model_space, training_loss_graph
from prosody_ddpm.evaluation import (
    LN2,
    build_report,
    js_divergence,
    measure_rtf,
    mode_coverage,
    render_report,
)
from prosody_ddpm.numerics import Rng, Tensor
from prosody_ddpm.optim import Adam
from prosody_ddpm.predictors import baseline_predictor, ddpm_predictor, predictor_from_checkpoint
from prosody_ddpm.training import (
    model_from_checkpoint,
    schedule_from_config,
    train_model,
)

from conftest import fd_check, jitter_params


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


# -- shared benchmark -------------------------------------------------------

BENCH_OVERRIDES = [
    ("schedule.steps", "300"),
    ("schedule.beta_end", "0.06"),
    ("denoiser.channels", "48"),
    ("denoiser.layers", "6"),
    ("denoiser.dilation_cycle", "1,2,4"),
    ("denoiser.cond_dim", "48"),
    ("denoiser.step_hidden", "96"),
    ("condition.embed_dim", "48"),
    ("condition.hidden", "96"),
    ("baseline.width", "128"),
    ("train.checkpoint_every", "0"),
    ("train.log_every", "500"),
]

PITCH_COMPONENT_SIGMA = 10.0  # desk-bench per-component pitch spread, Hz
PITCH_MODE_OFFSET = 3.0 * PITCH_COMPONENT_SIGMA
MODE_RADIUS = 1.5 * PITCH_COMPONENT_SIGMA


@pytest.fixture(scope="session")
def bench(tmp_path_factory):
    """Corpus plus trained diffusion/baseline checkpoints and predictors."""
    root = tmp_path_factory.mktemp("bench")
    spec = desk_bench_spec(20)
    corpus = generate_corpus(spec, 3000, (6, 16), Rng(11))
    corpus_path = root / "bench.tsv"
    save_corpus(corpus, corpus_path)

    cfg_d = default_config(BENCH_OVERRIDES + [("train.steps", "6000")])
    cfg_b = default_config(BENCH_OVERRIDES + [("train.steps", "2500")])
    ck_d, log_d = train_model(cfg_d, corpus, "ddpm")
    ck_b, _ = train_model(cfg_b, corpus, "baseline")
    ddpm_path = root / "ddpm.bin"
    base_path = root / "baseline.bin"
    save_checkpoint(ck_d, ddpm_path)
    save_checkpoint(ck_b, base_path)

    tagged = assign_splits(corpus, cfg_d.data.split_seed, cfg_d.data.holdout_fraction)
    pred_d = ddpm_predictor(model_from_checkpoint(ck_d), schedule_from_config(cfg_d), ck_d.stats)
    pred_b = baseline_predictor(model_from_checkpoint(ck_b), ck_b.stats)
    report = build_report(
        tagged,
        [pred_d, pred_b],
        seed=0,
        n_samples_per_utterance=8,
        bins=128,
        metadata={"suite": "acceptance"},
        synthetic_spec=spec,
    )
    return {
        "spec": spec,
        "corpus": tagged,
        "corpus_path": str(corpus_path),
        "cfg_d": cfg_d,
        "ck_d": ck_d,
        "ck_b": ck_b,
        "ddpm_path": str(ddpm_path),
        "base_path": str(base_path),
        "report": report,
        "loss_log_d": log_d,
        "root": root,
    }


# -- criteria ---------------------------------------------------------------


def test_criterion_1_schedule_correctness():
    with criterion(1, "linear schedule T=500, 1e-4..0.06: endpoints, decay, sigma_1"):
        s = linear_schedule(500, 1e-4, 0.06)
        assert s.beta[1] == 1e-4
        assert s.beta[500] == 0.06
        assert np.all(np.diff(s.alpha_bar) < 0.0)
        assert s.alpha_bar[500] < 1e-6
        assert s.sigma[1] == 0.0


def test_criterion_2_gradient_fidelity():
    with criterion(2, "finite-difference checks: all primitives and both training losses"):
        rng = Rng(17)
        x = Tensor(rng.normal((5, 6)) + 0.4)
        cases = {
            "add": ({"a": x, "b": Tensor(rng.normal(6))}, lambda p: nm.mean(nm.add(p["a"], p["b"]))),
            "sub/mul": (
                {"a": x, "b": Tensor(rng.normal((5, 6)))},
                lambda p: nm.mean(nm.mul(nm.sub(p["a"], p["b"]), nm.sub(p["a"], p["b"]))),
            ),
            "tanh": ({"a": x}, lambda p: nm.mean(nm.tanh(p["a"]))),
            "sigmoid": ({"a": x}, lambda p: nm.mean(nm.sigmoid(p["a"]))),
            "relu": ({"a": x}, lambda p: nm.mean(nm.relu(p["a"]))),
            "matmul": (
                {"a": x, "w": Tensor(rng.normal((6, 4)))},
                lambda p: nm.mean(nm.mul(nm.matmul(p["a"], p["w"]), nm.matmul(p["a"], p["w"]))),
            ),
            "conv1d_dilated": (
                {"a": x, "w": Tensor(rng.normal((3, 6, 4))), "b": Tensor(rng.normal(4))},
                lambda p: nm.mean(nm.tanh(nm.conv1d_dilated(p["a"], p["w"], p["b"], dilation=2))),
            ),
            "layer_norm": (
                {"a": x, "g": Tensor(rng.normal(6) + 1.0), "bb": Tensor(rng.normal(6))},
                lambda p: nm.mean(nm.mul(nm.layer_norm(p["a"], p["g"], p["bb"]),
                                         nm.layer_norm(p["a"], p["g"], p["bb"]))),
            ),
            "embed_lookup": (
                {"t": Tensor(rng.normal((4, 5)))},
                lambda p: nm.mean(nm.mul(nm.embed_lookup(p["t"], np.array([0, 3, 3])),
                                         nm.embed_lookup(p["t"], np.array([0, 3, 3])))),
            ),
            "dropout": (
                {"a": x},
                lambda p: nm.mean(nm.dropout(p["a"], 0.35, Rng(41), True)),
            ),
            "sum": ({"a": x}, lambda p: nm.sum(nm.mul(p["a"], p["a"]))),
            "mean": ({"a": x}, lambda p: nm.mean(nm.mul(p["a"], p["a"]))),
        }
        for name, (tensors, fn) in cases.items():
            fd_check(fn, tensors, probes_per_tensor=3)

        # full noise-prediction loss through condition encoder and denoiser
        sched = linear_schedule(25, 1e-3, 0.2)
        small = Config(
            denoiser=DenoiserSection(channels=8, layers=2, dilation_cycle=(1, 2), cond_dim=6,
                                     step_hidden=12),
            condition=ConditionSection(embed_dim=6, hidden=8),
            baseline=BaselineSection(width=8, dropout=0.25),
            data=DataSection(vocab_size=5),
        )
        den = Denoiser.init(small, rng)
        enc = ConditionEncoder.init(small, rng)
        jitter_params(den.params, rng)
        jitter_params(enc.params, rng)
        ids = np.array([[0, 1, 2, 3], [4, 3, 1, 0]])
        x0 = rng.normal((2, 4, 3))
        eps = rng.normal((2, 4, 3))
        t = np.array([3, 21])

        def ddpm_loss(params):
            enc.params = {k: params[k] for k in enc.params}
            den.params = {k: params[k] for k in den.params}
            return training_loss_graph(den, x0, enc.forward(ids), t, eps, sched)

        fd_check(ddpm_loss, {**enc.params, **den.params}, probes_per_tensor=2)

        # full baseline MSE loss with dropout active under a fixed stream
        net = BaselineNet.init(small, rng)
        jitter_params(net.params, rng)
        cvec_const = rng.normal((2, 4, 6))
        target = rng.normal((2, 4, 3))

        def base_loss(params):
            net.params = params
            return baseline_loss_graph(net, Tensor(cvec_const), target, rng=Rng(8), training=True)

        fd_check(base_loss, dict(net.params), probes_per_tensor=2)


def test_criterion_3_closed_form_gaussian_oracle():
    with criterion(3, "diffusion learns a diagonal Gaussian: 2000 samples match mean/std"):
        mu = np.array([0.5, -0.4, 0.25])
        sigma = np.array([0.3, 0.2, 0.35])
        length = 6
        rng = Rng(42)
        cfg = Config(
            denoiser=DenoiserSection(channels=32, layers=4, dilation_cycle=(1, 2), cond_dim=32,
                                     step_hidden=64),
            condition=ConditionSection(embed_dim=16, hidden=32),
            data=DataSection(vocab_size=1),
        )
        den = Denoiser.init(cfg, rng)
        enc = ConditionEncoder.init(cfg, rng)
        sched = linear_schedule(300, 1e-4, 0.1)
        opt = Adam(OptimizerSection(lr=1e-3))
        ids = np.zeros((16, length), dtype=np.int64)
        for _ in range(8000):
            x0 = mu + sigma * rng.normal((16, length, 3))
            t = rng.integers(1, 301, 16)
            eps = rng.normal((16, length, 3))
            with nm.Tape() as tape:
                cvec = enc.forward(ids)
                loss = training_loss_graph(den, x0, cvec, t, eps, sched)
            grads = nm.backward(tape, loss)
            merged = opt.step({**enc.params, **den.params}, grads)
            enc.params = {k: merged[k] for k in enc.params}
            den.params = {k: merged[k] for k in den.params}
        vec = enc.forward(np.zeros(length, dtype=np.int64)).data
        cond = Tensor(np.broadcast_to(vec, (2000, length, 32)).copy())
        samples = sample_model_space(den, cond, sched, Rng(7)).reshape(-1, 3)
        mean_err = np.abs(samples.mean(axis=0) - mu)
        std_err = np.abs(samples.std(axis=0) - sigma)
        assert np.all(mean_err < 0.05), mean_err
        assert np.all(std_err < 0.1), std_err


def _bimodal_pitch_residuals(system_eval, spec):
    """Predicted pitch minus class center, pooled over bimodal classes."""
    residuals = []
    for cls_id, cls in enumerate(spec.classes):
        if len(cls.weights) < 2:
            continue
        values = system_eval.feats[system_eval.ids == cls_id, 0]
        residuals.append(values - cls.means[:, 0].mean())
    return np.concatenate(residuals)


def test_criterion_4_multimodality_vs_mean_collapse(bench):
    with criterion(4, "diffusion covers both pitch modes; MSE baseline collapses between them"):
        report = bench["report"]
        spec = bench["spec"]
        sys_d, sys_b = report.systems
        modes = [(-PITCH_MODE_OFFSET, MODE_RADIUS), (PITCH_MODE_OFFSET, MODE_RADIUS)]
        occ_d = mode_coverage(_bimodal_pitch_residuals(sys_d, spec), modes)
        occ_b = mode_coverage(_bimodal_pitch_residuals(sys_b, spec), modes)
        assert occ_d[0] >= 0.25, occ_d
        assert occ_d[1] >= 0.25, occ_d
        assert occ_b[2] >= 0.9, occ_b


def test_criterion_5_divergence_ordering(bench):
    with criterion(5, "JS ordering: diffusion beats baseline on pitch+duration, ties energy"):
        sys_d, sys_b = bench["report"].systems
        assert sys_d.pooled_js["pitch"] < sys_b.pooled_js["pitch"]
        assert sys_d.pooled_js["log_duration"] < sys_b.pooled_js["log_duration"]
        assert sys_d.per_class_mean_js["pitch"] < sys_b.per_class_mean_js["pitch"]
        assert sys_d.per_class_mean_js["log_duration"] < sys_b.per_class_mean_js["log_duration"]
        gap = abs(sys_d.pooled_js["energy"] - sys_b.pooled_js["energy"])
        assert gap < 0.05, (sys_d.pooled_js, sys_b.pooled_js)


def test_criterion_6_js_metric_units():
    with criterion(6, "JS metric: identity, disjoint ln2, reference value, symmetry, bounds"):
        p = np.array([0.25, 0.25, 0.5])
        assert js_divergence(p, p) == 0.0
        assert js_divergence([1.0, 0.0], [0.0, 1.0]) == pytest.approx(LN2, abs=1e-12)
        # direct evaluation of the two KL terms: 0.2157615543...
        direct = 0.5 * (0.5 * np.log(0.5 / 0.75) + 0.5 * np.log(0.5 / 0.25)) + 0.5 * np.log(1 / 0.75)
        got = js_divergence([0.5, 0.5], [1.0, 0.0])
        assert got == pytest.approx(direct, abs=1e-6)
        assert round(got, 5) == 0.21576
        r = Rng(1)
        for _ in range(1000):
            n = int(r.integers(2, 24))
            a = r.uniform(n) + 1e-9
            b = r.uniform(n) + 1e-9
            a /= a.sum()
            b /= b.sum()
            ja = js_divergence(a, b)
            assert abs(ja - js_divergence(b, a)) < 1e-12
            assert 0.0 <= ja <= LN2 + 1e-12


def test_criterion_7_diversity_and_determinism(bench, tmp_path):
    with criterion(7, "two seeds disagree, one seed twice is byte-identical"):
        ddpm_path = bench["ddpm_path"]
        outs = {name: tmp_path / f"{name}.tsv" for name in ("a1", "a2", "b")}
        base = ["sample", "--checkpoint", ddpm_path, "--tokens", "0 5 11 17", "-n", "2"]
        assert main(base + ["--seed", "1", "--out", str(outs["a1"])]) == 0
        assert main(base + ["--seed", "1", "--out", str(outs["a2"])]) == 0
        assert main(base + ["--seed", "2", "--out", str(outs["b"])]) == 0
        assert outs["a1"].read_bytes() == outs["a2"].read_bytes()
        first = load_corpus(outs["a1"]).utterances[0].prosody
        other = load_corpus(outs["b"]).utterances[0].prosody
        differing = (
            int(np.any(first.pitch != other.pitch))
            + int(np.any(first.energy != other.energy))
            + int(np.any(first.duration != other.duration))
        )
        assert differing >= 1


def test_criterion_8_sampling_cost_pattern(bench):
    with criterion(8, "diffusion is >=100x baseline per utterance and scales linearly in T"):
        corpus = bench["corpus"]
        cfg = bench["cfg_d"]
        ck_d, ck_b = bench["ck_d"], bench["ck_b"]
        model_d = model_from_checkpoint(ck_d)
        model_b = model_from_checkpoint(ck_b)
        # trim to a handful of utterances; cost is per-chain, not per-weight
        subset = assign_splits(
            generate_corpus(bench["spec"], 120, (8, 12), Rng(3)), seed=1, holdout_fraction=0.06
        )
        full = schedule_from_config(cfg)
        half = linear_schedule(full.steps // 2, cfg.schedule.beta_start, cfg.schedule.beta_end)
        pred_full = ddpm_predictor(model_d, full, ck_d.stats)
        pred_half = ddpm_predictor(model_d, half, ck_d.stats)
        pred_base = baseline_predictor(model_b, ck_b.stats)
        # One interleaved measurement: host speed drifts between separate ones.
        rtf_full, rtf_half, rtf_base = measure_rtf(
            [pred_full, pred_half, pred_base], subset, frame_rate=80.0
        )
        assert rtf_full.seconds_per_utterance >= 100.0 * rtf_base.seconds_per_utterance, (
            rtf_full.seconds_per_utterance,
            rtf_base.seconds_per_utterance,
        )
        ratio = rtf_full.seconds_per_utterance / rtf_half.seconds_per_utterance
        assert 1.5 <= ratio <= 2.5, ratio
        assert rtf_base.rtf < 0.01, rtf_base


def test_criterion_9_persistence(bench, tmp_path):
    with criterion(9, "checkpoint and corpus round trips are exact; eval reproduces bit-for-bit"):
        # corpus file round trip
        corpus = bench["corpus"]
        p1 = tmp_path / "c1.tsv"
        p2 = tmp_path / "c2.tsv"
        save_corpus(corpus, p1)
        save_corpus(load_corpus(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

        # checkpoint round trip is byte-exact
        ck_path = tmp_path / "again.bin"
        save_checkpoint(load_checkpoint(bench["ddpm_path"]), ck_path)
        assert ck_path.read_bytes() == open(bench["ddpm_path"], "rb").read()

        # a reloaded checkpoint reproduces the evaluation report exactly
        reloaded = load_checkpoint(bench["ddpm_path"])
        pred_d = predictor_from_checkpoint(reloaded, "ddpm")
        pred_b = predictor_from_checkpoint(load_checkpoint(bench["base_path"]), "baseline")
        small = assign_splits(
            generate_corpus(bench["spec"], 300, (6, 10), Rng(5)), seed=2, holdout_fraction=0.05
        )
        texts = [
            render_report(
                build_report(small, [pred_d, pred_b], seed=4, n_samples_per_utterance=2,
                             bins=64, metadata={"suite": "persistence"})
            )
            for _ in range(2)
        ]
        assert texts[0] == texts[1]


def test_training_loss_falls_quickly(bench):
    # Starting from ~1.0 with the zero-initialized head, the benchmark
    # training loss is under 0.9 within 2000 steps.
    early = [loss for step, loss in bench["loss_log_d"] if step <= 2000]
    assert early and min(early) < 0.9, early


def test_criterion_10_parameter_accounting():
    with criterion(10, "parameter count matches the closed form and the expected range"):
        config = Config()
        den = Denoiser.init(config, Rng(0))
        enc = ConditionEncoder.init(config, Rng(0))
        cfg, features = config.denoiser, 3
        ch, k, d, h = cfg.channels, KERNEL, cfg.cond_dim, cfg.step_hidden
        per_layer = 2 * k * ch * ch + 2 * (d * ch + ch) + ch * ch
        expect_den = (
            (features * ch + ch)
            + (ch * h + h)
            + (h * ch + ch)
            + cfg.layers * per_layer
            + ch
            + (cfg.layers - 1) * (ch * ch + ch)
            + (ch * ch + ch)
            + (ch * features + features)
        )
        cc = config.condition
        expect_enc = (
            config.data.vocab_size * cc.embed_dim
            + (k * cc.embed_dim * cc.hidden + cc.hidden)
            + (k * cc.hidden * d + d)
        )
        assert count_parameters(den) == expect_den
        assert count_parameters(enc) == expect_enc
        total = count_parameters(den) + count_parameters(enc)
        assert 5e5 <= total <= 1.2e6, total

"""The benchmark's set-up, its three activities and the metrics they yield.

Everything here drives the package through the calls its command line
makes: ``generate_corpus``, ``train_model``, ``save_checkpoint`` /
``load_checkpoint``, ``predictor_from_checkpoint``, ``cli.main(["sample",
...])`` and ``build_report``.  Functions the tracer wraps are always looked
up on their module at call time, so the wrappers see every call.

A run sets up once (fixture checkpoints and the seeded inputs), then
interleaves small units of the three activities ``train``, ``sample`` and
``eval``.  The activity named by the workload runs as a closed loop for
the requested seconds; the other two run a fixed probe, so that every run
reports every end-to-end metric.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import resource
import statistics
import time
from dataclasses import dataclass

import numpy as np

import prosody_ddpm
from prosody_ddpm import checkpoint, cli, data, evaluation, predictors, training
from prosody_ddpm.config import default_config
from prosody_ddpm.numerics import Rng

import tracing

WORKLOADS = ("train", "sample", "eval")

# The acceptance-suite model size (``BENCH_OVERRIDES`` in
# tests/test_acceptance.py), copied so that edits to the tests cannot move
# the benchmark.
ACCEPTANCE_OVERRIDES = [
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

FIXTURE_SEED = 11  # the acceptance suite's corpus seed
LEN_RANGE = (6, 16)
TEST_LEN = 32
VOCAB = 20
FRAME_RATE = 80.0
LN2 = float(np.log(2.0))

# End-to-end metrics: name -> unit.  ``failed_share`` is printed but not a
# metric: it is 0 on a healthy run, and the result's ``attempted`` and
# ``failed`` fields carry it.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "train.ddpm.steps_per_s": "1/s",
    "train.ddpm.step_ms.p50": "ms",
    "train.ddpm.step_ms.p90": "ms",
    "train.baseline.steps_per_s": "1/s",
    "sample.utt_s.p50": "s",
    "sample.utt_s.p90": "s",
    "sample.rtf": "ratio",
    "eval.sequences_per_s": "1/s",
}

# Per-layer metrics of the traced run: name -> unit.  "step" is one
# training step on ``train`` and one reverse diffusion step of one
# utterance on ``sample`` and ``eval``.
PER_LAYER = {
    **{
        f"numerics.{op}.{kind}": unit
        for op in tracing.PRIMITIVES
        for kind, unit in (("calls", "count/step"), ("fwd_s", "s/step"))
    },
    "numerics.backward_s": "s/step",
    "numerics.tape_records": "count/step",
    "numerics.conv1d_dilated.flops": "flop/step",
    "numerics.matmul.flops": "flop/step",
    "optim.adam_s": "s/step",
    "training.batch_s": "s/step",
    "training.pad_share": "share",
    "training.tokens_per_step": "count/step",
    "denoiser.forward.calls": "count/step",
    "denoiser.forward_s": "s/step",
    "denoiser.rows_per_call": "rows",
    "denoiser.cond_encoder_s": "s/step",
    "diffusion.reverse_step_s": "s/step",
    "diffusion.loss_graph_s": "s/step",
    "baseline.forward_s": "s/step",
    "predictors.draw_s": "s/step",
    "predictors.chains_per_call": "chains",
    "evaluation.score_s": "s/step",
    "data.generate_corpus_s": "s",
    "checkpoint.save_s": "s",
    "checkpoint.load_s": "s",
    "checkpoint.bytes": "bytes",
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Sizing:
    """How much work each part of a run does."""

    corpus_utterances: int = 160  # 4 test utterances at the default holdout
    sample_requests: int = 64  # utterances the sample activity takes in turn
    fixture_corpus_utterances: int = 1000
    fixture_ddpm_steps: int = 1500
    fixture_baseline_steps: int = 625  # the acceptance suite's 6000:2500 ratio
    setup_repeats: int = 15
    probe_train_steps: int = 60  # timed steps per model kind
    probe_sample_draws: int = 10
    probe_eval_reports: int = 4  # one-utterance reports: the test split once
    trace_train_steps: int = 10
    trace_sample_draws: int = 4


class Tally:
    """Operations attempted and failed; a failure keeps its reason."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(what)

    @contextlib.contextmanager
    def op(self, what: str):
        """One operation that fails if its body raises."""
        self.attempted += 1
        try:
            yield
        except Exception as e:  # noqa: BLE001 - the benchmark must keep counting
            self.failed += 1
            self.reasons.append(f"{what}: {type(e).__name__}: {e}")


@dataclass
class Fixture:
    spec: object
    corpus: object  # split-tagged
    test: list
    requests: list  # unseen utterances for the sample activity
    ck_paths: dict[str, str]
    ckpts: dict
    setup: SetUpActivity
    fixture_train_s: float


def make_corpus(spec, n: int, seed: int):
    """Seeded desk-bench corpus whose utterance lengths are fixed by position.

    Utterance ``i`` has length ``6 + i % 11``, except that the utterances
    the default split puts in ``test`` all have length ``TEST_LEN``: a
    reverse step costs about the same at any length, so long test
    utterances give the evaluation the most tokens for its time.  Every
    seed gives each split the same lengths, so the seed changes the values
    but not the amount of work.
    """
    lo, hi = LEN_RANGE
    lengths = [lo + i % (hi - lo + 1) for i in range(n)]
    drawn = {
        length: iter(
            data.generate_corpus(spec, lengths.count(length), (length, length), Rng((seed, length)))
            .utterances
        )
        for length in sorted(set(lengths))
    }
    corpus = data.Corpus([next(drawn[length]) for length in lengths])
    split = default_config().data
    test = data.assign_splits(corpus, split.split_seed, split.holdout_fraction).splits["test"]
    long = iter(data.generate_corpus(spec, len(test), (TEST_LEN, TEST_LEN), Rng((seed, 0))).utterances)
    utterances = list(corpus.utterances)
    for i in test:
        utterances[i] = next(long)
    return data.Corpus(
        [data.Utterance(f"utt{i:05d}", u.tokens, u.prosody) for i, u in enumerate(utterances)]
    )


def _default_train_config(seed: int, steps: int):
    return default_config(
        [
            ("train.seed", str(seed)),
            ("train.steps", str(steps)),
            ("train.log_every", "1"),
            ("train.checkpoint_every", "0"),
        ]
    )


def _fixture_key(sizing: Sizing) -> str:
    """Hash of the package source, this file and the fixture sizes."""
    h = hashlib.sha256()
    h.update(repr((np.__version__, sizing.fixture_corpus_utterances)).encode())
    h.update(repr((sizing.fixture_ddpm_steps, sizing.fixture_baseline_steps)).encode())
    src = os.path.dirname(os.path.abspath(prosody_ddpm.__file__))
    files = [os.path.join(src, n) for n in sorted(os.listdir(src)) if n.endswith(".py")]
    for path in files + [os.path.abspath(__file__)]:
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def fixture_checkpoints(
    sizing: Sizing, cache_dir: str, quiet=contextlib.nullcontext
) -> tuple[dict[str, str], float]:
    """Paths of the trained fixture checkpoints, and the seconds spent training.

    The fixture models are ``train_model`` at the acceptance size on a
    corpus of fixed seed, so they are the same for every run of one
    source tree.  They are trained by the first run and kept under
    ``cache_dir``, keyed by a hash of the package source, like a build
    artifact.
    """
    directory = os.path.join(cache_dir, _fixture_key(sizing))
    paths = {kind: os.path.join(directory, f"{kind}.bin") for kind in ("ddpm", "baseline")}
    if all(os.path.exists(p) for p in paths.values()):
        return paths, 0.0
    os.makedirs(directory, exist_ok=True)
    corpus = make_corpus(data.desk_bench_spec(VOCAB), sizing.fixture_corpus_utterances, FIXTURE_SEED)
    t0 = time.perf_counter()
    with quiet():
        for kind, steps in (
            ("ddpm", sizing.fixture_ddpm_steps),
            ("baseline", sizing.fixture_baseline_steps),
        ):
            cfg = default_config(ACCEPTANCE_OVERRIDES + [("train.steps", str(steps))])
            ck, _ = training.train_model(cfg, corpus, kind)
            # Write under a private name first, so a concurrent run never
            # reads half a file.
            tmp = f"{paths[kind]}.{os.getpid()}"
            checkpoint.save_checkpoint(ck, tmp)
            os.replace(tmp, paths[kind])
    return paths, time.perf_counter() - t0


class SetUpActivity:
    """The timed set-up; one unit is one repetition of it.

    A set-up generates the corpus, runs the training set-up before the
    first step at the default size for both model kinds, saves and loads
    both checkpoints, and builds both predictors.  ``setup_s`` is the
    median over repetitions; those after the first are interleaved with
    the other activities, so that the median samples the whole run.
    """

    def __init__(self, seed: int, sizing: Sizing, ckpts: dict, workdir: str):
        self.seed, self.sizing, self.ckpts = seed, sizing, ckpts
        self.spec = data.desk_bench_spec(VOCAB)
        self.paths = {kind: os.path.join(workdir, f"{kind}.bin") for kind in ckpts}
        self.corpus = None  # split-tagged
        self.times: list[float] = []

    @property
    def done(self) -> int:
        return len(self.times)

    def unit(self) -> None:
        split = self.ckpts["ddpm"].config.data
        t0 = time.perf_counter()
        corpus = make_corpus(self.spec, self.sizing.corpus_utterances, self.seed)
        tagged = data.assign_splits(corpus, split.split_seed, split.holdout_fraction)
        for kind, ck in self.ckpts.items():
            training.train_model(_default_train_config(self.seed, 0), corpus, kind, steps=0)
            checkpoint.save_checkpoint(ck, self.paths[kind])
            predictors.predictor_from_checkpoint(checkpoint.load_checkpoint(self.paths[kind]), kind)
        self.times.append(time.perf_counter() - t0)
        self.corpus = tagged


def set_up(
    seed: int, sizing: Sizing, workdir: str, cache_dir: str, quiet=contextlib.nullcontext
) -> Fixture:
    """The fixture checkpoints, one timed set-up, and the workload's inputs."""
    fixture, fixture_train_s = fixture_checkpoints(sizing, cache_dir, quiet)
    ckpts = {kind: checkpoint.load_checkpoint(path) for kind, path in fixture.items()}
    setup = SetUpActivity(seed, sizing, ckpts, workdir)
    setup.unit()
    requests = data.generate_corpus(
        setup.spec, sizing.sample_requests, (TEST_LEN, TEST_LEN), Rng((seed, TEST_LEN))
    ).utterances
    return Fixture(
        spec=setup.spec,
        corpus=setup.corpus,
        test=setup.corpus.subset("test"),
        requests=requests,
        ck_paths=setup.paths,
        ckpts=ckpts,
        setup=setup,
        fixture_train_s=fixture_train_s,
    )


# --------------------------------------------------------------------------
# Activities.  Each does its work in small units (a chunk of training
# steps, one draw, one report) and keeps its samples across units, so
# that a run can interleave them: timing noise on a shared machine shifts
# by tens of percent for seconds at a time, and a metric taken as a
# median over units spread through the whole run steps over those shifts.
# --------------------------------------------------------------------------


class TrainActivity:
    """``train_model`` at the default size, in chunks that resume from the
    previous chunk's checkpoint as ``prosody-ddpm train --resume`` does,
    so the losses form one run.  The first step of each chunk pays for
    the chunk's set-up and is not timed.
    """

    CHUNK = 5  # timed steps per chunk

    def __init__(self, fx: Fixture, kind: str, seed: int, tally: Tally):
        self.fx, self.kind, self.tally = fx, kind, tally
        self.config = _default_train_config(seed, 10**9)
        self.checkpoint = None
        self.step_ms: list[float] = []
        self.chunk_rates: list[float] = []  # timed steps per second, per chunk
        self.losses: list[float] = []
        self.done = 0  # timed steps asked for, failed chunks included


    def unit(self, steps: int = CHUNK) -> None:
        """One chunk of ``steps`` timed steps."""
        stamps: list[float] = []

        def on_log(step, loss):
            stamps.append(time.perf_counter())
            self.losses.append(loss)

        start = self.checkpoint.step if self.checkpoint else 0
        self.done += steps
        with self.tally.op(f"train {self.kind}"):
            self.checkpoint, _ = training.train_model(
                self.config,
                self.fx.corpus,
                self.kind,
                resume=self.checkpoint,
                steps=start + steps + 1,
                on_log=on_log,
            )
        if len(stamps) > 1:
            self.step_ms.extend(np.diff(stamps) * 1e3)
            self.chunk_rates.append((len(stamps) - 1) / (stamps[-1] - stamps[0]))
            self.tally.attempted += len(stamps) - 1

    def run(self, steps: int) -> None:
        while self.done < steps:
            self.unit(min(self.CHUNK, steps - self.done))

    def check(self) -> None:
        losses = self.losses
        if not losses:
            return
        q = max(1, len(losses) // 4)
        self.tally.check(bool(np.all(np.isfinite(losses))), f"train {self.kind}: non-finite loss")
        first, last = np.mean(losses[:q]), np.mean(losses[-q:])
        self.tally.check(last < first, f"train {self.kind}: loss did not fall ({first:.4f} -> {last:.4f})")


class SampleActivity:
    """``prosody-ddpm sample -n 1`` run in-process, one utterance per call,
    taking the seeded unseen utterances of ``fx.requests`` in turn.  The
    first draw is repeated by :meth:`check` with its seed and must give
    the same bytes."""

    def __init__(self, fx: Fixture, seed: int, tally: Tally, workdir: str):
        self.fx, self.seed, self.tally = fx, seed, tally
        self.out_path = os.path.join(workdir, "sample.tsv")
        self.draws = 0
        self.first: bytes | None = None
        self.utt_s: list[float] = []
        self.mean_audio_s = float(
            np.mean([u.prosody.duration.sum() / FRAME_RATE for u in fx.requests])
        )

    @property
    def done(self) -> int:
        return self.draws

    def _draw(self, utt, seed: int) -> tuple[float, bytes]:
        argv = ["sample", "--checkpoint", self.fx.ck_paths["ddpm"]]
        argv += ["--tokens", " ".join(str(i) for i in utt.tokens.ids)]
        argv += ["-n", "1", "--seed", str(seed), "--out", self.out_path]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            rc = cli.main(argv)
            dt = time.perf_counter() - t0
        if rc != 0:
            raise RuntimeError(f"sample exited with code {rc}")
        drawn = data.load_corpus(self.out_path).utterances
        if len(drawn) != 1 or drawn[0].tokens != utt.tokens:
            raise ValueError("sample output does not hold one sequence for the given tokens")
        p = drawn[0].prosody
        if not (np.all(np.isfinite(p.pitch)) and np.all(np.isfinite(p.energy))):
            raise ValueError("sample output has non-finite values")
        with open(self.out_path, "rb") as fh:
            return dt, fh.read()

    def unit(self) -> None:
        """One draw."""
        requests = self.fx.requests
        utt = requests[self.draws % len(requests)]
        with self.tally.op(f"sample {utt.utt_id}"):
            dt, tsv = self._draw(utt, self.seed + self.draws)
            self.utt_s.append(dt)
            if self.draws == 0:
                self.first = tsv
        self.draws += 1

    def run(self, draws: int) -> None:
        while self.done < draws:
            self.unit()

    @property
    def rtf(self) -> float:
        """Real-time factor: the p90 draw time over the mean audio length
        of the requests.

        A draw costs the same at any audio length (the chain's length is
        set by the token count), so the tail of the times and the mean of
        the lengths are taken apart, the mean over all requests: a ratio
        per draw, or the mean over the few utterances drawn, would move
        with the seed's audio lengths.
        """
        return _percentile(self.utt_s, 90) / self.mean_audio_s

    def check(self) -> None:
        with self.tally.op("sample repeat"):
            _, again = self._draw(self.fx.requests[0], self.seed)
            if again != self.first:
                raise ValueError("the same utterance and seed gave different bytes")


def _parse_js(text: str) -> list[float]:
    """Every JS value in the rendered report's three JS sections."""
    values: list[float] = []
    section = None
    header = False
    for line in text.splitlines():
        if line.startswith("[") and line.endswith("]"):
            section, header = line[1:-1], True
            continue
        if not line or line.startswith("#"):
            continue
        if header:
            header = False
            continue
        cells = line.split("\t")
        if section in ("pooled_js", "per_class_mean_js"):
            values.append(float(cells[2]))
        elif section == "per_class_js":
            values.extend(float(c) for c in cells[2:])
    return values


class EvalActivity:
    """``build_report`` of the ddpm and the baseline with the eval settings
    of the ddpm checkpoint, as ``prosody-ddpm eval`` runs it.

    A timed unit is the report over one test utterance (the corpus with
    its test split narrowed to that utterance), taking the test split in
    turn: the whole split takes about 8 s, too coarse to interleave.
    :meth:`check` makes the report over the whole split and checks the
    paper's claim on it.  Reports on the same inputs must render
    identically.
    """

    def __init__(self, fx: Fixture, tally: Tally):
        self.fx, self.tally = fx, tally
        self.config = fx.ckpts["ddpm"].config
        self.texts: dict[tuple[int, ...], str] = {}
        self.rates: list[float] = []  # ddpm sequences per second, per report
        self.reports = 0

    @property
    def done(self) -> int:
        return self.reports

    def _report(self, test: tuple[int, ...]):
        preds = [
            predictors.predictor_from_checkpoint(checkpoint.load_checkpoint(self.fx.ck_paths[k]), k)
            for k in ("ddpm", "baseline")
        ]
        corpus = data.Corpus(self.fx.corpus.utterances, {**self.fx.corpus.splits, "test": test})
        e = self.config.eval
        t0 = time.perf_counter()
        report = evaluation.build_report(
            corpus,
            preds,
            seed=e.seed,
            n_samples_per_utterance=e.n_samples,
            bins=e.bins,
            metadata={"corpus": "benchmark"},
            synthetic_spec=self.fx.spec,
        )
        dt = time.perf_counter() - t0
        text = evaluation.render_report(report)
        values = _parse_js(text)
        if not values or not all(0.0 <= v <= LN2 for v in values):
            raise ValueError("report JS values missing or outside [0, ln 2]")
        systems = {s.name: s for s in report.systems}
        expected = len(test) * e.n_samples
        if systems["ddpm"].n_sequences != expected:
            raise ValueError(f"ddpm drew {systems['ddpm'].n_sequences} sequences, not {expected}")
        if self.texts.setdefault(test, text) != text:
            raise ValueError("the same report inputs rendered differently")
        return dt, systems

    def unit(self) -> None:
        """The report over the next test utterance."""
        split = self.fx.corpus.splits["test"]
        with self.tally.op("eval report"):
            dt, systems = self._report((split[self.reports % len(split)],))
            self.rates.append(systems["ddpm"].n_sequences / dt)
        self.reports += 1

    def run(self, reports: int) -> None:
        while self.done < reports:
            self.unit()

    def check(self) -> None:
        with self.tally.op("eval report over the test split"):
            _, systems = self._report(self.fx.corpus.splits["test"])
            for dim in ("pitch", "log_duration"):
                d, b = systems["ddpm"].pooled_js[dim], systems["baseline"].pooled_js[dim]
                if not d < b:
                    raise ValueError(f"ddpm pooled {dim} JS {d:.4f} is not below the baseline's {b:.4f}")


# --------------------------------------------------------------------------
# runs
# --------------------------------------------------------------------------


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if values else float("nan")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# The activities each workload runs for its seconds; the others are probes.
OWN = {"train": ("ddpm", "baseline"), "sample": ("sample",), "eval": ("eval",)}


def measure(
    workload: str, seed: int, seconds: float, workdir: str, cache_dir: str, sizing: Sizing = Sizing()
):
    """Untraced run: returns (end-to-end metrics, tally, info).

    The workload's own activities share ``seconds`` of work; every other
    activity runs a probe of fixed size.  Units of all of them are
    interleaved through the whole run: whenever a probe's share of its
    size falls behind the share of ``seconds`` already spent, the probe
    runs its next unit.

    On a shared host the program runs in a steady slow state, broken by
    faster stretches whose share varies from run to run.  The rates and
    the real-time factor are therefore the figure 90% of the units
    reach (the 10th percentile of per-unit rates; the p90 draw time for
    the real-time factor), which follows the steady state, as p90 does.
    """
    tally = Tally()
    fx = set_up(seed, sizing, workdir, cache_dir)
    acts = {
        "ddpm": TrainActivity(fx, "ddpm", seed, tally),
        "baseline": TrainActivity(fx, "baseline", seed, tally),
        "sample": SampleActivity(fx, seed, tally, workdir),
        "eval": EvalActivity(fx, tally),
        "setup": fx.setup,
    }
    size = {
        "ddpm": sizing.probe_train_steps,
        "baseline": sizing.probe_train_steps,
        "sample": sizing.probe_sample_draws,
        "eval": sizing.probe_eval_reports,
        "setup": sizing.setup_repeats,
    }
    own = OWN[workload]
    probes = [name for name in acts if name not in own]
    budget = seconds / len(own)
    spent = dict.fromkeys(own, 0.0)
    while True:
        progress = min(spent.values()) / budget
        behind = [p for p in probes if acts[p].done < min(progress, 1.0) * size[p]]
        if behind:
            acts[behind[0]].unit()
            continue
        if progress >= 1.0:
            break
        name = min(own, key=spent.__getitem__)
        t0 = time.perf_counter()
        acts[name].unit()
        spent[name] += time.perf_counter() - t0
    for name in ("ddpm", "baseline", "sample", "eval"):
        if workload == "eval" or name != "eval":
            acts[name].check()

    ddpm, base, smp, ev = (acts[k] for k in ("ddpm", "baseline", "sample", "eval"))
    metrics = {
        "setup_s": statistics.median(fx.setup.times),
        "peak_rss_mb": peak_rss_mb(),
        "train.ddpm.steps_per_s": _percentile(ddpm.chunk_rates, 10),
        "train.ddpm.step_ms.p50": _percentile(ddpm.step_ms, 50),
        "train.ddpm.step_ms.p90": _percentile(ddpm.step_ms, 90),
        "train.baseline.steps_per_s": _percentile(base.chunk_rates, 10),
        "sample.utt_s.p50": _percentile(smp.utt_s, 50),
        "sample.utt_s.p90": _percentile(smp.utt_s, 90),
        "sample.rtf": smp.rtf,
        "eval.sequences_per_s": _percentile(ev.rates, 10),
    }
    info = {
        "fixture_train_s": fx.fixture_train_s,
        "samples": {
            "train.ddpm.step_ms": len(ddpm.step_ms),
            "train.ddpm.chunks": len(ddpm.chunk_rates),
            "train.baseline.chunks": len(base.chunk_rates),
            "sample.utt_s": len(smp.utt_s),
            "eval.reports": len(ev.rates),
        },
    }
    return metrics, tally, info


def _activity(workload: str, fx: Fixture, seed: int, tally: Tally, workdir: str, sizing: Sizing):
    """The fixed work a traced run measures twice; returns its step count."""
    if workload == "train":
        for kind in ("ddpm", "baseline"):
            TrainActivity(fx, kind, seed, tally).run(steps=sizing.trace_train_steps)
        # Each chunk's untimed first step is a training step too.
        chunks = -(-sizing.trace_train_steps // TrainActivity.CHUNK)
        return 2 * (sizing.trace_train_steps + chunks)
    chain = fx.ckpts["ddpm"].config.schedule.steps
    if workload == "sample":
        smp = SampleActivity(fx, seed, tally, workdir)
        smp.run(draws=sizing.trace_sample_draws)
        smp.check()
        return (sizing.trace_sample_draws + 1) * chain
    EvalActivity(fx, tally).run(reports=len(fx.test))
    return len(fx.test) * chain


def trace(workload: str, seed: int, workdir: str, cache_dir: str, sizing: Sizing = Sizing()):
    """Traced run: returns (per-layer metrics, tally, info).

    The set-up is traced with the fixture training passed through.  The
    workload's fixed activity then runs once without wrappers and once
    with them; the difference in wall time is the tracing overhead.
    """
    tally = Tally()
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.recording():
        fx = set_up(seed, sizing, workdir, cache_dir, quiet=lambda: tracer.recording(False))
    setup_spans = tracer.take()

    t0 = time.perf_counter()
    _activity(workload, fx, seed, tally, workdir, sizing)
    untraced_s = time.perf_counter() - t0
    with tracer.installed(), tracer.recording():
        t0 = time.perf_counter()
        units = _activity(workload, fx, seed, tally, workdir, sizing)
        traced_s = time.perf_counter() - t0
    spans = tracer.take()
    metrics = per_layer_metrics(
        tracing.aggregate(spans), tracing.aggregate(setup_spans, spans), units
    )
    metrics["trace.overhead_s"] = traced_s - untraced_s
    info = {"untraced_s": untraced_s, "traced_s": traced_s, "spans": len(spans), "steps": units}
    return metrics, tally, info


def per_layer_metrics(main: dict, everything: dict, units: int) -> dict[str, float]:
    """Per-step self times and counts from the activity's spans; per-call
    figures for the set-up layers from all spans."""

    def tot(name, pool=main):
        return pool.get(name, tracing.Totals())

    def per_call(total: float, calls: int) -> float:
        return total / calls if calls else 0.0

    m: dict[str, float] = {}
    for op in tracing.PRIMITIVES:
        t = tot(f"numerics.{op}")
        m[f"numerics.{op}.calls"] = t.calls / units
        m[f"numerics.{op}.fwd_s"] = t.self_s / units
    bw = tot("numerics.backward")
    m["numerics.backward_s"] = bw.self_s / units
    m["numerics.tape_records"] = bw.counters.get("tape_records", 0.0) / units
    for op in ("conv1d_dilated", "matmul"):
        m[f"numerics.{op}.flops"] = tot(f"numerics.{op}").counters.get("flops", 0.0) / units
    m["optim.adam_s"] = tot("optim.adam").self_s / units
    batch = tot("training.batch")
    m["training.batch_s"] = batch.self_s / units
    positions = batch.counters.get("positions", 0.0)
    tokens = batch.counters.get("tokens", 0.0)
    m["training.pad_share"] = (positions - tokens) / positions if positions else 0.0
    m["training.tokens_per_step"] = per_call(tokens, batch.calls)
    den = tot("denoiser.forward")
    m["denoiser.forward.calls"] = den.calls / units
    m["denoiser.forward_s"] = den.self_s / units
    m["denoiser.rows_per_call"] = per_call(den.counters.get("rows", 0.0), den.calls)
    m["denoiser.cond_encoder_s"] = tot("denoiser.cond_encoder").self_s / units
    m["diffusion.reverse_step_s"] = tot("diffusion.reverse_step").self_s / units
    m["diffusion.loss_graph_s"] = tot("diffusion.loss_graph").self_s / units
    m["baseline.forward_s"] = tot("baseline.forward").self_s / units
    draw = tot("predictors.draw")
    m["predictors.draw_s"] = draw.self_s / units
    m["predictors.chains_per_call"] = per_call(draw.counters.get("chains", 0.0), draw.calls)
    m["evaluation.score_s"] = tot("evaluation.score").self_s / units
    gen = tot("data.generate_corpus", everything)
    m["data.generate_corpus_s"] = per_call(gen.self_s, gen.calls)
    save = tot("checkpoint.save", everything)
    load = tot("checkpoint.load", everything)
    m["checkpoint.save_s"] = per_call(save.self_s, save.calls)
    m["checkpoint.load_s"] = per_call(load.self_s, load.calls)
    m["checkpoint.bytes"] = per_call(save.counters.get("bytes", 0.0), save.calls)
    return m

"""Command-line entry points: gen-data, train, sample, eval, rtf.

Every command is reproducible from (config, seed, input files) alone;
output files carry no timestamps except the run-directory name.  Exit
code 0 on success, 2 on structured input errors, 3 on training
divergence.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .checkpoint import Checkpoint, CheckpointError, load_checkpoint, save_checkpoint
from .config import (
    Config,
    ConfigError,
    DataSection,
    canonical_text,
    config_hash,
    default_config,
    load_config,
    parse_config,
)
from .data import (
    Corpus,
    CorpusError,
    TokenSequence,
    Utterance,
    assign_splits,
    desk_bench_spec,
    generate_corpus,
    load_corpus,
    load_spec,
    replace_file,
    save_corpus,
    save_spec,
)
from .evaluation import build_report, measure_rtf, render_report, write_histograms
from .numerics import NonFiniteError, Rng
from .predictors import predictor_from_checkpoint
from .training import TrainingDiverged, train_model


def _parse_overrides(extra: list[str]) -> list[tuple[str, str]]:
    out = []
    i = 0
    while i < len(extra):
        arg = extra[i]
        if not arg.startswith("--"):
            raise ConfigError(f"unexpected argument {arg!r}")
        key = arg[2:]
        if "=" in key:
            key, value = key.split("=", 1)
            i += 1
        else:
            if i + 1 >= len(extra):
                raise ConfigError(f"override {arg!r} is missing a value")
            value = extra[i + 1]
            i += 2
        if "." not in key:
            raise ConfigError(f"unknown option --{key} (config overrides look like --section.key)")
        out.append((key, value))
    return out


def _load_config(path: str | None, extra: list[str]) -> tuple[Config, list[tuple[str, str]]]:
    overrides = _parse_overrides(extra)
    config = load_config(path, overrides) if path else default_config(overrides)
    return config, overrides


def _run_dir(base: str, config: Config) -> str:
    stamp = time.strftime("%Y%m%d-%H%M%S")
    return os.path.join(base, f"{config_hash(config)}-{stamp}")


def _write_config_log(config: Config, overrides: list[tuple[str, str]], path: str) -> None:
    with replace_file(path) as fh:
        fh.write(canonical_text(config))
        if overrides:
            fh.write("\n# command-line overrides\n")
            for k, v in overrides:
                fh.write(f"# --{k} {v}\n")


def cmd_gen_data(args, extra: list[str]) -> int:
    if extra:
        raise ConfigError(f"unexpected arguments: {extra}")
    if args.utterances < 1:
        raise ConfigError("need at least 1 utterance")
    if args.min_len < 1 or args.max_len < args.min_len:
        raise ConfigError("need 1 <= min-len <= max-len")
    spec = desk_bench_spec(args.vocab)
    corpus = generate_corpus(spec, args.utterances, (args.min_len, args.max_len), Rng(args.seed))
    save_corpus(corpus, args.out)
    save_spec(spec, args.out + ".spec.json")
    print(f"wrote {len(corpus)} utterances to {args.out}")
    return 0


def cmd_train(args, extra: list[str]) -> int:
    config, overrides = _load_config(args.config, extra)
    if args.corpus:
        config.data.corpus = args.corpus
    if not config.data.corpus:
        raise ConfigError("no corpus given; set data.corpus or pass --corpus")
    corpus = load_corpus(config.data.corpus)
    resume = load_checkpoint(args.resume) if args.resume else None
    out_dir = args.out or _run_dir("runs", config)
    os.makedirs(out_dir, exist_ok=True)
    _write_config_log(config, overrides, os.path.join(out_dir, "config.txt"))
    ckpt_path = os.path.join(out_dir, "checkpoint.bin")
    log_path = os.path.join(out_dir, "loss_log.tsv")
    # A resumed run keeps the rows up to its checkpoint's step and writes the
    # later ones again.  Rows are written as they are logged, so a run that
    # diverges keeps them.
    kept = []
    if resume is not None and os.path.exists(log_path):
        with open(log_path, encoding="utf-8") as fh:
            kept = [r for r in fh if r.endswith("\n") and int(r.split("\t")[0]) <= resume.step]
    with open(log_path, "w", encoding="utf-8") as log:
        log.writelines(kept)

        def on_log(step: int, loss: float) -> None:
            log.write(f"{step}\t{loss!r}\n")
            print(f"step {step}: loss {loss:.6f}")

        final, _ = train_model(
            config,
            corpus,
            args.model,
            resume=resume,
            on_checkpoint=lambda ck: save_checkpoint(ck, ckpt_path),
            on_log=on_log,
        )
    print(f"finished at step {final.step}; checkpoint at {ckpt_path}")
    return 0


def cmd_sample(args, extra: list[str]) -> int:
    if extra:
        raise ConfigError(f"unexpected arguments: {extra}")
    if args.n < 1:
        raise ConfigError(f"-n must be at least 1, got {args.n}")
    ck = load_checkpoint(args.checkpoint)
    if ck.kind != "ddpm" and args.n > 1:
        raise ConfigError(
            "baseline checkpoints are deterministic predictors; n > 1 would repeat one output"
        )
    try:
        ids = tuple(int(v) for v in args.tokens.split())
    except ValueError:
        raise ConfigError(f"tokens must be space-separated integers, got {args.tokens!r}") from None
    # An id outside the vocabulary fails in the condition encoder, before any chain step.
    tokens = TokenSequence(ids)
    sequences = predictor_from_checkpoint(ck).fn(tokens, Rng(args.seed), args.n)
    utterances = [
        Utterance(utt_id=f"sample{i:05d}", tokens=tokens, prosody=ps)
        for i, ps in enumerate(sequences)
    ]
    save_corpus(Corpus(utterances), args.out)
    print(f"wrote {len(utterances)} samples to {args.out}")
    return 0


def _eval_setup(ck: Checkpoint, corpus_path: str, extra: list[str]) -> tuple[Config, Corpus]:
    """The checkpoint's config with the ``--eval.*`` overrides in ``extra``
    applied, and the corpus at ``corpus_path`` split as that config says."""
    overrides = _parse_overrides(extra)
    for dotted, _ in overrides:
        if not dotted.startswith("eval."):
            raise ConfigError(f"only eval.* overrides apply here, got --{dotted}")
    config = parse_config(canonical_text(ck.config), overrides)
    corpus = assign_splits(
        load_corpus(corpus_path), config.data.split_seed, config.data.holdout_fraction
    )
    return config, corpus


def cmd_eval(args, extra: list[str]) -> int:
    ck_d = load_checkpoint(args.ddpm)
    ck_b = load_checkpoint(args.baseline)
    if ck_d.kind != "ddpm":
        raise ConfigError(f"--ddpm checkpoint is a {ck_d.kind!r} model")
    if ck_b.kind != "baseline":
        raise ConfigError(f"--baseline checkpoint is a {ck_b.kind!r} model")
    if not ck_d.stats.equals(ck_b.stats):
        raise ConfigError(
            "checkpoints carry different normalization statistics; their metrics are not comparable"
        )
    config, corpus = _eval_setup(ck_d, args.corpus, extra)
    spec = None
    spec_path = args.corpus + ".spec.json"
    if os.path.exists(spec_path):
        spec = load_spec(spec_path)
    predictors = [predictor_from_checkpoint(ck_d, "ddpm"), predictor_from_checkpoint(ck_b, "baseline")]
    report = build_report(
        corpus,
        predictors,
        seed=config.eval.seed,
        n_samples_per_utterance=config.eval.n_samples,
        bins=config.eval.bins,
        metadata={
            "config_hash": config_hash(config),
            "corpus": os.path.basename(args.corpus),
            "ddpm_step": str(ck_d.step),
            "baseline_step": str(ck_b.step),
        },
        synthetic_spec=spec,
    )
    os.makedirs(args.out, exist_ok=True)
    report_path = os.path.join(args.out, "report.txt")
    with replace_file(report_path) as fh:
        fh.write(render_report(report))
    write_histograms(report, args.out)
    print(f"wrote {report_path}")
    for dim in ("pitch", "energy", "log_duration"):
        row = " ".join(f"{s.name}={s.pooled_js[dim]:.4f}" for s in report.systems)
        print(f"pooled js {dim}: {row}")
    return 0


def cmd_rtf(args, extra: list[str]) -> int:
    ck = load_checkpoint(args.checkpoint)
    config, corpus = _eval_setup(ck, args.corpus, extra)
    (result,) = measure_rtf(
        [predictor_from_checkpoint(ck)], corpus, config.eval.frame_rate, seed=config.eval.seed
    )
    print(f"model: {ck.kind}")
    print(f"rtf: {result.rtf:.6f}")
    print(f"seconds_per_utterance: {result.seconds_per_utterance:.6f}")
    print(f"audio_seconds_per_utterance: {result.audio_seconds_per_utterance:.6f}")
    print(f"utterances: {result.n_utterances}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prosody-ddpm",
        description="Train and evaluate diffusion and baseline prosody predictors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic corpus with a known spec")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--utterances", type=int, default=3000)
    p.add_argument("--min-len", type=int, default=6)
    p.add_argument("--max-len", type=int, default=16)
    p.add_argument("--vocab", type=int, default=DataSection.vocab_size)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="train a predictor (extra --section.key value override config)")
    p.add_argument("--config", default=None)
    p.add_argument("--model", choices=("ddpm", "baseline"), required=True)
    p.add_argument("--corpus", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--resume", default=None)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("sample", help="draw prosody sequences for a token input")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--tokens", required=True, help="space-separated token class ids")
    p.add_argument("-n", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("eval", help="side-by-side distribution evaluation of two checkpoints")
    p.add_argument("--ddpm", required=True)
    p.add_argument("--baseline", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("rtf", help="measure the real-time factor of a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.set_defaults(fn=cmd_rtf)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    try:
        return args.fn(args, extra)
    except TrainingDiverged as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ConfigError, CorpusError, CheckpointError, NonFiniteError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

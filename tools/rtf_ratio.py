"""Criterion 8's sampling-cost ratios on two trained checkpoints, repeated.

    python3 tools/rtf_ratio.py <src-dir> <ddpm.bin> <baseline.bin> [--runs N]

Imports ``prosody_ddpm`` from ``<src-dir>`` and builds what
``tests/test_acceptance.py::test_criterion_8_sampling_cost_pattern`` builds:
the ddpm's full chain, the same ddpm on a schedule of half the steps, the
baseline, and the criterion's 120-utterance corpus.  Each run is one
interleaved ``measure_rtf`` over the three predictors and prints the
ddpm/baseline and full/half ratios of seconds per utterance, and the
milliseconds per utterance of each.  The criterion asks for a ddpm/baseline
ratio of at least 100 and a full/half ratio in [1.5, 2.5].  The last line
gives the medians and the smallest ddpm/baseline ratio.

The benchmark keeps checkpoints at the acceptance size under
``.bench_work/fixtures/<hash>/``.  BLAS is pinned to one thread before
numpy loads.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys


def ratios(src_dir: str, ddpm_path: str, baseline_path: str, runs: int) -> list[tuple[float, ...]]:
    """``(ddpm/baseline, full/half, full_ms, half_ms, baseline_ms)`` per run."""
    sys.path.insert(0, os.path.abspath(src_dir))
    from prosody_ddpm.checkpoint import load_checkpoint
    from prosody_ddpm.data import assign_splits, desk_bench_spec, generate_corpus
    from prosody_ddpm.diffusion import linear_schedule
    from prosody_ddpm.evaluation import measure_rtf
    from prosody_ddpm.numerics import Rng
    from prosody_ddpm.predictors import baseline_predictor, ddpm_predictor
    from prosody_ddpm.training import model_from_checkpoint, schedule_from_config

    ck_d, ck_b = load_checkpoint(ddpm_path), load_checkpoint(baseline_path)
    model_d = model_from_checkpoint(ck_d)
    full = schedule_from_config(ck_d.config)
    s = ck_d.config.schedule
    half = linear_schedule(full.steps // 2, s.beta_start, s.beta_end)
    predictors = [
        ddpm_predictor(model_d, full, ck_d.stats),
        ddpm_predictor(model_d, half, ck_d.stats),
        baseline_predictor(model_from_checkpoint(ck_b), ck_b.stats),
    ]
    subset = assign_splits(
        generate_corpus(desk_bench_spec(20), 120, (8, 12), Rng(3)), seed=1, holdout_fraction=0.06
    )
    rows = []
    for _ in range(runs):
        full_s, half_s, base_s = (
            r.seconds_per_utterance for r in measure_rtf(predictors, subset, frame_rate=80.0)
        )
        rows.append((full_s / base_s, full_s / half_s, 1e3 * full_s, 1e3 * half_s, 1e3 * base_s))
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_dir")
    parser.add_argument("ddpm")
    parser.add_argument("baseline")
    parser.add_argument("--runs", type=int, default=6)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    rows = ratios(args.src_dir, args.ddpm, args.baseline, args.runs)
    for i, (db, fh, full_ms, half_ms, base_ms) in enumerate(rows, 1):
        print(
            f"run {i}: ddpm/baseline {db:.1f}x  full/half {fh:.3f}"
            f"  ms/utt full {full_ms:.1f} half {half_ms:.1f} baseline {base_ms:.3f}"
        )
    db, fh = [r[0] for r in rows], [r[1] for r in rows]
    print(
        f"median ddpm/baseline {statistics.median(db):.1f}x (min {min(db):.1f}x)"
        f"  median full/half {statistics.median(fh):.3f}"
    )
    return 0


if __name__ == "__main__":
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.exit(main())

"""Fingerprint every file the command-line flow writes, for byte-identity checks.

    python3 tools/identity.py <src-dir> <work-dir>

Imports ``prosody_ddpm`` from ``<src-dir>``, then, inside ``<work-dir>``,
generates a small synthetic corpus, trains a ddpm and a baseline at a
small config, draws three samples and evaluates the two checkpoints,
all through ``cli.main``.  It prints the SHA-256 of every written file as one
JSON object keyed by the file's path under ``<work-dir>``.  Run it on two
source trees and compare the output: a change meant to keep behaviour
must print the same JSON.  BLAS is pinned to one thread before numpy
loads, because threaded reductions may round differently from run to run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
import sys

SIZE = (
    "--schedule.steps=20 --denoiser.channels=8 --denoiser.layers=2"
    " --denoiser.dilation_cycle=1,2 --denoiser.cond_dim=8 --denoiser.step_hidden=16"
    " --condition.embed_dim=8 --condition.hidden=16 --baseline.width=12"
    " --data.vocab_size=6 --data.holdout_fraction=0.2 --optimizer.batch_size=4"
    " --train.steps=30 --train.log_every=5 --train.checkpoint_every=10"
    # Non-default values for every remaining model and optimizer key, so a
    # key that stops reaching the model changes the digests.
    " --baseline.dropout=0.25 --optimizer.lr=2e-3"
)
# Paths are relative to the work directory: the corpus path is part of the
# stored config, so an absolute one would change every digest.
COMMANDS = [
    "gen-data --out corpus.tsv --seed 3 --utterances 60 --min-len 3 --max-len 8 --vocab 6",
    f"train --model ddpm --corpus corpus.tsv --out ddpm {SIZE}",
    f"train --model baseline --corpus corpus.tsv --out baseline {SIZE}",
    "sample --checkpoint ddpm/checkpoint.bin --tokens '0 1 2 3 4 5' -n 3 --seed 1 --out sample.tsv",
    "eval --ddpm ddpm/checkpoint.bin --baseline baseline/checkpoint.bin --corpus corpus.tsv"
    " --out eval",
]
FILES = [
    "corpus.tsv",
    "corpus.tsv.spec.json",
    "ddpm/checkpoint.bin",
    "ddpm/loss_log.tsv",
    "baseline/checkpoint.bin",
    "baseline/loss_log.tsv",
    "sample.tsv",
    "eval/report.txt",
    "eval/hist_pitch.tsv",
    "eval/hist_energy.tsv",
    "eval/hist_log_duration.tsv",
]


def run(src_dir: str, work_dir: str) -> dict[str, str]:
    """Run ``COMMANDS`` in ``work_dir`` and return the SHA-256 of each of ``FILES``."""
    sys.path.insert(0, os.path.abspath(src_dir))
    from prosody_ddpm import cli

    os.makedirs(work_dir, exist_ok=True)
    os.chdir(work_dir)
    for command in COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(shlex.split(command))
        if rc != 0:
            raise SystemExit(f"prosody-ddpm {command!r} exited {rc}")
    digests = {}
    for name in FILES:
        with open(name, "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: python3 tools/identity.py <src-dir> <work-dir>")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    print(json.dumps(run(sys.argv[1], sys.argv[2]), indent=1, sort_keys=True))

"""``tools/rtf_ratio.py`` times criterion 8's three predictors on two checkpoints."""

import re
import subprocess
import sys
from pathlib import Path

from prosody_ddpm.checkpoint import save_checkpoint
from prosody_ddpm.config import default_config
from prosody_ddpm.data import desk_bench_spec, generate_corpus
from prosody_ddpm.numerics import Rng
from prosody_ddpm.training import train_model

ROOT = Path(__file__).resolve().parent.parent

TINY = [
    ("schedule.steps", "6"),
    ("denoiser.channels", "4"),
    ("denoiser.layers", "1"),
    ("denoiser.dilation_cycle", "1"),
    ("denoiser.cond_dim", "4"),
    ("denoiser.step_hidden", "4"),
    ("condition.embed_dim", "4"),
    ("condition.hidden", "4"),
    ("baseline.width", "4"),
    ("optimizer.batch_size", "2"),
    ("train.steps", "2"),
    ("train.checkpoint_every", "0"),
]


def test_rtf_ratio_tool_prints_every_run_and_the_medians(tmp_path):
    # The criterion's corpus uses the desk bench's 20-token vocabulary.
    corpus = generate_corpus(desk_bench_spec(20), 40, (3, 6), Rng(0))
    paths = []
    for kind in ("ddpm", "baseline"):
        ck, _ = train_model(default_config(TINY), corpus, kind)
        paths.append(str(tmp_path / f"{kind}.bin"))
        save_checkpoint(ck, paths[-1])
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "rtf_ratio.py"), str(ROOT / "src"), *paths,
         "--runs", "2"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    number = r"[0-9.]+"
    for i, line in enumerate(lines[:2], 1):
        assert re.fullmatch(
            rf"run {i}: ddpm/baseline {number}x  full/half {number}"
            rf"  ms/utt full {number} half {number} baseline {number}",
            line,
        ), line
    assert re.fullmatch(
        rf"median ddpm/baseline {number}x \(min {number}x\)  median full/half {number}", lines[2]
    ), lines[2]
    assert len(lines) == 3

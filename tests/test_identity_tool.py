"""``tools/identity.py`` runs the whole command-line flow and fingerprints its outputs."""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_identity_tool_fingerprints_every_output(tmp_path):
    tool = ROOT / "tools" / "identity.py"
    proc = subprocess.run(
        [sys.executable, str(tool), str(ROOT / "src"), str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    digests = json.loads(proc.stdout)
    assert sorted(digests) == [
        "baseline/checkpoint.bin",
        "baseline/loss_log.tsv",
        "corpus.tsv",
        "corpus.tsv.spec.json",
        "ddpm/checkpoint.bin",
        "ddpm/loss_log.tsv",
        "eval/hist_energy.tsv",
        "eval/hist_log_duration.tsv",
        "eval/hist_pitch.tsv",
        "eval/report.txt",
        "sample.tsv",
    ]
    assert all(re.fullmatch("[0-9a-f]{64}", v) for v in digests.values())

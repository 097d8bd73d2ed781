"""Self-tests of the benchmark: ``python3 -m pytest benchmark``.

They run the real entry point briefly on each workload, compare the
emitted metric names with BENCHMARK.json, and check that a traced run
leaves the package as it found it and repeats its counts exactly.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    DECLARED = json.load(_fh)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Enough fixture training to finish without errors, nothing more.
TINY = dataclasses.replace(
    workloads.Sizing(),
    corpus_utterances=60,
    fixture_ddpm_steps=3,
    fixture_baseline_steps=3,
)


def _declared(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in DECLARED[section]}


def test_declaration_is_well_formed():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for s in ("workloads", "end_to_end", "per_layer") for m in DECLARED[s]]
    assert all(NAME.match(n) for n in names)
    assert len(set(names)) == len(names)
    for m in DECLARED["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in DECLARED["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in DECLARED["end_to_end"])
    for m in DECLARED["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])


def test_emitted_names_match_declaration():
    assert _declared("end_to_end") == workloads.END_TO_END
    assert _declared("per_layer") == workloads.PER_LAYER


def _run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *DECLARED["command"][1:]]
    args = ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd + args, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_of_each_workload(workload):
    proc = _run(workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("end_to_end")
    for name, m in result["metrics"].items():
        assert math.isfinite(m["value"]) and m["value"] > 0, name


def test_refuses_to_run_without_the_package_source(tmp_path):
    bench = tmp_path / "benchmark"
    bench.mkdir()
    for name in ("run.py", "workloads.py", "tracing.py"):
        (bench / name).write_text(open(os.path.join(HERE, name), encoding="utf-8").read())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(DECLARED))
    proc = _run("train", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _targets() -> dict[str, object]:
    """Every object the tracer may replace, read from where callers find it."""
    import prosody_ddpm.cli as cli
    import prosody_ddpm.predictors as predictors

    found = {}
    for mod_name, dotted, span, _ in tracing.TARGETS:
        obj = sys.modules[f"prosody_ddpm.{mod_name}"]
        for part in dotted.split("."):
            obj = getattr(obj, part)
        found[span] = obj
    found["cli.predictor_from_checkpoint"] = cli.predictor_from_checkpoint
    found["cli.save_checkpoint"] = cli.save_checkpoint
    found["predictors.predictor_from_checkpoint"] = predictors.predictor_from_checkpoint
    return found


def test_traced_run_restores_originals_and_repeats_counts(tmp_path):
    import prosody_ddpm.numerics as nm

    conv = nm.conv1d_dilated
    before = _targets()
    runs = []
    for i in range(2):
        workdir = tmp_path / str(i)
        workdir.mkdir()
        metrics, tally, _ = workloads.trace("train", 5, str(workdir), str(tmp_path / "fx"), TINY)
        assert tally.failed == 0, tally.reasons
        assert set(metrics) == set(workloads.PER_LAYER)
        runs.append(metrics)
    assert nm.conv1d_dilated is conv
    after = _targets()
    assert all(after[k] is before[k] for k in before), [k for k in before if after[k] is not before[k]]

    counts = [
        n
        for n, unit in workloads.PER_LAYER.items()
        if unit in ("count/step", "flop/step", "rows", "chains", "share", "bytes")
    ]
    assert [runs[0][n] for n in counts] == [runs[1][n] for n in counts]
    assert runs[0]["numerics.conv1d_dilated.calls"] > 0
    assert runs[0]["numerics.tape_records"] > 0
    assert 0 < runs[0]["training.pad_share"] < 1


def test_tracer_skips_missing_targets_and_restores_on_error(monkeypatch):
    import prosody_ddpm.numerics as nm

    monkeypatch.delattr(nm, "layer_norm")
    original = nm.matmul
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(), tracer.recording():
            x = nm.Tensor([[1.0, 2.0]])
            nm.matmul(x, nm.Tensor([[1.0], [1.0]]))
            raise RuntimeError("boom")
    assert nm.matmul is original
    assert not hasattr(nm, "layer_norm")
    totals = tracing.aggregate(tracer.take())
    assert totals["numerics.matmul"].calls == 1
    assert totals["numerics.matmul"].counters["flops"] == 4.0

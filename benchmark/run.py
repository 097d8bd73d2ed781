"""Benchmark entry point.

    python3 benchmark/run.py --workload {train,sample,eval} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
``src`` directory.  Human-readable lines (environment, every metric with
its unit, failures) come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones of a traced run.  See benchmark/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import sys
import tempfile

# One fixed BLAS thread count, at most the CPU count of any machine;
# unpinned OpenBLAS threads made some training runs several times slower.
BLAS_THREADS = 1
BLAS_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
FIXTURES = os.path.join(WORK, "fixtures")


def pin_blas_threads() -> bool:
    """Pin BLAS threads; returns False if numpy was already imported."""
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    return "numpy" not in sys.modules


def _git_sha(root: str) -> str | None:
    """HEAD commit read from the .git directory, if the checkout has one."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def environment(pinned_before_numpy: bool) -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get("blas", {}).get(k) for k in ("name", "version")}
    except (TypeError, AttributeError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "blas_pinned_before_numpy": pinned_before_numpy,
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(ROOT),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("train", "sample", "eval"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "prosody_ddpm", "__init__.py")):
        print(f"error: no package source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    pinned = pin_blas_threads()
    sys.path.insert(0, SRC)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    import workloads

    env = environment(pinned)
    print("env " + json.dumps(env, sort_keys=True))
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        if args.trace:
            metrics, tally, info = workloads.trace(args.workload, args.seed, workdir, FIXTURES)
            units = workloads.PER_LAYER
        else:
            metrics, tally, info = workloads.measure(
                args.workload, args.seed, args.seconds, workdir, FIXTURES
            )
            units = workloads.END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("info " + json.dumps(info, sort_keys=True))
    for name, value in metrics.items():
        print(f"metric {name} {float(value)!r} {units[name]}")
    share = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"checks attempted {tally.attempted} failed {tally.failed} failed_share {share!r}")
    for reason in tally.reasons:
        print(f"failure {reason}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        # A metric a failed phase could not measure is null, never a made-up number.
        "metrics": {
            name: {"value": float(v) if math.isfinite(v) else None, "unit": units[name]}
            for name, v in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

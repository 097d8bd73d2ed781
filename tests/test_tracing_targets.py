"""The benchmark tracer's targets still name callables in the package.

``benchmark/tracing.py`` skips a target it cannot resolve, so a renamed
or deleted function would silently zero its per-layer metric.  This test
reads the tracer's tables (without installing it) and resolves each one.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "benchmark" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def _resolve(module_name: str, dotted: str):
    owner = importlib.import_module(f"{tracing.PACKAGE}.{module_name}")
    for part in dotted.split("."):
        owner = getattr(owner, part, None)
    return owner


@pytest.mark.parametrize("target", tracing.TARGETS, ids=lambda t: t[2])
def test_target_resolves(target):
    module_name, dotted, _, _ = target
    assert callable(_resolve(module_name, dotted)), f"{module_name}.{dotted} is gone"


def test_predictor_factory_resolves():
    assert callable(_resolve(*tracing.PREDICTOR_FACTORY))

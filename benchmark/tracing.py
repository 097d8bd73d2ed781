"""Spans around the package's layer boundaries, installed from outside.

The tracer replaces a fixed list of functions and methods with wrappers
that record one span per call: name, start, end and parent.  Module-level
functions are replaced in every ``prosody_ddpm`` module that holds a
reference to them, so names imported with ``from x import f`` are traced
too.  A target that no longer exists records nothing; :meth:`Tracer.restore`
puts every original object back.

Spans stay in memory; :func:`aggregate` turns them into per-name call
counts, self times (duration minus the time covered by direct child
spans) and the counters some wrappers attach.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

PRIMITIVES = (
    "add",
    "sub",
    "mul",
    "tanh",
    "sigmoid",
    "relu",
    "matmul",
    "conv1d_dilated",
    "layer_norm",
    "dropout",
    "embed_lookup",
    "sum",
    "mean",
)

PACKAGE = "prosody_ddpm"
_MISSING = object()


def _shape(value):
    shape = getattr(value, "shape", None)
    return tuple(shape) if shape is not None else None


def _matmul_counters(args, kwargs, result):
    x, w = _shape(args[0]), _shape(args[1])
    if x is None or w is None or len(w) != 2:
        return {}
    return {"flops": 2.0 * float(np.prod(x[:-1])) * w[0] * w[1]}


def _conv_counters(args, kwargs, result):
    x, w = _shape(args[0]), _shape(args[1])
    if x is None or w is None or len(w) != 3:
        return {}
    return {"flops": 2.0 * float(np.prod(x[:-1])) * w[0] * w[1] * w[2]}


def _backward_counters(args, kwargs, result):
    records = getattr(args[0], "records", None)
    return {} if records is None else {"tape_records": float(len(records))}


def _batch_counters(args, kwargs, result):
    # _assemble_batch returns (ids, x0, mask) with mask 1 at real tokens.
    try:
        mask = np.asarray(result[2])
    except (TypeError, IndexError):
        return {}
    tokens = float(mask.sum())
    return {"tokens": tokens, "positions": float(mask.size)}


def _denoiser_counters(args, kwargs, result):
    # Denoiser.forward(self, x_t, ...): x_t is (..., length, features).
    x = _shape(args[1]) if len(args) > 1 else None
    if x is None or len(x) < 2:
        return {}
    return {"rows": float(np.prod(x[:-2]))}


def _draw_counters(args, kwargs, result):
    return {"chains": float(len(result)) if isinstance(result, list) else 1.0}


def _save_counters(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs.get("path")
    try:
        return {"bytes": float(os.path.getsize(path))}
    except (TypeError, OSError):
        return {}


# (module, dotted attribute, span name, counter function or None)
TARGETS = (
    *[
        (
            "numerics",
            op,
            f"numerics.{op}",
            {"matmul": _matmul_counters, "conv1d_dilated": _conv_counters}.get(op),
        )
        for op in PRIMITIVES
    ],
    ("numerics", "backward", "numerics.backward", _backward_counters),
    ("optim", "Adam.step", "optim.adam", None),
    ("training", "_assemble_batch", "training.batch", _batch_counters),
    ("denoiser", "Denoiser.forward", "denoiser.forward", _denoiser_counters),
    ("denoiser", "ConditionEncoder.forward", "denoiser.cond_encoder", None),
    ("diffusion", "reverse_step", "diffusion.reverse_step", None),
    ("diffusion", "training_loss_graph", "diffusion.loss_graph", None),
    ("baseline", "BaselineNet.head_forward", "baseline.forward", None),
    ("evaluation", "build_report", "evaluation.score", None),
    ("data", "generate_corpus", "data.generate_corpus", None),
    ("checkpoint", "save_checkpoint", "checkpoint.save", _save_counters),
    ("checkpoint", "load_checkpoint", "checkpoint.load", None),
)

# Predictor objects carry their draw functions as fields; the predictors
# built by this factory get those fields wrapped.
PREDICTOR_FACTORY = ("predictors", "predictor_from_checkpoint")
DRAW_FIELDS = ("fn", "fn_many")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span
    counters: dict = field(default_factory=dict)


class Tracer:
    """Installs span wrappers; records only inside :meth:`recording`."""

    def __init__(self):
        self.spans: list[Span] = []
        self._recording = False
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    @staticmethod
    def _modules():
        return [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def _replace_everywhere(self, original, replacement) -> None:
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer is already installed")
        modules = {m.__name__.rsplit(".", 1)[-1]: m for m in self._modules()}
        for mod_name, dotted, span_name, counters in TARGETS:
            owner = modules.get(mod_name)
            *path, attr = dotted.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                continue
            wrapper = self._wrap(original, span_name, counters)
            if isinstance(owner, type):
                self._undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
                setattr(owner, attr, wrapper)
            else:
                self._replace_everywhere(original, wrapper)
        factory = getattr(modules.get(PREDICTOR_FACTORY[0]), PREDICTOR_FACTORY[1], None)
        if callable(factory):
            self._replace_everywhere(factory, self._wrap_factory(factory))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # -- recording ----------------------------------------------------------

    @contextlib.contextmanager
    def recording(self, on: bool = True):
        """Record spans (``on``) or pass calls straight through (``not on``)."""
        previous = self._recording
        self._recording = on
        try:
            yield self
        finally:
            self._recording = previous

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, fn, name: str, counters):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._recording:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = Span(name, time.perf_counter(), 0.0, parent)
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if counters is not None:
                span.counters = counters(args, kwargs, result)
            return result

        return traced

    def _wrap_factory(self, factory):
        tracer = self

        @functools.wraps(factory)
        def build(*args, **kwargs):
            predictor = factory(*args, **kwargs)
            for attr in DRAW_FIELDS:
                draw = getattr(predictor, attr, None)
                if callable(draw):
                    setattr(predictor, attr, tracer._wrap(draw, "predictors.draw", _draw_counters))
            return predictor

        return build


@dataclass
class Totals:
    calls: int = 0
    self_s: float = 0.0
    counters: dict = field(default_factory=dict)


def aggregate(*span_lists: list[Span]) -> dict[str, Totals]:
    """Per span name: call count, summed self time and summed counters.

    Parent indices refer to positions within each list.
    """
    out: dict[str, Totals] = {}
    for spans in span_lists:
        child_s = [0.0] * len(spans)
        for span in spans:
            if span.parent >= 0:
                child_s[span.parent] += span.end - span.start
        for span, covered in zip(spans, child_s):
            tot = out.setdefault(span.name, Totals())
            tot.calls += 1
            tot.self_s += (span.end - span.start) - covered
            for key, value in span.counters.items():
                tot.counters[key] = tot.counters.get(key, 0.0) + value
    return out

"""Dense float64 arrays with tape-based reverse-mode differentiation.

Everything the networks in this package need runs through the small
primitive set defined here: elementwise arithmetic, matmul with an
optional bias, concatenation, a non-causal dilated 1-d convolution
whose bias may vary by position, the usual activations and the WaveNet
gate, layer normalization, dropout, embedding lookup, full reductions,
and the mean-squared error built from them.  Each primitive computes
its forward value with numpy and, when a :class:`Tape` is active on the
current thread, records enough state to play the step backwards.

Conventions:

* all values are float64 and C-contiguous; tensors are immutable once
  created (the underlying buffer is marked read-only),
* sequences are ``(length, channels)`` arrays and batches add a leading
  axis, ``(batch, length, channels)``; every row of a batch has the
  same length, so nothing is padded and no primitive takes a mask,
* any NaN or Inf produced by a forward or backward step is a hard error.

Every primitive output is proven finite or scanned.  With no tape
recording, an output whose bound (:attr:`Tensor.bound`, derived from its
inputs' bounds) is below ``1e300`` is finite; every other output, and
every output and gradient while a tape records, gets one exact NaN/Inf
scan.  Either way the error names its primitive.
"""

from __future__ import annotations

import builtins
import math
import operator
import threading
from typing import Callable, Iterable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Raised when operands do not conform for a primitive."""

    def __init__(self, op: str, detail: str):
        super().__init__(f"{op}: {detail}")
        self.op = op


class NonFiniteError(ArithmeticError):
    """Raised when a primitive produces NaN or Inf, naming the primitive."""

    def __init__(self, op: str, where: str = "forward"):
        super().__init__(f"{op}: non-finite values in {where} pass")
        self.op = op
        self.where = where


def _checked(op: str, arr: np.ndarray, where: str = "forward") -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteError(op, where)


# A derived bound below this proves an output finite: a factor of 1e8
# below the float64 maximum covers the rounding of bound and primitive.
_PROVEN = 1e300


class Tensor:
    """Immutable float64 array participating in tape-recorded computation.

    A writeable C-contiguous float64 array that owns its buffer is adopted
    without a copy and marked read-only; anything else is copied.  Pass a
    copy of an array you still mean to write to.

    ``bound`` bounds ``max|data|`` (None until known): a checked leaf takes
    it from its one scan, an unchecked one computes it on first use.
    """

    __slots__ = ("data", "bound")

    def __init__(self, data, *, _checked_op: str | None = "tensor"):
        # order="C" preserves 0-d shapes, unlike ascontiguousarray.
        arr = np.asarray(data, dtype=np.float64, order="C")
        if not arr.flags.writeable or arr.base is not None:
            arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "bound", None)
        if _checked_op is not None and not _bound(self) < math.inf:
            raise NonFiniteError(_checked_op)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Tensor is immutable")

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"


def zeros(shape: Sequence[int] | int) -> Tensor:
    return Tensor(np.zeros(shape, dtype=np.float64), _checked_op=None)


# --------------------------------------------------------------------------
# Tape machinery
# --------------------------------------------------------------------------

# A record is (op_name, output_tensor, backward_fn); backward_fn maps the
# gradient at the output to (input_tensor, gradient_contribution) pairs.
_BackwardFn = Callable[[np.ndarray], Iterable[tuple["Tensor", np.ndarray]]]

_tls = threading.local()


def _active_tape() -> "Tape | None":
    return getattr(_tls, "tape", None)


class Tape:
    """Ordered record of primitives for one reverse pass.

    A tape is confined to a single thread and a single forward build;
    entering the context activates recording, leaving deactivates it.
    Records are appended in execution order, so iterating them in reverse
    visits the graph in reverse topological order.
    """

    def __init__(self):
        self.records: list[tuple[str, Tensor, _BackwardFn]] = []

    def __enter__(self) -> "Tape":
        if _active_tape() is not None:
            raise RuntimeError("a Tape is already active on this thread")
        _tls.tape = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _tls.tape = None


def _bound(t: Tensor) -> float:
    """``t.bound``, set to ``max|t.data|`` if not yet known (NaN for NaN data)."""
    bound = t.bound
    if bound is None:
        bound = float(np.abs(t.data).max(initial=0.0))
        object.__setattr__(t, "bound", bound)
    return bound


def _unit(t: Tensor) -> float:
    """Bound of a squashed ``t``: 1, or NaN if ``t`` may hold NaN/Inf."""
    return 1.0 if _bound(t) < math.inf else math.nan


def _emit(
    op: str, out_data: np.ndarray, backward_fn: _BackwardFn, bound: Callable[[], float]
) -> Tensor:
    # ``out_data`` is an array the primitive has just computed: float64,
    # C-contiguous and owning its buffer, so the asarray/copy checks in
    # Tensor.__init__ would only add cost to every call.  A ufunc on 0-d
    # operands returns a numpy scalar, which has no flags to set.
    # ``bound`` derives the output's bound from its inputs' and is called
    # only with no tape recording; a NaN bound proves nothing.
    if not isinstance(out_data, np.ndarray):
        out_data = np.asarray(out_data, dtype=np.float64)
    tape = getattr(_tls, "tape", None)
    out_bound = bound() if tape is None else math.nan
    if not out_bound < _PROVEN:
        _checked(op, out_data)
        out_bound = None
    out_data.flags.writeable = False
    out = object.__new__(Tensor)
    object.__setattr__(out, "data", out_data)
    object.__setattr__(out, "bound", out_bound)
    if tape is not None:
        tape.records.append((op, out, backward_fn))
    return out


class Gradients:
    """Gradients of the leaves of one reverse sweep, keyed by tensor identity.

    Leaves are the tensors no record on the tape produced: parameters and
    inputs.  Intermediate tensors are not kept, and like tensors that did
    not contribute to the loss they get zero gradients of the matching
    shape.
    """

    def __init__(self, accum: dict[int, tuple[Tensor, np.ndarray]]):
        self._accum = accum

    def wrt(self, t: Tensor) -> np.ndarray:
        """Gradient of leaf ``t``.  Ask only for leaves: an intermediate
        tensor reads zero, the same as a tensor the loss did not reach."""
        entry = self._accum.get(id(t))
        if entry is None:
            return np.zeros_like(t.data)
        return entry[1]


def backward(tape: Tape, loss: Tensor) -> Gradients:
    """Reverse sweep over ``tape`` from scalar ``loss``.

    Returns the gradients of the leaves reachable from the loss; a NaN/Inf
    gradient aborts with the primitive that produced it.  Every consumer of
    a tensor was recorded after its producer, so when the producer's record
    is played back the tensor's gradient is complete and is dropped once
    passed on: the sweep holds only the gradients still being summed.  The
    tape is left as it was.
    """
    if loss.data.shape != ():
        raise ShapeError("backward", f"loss must be scalar, got shape {loss.data.shape}")
    accum: dict[int, tuple[Tensor, np.ndarray]] = {
        id(loss): (loss, np.ones((), dtype=np.float64))
    }
    for op, out, backward_fn in reversed(tape.records):
        entry = accum.pop(id(out), None)
        if entry is None:
            continue
        dout = entry[1]
        for inp, grad in backward_fn(dout):
            _checked(op, grad, "backward")
            prev = accum.get(id(inp))
            if prev is None:
                accum[id(inp)] = (inp, grad)
            else:
                accum[id(inp)] = (inp, prev[1] + grad)
    return Gradients(accum)


# --------------------------------------------------------------------------
# Elementwise primitives
# --------------------------------------------------------------------------


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _binary(op: str, a: Tensor, b: Tensor | float, fn, da, db, bound) -> Tensor:
    """Broadcasting ``fn(a, b)``, ``b`` a tensor or a constant; ``da``/``db``
    map ``(dout, a, b)`` arrays to each operand's gradient before unbroadcasting,
    and ``bound`` maps the operands' bounds to the output's."""
    if not isinstance(b, Tensor):
        k = float(b)
        return _emit(op, fn(a.data, k), lambda dout: [(a, da(dout, a.data, k))],
                     lambda: bound(_bound(a), abs(k)))
    try:
        out = fn(a.data, b.data)
    except ValueError:
        raise ShapeError(op, f"shapes {a.shape} and {b.shape} do not broadcast") from None

    def back(dout):
        return [
            (a, _unbroadcast(da(dout, a.data, b.data), a.shape)),
            (b, _unbroadcast(db(dout, a.data, b.data), b.shape)),
        ]

    return _emit(op, out, back, lambda: bound(_bound(a), _bound(b)))


def add(a: Tensor, b: Tensor | float) -> Tensor:
    """Elementwise ``a + b`` with numpy broadcasting; ``b`` may be a constant."""
    return _binary("add", a, b, np.add, lambda d, x, y: d, lambda d, x, y: d, operator.add)


def sub(a: Tensor, b: Tensor | float) -> Tensor:
    """Elementwise ``a - b``; ``b`` may be a constant."""
    return _binary("sub", a, b, np.subtract, lambda d, x, y: d, lambda d, x, y: -d, operator.add)


def mul(a: Tensor, b: Tensor | float) -> Tensor:
    """Elementwise ``a * b``; ``b`` may be a constant."""
    return _binary("mul", a, b, np.multiply, lambda d, x, y: d * y, lambda d, x, y: d * x,
                   operator.mul)


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)

    def back(dout):
        return [(x, dout * (1.0 - y * y))]

    return _emit("tanh", y, back, lambda: _unit(x))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # tanh form is overflow-free for any float64 input.
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def sigmoid(x: Tensor) -> Tensor:
    y = _sigmoid(x.data)

    def back(dout):
        return [(x, dout * y * (1.0 - y))]

    return _emit("sigmoid", y, back, lambda: _unit(x))


def relu(x: Tensor) -> Tensor:
    y = np.maximum(x.data, 0.0)

    def back(dout):
        return [(x, dout * (x.data > 0.0))]

    return _emit("relu", y, back, lambda: _bound(x))


def silu(x: Tensor) -> Tensor:
    """Sigmoid-weighted linear unit, ``x * sigmoid(x)``."""
    s = _sigmoid(x.data)

    def back(dout):
        return [(x, dout * s + dout * x.data * s * (1.0 - s))]

    return _emit("silu", x.data * s, back, lambda: _bound(x))


# --------------------------------------------------------------------------
# Linear algebra
# --------------------------------------------------------------------------


def matmul(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """``x @ w (+ b)`` for ``x`` of shape ``(..., n)``, 2-d ``w`` of shape
    ``(n, m)`` and an optional bias ``b`` of shape ``(m,)``."""
    if w.data.ndim != 2:
        raise ShapeError("matmul", f"weight must be 2-d, got shape {w.shape}")
    if x.data.ndim < 1 or x.shape[-1] != w.shape[0]:
        raise ShapeError("matmul", f"inner dims differ: {x.shape} @ {w.shape}")
    n, m = w.shape
    if b is not None and b.shape != (m,):
        raise ShapeError("matmul", f"bias {b.shape} does not match out dim {m}")
    out = x.data @ w.data
    if b is not None:
        out += b.data

    def back(dout):
        dflat = dout.reshape(-1, m)
        grads = [(x, dout @ w.data.T), (w, x.data.reshape(-1, n).T @ dflat)]
        if b is not None:
            grads.append((b, dflat.sum(axis=0)))
        return grads

    return _emit("matmul", out, back,
                 lambda: n * _bound(x) * _bound(w) + (0.0 if b is None else _bound(b)))


def concat(xs: Sequence[Tensor]) -> Tensor:
    """Join tensors along the last axis; all other axes must agree."""
    if not xs or any(x.data.ndim < 1 or x.shape[:-1] != xs[0].shape[:-1] for x in xs):
        raise ShapeError("concat", f"shapes {[x.shape for x in xs]} differ before the last axis")
    out = np.concatenate([x.data for x in xs], axis=-1)

    def back(dout):
        ends = np.cumsum([x.shape[-1] for x in xs])
        # Copies, not strided views: BLAS may round a reduction over a
        # strided operand differently, so the gradients of each input
        # match those it would get had it not been joined.
        return [(x, dout[..., end - x.shape[-1] : end].copy()) for x, end in zip(xs, ends)]

    # Python's max() can drop a NaN; a sum keeps it.
    return _emit("concat", out, back, lambda: builtins.sum(_bound(x) for x in xs))


def gated_tanh(z: Tensor) -> Tensor:
    """WaveNet gate ``tanh(z[..., :C]) * sigmoid(z[..., C:])`` for ``2C`` channels."""
    if z.data.ndim < 1 or z.shape[-1] % 2:
        raise ShapeError("gated_tanh", f"last axis must hold 2C channels, got {z.shape}")
    c = z.shape[-1] // 2
    a = np.tanh(z.data[..., :c])
    s = _sigmoid(z.data[..., c:])

    def back(dout):
        dz = np.empty_like(z.data)
        dz[..., :c] = dout * s * (1.0 - a * a)
        dz[..., c:] = dout * a * s * (1.0 - s)
        return [(z, dz)]

    return _emit("gated_tanh", a * s, back, lambda: _unit(z))


def conv1d_dilated(x: Tensor, w: Tensor, b: Tensor | None = None, dilation: int = 1) -> Tensor:
    """Non-causal dilated 1-d convolution preserving sequence length.

    ``x`` has shape ``(..., length, in_channels)``, ``w`` has shape
    ``(kernel, in_channels, out_channels)`` with odd kernel, and the input
    is zero-padded symmetrically by ``dilation * (kernel // 2)`` on both
    sides so the output length equals the input length.  The padding is
    implicit: each off-centre tap adds into the shifted slice of the
    output it reaches, and a tap whose offset is at least the length only
    ever sees padding and is skipped.  The bias ends in ``out_channels``
    and broadcasts to the output, e.g. ``(out_channels,)`` or a
    per-position ``(..., length, out_channels)``.
    """
    if dilation < 1:
        raise ShapeError("conv1d_dilated", f"dilation must be >= 1, got {dilation}")
    if w.data.ndim != 3:
        raise ShapeError("conv1d_dilated", f"weight must be (kernel, in, out), got {w.shape}")
    kernel, c_in, c_out = w.shape
    if kernel % 2 != 1:
        raise ShapeError("conv1d_dilated", f"kernel must be odd for symmetric padding, got {kernel}")
    if x.data.ndim < 2 or x.shape[-1] != c_in:
        raise ShapeError("conv1d_dilated", f"input {x.shape} does not match weight {w.shape}")
    if b is not None and b.shape[-1:] != (c_out,):
        raise ShapeError("conv1d_dilated", f"bias {b.shape} does not match out channels {c_out}")

    length = x.shape[-2]
    centre = kernel // 2
    xd, wd = x.data, w.data
    # (tap, input slice, output slice) for every off-centre tap that reaches
    # a real position: output position p reads input position p + offset.
    taps = []
    for k in range(kernel):
        off = (k - centre) * dilation
        if k != centre and abs(off) < length:
            if off > 0:
                taps.append((k, slice(off, None), slice(None, length - off)))
            else:
                taps.append((k, slice(None, length + off), slice(-off, None)))
    out = xd @ wd[centre]
    if b is not None:
        try:
            out += b.data
        except ValueError:
            raise ShapeError("conv1d_dilated", f"bias {b.shape} does not fit {out.shape}") from None
    for k, src, dst in taps:
        out[..., dst, :] += xd[..., src, :] @ wd[k]

    def back(dout):
        dx = dout @ wd[centre].T
        dw = np.zeros_like(wd)
        dw[centre] = xd.reshape(-1, c_in).T @ dout.reshape(-1, c_out)
        for k, src, dst in taps:
            xs, ds = xd[..., src, :], dout[..., dst, :]
            dw[k] = xs.reshape(-1, c_in).T @ ds.reshape(-1, c_out)
            dx[..., src, :] += ds @ wd[k].T
        grads = [(x, dx), (w, dw)]
        if b is not None:
            # Sum the leading axes the bias lacks as one, in matmul's order.
            lead = dout.ndim - b.data.ndim
            db = dout.reshape((-1,) + dout.shape[lead:]).sum(axis=0) if lead else dout
            grads.append((b, _unbroadcast(db, b.shape)))
        return grads

    return _emit("conv1d_dilated", out, back,
                 lambda: kernel * c_in * _bound(x) * _bound(w) + (0.0 if b is None else _bound(b)))


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale and shift."""
    c = x.shape[-1]
    if gain.shape != (c,) or bias.shape != (c,):
        raise ShapeError("layer_norm", f"gain/bias must be ({c},), got {gain.shape}/{bias.shape}")
    mu = np.add.reduce(x.data, axis=-1, keepdims=True) / c
    xc = x.data - mu
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / c
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gain.data + bias.data

    def back(dout):
        dxhat = dout * gain.data
        dx = inv * (
            dxhat
            - np.add.reduce(dxhat, axis=-1, keepdims=True) / c
            - xhat * (np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / c)
        )
        dg = (dout * xhat).reshape(-1, c).sum(axis=0)
        db = dout.reshape(-1, c).sum(axis=0)
        return [(x, dx), (gain, dg), (bias, db)]

    def bound():  # |xhat| <= sqrt(c) while xc * xc cannot overflow
        ok = _bound(x) < 1e150 and eps > 0.0
        return math.sqrt(c) * _bound(gain) + _bound(bias) if ok else math.inf

    return _emit("layer_norm", out, back, bound)


def dropout(x: Tensor, rate: float, rng: "Rng", training: bool) -> Tensor:
    """Inverted dropout; identity (and unrecorded) when not training."""
    if not 0.0 <= rate < 1.0:
        raise ShapeError("dropout", f"rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    keep = 1.0 - rate
    mask = (rng.uniform(x.shape) < keep) / keep

    def back(dout):
        return [(x, dout * mask)]

    return _emit("dropout", x.data * mask, back, lambda: _bound(x) * (1.0 / keep))


def embed_lookup(table: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows of ``table`` (vocab, dim) at integer ``ids``."""
    idx = np.asarray(ids)
    if table.data.ndim != 2:
        raise ShapeError("embed_lookup", f"table must be 2-d, got {table.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ShapeError(
            "embed_lookup",
            f"ids outside [0, {table.shape[0]}): min {idx.min()}, max {idx.max()}",
        )
    out = table.data[idx]

    def back(dout):
        dt = np.zeros_like(table.data)
        np.add.at(dt, idx, dout)
        return [(table, dt)]

    return _emit("embed_lookup", out, back, lambda: _bound(table))


# --------------------------------------------------------------------------
# Reductions
# --------------------------------------------------------------------------


def sum(x: Tensor) -> Tensor:  # noqa: A001 - primitive named after the reduction
    out = np.asarray(x.data.sum())

    def back(dout):
        return [(x, np.broadcast_to(dout, x.shape).copy())]

    return _emit("sum", out, back, lambda: x.size * _bound(x))


def mean(x: Tensor) -> Tensor:
    n = x.size
    out = np.asarray(x.data.mean())

    def back(dout):
        return [(x, np.broadcast_to(dout / n, x.shape).copy())]

    # The mean of no elements is NaN.
    return _emit("mean", out, back, lambda: _bound(x) if n else math.nan)


def mse(pred: Tensor, target, op: str) -> Tensor:
    """Mean of ``(pred - target) ** 2`` over every element; errors name ``op``."""
    target = np.array(target, dtype=np.float64)  # a copy: Tensor adopts it
    if pred.shape != target.shape:
        raise ShapeError(op, f"prediction {pred.shape} does not match target {target.shape}")
    diff = sub(pred, Tensor(target))
    return mean(mul(diff, diff))


# --------------------------------------------------------------------------
# Random numbers
# --------------------------------------------------------------------------


class Rng:
    """Seedable PCG64 stream with a recordable state.

    PCG64 carries 128-bit state; identical seeds give identical draw
    sequences on the same build.
    """

    def __init__(self, seed: int | tuple[int, ...]):
        self.seed = seed
        self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))

    def normal(self, shape: Sequence[int] | int = ()) -> np.ndarray:
        return self._gen.standard_normal(shape)

    def uniform(self, shape: Sequence[int] | int = ()) -> np.ndarray:
        return self._gen.random(shape)

    def integers(self, low: int, high: int, shape: Sequence[int] | int = ()) -> np.ndarray:
        return self._gen.integers(low, high, size=shape)

    def categorical(self, cdf: np.ndarray) -> int:
        """Index drawn by inverse CDF from one uniform.

        ``cdf`` is ``p.cumsum()`` divided by its last entry; the draw and
        the stream it leaves are those of ``Generator.choice(len(p), p=p)``.
        """
        return int(cdf.searchsorted(self._gen.random(), side="right"))

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def state(self) -> dict:
        return self._gen.bit_generator.state

    def set_state(self, state: dict) -> None:
        self._gen.bit_generator.state = state


# --------------------------------------------------------------------------
# Parameter initialization helpers
# --------------------------------------------------------------------------


def uniform_fanin(rng: Rng | None, shape: tuple[int, ...], fan_in: int) -> Tensor:
    """Centered uniform init with bound ``1/sqrt(fan_in)``; zeros, drawing
    nothing, when ``rng`` is None."""
    if rng is None:
        return zeros(shape)
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return Tensor(rng.uniform(shape) * 2.0 * bound - bound, _checked_op=None)

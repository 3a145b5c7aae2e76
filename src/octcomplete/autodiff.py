"""Reverse-mode autodiff over node-major feature matrices.

A FeatureMap wraps a (rows, channels) matrix with a small gradient slot:
its ``.grad``, whether backward gives it one, its tape (weakly) and its
dtype. Operations executed while a Tape is active record backward
closures; ``backward(loss)`` pops and runs them in reverse order,
accumulating gradients with +=. A closure holds the slots of its output
and inputs, never the FeatureMaps, and only the arrays its backward reads:
an output that no backward reads is freed as soon as its caller drops it,
and the arrays a backward reads are freed once it has run. Afterwards the
tape is empty and only leaves (parameters) keep a ``.grad``. The graph is
define-by-run: the decoder structure differs per sample, so no static graph
is kept.

Outputs refer to their tape weakly, so a tape nobody holds is freed at once
with everything it recorded: ``backward`` must run while the tape is alive,
inside its ``with`` block or while the caller holds it.
"""

import weakref

import numpy as np

from . import kernels
from .errors import DomainError

_ACTIVE_TAPE = None


class Tape:
    """Ordered record of executed operations, replayed backwards."""

    def __init__(self):
        self.ops = []

    def __enter__(self):
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise DomainError("nested tapes are not supported")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return False


class _Slot:
    """What backward needs of a FeatureMap, without its values."""

    __slots__ = ("grad", "tracked", "tape", "dtype")

    def __init__(self, tracked, dtype):
        self.grad = None
        self.tracked = tracked
        self.tape = None  # weak reference to the tape that recorded the op
        self.dtype = dtype


class FeatureMap:
    """Node-major feature matrix at one octree level."""

    __slots__ = ("values", "level", "_slot")

    def __init__(self, values, level=None, requires_grad=False):
        self.values = np.asarray(values)
        if self.values.ndim == 1:
            self.values = self.values.reshape(-1, 1)
        self.level = level
        self._slot = _Slot(requires_grad, self.values.dtype)

    @property
    def grad(self):
        return self._slot.grad

    @grad.setter
    def grad(self, g):
        self._slot.grad = g

    @property
    def rows(self):
        return self.values.shape[0]

    @property
    def channels(self):
        return self.values.shape[1]

    def __repr__(self):
        return f"FeatureMap({self.values.shape}, level={self.level})"


def tracked(fm):
    """Whether backward gives `fm` a gradient: a parameter, or the taped
    output of an op with a tracked input."""
    return fm._slot.tracked


def _accum(slot, g):
    if not slot.tracked:
        return
    if slot.grad is None:
        # no copy when the dtype matches: custom_op's contract makes g ours
        slot.grad = np.asarray(g, dtype=slot.dtype)
    else:
        slot.grad += g


def custom_op(values, inputs, backward_fn, level=None):
    """Create a taped output; backward_fn(g) returns per-input gradients.

    Each returned gradient must be an array that no other input receives
    and that nothing else keeps: an input's first gradient becomes its
    ``.grad`` without a copy, and later ones are added into it in place.
    backward_fn should hold the arrays it reads, not FeatureMaps: the tape
    holds only the ops' slots, so an output whose array no backward_fn
    holds is freed as soon as its caller drops it.
    """
    out = FeatureMap(values, level=level)
    tape = _ACTIVE_TAPE
    if tape is not None and any(inp._slot.tracked for inp in inputs):
        slot, in_slots = out._slot, [inp._slot for inp in inputs]
        slot.tracked = True
        # weak: the tape holds this closure, which holds the slot
        slot.tape = weakref.ref(tape)

        def _backward():
            g, slot.grad = slot.grad, None
            if g is None:
                return
            for s, gi in zip(in_slots, backward_fn(g)):
                if gi is not None:
                    _accum(s, gi)

        tape.ops.append(_backward)
    return out


def backward(loss):
    """Populate the leaf gradients of everything `loss` depends on.

    Pops each closure off the tape as it replays it, so the tape ends empty
    and every non-leaf ``.grad`` ends None.
    """
    tape = None if loss._slot.tape is None else loss._slot.tape()
    if tape is None:
        raise DomainError("backward on a value detached from any tape")
    if loss.values.size != 1:
        raise DomainError("backward expects a scalar loss")
    loss.grad = np.ones_like(loss.values)
    ops = tape.ops
    while ops:
        ops.pop()()


def _check_same_shape(a, b):
    if a.values.shape != b.values.shape:
        raise DomainError(f"shape mismatch {a.values.shape} vs {b.values.shape}")


def add(a, b):
    _check_same_shape(a, b)
    return custom_op(a.values + b.values, [a, b], lambda g: (g, g.copy()), level=a.level)


def sub(a, b):
    _check_same_shape(a, b)
    return custom_op(a.values - b.values, [a, b], lambda g: (g, -g), level=a.level)


def mul(a, b):
    _check_same_shape(a, b)
    av, bv = a.values, b.values
    return custom_op(av * bv, [a, b], lambda g: (g * bv, g * av), level=a.level)


def scale(a, s):
    s = float(s)
    return custom_op(a.values * s, [a], lambda g: (g * s,), level=a.level)


def linear(x, w, bias=None):
    """x @ w.T (+ bias); w is (out_channels, in_channels)."""
    if x.values.shape[1] != w.values.shape[1]:
        raise DomainError("linear channel mismatch")
    xv, wv, biased = x.values, w.values, bias is not None
    out = xv @ wv.T
    if biased:
        out = out + bias.values

    def back(g):
        gs = [g @ wv, g.T @ xv]
        if biased:
            gs.append(g.sum(axis=0, keepdims=True))
        return gs

    inputs = [x, w, bias] if biased else [x, w]
    return custom_op(out, inputs, back, level=x.level)


def relu_values(v, out=None):
    """np.where(v > 0, v, 0) bit for bit, NaN mapping to 0 too, into `out`.

    fmax drops the NaN without the where's per-element branch, and adding
    0 turns a -0.0 that fmax may keep into +0.0.
    """
    out = np.fmax(v, 0, out=out)
    out += 0
    return out


def relu(a):
    """max(a, 0); backward masks by the output being > 0, which is a > 0 bit
    for bit (relu_values maps NaN and -0.0 to +0.0), so no mask is kept."""
    out = relu_values(a.values)
    return custom_op(out, [a], lambda g: (g * (out > 0),), level=a.level)


def row_gather(a, idx):
    """Gather rows by a 1-D index; -1 yields a zero row.

    The rows named must be distinct: backward assigns the input gradient
    rows.
    """
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim != 1:
        raise DomainError("row_gather index must be 1-D")
    out = kernels.gather_rows(a.values, idx)
    shape, dtype = a.values.shape, a.values.dtype

    def back(g):
        ga = np.zeros(shape, dtype)
        valid = idx >= 0
        ga[idx[valid]] = g[valid]
        return (ga,)

    return custom_op(out, [a], back, level=a.level)


def sum_all(a):
    shape, dtype = a.values.shape, a.values.dtype
    out = np.full((1, 1), a.values.sum(), dtype=dtype)
    return custom_op(out, [a], lambda g: (np.full(shape, g[0, 0], dtype),))


def constant(values, level=None):
    return FeatureMap(values, level=level)


def parameter(values, level=None):
    return FeatureMap(values, level=level, requires_grad=True)

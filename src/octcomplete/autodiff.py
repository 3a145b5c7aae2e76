"""Reverse-mode autodiff over node-major feature matrices.

A FeatureMap wraps a (rows, channels) matrix with an optional gradient slot.
Operations executed while a Tape is active record backward closures;
``backward(loss)`` pops and runs them in reverse order, accumulating
gradients with +=. A closure hands its output's gradient on and is dropped,
so arrays only it kept alive are freed during the replay. Afterwards the
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

DEFAULT_DTYPE = np.float32

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


class FeatureMap:
    """Node-major feature matrix at one octree level."""

    __slots__ = ("values", "grad", "level", "_tracked", "_tape")

    def __init__(self, values, level=None, requires_grad=False):
        self.values = np.asarray(values)
        if self.values.ndim == 1:
            self.values = self.values.reshape(-1, 1)
        self.grad = None
        self.level = level
        self._tracked = requires_grad
        self._tape = None

    @property
    def rows(self):
        return self.values.shape[0]

    @property
    def channels(self):
        return self.values.shape[1]

    def __repr__(self):
        return f"FeatureMap({self.values.shape}, level={self.level})"


def _accum(fm, g):
    if not fm._tracked:
        return
    if fm.grad is None:
        # no copy when the dtype matches: custom_op's contract makes g ours
        fm.grad = np.asarray(g, dtype=fm.values.dtype)
    else:
        fm.grad += g


def custom_op(values, inputs, backward_fn, level=None):
    """Create a taped output; backward_fn(g) returns per-input gradients.

    Each returned gradient must be an array that no other input receives
    and that nothing else keeps: an input's first gradient becomes its
    ``.grad`` without a copy, and later ones are added into it in place.
    """
    out = FeatureMap(values, level=level)
    tape = _ACTIVE_TAPE
    if tape is not None and any(inp._tracked for inp in inputs):
        out._tracked = True
        # weak: the tape holds this closure, which holds out
        out._tape = weakref.ref(tape)

        def _backward():
            g, out.grad = out.grad, None
            if g is None:
                return
            for inp, gi in zip(inputs, backward_fn(g)):
                if gi is not None:
                    _accum(inp, gi)

        tape.ops.append(_backward)
    return out


def backward(loss):
    """Populate the leaf gradients of everything `loss` depends on.

    Pops each closure off the tape as it replays it, so the tape ends empty
    and every non-leaf ``.grad`` ends None.
    """
    tape = None if loss._tape is None else loss._tape()
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
    return custom_op(
        a.values * b.values,
        [a, b],
        lambda g: (g * b.values, g * a.values),
        level=a.level,
    )


def scale(a, s):
    s = float(s)
    return custom_op(a.values * s, [a], lambda g: (g * s,), level=a.level)


def linear(x, w, bias=None):
    """x @ w.T (+ bias); w is (out_channels, in_channels)."""
    if x.values.shape[1] != w.values.shape[1]:
        raise DomainError("linear channel mismatch")
    out = x.values @ w.values.T
    if bias is not None:
        out = out + bias.values

    def back(g):
        gs = [g @ w.values, g.T @ x.values]
        if bias is not None:
            gs.append(g.sum(axis=0, keepdims=True))
        return gs

    inputs = [x, w] if bias is None else [x, w, bias]
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
    mask = a.values > 0
    return custom_op(relu_values(a.values), [a], lambda g: (g * mask,), level=a.level)


def row_gather(a, idx):
    """Gather rows by a 1-D index; -1 yields a zero row.

    The rows named must be distinct: backward assigns the input gradient
    rows.
    """
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim != 1:
        raise DomainError("row_gather index must be 1-D")
    out = kernels.gather_rows(a.values, idx)

    def back(g):
        ga = np.zeros_like(a.values)
        valid = idx >= 0
        ga[idx[valid]] = g[valid]
        return (ga,)

    return custom_op(out, [a], back, level=a.level)


def sum_all(a):
    out = np.full((1, 1), a.values.sum(), dtype=a.values.dtype)
    return custom_op(out, [a], lambda g: (np.full_like(a.values, g[0, 0]),))


def constant(values, level=None):
    return FeatureMap(values, level=level)


def parameter(values, level=None):
    return FeatureMap(values, level=level, requires_grad=True)

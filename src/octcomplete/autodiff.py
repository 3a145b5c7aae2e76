"""Reverse-mode autodiff over node-major feature matrices.

A FeatureMap wraps a (rows, channels) matrix with a small gradient slot:
its ``.grad``, whether backward gives it one, its tape (weakly), its dtype
and, for an output its op can remake, the recipe that remakes its values.
Operations executed while a Tape is active record backward closures;
``backward(loss)`` pops and runs them in reverse order, accumulating
gradients with +=. A closure holds the slots of its output and inputs,
never the FeatureMaps, and only the arrays its backward reads, or, for an
input that carries a recipe, the input's slot, through which its backward
remakes the values, whole or at the rows it reads (``reader``): an output
that no backward holds is freed as soon as its caller drops it, and what a
backward reads is freed once it has run. A recipe is dropped when its own
op replays, after every op that read it. Afterwards the tape is empty and
only leaves (parameters) keep a ``.grad``. The graph is define-by-run: the
decoder structure differs per sample, so no static graph is kept.

The fused ReLU ops (``add_relu``, ``linear_relu``) keep their mask as
packed bits, so their own backward never reads their output, and mask
their own output gradient in place; ``linear``'s backward makes the
weight gradient, which remakes an input that carries a recipe, before the
input gradient. The network gives recipes to batch-norm outputs, to inner
residual block outputs, to MLP hidden layers, to guided-skip outputs, to
the row move onto a level's nonempty rows, which its convolutions read,
and, in the scene head, to the 1x1 projection's ``linear`` output, which
batch norm reads through its reader (nn, skip).
What a taped forward leaves for backward is mostly the batch-norm inputs
that convs, downsample and upsample make, each residual stack's last
output, kept as its level's nonempty rows on a level with empty rows,
and masks.

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

    __slots__ = ("grad", "tracked", "tape", "dtype", "remake")

    def __init__(self, tracked, dtype):
        self.grad = None
        self.tracked = tracked
        self.tape = None  # weak reference to the tape that recorded the op
        self.dtype = dtype
        self.remake = None  # the recipe of a taped output's values, until its op replays


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


def _recorded(inputs):
    """The active tape, if an op on `inputs` is recorded on it, else None:
    there is a tape and some input takes a gradient."""
    tape = _ACTIVE_TAPE
    if tape is not None and any(inp._slot.tracked for inp in inputs):
        return tape
    return None


def custom_op(values, inputs, backward_fn, level=None, remake=None):
    """Create a taped output; backward_fn(g) returns per-input gradients.

    Each returned gradient must be an array that no other input receives
    and that nothing else keeps: an input's first gradient becomes its
    ``.grad`` without a copy, and later ones are added into it in place.
    backward_fn should hold the arrays it reads, not FeatureMaps, and read
    an input's values through ``reader``: the tape holds only the ops'
    slots, so an output whose array no backward_fn holds is freed as soon
    as its caller drops it.

    `remake`, a recipe from what backward_fn holds anyway or from its own
    inputs' readers, returns `values` bit for bit when called with no
    argument, and ``np.take(values, rows, axis=0)`` bit for bit when called
    with an index array `rows`, as a new array on each call, which the
    caller may write. It goes on the output's slot when the
    output is taped, so the ops that read the output hold the slot in place
    of the array (``reader``). It is dropped when this op replays, whether
    or not the output got a gradient; every op that reads the output was
    taped later and so has replayed before.
    """
    out = FeatureMap(values, level=level)
    tape = _recorded(inputs)
    if tape is not None:
        slot, in_slots = out._slot, [inp._slot for inp in inputs]
        slot.tracked = True
        slot.remake = remake
        # weak: the tape holds this closure, which holds the slot
        slot.tape = weakref.ref(tape)

        def _backward():
            g, slot.grad, slot.remake = slot.grad, None, None
            if g is None:
                return
            for s, gi in zip(in_slots, backward_fn(g)):
                if gi is not None:
                    _accum(s, gi)

        tape.ops.append(_backward)
    return out


def reader(fm):
    """A function read(rows=None) that returns fm's values, or with an
    index array a copy of only those rows, for a backward_fn to hold in
    their place: a read of the array itself, or for a taped output that
    carries a recipe (custom_op's `remake`), a call of that recipe, so the
    closure keeps the slot and no array, and a read of some rows remakes
    only those."""
    slot = fm._slot
    if slot.remake is None:
        values = fm.values
        return lambda rows=None: values if rows is None else np.take(values, rows, axis=0)

    def read(rows=None):
        if slot.remake is None:
            raise DomainError("an output's values were read after its op replayed")
        return slot.remake() if rows is None else slot.remake(rows)

    return read


def remade(fm):
    """Whether fm's readers remake its values (a taped output with a
    recipe) rather than hold its array."""
    return fm._slot.remake is not None


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


def _linear_values(xv, wv, bv):
    """xv @ wv.T, plus bv unless it is None: in place, unless the bias
    widens the product's dtype (every Parameters tensor is float32)."""
    out = xv @ wv.T
    if bv is None:
        return out
    if np.result_type(out, bv) != out.dtype:
        return out + bv
    out += bv
    return out


def _linear_grads(g, wv, read, biased):
    """The input, weight and (if biased) bias gradients of linear for the
    output gradient g; `read` is the input's reader. The weight gradient
    comes first, so an input that its read remakes is freed before the
    input gradient is made."""
    gw = g.T @ read()
    gs = [g @ wv, gw]
    if biased:
        gs.append(g.sum(axis=0, keepdims=True))
    return gs


def _linear_recipe(read, wv, bv, relu=False):
    """The recipe of a linear (relu: linear_relu) output over its input's
    reader. Asked for rows, it remakes them all and takes those: a gemm
    over fewer rows need not round as the forward's did."""

    def recipe(rows=None):
        v = _linear_values(read(), wv, bv)
        if relu:
            relu_values(v, out=v)
        return v if rows is None else np.take(v, rows, axis=0)

    return recipe


def linear(x, w, bias=None):
    """x @ w.T (+ bias); w is (out_channels, in_channels). A taped output
    carries a recipe over x's reader (_linear_recipe), so the ops that
    read it through their reader remake it in backward."""
    if x.values.shape[1] != w.values.shape[1]:
        raise DomainError("linear channel mismatch")
    wv, biased, read = w.values, bias is not None, reader(x)
    bv = bias.values if biased else None
    out = _linear_values(x.values, wv, bv)
    inputs = [x, w, bias] if biased else [x, w]
    return custom_op(
        out,
        inputs,
        lambda g: _linear_grads(g, wv, read, biased),
        level=x.level,
        remake=_linear_recipe(read, wv, bv),
    )


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


def _relu_mask(out, inputs):
    """out > 0 as packed bits, 1 bit per element in C order, for the
    backward of a fused ReLU op on `inputs`; None when no tape records it."""
    return None if _recorded(inputs) is None else np.packbits(out > 0)


def _masked(g, mask):
    """g * (out > 0), relu's gradient, from _relu_mask's bits, in g's own
    array: g is the op's output gradient, which custom_op's contract makes
    the op's."""
    g *= np.unpackbits(mask, count=g.size).view(bool).reshape(g.shape)
    return g


def add_relu(a, b, remade=False):
    """relu(add(a, b)) as one op, bit for bit in forward and backward.

    Backward masks the gradient by the output being > 0, kept as packed
    bits (_relu_mask), so it never reads the output. With `remade` a taped
    output carries a recipe over a's and b's readers, so the ops that read
    it remake it in backward, at the rows they read; without, they hold
    it. The sum is elementwise, so a recipe remakes rows by reading only
    those rows of a and b.
    """
    _check_same_shape(a, b)
    out = a.values + b.values
    relu_values(out, out=out)
    mask = _relu_mask(out, [a, b])

    def back(g):
        gm = _masked(g, mask)
        return gm, gm.copy()

    recipe = None
    if remade:
        read_a, read_b = reader(a), reader(b)

        def recipe(rows=None):
            v = read_a(rows) + read_b(rows)
            return relu_values(v, out=v)

    return custom_op(out, [a, b], back, level=a.level, remake=recipe)


def linear_relu(x, w, bias):
    """relu(linear(x, w, bias)) as one op, bit for bit in forward and
    backward, its mask kept as packed bits as add_relu's. A taped output
    carries a recipe over x's reader (_linear_recipe), so the op that reads
    it (the next layer) remakes it in backward and no backward holds it."""
    if x.values.shape[1] != w.values.shape[1]:
        raise DomainError("linear channel mismatch")
    wv, bv, read = w.values, bias.values, reader(x)
    out = _linear_values(x.values, wv, bv)
    relu_values(out, out=out)
    mask = _relu_mask(out, [x, w, bias])
    return custom_op(
        out,
        [x, w, bias],
        lambda g: _linear_grads(_masked(g, mask), wv, read, True),
        level=x.level,
        remake=_linear_recipe(read, wv, bv, relu=True),
    )


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


def constant(values):
    return FeatureMap(values)


def parameter(values):
    return FeatureMap(values, requires_grad=True)

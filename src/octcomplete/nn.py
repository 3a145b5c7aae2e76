"""Octree-restricted neural operators.

All operators act on node-major FeatureMaps. Convolution receives a
precomputed 27-stencil neighbor table from the octree it runs on; the ops
that change level read its full-sibling layout directly. Empty sibling
slots are stored rows: they read as zeros inside convolution stencils but
participate in batch-norm statistics.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import kernels
from .autodiff import FeatureMap
from .errors import DomainError


class Parameters:
    """Named flat store of learnable tensors with deterministic order."""

    def __init__(self, dtype=np.float32):
        self.dtype = dtype
        self.store = {}  # name -> FeatureMap
        self.meta = {}   # name -> {"trainable": bool, "decay": bool}

    def create(self, name, values, trainable=True, decay=True):
        if name in self.store:
            raise DomainError(f"duplicate parameter name {name}")
        fm = ad.parameter(np.asarray(values, dtype=self.dtype)) if trainable else FeatureMap(
            np.asarray(values, dtype=self.dtype)
        )
        self.store[name] = fm
        self.meta[name] = {"trainable": trainable, "decay": decay}
        return fm

    def names(self):
        return list(self.store.keys())

    def __getitem__(self, name):
        return self.store[name]

    def total_count(self):
        return sum(fm.values.size for fm in self.store.values())

    def zero_grad(self):
        for fm in self.store.values():
            fm.grad = None

    def state_arrays(self):
        """name -> ndarray view of every stored tensor (trainable or not)."""
        return {name: fm.values for name, fm in self.store.items()}


def he_init(rng, out_c, fan_in):
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(out_c, fan_in))


@dataclass
class ConvParams:
    in_channels: int
    kernel: int           # 1, 2 or 3
    stride: int           # 1 or 2
    weight: FeatureMap    # (out, in * kernel^3) for k=3/1, (out, 8*in) or (8*out, in) for k=2


@dataclass
class BNParams:
    gamma: FeatureMap
    beta: FeatureMap
    running_mean: np.ndarray
    running_var: np.ndarray
    epsilon: float = 1e-5
    momentum: float = 0.9


def octree_conv(x, nbr_table, params):
    """3x3x3 convolution over the stored nodes of one level.

    Absent or empty neighbors contribute zero rows; the output keeps the
    row count of the input. kernel=1 degenerates to a per-node linear map.

    A kernel map: tap t gathers the input rows named by column t of the
    (rows, 27) stencil table and multiplies them by its weight block
    W_t = weight[:, t*c:(t+1)*c], accumulating in place; no (rows, 27*c)
    buffer is built. Backward gathers the output gradient through the
    inverted table instead, g_t[j] = g[i] where table[i, t] = j: W_t's
    gradient is g_t.T @ x and the input gradient accumulates g_t @ W_t, so
    backward neither scatters nor regathers x.
    """
    if x.channels != params.in_channels:
        raise DomainError("conv channel mismatch")
    if params.kernel == 1:
        return ad.linear(x, params.weight)
    if params.kernel != 3 or params.stride != 1:
        raise DomainError("octree_conv expects kernel 3, stride 1")
    if nbr_table.shape[0] != x.rows:
        raise DomainError("neighbor table row mismatch")
    c = x.channels
    taps = nbr_table.shape[1]
    w = params.weight.values.reshape(-1, taps, c)  # (out, taps, in) view
    cols = np.ascontiguousarray(nbr_table.T)
    out = np.zeros((x.rows, w.shape[0]), dtype=np.result_type(x.values, w))
    for t in range(taps):
        kernels.matmul_add(out, kernels.gather_rows(x.values, cols[t]), w[:, t].T)

    def back(g):
        inv = kernels.invert_table(nbr_table, x.rows)
        gw = np.empty_like(w)
        gx = np.zeros_like(x.values)
        for t in range(taps):
            g_t = kernels.gather_rows(g, inv[:, t])
            gw[:, t] = g_t.T @ x.values
            kernels.matmul_add(gx, g_t, w[:, t])
        return gx, gw.reshape(params.weight.values.shape)

    return ad.custom_op(out, [x, params.weight], back, level=x.level)


def _child_blocks(status, child_status, rows):
    """Owner rows and empty-child mask of a level's full-sibling blocks.

    The k-th nonempty row of `status` (the coarser level) owns rows
    8k..8k+7 of the finer level, whose per-row status is `child_status`.
    """
    owners = np.flatnonzero(status == 1)
    if 8 * len(owners) != rows or len(child_status) != rows:
        raise DomainError(f"{len(owners)} nonempty parents cannot own {rows} child rows")
    return owners, child_status == 0


def downsample(x, status, child_status, params):
    """conv(c, 2, 2): strided conv over each node's 8 children -> level-1 rows.

    `status` is the per-row status of the coarser level, `child_status`
    that of x's level. One gemm of the (parents, 8*c) block view with the
    weight; empty children read as zeros, childless parents get zero rows.
    """
    if params.kernel != 2 or params.stride != 2:
        raise DomainError("downsample expects kernel 2, stride 2")
    if x.channels != params.in_channels:
        raise DomainError("downsample channel mismatch")
    if x.level is not None and x.level < 1:
        raise DomainError("cannot downsample the root level")
    owners, empty = _child_blocks(status, child_status, x.rows)
    c = x.channels
    w = params.weight.values
    blocks = np.where(empty[:, None], 0, x.values).reshape(len(owners), 8 * c)
    out = np.zeros((len(status), w.shape[0]), dtype=np.result_type(x.values, w))
    out[owners] = blocks @ w.T

    def back(g):
        go = g[owners]
        gx = (go @ w).reshape(x.rows, c)
        gx[empty] = 0
        # the block view again: the closure keeps no masked copy of x
        return gx, go.T @ np.where(empty[:, None], 0, x.values).reshape(len(owners), 8 * c)

    out_level = None if x.level is None else x.level - 1
    return ad.custom_op(out, [x, params.weight], back, level=out_level)


def upsample(x, rows, params):
    """Deconvolution with kernel 2, stride 2.

    Projects each selected parent row to its 8 child slots; weight layout is
    (8*out, in), child slot t using the t-th block of rows. `rows` must be
    distinct: backward assigns the input gradient rows.
    """
    if params.kernel != 2 or params.stride != 2:
        raise DomainError("upsample expects kernel 2, stride 2")
    if x.channels != params.in_channels:
        raise DomainError("upsample channel mismatch")
    rows = np.asarray(rows, dtype=np.int64)
    w = params.weight.values
    sel = x.values[rows]
    out = (sel @ w.T).reshape(8 * len(rows), -1)

    def back(g):
        gb = g.reshape(len(rows), w.shape[0])
        gx = np.zeros_like(x.values)
        gx[rows] = gb @ w
        return gx, gb.T @ sel

    out_level = None if x.level is None else x.level + 1
    return ad.custom_op(out, [x, params.weight], back, level=out_level)


def max_pool(x, status, child_status):
    """Per-channel max over each node's 8 children.

    The arguments are as for downsample. Children flagged empty count as
    -inf; nodes whose children are all empty (or that have none) produce
    zero rows. The gradient routes to the argmax child only.
    """
    if x.level is not None and x.level < 1:
        raise DomainError("cannot pool the root level")
    owners, empty = _child_blocks(status, child_status, x.rows)
    c = x.channels
    vals = np.where(empty[:, None], -np.inf, x.values).reshape(len(owners), 8, c)
    arg = vals.argmax(axis=1)  # (owners, c)
    best = np.take_along_axis(vals, arg[:, None, :], axis=1)[:, 0, :]
    dead = empty.reshape(len(owners), 8).all(axis=1)[:, None]
    out = np.zeros((len(status), c), dtype=x.values.dtype)
    out[owners] = np.where(dead, 0.0, best)
    src = 8 * np.arange(len(owners))[:, None] + arg  # (owners, c) argmax child rows

    def back(g):
        # each child row has one parent and each (parent, channel) one argmax,
        # so the (row, channel) targets are unique: assignment, not a scatter
        ga = np.zeros_like(x.values)
        valid = ~empty[src]
        cols = np.broadcast_to(np.arange(c), src.shape)
        ga[src[valid], cols[valid]] = g[owners][valid]
        return (ga,)

    return ad.custom_op(out, [x], back, level=None if x.level is None else x.level - 1)


def batch_norm(x, params, train):
    """Per-channel normalization over all stored rows of the map."""
    if x.rows == 0:
        raise DomainError("batch_norm on an empty feature map")
    if x.channels != params.gamma.values.shape[1]:
        raise DomainError("batch_norm channel mismatch")
    eps = params.epsilon
    if train:
        mu = x.values.mean(axis=0, keepdims=True)
        var = x.values.var(axis=0, keepdims=True)
        inv = 1.0 / np.sqrt(var + eps)
        xhat = (x.values - mu) * inv
        out = params.gamma.values * xhat + params.beta.values
        m = params.momentum
        params.running_mean *= m
        params.running_mean += (1.0 - m) * mu
        params.running_var *= m
        params.running_var += (1.0 - m) * var

        def back(g):
            gxhat = g * params.gamma.values
            gx = (
                inv
                * (
                    gxhat
                    - gxhat.mean(axis=0, keepdims=True)
                    - xhat * (gxhat * xhat).mean(axis=0, keepdims=True)
                )
            ).astype(x.values.dtype)
            ggamma = (g * xhat).sum(axis=0, keepdims=True)
            gbeta = g.sum(axis=0, keepdims=True)
            return gx, ggamma, gbeta

        return ad.custom_op(
            out.astype(x.values.dtype),
            [x, params.gamma, params.beta],
            back,
            level=x.level,
        )
    inv = 1.0 / np.sqrt(params.running_var + eps)
    scale_row = (params.gamma.values * inv).astype(x.values.dtype)
    shift = (params.beta.values - params.gamma.values * params.running_mean * inv).astype(
        x.values.dtype
    )

    def back_eval(g):
        return (
            g * scale_row,
            (g * ((x.values - params.running_mean) * inv)).sum(axis=0, keepdims=True),
            g.sum(axis=0, keepdims=True),
        )

    return ad.custom_op(
        x.values * scale_row + shift,
        [x, params.gamma, params.beta],
        back_eval,
        level=x.level,
    )


class ConvBnRelu:
    """conv(c, k, s) in the Fig.-style notation: conv + BN + ReLU, no bias."""

    def __init__(self, params, prefix, in_c, out_c, kernel=3, stride=1, rng=None):
        self.kernel = kernel
        taps = {3: 27, 2: 8, 1: 1}[kernel]
        w = params.create(f"{prefix}.w", he_init(rng, out_c, in_c * taps))
        self.conv = ConvParams(in_c, kernel, stride, w)
        self.bn = make_bn(params, f"{prefix}.bn", out_c)

    def forward(self, x, table, train):
        """`table` is the neighbor table for kernel 3 and the (status,
        child status) pair of downsample for kernel 2."""
        if self.kernel == 2:
            y = downsample(x, *table, self.conv)
        else:
            y = octree_conv(x, table, self.conv)
        return ad.relu(batch_norm(y, self.bn, train))

    def layer_count(self):
        return 1


class Deconv:
    """Upsample(c): deconvolution (k=2, s=2) + BN + ReLU."""

    def __init__(self, params, prefix, in_c, out_c, rng=None):
        w = params.create(f"{prefix}.w", he_init(rng, 8 * out_c, in_c))
        self.conv = ConvParams(in_c, 2, 2, w)
        self.bn = make_bn(params, f"{prefix}.bn", out_c)

    def forward(self, x, parent_rows, train):
        return ad.relu(batch_norm(upsample(x, parent_rows, self.conv), self.bn, train))

    def layer_count(self):
        return 1


def make_bn(params, prefix, c):
    gamma = params.create(f"{prefix}.gamma", np.ones((1, c)), decay=False)
    beta = params.create(f"{prefix}.beta", np.zeros((1, c)), decay=False)
    rm = params.create(f"{prefix}.rmean", np.zeros((1, c)), trainable=False, decay=False)
    rv = params.create(f"{prefix}.rvar", np.ones((1, c)), trainable=False, decay=False)
    return BNParams(
        gamma=gamma,
        beta=beta,
        running_mean=rm.values,
        running_var=rv.values,
    )


class ResBlockStack:
    """Resblock(n, c): n bottleneck residual blocks at channel width c.

    Each block is conv(c/4, 3, 1) + conv(c, 3, 1) around an identity skip;
    entering with a different channel count inserts a 1x1 projection.
    """

    def __init__(self, params, prefix, in_c, c, n, rng=None):
        if c % 4 != 0:
            raise DomainError("resblock channels must be divisible by 4")
        self.n = n
        self.c = c
        self.blocks = []
        self.projection = None
        if in_c != c:
            w = params.create(f"{prefix}.proj.w", he_init(rng, c, in_c))
            self.projection = ConvParams(in_c, 1, 1, w)
            self.proj_bn = make_bn(params, f"{prefix}.proj.bn", c)
        for i in range(n):
            c1 = ConvBnRelu(params, f"{prefix}.b{i}.conv1", c, c // 4, 3, 1, rng=rng)
            w2 = params.create(f"{prefix}.b{i}.conv2.w", he_init(rng, c, (c // 4) * 27))
            conv2 = ConvParams(c // 4, 3, 1, w2)
            bn2 = make_bn(params, f"{prefix}.b{i}.conv2.bn", c)
            self.blocks.append((c1, conv2, bn2))

    def forward(self, x, table, train):
        if self.projection is not None:
            x = batch_norm(octree_conv(x, None, self.projection), self.proj_bn, train)
        for c1, conv2, bn2 in self.blocks:
            h = c1.forward(x, table, train)
            h = batch_norm(octree_conv(h, table, conv2), bn2, train)
            x = ad.relu(ad.add(x, h))
        return x

    def layer_count(self):
        return 2 * self.n + (1 if self.projection is not None else 0)


class MLPHead:
    """Shared 2-layer MLP applied per node (status prediction, regression)."""

    def __init__(self, params, prefix, in_c, hidden, out_c, rng=None):
        self.w1 = params.create(f"{prefix}.w1", he_init(rng, hidden, in_c))
        self.b1 = params.create(f"{prefix}.b1", np.zeros((1, hidden)), decay=False)
        self.w2 = params.create(f"{prefix}.w2", he_init(rng, out_c, hidden))
        self.b2 = params.create(f"{prefix}.b2", np.zeros((1, out_c)), decay=False)

    def forward(self, x):
        h = ad.relu(ad.linear(x, self.w1, self.b1))
        return ad.linear(h, self.w2, self.b2)

    def layer_count(self):
        return 2


def predict_status(x, head):
    """Per-node status logit and probability from a shared 2-layer MLP."""
    logits = head.forward(x)
    z = logits.values.astype(np.float64)
    e = np.exp(-np.abs(z))
    probs = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return logits, probs.reshape(-1)


def round_status(probs):
    """Probability >= 0.5 counts as nonempty."""
    return (np.asarray(probs) >= 0.5).astype(np.float64)

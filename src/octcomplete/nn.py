"""Octree-restricted neural operators.

All operators act on node-major FeatureMaps. Convolution reads the
KernelMap of its level, built once from the level's 27 tap pairs (its
3x3x3 stencil); the ops that change level read the full-sibling layout directly.
Each op takes its weight FeatureMap and checks the input channels against
the weight's shape. Empty sibling slots are stored rows: they read as zeros
inside convolution stencils but participate in batch-norm statistics.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse

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
class BNParams:
    gamma: FeatureMap
    beta: FeatureMap
    running_mean: np.ndarray
    running_var: np.ndarray
    epsilon: float = 1e-5
    momentum: float = 0.9


# A tap whose share of valid rows is below this runs on its (out row, in
# row) pairs; at or above it, one gather of the padded source over the
# whole column costs less than gathering the pairs. In
# benchmarks/bench_kernels.py (2-core x86, one BLAS thread, best of 5),
# "conv fwd+bwd" (70 % valid) takes 1.50 s under this rule, 1.51 s with
# every tap dense and 2.03 s with every tap sparse; "conv fwd+bwd sparse"
# (5 % valid) takes 0.032 s, 0.28 s and 0.034 s. On the perfbench levels
# (25-41 % valid) a rule of 0.5 made single convs 10-30 % faster, but each
# sparse pair holds a product row until the scatter, so the buffers grow
# toward 9 times the output; kept at 0.3 (see ROADMAP).
SPARSE_BELOW = 0.3

IDENTITY, DENSE, SPARSE = "identity", "dense", "sparse"


class KernelMap:
    """How octree_conv reads one level's 27 tap pairs (octree.child_pairs).

    Built once per level and shared by that level's convolutions, forward
    and backward. ``taps[t]`` is
    - (IDENTITY, None, None): the tap pairs every row with itself, as a
      decoder level's center tap does; the tap reads the source itself;
    - (DENSE, col, k): at least SPARSE_BELOW of the rows are valid; col is
      the tap's column of input rows, -1 where none, gathered from the
      source padded once per call; it is row k of ``cols``;
    - (SPARSE, a, b): fewer are valid; the tap's pairs are entries a:b of
      ``pair_out`` and ``pair_in``, the sparse taps' pairs in tap order.
    A tap names each output row at most once, so the sparse taps' products
    (one row per pair) reach the output through one sparse matrix whose
    column j has a single one in row pair_out[j]: each output row adds its
    pairs in tap order. Backward does the same through pair_in.
    """

    def __init__(self, pairs, rows):
        self.rows = rows
        kinds = [
            IDENTITY if len(o) == rows and np.array_equal(o, i)
            else SPARSE if len(o) < SPARSE_BELOW * rows
            else DENSE
            for o, i in pairs
        ]
        self.dense = [t for t, kind in enumerate(kinds) if kind == DENSE]  # in tap order
        self.cols = np.full((len(self.dense), rows), -1, dtype=np.int64)
        self.taps = []
        sparse_taps, n = [], 0
        for t, ((o, i), kind) in enumerate(zip(pairs, kinds)):
            if kind == DENSE:
                k = self.dense.index(t)
                self.cols[k, o] = i
                self.taps.append((DENSE, self.cols[k], k))
            elif kind == SPARSE:
                self.taps.append((SPARSE, n, n + len(o)))
                sparse_taps.append((o, i))
                n += len(o)
            else:
                self.taps.append((IDENTITY, None, None))
        none = np.zeros(0, dtype=np.int32)
        self.pair_out = np.concatenate([o for o, _ in sparse_taps] + [none])
        self.pair_in = np.concatenate([i for _, i in sparse_taps] + [none])
        self._scatter = {}
        self._inverse = None

    def scatter(self, side, dtype):
        """The (rows, pairs) CSC matrix whose column j has a one in row
        pair_out[j] (side "out") or pair_in[j] (side "in"), built on first
        use per dtype."""
        if (side, dtype) not in self._scatter:
            rows = self.pair_out if side == "out" else self.pair_in
            n = len(rows)
            self._scatter[side, dtype] = sparse.csc_array(
                (np.ones(n, dtype), rows, np.arange(n + 1, dtype=rows.dtype)),
                shape=(self.rows, n),
            )
        return self._scatter[side, dtype]

    def inverse(self):
        """(dense taps, rows) inverse of the dense columns: row k names, for
        each input row j, the output row whose tap reads j, or -1. Built on
        first use, by the level's first backward, and kept."""
        if self._inverse is None:
            self._inverse = kernels.invert_table(self.cols.T, self.rows).T
        return self._inverse


def octree_conv(x, kmap, weight):
    """3x3x3 convolution over the stored nodes of one level.

    Absent or empty neighbors contribute zero rows; the output keeps the
    row count of the input. `kmap` is the level's KernelMap, built once
    per level by OctreeBatch.kernel_map or CompletionNet.decode; `weight`
    is (out, taps * in), one (out, in) block per tap of the map.

    Tap t multiplies the input rows it reads by its weight block
    W_t = weight[:, t*c:(t+1)*c]; no (rows, 27*c) buffer is built. The
    sparse taps write one product row per pair into one buffer, which one
    sparse-matrix product adds into the output; then the identity and
    dense taps accumulate into it in place, in tap order. Backward reads
    the output gradient through the same taps reversed: an identity tap
    reads g itself, a dense tap gathers g through the map's inverse, and a
    sparse tap gathers g at its output rows and scatters through pair_in.
    W_t's gradient is g_t.T @ x. The input gradient is skipped when x
    takes none.
    """
    if weight.values.shape[1] != len(kmap.taps) * x.channels:
        raise DomainError("conv channel mismatch")
    if kmap.rows != x.rows:
        raise DomainError("kernel map row mismatch")
    xv = x.values
    w = weight.values.reshape(-1, len(kmap.taps), x.channels)  # (out, taps, in)
    dtype = np.result_type(xv, w)
    if len(kmap.pair_out):
        buf = np.empty((len(kmap.pair_out), w.shape[0]), dtype=dtype)
        for t, (kind, a, b) in enumerate(kmap.taps):
            if kind == SPARSE:
                np.matmul(np.take(xv, kmap.pair_in[a:b], axis=0), w[:, t].T, out=buf[a:b])
        out = kmap.scatter("out", dtype) @ buf
        del buf
    else:
        out = np.zeros((x.rows, w.shape[0]), dtype=dtype)
    if kmap.dense:
        xp, xbuf = kernels.padded(xv), np.empty(xv.shape, xv.dtype)
    for t, (kind, a, _) in enumerate(kmap.taps):
        if kind != SPARSE:
            src = xv if kind == IDENTITY else kernels.gather_padded(xp, a, xbuf)
            kernels.matmul_add(out, src, w[:, t].T)

    def back(g):
        gw = np.empty_like(w)
        need_gx = ad.tracked(x)
        gx = gbuf = None
        if need_gx and len(kmap.pair_out):
            gbuf = np.empty((len(kmap.pair_out), xv.shape[1]), dtype=xv.dtype)
        for t, (kind, a, b) in enumerate(kmap.taps):
            if kind == SPARSE:
                go = np.take(g, kmap.pair_out[a:b], axis=0)
                gw[:, t] = go.T @ np.take(xv, kmap.pair_in[a:b], axis=0)
                if need_gx:
                    np.matmul(go, w[:, t], out=gbuf[a:b])
        if gbuf is not None:
            gx = kmap.scatter("in", xv.dtype) @ gbuf
            del gbuf
        elif need_gx:
            gx = np.zeros_like(xv)
        if kmap.dense:
            gp, gdbuf, inv = kernels.padded(g), np.empty(g.shape, g.dtype), kmap.inverse()
        for t, (kind, a, b) in enumerate(kmap.taps):
            if kind == SPARSE:
                continue
            g_t = g if kind == IDENTITY else kernels.gather_padded(gp, inv[b], gdbuf)
            gw[:, t] = g_t.T @ xv
            if need_gx:
                kernels.matmul_add(gx, g_t, w[:, t])
        return gx, gw.reshape(weight.values.shape)

    return ad.custom_op(out, [x, weight], back, level=x.level)


def _child_blocks(status, child_status, rows):
    """Owner rows and empty-child mask of a level's full-sibling blocks.

    The k-th nonempty row of `status` (the coarser level) owns rows
    8k..8k+7 of the finer level, whose per-row status is `child_status`.
    """
    owners = np.flatnonzero(status == 1)
    if 8 * len(owners) != rows or len(child_status) != rows:
        raise DomainError(f"{len(owners)} nonempty parents cannot own {rows} child rows")
    return owners, child_status == 0


def downsample(x, status, child_status, weight):
    """conv(c, 2, 2): strided conv over each node's 8 children -> level-1 rows.

    `status` is the per-row status of the coarser level, `child_status`
    that of x's level. One gemm of the (parents, 8*c) block view with the
    (out, 8*c) weight; empty children read as zeros, childless parents get
    zero rows. The input gradient is skipped when x takes none.
    """
    if weight.values.shape[1] != 8 * x.channels:
        raise DomainError("downsample channel mismatch")
    if x.level is not None and x.level < 1:
        raise DomainError("cannot downsample the root level")
    owners, empty = _child_blocks(status, child_status, x.rows)
    c = x.channels
    w = weight.values
    blocks = np.where(empty[:, None], 0, x.values).reshape(len(owners), 8 * c)
    out = np.zeros((len(status), w.shape[0]), dtype=np.result_type(x.values, w))
    out[owners] = blocks @ w.T

    def back(g):
        go = g[owners]
        gx = None
        if ad.tracked(x):
            gx = (go @ w).reshape(x.rows, c)
            gx[empty] = 0
        # the block view again: the closure keeps no masked copy of x
        return gx, go.T @ np.where(empty[:, None], 0, x.values).reshape(len(owners), 8 * c)

    out_level = None if x.level is None else x.level - 1
    return ad.custom_op(out, [x, weight], back, level=out_level)


def upsample(x, rows, weight):
    """Deconvolution with kernel 2, stride 2.

    Projects each selected parent row to its 8 child slots; weight layout is
    (8*out, in), child slot t using the t-th block of rows. `rows` must be
    distinct: backward assigns the input gradient rows.
    """
    if weight.values.shape[1] != x.channels:
        raise DomainError("upsample channel mismatch")
    rows = np.asarray(rows, dtype=np.int64)
    w = weight.values
    sel = x.values[rows]
    out = (sel @ w.T).reshape(8 * len(rows), -1)

    def back(g):
        gb = g.reshape(len(rows), w.shape[0])
        gx = np.zeros_like(x.values)
        gx[rows] = gb @ w
        return gx, gb.T @ sel

    out_level = None if x.level is None else x.level + 1
    return ad.custom_op(out, [x, weight], back, level=out_level)


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


def batch_norm(x, params, train, relu=False):
    """Per-channel normalization over all stored rows of the map.

    Train mode takes every per-channel reduction as a BLAS gemv with a ones
    vector (kernels.column_sums). Forward centers x on its gemv mean and
    corrects mean and variance by the mean of that centered map (the
    corrected two-pass algorithm), then scales the centered buffer in place
    into the output. Backward takes the beta and gamma gradients as two
    gemvs and derives the input gradient's two means from them. Only the
    per-channel mean and inverse deviation are kept; backward recomputes
    x - mean. With `relu`, the op is followed by ad.relu's rule
    (ad.relu_values) as one op; backward masks the gradient by its own
    output being > 0, so neither the normalized map nor a mask is kept.
    """
    if x.rows == 0:
        raise DomainError("batch_norm on an empty feature map")
    if x.channels != params.gamma.values.shape[1]:
        raise DomainError("batch_norm channel mismatch")
    eps = params.epsilon
    xv = x.values
    gamma = params.gamma.values
    if train:
        n = x.rows
        mu = kernels.column_sums(xv) / n
        out = xv - mu
        corr = kernels.column_sums(out) / n
        var = kernels.column_sums(out * out) / n - corr * corr
        mu += corr
        inv = 1.0 / np.sqrt(var + eps)
        s = gamma * inv
        out *= s
        out += params.beta.values - corr * s
        m = params.momentum
        params.running_mean *= m
        params.running_mean += (1.0 - m) * mu
        params.running_var *= m
        params.running_var += (1.0 - m) * var

        def back(g):
            # gx = inv * (g*gamma - mean(g*gamma) - xhat * mean(g*gamma*xhat)),
            # where mean(g*gamma) = gamma*gbeta/n and mean(g*gamma*xhat) =
            # gamma*ggamma/n; with s = gamma*inv and xhat = d*inv, d = x - mu:
            # gx = g*s - s*gbeta/n - d * (s*inv*ggamma/n)
            if relu:
                g = g * (out > 0)
            d = xv - mu
            gbeta = kernels.column_sums(g)
            gx = g * d
            ggamma = kernels.column_sums(gx) * inv
            np.multiply(g, s, out=gx)
            gx -= s * (gbeta / n)
            d *= s * inv * (ggamma / n)
            gx -= d
            return gx.astype(xv.dtype, copy=False), ggamma[None], gbeta[None]
    else:
        inv = 1.0 / np.sqrt(params.running_var + eps)
        scale_row = (gamma * inv).astype(xv.dtype)
        shift = (params.beta.values - gamma * params.running_mean * inv).astype(xv.dtype)
        out = xv * scale_row + shift

        def back(g):
            if relu:
                g = g * (out > 0)
            return (
                g * scale_row,
                (g * ((xv - params.running_mean) * inv)).sum(axis=0, keepdims=True),
                g.sum(axis=0, keepdims=True),
            )

    out = out.astype(xv.dtype, copy=False)
    if relu:
        ad.relu_values(out, out=out)
    return ad.custom_op(out, [x, params.gamma, params.beta], back, level=x.level)


class ConvBnRelu:
    """conv(c, k, s) in the Fig.-style notation: conv + BN + ReLU, no bias.

    Kernel 3 runs at stride 1 (octree_conv), kernel 2 at stride 2
    (downsample).
    """

    def __init__(self, params, prefix, in_c, out_c, kernel=3, rng=None):
        self.kernel = kernel
        taps = {3: 27, 2: 8}[kernel]
        self.w = params.create(f"{prefix}.w", he_init(rng, out_c, in_c * taps))
        self.bn = make_bn(params, f"{prefix}.bn", out_c)

    def forward(self, x, table, train):
        """`table` is the level's KernelMap for kernel 3 and the (status,
        child status) pair of downsample for kernel 2."""
        if self.kernel == 2:
            y = downsample(x, *table, self.w)
        else:
            y = octree_conv(x, table, self.w)
        return batch_norm(y, self.bn, train, relu=True)

    def layer_count(self):
        return 1


class Deconv:
    """Upsample(c): deconvolution (k=2, s=2) + BN + ReLU."""

    def __init__(self, params, prefix, in_c, out_c, rng=None):
        self.w = params.create(f"{prefix}.w", he_init(rng, 8 * out_c, in_c))
        self.bn = make_bn(params, f"{prefix}.bn", out_c)

    def forward(self, x, parent_rows, train):
        return batch_norm(upsample(x, parent_rows, self.w), self.bn, train, relu=True)

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
        self.projection = None  # the 1x1 projection's weight, when in_c != c
        if in_c != c:
            self.projection = params.create(f"{prefix}.proj.w", he_init(rng, c, in_c))
            self.proj_bn = make_bn(params, f"{prefix}.proj.bn", c)
        for i in range(n):
            c1 = ConvBnRelu(params, f"{prefix}.b{i}.conv1", c, c // 4, 3, rng=rng)
            w2 = params.create(f"{prefix}.b{i}.conv2.w", he_init(rng, c, (c // 4) * 27))
            bn2 = make_bn(params, f"{prefix}.b{i}.conv2.bn", c)
            self.blocks.append((c1, w2, bn2))

    def forward(self, x, kmap, train):
        if self.projection is not None:
            x = batch_norm(ad.linear(x, self.projection), self.proj_bn, train)
        for c1, w2, bn2 in self.blocks:
            h = c1.forward(x, kmap, train)
            h = batch_norm(octree_conv(h, kmap, w2), bn2, train)
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

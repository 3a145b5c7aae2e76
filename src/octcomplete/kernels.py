"""Hot inner-loop kernels: Morton bit interleaving, index-table row moves
and the BLAS gemv behind the per-channel sums.

Every kernel is plain numpy. Index tables use -1 for "no row"; gathers read
it as a zero row.
"""

import numpy as np

# magic masks that spread 21 bits over every third bit of a 64-bit word
_SPREAD_MASKS = (
    (32, np.uint64(0x1F00000000FFFF)),
    (16, np.uint64(0x1F0000FF0000FF)),
    (8, np.uint64(0x100F00F00F00F00F)),
    (4, np.uint64(0x10C30C30C30C30C3)),
    (2, np.uint64(0x1249249249249249)),
)


def _spread_bits(v):
    v = np.asarray(v, dtype=np.uint64)
    for shift, mask in _SPREAD_MASKS:
        v = (v | (v << np.uint64(shift))) & mask
    return v


def _compact_bits(v):
    v = v & np.uint64(0x1249249249249249)
    v = (v | (v >> np.uint64(2))) & np.uint64(0x10C30C30C30C30C3)
    v = (v | (v >> np.uint64(4))) & np.uint64(0x100F00F00F00F00F)
    v = (v | (v >> np.uint64(8))) & np.uint64(0x1F0000FF0000FF)
    v = (v | (v >> np.uint64(16))) & np.uint64(0x1F00000000FFFF)
    return (v | (v >> np.uint64(32))) & np.uint64(0x1FFFFF)


def interleave3(x, y, z):
    """Interleave coordinate bits into Morton codes, x in the high bit."""
    return (
        (_spread_bits(x) << np.uint64(2))
        | (_spread_bits(y) << np.uint64(1))
        | _spread_bits(z)
    )


def deinterleave3(codes):
    codes = np.asarray(codes, dtype=np.uint64)
    x = _compact_bits(codes >> np.uint64(2))
    y = _compact_bits(codes >> np.uint64(1))
    z = _compact_bits(codes)
    return x, y, z


def gather_rows(src, idx):
    """Gather rows of src by index; idx == -1 yields a zero row.

    The rows are taken from src itself, a -1 reading its last row, and the
    -1 rows are zeroed after: no padded copy of src is made.
    """
    idx = np.asarray(idx)
    if len(src) == 0:
        return np.zeros(idx.shape + src.shape[1:], dtype=src.dtype)
    out = np.take(src, idx, axis=0)
    out[idx < 0] = 0
    return out


def gather_concat(src, idx2d):
    """Gather a (m, k) index table into a (m, k*c) matrix, -1 -> zeros."""
    m, k = idx2d.shape
    flat = gather_rows(src, idx2d.ravel())
    return flat.reshape(m, k * src.shape[1])


def column_sums(x):
    """Per-column sums of a 2-D array as one BLAS gemv: ones @ x.

    numpy's axis-0 sum of a C-ordered (rows, c) array adds one row at a
    time. The gemv is about 20 times faster at 4 channels and 2 times at
    128 (104k and 16k rows, 2-core x86, one BLAS thread) and, summing in
    blocks, closer to the exact float32 sum.
    """
    return np.ones(x.shape[0], x.dtype) @ x


def scatter_add(out, idx, rows):
    """out[idx[i]] += rows[i] for idx[i] >= 0; deterministic order.

    Not called in the package: perfbench/spans.py probes kernels.scatter_add.
    """
    valid = idx >= 0
    np.add.at(out, idx[valid], rows[valid])
    return out


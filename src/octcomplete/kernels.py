"""Hot inner-loop kernels: Morton bit interleaving, index-table row moves,
the BLAS gemv behind the per-channel sums, the compiled row adds of the
convolutions and the k-d tree of the nearest-neighbour queries.

Every kernel but add_rows and kd_tree is plain numpy; those two run
scipy's compiled loops, each extension loaded from its file (`_extension`)
without importing its scipy subpackage. Index tables use -1 for "no row";
gathers read it as a zero row.
"""

import importlib.machinery
import importlib.util
import os

import numpy as np


def _extension(package, name):
    """scipy's compiled `scipy.<package>.<name>` extension, loaded from its
    file in scipy's install directory without importing `scipy.<package>`.
    Importing `scipy.sparse` for `_sparsetools` would pull in scipy's
    array-API layer, for one C loop: `import octcomplete.train` loads 547
    modules and peaks at 52.6 MiB of RSS that way, against 236 and 36.1 MiB
    (2-core x86, Python 3.11, scipy 1.17)."""
    scipy = importlib.util.find_spec("scipy")  # finds the package, imports nothing
    if scipy is None:
        raise ImportError("octcomplete needs scipy")
    base = os.path.join(scipy.submodule_search_locations[0], package, name)
    suffixes = importlib.machinery.EXTENSION_SUFFIXES
    for path in (base + suffix for suffix in suffixes):
        if os.path.exists(path):
            loader = importlib.machinery.ExtensionFileLoader(f"scipy.{package}.{name}", path)
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_file_location(loader.name, path, loader=loader)
            )
            loader.exec_module(module)
            return module
    raise ImportError(f"no compiled extension {base} with a suffix in {suffixes}", path=base)


_sparsetools = _extension("sparse", "_sparsetools")
_ckdtree = None  # loaded by the first kd_tree: its module init imports scipy.sparse


def kd_tree(points, **options):
    """scipy's `cKDTree(points, **options)`, from the `spatial/_ckdtree`
    extension loaded by file on the first call. Importing `scipy.spatial`
    for the class would also load `scipy.linalg` and `scipy.special`:
    `import octcomplete.train, octcomplete.evaluate` and one Chamfer
    distance read 68.5 MiB of RSS and 648 modules that way, against 53.6
    MiB and 549 (2-core x86, Python 3.11, scipy 1.17). Loaded both ways
    in one process, in either order, the two share one module."""
    global _ckdtree
    if _ckdtree is None:
        _ckdtree = _extension("spatial", "_ckdtree")
    return _ckdtree.cKDTree(points, **options)


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


def add_rows(out, rows, values):
    """out[rows[j]] += values[j] for every j, in place and in order of j.

    The product of the CSC matrix whose column j holds a single one in row
    rows[j] with values, added into out by scipy's compiled
    `csc_matvecs`, which walks the columns in order: the same sums in the
    same order as `csc_array((ones, rows, arange(n + 1))) @ values`, bit
    for bit, but with no product array. out and values share a dtype; out
    is C-ordered, as the loop writes its buffer, and every row in range,
    as the loop does not check.
    """
    n, c = values.shape
    if not out.flags.c_contiguous or out.ndim != 2 or out.shape[1] != c:
        raise ValueError("add_rows needs a C-ordered (rows, channels) output")
    if n and (rows.min() < 0 or rows.max() >= len(out)):
        raise IndexError(f"add_rows: a row is outside the output's {len(out)}")
    ptr = np.arange(n + 1, dtype=rows.dtype)
    _sparsetools.csc_matvecs(
        len(out), n, c, ptr, rows, np.ones(n, out.dtype), values.ravel(), out.ravel()
    )
    return out


def scatter_add(out, idx, rows):
    """out[idx[i]] += rows[i] for idx[i] >= 0; deterministic order.

    Not called in the package: perfbench/spans.py probes kernels.scatter_add.
    """
    valid = idx >= 0
    np.add.at(out, idx[valid], rows[valid])
    return out


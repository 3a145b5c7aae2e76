"""Row kernels against plain numpy references."""

import os
import re
import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from octcomplete import kernels


def test_gather_rows_minus_one_reads_zero(rng):
    src = rng.normal(size=(6, 3)).astype(np.float32)
    idx = np.array([5, -1, 0, 0, -1, 2])
    got = kernels.gather_rows(src, idx)
    want = np.where((idx >= 0)[:, None], src[np.clip(idx, 0, None)], 0.0)
    assert got.dtype == src.dtype
    assert np.array_equal(got, want)
    assert kernels.gather_rows(src[:0], np.array([-1, -1])).tolist() == [[0.0] * 3] * 2


def test_gather_rows_copies_no_source(rng):
    """A gather of a few rows allocates about its output, never a copy of
    the whole source."""
    src = rng.normal(size=(50_000, 32)).astype(np.float32)
    idx = np.array([7, -1, 49_999, -1, 0])
    tracemalloc.start()
    try:
        got = kernels.gather_rows(src, idx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, np.where((idx >= 0)[:, None], src[idx], 0.0))
    assert peak < src.nbytes // 10


def test_extension_without_a_file_names_its_path():
    """A scipy extension with no compiled file raises ImportError naming
    the path it looked for; no fallback import is tried."""
    base = os.path.join("scipy", "spatial", "_no_such_extension")
    with pytest.raises(ImportError, match=re.escape(base)) as err:
        kernels._extension("spatial", "_no_such_extension")
    assert err.value.path.endswith(base)


def csc_product(rows, values, n_out):
    """The product of the (n_out, len(rows)) CSC matrix whose column j has
    a single one in row rows[j] with values."""
    n = len(rows)
    ones = np.ones(n, values.dtype)
    return sparse.csc_array((ones, rows, np.arange(n + 1)), shape=(n_out, n)) @ values


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_add_rows_is_the_csc_product_bit_for_bit(dtype, rng):
    """add_rows into zeros equals the CSC product, bit for bit, with rows
    repeated and none; into an out that holds values, in two calls, it
    equals the product of those values' own columns followed by the
    rows' ones, as one CSC product of every group's rows sums them."""
    n_out, c = 40, 7
    rows = rng.integers(0, n_out, size=300).astype(np.int32)
    rows[:50] = 3  # one row added 50 times
    values = rng.normal(size=(len(rows), c)).astype(dtype)
    got = kernels.add_rows(np.zeros((n_out, c), dtype), rows, values)
    assert got.dtype == dtype
    assert np.array_equal(got, csc_product(rows, values, n_out))
    none = kernels.add_rows(np.zeros((n_out, c), dtype), rows[:0], values[:0])
    assert not none.any()
    held = rng.normal(size=(n_out, c)).astype(dtype)
    out = held.copy()
    assert kernels.add_rows(out, rows[:120], values[:120]) is out
    kernels.add_rows(out, rows[120:], values[120:])
    stacked = np.concatenate([np.arange(n_out, dtype=np.int32), rows])
    assert np.array_equal(out, csc_product(stacked, np.concatenate([held, values]), n_out))


def test_add_rows_rejects_an_output_it_cannot_write(rng):
    """Rows outside the output and an output that is not one C-ordered
    buffer raise before the compiled loop runs."""
    values = rng.normal(size=(3, 4)).astype(np.float32)
    out = np.zeros((5, 4), np.float32)
    for rows in ([0, 5, 1], [0, -1, 1]):
        with pytest.raises(IndexError):
            kernels.add_rows(out, np.array(rows, np.int32), values)
    with pytest.raises(ValueError):
        kernels.add_rows(np.zeros((4, 5), np.float32).T, np.array([0, 1, 2], np.int32), values)
    assert not out.any()

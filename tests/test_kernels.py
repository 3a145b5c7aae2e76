"""Row kernels against plain numpy references."""

import tracemalloc

import numpy as np

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

"""Row kernels against plain numpy references."""

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

"""Row kernels against plain numpy references."""

import numpy as np
import pytest

from octcomplete import kernels


def test_gather_rows_minus_one_reads_zero(rng):
    src = rng.normal(size=(6, 3)).astype(np.float32)
    idx = np.array([5, -1, 0, 0, -1, 2])
    got = kernels.gather_rows(src, idx)
    want = np.where((idx >= 0)[:, None], src[np.clip(idx, 0, None)], 0.0)
    assert got.dtype == src.dtype
    assert np.array_equal(got, want)
    assert kernels.gather_rows(src[:0], np.array([-1, -1])).tolist() == [[0.0] * 3] * 2


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("order", ["C", "F"])
def test_matmul_add_accumulates_in_place(dtype, order, rng):
    a = rng.normal(size=(50, 7)).astype(dtype)
    b = rng.normal(size=(7, 8)).astype(dtype)[:, ::2]  # strided, like a weight block
    start = rng.normal(size=(50, 4)).astype(dtype)
    out = np.array(start, order=order)
    res = kernels.matmul_add(out, a, b)
    assert res is out
    tol = 1e-5 if dtype == np.float32 else 1e-12
    assert np.allclose(out, start + a @ b, rtol=tol, atol=tol)


def test_matmul_add_empty_operands(rng):
    out = np.ones((0, 3), dtype=np.float32)
    kernels.matmul_add(out, np.zeros((0, 2), np.float32), np.ones((2, 3), np.float32))
    out = np.ones((4, 3), dtype=np.float32)
    kernels.matmul_add(out, np.zeros((4, 0), np.float32), np.ones((0, 3), np.float32))
    assert np.array_equal(out, np.ones((4, 3)))

"""Smoke test of benchmarks/bench_kernels.py, so the script keeps running."""

import importlib.util
import os

import numpy as np

BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks", "bench_kernels.py")


def load_bench():
    spec = importlib.util.spec_from_file_location("bench_kernels", BENCH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_bench_runs_every_case_at_tiny_size(capsys):
    rows = load_bench().bench(n=800, repeats=1)
    names = [name for name, _ in rows]
    assert names == [
        "interleave3", "deinterleave3", "gather_rows", "guided skip fwd+bwd",
        "kernel map transpose",
        "neighbor_table", "child_pairs", "child_pairs depth 5", "conv fwd+bwd",
        "conv fwd+bwd sparse",
        "downsample fwd+bwd", "batch_norm fwd+bwd", "batch_norm fwd+bwd wide", "sample_points",
    ]
    assert all(float(t) >= 0 for _, t in rows)
    assert "conv fwd+bwd" in capsys.readouterr().out


def test_bench_stencil_columns_are_injective():
    """No column of the stencil names a row twice, so its kernel map has a
    transpose: the map conv backward runs over."""
    bench = load_bench()
    table = bench.random_stencil(np.random.default_rng(1), 500, 27)
    i, t = np.nonzero(table >= 0)
    assert len(i) > 0
    assert len(np.unique(table[i, t] * 27 + t)) == len(i)  # distinct (row, tap) targets

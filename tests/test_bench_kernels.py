"""Smoke test of benchmarks/bench_kernels.py, so the script keeps running."""

import importlib.util
import os

import numpy as np

from octcomplete import network, nn

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
        "block map build",
        "neighbor_table", "child_pairs", "child_pairs depth 5", "conv fwd+bwd",
        "conv fwd+bwd sparse",
        "downsample fwd+bwd", "max_pool fwd+bwd",
        "batch_norm fwd+bwd", "batch_norm fwd+bwd wide", "batch_norm fwd+bwd tall",
        "batch_norm fwd+bwd eval", "sample_points",
    ]
    assert all(float(t) >= 0 for _, t in rows)
    assert "conv fwd+bwd" in capsys.readouterr().out


def test_bench_conv_levels_run_merged_and_split_groups():
    """The conv rows time both group kinds: the level read at every row
    runs merged only, the sparse shell level splits its taps."""
    bench = load_bench()
    rng = np.random.default_rng(1)
    shell = network.OctreeBatch([bench.shell_octree(rng, 2000, depth=8)])
    sparse = network.OctreeBatch([bench.shell_octree(rng, 400, depth=8)])
    full, thin = (nn.BlockMap(*level) for level in bench.conv_levels(shell, sparse))
    assert full.kinds == {nn.MERGED}
    assert nn.SPLIT in thin.kinds
    assert thin.empty.mean() > 0.5

"""Self-tests of the benchmark: span arithmetic, probes, and a tiny run of
every workload that must emit each metric BENCHMARK.json names."""

import dataclasses
import itertools
import json
import os
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

import bench
import make_weights
import spans
from octcomplete import cli, kernels

ROOT = os.path.dirname(bench.HERE)
TINY_SHAPE = dict(input_depth=4, output_depth=4, c0=8, c_max=16, n_res=1)


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_self_time_of_a_synthetic_span_tree():
    tree = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 2.0, 3.0, 1],
        ["a", 5.0, 6.0, 0],
        ["c", 7.0, 9.5, 0],
    ]
    st = spans.self_times(tree)
    assert st == pytest.approx({"root": 3.5, "a": 3.0, "b": 1.0, "c": 2.5})
    assert sum(st.values()) == pytest.approx(10.0)


def test_tracer_records_parents_and_skips_reentry():
    tr = spans.Tracer()
    owner = types.SimpleNamespace()
    owner.inner = lambda x: x + 1
    owner.outer = lambda x: owner.inner(x) * 2
    probes = spans.Probes(tr)
    probes.wrap(owner, "inner", "layer", before=lambda t, a: t.add("calls"))
    probes.wrap(owner, "outer", "layer", before=lambda t, a: t.add("calls"))
    with tr.span("root"):
        assert owner.outer(1) == 4
        assert owner.inner(1) == 2
    probes.remove()
    assert [(s[0], s[3]) for s in tr.spans] == [("root", -1), ("layer", 0), ("layer", 0)]
    assert tr.counts["calls"] == 2  # outer's call of inner stays inside one span
    assert owner.inner(1) == 2 and len(tr.spans) == 3


def test_install_and_remove_restore_the_package():
    before = kernels.scatter_add
    probes = spans.install(spans.Tracer())
    assert kernels.scatter_add is not before
    probes.remove()
    assert kernels.scatter_add is before
    assert probes.missing == []


def test_benchmark_json_matches_the_code():
    spec = declared()
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.LAYER_UNITS


def test_shape_kind_predicts_the_primitive_of_make_shape_pair():
    seeds = list(itertools.islice(bench.seed_stream(0), 40))
    for s in seeds:
        pts = cli.make_shape_pair(s, views=bench.VIEWS).complete.positions
        r = np.linalg.norm(pts - pts.mean(axis=0), axis=1)
        assert (r.std() < 1e-2 * r.mean()) == (bench.shape_kind(s) == "sphere")
    assert {bench.shape_kind(s) for s in seeds} == set(cli._SHAPE_KINDS)


def test_shape_pairs_cycle_kinds_within_the_size_band():
    wl = bench.WORKLOADS["train-shape"]
    pairs = bench.make_pairs(wl, seed=3)
    kinds = [bench.shape_kind(p.seed) for p in pairs]
    assert kinds == list(cli._SHAPE_KINDS) * 2
    depth = wl.spec["input_depth"] - 1
    for kind, p in zip(kinds, pairs):
        size = bench.occupied_cells(p.complete, depth) + bench.occupied_cells(p.partial, depth)
        assert abs(size / wl.pair_cells[kind] - 1) <= bench.SIZE_BAND


@pytest.fixture
def tiny(tmp_path, monkeypatch):
    """Tiny variants of every workload, with freshly trained tiny weights and
    shape pairs taken at any size."""
    monkeypatch.setattr(bench, "SETUP_REPEATS", 1)
    monkeypatch.setattr(bench, "OUT_DIR", str(tmp_path))
    path = str(tmp_path / "tiny.ockp")
    digest = make_weights.train_weights(TINY_SHAPE, path, steps=2, seeds=range(4))
    small = dict(distinct=1, prefix=1, pair_cells=None)
    wl = bench.WORKLOADS
    return {
        "train-shape": dataclasses.replace(
            wl["train-shape"], spec=TINY_SHAPE, batch_size=2, **small),
        "train-scene": dataclasses.replace(
            wl["train-scene"], spec=dict(wl["train-scene"].spec, c0=8, c_max=16, n_res=0),
            batch_size=1, **small),
        "infer-shape": dataclasses.replace(
            wl["infer-shape"], spec=TINY_SHAPE, batch_size=2, weights=path,
            weights_sha256=digest, **small),
    }


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_tiny_run_emits_every_named_metric(tiny, name):
    spec = declared()
    for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        res, _ = bench.run_workload(tiny[name], seed=0, seconds=0, trace=trace)
        assert res["correct"], res["errors"]
        assert res["attempted"] >= 1 and res["failed"] == 0
        got = {n: m["unit"] for n, m in res["metrics"].items()}
        assert got == {m["name"]: m["unit"] for m in listed}
    if name == "infer-shape":
        assert res["metrics"]["network.leaves"]["value"] > 0
    else:
        assert res["metrics"]["autodiff.backward.s"]["value"] > 0


def test_weights_checksum_mismatch_is_fatal(tiny):
    wl = dataclasses.replace(tiny["infer-shape"], weights_sha256="0" * 64)
    with pytest.raises(bench.BenchError, match="sha256"):
        bench.run_workload(wl, seed=0, seconds=0, trace=0)


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(bench.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, "perfbench/run.py", "--workload", "infer-shape",
           "--seed", "0", "--seconds", "1", "--trace", "0"]
    p = subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout

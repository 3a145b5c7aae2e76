"""Smoke test of benchmarks/bench_step.py, so the script keeps running."""

import importlib.util
import math
import os
import re

import pytest

BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks", "bench_step.py")


@pytest.fixture
def bench_step():
    spec = importlib.util.spec_from_file_location("bench_step", BENCH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def run_steps(mod, spec, batch, capsys):
    """Two steps of bench(spec), its first line naming the spec and the
    batch size and each step's line checked against the row returned;
    returns the (loss, digest) rows."""
    rows = mod.bench(steps=2, spec=spec)
    head, *lines = capsys.readouterr().out.splitlines()
    assert head.startswith(f"spec {spec}, batch {batch}, lr ")
    assert len(rows) == len(lines) == 2
    for k, ((secs, loss, rss, digest), line) in enumerate(zip(rows, lines)):
        m = re.fullmatch(
            r"step (\d+)  s (\S+)  loss (\S+)  peak_rss_mib (\S+)  params ([0-9a-f]{16})",
            line,
        )
        assert m and int(m[1]) == k
        assert secs > 0 and math.isfinite(loss) and rss > 0
        assert float(m[3]) == float(f"{loss:.9g}")
        assert m[5] == digest
    return [(loss, digest) for _, loss, _, digest in rows]


def test_bench_step_prints_time_loss_and_peak_per_step(bench_step, capsys):
    tiny = dict(input_depth=4, output_depth=4, c0=4, c_max=8, n_res=0, hidden=4)
    runs = [run_steps(bench_step, tiny, 4, capsys) for _ in range(2)]
    # the same steps repeat bit for bit, and each step moves the parameters
    assert runs[0] == runs[1]
    assert runs[0][0][1] != runs[0][1][1]


def test_bench_step_trains_the_scene_head_on_rooms(bench_step, capsys):
    """A tiny net with the depth-8 scene head, on the two rooms that
    `--scene` trains on, prints its steps and moves its parameters."""
    tiny = dict(bench_step.SCENE_SPEC, c0=4, c_max=8, n_res=0, hidden=4)
    assert tiny["scene_head"] and tiny["input_depth"] == 8
    (_, first), (_, second) = run_steps(bench_step, tiny, 2, capsys)
    assert first != second


def test_scene_spec_is_perfbench_train_scene(bench_step, monkeypatch):
    """`--scene` trains perfbench's train-scene net on a batch of its size,
    so its digests check the arithmetic that workload runs."""
    perfbench = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
    monkeypatch.syspath_prepend(perfbench)  # bench.py imports its sibling spans.py
    spec = importlib.util.spec_from_file_location(
        "perfbench_bench", os.path.join(perfbench, "bench.py")
    )
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    scene = bench.WORKLOADS["train-scene"]
    assert bench_step.SCENE_SPEC == scene.spec
    assert len(bench_step.SCENE_SEEDS) == scene.batch_size

"""Smoke test of benchmarks/bench_step.py, so the script keeps running."""

import importlib.util
import math
import os
import re

BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks", "bench_step.py")


def test_bench_step_prints_time_loss_and_peak_per_step(capsys):
    spec = importlib.util.spec_from_file_location("bench_step", BENCH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    tiny = dict(input_depth=4, output_depth=4, c0=4, c_max=8, n_res=0, hidden=4)
    runs = []
    for _ in range(2):
        rows = mod.bench(steps=2, spec=tiny)
        lines = capsys.readouterr().out.splitlines()
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
        runs.append([(loss, digest) for _, loss, _, digest in rows])
    # the same steps repeat bit for bit, and each step moves the parameters
    assert runs[0] == runs[1]
    assert runs[0][0][1] != runs[0][1][1]

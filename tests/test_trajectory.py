"""The append logic of benchmarks/trajectory.py, fed canned output: no
perfbench or bench_step run."""

import importlib.util
import json
import os

import pytest

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks", "trajectory.py")

ENV = {"blas": "openblas", "blas_threads": 1, "nproc": 2}


def load():
    spec = importlib.util.spec_from_file_location("trajectory", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def perfbench_output(iter_s, peak, correct=True):
    result = {
        "correct": correct, "attempted": 9, "failed": 0,
        "metrics": {
            "iter_s.p50": {"value": iter_s, "unit": "s"},
            "peak_rss_mib": {"value": peak, "unit": "MiB"},
        },
    }
    return "\n".join([
        "perfbench train-shape seed=1 seconds=15 trace=0",
        "env " + json.dumps(ENV),
        f"  iter_s.p50  {iter_s} s  (step_s.p50)",
        json.dumps(result),
    ]) + "\n"


def lines(path):
    with open(path) as f:
        return [json.loads(line) for line in f]


def test_e2e_line_appends_one_valid_line(tmp_path):
    tj = load()
    path = str(tmp_path / "BENCH_e2e.json")
    outputs = [perfbench_output(0.9, 210.0), perfbench_output(0.8, 200.0),
               perfbench_output(1.0, 205.0, correct=False)]
    for grown in (1, 2):
        tj.append_line(path, tj.e2e_record("train-shape", (1, 2, 3), outputs, "abc", False, "d"))
        got = lines(path)
        assert len(got) == grown
    rec = got[-1]
    assert rec["workload"] == "train-shape" and rec["seeds"] == [1, 2, 3]
    assert rec["commit"] == "abc" and rec["env"] == ENV
    assert rec["correct"] is False and rec["attempted"] == 27 and rec["failed"] == 0
    assert rec["metrics"]["iter_s.p50"] == {
        "unit": "s", "values": [0.9, 0.8, 1.0], "median": 0.9, "range": [0.8, 1.0]
    }
    assert rec["metrics"]["peak_rss_mib"]["median"] == 205.0


@pytest.mark.parametrize(
    "text",
    [
        "",
        "env {}\nnot json\n",
        perfbench_output(0.9, 210.0).replace('"correct": true', '"correct": 1'),
        perfbench_output(0.9, 210.0).replace('"value": 0.9', '"value": "0.9"'),
        perfbench_output(0.9, 210.0).replace("env ", "environment "),
        "env {}\n" + json.dumps({"correct": True, "attempted": 1, "failed": 0}) + "\n",
    ],
    ids=["empty", "not-json", "correct-not-bool", "value-not-number", "no-env", "no-metrics"],
)
def test_malformed_perfbench_output_is_refused(tmp_path, text):
    tj = load()
    path = tmp_path / "BENCH_e2e.json"
    path.write_text('{"commit": "old"}\n')
    good = perfbench_output(0.9, 210.0)
    with pytest.raises(ValueError):
        tj.append_line(str(path), tj.e2e_record("w", (1, 2), [good, text], "abc", False, "d"))
    assert path.read_text() == '{"commit": "old"}\n'


def test_a_file_with_a_malformed_line_takes_no_more(tmp_path):
    tj = load()
    path = tmp_path / "BENCH_e2e.json"
    path.write_text('{"commit": "old"}\n[1, 2]\n')
    with pytest.raises(ValueError, match=":2 is not a JSON object"):
        tj.append_line(str(path), {"commit": "new"})
    assert path.read_text() == '{"commit": "old"}\n[1, 2]\n'


def test_depth6_line_holds_every_step(tmp_path):
    tj = load()
    text = (
        "spec {'n_res': 4}, batch 4, lr 0.01, BLAS threads 1\n"
        "step 0  s 7.670  loss 52.1988068  peak_rss_mib 878.1  params f5dddabe5aae6845\n"
        "step 1  s 6.952  loss 100.752495  peak_rss_mib 895.5  params 1cf47c17e80f61c2\n"
    )
    path = str(tmp_path / "BENCH_depth6.json")
    tj.append_line(path, tj.depth6_record(text, "abc", True, "d"))
    (rec,) = lines(path)
    assert rec["dirty"] is True and rec["n_res"] == 4
    assert rec["steps"][1] == {
        "s": 6.952, "loss": 100.752495, "peak_rss_mib": 895.5, "params": "1cf47c17e80f61c2"
    }
    with pytest.raises(ValueError, match="no numbered step lines"):
        tj.depth6_record(text.replace("step 0", "step 2"), "abc", True, "d")

"""Append this checkout's benchmark results to the trajectory files.

Run from anywhere, with no options:

    python3 benchmarks/trajectory.py

For each workload that BENCHMARK.json lists, it runs

    python3 perfbench/run.py --workload <name> --seed <s> --seconds 15 --trace 0

at seeds 1, 2 and 3, one process each, and appends one JSON line per
workload to BENCH_e2e.json: the commit, whether the tree differed from it,
the date, perfbench's `env` line, the seeds, whether every run was correct,
the attempted and failed iterations, and per metric its unit, the value at
each seed, their median and their range. Then it runs

    benchmarks/bench_step.py --steps 3 --n-res 4

and appends one line to BENCH_depth6.json: per step the seconds, the loss,
the peak resident set so far in MiB and the parameter digest. A run that
fails or prints no valid result stops the script before anything of its
workload is written. On a 2-core x86 it took 3.5 minutes: 9 perfbench
runs of about 20 s each and about 30 s for the depth-6 steps.

Each file holds one JSON object per line, oldest first; a later change
quotes the lines of its own commit against its parent's.
"""

import datetime
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2, 3)
SECONDS = 15
N_RES = 4
STEP_LINE = re.compile(
    r"step (\d+)  s (\S+)  loss (\S+)  peak_rss_mib (\S+)  params ([0-9a-f]{16})"
)


def perfbench_result(text):
    """The env object and the result object of one perfbench run's output;
    ValueError unless the last line is a result with every field typed."""
    lines = text.strip().splitlines()
    if not lines:
        raise ValueError("perfbench printed nothing")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        raise ValueError(f"perfbench's last line is not JSON: {lines[-1]!r}") from e
    if not isinstance(result, dict) or not isinstance(result.get("correct"), bool):
        raise ValueError("perfbench's result has no boolean 'correct'")
    for key in ("attempted", "failed"):
        if not isinstance(result.get(key), int):
            raise ValueError(f"perfbench's result has no integer {key!r}")
    metrics = result.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        raise ValueError("perfbench's result has no metrics")
    for name, m in metrics.items():
        if not (isinstance(m, dict) and isinstance(m.get("value"), (int, float))
                and isinstance(m.get("unit"), str)):
            raise ValueError(f"perfbench's metric {name!r} has no numeric value and unit")
    envs = [line[4:] for line in lines if line.startswith("env ")]
    if len(envs) != 1:
        raise ValueError("perfbench printed no single env line")
    return json.loads(envs[0]), result


def e2e_record(workload, seeds, outputs, commit, dirty, date):
    """One BENCH_e2e.json line from the outputs of `workload`'s runs at
    `seeds`, which must report the same metrics."""
    parsed = [perfbench_result(text) for text in outputs]
    if len(parsed) != len(seeds):
        raise ValueError(f"{len(parsed)} outputs for {len(seeds)} seeds")
    results = [r for _, r in parsed]
    names = list(results[0]["metrics"])
    if any(list(r["metrics"]) != names for r in results):
        raise ValueError("the runs report different metrics")
    metrics = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "values": values,
            "median": statistics.median(values),
            "range": [min(values), max(values)],
        }
    return {
        "commit": commit,
        "dirty": dirty,
        "date": date,
        "workload": workload,
        "env": parsed[0][0],
        "seeds": list(seeds),
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def depth6_record(text, commit, dirty, date):
    """One BENCH_depth6.json line from bench_step.py's output."""
    found = [m for m in map(STEP_LINE.fullmatch, text.splitlines()) if m]
    if not found or [int(m[1]) for m in found] != list(range(len(found))):
        raise ValueError("bench_step printed no numbered step lines")
    steps = [{"s": float(m[2]), "loss": float(m[3]), "peak_rss_mib": float(m[4]),
              "params": m[5]} for m in found]
    spec = [line for line in text.splitlines() if line.startswith("spec ")]
    return {"commit": commit, "dirty": dirty, "date": date, "n_res": N_RES,
            "spec": spec[0] if spec else None, "steps": steps}


def append_line(path, record):
    """Append `record` to the JSON-lines file at `path` as one line, after
    checking that every line already there is a JSON object."""
    line = json.dumps(record, sort_keys=True, allow_nan=False)
    if os.path.exists(path):
        with open(path) as f:
            for k, old in enumerate(f, 1):
                if not isinstance(json.loads(old), dict):
                    raise ValueError(f"{path}:{k} is not a JSON object")
    with open(path, "a") as f:
        f.write(line + "\n")


def run(argv, env=None):
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{' '.join(argv)} exited {done.returncode}")
    return done.stdout


def main():
    commit = run(["git", "rev-parse", "HEAD"]).strip()
    dirty = bool(run(["git", "status", "--porcelain", "--untracked-files=no"]).strip())
    date = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    for workload in workloads:
        outputs = []
        for seed in SEEDS:
            print(f"perfbench {workload} seed {seed}", flush=True)
            outputs.append(run([sys.executable, "perfbench/run.py", "--workload", workload,
                                "--seed", str(seed), "--seconds", str(SECONDS),
                                "--trace", "0"]))
        record = e2e_record(workload, SEEDS, outputs, commit, dirty, date)
        append_line(os.path.join(ROOT, "BENCH_e2e.json"), record)
    print(f"bench_step --n-res {N_RES}", flush=True)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    text = run([sys.executable, "benchmarks/bench_step.py", "--steps", "3",
                "--n-res", str(N_RES)], env=env)
    append_line(os.path.join(ROOT, "BENCH_depth6.json"), depth6_record(text, commit, dirty, date))


if __name__ == "__main__":
    main()

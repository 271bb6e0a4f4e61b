"""Smoke test of the benchmark itself, at a tiny node count.

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json it runs `run.py` once untraced and
once traced with `--nodes 4`, and checks that the result line carries
exactly the metric names and units BENCHMARK.json declares, that every
call was correct, and that the traced spans nest: each span lies inside
its parent and the layer spans of a workload call fit inside that call's
wall time.
Last, it checks that the benchmark refuses to run without the package.
Exits 0 when every check holds.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")


def run(args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def check_spans(path):
    spans = np.load(path)
    start, end, parent = spans["start_ns"], spans["end_ns"], spans["parent"]
    roots = parent < 0
    assert np.all(end >= start), "span ends before it starts"
    assert np.all(spans["layer"][roots] == 0), "a layer span has no parent"
    child = ~roots
    assert np.all(start[child] >= start[parent[child]]), "span starts before its parent"
    assert np.all(end[child] <= end[parent[child]]), "span ends after its parent"
    dur = end - start
    covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
    assert np.all(covered <= dur), "child spans exceed their parent's wall time"


def check_result(proc, workload, trace, expected):
    assert proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result.keys()
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    names = set(result["metrics"])
    assert names == set(expected), f"missing {set(expected) - names}, unexpected {names - set(expected)}"
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}, name
        assert metric["unit"] == expected[name], f"{name} in {metric['unit']}, declared {expected[name]}"
        assert math.isfinite(metric["value"]), name
        if not trace:
            assert metric["value"] > 0, f"{name} = {metric['value']}"
        elif name.endswith(".share"):
            assert 0.0 <= metric["value"] <= 1.0, f"{name} = {metric['value']}"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            proc = run(["--workload", workload, "--seed", "3", "--seconds", "1",
                        "--trace", str(trace), "--nodes", "4"])
            check_result(proc, workload, trace, expected)
        check_spans(os.path.join(OUT, f"trace_{workload}.npz"))
        print(f"smoke: {workload} ok", flush=True)

    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in bench["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        workload = bench["workloads"][0]["name"]
        proc = run(["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
        assert proc.returncode != 0, "ran without the package"
        assert '"metrics"' not in proc.stdout, "printed a result without the package"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("smoke: refuses to run without the package, ok")


if __name__ == "__main__":
    main()

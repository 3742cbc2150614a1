"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Checks BENCHMARK.json against the benchmark's own lists, runs every
workload once at minimal size (one iteration, untraced and traced) and
asserts that each named metric is present with its unit and that no
iteration failed.  Last, it runs the benchmark in a directory holding
only BENCHMARK.json and perfbench/, where it must fail without printing
a result.  Exits non-zero on the first problem.
"""

import json
import os
import re
import shutil
import subprocess
import sys

from tracer import layer_metric_names
from workloads import ROOT, WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}, sorted(spec)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS), "workloads differ from workloads.py"
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and w["why"] == WORKLOADS[w["name"]].why, w
        assert len(w["why"]) <= 200 and "\n" not in w["why"], w["name"]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names)), "a name is used twice"
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25, m
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]) and m["better"] in ("lower", "higher"), m
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert layers == layer_metric_names(), "per_layer differs from tracer.layer_metric_names()"
    return spec


def run(args, cwd):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py"] + args, cwd=cwd, capture_output=True, text=True, timeout=180
    )
    return proc.returncode, proc.stdout, proc.stderr


def check_result(spec, workload, trace):
    rc, out, err = run(["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)], ROOT)
    assert rc == 0, "%s trace=%d exited %d:\n%s" % (workload, trace, rc, err)
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {n: m["unit"] for n, m in result["metrics"].items()}
    assert got == wanted, "%s trace=%d: metrics or units differ" % (workload, trace)
    values = [m["value"] for m in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) for v in values), workload
    if not trace:
        assert all(v > 0 for v in values), "%s: an end-to-end metric is not positive" % workload
    print("ok %s trace=%d (%d metrics)" % (workload, trace, len(got)))


def check_without_sources():
    bare = os.path.join(ROOT, ".perfbench_out", "bare-%d" % os.getpid())
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(
            os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__")
        )
        rc, out, _ = run(["--workload", "protocol_day", "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare)
    assert rc != 0, "benchmark succeeded without the program's sources"
    assert '"metrics"' not in out, "benchmark printed a result without the program's sources"
    print("ok fails without sources (exit %d)" % rc)


def main():
    spec = load_benchmark()
    print("ok BENCHMARK.json")
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_result(spec, workload, trace)
    check_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())

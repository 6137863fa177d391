#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at a tiny size, untraced and
traced. Checks that the run exits 0, that its output checks pass, and that
every metric BENCHMARK.json names is printed with its unit.

Run it from the repository root:  python3 flexbench/selftest.py
"""
import json
import subprocess
import sys

spec = json.load(open("BENCHMARK.json"))
problems = []
for workload in [w["name"] for w in spec["workloads"]]:
    for trace, names in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
        cmd = spec["command"] + [
            "--workload", workload, "--seed", "1", "--seconds", "1",
            "--trace", trace, "--tiny",
        ]
        run = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        where = f"{workload} --trace {trace}"
        if run.returncode != 0:
            problems.append(f"{where}: exit {run.returncode}: {run.stderr[-500:]}")
            continue
        result = json.loads(run.stdout.strip().splitlines()[-1])
        if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
            problems.append(f"{where}: result keys {sorted(result)}")
        if not result["correct"] or result["failed"] or result["attempted"] < 1:
            problems.append(f"{where}: checks failed: {run.stderr[-1000:]}")
        for m in names:
            got = result["metrics"].get(m["name"])
            if got is None:
                problems.append(f"{where}: {m['name']} missing")
            elif got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
                problems.append(f"{where}: {m['name']} printed as {got}")
        print(f"{where}: {len(result['metrics'])} metrics, "
              f"{result['attempted']} attempted, {result['failed']} failed")
for p in problems:
    print("FAIL", p)
sys.exit(1 if problems else 0)

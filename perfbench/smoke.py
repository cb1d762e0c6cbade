"""Smoke check of the benchmark itself at its smallest size.

    python3 perfbench/smoke.py

For every workload it runs the command of BENCHMARK.json with
`--seconds 1`, once untraced and once traced, and checks that:

- every metric BENCHMARK.json names is printed with its unit (the
  end-to-end metrics untraced, the per-layer metrics traced);
- no op failed (failed_ratio 0) and the run reports itself correct;
- the traced spans nest: each child lies inside its parent, in one op;
- the self times of the traced replay sum to no more than its wall time.

It also checks that the command fails, without printing a result, in a
directory that holds only BENCHMARK.json and the benchmark's own files,
and in a copy of the checkout whose reference digest for one hierarchy
walk is wrong: one failed op must fail the run.  Exits 1 on the first
failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 7


def fail(message: str):
    print(f"FAIL: {message}")
    sys.exit(1)


def run(cwd: Path, workload: str, trace: int):
    argv = [*SPEC["command"], "--workload", workload, "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600, check=False)


def check_result(workload: str, trace: int):
    done = run(ROOT, workload, trace)
    if done.returncode != 0:
        fail(f"{workload} trace {trace} exited {done.returncode}: {done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload} trace {trace}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{workload} trace {trace}: correct {result['correct']}, failed {result['failed']}")
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != wanted:
        fail(f"{workload} trace {trace}: printed metrics differ from BENCHMARK.json: "
             f"{sorted(set(printed.items()) ^ set(wanted.items()))}")
    if any(not isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
        fail(f"{workload} trace {trace}: a metric value is not a number")
    print(f"ok: {workload} trace {trace}: {len(printed)} metrics, {result['attempted']} ops, none failed")


def check_trace(workload: str):
    trace = json.loads((HERE / "out" / f"trace-{workload}-{SEED}.json").read_text(encoding="utf-8"))
    spans = trace["spans"]
    for name, start, end, parent, op in spans:
        if not start <= end:
            fail(f"{workload}: span {name} ends before it starts")
        if parent is None:
            continue
        p_name, p_start, p_end, _, p_op = spans[parent]
        if not (p_start <= start and end <= p_end and p_op == op):
            fail(f"{workload}: span {name} is not inside its parent {p_name}")
    self_sum = sum(trace["phases"]["ops"]["self_s"].values())
    if self_sum > trace["ops_wall_s"]:
        fail(f"{workload}: self times sum to {self_sum:.6f} s, more than the wall time {trace['ops_wall_s']:.6f} s")
    print(f"ok: {workload}: {len(spans)} spans nest; self times {self_sum:.3f} s <= wall {trace['ops_wall_s']:.3f} s")


def check_bare_directory():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = run(bare, SPEC["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"correct"' in done.stdout:
        fail("the command succeeded or printed a result without the library sources")
    print(f"ok: without the library sources the command exits {done.returncode} and prints no result")


def check_wrong_digest():
    copy = HERE / "out" / "wrong-digest"
    shutil.rmtree(copy, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
        (copy / "tests").mkdir()
        shutil.copy2(ROOT / "tests" / "oracles.py", copy / "tests" / "oracles.py")
        shutil.copytree(HERE, copy / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy2(ROOT / "BENCHMARK.json", copy / "BENCHMARK.json")
        expected_path = copy / HERE.name / "expected.json"
        expected = json.loads(expected_path.read_text(encoding="utf-8"))
        key = sorted(expected["hierarchy"])[0]
        expected["hierarchy"][key] = "0" * 16
        expected_path.write_text(json.dumps(expected), encoding="utf-8")
        done = run(copy, "hierarchy", 0)
    finally:
        shutil.rmtree(copy, ignore_errors=True)
    if done.returncode == 0 or '"correct"' in done.stdout:
        fail(f"a wrong reference digest for {key} did not fail the run")
    print(f"ok: a wrong reference digest for {key} fails the run (exit {done.returncode}, no result)")


def main():
    check_bare_directory()
    check_wrong_digest()
    for workload in (w["name"] for w in SPEC["workloads"]):
        check_result(workload, 0)
        check_result(workload, 1)
        check_trace(workload)
    print("smoke check passed")


if __name__ == "__main__":
    main()

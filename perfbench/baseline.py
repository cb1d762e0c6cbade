"""Measure the benchmark's own run-to-run spread and record a baseline.

    python3 perfbench/baseline.py [--write]

Runs the command of BENCHMARK.json for every workload of BENCHMARK.json,
SETS sets of SEEDS runs, one run at a time, each run with its own seed.
For every end-to-end metric it prints the median and the spread (distance
between the quartiles as a share of the median) of each set, flags a
spread above a third of the metric's bound or above the bound, and flags
a second-set median worse than the first by more than the bound.  With
`--write` it also makes one traced run per workload, checks the predicted
layer map against it, and writes `perfbench/results/baseline.json` and
`perfbench/results/layer_map.json`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEEDS = 10  # runs per set
SETS = 2


def run(workload: str, seed: int, trace: int) -> dict:
    argv = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if done.returncode != 0:
        raise SystemExit(f"error: {' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def measure_set(workload, seeds):
    results = [run(workload, seed, 0) for seed in seeds]
    out = {"seeds": list(seeds),
           "correct": all(r["correct"] for r in results),
           "attempted": [r["attempted"] for r in results],
           "failed": [r["failed"] for r in results],
           "metrics": {}}
    for metric in SPEC["end_to_end"]:
        stats = spread([r["metrics"][metric["name"]]["value"] for r in results])
        stats["unit"] = metric["unit"]
        out["metrics"][metric["name"]] = stats
    return out


def report(workload, sets):
    for metric in SPEC["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        cells = []
        for s in sets:
            st = s["metrics"][name]
            flag = "" if st["spread"] <= bound / 3 else (" >b/3" if st["spread"] <= bound else " >BOUND")
            cells.append(f"med {st['median']:10.4f} iqr/med {st['spread']:.3f}{flag}")
        first, second = sets[0]["metrics"][name]["median"], sets[-1]["metrics"][name]["median"]
        change = (second - first) / first
        worse = change if metric["better"] == "lower" else -change
        drift = f" | 2nd vs 1st {change:+.3f}" + (" WORSE>bound" if worse > bound else "")
        print(f"{workload:12s} {name:12s} {' | '.join(cells)}{drift}")


def layer_map(traces):
    """Check the predicted layer map against one traced run per workload."""

    def ops_phase(workload):
        return traces[workload]["phases"]["ops"]

    def linalg_calls(workload):
        return sum(v for k, v in ops_phase(workload)["calls"].items() if k.startswith("linalg."))

    checks = []
    if "hierarchy" in traces:
        share = ops_phase("hierarchy")["self_s"].get("reps.check_representation", 0.0) / traces["hierarchy"]["ops_wall_s"]
        checks.append(("check_representation takes >= 90% of hierarchy op time (traced)", share, share >= 0.9))
    if "grid-search" in traces:
        calls = ops_phase("grid-search")["calls"].get("reps.check_representation", 0)
        checks.append(("check_representation has zero calls in the grid-search timed region", calls, calls == 0))
        calls = linalg_calls("grid-search")
        checks.append(("linalg has zero calls in the grid-search timed region", calls, calls == 0))
    for workload in traces:
        calls = linalg_calls(workload)
        want_nonzero = workload == "forms"
        checks.append((f"linalg calls on {workload} are {'nonzero' if want_nonzero else 'zero'}",
                       calls, (calls > 0) == want_nonzero))
    for text, value, holds in checks:
        print(f"{'holds' if holds else 'FAILS'}: {text} (observed {value:.4g})")
    return [{"prediction": text, "observed": value, "holds": holds} for text, value, holds in checks]


def main():
    workloads = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="traced runs, layer map, results files")
    args = parser.parse_args()

    baseline = {}
    for workload in workloads:
        sets = [measure_set(workload, range(1 + k * SEEDS, 1 + (k + 1) * SEEDS)) for k in range(SETS)]
        baseline[workload] = sets
        report(workload, sets)
        sys.stdout.flush()
    if not args.write:
        return
    traces, per_layer = {}, {}
    for workload in workloads:
        per_layer[workload] = run(workload, 1, 1)
        traces[workload] = json.loads((HERE / "out" / f"trace-{workload}-1.json").read_text(encoding="utf-8"))
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    (results / "baseline.json").write_text(json.dumps({
        "run_seconds": SPEC["run_seconds"],
        "end_to_end": baseline,
        "per_layer_seed_1": per_layer,
    }, indent=1) + "\n", encoding="utf-8")
    (results / "layer_map.json").write_text(json.dumps({
        "tracing_overhead": {w: traces[w]["ops_wall_s"] / traces[w]["untraced_wall_s"] for w in traces},
        "checks": layer_map(traces),
    }, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()

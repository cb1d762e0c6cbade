"""Benchmark of the superybe library and CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The script re-executes itself in a fresh
interpreter with PYTHONHASHSEED=0, no SUPERYBE_THREADS and no bytecode
writes, imports `superybe` from the checkout's `src/`, and drives one
workload from one thread as a closed loop with one client: each op starts
when the previous one returned.  Every input comes from `--seed`.

It sets the workload up SETUP_REPEATS times or more (the median is
`setup_s`), runs the workload's prologue once, then at least MIN_PASSES
passes over the same pass of ops (the workload's POOL_CYCLES whole
cycles), as many as fit in `--seconds`.  It keeps the first result of each op and checks
that every later run of the op gives an equal one; after the passes it
checks the first results.  If any op failed, it names the failures on
standard error and exits 1 without a result.  Otherwise the last line of
standard output is one JSON object: `correct`, `attempted`, `failed` and
`metrics`, the end-to-end metrics with `--trace 0` and the per-layer
metrics with `--trace 1`.

Times are adjusted for the machine's current speed: a gauge (fixed work on
stdlib Fractions, independent of superybe) runs after every op, and an
op's time is scaled by REFERENCE_S over the median gauge around it.  An
op's time is the median of its adjusted runs.  Set-up is timed in laps
that the workload marks, each adjusted by the gauges on either side of
it.  The load on a shared machine changes its speed by up to 1.8 times
from one run to the next; the raw figures are printed beside the adjusted
ones.

A traced run measures the same ops untraced first, then sets up once more
and replays one pass with the wrappers of `tracing.py` installed, and
writes the spans to `perfbench/out/trace-WORKLOAD-SEED.json`.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import resource
import statistics
import sys
from array import array
from collections import deque
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED_ENV = {"PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1"}
MIN_OPS = 100  # ops in a pass, so that at least ten samples lie beyond p90
SETUP_REPEATS = 5
SETUP_MIN_S = 1.0  # a short set-up repeats until its raw times sum to this
MIN_PASSES = 3
# median time of one gauge() on the 2-core machine the baseline was
# recorded on; adjusted times are times at that machine speed
REFERENCE_S = 340e-6
GAUGE_WINDOW = 3  # gauges taken on each side of an op run or set-up lap

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

# "<trace name>.calls" and "<trace name>.self_s" read the wrappers of
# tracing.py over the traced replay of the timed ops; the rest are derived
# in per_layer_metrics.
PER_LAYER = (
    "reps.check_representation.calls", "reps.check_representation.self_s", "reps.derived.calls",
    "reps.apply_vec.calls", "reps.apply_vec.self_s",
    "reps.find_even_isomorphism.self_s", "reps.intertwiner_space.self_s",
    "oop.oop_holds.calls", "oop.oop_holds.self_s", "oop.oop_defect.calls",
    "oop.grid_search_oops.self_s", "oop.grid.accept_ratio",
    "rmatrix.scybe_defect.calls", "rmatrix.scybe_defect.self_s", "rmatrix.scybe_defect.entry_pairs",
    "rmatrix.operator_to_rmatrix.self_s", "rmatrix.induced_coadjoint_operator.self_s",
    "rmatrix.beta_cocycle_check.self_s", "rmatrix.hierarchy_trace.self_s",
    "rmatrix.host_cache.hits", "rmatrix.host_cache.misses",
    "liesuper.bracket.calls", "liesuper.bracket.self_s",
    "liesuper.semidirect_product.calls", "liesuper.semidirect_product.self_s",
    "liesuper.classify_form.self_s",
    "linalg.rref.calls", "linalg.rref.self_s", "linalg.det.calls", "linalg.det.self_s",
    "linalg.nullspace.self_s",
    "graded.GradedLinearMap.built", "graded.GradedLinearMap.apply.calls",
    "graded.GradedLinearMap.apply.self_s", "graded.fraction_eq.calls", "graded.fraction_arith.calls",
    "fileformat.parse.self_s", "fileformat.emit.self_s", "fileformat.emit.bytes",
    "cli.main.self_s", "catalog.load_fixture.self_s", "trace.overhead_ratio",
)
DERIVED_REPS = ("reps.adjoint", "reps.dual_rep", "reps.parity_reverse_rep", "reps.direct_sum_rep")


def pin_environment():
    env = dict(os.environ)
    env.pop("SUPERYBE_THREADS", None)
    env.update(PINNED_ENV)
    if env != dict(os.environ):
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, *sys.argv], env)


def load_library():
    """Import superybe from the checkout and the test suite's dense oracles."""
    package = ROOT / "src" / "superybe"
    oracles_path = ROOT / "tests" / "oracles.py"
    if not (package / "__init__.py").is_file() or not oracles_path.is_file():
        raise SystemExit(f"error: no superybe checkout at {ROOT} (need src/superybe and tests/oracles.py)")
    sys.path.insert(0, str(ROOT / "src"))
    import superybe

    if Path(superybe.__file__).resolve().parent != package:
        raise SystemExit(f"error: imported superybe from {superybe.__file__}, not from {package}")
    spec = importlib.util.spec_from_file_location("superybe_test_oracles", oracles_path)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return oracles


def clear_host_caches():
    """Empty the semidirect host caches, so that every set-up fills them."""
    from superybe import rmatrix

    rmatrix._plain_semidirect.cache_clear()
    rmatrix._dual_semidirect.cache_clear()


def host_cache_info():
    from superybe import rmatrix

    infos = (rmatrix._plain_semidirect.cache_info(), rmatrix._dual_semidirect.cache_info())
    return sum(i.hits for i in infos), sum(i.misses for i in infos)


def gauge():
    """Time fixed work on stdlib Fractions: the machine's current speed."""
    start = perf_counter()
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(1, i % 7 + 1) * i
    return perf_counter() - start


class Clock:
    """Times op runs, with a gauge before the first and after each one.

    A run is adjusted once the GAUGE_WINDOW gauges after it are taken, and
    only its adjusted time is kept, so that the memory the clock holds
    grows by a few bytes per run.
    """

    def __init__(self, count):
        self.adjusted = [array("d") for _ in range(count)]
        self.gauges = deque([gauge()], maxlen=2 * GAUGE_WINDOW)
        self.taken = 1  # gauges taken so far
        self.pending = deque()  # (run number, op index, raw seconds) awaiting gauges
        self.runs = 0
        self.raw_s = 0.0

    def time(self, index, op):
        start = perf_counter()
        result = call(op)
        seconds = perf_counter() - start
        self.pending.append((self.runs, index, seconds))
        self.runs += 1
        self.raw_s += seconds
        self.gauges.append(gauge())
        self.taken += 1
        if len(self.pending) == GAUGE_WINDOW:
            self._adjust()
        return result

    def _adjust(self):
        """Adjust the oldest pending run k by the gauges k+1-GAUGE_WINDOW
        to k+GAUGE_WINDOW (gauge k is taken just before run k), or as
        many of them as exist."""
        k, index, seconds = self.pending.popleft()
        oldest = self.taken - len(self.gauges)
        window = list(self.gauges)[max(0, k + 1 - GAUGE_WINDOW - oldest):]
        self.adjusted[index].append(seconds * REFERENCE_S / statistics.median(window))

    def op_times(self):
        """The adjusted time of each op: the median over its runs."""
        while self.pending:
            self._adjust()
        return [statistics.median(a) for a in self.adjusted]


def gauge_median():
    return statistics.median(gauge() for _ in range(GAUGE_WINDOW))


class SetupTimer:
    """Times one set-up in the laps the workload marks with `lap()`; each
    lap is adjusted by the gauges taken just before and just after it."""

    def __init__(self):
        self.adjusted = self.raw = 0.0
        self.before = gauge_median()
        self.start = perf_counter()

    def lap(self):
        seconds = perf_counter() - self.start
        after = gauge_median()
        self.adjusted += seconds * REFERENCE_S * 2 / (self.before + after)
        self.raw += seconds
        self.before = after
        self.start = perf_counter()


def set_up(cls, seed, ctx):
    """Set up at least SETUP_REPEATS times, more until the raw set-up times
    sum to SETUP_MIN_S; returns the last workload, the median (adjusted,
    raw) set-up time and the number of set-ups."""
    adjusted, raw = [], []
    while len(raw) < SETUP_REPEATS or sum(raw) < SETUP_MIN_S:
        workload = None  # free the previous set-up before collecting
        clear_host_caches()
        gc.collect()
        timer = SetupTimer()
        ctx.lap = timer.lap
        workload = cls(seed, ctx)
        timer.lap()
        adjusted.append(timer.adjusted)
        raw.append(timer.raw)
    ctx.lap = no_lap
    return workload, statistics.median(adjusted), statistics.median(raw), len(raw)


def no_lap():
    pass


def call(op):
    """Run one op; an exception is its outcome, not the end of the run."""
    try:
        return op()
    except Exception as exc:  # noqa: BLE001 - counted as a failed op and reported
        return exc


def run_ops(workload, seconds):
    """The prologue once, then passes over every op of every cycle.

    At least MIN_PASSES passes, more while another is expected to end
    within `seconds` of the first pass's start.  The first result of each op is kept; a later run
    that raises or gives a result unequal to it marks the op as failed,
    and its result is dropped.  Returns the ops, their first results, the
    indices of the ops that failed a later run, the clock, the number of
    passes and the raw time of the prologue.
    """
    ops = list(workload.prologue)
    first_timed = len(ops)
    ops += [op for cycle in workload.cycles for op in cycle]
    if len(ops) - first_timed < MIN_OPS:
        raise SystemExit(f"error: a pass holds {len(ops) - first_timed} ops, fewer than {MIN_OPS}")
    clock = Clock(len(ops))
    first = [clock.time(index, op) for index, op in enumerate(ops[:first_timed])]
    prologue_raw_s = clock.raw_s
    start = perf_counter()
    first += [clock.time(index, op) for index, op in enumerate(ops[first_timed:], first_timed)]
    unequal = set()
    passes = 1
    while passes < MIN_PASSES or (perf_counter() - start) * (passes + 1) / passes <= seconds:
        for index in range(first_timed, len(ops)):
            result = clock.time(index, ops[index])
            if isinstance(result, Exception) or result != first[index]:
                unequal.add(index)
        passes += 1
    return ops, first, unequal, clock, passes, prologue_raw_s


def failed_ops(workload, ops, first, unequal):
    """Indices of ops that raised, that the workload's checks reject, or
    whose later runs did not repeat the first result."""
    raised = {i for i, result in enumerate(first) if isinstance(result, Exception)}
    kept = [i for i in range(len(ops)) if i not in raised]
    try:
        rejected = {kept[j] for j in workload.check([(ops[i], first[i]) for i in kept])}
    except Exception as exc:  # noqa: BLE001 - a check that crashes fails every op
        print(f"# check raised {type(exc).__name__}: {exc}", file=sys.stderr)
        return set(range(len(ops)))
    for index in sorted(raised | rejected | unequal)[:5]:
        why = "a later run differed" if index in unequal - raised - rejected else repr(first[index])
        print(f"# failed op {index} ({ops[index].kind} {ops[index].key}): {why}"[:300], file=sys.stderr)
    return raised | rejected | unequal


def end_to_end(setup, clock, prologue, prologue_raw_s):
    """The end-to-end metrics of a run in which no op failed.  The
    prologue's ops run once; they are printed apart and left out of the
    timing metrics, as an op that runs for seconds cannot be adjusted for a
    machine speed that changes while it runs."""
    setup_s, raw_setup_s, setups = setup
    times = clock.op_times()
    for op, seconds in zip(prologue, times):
        print(f"prologue     {op.key}: {seconds:.4f} s")
    times = times[len(prologue):]
    timed_runs = clock.runs - len(prologue)
    ms = [x * 1000 for x in times]
    quartiles = statistics.quantiles(ms, n=4)
    p90 = statistics.quantiles(ms, n=10)[8]
    beyond = sum(1 for x in ms if x > p90)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values = {
        "setup_s": setup_s,
        "ops_per_s": len(ms) / sum(times),
        "op_ms_p50": statistics.median(ms),
        "op_ms_p90": p90,
        "ok_ratio": 1.0,  # a run with a failed op prints no result
        "peak_rss_mb": peak_mb,
    }
    print(f"setup_s      {setup_s:.4f} s (median of {setups} set-ups; raw {raw_setup_s:.4f})")
    print(f"ops_per_s    {values['ops_per_s']:.3f} ops/s ({len(ms)} ops in {sum(times):.3f} s, "
          f"each op the median of its runs; raw {timed_runs / (clock.raw_s - prologue_raw_s):.3f} "
          f"over all {timed_runs} runs)")
    print(f"op_ms_p50    {values['op_ms_p50']:.4f} ms (q1 {quartiles[0]:.4f}, q3 {quartiles[2]:.4f})")
    print(f"op_ms_p90    {p90:.4f} ms (n={len(ms)}, {beyond} beyond)")
    print(f"failed_ratio 0 (0/{clock.runs})")
    print(f"ok_ratio     {values['ok_ratio']:.6f} ratio")
    print(f"peak_rss_mb  {peak_mb:.2f} MB")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def traced_replay(cls, seed, ctx):
    """Set up once more and replay the prologue and one pass with the
    wrappers installed."""
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        clear_host_caches()
        tracer.enter("setup", "setup")
        workload = cls(seed, ctx)
        ops = list(workload.prologue)
        ops += [op for cycle in workload.cycles for op in cycle]
        tracer.enter("ops", None)
        raised = 0
        start = perf_counter()
        for index, op in enumerate(ops):
            tracer.op = index
            raised += isinstance(call(op), Exception)
        wall = perf_counter() - start
        cache = host_cache_info()
    finally:
        tracer.uninstall()
    return tracer, wall, cache, raised


def per_layer_metrics(tracer, wall, untraced_wall, cache):
    from tracing import LAYERS

    ops, setup = tracer.phases["ops"], tracer.phases["setup"]
    in_search = sum(
        1
        for name, _, _, parent, op in tracer.spans
        if name == "oop.oop_holds" and op != "setup" and parent is not None
        and tracer.spans[parent][0] == "oop.grid_search_oops"
    )
    special = {
        "reps.derived.calls": (sum(ops.calls[n] for n in DERIVED_REPS), "count"),
        "oop.grid.accept_ratio": (ops.extra["oop.grid.solutions"] / in_search if in_search else 0.0, "ratio"),
        "rmatrix.scybe_defect.entry_pairs": (ops.extra["rmatrix.scybe_defect.entry_pairs"], "count"),
        "rmatrix.host_cache.hits": (cache[0], "count"),
        "rmatrix.host_cache.misses": (cache[1], "count"),
        "graded.GradedLinearMap.built": (ops.calls["graded.GradedLinearMap.built"], "count"),
        "fileformat.emit.bytes": (ops.extra["fileformat.emit.bytes"], "bytes"),
        "catalog.load_fixture.self_s": (setup.self_s["catalog.load_fixture"], "s"),
        "trace.overhead_ratio": (wall / untraced_wall, "ratio"),
    }
    metrics = {}
    for name in PER_LAYER:
        if name in special:
            value, unit = special[name]
        elif name.endswith(".calls"):
            value, unit = ops.calls[name[: -len(".calls")]], "count"
        else:
            value, unit = ops.self_s[name[: -len(".self_s")]], "s"
        metrics[name] = {"value": value, "unit": unit}
    print(f"tracing overhead: traced {wall:.3f} s against untraced {untraced_wall:.3f} s "
          f"(ratio {wall / untraced_wall:.2f})")
    for layer in LAYERS:
        share = sum(v for k, v in ops.self_s.items() if k.startswith(layer + "."))
        print(f"# layer {layer:10s} self {share:9.4f} s ({share / wall:6.1%} of traced op time)")
    return metrics


def write_trace(path, workload, seed, tracer, wall, untraced_wall):
    payload = {
        "workload": workload,
        "seed": seed,
        "ops_wall_s": wall,
        "untraced_wall_s": untraced_wall,
        "phases": {
            phase: {"calls": stats.calls, "self_s": stats.self_s, "extra": stats.extra}
            for phase, stats in tracer.phases.items()
        },
        "spans": tracer.spans,
    }
    path.write_text(json.dumps(payload), encoding="utf-8")


def main():
    pin_environment()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    oracles = load_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    workdir = HERE / "out"
    workdir.mkdir(exist_ok=True)
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    ctx = SimpleNamespace(workdir=workdir, oracles=oracles, expected=expected)

    workload, *setup = set_up(cls, args.seed, ctx)
    gc.collect()
    ops, first, unequal, clock, passes, prologue_raw_s = run_ops(workload, args.seconds)
    failed = failed_ops(workload, ops, first, unequal)
    records = list(zip(ops, first))
    print(f"# workload {args.workload}, seed {args.seed}: {len(workload.prologue)} prologue ops, then "
          f"{passes} passes of {len(ops) - len(workload.prologue)} ops; "
          + ", ".join(f"{k} {v:.4g}" for k, v in workload.summary(records).items()))
    if failed:
        raise SystemExit(f"error: {len(failed)} of {len(ops)} ops failed; no result")
    if args.trace:
        del workload, records, first
        # the raw time of the prologue and one pass, untraced
        untraced_wall = prologue_raw_s + (clock.raw_s - prologue_raw_s) / passes
        tracer, traced_wall, cache, raised = traced_replay(cls, args.seed, ctx)
        if raised:
            raise SystemExit(f"error: {raised} ops raised in the traced replay; no result")
        metrics = per_layer_metrics(tracer, traced_wall, untraced_wall, cache)
        write_trace(workdir / f"trace-{args.workload}-{args.seed}.json", args.workload, args.seed, tracer,
                    traced_wall, untraced_wall)
    else:
        metrics = end_to_end(setup, clock, workload.prologue, prologue_raw_s)
    result = {"correct": True, "attempted": clock.runs, "failed": 0, "metrics": metrics}
    print(json.dumps(result))


if __name__ == "__main__":
    main()

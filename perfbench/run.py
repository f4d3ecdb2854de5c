"""operlab benchmark: checked runs of the full protocol stack.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a closed loop: one process, one thread, one
`harness.run_and_check` at a time. `--seed` picks the workload's seed list
(a fixed number of simulator seeds per workload), so the same seed gives
the same runs.

--trace 0 (end-to-end metrics, tracing off)
    Set up (import, scenario generation, warm-up) several times and keep
    the median. Then run the seed list in order, cycling, until `--seconds`
    have passed and at least one full pass is done; every rerun of a seed
    must give the same CSV row as its first run. Times are scaled to a
    reference host speed (see CAL_REF_S). A last pass with
    `collect_rows=True` over the first half of the seeds (at least two)
    counts simulator steps for `events_per_s` and must reproduce those CSV
    rows.

--trace 1 (per-layer metrics)
    One pass over the seed list. Each seed runs untraced, then traced: the
    layers' entry points are wrapped (see tracer.py) and `Trace.rows` is
    collected. The ledger integrity checks run on every traced run.

Human-readable lines go first; the last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`. `attempted` is
the number of seeds in the list and `failed` the number of them whose run
fails, so both depend on `--seed` only. A run fails when its report has any
theorem violation or it raises. The result is incorrect
(exit code 1) when a decision breaks agreement or validity, when reruns or
traced runs disagree, or when a ledger check fails. Without the library
sources next to this directory it exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DELTA = 10
VALUE_WIDTH = 32
SETUP_REPS = 5

# Host speed. On shared virtual machines the CPU's speed changes for
# seconds to minutes at a time (on a 2-vCPU Xeon VM a fixed loop ran 35%
# slower for minutes), which swamps changes to the program. So a fixed
# pure-Python loop is timed before and after every timed sample, and each
# sample is reported at reference speed: measured time * CAL_REF_S / (mean
# of the two loop times). CAL_REF_S is the loop's time on that VM when quiet.
CAL_LOOPS = 150_000
CAL_REF_S = 0.0113

# name -> process count, GST in multiples of delta_total, pre-GST timer
# drift, faulty strategy, seeds per pass
WORKLOADS = {
    "sync-large": SimpleNamespace(n=31, gst_totals=0, drift="none",
                                  strategy=["equivocate"], seeds=4),
    "view-change": SimpleNamespace(n=10, gst_totals=8, drift="uniform",
                                   strategy=["equivocate"], seeds=50),
    "flood": SimpleNamespace(n=10, gst_totals=2, drift="none",
                             strategy=["flood", 10], seeds=20),
}

OPERLAB_MODULES = ("harness", "simnet", "oper", "crux", "runtime",
                   "graded_consensus", "sync_ba", "validation_broadcast",
                   "reducing_broadcast", "finisher")

# Violations that make a decision wrong rather than missing or late.
WRONG_OUTPUT = ("agreement:", "strong-validity:", "external-validity:")

END_TO_END_UNITS = {
    "runs_per_s": "1/s",
    "events_per_s": "1/s",
    "run_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "passed_run_share": "share",
    "pbit_ratio_max": "ratio",
    "latency_delta_p50": "delta",
}

PER_LAYER_UNITS = {
    "simnet.events": "count",
    "simnet.deliveries": "count",
    "simnet.timer_fires": "count",
    "simnet.self_s": "s",
    "runtime.route_self_s": "s",
    "runtime.misrouted": "count",
    "runtime.buffer_dropped": "count",
    "oper.self_s": "s",
    "oper.views_entered": "count",
    "oper.crux_instances": "count",
    "oper.sv_msgs": "count",
    "crux.self_s": "s",
    "crux.decide_ratio": "ratio",
    "graded_consensus.gc1.self_s": "s",
    "graded_consensus.gc2.self_s": "s",
    "graded_consensus.gc1.bits": "bit",
    "graded_consensus.gc2.bits": "bit",
    "sync_ba.self_s": "s",
    "sync_ba.digest_s": "s",
    "sync_ba.rounds": "count",
    "sync_ba.bits": "bit",
    "sync_ba.cap_share": "ratio",
    "validation_broadcast.self_s": "s",
    "validation_broadcast.bits": "bit",
    "reducing_broadcast.self_s": "s",
    "reducing_broadcast.bits": "bit",
    "finisher.self_s": "s",
    "finisher.msgs": "count",
    "finisher.values_tracked": "count",
    "harness.check_s": "s",
    "trace.overhead": "ratio",
}

# Traced self times must cover at least this share of traced wall time.
MIN_TIME_COVERAGE = 0.95


class BenchError(Exception):
    """The library could not be loaded from this checkout."""


def import_operlab():
    """(Re)import the library from this checkout's `src`; return its modules."""
    for name in [m for m in sys.modules
                 if m == "operlab" or m.startswith("operlab.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        mods = {m: importlib.import_module("operlab." + m)
                for m in OPERLAB_MODULES}
    except ImportError as e:
        raise BenchError(f"cannot import operlab from {SRC}: {e}") from e
    origin = Path(mods["harness"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchError(f"operlab resolved outside {SRC}: {origin}")
    return SimpleNamespace(**mods)


def scenario(ol, name: str, n=None) -> dict:
    """Scenario dict of a workload; `n` overrides the process count."""
    w = WORKLOADS[name]
    n = n or w.n
    t = (n - 1) // 3
    faulty = list(range(n - t, n))
    scn = {
        "n": n, "t": t, "delta": DELTA, "gst": 0,
        "value_width": VALUE_WIDTH,
        "faulty": faulty,
        "strategies": {str(p): w.strategy for p in faulty},
        "proposals": {str(p): (p % 3) + 1 for p in range(n)},
        "pre_gst_delay": ["uniform"],
        "drift": [w.drift],
    }
    delta_total = ol.harness.oper_params(
        ol.harness.scenario_config(scn)).delta_total
    scn["gst"] = w.gst_totals * delta_total
    return scn


def set_up(name: str, seeds: list):
    """Import, generate every run's inputs and warm up on a small instance."""
    ol = import_operlab()
    scn = scenario(ol, name)
    adversary = ol.harness.scenario_adversary(scn)
    runs = [(s, ol.harness.scenario_config(scn, seed=s), adversary)
            for s in seeds]
    small = scenario(ol, name, n=4)
    ol.harness.run_and_check(ol.harness.scenario_config(small, seed=0),
                             ol.harness.scenario_adversary(small))
    return ol, runs


def loop_time() -> float:
    """Best of three timings of the reference loop."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        acc = 0
        for i in range(CAL_LOOPS):
            acc += i * i % 7
        best = min(best, perf_counter() - t0)
    return best


def at_reference_speed(times: list, loops: list) -> list:
    """Scale each time by the reference loop timed before and after it."""
    return [t * 2 * CAL_REF_S / (before + after)
            for t, before, after in zip(times, loops, loops[1:])]


def timed_setup(name: str, seeds: list):
    """Set up SETUP_REPS times; median set-up time at reference speed."""
    times, loops = [], [loop_time()]
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        ol, runs = set_up(name, seeds)
        times.append(perf_counter() - t0)
        loops.append(loop_time())
    return ol, runs, statistics.median(at_reference_speed(times, loops))


def bit_cap(ol, config) -> int:
    return ol.harness.oper_params(config).bit_cap


def pbit_ratio(trace) -> float:
    cfg = trace.config
    pbit_max = max((trace.pbit.get(p, 0) for p in cfg.correct), default=0)
    return pbit_max / (cfg.n * (8 + cfg.value_width))


def latency_delta(ol, trace):
    """Decision latency in delta, or None if a correct process never
    decided."""
    try:
        return float(ol.simnet.latency(trace))
    except ValueError:
        return None


class Outcome(SimpleNamespace):
    """Summary of one checked run; the trace itself is not kept."""

    def signature(self):
        return (self.csv, tuple(self.violations))

    def wrong_output(self) -> bool:
        return any(v.startswith(WRONG_OUTPUT) for v in self.violations)


def checked_run(ol, config, adversary, collect_rows=False) -> Outcome:
    """Run and check once.

    `run_s` is the time of `run_and_check`. `wall_s` adds a garbage
    collection: a run's automata hold reference cycles, so each run pays
    for freeing its own and every run starts from the same heap.
    """
    t0 = perf_counter()
    try:
        report = ol.harness.run_and_check(config, adversary,
                                          collect_rows=collect_rows)
    except Exception:  # a crashing run is a failed run, reported and counted
        run_s = perf_counter() - t0
        gc.collect()
        return Outcome(run_s=run_s, wall_s=perf_counter() - t0, csv=None,
                       violations=["exception: " + traceback.format_exc()],
                       latency=None, pbit_ratio=0.0, views_entered=0,
                       ledger=None)
    run_s = perf_counter() - t0
    gc.collect()
    wall_s = perf_counter() - t0
    trace = report.trace
    ledger = None
    if collect_rows:
        ledger = tracer.row_ledger(trace, bit_cap(ol, config))
        ledger["bits_error"] = tracer.bits_ledger_error(ledger, trace)
    return Outcome(
        run_s=run_s, wall_s=wall_s, csv=ol.simnet.csv_row(trace),
        violations=report.violations, latency=latency_delta(ol, trace),
        pbit_ratio=pbit_ratio(trace), ledger=ledger,
        views_entered=sum(1 for (_, p, v) in trace.enters
                          if p not in config.faulty and v >= 2))


def digest(outcomes) -> str:
    text = "\n".join(o.csv or "-" for o in outcomes)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Checks:
    """Named output checks; any failure makes the result incorrect."""

    def __init__(self):
        self.failures: list = []

    def check(self, name: str, ok: bool, detail: str = ""):
        print(f"check {name}: {'ok' if ok else 'FAILED'}"
              + (f" ({detail})" if detail else ""))
        if not ok:
            self.failures.append(name)


def emit(metrics: dict, units: dict, notes: dict):
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {metrics[name]!r} {unit}{note}")
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()}


def untraced(name: str, seeds: list, seconds: float, checks: Checks):
    ol, runs, setup_s = timed_setup(name, seeds)

    first: list = []          # outcome per seed, first pass
    walls: list = []          # measured time of every timed run
    loops = [loop_time()]     # reference loop time around each of them
    disagreements = 0
    start = perf_counter()
    while len(walls) < len(runs) or perf_counter() - start < seconds:
        k = len(walls) % len(runs)
        _, config, adversary = runs[k]
        out = checked_run(ol, config, adversary)
        walls.append(out.wall_s)
        loops.append(loop_time())
        if len(first) < len(runs):
            first.append(out)
        elif out.signature() != first[k].signature():
            disagreements += 1
    elapsed = perf_counter() - start
    scaled = at_reference_speed(walls, loops)
    run_s = sum(scaled)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    print(f"csv_digest {name} pass=1 sha256={digest(first)} runs={len(first)}")
    checks.check("passes agree", disagreements == 0,
                 f"{len(walls) - len(first)} reruns, "
                 f"{disagreements} disagreed")

    # counting pass over half of the seed list, at least two seeds:
    # simulator steps per seed (the time per step barely depends on the
    # seed), and rows-on == rows-off
    counted = [checked_run(ol, config, adversary, collect_rows=True)
               for (_, config, adversary) in runs[:max(2, len(runs) // 2)]]
    mismatched = [seed for (seed, _, _), ref, out in zip(runs, first, counted)
                  if out.signature() != ref.signature()]
    checks.check("rows-on csv == rows-off csv", not mismatched,
                 f"{len(counted)} seeds" + (f", differ: {mismatched}"
                                            if mismatched else ""))
    ledgers = [out.ledger for out in counted if out.ledger]
    cap_share = max((lg["cap_share"] for lg in ledgers), default=0.0)
    checks.check("sync_ba.cap_share <= 1", cap_share <= 1,
                 f"max {cap_share:.4f}")

    for seed, out in zip(seeds, first):
        for v in out.violations:
            print(f"violation seed={seed}: {v.splitlines()[0]}")
    checks.check("no wrong decisions",
                 not any(o.wrong_output() for o in first))

    events = [out.ledger["events"] if out.ledger else 0 for out in counted]
    step_runs = [k for k in range(len(walls)) if k % len(runs) < len(events)]
    steps = sum(events[k % len(runs)] for k in step_runs)
    step_s = sum(scaled[k] for k in step_runs)
    step_raw_s = sum(walls[k] for k in step_runs)
    latencies = [o.latency for o in first if o.latency is not None]
    metrics = {
        "runs_per_s": len(walls) / run_s,
        "events_per_s": steps / step_s,
        "run_ms_p50": statistics.median(scaled) * 1000,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "passed_run_share":
            sum(1 for o in first if not o.violations) / len(first),
        "pbit_ratio_max": max(o.pbit_ratio for o in first),
        "latency_delta_p50":
            statistics.median(latencies) if latencies else 0.0,
    }
    notes = {
        "setup_s": f"median of {SETUP_REPS}",
        "runs_per_s": f"{len(walls)} runs in {elapsed:.1f} s; as measured "
                      f"{len(walls) / sum(walls):.4f} 1/s",
        "events_per_s": f"{steps} steps in {len(step_runs)} runs of "
                        f"{len(events)} seeds; as measured "
                        f"{steps / step_raw_s:.1f} 1/s",
        "run_ms_p50": f"samples={len(walls)}; host at "
                      f"{run_s / sum(walls):.3f} of reference speed",
        "passed_run_share": f"over the {len(first)}-seed list",
        "latency_delta_p50": f"{len(latencies)} terminated runs",
    }
    # attempted and failed count each seed of the list once: a rerun must
    # repeat its seed's outcome (checked above), so counting reruns would
    # only make the counts depend on how many runs fit in `seconds`
    failed = sum(1 for o in first if o.violations)
    return len(first), failed, emit(metrics, END_TO_END_UNITS, notes)


def traced(name: str, seeds: list, checks: Checks):
    ol, runs = set_up(name, seeds)
    layers = tracer.LayerTracer(ol)
    totals: Counter = Counter()
    wall_off = wall_on = 0.0
    failed = 0
    csv_differ, bit_errors, low_coverage = [], [], []
    cap_share = 0.0
    min_coverage = 1.0

    for seed, config, adversary in runs:
        ref = checked_run(ol, config, adversary)
        wall_off += ref.wall_s

        covered = sum(layers.spans.self_s.values())
        with layers:
            out = checked_run(ol, config, adversary, collect_rows=True)
            state = layers.state_counts(config)
        # the tracer held this run's automata for the state counts
        t0 = perf_counter()
        gc.collect()
        wall_on += out.wall_s + perf_counter() - t0

        failed += bool(out.violations)
        if out.signature() != ref.signature():
            csv_differ.append(seed)
        covered = sum(layers.spans.self_s.values()) - covered
        min_coverage = min(min_coverage, covered / out.run_s)
        if not MIN_TIME_COVERAGE <= covered / out.run_s <= 1:
            low_coverage.append(seed)
        ledger = out.ledger
        if ledger is None:
            continue
        if ledger["bits_error"]:
            bit_errors.append(f"seed {seed}: {ledger['bits_error']}")
        cap_share = max(cap_share, ledger["cap_share"])
        for key in ("events", "deliveries", "timer_fires", "sv_msgs"):
            totals[key] += ledger[key]
        for layer, count in ledger["msgs"].items():
            totals["msgs." + layer] += count
        for layer, count in ledger["bits"].items():
            totals["bits." + layer] += count
        totals.update(state)
        totals["views_entered"] += out.views_entered

    checks.check("traced csv == untraced csv", not csv_differ,
                 f"{len(runs)} seeds" + (f", differ: {csv_differ}"
                                         if csv_differ else ""))
    checks.check("per-layer bits == sum of Trace.pbit", not bit_errors,
                 "; ".join(bit_errors[:3]))
    checks.check("self times account for traced wall time", not low_coverage,
                 f"lowest coverage {min_coverage:.4f}, "
                 f"need >= {MIN_TIME_COVERAGE}")
    checks.check("sync_ba.cap_share <= 1", cap_share <= 1,
                 f"max {cap_share:.4f}")
    checks.check("every correct message has a layer",
                 totals["msgs.other"] == 0,
                 f"{totals['msgs.other']} unclassified")

    self_s = layers.spans.self_s
    metrics = {
        "simnet.events": totals["events"],
        "simnet.deliveries": totals["deliveries"],
        "simnet.timer_fires": totals["timer_fires"],
        "simnet.self_s": self_s["simnet"],
        "runtime.route_self_s": self_s["runtime"],
        "runtime.misrouted": totals["misrouted"],
        "runtime.buffer_dropped": totals["buffer_dropped"],
        "oper.self_s": self_s["oper"],
        "oper.views_entered": totals["views_entered"],
        "oper.crux_instances": totals["crux_instances"],
        "oper.sv_msgs": totals["sv_msgs"],
        "crux.self_s": self_s["crux"],
        "crux.decide_ratio":
            totals["crux_decided"] / max(1, totals["gc2_reached"]),
        "sync_ba.self_s": self_s["sync_ba"],
        "sync_ba.digest_s": self_s["sync_ba.digest"],
        "sync_ba.rounds": totals["sync_rounds"],
        "sync_ba.bits": totals["bits.sync_ba"],
        "sync_ba.cap_share": cap_share,
        "finisher.self_s": self_s["finisher"],
        "finisher.msgs": totals["msgs.finisher"],
        "finisher.values_tracked": totals["values_tracked"],
        "harness.check_s": self_s["harness"],
        "trace.overhead": wall_on / wall_off,
    }
    for layer in ("graded_consensus.gc1", "graded_consensus.gc2",
                  "validation_broadcast", "reducing_broadcast"):
        metrics[layer + ".self_s"] = self_s[layer]
        metrics[layer + ".bits"] = totals["bits." + layer]
    notes = {"simnet.events": f"totals over one pass of {len(runs)} seeds"}
    return len(runs), failed, emit(metrics, PER_LAYER_UNITS, notes)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None, seeds_per_pass=None) -> int:
    """Run one workload; `seeds_per_pass` shortens the seed list (self-test)."""
    args = parse_args(argv)
    per_pass = seeds_per_pass or WORKLOADS[args.workload].seeds
    seeds = [args.seed * per_pass + i for i in range(per_pass)]
    print(f"# workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"seeds={seeds[0]}..{seeds[-1]}")
    checks = Checks()
    try:
        if args.trace:
            attempted, failed, metrics = traced(args.workload, seeds, checks)
        else:
            attempted, failed, metrics = untraced(args.workload, seeds,
                                                  args.seconds, checks)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    correct = not checks.failures
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

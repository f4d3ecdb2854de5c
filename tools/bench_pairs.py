"""Benchmark a change against its parent in alternating pairs of runs.

Usage, from the root of a source checkout:

    python3 tools/bench_pairs.py --label LABEL --pairs N --seed S \\
        --seconds X [--workload W ...] [--parent REV] [--change TEXT] \\
        [--host TEXT]

Each pair runs `python3 perfbench/run.py --workload W --seed S --seconds X
--trace 0` once in a checkout of the parent and once in a checkout of the
change. Odd pairs run the parent first, even pairs the change first, so a
slow spell of the host hits both sides alike. Both checkouts are made with
`git worktree add --detach` side by side in one temporary directory, so
their paths are equally long and `peak_rss_mb` compares code, not where it
lives, and removed at the end: the parent at REV (default HEAD), the change
at the working tree's tracked files (`git stash create`, or HEAD when
nothing changed; a new file must be added to the index to count). The
change's stash commit is kept by no branch, so BENCH_<label>.json also
records its tree (`change_tree`): the tree of the commit the change lands
as, when that commit holds the files measured.
Without --workload every workload in BENCHMARK.json runs. Bad arguments
(a label that is not a plain file-name part, a workload BENCHMARK.json does
not list, fewer than one pair, a negative run length) exit 2 before any
checkout is made.

Writes BENCH_<label>.json at the root: per workload, the result of every
run on each side with its `csv_digest ... sha256=...` line, the median of
each end-to-end metric, both sides' quartiles, per metric the number of
pairs in which the change did better (the direction each metric improves in
is read from BENCHMARK.json), per metric a verdict (`better`, `worse`,
`flat` or `unresolved`, from its bound in BENCHMARK.json; see `verdict`)
and, per pair, whether both sides printed the same csv_digest line. That
last is a report, not a gate. Then prints one line per workload: each
metric's verdict with the pairs the change won, and the pairs with equal
csv_digest lines. Exits 1 if a run fails or reports an incorrect result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def quartiles(values):
    """First and third quartile (the `statistics` default method)."""
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def verdict(parent, change, direction, bound):
    """How one end-to-end metric moved: its values on each side, pair by
    pair, the direction it improves in ("higher" or "lower") and its bound
    from BENCHMARK.json, a share of the parent's median. The first that
    holds of
      unresolved  the parent's quartile spread exceeds bound * its median,
                  unless every change run beats every parent run;
      worse       the change's median is worse by more than bound * the
                  parent's median;
      better      the change won at least 9/10 of the pairs (a tie is no
                  win) and its median beats the parent's by more than the
                  parent's quartile spread;
      flat        anything else."""
    sign = 1 if direction == "higher" else -1
    base = statistics.median(parent)
    gain = sign * (statistics.median(change) - base)
    q1, q3 = quartiles(parent)
    if q3 - q1 > bound * abs(base) and not all(
            sign * (c - p) > 0 for c in change for p in parent):
        return "unresolved"
    if -gain > bound * abs(base):
        return "worse"
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    if 10 * wins >= 9 * len(parent) and gain > q3 - q1:
        return "better"
    return "flat"


def summarize(runs, better, bound):
    """The BENCH_*.json entry of one workload. `runs` maps "parent" and
    "change" to equally long lists of perfbench results, pair by pair;
    `better` maps each end-to-end metric to "higher" or "lower", and
    `bound` maps it to its bound from BENCHMARK.json."""
    values = {side: {m: [r["metrics"][m]["value"] for r in runs[side]]
                     for m in better} for side in ("parent", "change")}
    wins = {}
    for m, direction in better.items():
        sign = 1 if direction == "higher" else -1
        wins[m] = sum(sign * (c - p) > 0 for p, c in
                      zip(values["parent"][m], values["change"][m]))
    digests = [(p["csv_digest"], c["csv_digest"])
               for p, c in zip(runs["parent"], runs["change"])]
    return {
        "pairs": len(runs["parent"]),
        "runs": runs,
        "median": {side: {m: statistics.median(v) for m, v in vals.items()}
                   for side, vals in values.items()},
        "parent_quartiles": {m: quartiles(v)
                             for m, v in values["parent"].items()},
        "change_quartiles": {m: quartiles(v)
                             for m, v in values["change"].items()},
        "change_wins": wins,
        "verdict": {m: verdict(values["parent"][m], values["change"][m],
                               direction, bound[m])
                    for m, direction in better.items()},
        "csv_digest_equal": [p is not None and p == c for p, c in digests],
    }


def print_verdicts(entries):
    """One line per workload of BENCH_*.json `entries`, e.g. `flood:
    runs_per_s flat 6/10, ...; csv_digest equal 10/10`: each end-to-end
    metric's verdict and the pairs the change won, then the pairs in which
    both sides printed the same csv_digest line."""
    for w, e in entries.items():
        pairs = e["pairs"]
        metrics = ", ".join(f"{m} {v} {e['change_wins'][m]}/{pairs}"
                            for m, v in e["verdict"].items())
        print(f"{w}: {metrics}; csv_digest equal "
              f"{sum(e['csv_digest_equal'])}/{pairs}")


def bench(checkout, workload, seed, seconds):
    """One perfbench run in `checkout`: its result, the last output line,
    with its csv_digest line (None if it printed none) as "csv_digest"."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:"
                 f"\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} in {checkout}: incorrect result {result}")
    result["csv_digest"] = next(
        (line for line in lines if line.startswith("csv_digest ")), None)
    return result


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--workload", action="append")
    p.add_argument("--parent", default="HEAD")
    p.add_argument("--change", default="")
    p.add_argument("--host",
                   default=f"{os.cpu_count()}-CPU {platform.machine()}")
    args = p.parse_args(argv)
    if not re.fullmatch(r"\w[\w.-]*", args.label, re.ASCII):
        p.error("--label must be letters, digits, '_', '-' and '.', "
                "not starting with '.' or '-'")
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    if not (math.isfinite(args.seconds) and args.seconds >= 0):
        p.error("--seconds must be a finite number >= 0")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    listed = [w["name"] for w in spec["workloads"]]
    for w in args.workload or ():
        if w not in listed:
            p.error(f"--workload {w!r} is not in BENCHMARK.json "
                    f"({', '.join(listed)})")
    workloads = args.workload or listed
    parent = git("rev-parse", args.parent)
    change = git("stash", "create") or git("rev-parse", "HEAD")
    change_tree = git("rev-parse", f"{change}^{{tree}}")

    with tempfile.TemporaryDirectory() as tmp:
        checkouts = {"parent": str(Path(tmp) / "parent"),
                     "change": str(Path(tmp) / "change")}
        try:
            for side, rev in (("parent", parent), ("change", change)):
                git("worktree", "add", "--detach", checkouts[side], rev)
            entries = {}
            for w in workloads:
                runs = {"parent": [], "change": []}
                for i in range(args.pairs):
                    order = ("parent", "change") if i % 2 == 0 \
                        else ("change", "parent")
                    for side in order:
                        runs[side].append(bench(checkouts[side], w,
                                                args.seed, args.seconds))
                    rate = {side: runs[side][-1]["metrics"]["runs_per_s"]
                            ["value"] for side in order}
                    print(f"{w} pair {i + 1}: runs_per_s parent "
                          f"{rate['parent']:.3f}, change {rate['change']:.3f}",
                          flush=True)
                entries[w] = summarize(runs, better, bound)
        finally:
            for checkout in checkouts.values():
                if Path(checkout).exists():
                    git("worktree", "remove", "--force", checkout)

    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps({
        "label": args.label,
        "change": args.change,
        "parent": parent,
        "change_rev": change,
        "change_tree": change_tree,
        "command": f"python3 perfbench/run.py --workload W --seed "
                   f"{args.seed} --seconds {args.seconds:g} --trace 0",
        "python": platform.python_version(),
        "host": args.host,
        "order": "pairs alternate which side runs first: odd pairs run the "
                 "parent first, even pairs the change first",
        "workloads": entries,
    }, indent=1) + "\n")
    print(f"wrote {out}")
    print_verdicts(entries)


if __name__ == "__main__":
    main()

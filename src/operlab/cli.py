"""Command-line front end: run scenarios, sweep process counts, and check
the lock-step equivalence oracle (`oracle`).

Exit codes: 0 success, 1 at least one check violation or oracle mismatch,
2 usage, scenario or output-path error.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext

from .harness import (ScenarioError, load_scenario, run_and_check,
                      scenario_adversary, scenario_config, sweep)
from .oracle import oracle_sim
from .simnet import CSV_HEADER, csv_row, trace_lines


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="operlab",
        description="Deterministic simulator for view-based partially "
                    "synchronous Byzantine agreement.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario and check it")
    p_run.set_defaults(handler=cmd_run)
    p_run.add_argument("scenario")
    p_run.add_argument("--seed", type=int, default=None,
                       help="run a single seed instead of the scenario's range")
    p_run.add_argument("--trace", metavar="DIR", default=None,
                       help="write per-run trace files into DIR")
    p_run.add_argument("--csv", metavar="FILE", default=None,
                       help="write the metrics CSV to FILE instead of stdout")

    p_sweep = sub.add_parser("sweep", help="per-n bit-complexity table")
    p_sweep.set_defaults(handler=cmd_sweep)
    p_sweep.add_argument("scenario")
    p_sweep.add_argument("--n", required=True,
                         help="comma-separated process counts, e.g. 4,7,10,13")
    p_sweep.add_argument("--seeds", type=int, required=True)

    p_oracle = sub.add_parser(
        "oracle-sim", help="lock-step vs simulated equivalence check")
    p_oracle.set_defaults(handler=cmd_oracle)
    p_oracle.add_argument("scenario")
    p_oracle.add_argument("--seed", type=int, default=None)
    return parser


def _report_violations(violations) -> int:
    """Print each violation to stderr; exit code 1 if there are any."""
    for v in violations:
        print(f"VIOLATION: {v}", file=sys.stderr)
    return 1 if violations else 0


def cmd_run(args) -> int:
    scn = load_scenario(args.scenario)
    seeds = [args.seed] if args.seed is not None else \
        [scn.get("seed", 0) + k for k in range(scn.get("seeds", 1))]
    adversary = scenario_adversary(scn)
    configs = [scenario_config(scn, seed=seed) for seed in seeds]
    violations = []
    # an unwritable --trace or --csv path fails before the first seed runs
    if args.trace is not None:
        os.makedirs(args.trace, exist_ok=True)
    with open(args.csv, "w") if args.csv else nullcontext(sys.stdout) as out:
        out.write(CSV_HEADER + "\n")
        for config in configs:
            report = run_and_check(config, adversary,
                                   collect_rows=args.trace is not None)
            out.write(csv_row(report.trace) + "\n")
            violations.extend(f"seed {config.seed}: {v}"
                              for v in report.violations)
            if args.trace is not None:
                path = os.path.join(args.trace,
                                    f"trace_seed{config.seed}.txt")
                with open(path, "w") as f:
                    for line in trace_lines(report.trace):
                        f.write(line + "\n")
    return _report_violations(violations)


def cmd_sweep(args) -> int:
    scn = load_scenario(args.scenario)
    try:
        n_list = [int(x) for x in args.n.split(",") if x.strip()]
    except ValueError:
        raise ScenarioError(f"bad --n list {args.n!r}")
    if not n_list or args.seeds < 1:
        raise ScenarioError("sweep needs --n counts and --seeds >= 1")
    rows, violations = sweep(scn, n_list, args.seeds)
    print("n,t,pbit_max,ratio")
    worst = 0.0
    for (n, t, pbit_max, ratio) in rows:
        worst = max(worst, float(ratio))
        print(f"{n},{t},{pbit_max},{float(ratio):.3f}")
    print(f"C = {worst:.3f}")
    return _report_violations(violations)


def cmd_oracle(args) -> int:
    scn = load_scenario(args.scenario)
    ok, detail = oracle_sim(scn, seed=args.seed)
    print(f"{'PASS' if ok else 'FAIL'}: {detail}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ScenarioError as e:
        print(f"operlab: scenario error: {e}", file=sys.stderr)
        return 2
    except OSError as e:   # a --trace or --csv path that cannot be written
        print(f"operlab: cannot write output: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

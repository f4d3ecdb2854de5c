"""Fast self-test of the benchmark: one seed per workload, both modes.

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is printed by name with its
unit, both as a text line and in the final JSON object; that every output
and ledger integrity check ran and passed; that the ledger checks trip on
tampered input; and that without the library sources the benchmark exits
non-zero without printing a result. Exits 1 on the first failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import run
import tracer

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

CHECKS = {
    0: ("passes agree", "rows-on csv == rows-off csv",
        "sync_ba.cap_share <= 1", "no wrong decisions"),
    1: ("traced csv == untraced csv", "per-layer bits == sum of Trace.pbit",
        "self times account for traced wall time", "sync_ba.cap_share <= 1",
        "every correct message has a layer"),
}


def fail(msg):
    print(f"SELFTEST FAILED: {msg}")
    sys.exit(1)


def one(workload: str, trace: int):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", "0",
                         "--seconds", "0", "--trace", str(trace)],
                        seeds_per_pass=1)
    lines = buf.getvalue().splitlines()
    if code != 0:
        fail(f"{workload} trace={trace} exited {code}:\n" + "\n".join(lines))
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["attempted"] < 1:
        fail(f"{workload} trace={trace}: {lines[-1]}")
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in wanted]
    if sorted(result["metrics"]) != sorted(names):
        fail(f"{workload} trace={trace}: metrics differ from BENCHMARK.json: "
             f"{sorted(set(result['metrics']) ^ set(names))}")
    for m in wanted:
        got = result["metrics"][m["name"]]
        if got["unit"] != m["unit"] or not isinstance(got["value"],
                                                      (int, float)):
            fail(f"{workload}: {m['name']} printed as {got}")
        prefix = f"{m['name']} = "
        if not any(ln.startswith(prefix) and f" {m['unit']}" in ln
                   for ln in lines):
            fail(f"{workload}: no text line for {m['name']} [{m['unit']}]")
    for check in CHECKS[trace]:
        if not any(ln.split(" (")[0] == f"check {check}: ok"
                   for ln in lines):
            fail(f"{workload} trace={trace}: check {check!r} did not pass")
    print(f"ok {workload} trace={trace}: {len(names)} metrics, "
          f"{len(CHECKS[trace])} checks")


def negative_controls():
    trace = SimpleNamespace(pbit={0: 40, 1: 80})
    ledger = {"bits": {"oper": 40, "finisher": 80}}
    if tracer.bits_ledger_error(ledger, trace) is not None:
        fail("bits ledger rejects a balanced ledger")
    ledger["bits"]["finisher"] = 81
    if tracer.bits_ledger_error(ledger, trace) is None:
        fail("bits ledger accepts an unbalanced ledger")
    checks = run.Checks()
    with contextlib.redirect_stdout(io.StringIO()):
        checks.check("tampered", False)
    if checks.failures != ["tampered"]:
        fail("a failed check is not recorded")
    if tracer.path_layer(("crux@2", "vb", "rb")) != "reducing_broadcast" \
            or tracer.path_layer(("crux@1", "zz")) != "other":
        fail("path_layer misclassifies")
    print("ok negative controls")


def without_sources():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.HERE, Path(tmp) / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        p = subprocess.run(SPEC["command"] + ["--workload", "flood",
                                              "--seed", "0", "--seconds", "1",
                                              "--trace", "0"],
                           cwd=tmp, capture_output=True, text=True,
                           timeout=120)
    if p.returncode == 0 or '"correct"' in p.stdout:
        fail(f"without sources: exit {p.returncode}, stdout {p.stdout!r}")
    print(f"ok without sources: exit {p.returncode}")


def main():
    negative_controls()
    without_sources()
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            one(w["name"], trace)
    print("SELFTEST PASSED")


if __name__ == "__main__":
    main()

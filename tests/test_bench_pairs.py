import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


DIGEST = "csv_digest flood pass=1 sha256=99cd0301c3bd8d88 runs=20"


def result(rate, ms, digest=DIGEST):
    return {"correct": True, "attempted": 4, "failed": 0,
            "metrics": {"runs_per_s": {"value": rate, "unit": "1/s"},
                        "run_ms_p50": {"value": ms, "unit": "ms"}},
            "csv_digest": digest}


def canned_runs():
    return {"parent": [result(r, m) for r, m in
                       [(2.0, 500), (2.2, 450), (2.1, 480), (2.4, 400),
                        (2.3, 300)]],
            "change": [result(r, m) for r, m in
                       [(2.5, 400), (2.1, 470), (2.6, 380), (2.4, 400),
                        (2.9, 350)]]}


def canned_summary(runs):
    better = {"runs_per_s": "higher", "run_ms_p50": "lower"}
    return bench_pairs.summarize(runs, better, dict.fromkeys(better, 0.25))


def test_summary_of_canned_pairs():
    runs = canned_runs()
    summary = canned_summary(runs)
    assert summary["pairs"] == 5
    assert summary["runs"] is runs
    assert summary["median"] == {
        "parent": {"runs_per_s": 2.2, "run_ms_p50": 450},
        "change": {"runs_per_s": 2.5, "run_ms_p50": 400}}
    # the "exclusive" quartiles of 2.0, 2.1, 2.2, 2.3, 2.4
    q1, q3 = summary["parent_quartiles"]["runs_per_s"]
    assert round(q1, 9) == 2.05 and round(q3, 9) == 2.35
    assert summary["change_quartiles"]["run_ms_p50"] == [365, 435]
    # a tie is no win; a lower time wins, a higher rate wins
    assert summary["change_wins"] == {"runs_per_s": 3, "run_ms_p50": 2}
    assert summary["csv_digest_equal"] == [True] * 5


def test_verdicts_print_one_line_per_workload(capsys):
    runs = canned_runs()
    runs["change"][1]["csv_digest"] = None
    summary = canned_summary(runs)
    bench_pairs.print_verdicts({"flood": summary, "view-change": summary})
    line = ("runs_per_s flat 3/5, run_ms_p50 unresolved 2/5; "
            "csv_digest equal 4/5")
    assert capsys.readouterr().out.splitlines() == [
        "flood: " + line, "view-change: " + line]


def test_csv_digest_equal_reports_each_pair():
    other = DIGEST.replace("99cd0301c3bd8d88", "3d0d020fb86e446b")
    runs = {"parent": [result(2.0, 500), result(2.0, 500),
                       result(2.0, 500, None)],
            "change": [result(2.1, 490), result(2.1, 490, other),
                       result(2.1, 490, None)]}
    summary = bench_pairs.summarize(runs, {"runs_per_s": "higher"},
                                    {"runs_per_s": 0.25})
    # a pair in which either side printed no digest shows nothing equal
    assert summary["csv_digest_equal"] == [True, False, False]


RATES = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
TIMES = [100, 102, 98, 101, 99, 100, 103, 97, 100, 101]
WIDE = [float(r) for r in range(1, 11)]   # quartile spread 5.5, median 5.5


@pytest.mark.parametrize("metric,parent,change,expected", [
    # the same runs on both sides
    ("runs_per_s", RATES, RATES, "flat"),
    # 9 of 10 pairs won, by 1 where the parent's quartiles are 0.25 apart
    ("runs_per_s", RATES, [9.5] + [r + 1 for r in RATES[1:]], "better"),
    # the same gain, won in only 8 of 10 pairs
    ("runs_per_s", RATES, [9.5, 9.5] + [r + 1 for r in RATES[2:]], "flat"),
    # every pair won, by less than the parent's quartile spread
    ("runs_per_s", RATES, [r + 0.1 for r in RATES], "flat"),
    # a time 30% up against a bound of 25%
    ("run_ms_p50", TIMES, [1.3 * t for t in TIMES], "worse"),
    # a time 20% up: within the bound
    ("run_ms_p50", TIMES, [1.2 * t for t in TIMES], "flat"),
    # the parent's own runs spread wider than the bound
    ("runs_per_s", WIDE, WIDE[::-1], "unresolved"),
    # a spread that wide, but every change run beats every parent run
    ("runs_per_s", WIDE, [r + 10 for r in WIDE], "better"),
], ids=["same-runs", "won-9-of-10", "won-8-of-10", "won-within-spread",
        "30pct-slower", "20pct-slower", "wide-spread", "wide-but-beats-all"])
def test_verdict_of_canned_pairs(metric, parent, change, expected):
    def results(values):   # the other metric stays fixed
        return [result(v, 100) if metric == "runs_per_s" else result(10.0, v)
                for v in values]
    runs = {"parent": results(parent), "change": results(change)}
    better = {"runs_per_s": "higher", "run_ms_p50": "lower"}
    summary = bench_pairs.summarize(runs, better,
                                    dict.fromkeys(better, 0.25))
    assert summary["verdict"] == {**dict.fromkeys(better, "flat"),
                                  metric: expected}


def test_bench_keeps_the_csv_digest_line(monkeypatch):
    canned = result(2.5, 400)
    del canned["csv_digest"]
    stdout = "\n".join(["setup_s = 0.04 s", DIGEST, "runs_per_s = 2.5 1/s",
                        json.dumps(canned)]) + "\n"
    calls = []

    def fake_run(cmd, **kwargs):
        calls.append((cmd, kwargs["cwd"]))
        return subprocess.CompletedProcess(cmd, 0, stdout, "")
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    got = bench_pairs.bench("/checkout", "flood", 7, 25)
    assert got == {**canned, "csv_digest": DIGEST}
    [(cmd, cwd)] = calls
    assert cmd[1:] == ["perfbench/run.py", "--workload", "flood", "--seed",
                       "7", "--seconds", "25", "--trace", "0"]
    assert cwd == "/checkout"


def test_quartiles_of_one_run_are_that_run():
    assert bench_pairs.quartiles([3.5]) == [3.5, 3.5]


def exit_before_any_worktree(argv, root, monkeypatch, capsys):
    """Run main(argv) with `root` as the checkout and git stubbed out;
    assert that it exits 2 with no git call, and return its stderr."""
    calls = []
    monkeypatch.setattr(bench_pairs, "ROOT", root)
    monkeypatch.setattr(bench_pairs, "git", lambda *args: calls.append(args))
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(argv)
    assert exit_info.value.code == 2
    assert calls == []
    return capsys.readouterr().err


def args(label="t", pairs="1", seconds="1", *extra):
    return ["--label", label, "--pairs", pairs, "--seed", "1",
            "--seconds", seconds, *extra]


@pytest.mark.parametrize("pairs", ["0", "-1"])
def test_fewer_than_one_pair_exits_2_before_any_worktree(
        pairs, tmp_path, monkeypatch, capsys):
    err = exit_before_any_worktree(args(pairs=pairs), tmp_path,
                                   monkeypatch, capsys)
    assert "--pairs must be at least 1" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("label", ["a/b", "../up", ".hidden", "",
                                   "a b", "a\\b"])
def test_a_label_that_is_no_plain_file_name_exits_2_before_any_worktree(
        label, tmp_path, monkeypatch, capsys):
    err = exit_before_any_worktree(args(label=label), tmp_path,
                                   monkeypatch, capsys)
    assert "--label must be" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("seconds", ["-1", "-0.5", "nan", "inf"])
def test_a_negative_or_endless_run_exits_2_before_any_worktree(
        seconds, tmp_path, monkeypatch, capsys):
    err = exit_before_any_worktree(args(seconds=seconds), tmp_path,
                                   monkeypatch, capsys)
    assert "--seconds must be" in err
    assert list(tmp_path.iterdir()) == []


def test_an_unlisted_workload_exits_2_before_any_worktree(
        tmp_path, monkeypatch, capsys):
    spec = (_SCRIPT.parents[1] / "BENCHMARK.json").read_text()
    (tmp_path / "BENCHMARK.json").write_text(spec)
    err = exit_before_any_worktree(
        args("t", "1", "1", "--workload", "flood", "--workload", "floood"),
        tmp_path, monkeypatch, capsys)
    assert "--workload 'floood' is not in BENCHMARK.json" in err
    assert [f.name for f in tmp_path.iterdir()] == ["BENCHMARK.json"]


@pytest.mark.parametrize("label", ["hot_path", "sync-round", "v1.2"])
def test_plain_arguments_pass_every_check(label, tmp_path, monkeypatch):
    spec = (_SCRIPT.parents[1] / "BENCHMARK.json").read_text()
    (tmp_path / "BENCHMARK.json").write_text(spec)
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)

    def git(*args):
        raise LookupError(args)   # the first git call: past every check
    monkeypatch.setattr(bench_pairs, "git", git)
    with pytest.raises(LookupError):
        bench_pairs.main(args(label, "1", "0", "--workload", "flood"))


def run_stubbed(tmp_path, monkeypatch, stash, change):
    """main() for 2 pairs of flood with git and bench stubbed out: the
    worktrees still added (revision per checkout name), the checkouts in
    the order they ran, and the BENCH file written."""
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": "flood"}],
        "end_to_end": [{"name": "runs_per_s", "better": "higher",
                        "bound": 0.25},
                       {"name": "run_ms_p50", "better": "lower",
                        "bound": 0.25}]}))
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    added, ran, revs = {}, [], {}

    def git(*args):
        if args[:2] == ("worktree", "add"):
            added[args[3]] = revs[Path(args[3]).name] = args[4]
            Path(args[3]).mkdir()
        elif args[:2] == ("worktree", "remove"):
            del added[args[3]]
        return {("rev-parse", "base"): "parent", ("rev-parse", "HEAD"): "head",
                ("stash", "create"): stash,
                ("rev-parse", f"{change}^{{tree}}"): f"tree of {change}"}.get(
                    args, "")

    def bench(checkout, workload, seed, seconds):
        ran.append(checkout)
        return result(2.0, 500)
    monkeypatch.setattr(bench_pairs, "git", git)
    monkeypatch.setattr(bench_pairs, "bench", bench)
    bench_pairs.main(args("t", "2", "0", "--workload", "flood",
                          "--parent", "base"))
    out = json.loads((tmp_path / "BENCH_t.json").read_text())
    return added, revs, ran, out


@pytest.mark.parametrize("stash,change", [("c0ffee", "c0ffee"), ("", "head")])
def test_both_sides_run_in_equally_long_checkouts(stash, change, tmp_path,
                                                  monkeypatch):
    """The parent at --parent and the change at the working tree's tracked
    files (HEAD when nothing changed), each a worktree beside the other."""
    added, revs, ran, out = run_stubbed(tmp_path, monkeypatch, stash, change)
    assert added == {}   # both worktrees removed
    assert revs == {"parent": "parent", "change": change}
    parent, first = ran[0], ran[1]
    assert ran == [parent, first, first, parent]
    assert Path(parent).name == "parent" and Path(first).name == "change"
    assert Path(parent).parent == Path(first).parent
    assert len(parent) == len(first)
    assert (out["parent"], out["change_rev"]) == ("parent", change)
    assert out["change_tree"] == f"tree of {change}"


@pytest.mark.parametrize("setting,cache", [(None, True), ("", True),
                                           ("1", False), ("x", False)])
def test_bench_file_records_whether_runs_write_bytecode(
        setting, cache, tmp_path, monkeypatch):
    # the runs inherit the environment; a non-empty setting stops the caches
    if setting is None:
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    else:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", setting)
    out = run_stubbed(tmp_path, monkeypatch, "", "head")[3]
    assert out["bytecode_cache"] is cache

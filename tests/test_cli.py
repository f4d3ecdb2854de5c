import pytest

from operlab import cli, harness, oracle
from operlab.cli import main
from operlab.simnet import CSV_HEADER

from lockstep import BASE, ORACLE, ParityFlipAdapter, write_scn


def test_run_clean_scenario(tmp_path, capsys):
    rc = main(["run", write_scn(tmp_path, BASE)])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[0] == CSV_HEADER
    assert len(out) == 2


def test_run_seed_range_and_csv_file(tmp_path, capsys):
    scn = write_scn(tmp_path, {**BASE, "seeds": 3})
    csv = tmp_path / "out.csv"
    rc = main(["run", scn, "--csv", str(csv)])
    assert rc == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == CSV_HEADER and len(lines) == 4
    capsys.readouterr()
    for command in ("run", "oracle-sim"):   # -3 would run seed 3's run
        assert main([command, scn, "--seed", "-3"]) == 2
        err = capsys.readouterr().err
        assert "scenario error: seed must be >= 0, not -3" in err


def test_run_writes_trace_files(tmp_path):
    trace_dir = tmp_path / "traces"
    rc = main(["run", write_scn(tmp_path, BASE), "--seed", "5",
               "--trace", str(trace_dir), "--csv", str(tmp_path / "o.csv")])
    assert rc == 0
    body = (trace_dir / "trace_seed5.txt").read_text()
    assert body and all(len(line.split("\t")) == 6
                        for line in body.splitlines())


def test_bad_scenario_exits_2(tmp_path, capsys):
    rc = main(["run", write_scn(tmp_path, {**BASE, "bogus": 1})])
    assert rc == 2
    assert "scenario error" in capsys.readouterr().err


def test_run_bad_validity_exits_2(tmp_path, capsys):
    rc = main(["run", write_scn(tmp_path, {**BASE, "validity": 5})])
    assert rc == 2
    assert "bad validity spec 5" in capsys.readouterr().err


def test_run_accounting_full_charges_more_bits(tmp_path, capsys):
    # pre-GST drift takes seed 0 into view 2, so START-VIEW is broadcast
    scn = harness.scenario(4, [["silent"]], delta=10, gst=1620,
                           drift=["uniform"],
                           proposals={"0": 1, "1": 2, "2": 3, "3": 4})

    def row(**keys):
        assert main(["run", write_scn(tmp_path, {**scn, **keys})]) == 0
        header, line = capsys.readouterr().out.splitlines()
        return dict(zip(header.split(","), line.split(",")))
    payload, full = row(accounting="payload-only"), row(accounting="full")
    assert row() == payload   # a scenario's default policy is payload-only
    assert payload["views_max"] == "2"
    # view numbers and path segments add bits; nothing else changes
    for column in ("pbit_max", "pbit_mean"):
        assert float(full.pop(column)) > float(payload.pop(column))
    assert full == payload


def test_repeated_scenario_key_exits_2(tmp_path, capsys):
    path = tmp_path / "repeat.json"
    path.write_text('{"n": 4, "delta": 10, "seed": 1, "seed": 2, '
                    '"faulty": [3], "strategies": {"3": ["silent"], '
                    '"3": ["crash", 5]}}')
    rc = main(["run", str(path)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("operlab: scenario error: repeated key")


def test_run_config_error_writes_no_output(tmp_path, capsys):
    csv = tmp_path / "out.csv"
    rc = main(["run", write_scn(tmp_path, {**BASE, "n": 3, "t": 1}),
               "--csv", str(csv), "--trace", str(tmp_path / "traces")])
    assert rc == 2
    assert "scenario error" in capsys.readouterr().err
    assert not csv.exists() and not (tmp_path / "traces").exists()


def test_sweep_table(tmp_path, capsys):
    rc = main(["sweep", write_scn(tmp_path, BASE), "--n", "4", "--seeds", "1"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[0] == "n,t,pbit_max,ratio"
    assert out[1].startswith("4,1,")
    assert out[-1].startswith("C = ")


def test_sweep_reports_violations_and_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(harness, "check_trace",
                        lambda trace, params: ["agreement: forced"])
    rc = main(["sweep", write_scn(tmp_path, BASE), "--n", "4", "--seeds", "1"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out.splitlines()[0] == "n,t,pbit_max,ratio"
    assert captured.err.splitlines() == [
        "VIOLATION: n=4 seed=0: agreement: forced"]


def test_sweep_bad_n_list_exits_2(tmp_path):
    rc = main(["sweep", write_scn(tmp_path, BASE), "--n", "x", "--seeds", "1"])
    assert rc == 2


@pytest.mark.parametrize("flag, target", [
    ("--trace", "a_file"),            # FileExistsError
    ("--trace", "a_file/traces"),     # NotADirectoryError
    ("--csv", "missing/out.csv"),     # FileNotFoundError
])
def test_run_unwritable_output_exits_2(tmp_path, capsys, monkeypatch, flag,
                                       target):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return harness.run_and_check(*args, **kwargs)
    monkeypatch.setattr(cli, "run_and_check", counted)
    (tmp_path / "a_file").write_text("")
    rc = main(["run", write_scn(tmp_path, {**BASE, "seeds": 3}), flag,
               str(tmp_path / target)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("operlab: cannot write output")
    assert calls == []   # it fails before the first seed runs


@pytest.mark.parametrize("n_list, seeds",
                         [("4", "0"), ("4", "-3"), (",", "1")])
def test_sweep_fails_closed(tmp_path, capsys, n_list, seeds):
    rc = main(["sweep", write_scn(tmp_path, BASE), "--n", n_list,
               "--seeds", seeds])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("operlab: scenario error: sweep needs")


def test_oracle_sim_pass(tmp_path, capsys):
    scn = write_scn(tmp_path, ORACLE)
    rc = main(["oracle-sim", scn, "--seed", "0"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("PASS:")


def test_oracle_sim_divergence_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(oracle, "RoundSimAdapter", ParityFlipAdapter)
    rc = main(["oracle-sim", write_scn(tmp_path, ORACLE), "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 1
    assert out.startswith("FAIL: ") and "state diverges" in out


def test_oracle_sim_start_before_gst_exits_2(tmp_path, capsys):
    rc = main(["oracle-sim", write_scn(tmp_path, {**ORACLE, "gst": 50})])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("operlab: scenario error: oracle scenario: "
                                   "process 0 starts at 0 before GST")

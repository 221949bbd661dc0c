import json

import pytest

import paleysync.cli as cli
from paleysync.cli import run


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_graph_csv_five_cycle(capsys):
    code, out = _run(capsys, "graph", "5", "2", "--emit", "csv")
    assert code == 0
    assert set(out.strip().splitlines()) == {"0,1", "1,2", "2,3", "3,4", "0,4"}
    assert len(out.strip().splitlines()) == 5


def test_graph_dot(capsys):
    code, out = _run(capsys, "graph", "5", "2", "--emit", "dot")
    assert code == 0
    assert out.startswith("graph paley_5_2 {")
    assert "0 -- 1;" in out


def test_classify_json(capsys):
    code, out = _run(capsys, "classify", "25", "2")
    assert code == 0
    blob = json.loads(out)
    assert blob["verdict"] == "NonSynchronizing"
    assert blob["reasons"][0]["rule"] == "Thm 5.2(6)"
    assert list(blob)[:8] == ["q", "p", "n", "m", "verdict", "reasons", "witness", "status"]
    assert blob["field"]["q"] == 25


def test_invariants_with_oracle(capsys):
    code, out = _run(capsys, "invariants", "13", "2", "--oracle")
    assert code == 0
    blob = json.loads(out)
    cert = blob["certificate"]
    assert (cert["omega"], cert["alpha"], cert["chi"]) == (3, 3, 5)
    assert blob["oracle"] == {"omega": 3, "alpha": 3, "chi": 5}


def test_spectrum_with_oracle(capsys):
    code, out = _run(capsys, "spectrum", "17", "2", "--oracle")
    assert code == 0
    blob = json.loads(out)
    assert abs(blob["theta"] * blob["theta_complement"] - 17) < 1e-9
    assert blob["oracle_max_abs_diff"] < 1e-8


def test_field_report(capsys):
    code, out = _run(capsys, "field", "3", "2")
    assert code == 0
    blob = json.loads(out)
    assert blob["field"]["modulus"] == [2, 1, 1]
    assert blob["trace_zero_count"] == 3


def test_deterministic_output(capsys):
    _, first = _run(capsys, "classify", "49", "3")
    _, second = _run(capsys, "classify", "49", "3")
    assert first == second
    _, first = _run(capsys, "spectrum", "81", "2")
    _, second = _run(capsys, "spectrum", "81", "2")
    assert first == second


def test_bad_arguments_exit_one(capsys):
    assert _run(capsys, "classify", "12", "2")[0] == 1  # not an odd prime power
    assert _run(capsys, "graph", "13", "4")[0] == 1  # connection set not symmetric
    assert _run(capsys, "classify", "13", "5")[0] == 1  # m does not divide q-1
    assert _run(capsys, "nonsense")[0] == 1


def test_scan_oracle_disagreement_exits_three(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_spectrum_oracle_diff", lambda *args: 1.0)
    code, _ = _run(capsys, "scan", "--q-max", "13", "--oracle")
    assert code == 3


@pytest.mark.parametrize("exc", [RuntimeError("search timed out"), RecursionError("too deep")])
def test_other_runtime_errors_are_not_oracle_mismatches(capsys, monkeypatch, exc):
    def boom(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "classify", boom)
    code = run(["classify", "13", "3"])
    err = capsys.readouterr().err
    assert code == 4
    assert "oracle mismatch" not in err
    assert type(exc).__name__ in err


def test_scan_csv(capsys):
    code, out = _run(capsys, "scan", "--q-max", "13")
    assert code == 0
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    assert header == [
        "q", "p", "n", "m", "r", "m_bar", "primitive", "verdict", "rule",
        "omega", "chi", "theta", "lambda_min", "status",
    ]
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert all(row["verdict"] in ("Synchronizing", "NonSynchronizing", "Unknown") for row in rows)
    nine_two = next(r for r in rows if r["q"] == "9" and r["m"] == "2")
    assert nine_two["verdict"] == "NonSynchronizing"
    assert nine_two["m_bar"] == "2"
    thirteen = [r for r in rows if r["q"] == "13"]
    assert {r["m"] for r in thirteen} == {"1", "2", "3", "4", "6", "12"}
    assert all(r["verdict"] == "Synchronizing" for r in thirteen)


def test_scan_m_set_filter_and_oracle(capsys):
    code, out = _run(capsys, "scan", "--q-max", "13", "--m-set", "2", "--oracle")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.split(",")[3] == "2" for line in lines[1:])


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = run(["classify", "9", "2", "--out", str(target)])
    assert code == 0
    blob = json.loads(target.read_text())
    assert blob["verdict"] == "NonSynchronizing"


def test_budget_exhaustion_exits_two_with_partial_output(capsys):
    code, out = _run(capsys, "invariants", "81", "4", "--budget", "2000")
    assert code == 2
    cert = json.loads(out)["certificate"]
    assert cert["status"] == "timeout"
    lo, hi = cert["bounds"]["chi"]
    assert lo <= hi


def test_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("PALEY_BUDGET", "2000")
    code, out = _run(capsys, "invariants", "81", "4")
    assert code == 2
    assert json.loads(out)["certificate"]["status"] == "timeout"

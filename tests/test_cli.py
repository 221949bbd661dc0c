import dataclasses
import json
import os
import signal
import time

import pytest

import paleysync.cli as cli
from paleysync import InvalidWitnessError, InvariantCertificate, build_field, exhaustive_decision
from paleysync.errors import OracleMismatchError
from paleysync.cli import run
from conftest import assert_no_child, open_fds, without_witness


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


def test_graph_json_five_cycle(capsys):
    code, out = _run(capsys, "graph", "5", "2")
    assert code == 0
    blob = json.loads(out)
    assert blob["n_vertices"] == 5
    assert blob["degree"] == 2
    assert blob["edges"] == [[0, 1], [0, 4], [1, 2], [2, 3], [3, 4]]


def test_classify_json(capsys):
    code, out = _run(capsys, "classify", "25", "2")
    assert code == 0
    blob = json.loads(out)
    assert blob["verdict"] == "NonSynchronizing"
    assert blob["reasons"][0]["rule"] == "Thm 5.2(6)"
    assert list(blob)[:8] == ["q", "p", "n", "m", "verdict", "reasons", "witness", "status"]
    assert blob["field"]["q"] == 25


def test_classify_past_the_size_limit_reports_a_fast_path_verdict(capsys):
    """3^13 exceeds gf.SIZE_LIMIT, but a fast path (m_bar = 1) decides it
    with no field, so there is no field spec to print."""
    code, out = _run(capsys, "classify", "1594323", "2")
    assert code == 0
    blob = json.loads(out)
    assert (blob["verdict"], blob["status"]) == ("Synchronizing", "complete")
    assert blob["field"] is None


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
    for argv, message in [
        (("classify", "12", "2"), "q=12 is not a prime power"),
        (("classify", "16", "3"), "q=16 must be odd"),
        (("graph", "16", "3"), "q=16 must be odd"),
        (("graph", "13", "4"), "2m=8 does not divide q-1=12; difference set not symmetric"),
        (("classify", "13", "5"), "m=5 does not divide q-1=12"),
        # past the size limit with no fast path: the field cannot be built
        (("classify", "1953125", "4"), "q=1953125 exceeds the size limit 1048576"),
    ]:
        assert run(list(argv)) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    assert _run(capsys, "nonsense")[0] == 1


def test_scan_oracle_disagreement_exits_three(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_spectrum_oracle_diff", lambda *args: 1.0)
    code, _ = _run(capsys, "scan", "--q-max", "13", "--oracle")
    assert code == 3


def test_spectrum_oracle_disagreement_exits_three(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_spectrum_oracle_diff", lambda *args: 1.0)
    code = run(["spectrum", "13", "2", "--oracle"])
    captured = capsys.readouterr()
    assert code == 3
    assert json.loads(captured.out)["oracle_max_abs_diff"] == 1.0
    assert "oracle mismatch" in captured.err


@pytest.mark.parametrize("argv", [("invariants", "13", "2"), ("scan", "--q-max", "13")])
def test_invariants_oracle_disagreement_exits_three(capsys, monkeypatch, argv):
    wrong = InvariantCertificate(0, 0, 0, (), (), None, "exact", {})
    monkeypatch.setattr(cli, "brute_force_invariants", lambda g: wrong)
    code = run([*argv, "--oracle"])
    assert code == 3
    assert "oracle mismatch" in capsys.readouterr().err


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


@pytest.mark.parametrize("target, argv, exc, code", [
    ("paley_certificate", ("invariants", "9", "2"),
     InvalidWitnessError("coloring is not proper: color 0 holds an edge"), 3),
    ("classify", ("classify", "13", "3"), MemoryError("out of memory"), 4),
], ids=["self-check", "memory"])
def test_an_internal_failure_exits_with_the_code_that_names_it(capsys, monkeypatch, target, argv,
                                                               exc, code):
    """The CLI takes no witness, so a witness that fails verify_certificate
    is the program's own and fails its self-check (3), not the arguments
    (1); any other exception, a MemoryError included, is an internal
    error (4), and none escapes run."""
    def boom(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, target, boom)
    assert run(list(argv)) == code
    assert str(exc) in capsys.readouterr().err


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


def test_scan_computes_one_spectral_report_per_m_bar(capsys, monkeypatch):
    # with os.fork gone the rows are computed in this process, where the
    # counter sees every call: a forked worker's calls never reach it
    monkeypatch.delattr(os, "fork")
    calls = []
    theta_pair = cli.theta_pair

    def counting(field, m):
        calls.append((field.q, m))
        return theta_pair(field, m)

    monkeypatch.setattr(cli, "theta_pair", counting)
    code, out = _run(capsys, "scan", "--q-max", "81")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    pairs = {(int(row[0]), int(row[5])) for row in rows if int(row[5]) >= 2}
    assert sorted(calls) == sorted(pairs)


def _scan_81_8_by_search(monkeypatch, omega=None):
    """Route (81, 8) through the single-orbital search, its factorization
    witness skipped: NonSynchronizing with subset [0] and omega = chi = 3,
    so the scan fills its omega/chi columns (every other NonSynchronizing
    row with q <= 81 comes from a fast path).  `omega` replaces the
    certificate's clique number."""
    classify = cli.classify

    def by_search(q, m, **kwargs):
        if (q, m) != (81, 8):
            return classify(q, m, **kwargs)
        with without_witness():
            result = exhaustive_decision(build_field(3, 4), 8, budget=50)
        if omega is not None:
            result = dataclasses.replace(
                result, certificate=dataclasses.replace(result.certificate, omega=omega)
            )
        return result

    monkeypatch.setattr(cli, "classify", by_search)
    return run(["scan", "--q-max", "81", "--m-set", "8"])


def test_scan_reports_omega_chi_of_a_single_orbital_witness(capsys, monkeypatch):
    code = _scan_81_8_by_search(monkeypatch)
    out = capsys.readouterr().out
    assert code == 0
    row = next(line for line in out.splitlines() if line.startswith("81,"))
    assert row.endswith(",3,3,27,-5,complete")


def test_scan_sandwich_violation_exits_three(capsys, monkeypatch):
    code = _scan_81_8_by_search(monkeypatch, omega=4)
    assert code == 3
    assert "sandwich violated" in capsys.readouterr().err


def test_self_check_refuses_a_witness_row_without_omega_equal_chi_dividing_q():
    """A NonSynchronizing row with its omega filled must have omega = chi
    and omega | q (the classify module's lemma): (343, 19), decided by a
    factorization witness with omega = chi = 7, passes; a chi of 8 (within
    the theta sandwich) or an omega = chi of 6 (theta blanked) does not."""
    (row,) = cli._q_rows([343], {19}, 10**4, False)
    assert (row["verdict"], row["omega"], row["chi"]) == ("NonSynchronizing", "7", "7")
    cli._self_check_rows([row])
    for corrupt in ({"chi": "8"}, {"omega": "6", "chi": "6", "theta": "", "lambda_min": ""}):
        with pytest.raises(OracleMismatchError, match="omega = chi dividing q"):
            cli._self_check_rows([{**row, **corrupt}])


def test_budget_env_is_ignored_without_budget_option(capsys, monkeypatch):
    monkeypatch.setenv("PALEY_BUDGET", "abc")
    code, out = _run(capsys, "field", "3", "2")
    assert code == 0
    assert json.loads(out)["field"]["q"] == 9


@pytest.mark.parametrize(
    "env, argv", [("abc", ()), (None, ("--budget", "-1"))], ids=["env", "option"]
)
def test_bad_budget_is_a_usage_error(capsys, monkeypatch, env, argv):
    if env is not None:
        monkeypatch.setenv("PALEY_BUDGET", env)
    code = run(["classify", "9", "2", *argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "is not a nonnegative integer" in captured.err


def test_out_to_missing_directory_exits_one(tmp_path, capsys):
    code = run(["classify", "9", "2", "--out", str(tmp_path / "missing" / "x.json")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: ")
    assert "No such file or directory" in captured.err


def _scan_in_one_process(capsys, monkeypatch, *argv):
    """(exit code, stdout, stderr) of a scan with os.fork gone."""
    with monkeypatch.context() as m:
        m.delattr(os, "fork")
        code = run(["scan", *argv])
    return (code, *capsys.readouterr())


def _forked_scan(capsys, monkeypatch, workers, *argv):
    """(exit code, stdout, stderr) of a scan on `workers` processes, which
    leaves no child and no file descriptor open."""
    monkeypatch.setattr(cli, "_workers", lambda: workers)
    fds = open_fds()
    code = run(["scan", *argv])
    assert_no_child()
    assert open_fds() == fds
    return (code, *capsys.readouterr())


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_forked_scan_matches_the_scan_in_one_process(capsys, monkeypatch, tmp_path, workers):
    """The same bytes and exit code as the rows computed in one process,
    with one child forked per worker past the first.  The workers share
    the q's: a q is taken twice only when two flags are read at once."""
    fork, forks = os.fork, []

    def traced_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    log, classify = tmp_path / "taken", cli.classify

    def logged(q, m, **kwargs):
        if m == 1:
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {q}\n")
        return classify(q, m, **kwargs)

    monkeypatch.setattr(os, "fork", traced_fork)
    monkeypatch.setattr(cli, "classify", logged)
    forked = _forked_scan(capsys, monkeypatch, workers, "--q-max", "125")
    assert len(forks) == workers - 1
    taken = [line.split()[1] for line in log.read_text().splitlines()]
    assert len(set(taken)) == len(cli.odd_prime_powers(125)) >= len(taken) - 2
    monkeypatch.setattr(cli, "classify", classify)
    assert forked == _scan_in_one_process(capsys, monkeypatch, "--q-max", "125")
    assert forked[0] == 0 and forked[2] == ""


@pytest.mark.parametrize("argv", [(), ("--m-set", "4,31")], ids=["all", "m-set"])
@pytest.mark.parametrize("taker", ["child", "both"])
def test_rows_taken_by_a_child_or_by_both_are_kept_once(capsys, monkeypatch, taker, argv):
    """Every q's rows cross the pipe when the child takes every q, also a
    q with no row (q = 3 has no m in 4, 31), and are kept once when both
    processes take every q, as when two flags are read at once."""
    parent = os.getpid()

    def claim(flags, qs):
        return reversed(qs) if taker == "both" or os.getpid() != parent else iter(())

    monkeypatch.setattr(cli, "_claim", claim)
    forked = _forked_scan(capsys, monkeypatch, 2, "--q-max", "125", *argv)
    assert forked == _scan_in_one_process(capsys, monkeypatch, "--q-max", "125", *argv)


def test_a_scan_child_killed_mid_share_has_its_qs_run_here(capsys, monkeypatch, tmp_path):
    """A child that dies on its second q leaves no complete report, so the
    parent runs the child's q's itself, to the same output.  The child
    takes every other q, so that it has a second q however late it runs."""
    parent = os.getpid()
    monkeypatch.setattr(cli, "_claim", lambda flags, qs: (
        q for i, q in enumerate(qs) if i % 2 == (os.getpid() == parent)))
    note = tmp_path / "victim"
    classify, taken, here = cli.classify, [], []

    def dying(q, m, **kwargs):
        if os.getpid() != parent:
            if q not in taken:
                taken.append(q)
            if len(taken) == 2:
                note.write_text(str(q))
                os.kill(os.getpid(), signal.SIGKILL)
        elif m == 1:
            here.append(q)
        return classify(q, m, **kwargs)

    monkeypatch.setattr(cli, "classify", dying)
    forked = _forked_scan(capsys, monkeypatch, 2, "--q-max", "125")
    assert int(note.read_text()) in here  # the parent ran the victim's q
    assert forked == _scan_in_one_process(capsys, monkeypatch, "--q-max", "125")


def test_a_failed_scan_fork_leaves_the_qs_to_the_other_workers(capsys, monkeypatch):
    def fork_fails():
        raise OSError("no process to spare")

    monkeypatch.setattr(os, "fork", fork_fails)
    failed = _forked_scan(capsys, monkeypatch, 3, "--q-max", "125")
    assert failed == _scan_in_one_process(capsys, monkeypatch, "--q-max", "125")


@pytest.mark.parametrize("exc, failing", [
    (RuntimeError, "child"),
    (OracleMismatchError, "child"),
    (RuntimeError, "both"),
    (ValueError, "parent"),
])
def test_a_scan_error_is_the_one_the_scan_in_one_process_raises(capsys, monkeypatch, exc,
                                                                 failing):
    """An error on a q the child takes, or on q's of both processes, gives
    the exit code and message of the scan in one process: the error of the
    smallest failing q, also when the parent meets a larger failing q
    first."""
    parent = os.getpid()
    # the parent takes q = 125 alone, the child every other q
    fails = {"child": [121], "parent": [125], "both": [61, 125]}[failing]
    monkeypatch.setattr(cli, "_claim", lambda flags, qs: (
        q for q in reversed(qs) if (q == 125) == (os.getpid() == parent)))
    classify = cli.classify

    def failing_classify(q, m, **kwargs):
        if q in fails:
            raise exc(f"failed at q = {q}")
        return classify(q, m, **kwargs)

    monkeypatch.setattr(cli, "classify", failing_classify)
    forked = _forked_scan(capsys, monkeypatch, 2, "--q-max", "125")
    assert forked == _scan_in_one_process(capsys, monkeypatch, "--q-max", "125")
    assert f"failed at q = {fails[0]}" in forked[2]
    assert forked[0] == {RuntimeError: 4, OracleMismatchError: 3, ValueError: 1}[exc]


def test_an_error_in_the_parent_kills_the_childs_process_group(capsys, monkeypatch, tmp_path):
    """The child forks a process of its own, then the parent fails on a q:
    the parent kills the child's whole process group, so nothing the scan
    started outlives it."""
    if not os.path.isdir("/proc/self"):
        pytest.skip("needs /proc")
    parent = os.getpid()
    note = tmp_path / "grandchild"
    classify = cli.classify
    monkeypatch.setattr(cli, "_claim", lambda flags, qs: (
        q for q in reversed(qs) if (q == 125) == (os.getpid() == parent)))

    def forking_classify(q, m, **kwargs):
        if os.getpid() != parent and not note.exists():
            pid = os.fork()
            if pid == 0:
                time.sleep(60)
                os._exit(0)
            note.write_text(str(pid))
        if os.getpid() == parent and q == 125:
            deadline = time.monotonic() + 30
            while not note.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            raise RuntimeError("the parent's q fails")
        return classify(q, m, **kwargs)

    monkeypatch.setattr(cli, "classify", forking_classify)
    code, _, err = _forked_scan(capsys, monkeypatch, 2, "--q-max", "125")
    assert code == 4 and "the parent's q fails" in err
    grandchild = int(note.read_text())
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:  # dead: gone, or a zombie not yet reaped
        try:
            with open(f"/proc/{grandchild}/stat") as fh:
                if fh.read().rsplit(")", 1)[1].split()[0] in "ZX":
                    break
        except FileNotFoundError:
            break
        time.sleep(0.01)
    else:
        os.kill(grandchild, signal.SIGKILL)
        pytest.fail("the child's own child outlived the scan")

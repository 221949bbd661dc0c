import os
import signal
import time

import pytest

from paleysync._child import Child
from conftest import assert_no_child, open_fds


def _wait_dead(pid):
    """True once pid is gone or a zombie, within 10 s."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            with open(f"/proc/{pid}/stat") as fh:
                if fh.read().rsplit(")", 1)[1].split()[0] in "ZX":
                    return True
        except FileNotFoundError:
            return True
        time.sleep(0.01)
    return False


def _closed(child):
    child.close()
    child.close()  # a second close does nothing
    assert_no_child()


def test_a_child_reports_the_json_value_of_its_work():
    """The report is longer than a pipe holds, so it is read before the
    child can exit; close() then reaps the exited child."""
    fds = open_fds()
    child = Child.start(lambda: [7, [0, 1, 2], None, "x" * 100_000])
    assert child.result() == [7, [0, 1, 2], None, "x" * 100_000]
    assert _wait_dead(child.pid)
    _closed(child)
    assert open_fds() == fds


def test_a_work_that_raises_reports_nothing():
    def work():
        raise RuntimeError("the child's work fails")

    child = Child.start(work)
    assert child.result() is None
    _closed(child)


def test_a_child_killed_in_the_middle_of_its_report_reports_nothing():
    def work():
        write = os.write

        def half_then_die(fd, data):
            write(fd, data[: len(data) // 2])
            os.kill(os.getpid(), signal.SIGKILL)

        os.write = half_then_die  # the child's own os module, a copy
        return list(range(1000))

    child = Child.start(work)
    assert child.result() is None
    _closed(child)


@pytest.mark.parametrize("how", ["fork"])
def test_close_kills_a_grandchild_in_the_childs_group(how):
    """The child forks a process that sleeps and reports its pid: close()
    kills it with the child's group, and leaves this process's descriptors
    as they were."""
    if not os.path.isdir("/proc/self"):
        pytest.skip("needs /proc")

    def work():
        pid = os.fork()
        if pid == 0:
            time.sleep(60)
            os._exit(0)
        return pid

    fds = open_fds()
    child = Child.start(work)
    grandchild = child.result()
    _closed(child)
    assert open_fds() == fds
    if not _wait_dead(grandchild):
        os.kill(grandchild, signal.SIGKILL)
        pytest.fail("the grandchild outlived close()")


def test_close_kills_a_running_child():
    child = Child.start(lambda: time.sleep(60))
    assert os.waitpid(child.pid, os.WNOHANG) == (0, 0)  # still running
    start = time.monotonic()
    _closed(child)
    assert time.monotonic() - start < 10


@pytest.mark.parametrize("fork", ["raises", "missing"])
def test_start_returns_none_without_a_fork(monkeypatch, fork):
    def fork_fails():
        raise OSError("no process to spare")

    if fork == "raises":
        monkeypatch.setattr(os, "fork", fork_fails)
    else:
        monkeypatch.delattr(os, "fork")
    fds = open_fds()
    assert Child.start(lambda: 1) is None
    assert open_fds() == fds
    assert_no_child()

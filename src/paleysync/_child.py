"""One forked child process that computes a JSON value for its parent:
each scan worker.

The child leads its own process group, writes json.dumps(work()) and a
newline to a pipe, and leaves by os._exit, so nothing of the caller's
(atexit hooks, buffered files, a test runner) runs twice and no lock
another thread could hold is taken.  An error in work exits 1 with
nothing written; a report without its newline is incomplete.  close()
kills the group, reaps the child and closes the pipe in any state, so a
caller that closes its children leaves none.
"""

from __future__ import annotations

import os


class Child:
    """A running or finished forked child and the read end of its pipe."""

    __slots__ = ("pid", "read_end")

    def __init__(self, pid: int, read_end: int):
        self.pid, self.read_end = pid, read_end

    @classmethod
    def start(cls, work) -> Child | None:
        """Fork a child that reports json.dumps(work()), or None where
        os.fork is missing or fails."""
        import json

        if not hasattr(os, "fork"):
            return None
        read_end, write_end = os.pipe()
        try:
            pid = os.fork()
        except OSError:  # no process to spare
            os.close(read_end)
            os.close(write_end)
            return None
        if pid == 0:
            code = 1
            try:
                os.setpgid(0, 0)
                os.close(read_end)
                out = (json.dumps(work(), separators=(",", ":")) + "\n").encode()
                while out:
                    out = out[os.write(write_end, out):]
                code = 0
            finally:
                os._exit(code)
        os.close(write_end)
        try:
            os.setpgid(pid, pid)  # as the child does: the group exists once either has run
        except OSError:  # the child has already set it and exited
            pass
        return cls(pid, read_end)

    def result(self):
        """The child's value, read up to its newline or the end of the pipe
        (waiting for the child), or None when its report is incomplete.  A
        process the child started may hold the pipe open, so a complete
        report is not read to the end."""
        import json

        out = b""
        while not out.endswith(b"\n") and (chunk := os.read(self.read_end, 1 << 16)):
            out += chunk
        return json.loads(out) if out.endswith(b"\n") else None

    def close(self) -> None:
        """Kill the child's group (the child alone when it leads none), reap
        the child and close the pipe.  Safe to call twice."""
        import signal

        if self.pid is not None:
            try:
                os.killpg(self.pid, signal.SIGKILL)
            except OSError:  # no such group: kill the child alone
                os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        if self.read_end is not None:
            os.close(self.read_end)
            self.read_end = None

"""The installed program's edges, run as a user runs them: ``python -m repro``.

* A daemon that refuses the connection gets the same reply from every
  command that reaches one: exactly one stderr line
  ``hiss <cmd>: error: <url>: <error>``, exit 1, no traceback.  That
  line is written in one place in ``src/``.
* Output written into a pipe whose reader has gone ends the command
  quietly with exit 0.
"""

import os
import re
import socket
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _closed_url() -> str:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()  # nothing listens there now
    return f"http://127.0.0.1:{port}"


#: Each command line that reaches a daemon; URL stands for its address.
DAEMON_CALLS = [
    "client --url URL health",
    "top --url URL --once",
    "slo evaluate --url URL",
    "slo diff --url URL job-a job-b",
    "slo postmortem list --url URL",
]


@pytest.mark.parametrize("line", DAEMON_CALLS)
def test_an_unreachable_daemon_is_one_error_line(line):
    url = _closed_url()
    argv = line.replace("URL", url).split()
    command = argv[0]
    done = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True, text=True, env=_env(), timeout=120,
    )
    assert done.returncode == 1, done.stderr
    assert done.stdout == ""
    assert done.stderr.startswith(f"hiss {command}: error: {url}: ")
    assert done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr


def test_the_daemon_error_line_is_written_once_in_src():
    writers = []
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for name in filenames:
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8") as handle:
                    text = handle.read()
                writers += [os.path.relpath(path, SRC)] * len(re.findall(r": error: \{", text))
    assert writers == [os.path.join("repro", "service", "client.py")]


def test_a_closed_pipe_ends_the_command_quietly():
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write now fails with EPIPE
    try:
        done = subprocess.run(
            [sys.executable, "-m", "repro", "experiments", "--list"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=_env(), timeout=120,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""

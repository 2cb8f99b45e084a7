"""One ``hiss`` program: one ``--version``, eight commands.

``hiss --version`` prints one line with two facts: the package version
and the runcache code fingerprint — the digest that decides whether two
hosts share cached runs.  Every command answers ``--help`` through the
dispatcher, which imports only that command's module, and
``pyproject.toml`` installs ``hiss`` as the only script.
"""

import os
import re
import subprocess
import sys

import pytest

import repro
from repro.cli import COMMANDS, main, version_line

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestVersionFlag:
    def test_version_flag_prints_one_line(self, capsys):
        assert main(["--version"]) == 0
        out = capsys.readouterr().out
        assert out == version_line() + "\n"
        assert re.fullmatch(r"hiss \S+ \(code fingerprint [0-9a-f]{12}\)\n", out)

    def test_version_line_carries_version_and_fingerprint(self):
        from repro.core.runcache import code_fingerprint

        line = version_line()
        assert repro.__version__ in line
        assert code_fingerprint()[:12] in line
        assert line.startswith("hiss ")


class TestOneProgram:
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_every_command_answers_help(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: hiss {command} ")

    def test_a_command_imports_only_its_own_module(self):
        """``hiss trace`` loads the trace inspector, not the other seven."""
        code = (
            "import sys\n"
            "from repro.cli import COMMANDS, main\n"
            "try:\n"
            "    main(['trace', '--help'])\n"
            "except SystemExit:\n"
            "    pass\n"
            "print(' '.join(sorted(c for c, (m, _h) in COMMANDS.items() if m in sys.modules)))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "trace"

    def test_a_command_is_required(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2
        assert "a command is required" in capsys.readouterr().err

    def test_hiss_is_the_only_console_script(self):
        with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as handle:
            text = handle.read()
        section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
        entries = [line for line in section.strip().splitlines() if line.strip()]
        assert entries == ['hiss = "repro.cli:main"']

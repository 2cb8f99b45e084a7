"""Every hiss-* console script answers ``--version`` the same way.

One line, two facts: package version and the runcache code fingerprint —
the digest that decides whether two hosts share cached runs.  The flag
must work on every entry point (argparse exits 0) and print the same
fingerprint everywhere.
"""

import pytest

import repro
from repro.version import version_line

MAINS = [
    ("hiss-experiments", "repro.experiments.run_all"),
    ("hiss-trace", "repro.telemetry.cli"),
    ("hiss-serve", "repro.service.daemon"),
    ("hiss-client", "repro.service.client"),
    ("hiss-top", "repro.service.top"),
    ("hiss-report", "repro.profiling.cli"),
    ("hiss-sweep", "repro.search.cli"),
    ("hiss-slo", "repro.obsd.cli"),
]


class TestVersionFlag:
    @pytest.mark.parametrize("prog,module", MAINS, ids=[m[0] for m in MAINS])
    def test_version_flag_exits_zero_and_prints_the_line(
        self, prog, module, capsys
    ):
        import importlib

        main = importlib.import_module(module).main
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out.strip()
        assert out == version_line(prog)

    def test_version_line_carries_version_and_fingerprint(self):
        from repro.core.runcache import code_fingerprint

        line = version_line("hiss-x")
        assert repro.__version__ in line
        assert code_fingerprint()[:12] in line
        assert line.startswith("hiss-x ")

"""Golden figure tables: the quick grid at a 5 ms horizon, pinned.

``data/golden_quick_5ms.json`` holds what ``hiss experiments fig3a fig3b
fig4 fig5 ipi fig6a fig9 --quick --horizon-ms 5 --json`` writes, with
``elapsed_s`` dropped.  Experiment ids, titles, columns, row labels and
table shapes must match exactly; numbers match to ``rel=1e-9`` because
CPython 3.12's compensated float ``sum()`` moves some cells in the last
digit relative to 3.9/3.11.  A change that means to move a figure must
regenerate the data file and say why.
"""

import json
import math
import os

import pytest

from repro.core.experiment import clear_cache
from repro.experiments import run_experiment
from repro.experiments.run_all import experiment_kwargs

DATA = os.path.join(os.path.dirname(__file__), "data", "golden_quick_5ms.json")
HORIZON_MS = 5.0

with open(DATA, "r", encoding="utf-8") as _handle:
    GOLDEN = json.load(_handle)


@pytest.fixture(scope="module")
def produced():
    clear_cache()
    try:
        yield {
            table["experiment_id"]: run_experiment(
                table["experiment_id"],
                **experiment_kwargs(table["experiment_id"], quick=True, horizon_ms=HORIZON_MS),
            ).as_dict()
            for table in GOLDEN
        }
    finally:
        clear_cache()


def test_golden_covers_the_quick_figure_set():
    assert [t["experiment_id"] for t in GOLDEN] == [
        "fig3a", "fig3b", "fig4", "fig5", "ipi", "fig6a", "fig9",
    ]


@pytest.mark.parametrize("golden", GOLDEN, ids=[t["experiment_id"] for t in GOLDEN])
def test_figure_matches_golden(produced, golden):
    table = produced[golden["experiment_id"]]
    for field in ("experiment_id", "title", "columns", "notes"):
        assert table[field] == golden[field], field
    assert [row[0] for row in table["rows"]] == [row[0] for row in golden["rows"]]
    assert [len(row) for row in table["rows"]] == [len(row) for row in golden["rows"]]
    for row, expected in zip(table["rows"], golden["rows"]):
        for column, value, want in zip(golden["columns"][1:], row[1:], expected[1:]):
            where = f"{row[0]}/{column}"
            if isinstance(want, float) and math.isnan(want):
                assert math.isnan(value), where
            elif isinstance(want, (int, float)) and not isinstance(want, bool):
                assert value == pytest.approx(want, rel=1e-9), where
            else:
                assert value == want, where

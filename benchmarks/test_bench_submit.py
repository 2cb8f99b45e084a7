"""Benchmark: the host work of one fully cached job, submission and render.

Before a served job is queued, ``HissService.submit_document`` plans its
spec, digests the planned run keys into its dedupe key and looks every
key up in the run cache, whether or not its runs are cached.  Planning
runs a figure's harness only the first time its grid is seen; later
specs reuse that figure's memoized keys.  With all 56 runs of the
five-figure menu in the memo, this times that path for the menu itself
(a repeat of the warm-up) and for an ordered subset submitted for the
first time after the menu was planned — what three quarters of
``perfbench``'s serve jobs are.

Once the job's batch has found every run cached, the scheduler's render
step assembles each figure's result document, and a figure's harness
assembles its grid only the first time (``render_result``).
``test_cached_menu_render`` times that step for the menu with the memo
warm and checks the documents against a fresh replay.  Run with
``PYTHONPATH=src python -m pytest benchmarks/test_bench_submit.py``.
"""

import json

import pytest

from repro.core import clear_cache, planner
from repro.core.experiment import cache_lookup, cache_store, simulate_run
from repro.core.planner import render_result
from repro.experiments.common import REGISTRY, run_experiment
from repro.experiments.run_all import experiment_kwargs
from repro.service.jobs import JobSpec
from repro.service.scheduler import dedupe_key_for, plan_spec

#: The figure menu ``perfbench``'s serve workload draws its jobs from.
MENU = ["fig3a", "fig3b", "fig4", "fig5", "ipi"]
#: An ordered subset of the menu that no earlier submission asked for.
SUBSET = ["ipi", "fig3b", "fig4"]


def spec_of(experiments):
    return JobSpec.from_document(
        {"experiments": experiments, "quick": True, "horizon_ms": 5}, REGISTRY
    )


def fresh_plan(spec):
    """The spec's run keys, planned with an empty plan memo."""
    planner._PLANNED.clear()
    keys, _serial = plan_spec(spec)
    return keys


def submit(spec):
    """What a submission computes before admission, minus the HTTP."""
    keys, _serial = plan_spec(spec)
    dedupe_key = dedupe_key_for(spec, keys)
    cached = all(cache_lookup(key) is not None for key in keys)
    return len(keys), dedupe_key, cached


def render(spec):
    """What the render step assembles for a job of ``spec``, minus the lock."""
    return [
        render_result(
            experiment_id,
            experiment_kwargs(experiment_id, quick=spec.quick, horizon_ms=spec.horizon_ms),
        )
        for experiment_id in spec.experiments
    ]


def canonical(document):
    """A result document without its wall-clock stamp."""
    return json.dumps(dict(document, elapsed_s=0.0), sort_keys=True)


@pytest.fixture
def menu():
    """The menu's spec, planned afresh, with every one of its runs cached."""
    spec = spec_of(MENU)
    clear_cache()
    try:
        for key in fresh_plan(spec):
            cache_store(key, simulate_run(key))
        yield spec
    finally:
        clear_cache()


def test_cached_menu_submission(benchmark, menu):
    first = submit(menu)
    assert first[0] == 56 and first[2]
    assert benchmark(submit, menu) == first


def test_new_subset_after_the_menu(benchmark, menu):
    spec = spec_of(SUBSET)
    expected = fresh_plan(spec)
    plan_spec(menu)  # the warm-up submission plans the whole menu
    assert plan_spec(spec)[0] == expected
    result = benchmark(submit, spec)
    assert result == (len(expected), dedupe_key_for(spec, expected), True)


def test_cached_menu_render(benchmark, menu):
    fresh = [
        run_experiment(
            experiment_id,
            **experiment_kwargs(experiment_id, quick=menu.quick, horizon_ms=menu.horizon_ms),
        ).as_dict()
        for experiment_id in MENU
    ]
    render(menu)  # the warm-up job assembles every figure once
    documents = benchmark(render, menu)
    assert [canonical(d) for d in documents] == [canonical(d) for d in fresh]

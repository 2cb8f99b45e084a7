"""Benchmark: the host work of one fully cached submission.

Before a served job is queued, ``HissService.submit_document`` plans its
spec, digests the planned run keys into its dedupe key and looks every
key up in the run cache, whether or not its runs are cached.  This times
that path for the five-figure menu once all 56 of its runs are in the
memo — run with
``PYTHONPATH=src python -m pytest benchmarks/test_bench_submit.py``.
"""

from repro.core import clear_cache
from repro.core.experiment import cache_lookup, cache_store, simulate_run
from repro.experiments.common import REGISTRY
from repro.service.jobs import JobSpec
from repro.service.scheduler import dedupe_key_for, plan_spec

#: The figure menu ``perfbench``'s serve workload draws its jobs from.
MENU = ["fig3a", "fig3b", "fig4", "fig5", "ipi"]


def submit(spec):
    """What a submission computes before admission, minus the HTTP."""
    keys, _serial = plan_spec(spec)
    dedupe_key = dedupe_key_for(spec, keys)
    cached = all(cache_lookup(key) is not None for key in keys)
    return len(keys), dedupe_key, cached


def test_cached_menu_submission(benchmark):
    spec = JobSpec.from_document(
        {"experiments": MENU, "quick": True, "horizon_ms": 5}, REGISTRY
    )
    clear_cache()
    try:
        keys, _serial = plan_spec(spec)
        for key in keys:
            cache_store(key, simulate_run(key))
        first = submit(spec)
        assert first[0] == 56 and first[2]
        assert benchmark(submit, spec) == first
    finally:
        clear_cache()

"""Interference attribution: blame ledgers, sim-time sampling, reports.

The analysis layer the paper's characterization implies: every stolen
nanosecond charged to a ``(ssr, channel, victim, core)`` cell
(:mod:`~repro.profiling.ledger`), fixed-interval timeline sampling
(:mod:`~repro.profiling.sampler`), per-run document assembly and the
process-wide collector (:mod:`~repro.profiling.profiler`), plus the
exporters behind the ``hiss report`` CLI
(:mod:`~repro.profiling.flamegraph`, :mod:`~repro.profiling.report`).

Opt-in and zero-cost when off: the disabled :data:`NULL_LEDGER` /
:data:`NULL_PROFILER` singletons make unprofiled runs pay one branch per
hook site, and profiling never perturbs simulated results.
"""

from .ledger import (
    ALL_CHANNELS,
    CH_BOTTOM_HALF,
    CH_CC6_WAKEUP,
    CH_ENQUEUE,
    CH_IPI,
    CH_MODE_SWITCH,
    CH_POLL,
    CH_POLLUTION,
    CH_TOP_HALF,
    CH_WORKER,
    NO_VICTIM,
    NULL_LEDGER,
    InterferenceLedger,
    NullLedger,
    SIDE_CHANNELS,
    SSR_SERVICE_CHANNELS,
    victim_app,
)
from .sampler import (
    DEFAULT_SAMPLE_INTERVAL_NS,
    DEFAULT_SAMPLER_CAPACITY,
    MODE_CODES,
    SimSampler,
)
from .profiler import (
    BUNDLE_SCHEMA,
    NULL_PROFILER,
    NullProfiler,
    ProfileCollector,
    Profiler,
    RUN_SCHEMA,
    get_active_collector,
    profile_runs,
    set_active_collector,
    validate_profile,
)
from .flamegraph import collapsed_stacks, write_collapsed
from .report import (
    aggregate_app_blame,
    aggregate_attribution,
    render_html,
    text_summary,
)

__all__ = [
    "ALL_CHANNELS",
    "BUNDLE_SCHEMA",
    "CH_BOTTOM_HALF",
    "CH_CC6_WAKEUP",
    "CH_ENQUEUE",
    "CH_IPI",
    "CH_MODE_SWITCH",
    "CH_POLL",
    "CH_POLLUTION",
    "CH_TOP_HALF",
    "CH_WORKER",
    "DEFAULT_SAMPLER_CAPACITY",
    "DEFAULT_SAMPLE_INTERVAL_NS",
    "InterferenceLedger",
    "MODE_CODES",
    "NO_VICTIM",
    "NULL_LEDGER",
    "NULL_PROFILER",
    "NullLedger",
    "NullProfiler",
    "ProfileCollector",
    "Profiler",
    "RUN_SCHEMA",
    "SIDE_CHANNELS",
    "SSR_SERVICE_CHANNELS",
    "SimSampler",
    "aggregate_app_blame",
    "aggregate_attribution",
    "collapsed_stacks",
    "get_active_collector",
    "profile_runs",
    "render_html",
    "set_active_collector",
    "text_summary",
    "validate_profile",
    "victim_app",
    "write_collapsed",
]

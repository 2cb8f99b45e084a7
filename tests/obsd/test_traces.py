"""Stage decomposition (with the batch's sim critical path) and trace diffing."""

import pytest

from repro.obsd import stage_decomposition, trace_diff


def _span(span_id, name, start_s, end_s):
    return {"span_id": span_id, "name": name, "start_s": start_s, "end_s": end_s}


def _trace(job_id="job-a", *, backoff_rounds=0, submit_start=0.0,
           submit_s=0.01, queue_s=0.05, sim_windows=((0.0, 0.5), (0.1, 0.7)),
           batch_pad=0.05, render_s=0.02):
    """A synthetic span document shaped like the service trace endpoint's.

    Stages chain on shared timestamps: root opens at 0, back-off rounds
    (if any) precede the accepted submit, queue follows submit, the batch
    holds parallel sim spans, render closes the root.
    """
    spans = []
    t = 0.0
    for i in range(backoff_rounds):
        spans.append(_span(f"backoff-{i}", "service.backoff", t, t + 0.1))
        t += 0.1
    t = max(t, submit_start)
    spans.append(_span("submit", "service.submit", t, t + submit_s))
    t += submit_s
    spans.append(_span("queue", "service.queue", t, t + queue_s))
    t += queue_s
    batch_start = t
    sims = [
        _span(f"sim-{i}", f"sim.run-{i}", batch_start + s, batch_start + e)
        for i, (s, e) in enumerate(sim_windows)
    ]
    batch_end = max(span["end_s"] for span in sims) + batch_pad
    spans.append(_span("batch", "service.batch", batch_start, batch_end))
    spans.extend(sims)
    spans.append(_span("render", "service.render", batch_end, batch_end + render_s))
    spans.insert(0, _span("root", "service.job", 0.0, batch_end + render_s))
    return {
        "job_id": job_id,
        "trace_id": f"trace-{job_id}",
        "state": "done",
        "spans": spans,
    }


class TestStageDecomposition:
    def test_stages_tile_the_end_to_end_time(self):
        doc = _trace()
        decomp = stage_decomposition(doc)
        assert decomp["job_id"] == "job-a"
        assert decomp["runs"] == 2
        total = sum(row["seconds"] for row in decomp["stages"])
        assert total == pytest.approx(decomp["e2e_s"])
        assert sum(row["share"] for row in decomp["stages"]) == pytest.approx(1.0)

    def test_sim_critical_is_the_union_of_overlapping_runs(self):
        # Two sims covering (0, 0.5) and (0.1, 0.7): union is 0.7, not 1.1.
        decomp = stage_decomposition(_trace(sim_windows=((0.0, 0.5), (0.1, 0.7))))
        by_stage = {row["stage"]: row["seconds"] for row in decomp["stages"]}
        assert by_stage["sim_critical"] == pytest.approx(0.7)
        assert by_stage["batch_overhead"] == pytest.approx(0.05)

    def test_disjoint_sims_sum_and_gap_counts_as_overhead(self):
        decomp = stage_decomposition(_trace(sim_windows=((0.0, 0.2), (0.5, 0.8))))
        by_stage = {row["stage"]: row["seconds"] for row in decomp["stages"]}
        assert by_stage["sim_critical"] == pytest.approx(0.5)
        # batch spans 0..0.85: the 0.3 s gap plus the 0.05 s pad.
        assert by_stage["batch_overhead"] == pytest.approx(0.35)

    def test_backoff_covers_429_rounds_and_retry_after_sleeps(self):
        # Submit only starts at t=1.0 though the rounds end at 0.2: the
        # 0.8 s of client-side sleeps must land in the backoff stage so
        # the stages still tile the root span.
        doc = _trace(backoff_rounds=2, submit_start=1.0)
        decomp = stage_decomposition(doc)
        by_stage = {row["stage"]: row["seconds"] for row in decomp["stages"]}
        assert by_stage["backoff"] == pytest.approx(1.0)
        total = sum(row["seconds"] for row in decomp["stages"])
        assert total == pytest.approx(decomp["e2e_s"])


class TestCriticalPath:
    """The serial stages and the batch's sim critical path, as
    :func:`stage_decomposition` splits a job."""

    def test_serial_stages_in_pipeline_order(self):
        decomp = stage_decomposition(_trace(backoff_rounds=2, submit_start=1.0))
        assert [row["stage"] for row in decomp["stages"]] == [
            "backoff", "submit", "queue", "sim_critical", "batch_overhead", "render",
        ]

    def test_no_sims_means_pure_overhead_batch(self):
        doc = _trace()
        doc["spans"] = [s for s in doc["spans"]
                        if not s["span_id"].startswith("sim-")]
        decomp = stage_decomposition(doc)
        by_stage = {row["stage"]: row["seconds"] for row in decomp["stages"]}
        assert decomp["runs"] == 0
        assert by_stage["sim_critical"] == 0.0
        assert by_stage["batch_overhead"] == pytest.approx(0.75)


class TestTraceDiff:
    def test_delta_attributed_to_the_slower_stage(self):
        fast = _trace("job-fast", queue_s=0.05)
        slow = _trace("job-slow", queue_s=2.05)
        diff = trace_diff(fast, slow)
        assert diff["e2e_delta_s"] == pytest.approx(2.0)
        top = diff["stages"][0]
        assert top["stage"] == "queue"
        assert top["delta_s"] == pytest.approx(2.0)
        assert top["share_of_delta"] == pytest.approx(1.0)

    def test_shares_sum_to_one_when_delta_nonzero(self):
        a = _trace("a", queue_s=0.1, sim_windows=((0.0, 0.3),))
        b = _trace("b", queue_s=0.6, sim_windows=((0.0, 0.9),))
        diff = trace_diff(a, b)
        assert sum(r["share_of_delta"] for r in diff["stages"]) == pytest.approx(1.0)

    def test_rows_sorted_by_absolute_delta(self):
        a = _trace("a", queue_s=0.1, render_s=0.5)
        b = _trace("b", queue_s=1.1, render_s=0.02)
        diff = trace_diff(a, b)
        deltas = [abs(r["delta_s"]) for r in diff["stages"]]
        assert deltas == sorted(deltas, reverse=True)

    def test_identical_traces_have_zero_shares(self):
        doc = _trace()
        diff = trace_diff(doc, doc)
        assert diff["e2e_delta_s"] == 0.0
        assert all(r["share_of_delta"] == 0.0 for r in diff["stages"])

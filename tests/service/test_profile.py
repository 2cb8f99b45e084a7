"""Serving interference profiles: spec validation, forced re-execution,
the ``/v1/jobs/<id>/profile`` endpoint, and bundle integrity."""

from contextlib import contextmanager

import pytest

from repro.core import clear_cache, set_disk_cache
from repro.profiling import validate_profile
from repro.service import HissService, ServiceClient, ServiceError
from repro.service.jobs import BadSpec, JobSpec

SPEC = {"experiments": ["fig4"], "quick": True, "horizon_ms": 1.0}


@pytest.fixture(autouse=True)
def isolated_caches():
    clear_cache()
    set_disk_cache(None)
    yield
    clear_cache()
    set_disk_cache(None)


@contextmanager
def service(**kwargs):
    kwargs.setdefault("qos_threshold", 10.0)
    svc = HissService(port=0, **kwargs)
    svc.start()
    try:
        with ServiceClient(svc.url, timeout_s=30) as client:
            yield svc, client
    finally:
        svc.stop()


class TestSpec:
    def test_profile_field_parses(self):
        from repro.experiments.common import REGISTRY

        spec = JobSpec.from_document(dict(SPEC, profile=True), REGISTRY)
        assert spec.profile is True
        assert spec.as_dict()["profile"] is True
        # Default is off, and profiled work is distinct work for dedupe.
        plain = JobSpec.from_document(dict(SPEC), REGISTRY)
        assert plain.profile is False
        assert plain.canonical_json() != spec.canonical_json()

    def test_profile_must_be_boolean(self):
        from repro.experiments.common import REGISTRY

        with pytest.raises(BadSpec):
            JobSpec.from_document(dict(SPEC, profile="yes"), REGISTRY)


class TestProfileEndpoint:
    def test_profiled_job_serves_valid_bundle(self):
        with service() as (svc, client):
            body = client.submit(["fig4"], quick=True, horizon_ms=1.0,
                                 profile=True)
            job_id = body["job"]["id"]
            doc = client.wait(job_id, timeout_s=120)
            assert doc["state"] == "done"
            assert doc["profiled_runs"] == doc["planned_runs"] == 8
            assert doc["profile_url"] == f"/v1/jobs/{job_id}/profile"
            bundle = client.profile(job_id)
            assert validate_profile(bundle) == []
            assert len(bundle["runs"]) == 8
            assert bundle["meta"]["job"] == job_id
            assert bundle["meta"]["spec"]["profile"] is True
            # Stable document: runs sorted by label.
            labels = [run["run"] for run in bundle["runs"]]
            assert labels == sorted(labels)

    def test_warm_cache_is_reexecuted_for_profiles(self):
        with service() as (svc, client):
            plain = client.submit(**_spec_args(SPEC))
            client.wait(plain["job"]["id"], timeout_s=120)
            profiled = client.submit(["fig4"], quick=True, horizon_ms=1.0,
                                     profile=True)
            assert profiled["deduplicated"] is False  # distinct work
            doc = client.wait(profiled["job"]["id"], timeout_s=120)
            assert doc["state"] == "done"
            # Every run was re-simulated: a profile only exists for an
            # executed run.
            assert doc["runs_cached"] == 0
            assert doc["runs_executed"] == 8
            assert len(client.profile(profiled["job"]["id"])["runs"]) == 8

    def test_unprofiled_job_profile_409(self):
        with service() as (svc, client):
            body = client.submit(**_spec_args(SPEC))
            client.wait(body["job"]["id"], timeout_s=120)
            with pytest.raises(ServiceError) as excinfo:
                client.profile(body["job"]["id"])
            assert excinfo.value.status == 409

    def test_results_identical_with_and_without_profiling(self):
        with service() as (svc, client):
            profiled = client.submit(["fig4"], quick=True, horizon_ms=1.0,
                                     profile=True)
            doc = client.wait(profiled["job"]["id"], timeout_s=120)
            assert doc["state"] == "done"
            profiled_results = client.result(profiled["job"]["id"])
            clear_cache()
            plain = client.submit(**_spec_args(SPEC))
            client.wait(plain["job"]["id"], timeout_s=120)
            plain_results = client.result(plain["job"]["id"])
            # Byte-for-byte modulo the wall-clock elapsed_s stamp.
            strip = lambda docs: [  # noqa: E731
                {k: v for k, v in d.items() if k != "elapsed_s"} for d in docs
            ]
            assert strip(plain_results) == strip(profiled_results)


def _spec_args(spec):
    return {
        "experiments": spec["experiments"],
        "quick": spec["quick"],
        "horizon_ms": spec["horizon_ms"],
    }

"""Tests for repro.serve.admission."""

import pytest

from repro.obs import MetricsRegistry
from repro.serve.admission import AdmissionFull, AdmissionQueue


class TestAdmissionQueue:
    def test_acquire_release_tracks_depth(self):
        q = AdmissionQueue(2)
        q.acquire()
        q.acquire()
        assert q.depth == 2
        q.release()
        assert q.depth == 1

    def test_full_raises_with_retry_hint(self):
        q = AdmissionQueue(1, retry_after_s=2.5)
        q.acquire()
        with pytest.raises(AdmissionFull) as err:
            q.acquire()
        assert err.value.retry_after == 2.5
        assert q.depth == 1  # failed acquire takes no slot

    def test_slot_context_manager_releases_on_error(self):
        q = AdmissionQueue(1)
        with pytest.raises(RuntimeError):
            with q.slot():
                assert q.depth == 1
                raise RuntimeError("handler blew up")
        assert q.depth == 0

    def test_release_without_acquire_rejected(self):
        with pytest.raises(RuntimeError):
            AdmissionQueue(1).release()

    def test_metrics_track_depth_and_rejects(self):
        registry = MetricsRegistry()
        q = AdmissionQueue(1, registry=registry)
        gauge = registry.gauge("serve_queue_depth")
        q.acquire()
        assert gauge.value() == 1
        with pytest.raises(AdmissionFull):
            q.acquire()
        assert registry.counter(
            "serve_admission_rejects_total").value() == 1
        q.release()
        assert gauge.value() == 0

    def test_limit_must_be_positive(self):
        with pytest.raises(ValueError):
            AdmissionQueue(0)

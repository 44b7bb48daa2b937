"""Tests for cross-process telemetry propagation (repro.obs.propagate)."""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro import obs, perf
from repro.core.routing_job import RoutingJob, zone
from repro.engine import SynthesisEngine
from repro.geometry.rect import Rect
from repro.obs.journal import RunJournal
from repro.obs.metrics import MetricsRegistry
from repro.obs.propagate import WorkerCapture, capture_config, merge_telemetry

#: The subject of these tests is the worker pool, which ``workers=1`` does
#: not build, so ``REPRO_TEST_WORKERS`` below 2 still gets a 2-worker pool.
WORKERS = max(2, int(os.environ.get("REPRO_TEST_WORKERS", "2")))

W, H = 30, 16


@pytest.fixture(autouse=True)
def clean_obs():
    obs.shutdown()
    perf.reset()
    yield
    obs.shutdown()
    perf.reset()


def small_job() -> RoutingJob:
    start = Rect(2, 2, 4, 4)
    goal = Rect(20, 10, 22, 12)
    return RoutingJob(start, goal, zone(start, goal, W, H))


def wait_done(future, timeout_s: float = 60.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not future.done():
        if time.monotonic() > deadline:
            raise TimeoutError("worker future never completed")
        time.sleep(0.02)


class TestCaptureConfig:
    def test_none_when_nothing_configured(self):
        assert capture_config() is None

    def test_tracing_implies_metrics(self):
        obs.configure(tracing=True)
        config = capture_config(corr="c1")
        assert config == {
            "trace": True, "journal": False, "metrics": True, "corr": "c1",
        }

    def test_metrics_flag_alone_activates(self):
        obs.configure(metrics=True)
        config = capture_config()
        assert config is not None
        assert config["trace"] is False and config["journal"] is False
        assert config["metrics"] is True


class TestWorkerCapture:
    def test_inactive_capture_is_noop(self):
        capture = WorkerCapture(None)
        with capture:
            perf.incr("inside.noop")
        assert not capture.active
        assert capture.export() is None
        # The increment landed on the ambient registry, untouched.
        assert perf.get("inside.noop") == 1

    def test_metrics_swap_and_restore(self):
        ambient = perf.registry()
        perf.incr("before", 5)
        capture = WorkerCapture({"trace": False, "journal": False,
                                 "metrics": True, "corr": None})
        with capture:
            assert perf.registry() is not ambient
            perf.incr("task.counter", 3)
            perf.observe("task_ms", 7.0)
        # Registry restored, and the task delta folded into ambient totals.
        assert perf.registry() is ambient
        assert perf.get("before") == 5
        assert perf.get("task.counter") == 3
        bundle = capture.export()
        assert bundle["metrics"]["counters"]["task.counter"] == 3
        assert bundle["metrics"]["histograms"]["task_ms"]["count"] == 1
        assert bundle["pid"] == os.getpid()

    def test_trace_and_journal_capture(self):
        capture = WorkerCapture({"trace": True, "journal": True,
                                 "metrics": False, "corr": "cc"})
        with capture:
            with obs.span("worker.solve", corr=capture.corr):
                obs.journal_event("worker.synthesis", ms=1.5)
        assert not obs.enabled()  # worker obs torn down on exit
        bundle = capture.export()
        assert capture.corr == "cc" and bundle["corr"] == "cc"
        assert [s["name"] for s in bundle["spans"]] == ["worker.solve"]
        assert bundle["spans"][0]["attrs"]["corr"] == "cc"
        assert bundle["events"][0]["event"] == "worker.synthesis"
        assert "wall_epoch_ns" in bundle


class TestMergeTelemetry:
    def test_merge_counts_empty(self):
        assert merge_telemetry(None) == {"spans": 0, "events": 0,
                                         "metrics": 0}
        assert merge_telemetry({}) == {"spans": 0, "events": 0, "metrics": 0}

    def test_span_adoption_remaps_and_reparents(self):
        tracer, _ = obs.configure(tracing=True)
        with obs.span("engine.submit") as parent:
            parent_id = parent.span_id
        bundle = {
            "pid": 4242,
            "wall_epoch_ns": tracer.wall_epoch_ns + 2_000_000,  # +2ms
            "spans": [
                {"name": "worker.solve", "id": 1, "parent": None,
                 "kind": "sync", "start_us": 10.0, "dur_us": 50.0,
                 "attrs": {}},
                {"name": "synthesis.solve", "id": 2, "parent": 1,
                 "kind": "sync", "start_us": 20.0, "dur_us": 30.0,
                 "attrs": {}},
            ],
        }
        merged = merge_telemetry(bundle, parent_span_id=parent_id)
        assert merged["spans"] == 2
        solve = tracer.find("worker.solve")[0]
        inner = tracer.find("synthesis.solve")[0]
        # Root reparented under engine.submit; child follows the id remap.
        assert solve.parent_id == parent_id
        assert inner.parent_id == solve.span_id
        assert solve.span_id != 1  # re-allocated in the parent id space
        assert solve.pid == 4242
        # Wall-clock alignment: worker t=10us shifted by the +2ms epoch gap.
        assert solve.start_us == pytest.approx(2000.0 + 10.0)

    def test_journal_replay_stamps_worker_pid_and_corr(self):
        _, journal = obs.configure(journal=RunJournal())
        bundle = {
            "pid": 777,
            "corr": "cid",
            "events": [{"seq": 9, "schema_version": 1,
                        "event": "worker.synthesis", "cycle": 3,
                        "ms": 2.0}],
        }
        merged = merge_telemetry(bundle)
        assert merged["events"] == 1
        record = journal.records[-1]
        assert record["event"] == "worker.synthesis"
        assert record["cycle"] == 3
        assert record["worker_pid"] == 777 and record["corr"] == "cid"
        assert record["seq"] == 1  # parent journal assigns its own seq

    def test_metric_merge_folds_into_registry(self):
        obs.configure(metrics=True)
        worker = MetricsRegistry()
        worker.incr("worker.solves", 2)
        worker.observe("solve_ms", 12.0)
        merged = merge_telemetry({"pid": 1, "metrics": worker.export_state()})
        assert merged["metrics"] == 1
        assert perf.get("worker.solves") == 2
        assert perf.registry().histogram("solve_ms").count == 1
        assert perf.get("obs.worker.merges") == 1

    def test_chrome_export_gets_worker_track(self):
        tracer, _ = obs.configure(tracing=True)
        merge_telemetry({
            "pid": 555,
            "spans": [{"name": "worker.solve", "id": 1, "parent": None,
                       "kind": "sync", "start_us": 0.0, "dur_us": 1.0,
                       "attrs": {}}],
        })
        events = tracer.chrome_events()
        tracks = [e for e in events if e["name"] == "process_name"]
        assert any(e["args"]["name"] == "repro worker 555" for e in tracks)
        solve = next(e for e in events if e["name"] == "worker.solve")
        assert solve["pid"] == 555


def wave_of(engine: SynthesisEngine, job: RoutingJob):
    """The wave holding ``job``'s member (default tenant)."""
    return engine._members[("", job.key())][1]


class TestPooledEndToEnd:
    def test_submit_take_merges_worker_telemetry(self):
        tracer, journal = obs.configure(tracing=True, journal=RunJournal(),
                                        metrics=True)
        job = small_job()
        health = np.full((W, H), 3)
        with SynthesisEngine(workers=WORKERS) as engine:
            assert engine.submit(job, health)
            wave = wave_of(engine, job)
            assert wave.span_id is not None
            wait_done(wave.future)
            assert "telemetry" in wave.future.result()
            status, strategy = engine.take(job, health)
            assert wave.merged
        assert status == "hit" and strategy is not None
        solve_spans = tracer.find("worker.solve")
        assert len(solve_spans) == 1
        solve = solve_spans[0]
        submit = tracer.find("engine.batch.submit")[0]
        assert solve.parent_id == submit.span_id
        assert solve.pid not in (None, os.getpid())
        assert solve.attrs["corr"].startswith("batch@")
        worker_events = [r for r in journal.records
                         if r["event"] == "worker.synthesis"]
        assert len(worker_events) == 1
        assert worker_events[0]["worker_pid"] == solve.pid
        assert worker_events[0]["corr"] == solve.attrs["corr"]
        assert worker_events[0]["exists"] is True
        assert perf.get("worker.solves") == 1
        assert perf.get("obs.worker.merges") >= 1

    def test_batch_telemetry_merges_once(self):
        tracer, journal = obs.configure(tracing=True, journal=RunJournal(),
                                        metrics=True)
        job_a = small_job()
        start = Rect(3, 3, 5, 5)
        goal = Rect(18, 8, 20, 10)
        job_b = RoutingJob(start, goal, zone(start, goal, W, H))
        health = np.full((W, H), 3)
        with SynthesisEngine(workers=WORKERS) as engine:
            accepted = engine.presynthesize_batch(
                [(job_a, None), (job_b, None)], health
            )
            assert accepted == 2
            wave = wave_of(engine, job_a)
            assert wave_of(engine, job_b) is wave
            wait_done(wave.future)
            status_a, _ = engine.take(job_a, health)
            status_b, _ = engine.take(job_b, health)
        assert status_a == "hit" and status_b == "hit"
        # One worker.solve span for the whole wave, under the batch span.
        solve_spans = tracer.find("worker.solve")
        assert len(solve_spans) == 1
        batch = tracer.find("engine.batch.submit")[0]
        assert solve_spans[0].parent_id == batch.span_id
        assert solve_spans[0].attrs["jobs"] == 2
        # Per-member journal events, merged exactly once.
        worker_events = [r for r in journal.records
                         if r["event"] == "worker.synthesis"]
        assert len(worker_events) == 2
        assert perf.get("worker.solves") == 2
        assert perf.get("obs.worker.merges") == 1

    def test_wasted_speculation_telemetry_salvaged_on_close(self):
        tracer, _ = obs.configure(tracing=True, metrics=True)
        job = small_job()
        health = np.full((W, H), 3)
        engine = SynthesisEngine(workers=WORKERS)
        try:
            assert engine.submit(job, health)
            wave = wave_of(engine, job)
            # Never taken: the wave finishes unconsumed...
            wait_done(wave.future)
            assert not wave.merged
        finally:
            engine.close()
        # ...and close() merges its bundle.
        assert wave.merged
        assert len(tracer.find("worker.solve")) == 1
        assert perf.get("worker.solves") == 1

    def test_no_telemetry_payload_when_obs_disabled(self):
        job = small_job()
        health = np.full((W, H), 3)
        with SynthesisEngine(workers=WORKERS) as engine:
            assert engine.submit(job, health)
            wave = wave_of(engine, job)
            wait_done(wave.future)
            assert "telemetry" not in wave.future.result()
            status, strategy = engine.take(job, health)
        assert status == "hit" and strategy is not None

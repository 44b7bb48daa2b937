"""The serving core: queue + scheduler + shared engine + HTTP surface.

:class:`ServeService` is the resident process that ``repro serve``
runs: one shared :class:`~repro.engine.pool.SynthesisEngine` and one
shared :class:`~repro.engine.store.StrategyStore` multiplexed across N
concurrent assays, with a stdlib HTTP/JSONL API grafted onto the
existing :class:`~repro.obs.monitor.MonitorServer` (one listener serves
``/metrics``, ``/healthz`` *and* the job API):

* ``POST /jobs`` — submit an assay spec (JSON body); ``202`` with the
  job id, ``400`` on a bad spec, ``503`` while draining;
* ``GET /jobs`` — summary list of every known job;
* ``GET /jobs/<id>`` — one job's full document (state, spec, result);
* ``GET /jobs/<id>/events?since=N`` — that job's journal records as
  JSONL, paged by buffer offset; the trailing control line
  ``{"event": "serve.events.page", "next": M, "state": ...}`` carries
  the offset to resume from and the job's current state (so a client
  can tail events until the state goes terminal).

Per-job correlation works by construction: the scheduler wraps each run
in ``journal_scope(job_id=...)``, and this service installs a fan-out
journal sink that routes every record carrying a ``job_id`` into that
job's bounded event buffer (optionally teeing all records to a JSONL
file for post-mortem ``repro report``).

Graceful shutdown (:meth:`drain`): new submissions 503, queued jobs get
their chance within the drain deadline, still-queued jobs past the
deadline are rejected, the engine and store close (salvaging worker
telemetry), and ``serve.drain`` begin/end events bracket the whole
sequence in the journal.
"""

from __future__ import annotations

import json
import threading
from typing import Any

from repro import obs, perf
from repro.serve.job import (
    DONE,
    FAILED,
    QUEUED,
    REJECTED,
    RUNNING,
    AssayJob,
    AssaySpec,
)
from repro.serve.queue import JobQueue
from repro.serve.runner import AssayOutcome
from repro.serve.scheduler import AssayScheduler

_JSON = "application/json; charset=utf-8"
_JSONL = "application/jsonl; charset=utf-8"


class ServeDraining(RuntimeError):
    """Raised by :meth:`ServeService.submit` once a drain has begun."""


class _JournalFan:
    """Journal sink: route records by ``job_id``, optionally tee to file."""

    def __init__(self, service: "ServeService", path: Any = None) -> None:
        self._service = service
        self._lock = threading.Lock()
        self._fh = open(path, "w", encoding="utf-8") if path else None

    def __call__(self, record: dict[str, Any]) -> None:
        job_id = record.get("job_id")
        if job_id is not None:
            job = self._service.job(str(job_id))
            if job is not None:
                job.record_event(record)
        if self._fh is not None:
            with self._lock:
                if self._fh is not None:
                    self._fh.write(json.dumps(record) + "\n")
                    self._fh.flush()

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None


class ServeService:
    """A resident multi-assay serving process (see module docstring).

    ``engine_workers`` follows the ``repro run --workers`` convention
    (1 = synchronous engine, 0 = one process per core, N>1 = pool of N);
    the engine is created with ``admission_floor=True`` so a lone tenant
    on a single-core host never pays for speculation it cannot overlap.
    ``store_path`` of ``None`` serves without a persistent store (memo
    and library warmth only); ``keep_traces=True`` retains each job's
    ``ExecutionTrace`` in memory for bit-identity checks (tests, bench).
    """

    def __init__(
        self,
        port: int = 0,
        host: str = "127.0.0.1",
        serve_workers: int = 2,
        engine_workers: int = 1,
        store_path: Any = None,
        drain_deadline_s: float = 30.0,
        keep_traces: bool = False,
        journal_path: Any = None,
        engine_retries: int = 2,
        engine_deadline_ms: float | None = None,
    ) -> None:
        from repro.engine import StrategyStore, SynthesisEngine
        from repro.obs.monitor import MonitorServer

        self.drain_deadline_s = drain_deadline_s
        self.keep_traces = keep_traces
        self._lock = threading.RLock()
        self._jobs: dict[str, AssayJob] = {}
        self._order: list[str] = []
        self._traces: dict[str, Any] = {}
        self._draining = False
        self._drain_done = threading.Event()
        self._drain_summary: dict[str, int] = {}
        self._stopped = False

        # store_path: None = no persistent store; "auto" = the default
        # cache location (StrategyStore(None)); anything else = that path.
        if store_path is None:
            store = None
        elif store_path == "auto":
            store = StrategyStore(None)
        else:
            store = StrategyStore(store_path)
        self.engine = SynthesisEngine(
            workers=engine_workers, store=store,
            retries=engine_retries, deadline_ms=engine_deadline_ms,
            admission_floor=True,
        )
        self.queue = JobQueue()
        self.scheduler = AssayScheduler(
            self.queue, workers=serve_workers, engine=self.engine,
            on_finish=self._job_finished,
        )
        self._fan = _JournalFan(self, journal_path)
        self.monitor = MonitorServer(
            port=port, host=host, health=self._health, routes=self._routes
        )

    # -- lifecycle -------------------------------------------------------

    def start(self) -> int:
        """Configure telemetry, bind the HTTP listener, start workers."""
        obs.configure(journal=self._fan, metrics=True)
        port = self.monitor.start()
        self.scheduler.start()
        obs.journal_event(
            "serve.start", port=port,
            serve_workers=self.scheduler.workers,
            engine_workers=self.engine.workers,
            pooled=self.engine.pooled,
        )
        return port

    @property
    def url(self) -> str:
        return self.monitor.url

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    def drain(self, deadline_s: float | None = None) -> dict[str, int]:
        """Stop admissions, settle the backlog, tear everything down.

        Returns a small summary dict (also journaled as the
        ``serve.drain`` end event).  Idempotent: later calls return the
        first drain's summary.
        """
        with self._lock:
            if self._draining:
                already = True
            else:
                already = False
                self._draining = True
        if already:
            # A drain is running (or done) on another thread: wait it out.
            self._drain_done.wait(
                (self.drain_deadline_s if deadline_s is None else deadline_s)
                + 60.0
            )
            return dict(self._drain_summary)
        deadline_s = (
            self.drain_deadline_s if deadline_s is None else deadline_s
        )
        obs.journal_event(
            "serve.drain", phase="begin", deadline_s=deadline_s,
            queued=len(self.queue), inflight=self.scheduler.inflight,
        )
        settled = self.scheduler.wait_idle(timeout=deadline_s)
        rejected = 0
        if not settled:
            for job in self.queue.drain():
                job.state = REJECTED
                job.error = "cancelled: drain deadline expired before start"
                job.mark_finished()
                job.mark_done()
                rejected += 1
                perf.incr("serve.jobs.rejected")
                obs.journal_event(
                    "serve.job.rejected", job_id=job.id, reason="drain"
                )
        self.scheduler.stop(timeout=max(deadline_s, 1.0))
        self.engine.close()
        with self._lock:
            states: dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            summary = {
                "settled": int(settled),
                "rejected_at_drain": rejected,
                **{f"jobs_{state}": n for state, n in sorted(states.items())},
            }
            self._drain_summary = summary
        obs.journal_event("serve.drain", phase="end", **summary)
        self._fan.close()
        obs.shutdown()
        self.monitor.stop()
        with self._lock:
            self._stopped = True
        self._drain_done.set()
        return summary

    def __enter__(self) -> "ServeService":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        if not self._stopped:
            self.drain()

    # -- job management --------------------------------------------------

    def submit(self, spec: AssaySpec) -> AssayJob:
        """Validate, register and enqueue one job (thread-safe)."""
        spec.validate()
        with self._lock:
            if self._draining:
                perf.incr("serve.jobs.rejected")
                raise ServeDraining("server is draining; not accepting jobs")
            job = AssayJob(spec=spec)
            self._jobs[job.id] = job
            self._order.append(job.id)
        self.queue.put(job)
        perf.incr("serve.jobs.submitted")
        obs.journal_event(
            "serve.job.queued", job_id=job.id, bioassay=spec.bioassay,
            seed=spec.seed, priority=spec.priority,
        )
        return job

    def job(self, job_id: str) -> AssayJob | None:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[AssayJob]:
        with self._lock:
            return [self._jobs[job_id] for job_id in self._order]

    def trace(self, job_id: str) -> Any:
        """A finished job's retained ExecutionTrace (``keep_traces`` only)."""
        with self._lock:
            return self._traces.get(job_id)

    def _job_finished(
        self, job: AssayJob, outcome: "AssayOutcome | None"
    ) -> None:
        if self.keep_traces and outcome is not None:
            with self._lock:
                self._traces[job.id] = outcome.trace

    # -- HTTP surface (mounted on the MonitorServer) ---------------------

    def _health(self) -> dict[str, Any]:
        with self._lock:
            states: dict[str, int] = {
                state: 0 for state in (QUEUED, RUNNING, DONE, FAILED, REJECTED)
            }
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            draining = self._draining
        return {
            "role": "serve",
            "draining": draining,
            "queue_depth": len(self.queue),
            "inflight": self.scheduler.inflight,
            "jobs": states,
            "engine_degraded": self.engine.degraded,
        }

    def _routes(
        self, method: str, raw_path: str, body: bytes
    ) -> tuple[int, str, str] | None:
        path, _, query = raw_path.partition("?")
        path = path.rstrip("/") or "/"
        if path == "/jobs":
            if method == "POST":
                return self._post_jobs(body)
            if method == "GET":
                return self._get_jobs()
            return 405, _JSON, json.dumps({"error": "method not allowed"})
        if path.startswith("/jobs/"):
            parts = path.split("/")  # "", "jobs", <id>[, "events"]
            if method != "GET" or len(parts) not in (3, 4):
                return None
            job = self.job(parts[2])
            if job is None:
                return 404, _JSON, json.dumps(
                    {"error": f"no such job: {parts[2]}"}
                )
            if len(parts) == 3:
                return self._get_job(job, query)
            if parts[3] == "events":
                return self._get_events(job, query)
        return None

    def _get_job(self, job: AssayJob, query: str) -> tuple[int, str, str]:
        # ?wait=S long-polls until the job is terminal (capped at 30 s per
        # request; the client loops).  Each request runs on its own
        # ThreadingHTTPServer thread, so blocking here wedges nothing.
        for part in query.split("&"):
            if part.startswith("wait="):
                try:
                    wait_s = min(max(float(part[len("wait="):]), 0.0), 30.0)
                except ValueError:
                    return 400, _JSON, json.dumps(
                        {"error": f"bad wait: {part!r}"}
                    )
                if job.state in (QUEUED, RUNNING):
                    job.wait_done(wait_s)
        return 200, _JSON, json.dumps(job.to_dict())

    def _post_jobs(self, body: bytes) -> tuple[int, str, str]:
        try:
            payload = json.loads(body.decode("utf-8") or "{}")
            spec = AssaySpec.from_dict(payload)
        except (ValueError, UnicodeDecodeError) as exc:
            return 400, _JSON, json.dumps({"error": str(exc)})
        try:
            job = self.submit(spec)
        except ServeDraining as exc:
            return 503, _JSON, json.dumps({"error": str(exc)})
        return 202, _JSON, json.dumps({"id": job.id, "state": job.state})

    def _get_jobs(self) -> tuple[int, str, str]:
        summaries = [
            {"id": job.id, "state": job.state,
             "bioassay": job.spec.bioassay, "seed": job.spec.seed}
            for job in self.jobs()
        ]
        return 200, _JSON, json.dumps({"jobs": summaries})

    def _get_events(self, job: AssayJob, query: str) -> tuple[int, str, str]:
        since = 0
        for part in query.split("&"):
            if part.startswith("since="):
                try:
                    since = max(int(part[len("since="):]), 0)
                except ValueError:
                    return 400, _JSON, json.dumps(
                        {"error": f"bad since: {part!r}"}
                    )
        page, next_offset = job.events(since)
        lines = [json.dumps(record) for record in page]
        lines.append(json.dumps({
            "event": "serve.events.page",
            "job_id": job.id,
            "next": next_offset,
            "state": job.state,
        }))
        return 200, _JSONL, "\n".join(lines) + "\n"

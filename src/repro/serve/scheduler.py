"""The assay scheduler: N worker threads draining the job queue.

Each worker claims one job at a time, opens a per-job tenant view on the
shared :class:`~repro.engine.pool.SynthesisEngine` (so fair-share
admission arbitrates speculative submits between concurrently running
assays), wraps the run in a :func:`~repro.obs.journal.journal_scope`
stamping ``job_id`` into every journal record the run emits, and moves
the job through its lifecycle states.  Worker threads — not processes —
because the heavy lifting (value iteration) already happens either in
the engine's process pool or in numpy kernels that release the GIL, and
threads let every assay share one store memo and one strategy library
warm set for free.
"""

from __future__ import annotations

import threading
import time
import traceback
from typing import Any, Callable

from repro import obs, perf
from repro.serve.job import DONE, FAILED, RUNNING, AssayJob
from repro.serve.queue import JobQueue
from repro.serve.runner import AssayOutcome, execute_assay


class AssayScheduler:
    """Fan a :class:`JobQueue` out over ``workers`` assay threads.

    ``engine`` is the shared :class:`SynthesisEngine` (or ``None`` for
    engine-less serving); ``on_finish`` is called with
    ``(job, outcome | None)`` after every job settles, letting the
    service retain traces and update indexes without the scheduler
    knowing about HTTP.
    """

    def __init__(
        self,
        queue: JobQueue,
        workers: int = 2,
        engine: Any = None,
        on_finish: "Callable[[AssayJob, AssayOutcome | None], None] | None" = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"serve workers must be >= 1, got {workers}")
        self.queue = queue
        self.engine = engine
        self.on_finish = on_finish
        self._threads = [
            threading.Thread(
                target=self._worker_loop, name=f"repro-serve-{i}", daemon=True
            )
            for i in range(workers)
        ]
        self._inflight = 0
        self._idle = threading.Condition()
        self._started = False

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        if self._started:
            raise RuntimeError("scheduler already started")
        self._started = True
        for thread in self._threads:
            thread.start()

    def stop(self, timeout: float = 30.0) -> bool:
        """Close the queue and join the workers; ``True`` if all exited."""
        self.queue.close()
        deadline = time.monotonic() + timeout
        alive = False
        for thread in self._threads:
            thread.join(timeout=max(deadline - time.monotonic(), 0.0))
            alive = alive or thread.is_alive()
        return not alive

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until the queue is empty and no job is running.

        Polls (50 ms) rather than relying purely on the finish
        notification: a job popped from the queue but not yet marked
        in-flight is invisible to both counters for a moment, and the
        poll re-checks past that window.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        idle_streak = 0
        while idle_streak < 2:  # two observations span the pop window
            with self._idle:
                if len(self.queue) or self._inflight:
                    idle_streak = 0
                    if deadline is not None and time.monotonic() >= deadline:
                        return False
                    self._idle.wait(0.05)
                    continue
            idle_streak += 1
            if idle_streak < 2:
                time.sleep(0.02)
        return True

    @property
    def inflight(self) -> int:
        with self._idle:
            return self._inflight

    @property
    def workers(self) -> int:
        return len(self._threads)

    # -- the worker loop -------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            job = self.queue.get(timeout=0.2)
            if job is None:
                if self.queue.closed:
                    return
                continue
            self._run_job(job)

    def _run_job(self, job: AssayJob) -> None:
        with self._idle:
            self._inflight += 1
            perf.set_gauge("serve.jobs.inflight", float(self._inflight))
        job.state = RUNNING
        job.mark_started()
        view = self.engine.tenant(job.id) if self.engine is not None else None
        outcome: AssayOutcome | None = None
        try:
            with obs.journal_scope(job_id=job.id):
                obs.journal_event(
                    "serve.job.start", job_id=job.id,
                    bioassay=job.spec.bioassay, seed=job.spec.seed,
                    priority=job.spec.priority,
                )
                # The finish stamp lands before the terminal state is
                # published, so any reader that sees done/failed also
                # sees finished_at and run_ms.
                try:
                    outcome = execute_assay(job.spec, engine=view)
                except Exception as exc:  # noqa: BLE001 - job isolation
                    job.error = (
                        f"{type(exc).__name__}: {exc}\n"
                        + traceback.format_exc(limit=8)
                    )
                    job.mark_finished()
                    job.state = FAILED
                    perf.incr("serve.jobs.failed")
                    obs.journal_event(
                        "serve.job.failed", job_id=job.id,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                else:
                    job.result = outcome.to_result_dict()
                    job.mark_finished()
                    job.state = DONE
                    perf.incr("serve.jobs.completed")
                    obs.journal_event(
                        "serve.job.done", job_id=job.id,
                        **job.result,
                    )
        finally:
            if view is not None:
                view.close()
            if job.finished_at is None:  # the body raised past both arms
                job.mark_finished()
            job.mark_done()
            if self.on_finish is not None:
                try:
                    self.on_finish(job, outcome)
                except Exception:  # noqa: BLE001 - callback isolation
                    traceback.print_exc()
            with self._idle:
                self._inflight -= 1
                perf.set_gauge("serve.jobs.inflight", float(self._inflight))
                self._idle.notify_all()

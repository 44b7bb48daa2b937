"""Cross-process telemetry propagation for pool workers.

Pool workers used to be telemetry black holes: the parent's tracer,
journal and metrics live in the parent process, and a
``ProcessPoolExecutor`` worker starts with all of them off.  This module
closes the loop without any side channel — telemetry piggybacks on the
payloads that already cross the process boundary:

* the parent attaches a **capture config** to each submission
  (:func:`capture_config`): which pillars are on, plus a correlation id;
* the worker wraps the solve in a :class:`WorkerCapture` — a fresh
  process-local :class:`~repro.obs.tracing.Tracer`, an in-memory
  :class:`~repro.obs.journal.RunJournal`, and a fresh
  :class:`~repro.obs.metrics.MetricsRegistry` swapped in for the task so
  the metric delta is exact — and ships the bundle back on the result
  payload;
* the parent merges the bundle (:func:`merge_telemetry`): spans graft into
  the parent trace under the ``engine.batch.submit`` span that launched the work
  (wall-clock aligned, rendered on a per-worker Perfetto track), journal
  events replay with ``worker_pid``/``corr`` stamped on, and metric deltas
  fold into the parent registry.

When the parent has no telemetry configured, :func:`capture_config`
returns ``None``, the payload carries nothing, and the worker-side
``WorkerCapture`` is a no-op — the disabled fast path stays inside the
``bench_obs_overhead`` budget.
"""

from __future__ import annotations

import os
from typing import Any

from repro import obs, perf
from repro.obs.journal import RunJournal
from repro.obs.metrics import MetricsRegistry

#: Journal-record fields that are journal bookkeeping, not event payload;
#: stripped before a worker event is re-emitted into the parent journal
#: (which assigns its own ``seq``/``schema_version``/``cycle``).
_REPLAY_BOOKKEEPING = ("seq", "schema_version", "event", "cycle")


def capture_config(corr: "str | None" = None) -> "dict[str, Any] | None":
    """The telemetry capture request to attach to a worker payload.

    Returns ``None`` when the parent process has no telemetry switched on
    (no tracer, no journal, no explicit ``metrics`` request) — the common
    case, costing three module-global reads.  Otherwise a small dict the
    worker-side :class:`WorkerCapture` understands; metrics ship whenever
    anything is on (the delta is cheap and keeps pooled counter totals
    truthful).  ``corr`` is an opaque correlation id stamped onto worker
    spans and replayed journal events.
    """
    trace = obs.enabled()
    journal = obs.journal() is not None
    if not (trace or journal or obs.metrics_enabled()):
        return None
    return {"trace": trace, "journal": journal, "metrics": True, "corr": corr}


class WorkerCapture:
    """Worker-side capture of one task's spans, events and metric delta.

    Use as a context manager around the solve; :meth:`export` afterwards
    returns the bundle to attach to the result payload (or ``None`` when
    the capture was inactive).  The worker's own telemetry state is
    restored on exit — in particular the task's metric delta is folded
    back into the worker's cumulative registry, so worker-local totals
    stay monotone whether or not the parent consumes the bundle.
    """

    def __init__(self, config: "dict[str, Any] | None") -> None:
        self.config = config
        self._tracer = None
        self._journal: RunJournal | None = None
        self._registry: MetricsRegistry | None = None
        self._saved_registry: MetricsRegistry | None = None

    @property
    def active(self) -> bool:
        return self.config is not None

    @property
    def corr(self) -> "str | None":
        return None if self.config is None else self.config.get("corr")

    def __enter__(self) -> "WorkerCapture":
        if self.config is None:
            return self
        if self.config.get("trace"):
            self._tracer, _ = obs.configure(tracing=True)
        if self.config.get("journal"):
            self._journal = RunJournal()
            obs.configure(journal=self._journal)
        if self.config.get("metrics"):
            self._registry = MetricsRegistry()
            self._saved_registry = perf.swap_registry(self._registry)
        return self

    def __exit__(self, *exc: object) -> None:
        if self._registry is not None and self._saved_registry is not None:
            perf.swap_registry(self._saved_registry)
            self._saved_registry.merge(self._registry.export_state())
        if self._tracer is not None or self._journal is not None:
            obs.shutdown()

    def export(self) -> "dict[str, Any] | None":
        """The pickle-safe telemetry bundle for the result payload."""
        if self.config is None:
            return None
        bundle: dict[str, Any] = {"pid": os.getpid()}
        if self.corr is not None:
            bundle["corr"] = self.corr
        if self._tracer is not None:
            bundle["wall_epoch_ns"] = self._tracer.wall_epoch_ns
            bundle["spans"] = [s.to_record() for s in self._tracer.spans]
        if self._journal is not None:
            bundle["events"] = self._journal.records
        if self._registry is not None:
            bundle["metrics"] = self._registry.export_state()
        return bundle


def merge_telemetry(
    bundle: "dict[str, Any] | None",
    parent_span_id: "int | None" = None,
) -> dict[str, int]:
    """Merge a worker's telemetry bundle into this process's obs state.

    Each pillar merges only if the corresponding parent sink still exists
    (the run may have shut telemetry down while the wave was in
    flight).  Returns ``{"spans", "events", "metrics"}`` merge counts.
    """
    merged = {"spans": 0, "events": 0, "metrics": 0}
    if not bundle:
        return merged
    pid = bundle.get("pid")
    corr = bundle.get("corr")

    tracer = obs.tracer()
    spans = bundle.get("spans")
    if tracer is not None and spans:
        merged["spans"] = tracer.adopt(
            spans,
            parent_id=parent_span_id,
            pid=pid,
            wall_epoch_ns=bundle.get("wall_epoch_ns"),
        )

    journal = obs.journal()
    events = bundle.get("events")
    if journal is not None and events:
        for record in events:
            fields = {
                key: value
                for key, value in record.items()
                if key not in _REPLAY_BOOKKEEPING
            }
            if pid is not None:
                fields.setdefault("worker_pid", pid)
            if corr is not None:
                fields.setdefault("corr", corr)
            journal.emit(
                record.get("event", "worker.event"),
                cycle=record.get("cycle"),
                **fields,
            )
        merged["events"] = len(events)

    metrics = bundle.get("metrics")
    if metrics:
        perf.merge(metrics)
        merged["metrics"] = 1

    if merged["spans"] or merged["events"] or merged["metrics"]:
        perf.incr("obs.worker.merges")
    return merged

"""The parallel synthesis engine: batched pre-synthesis on a worker pool.

Per-RJ strategy synthesis is the dominant cost of a bioassay execution
(Table V); the hybrid scheduler pays it serially, at MO-activation time, on
the planning thread.  The paper's answer is pre-synthesis before the assay
(Sec. VI-D), and the :class:`SynthesisEngine` runs that wave — one
:meth:`~SynthesisEngine.presynthesize_batch` call per assay start, issued
by :meth:`~repro.core.scheduler.HybridScheduler.presynthesize`:

* **a wave** ships the routing jobs, the force matrix derived from the
  sensed health, the query and epsilon, plus any warm-start values, as one
  pickle-safe payload.  With a pool it is one ``ProcessPoolExecutor`` task
  (:func:`_worker_synthesize_batch`); without one it is solved inline.
  Both run :func:`_synthesize_wave`, the batched
  :func:`~repro.core.synthesis.synthesize_batch`, and return compact
  ``{pattern: action, values}`` payloads (no model object crosses the
  process boundary).  Each wave is one :class:`_Wave` record; its members
  are indexed by ``(tenant, job key)``, and a later wave replaces an older
  member with the same key;
* **consumption** (:meth:`~SynthesisEngine.take`) pops the member and
  matches it by its exact health fingerprint.  A member computed for other
  health, or still running when the strategy is needed, is a miss and the
  caller synthesizes synchronously.  Presynthesis therefore only ever
  changes latency, never routing decisions: any strategy it yields is the
  one synchronous synthesis would have produced for the same job and
  health.

Warm-start values are captured at submission time.  That matches the
synchronous path because warm values are keyed by job key and only change
when that same key is re-solved — and a re-solve installs a library entry
that takes precedence over any presynthesized member.

**Fault tolerance** (:mod:`repro.engine.faults`): a broken pool (worker
OOM-killed / segfaulted) kills the remaining workers, drops the members of
every wave that died with it, and rebuilds the executor with capped
exponential backoff, at most :data:`REBUILD_BUDGET` times; past that the
engine *degrades permanently*: ``engine.degraded`` is set, an
``engine.degraded`` journal event is emitted, and later waves are solved
inline.  Any other failure is counted and falls back to synchronous
synthesis.  None of this can change routing: members are matched exactly
and every failure path is a miss, so a faulted run routes bit-identically
to a no-pool run.

The engine also fronts the persistent :class:`~repro.engine.store.StrategyStore`
(``store_get``/``store_put``) so the router has one engine façade.
Counters: ``engine.prefetch.{submitted,hits,misses}``, ``engine.errors``,
``engine.fault.{pool,transient,payload}``, ``engine.rebuilds``,
``engine.degraded``, ``engine.batch.submitted``; spans: ``engine.wait`` /
``engine.batch.submit`` (a wave, also journaled as an
``engine.batch.submit`` event).

**Multi-tenancy** (:class:`TenantView`): one engine (and its store) can be
shared by N concurrent assays.  Every member is namespaced by a tenant
name, so assays can never consume or replace each other's members; the
engine itself is thread-safe (one lock around the member state).  The
store façade is deliberately tenant-agnostic: store entries are keyed by
(job, health fingerprint) alone, which is exactly what makes cross-assay
amortization sound.

**Telemetry propagation** (:mod:`repro.obs.propagate`): when the parent
has any telemetry configured, a pooled wave carries a capture config, the
worker records its solve in a process-local ``worker.solve`` span (plus
``worker.synthesis`` journal events and a ``worker.solves`` counter), and
the bundle rides back on the result payload.  It is grafted under the
wave's ``engine.batch.submit`` span once per wave: at the first
:meth:`~SynthesisEngine.take` that finds the wave done, or, for a wave
that finished unconsumed, at the next wave or at
:meth:`~SynthesisEngine.close`.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from concurrent.futures import CancelledError, Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import numpy as np

from repro import obs, perf
from repro.obs.propagate import WorkerCapture, capture_config, merge_telemetry
from repro.core.actions import DEFAULT_MAX_ASPECT
from repro.core.routing_job import RoutingJob
from repro.core.strategy import (
    RoutingStrategy,
    health_fingerprint,
    job_from_payload,
    job_to_payload,
    strategy_from_synthesis,
)
from repro.core.synthesis import (
    SYNTHESIS_EPSILON,
    BatchRequest,
    force_field_from_health,
    synthesize_batch,
)
from repro.core.transitions import MatrixForceField
from repro.engine import chaos
from repro.engine.faults import FaultKind, classify_failure
from repro.engine.payload import (
    side_for_objective,
    warm_values_from_payload,
    warm_values_to_payload,
)
from repro.engine.store import StrategyStore
from repro.modelcheck.properties import Query

#: How many times a broken executor is rebuilt before the engine degrades
#: permanently to inline synthesis.
REBUILD_BUDGET = 3
#: Capped exponential delay before rebuild *n*: ``min(cap, base * 2**n)``.
BACKOFF_BASE_S = 0.05
BACKOFF_CAP_S = 2.0


def _backoff(rebuilds_so_far: int) -> float:
    """Seconds to wait before the next rebuild."""
    return min(BACKOFF_CAP_S, BACKOFF_BASE_S * (2 ** rebuilds_so_far))


def _result_payload(job: RoutingJob, result) -> dict:
    """The compact cross-process form of one synthesis result."""
    strategy = strategy_from_synthesis(job, result)
    return {
        "strategy": None if strategy is None else strategy.to_payload(),
        "expected_cycles": result.expected_cycles,
        "construct_ms": result.construction_time * 1e3,
        "solve_ms": result.solve_time * 1e3,
    }


def _synthesize_wave(payload: dict) -> list[dict]:
    """Solve one wave payload: per-member result payloads, in item order.

    The batch kernel shares graph precompute across same-shape members,
    and each member is bit-identical to a solo synthesis of it
    (:func:`~repro.core.synthesis.synthesize_batch` guarantees equivalence
    with the per-RJ path).
    """
    field = MatrixForceField(np.asarray(payload["forces"], dtype=float))
    query = payload["query"]
    side = side_for_objective(None if query is None else query.objective)
    jobs = [job_from_payload(item["job"]) for item in payload["items"]]
    requests = [
        BatchRequest(
            job,
            field,
            warm_values=warm_values_from_payload(
                item["warm_values"], expected_side=side
            ),
        )
        for job, item in zip(jobs, payload["items"])
    ]
    results = synthesize_batch(
        requests,
        query=query,
        max_aspect=payload["max_aspect"],
        epsilon=payload["epsilon"],
    )
    return [_result_payload(job, result) for job, result in zip(jobs, results)]


def _worker_synthesize_batch(payload: dict) -> dict:
    """The pool task: one wave, with chaos injection and worker telemetry.

    Runs in a pool process, so the worker's template cache / batch-value
    memo persist across waves; must stay importable at module level so the
    executor can pickle a reference to it.  Results come back positionally
    under ``"results"``, next to the telemetry bundle when one was asked
    for.
    """
    injector = chaos.injector()
    if injector is not None:
        injector.worker_inject(payload.get("chaos_token", ""))
    capture = WorkerCapture(payload.get("telemetry"))
    items = payload["items"]
    with capture:
        started = time.perf_counter()
        with obs.span("worker.solve", jobs=len(items), corr=capture.corr):
            results = _synthesize_wave(payload)
        perf.incr("worker.solves", len(items))
        elapsed_ms = round((time.perf_counter() - started) * 1e3, 3)
        # A lone job's wall time is its own; a wave's is shared, so its
        # members carry it as batch_ms (see repro.obs.report).
        timing = (
            {"ms": elapsed_ms} if len(items) == 1
            else {"batch": True, "batch_ms": elapsed_ms}
        )
        for item, member in zip(items, results):
            obs.journal_event(
                "worker.synthesis",
                job=job_from_payload(item["job"]).key(),
                **timing,
                construct_ms=member["construct_ms"],
                solve_ms=member["solve_ms"],
                exists=member["strategy"] is not None,
            )
    out: dict = {"results": results}
    bundle = capture.export()
    if bundle is not None:
        out["telemetry"] = bundle
    return out


def resolve_workers(workers: int) -> int:
    """``0`` means "all cores"; ``1`` disables the pool.

    Negative counts are a configuration error, not a silent way to turn
    the pool off — they raise so a typo'd sweep script fails loudly.
    """
    if workers < 0:
        raise ValueError(
            f"workers must be >= 0 (0 = one per core, 1 = no pool), "
            f"got {workers}"
        )
    if workers == 0:
        return os.cpu_count() or 1
    return workers


@dataclass
class _Wave:
    """One submitted presynthesis wave.

    ``future`` resolves to ``{"results": [...]}`` (plus the worker's
    telemetry bundle for a pooled wave); inline waves hold an already
    completed future.  ``span_id`` is the ``engine.batch.submit`` span the
    worker's spans are grafted under, and ``merged`` records that the
    bundle has been merged (it merges once per wave).
    """

    future: Future
    span_id: int | None = None
    merged: bool = False


def _succeeded(wave: _Wave) -> bool:
    future = wave.future
    return (
        future.done() and not future.cancelled()
        and future.exception() is None
    )


class SynthesisEngine:
    """Presynthesis execution: worker pool + persistent store.

    ``workers`` — pool size; ``0`` = one per core, ``1`` = no pool (waves
    are then solved inline).  The synthesis parameters must match the
    router's — they are baked into every wave payload.

    The engine is thread-safe and multi-tenant: :meth:`tenant` returns a
    :class:`TenantView` whose members are namespaced to the tenant.
    """

    def __init__(
        self,
        workers: int = 0,
        *,
        bits: int = 2,
        query: Query | None = None,
        max_aspect: float = DEFAULT_MAX_ASPECT,
        pessimistic: bool = False,
        epsilon: float = SYNTHESIS_EPSILON,
        store: StrategyStore | None = None,
    ) -> None:
        self.workers = resolve_workers(workers)
        self.bits = bits
        self.query = query
        self.max_aspect = max_aspect
        self.pessimistic = pessimistic
        self.epsilon = epsilon
        self.store = store
        self._executor: ProcessPoolExecutor | None = (
            ProcessPoolExecutor(max_workers=self.workers)
            if self.workers > 1
            else None
        )
        # One lock around the member state: waves, takes and fault
        # handling may come from N assay-worker threads sharing this
        # engine (repro.serve).
        self._lock = threading.Lock()
        #: ``(tenant, job key) -> (health fingerprint, wave, index)``.
        self._members: dict[tuple, tuple[bytes, _Wave, int]] = {}
        #: Waves whose worker telemetry has not been merged yet.
        self._waves: list[_Wave] = []
        self._wave_seq = 0
        self._closed = False
        self.degraded = False
        self.submitted = 0
        self.hits = 0
        self.misses = 0
        self.errors = 0
        self.rebuilds = 0
        self.faults: dict[str, int] = {}

    # -- lifecycle -----------------------------------------------------------

    @property
    def pooled(self) -> bool:
        """Whether a worker pool is actually running."""
        return self._executor is not None

    @property
    def wasted(self) -> int:
        """Submitted members that were dropped without yielding an answer."""
        return self.submitted - self.hits - len(self._members)

    def close(self) -> None:
        """Shut the pool down, merging the telemetry of finished waves."""
        with self._lock:
            self._closed = True
            self._members.clear()
            self._merge_finished()
            if self._executor is not None:
                self._executor.shutdown(wait=False, cancel_futures=True)
                self._executor = None
        if self.store is not None:
            self.store.close()

    def __enter__(self) -> "SynthesisEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- multi-tenancy -------------------------------------------------------

    def tenant(self, name: str) -> "TenantView":
        """The engine façade for one named tenant (one assay).

        Release it with :meth:`TenantView.close` when the assay finishes.
        """
        if not name:
            raise ValueError("tenant name must be non-empty")
        return TenantView(self, name)

    def release_tenant(self, name: str) -> None:
        """Drop every member a tenant has not taken."""
        with self._lock:
            self._members = {
                key: member for key, member in self._members.items()
                if key[0] != name
            }

    # -- fault handling ------------------------------------------------------

    def _record_fault(
        self, kind: FaultKind, detail: object, job_key: tuple | None = None
    ) -> None:
        """Count and journal one classified worker failure."""
        self.errors += 1
        self.faults[kind.value] = self.faults.get(kind.value, 0) + 1
        perf.incr("engine.errors")
        perf.incr(f"engine.fault.{kind.value}")
        obs.journal_event(
            "engine.fault",
            kind=kind.value,
            job=job_key,
            detail=detail if isinstance(detail, str) else repr(detail),
        )

    def _kill_worker_processes(self) -> None:
        """SIGKILL the pool's worker processes.

        ``ProcessPoolExecutor`` cannot cancel a *running* task — shutdown
        waits for it — so reclaiming a busy worker means killing the
        process outright.  Best-effort over the executor's internal
        process table; a worker that already died is skipped.
        """
        processes = getattr(self._executor, "_processes", None) or {}
        for proc in list(processes.values()):
            pid = getattr(proc, "pid", None)
            if pid is None:
                continue
            try:
                os.kill(pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError, OSError):
                pass

    def _rebuild_pool(self) -> None:
        """Replace a broken executor (backoff + budget), or degrade.

        The old executor's workers are killed outright (a broken pool may
        still hold busy processes) and the members of every wave that
        died with it are dropped, so they miss.  Abandoned, never
        ``Future.cancel()``: cancelling a queued work item of a pool that
        later breaks makes the executor's ``terminate_broken`` call
        ``set_exception`` on a CANCELLED future, and the management thread
        dies mid-cleanup; ``shutdown(cancel_futures=True)`` cancels safely.
        """
        if self._executor is not None:
            self._kill_worker_processes()
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        self._members = {
            key: member for key, member in self._members.items()
            if _succeeded(member[1])
        }
        if self._closed:
            return
        reason = "rebuild budget exhausted"
        if self.rebuilds < REBUILD_BUDGET:
            delay = _backoff(self.rebuilds)
            if delay > 0:
                time.sleep(delay)
            self.rebuilds += 1
            perf.incr("engine.rebuilds")
            obs.journal_event(
                "engine.rebuild", attempt=self.rebuilds,
                backoff_ms=delay * 1e3,
            )
            try:
                self._executor = ProcessPoolExecutor(max_workers=self.workers)
                return
            except OSError as exc:
                self._record_fault(FaultKind.POOL, exc)
                reason = "executor re-creation failed"
        self.degraded = True
        perf.incr("engine.degraded")
        obs.journal_event(
            "engine.degraded", reason=reason, rebuilds=self.rebuilds
        )

    def _settle(self, wave: _Wave) -> dict:
        """A finished wave's result payload; merges its telemetry once."""
        payload = wave.future.result()
        if not wave.merged:
            wave.merged = True
            telemetry = payload.pop("telemetry", None)
            if telemetry is not None:
                merge_telemetry(telemetry, parent_span_id=wave.span_id)
        return payload

    def _merge_finished(self) -> None:
        """Merge the telemetry of finished waves nobody has taken from."""
        running = []
        for wave in self._waves:
            if not wave.future.done():
                running.append(wave)
                continue
            try:
                self._settle(wave)
            except (Exception, CancelledError):
                pass  # a failed wave ships no telemetry; take() counts it
        self._waves = running

    # -- presynthesis --------------------------------------------------------

    def submit(
        self,
        job: RoutingJob,
        health: np.ndarray,
        warm_values: dict | None = None,
        tenant: str = "",
    ) -> bool:
        """Presynthesize one job: a one-member :meth:`presynthesize_batch`."""
        return self.presynthesize_batch([(job, warm_values)], health, tenant) == 1

    def presynthesize_batch(
        self,
        items: "list[tuple[RoutingJob, dict | None]]",
        health: np.ndarray,
        tenant: str = "",
    ) -> int:
        """Presynthesize a wave of jobs as one batched task.

        ``items`` pairs each routing job with its warm-start values (or
        ``None``); all members share the sensed ``health``.  With a pool
        the wave is one pool task; without one (``workers=1`` or a
        degraded engine) it is solved inline before this returns.  Each
        member replaces any older member with the same job key, and
        :meth:`take` reports on it per job.  Never raises on a pool
        failure: a broken or closed pool is counted, the pool is rebuilt
        when the budget allows, and ``0`` is returned — the scheduler loop
        must survive any engine state.  Returns the number of jobs
        submitted.
        """
        with self._lock:
            if self._closed or not items:
                return 0
            self._merge_finished()
            forces = force_field_from_health(
                health, bits=self.bits, pessimistic=self.pessimistic
            ).forces
            side = side_for_objective(
                None if self.query is None else self.query.objective
            )
            fingerprints = [
                health_fingerprint(health, job.hazard) for job, _ in items
            ]
            self._wave_seq += 1
            tag = fingerprints[0].hex()
            n = len(items)
            payload = {
                "items": [
                    {
                        "job": job_to_payload(job),
                        "warm_values": warm_values_to_payload(
                            warm_values, side=side
                        ),
                    }
                    for job, warm_values in items
                ],
                "forces": forces,
                "query": self.query,
                "max_aspect": self.max_aspect,
                "epsilon": self.epsilon,
                # The wave sequence number re-rolls chaos decisions from
                # run to run on an unchanged chip.
                "chaos_token": f"batch|{tag}|n{n}|w{self._wave_seq}",
            }
            if self._executor is None:
                with obs.span("engine.batch.submit", jobs=n, sync=True):
                    future: Future = Future()
                    future.set_result({"results": _synthesize_wave(payload)})
                wave = _Wave(future)
            else:
                telemetry = capture_config(corr=f"batch@{tag[:12]}*{n}")
                if telemetry is not None:
                    payload["telemetry"] = telemetry
                try:
                    with obs.span("engine.batch.submit", jobs=n) as span:
                        future = self._executor.submit(
                            _worker_synthesize_batch, payload
                        )
                except BrokenProcessPool as exc:
                    # The pool died under us: classify, rebuild within
                    # budget, and decline the wave — its jobs simply
                    # synthesize synchronously.
                    self._record_fault(FaultKind.POOL, exc)
                    self._rebuild_pool()
                    return 0
                except RuntimeError as exc:
                    # Executor shut down concurrently (engine closed
                    # mid-cycle): count and decline.
                    self._record_fault(FaultKind.TRANSIENT, exc)
                    return 0
                wave = _Wave(future, getattr(span, "span_id", None))
                self._waves.append(wave)
            for index, ((job, _), fingerprint) in enumerate(
                zip(items, fingerprints)
            ):
                self._members[(tenant, job.key())] = (fingerprint, wave, index)
            self.submitted += n
            perf.incr("engine.prefetch.submitted", n)
            perf.incr("engine.batch.submitted")
            obs.journal_event(
                "engine.batch.submit", jobs=n,
                pooled=self._executor is not None,
            )
            return n

    def take(
        self, job: RoutingJob, health: np.ndarray, tenant: str = ""
    ) -> tuple[str, RoutingStrategy | None]:
        """Consume the member for exactly ``(job, health)``.

        Pops the member and never blocks.  Returns ``(status, strategy)``
        with status one of:

        * ``"hit"`` — the wave finished and the member matches;
          ``strategy`` is identical to what synchronous synthesis would
          return;
        * ``"no-plan"`` — finished and matching, but synthesis found no
          strategy (a definitive answer, same as the synchronous path);
        * ``"pending"`` — the wave is still running: the caller falls back
          to synchronous synthesis, whose result lands in the library, so
          the member could never be consumed later;
        * ``"absent"`` — no member for this job, or one computed for
          different health;
        * ``"error"`` — the wave failed; the fault is classified (pool /
          transient / payload), a broken pool is rebuilt within budget,
          and the caller falls back to synchronous synthesis.
        """
        job_key = job.key()
        with self._lock:
            member = self._members.pop((tenant, job_key), None)
            if member is None:
                return ("absent", None)
            fingerprint, wave, index = member
            if fingerprint != health_fingerprint(health, job.hazard):
                return ("absent", None)
            if not wave.future.done():
                self.misses += 1
                perf.incr("engine.prefetch.misses")
                return ("pending", None)
            with obs.span("engine.wait", job=job_key):
                try:
                    result = self._settle(wave)["results"][index]
                except (Exception, CancelledError) as exc:
                    kind = classify_failure(exc)
                    self._record_fault(kind, exc, job_key)
                    if kind is FaultKind.POOL:
                        self._rebuild_pool()
                    return ("error", None)
            self.hits += 1
            perf.incr("engine.prefetch.hits")
        if result["strategy"] is None:
            return ("no-plan", None)
        return ("hit", RoutingStrategy.from_payload(result["strategy"]))

    def worker_pids(self) -> list[int]:
        """Pids of the pool's live worker processes (empty when poolless).

        Best-effort over the executor's internal process table — the same
        table :meth:`_kill_worker_processes` uses — for the telemetry
        pump's per-worker resource/liveness sampling.
        """
        processes = getattr(self._executor, "_processes", None) or {}
        return [pid for pid in list(processes.keys()) if pid is not None]

    # -- persistent store façade ----------------------------------------------

    def store_get(
        self, job: RoutingJob, health: np.ndarray
    ) -> RoutingStrategy | None:
        if self.store is None:
            return None
        return self.store.get(job, health)

    def store_put(
        self, job: RoutingJob, health: np.ndarray, strategy: RoutingStrategy
    ) -> None:
        if self.store is not None:
            self.store.put(job, health, strategy)

    # -- stats ---------------------------------------------------------------

    def counters(self) -> dict[str, int]:
        with self._lock:
            out = {
                "submitted": self.submitted,
                "hits": self.hits,
                "misses": self.misses,
                "wasted": self.wasted,
                "errors": self.errors,
                "rebuilds": self.rebuilds,
                "degraded": int(self.degraded),
                "members": len(self._members),
            }
            for kind, count in self.faults.items():
                out[f"fault_{kind}"] = count
        if self.store is not None:
            out.update({f"store_{k}": v for k, v in self.store.counters().items()})
        return out


class TenantView:
    """One assay's handle on a shared :class:`SynthesisEngine`.

    Exposes exactly the engine surface the router/scheduler stack consumes
    (``take``/``presynthesize_batch``, the store façade, and the
    ``pooled``/``degraded``/``rebuilds`` attributes), with every member
    namespaced by the tenant name — concurrent assays on one shared engine
    can never consume or replace each other's members, so each assay
    routes exactly as it would with a private engine.  The store façade is
    shared deliberately: store entries are keyed by (job, health
    fingerprint) alone, which is what lets one assay's synthesis warm
    another's.

    :meth:`close` releases the tenant (its untaken members are dropped)
    without touching the shared engine.
    """

    def __init__(self, engine: SynthesisEngine, name: str) -> None:
        self._engine = engine
        self.name = name

    @property
    def pooled(self) -> bool:
        return self._engine.pooled

    @property
    def degraded(self) -> bool:
        return self._engine.degraded

    @property
    def rebuilds(self) -> int:
        return self._engine.rebuilds

    @property
    def store(self) -> StrategyStore | None:
        return self._engine.store

    def take(
        self, job: RoutingJob, health: np.ndarray
    ) -> tuple[str, RoutingStrategy | None]:
        return self._engine.take(job, health, tenant=self.name)

    def presynthesize_batch(
        self,
        items: "list[tuple[RoutingJob, dict | None]]",
        health: np.ndarray,
    ) -> int:
        return self._engine.presynthesize_batch(
            items, health, tenant=self.name
        )

    def store_get(
        self, job: RoutingJob, health: np.ndarray
    ) -> RoutingStrategy | None:
        return self._engine.store_get(job, health)

    def store_put(
        self, job: RoutingJob, health: np.ndarray, strategy: RoutingStrategy
    ) -> None:
        self._engine.store_put(job, health, strategy)

    def counters(self) -> dict[str, int]:
        return self._engine.counters()

    def close(self) -> None:
        self._engine.release_tenant(self.name)

    def __enter__(self) -> "TenantView":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

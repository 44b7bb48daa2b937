"""Live telemetry plane smoke: pooled run + /metrics scrape + merged trace.

CI-facing end-to-end check of the observability stack under a real
2-worker pool:

1. runs the ``cep`` evaluation bioassay with tracing, a journal, metrics,
   and a live :class:`~repro.obs.monitor.MonitorServer` on an ephemeral
   port;
2. a scraper thread hits ``/metrics`` throughout the run and every scrape
   must parse as OpenMetrics;
3. after the engine closes (merging worker-side telemetry), the final
   scrape must show non-zero worker-side counters
   (``repro_worker_solves_total``) next to the engine/scheduler counters;
4. the journal must contain ``worker.synthesis`` events stamped with
   worker pids;
5. the merged Chrome/Perfetto trace exported to ``obs-artifacts/`` must
   contain ``worker.solve`` spans parented under the engine's
   ``engine.batch.submit`` spans, on worker pids.

Exits nonzero on any violated expectation.  Run with
``PYTHONPATH=src python benchmarks/smoke_telemetry.py``.
"""

from __future__ import annotations

import sys
import threading
import time
import urllib.request
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
ARTIFACT_DIR = REPO_ROOT / "obs-artifacts"

from repro import obs, perf  # noqa: E402
from repro.bioassay.library import ALL_BIOASSAYS  # noqa: E402
from repro.bioassay.planner import plan  # noqa: E402
from repro.biochip.chip import MedaChip  # noqa: E402
from repro.biochip.simulator import MedaSimulator  # noqa: E402
from repro.core.baseline import AdaptiveRouter  # noqa: E402
from repro.core.scheduler import HybridScheduler  # noqa: E402
from repro.engine import SynthesisEngine  # noqa: E402
from repro.obs.journal import read_journal  # noqa: E402
from repro.obs.monitor import MonitorServer  # noqa: E402
from repro.obs.openmetrics import parse_openmetrics  # noqa: E402

W, H = 60, 30
WORKERS = 2
MAX_CYCLES = 2000
SETTLE_TIMEOUT_S = 120.0


class Scraper(threading.Thread):
    """Polls /metrics for the whole run; every response must parse."""

    def __init__(self, url: str) -> None:
        super().__init__(name="smoke-scraper", daemon=True)
        self.url = url
        self.stop_event = threading.Event()
        self.scrapes = 0
        self.last_samples: dict[str, float] = {}
        self.error: "str | None" = None

    def scrape_once(self) -> dict[str, float]:
        with urllib.request.urlopen(f"{self.url}/metrics", timeout=10) as r:
            body = r.read().decode()
        samples = parse_openmetrics(body)
        self.scrapes += 1
        self.last_samples = samples
        return samples

    def run(self) -> None:
        while not self.stop_event.wait(0.05):
            try:
                self.scrape_once()
            except Exception as exc:  # noqa: BLE001 - report, don't die
                self.error = f"scrape #{self.scrapes + 1} failed: {exc}"
                return


def settle_engine(engine: SynthesisEngine) -> None:
    """Wait for the unmerged waves so close() can merge them all."""
    deadline = time.monotonic() + SETTLE_TIMEOUT_S
    pending = [wave.future for wave in engine._waves if not wave.merged]
    for future in pending:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            break
        try:
            future.exception(timeout=remaining)
        except Exception:  # noqa: BLE001 - settled either way
            pass


def fail(message: str) -> int:
    print(f"FAIL: {message}", file=sys.stderr)
    return 1


def main() -> int:
    ARTIFACT_DIR.mkdir(exist_ok=True)
    journal_path = ARTIFACT_DIR / "smoke_telemetry.journal.jsonl"
    trace_path = ARTIFACT_DIR / "smoke_telemetry.trace.json"

    obs.shutdown()
    perf.reset()
    tracer, _ = obs.configure(tracing=True, journal=journal_path,
                              metrics=True)
    graph = plan(ALL_BIOASSAYS["cep"](), W, H)
    chip = MedaChip.sample(W, H, np.random.default_rng(0))
    engine = SynthesisEngine(workers=WORKERS)
    router = AdaptiveRouter(engine=engine)

    monitor = MonitorServer(port=0)
    monitor.start()
    scraper = Scraper(monitor.url)
    scraper.start()
    print(f"monitor: {monitor.url}/metrics")

    try:
        scheduler = HybridScheduler(graph, router, W, H)
        scheduler.presynthesize(chip.health())
        sim = MedaSimulator(chip, np.random.default_rng(1))
        result = sim.run(scheduler, max_cycles=MAX_CYCLES)
        if not result.success:
            return fail(f"cep run failed: {result.failure}")
        print(f"run: ok, {result.cycles} cycles, "
              f"{result.resyntheses} resyntheses")

        # Let running waves finish, then close: the engine merges every
        # finished wave's telemetry bundle on the way out.
        settle_engine(engine)
    finally:
        engine.close()

    try:
        scraper.stop_event.set()
        scraper.join(timeout=10)
        if scraper.error is not None:
            return fail(scraper.error)
        if scraper.scrapes == 0:
            return fail("scraper never completed a scrape during the run")
        # Final scrape after engine close: worker telemetry is merged now.
        samples = scraper.scrape_once()
        print(f"scrapes: {scraper.scrapes}, "
              f"{len(samples)} series in the final scrape")

        worker_solves = samples.get("repro_worker_solves_total", 0)
        if worker_solves <= 0:
            return fail("repro_worker_solves_total is zero: worker-side "
                        "metric deltas never merged back")
        engine_series = [k for k in samples if k.startswith("repro_engine_")]
        scheduler_series = [k for k in samples
                            if k.startswith("repro_scheduler_")]
        if not engine_series or not scheduler_series:
            return fail("expected engine+scheduler counter families, got "
                        f"{len(engine_series)}/{len(scheduler_series)}")
        print(f"worker solves merged: {worker_solves:.0f}")
    finally:
        monitor.stop()
        tracer.export_chrome(str(trace_path))
        obs.shutdown()

    records = read_journal(journal_path)
    worker_events = [r for r in records if r["event"] == "worker.synthesis"]
    if not worker_events:
        return fail("journal has no worker.synthesis events")
    pids = {r.get("worker_pid") for r in worker_events}
    if pids == {None}:
        return fail("worker.synthesis events lack worker_pid stamps")
    print(f"journal: {len(records)} events, {len(worker_events)} "
          f"worker.synthesis from pids {sorted(p for p in pids if p)}")

    solves = tracer.find("worker.solve")
    if not solves:
        return fail("merged trace has no worker.solve spans")
    parent_ids = {s.span_id for s in tracer.find("engine.batch.submit")}
    orphans = [s for s in solves if s.parent_id not in parent_ids]
    if orphans:
        return fail(f"{len(orphans)}/{len(solves)} worker.solve spans are "
                    "not parented under engine submit spans")
    import os

    if all(s.pid in (None, os.getpid()) for s in solves):
        return fail("worker.solve spans carry no worker pids")
    print(f"trace: {len(solves)} worker.solve spans correlated to engine "
          f"submit spans -> {trace_path}")

    print("PASS: live telemetry smoke")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

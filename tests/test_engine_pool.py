"""Tests for the synthesis engine (worker pool + router wiring).

The pool size can be overridden for CI matrix legs via the
``REPRO_TEST_WORKERS`` environment variable (default 2).
"""

from __future__ import annotations

import hashlib
import os
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.bioassay.library import EVALUATION_BIOASSAYS
from repro.bioassay.planner import plan
from repro.biochip.chip import MedaChip
from repro.biochip.simulator import MedaSimulator
from repro.biochip.trace import ExecutionTrace
from repro.core.baseline import AdaptiveRouter
from repro.core.routing_job import RoutingJob, zone
from repro.core.scheduler import HybridScheduler
from repro.core.strategy import health_fingerprint
from repro.core.synthesis import synthesize
from repro.degradation.faults import dead_cluster_plan
from repro.engine import StrategyStore, SynthesisEngine
from repro.engine.pool import _Wave
from repro.geometry.rect import Rect
from repro.reconfig import ReconfigPolicy

WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "2"))

W, H = 30, 20


def job(start=Rect(2, 2, 5, 5), goal=Rect(20, 10, 23, 13)) -> RoutingJob:
    return RoutingJob(start, goal, zone(start, goal, W, H))


def full_health() -> np.ndarray:
    return np.full((W, H), 3)


def inject_inflight(engine, the_job, fingerprint, future=None):
    """Register a hand-made member of a running wave (tests only)."""
    wave = _Wave(future if future is not None else Future())
    engine._members[("", the_job.key())] = (fingerprint, wave, 0)
    engine.submitted += 1
    return wave


def fingerprint(health) -> bytes:
    return health_fingerprint(health, job().hazard)


def settle(engine: SynthesisEngine, timeout=60.0) -> None:
    """Wait until every submitted wave has finished (without taking)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if all(m[1].future.done() for m in engine._members.values()):
            return
        time.sleep(0.05)
    pytest.fail("wave never completed")


def wait_for(engine: SynthesisEngine, the_job, health, timeout=60.0):
    """Wait for the submitted waves to finish, then consume via take().

    take() itself cannot be used for polling: it pops the member, and a
    pending member is a miss (the production caller immediately
    synthesizes synchronously, so a later completion could never be
    consumed).
    """
    settle(engine, timeout)
    return engine.take(the_job, health)


@pytest.fixture
def engine():
    eng = SynthesisEngine(workers=WORKERS)
    yield eng
    eng.close()


class TestEngineLifecycle:
    def test_workers_one_disables_pool(self):
        eng = SynthesisEngine(workers=1)
        assert not eng.pooled
        assert eng.take(job(), full_health()) == ("absent", None)
        # Without a pool a wave is solved inline before submit returns.
        assert eng.submit(job(), full_health())
        status, strategy = eng.take(job(), full_health())
        assert status == "hit" and strategy is not None
        eng.close()

    def test_close_counts_unconsumed_as_wasted(self):
        eng = SynthesisEngine(workers=WORKERS)
        assert eng.submit(job(), full_health())
        eng.close()
        assert eng.wasted == 1
        assert not eng._members

    def test_store_facade_without_pool(self, tmp_path):
        store = StrategyStore(tmp_path / "s.sqlite")
        eng = SynthesisEngine(workers=1, store=store)
        from repro.core.strategy import strategy_from_synthesis

        strategy = strategy_from_synthesis(job(), synthesize(job(), full_health()))
        eng.store_put(job(), full_health(), strategy)
        assert eng.store_get(job(), full_health()) == strategy
        eng.close()
        assert not store.usable or store._conn is None


class TestSpeculation:
    def test_hit_matches_synchronous_synthesis(self, engine):
        assert engine.submit(job(), full_health())
        status, speculated = wait_for(engine, job(), full_health())
        assert status == "hit"
        direct = synthesize(job(), full_health())
        assert speculated.policy.decisions == direct.strategy.decisions
        assert speculated.expected_cycles == pytest.approx(
            direct.expected_cycles
        )

    def test_later_wave_replaces_inflight_member(self, engine):
        assert engine.submit(job(), full_health())
        first = engine._members[("", job().key())][1]
        assert engine.submit(job(), full_health())
        second = engine._members[("", job().key())][1]
        assert second is not first
        assert len(engine._members) == 1
        assert engine.submitted == 2 and engine.wasted == 1
        status, _ = wait_for(engine, job(), full_health())
        assert status == "hit"

    def test_pending_counts_as_miss_and_leaves_future(self, engine):
        """A member whose wave has not finished when the strategy is
        needed is a miss: the caller falls back to synchronous synthesis,
        and the wave's future is abandoned, never cancelled."""
        wave = inject_inflight(engine, job(), fingerprint(full_health()))
        status, strategy = engine.take(job(), full_health())
        assert (status, strategy) == ("pending", None)
        assert engine.misses == 1
        assert not wave.future.cancelled()

    def test_inflight_pending_falls_back(self, engine):
        inject_inflight(engine, job(), fingerprint(full_health()))
        status, strategy = engine.take(job(), full_health())
        assert (status, strategy) == ("pending", None)
        assert engine.misses == 1
        # take() popped the member (counted wasted): the job key is free.
        assert engine.wasted == 1
        assert ("", job().key()) not in engine._members
        assert engine.take(job(), full_health()) == ("absent", None)
        engine.close()
        assert engine.wasted == 1  # not double-counted at close

    def test_stale_fingerprint_discarded(self, engine):
        assert engine.submit(job(), full_health())
        degraded = full_health()
        degraded[10, 8] = 1  # inside the hazard zone
        status, strategy = engine.take(job(), degraded)
        assert (status, strategy) == ("absent", None)
        assert engine.wasted == 1 and not engine._members
        # A fresh wave for the new health is accepted.
        assert engine.submit(job(), degraded)

    def test_no_plan_is_a_definitive_answer(self, engine):
        walled = full_health()
        walled[12, :] = 0
        assert engine.submit(job(), walled)
        status, strategy = wait_for(engine, job(), walled)
        assert (status, strategy) == ("no-plan", None)
        assert engine.hits == 1
        # The router returns it without a synchronous synthesis.
        router = AdaptiveRouter(engine=engine)
        assert engine.submit(job(), walled)
        settle(engine)
        assert router.plan(job(), walled) is None
        assert router.syntheses == 0


class TestRouterIntegration:
    def test_prefetched_plan_skips_synchronous_synthesis(self, engine):
        router = AdaptiveRouter(engine=engine)
        assert router.prefetch_batch([job()], full_health()) == 1
        # Wait for the wave without consuming it, then plan: the strategy
        # must come from the wave, not a synchronous synthesis.
        settle(engine)
        strategy = router.plan(job(), full_health())
        assert strategy is not None
        assert router.syntheses == 0  # served by presynthesis
        assert engine.hits == 1
        assert router.library.contains(job(), full_health())

    def test_prefetch_skips_library_hits(self, engine):
        router = AdaptiveRouter(engine=engine)
        router.plan(job(), full_health())  # synchronous, fills the library
        assert router.prefetch_batch([job()], full_health()) == 0
        assert engine.submitted == 0

    def test_plan_falls_back_when_speculation_pending(self, engine):
        router = AdaptiveRouter(engine=engine)
        inject_inflight(engine, job(), fingerprint(full_health()))
        strategy = router.plan(job(), full_health())
        assert strategy is not None
        assert router.syntheses == 1  # synchronous fallback
        assert engine.misses == 1


class TestWarmStartFromStore:
    def test_store_loaded_values_seed_resynthesis(self, tmp_path):
        """A strategy loaded from the persistent store must install its
        values as the job's warm-start seed, so the next resynthesis of the
        same job (changed health) is warm-seeded — and still converges to
        the synchronous answer."""
        from repro import perf
        from repro.core.strategy import strategy_from_synthesis

        path = tmp_path / "s.sqlite"
        with StrategyStore(path) as store:
            store.put(
                job(),
                full_health(),
                strategy_from_synthesis(job(), synthesize(job(), full_health())),
            )

        engine = SynthesisEngine(workers=1, store=StrategyStore(path))
        router = AdaptiveRouter(engine=engine)
        try:
            loaded = router.plan(job(), full_health())
            assert loaded is not None
            assert router.syntheses == 0  # came from the store
            assert router.library.warm_start(job()) == loaded.policy.values

            degraded = full_health()
            degraded[10, 8] = 1  # inside the zone: forces a resynthesis
            seeded_before = perf.get("synthesis.warm_seeded")
            warmed = router.plan(job(), degraded)
            assert perf.get("synthesis.warm_seeded") == seeded_before + 1
            assert warmed is not None
            direct = synthesize(job(), degraded)
            assert warmed.expected_cycles == pytest.approx(
                direct.expected_cycles, rel=1e-4
            )
        finally:
            engine.close()


class TestDeterminism:
    def test_pooled_presynthesis_matches_serial_execution(self):
        """The determinism guard: presynthesis changes latency only.
        Serial and presynthesized executions of the same bioassay and seeds
        must produce identical traces."""
        graph = plan(EVALUATION_BIOASSAYS["covid-rat"](), 40, 24)

        def execute(engine):
            chip = MedaChip.sample(
                40, 24, np.random.default_rng(11),
                tau_range=(0.80, 0.90), c_range=(400.0, 900.0),
            )
            router = AdaptiveRouter(engine=engine)
            scheduler = HybridScheduler(graph, router, 40, 24)
            trace = ExecutionTrace()
            sim = MedaSimulator(chip, np.random.default_rng(12), trace=trace)
            if engine is not None:
                assert scheduler.presynthesize(chip.health()) > 0
            result = sim.run(scheduler, max_cycles=600)
            return result, trace

        serial_result, serial_trace = execute(None)
        engine = SynthesisEngine(workers=WORKERS)
        try:
            pooled_result, pooled_trace = execute(engine)
        finally:
            engine.close()

        assert pooled_result.success == serial_result.success
        assert pooled_result.cycles == serial_result.cycles
        assert pooled_result.resyntheses == serial_result.resyntheses
        assert len(pooled_trace.frames) == len(serial_trace.frames)
        for sf, pf in zip(serial_trace.frames, pooled_trace.frames):
            assert pf.cycle == sf.cycle
            assert pf.droplets == sf.droplets
            assert pf.moving == sf.moving


def _digest(trace: ExecutionTrace) -> str:
    hasher = hashlib.sha256()
    for frame in trace.frames:
        hasher.update(
            repr((frame.cycle, frame.droplets, frame.moving)).encode()
        )
    return hasher.hexdigest()


class TestMultiRunIdentity:
    def test_consecutive_runs_on_aging_chip_match_engineless(self):
        """The ``repro run --runs N`` shape: one pooled engine and one
        chip across runs, reconfiguration on, and a dead cluster under the
        first mixer slot that trips during run 2.  Runs then remap, leave
        members of retired jobs untaken, and later waves replace them; no
        run may route differently from the same sequence without an
        engine."""
        width, height = 60, 30
        graph = plan(EVALUATION_BIOASSAYS["master-mix"](), width, height)

        def execute(engine):
            chip = MedaChip.sample(
                width, height, np.random.default_rng(0),
                tau_range=(0.95, 0.99), c_range=(5000.0, 9000.0),
                fault_plan=dead_cluster_plan(
                    width, height, [(10.5, 19.5)], fail_at=15.0
                ),
            )
            router = AdaptiveRouter(engine=engine)
            runs = []
            for run in range(4):
                scheduler = HybridScheduler(
                    graph, router, width, height,
                    reconfig=ReconfigPolicy(width, height),
                )
                trace = ExecutionTrace()
                sim = MedaSimulator(
                    chip, np.random.default_rng(7 + run), trace=trace
                )
                if engine is not None:
                    scheduler.presynthesize(chip.health())
                result = sim.run(scheduler, max_cycles=1200)
                runs.append((result.success, result.cycles,
                             scheduler.remaps, _digest(trace)))
            return runs

        reference = execute(None)
        engine = SynthesisEngine(workers=WORKERS)
        try:
            pooled = execute(engine)
        finally:
            engine.close()
        assert any(remaps for _, _, remaps, _ in reference)
        assert pooled == reference
        # Some members were dropped without ever being taken.
        assert engine.wasted > engine.misses

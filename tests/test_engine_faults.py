"""Fault-tolerance tests for the synthesis engine.

Covers the failure taxonomy (pool / transient / payload), the
rebuild-with-backoff path, permanent degradation to inline synthesis, the
deterministic chaos harness, store corruption tolerance, and the headline
invariant: a run that degrades mid-assay routes bit-identically to a run
that never had a pool.

Worker kills are real (``os.kill``/``os._exit``) — the point is to
exercise the genuine ``BrokenProcessPool`` machinery, not a mock of it.
Chaos delays keep workers predictably busy so kills land mid-payload; the
teardown helpers SIGKILL leftover sleepers so no test waits one out.
"""

from __future__ import annotations

import os
import signal
import time
from concurrent.futures import CancelledError
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro import obs
from repro.bioassay.library import EVALUATION_BIOASSAYS
from repro.bioassay.planner import plan
from repro.biochip.chip import MedaChip
from repro.biochip.simulator import MedaSimulator
from repro.biochip.trace import ExecutionTrace
from repro.core.baseline import AdaptiveRouter
from repro.core.routing_job import RoutingJob, zone
from repro.core.scheduler import HybridScheduler
from repro.core.strategy import strategy_from_synthesis
from repro.core.synthesis import synthesize
from repro.engine import StrategyStore, SynthesisEngine, resolve_workers
from repro.engine import chaos
from repro.engine.chaos import ChaosConfig, ChaosInjectedError, ChaosInjector
from repro.engine import pool
from repro.engine.faults import FaultKind, classify_failure
from repro.geometry.rect import Rect

#: The subject of these tests is the worker pool, which ``workers=1`` does
#: not build, so ``REPRO_TEST_WORKERS`` below 2 still gets a 2-worker pool.
WORKERS = max(2, int(os.environ.get("REPRO_TEST_WORKERS", "2")))

W, H = 30, 20


def job(start=Rect(2, 2, 5, 5), goal=Rect(20, 10, 23, 13)) -> RoutingJob:
    return RoutingJob(start, goal, zone(start, goal, W, H))


def other_job() -> RoutingJob:
    return job(start=Rect(4, 12, 7, 15))


def full_health() -> np.ndarray:
    return np.full((W, H), 3)


def kill_workers(engine: SynthesisEngine) -> None:
    """SIGKILL every live worker of the engine's pool (tests only)."""
    procs = list(engine._executor._processes.values())
    assert procs, "pool has no worker processes to kill"
    for proc in procs:
        os.kill(proc.pid, signal.SIGKILL)


def wave_of(engine: SynthesisEngine, the_job: RoutingJob):
    """The wave holding ``the_job``'s member (default tenant)."""
    return engine._members[("", the_job.key())][1]


def wait_done(future, timeout=60.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if future.done():
            return
        time.sleep(0.02)
    pytest.fail("future never completed")


@pytest.fixture(autouse=True)
def chaos_cleanup():
    """No chaos config may leak into the next test (or its pool workers)."""
    yield
    chaos.deactivate()


@pytest.fixture
def rebuild_budget(monkeypatch):
    """Set the engine's rebuild budget for one test, with no backoff."""
    monkeypatch.setattr(pool, "BACKOFF_BASE_S", 0.0)
    return lambda budget: monkeypatch.setattr(pool, "REBUILD_BUDGET", budget)


class TestClassification:
    def test_failure_taxonomy(self):
        assert classify_failure(BrokenProcessPool()) is FaultKind.POOL
        assert classify_failure(CancelledError()) is FaultKind.TRANSIENT
        assert classify_failure(FuturesTimeoutError()) is FaultKind.TRANSIENT
        assert classify_failure(OSError("broken pipe")) is FaultKind.TRANSIENT
        assert classify_failure(ValueError("payload bug")) is FaultKind.PAYLOAD
        assert classify_failure(ChaosInjectedError("x")) is FaultKind.PAYLOAD

    def test_backoff_is_capped_exponential(self, monkeypatch):
        monkeypatch.setattr(pool, "BACKOFF_BASE_S", 0.05)
        monkeypatch.setattr(pool, "BACKOFF_CAP_S", 0.4)
        assert pool._backoff(0) == pytest.approx(0.05)
        assert pool._backoff(1) == pytest.approx(0.10)
        assert pool._backoff(2) == pytest.approx(0.20)
        assert pool._backoff(3) == pytest.approx(0.40)
        assert pool._backoff(10) == pytest.approx(0.40)


class TestWorkerCountValidation:
    def test_resolve_workers_rejects_negative(self):
        with pytest.raises(ValueError):
            resolve_workers(-1)

    def test_engine_rejects_negative_workers(self):
        with pytest.raises(ValueError):
            SynthesisEngine(workers=-1)

    def test_resolve_workers_zero_means_all_cores(self):
        assert resolve_workers(0) == (os.cpu_count() or 1)

    def test_cli_rejects_negative_workers(self):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--workers", "-1"])
        assert excinfo.value.code == 2

    def test_cli_rejects_bad_chaos_spec(self, capsys):
        from repro.cli import main

        assert main(["run", "--chaos", "kill=2.0", "--max-cycles", "1"]) == 2
        assert "bad --chaos spec" in capsys.readouterr().err


class TestBrokenPoolRecovery:
    def test_submit_survives_killed_pool(self, rebuild_budget):
        """The scheduler-loop guard: submitting against a pool whose
        workers were killed must decline, classify, and rebuild — never
        raise into the caller."""
        rebuild_budget(1)
        chaos.activate(ChaosConfig(seed=1, delay_p=1.0, delay_ms=10_000))
        eng = SynthesisEngine(workers=WORKERS)
        try:
            assert eng.submit(job(), full_health())
            wave = wave_of(eng, job())
            kill_workers(eng)
            wait_done(wave.future)  # the executor noticed the dead worker
            assert not eng.submit(other_job(), full_health())
            assert eng.errors == 1
            assert eng.faults.get("pool") == 1
            assert eng.rebuilds == 1
            assert eng.pooled and not eng.degraded
            # The wave that died with the old pool left no member behind.
            assert eng.take(job(), full_health()) == ("absent", None)
            # The fresh pool accepts work again.
            assert eng.submit(other_job(), full_health())
        finally:
            eng._kill_worker_processes()  # reap chaos-delayed sleepers
            eng.close()

    def test_submit_survives_externally_shutdown_executor(self):
        eng = SynthesisEngine(workers=WORKERS)
        try:
            eng._executor.shutdown(wait=True)
            assert not eng.submit(job(), full_health())
            assert eng.faults.get("transient") == 1
        finally:
            eng.close()

    def test_take_classifies_broken_pool_drops_dead_waves(self, rebuild_budget):
        """A pool breakage fails every running wave at once; consuming one
        member classifies the fault and rebuilds the pool, and the members
        of the other dead waves are dropped, so they miss."""
        rebuild_budget(2)
        chaos.activate(ChaosConfig(seed=4, delay_p=1.0, delay_ms=10_000))
        eng = SynthesisEngine(workers=WORKERS)
        try:
            assert eng.submit(job(), full_health())
            assert eng.submit(other_job(), full_health())
            waves = [wave_of(eng, job()), wave_of(eng, other_job())]
            kill_workers(eng)
            for wave in waves:
                wait_done(wave.future)
            status, strategy = eng.take(job(), full_health())
            assert (status, strategy) == ("error", None)
            assert eng.faults.get("pool") == 1
            assert eng.rebuilds == 1
            assert not eng._members
            assert eng.take(other_job(), full_health()) == ("absent", None)
            assert eng.errors == 1
        finally:
            eng._kill_worker_processes()
            eng.close()

    def test_degrades_when_rebuild_budget_exhausted(self, rebuild_budget):
        rebuild_budget(0)
        journal = obs.RunJournal()
        obs.configure(journal=journal)
        chaos.activate(ChaosConfig(seed=2, delay_p=1.0, delay_ms=10_000))
        eng = SynthesisEngine(workers=WORKERS)
        try:
            assert eng.submit(job(), full_health())
            wave = wave_of(eng, job())
            kill_workers(eng)
            wait_done(wave.future)
            status, strategy = eng.take(job(), full_health())
            assert (status, strategy) == ("error", None)
            assert eng.degraded and not eng.pooled
            assert eng.rebuilds == 0  # the budget never allowed one
            assert eng.counters()["degraded"] == 1
            # A degraded engine solves later waves inline: the scheduler
            # loop keeps running, and chaos never fires in this process.
            assert eng.submit(other_job(), full_health())
            status, strategy = eng.take(other_job(), full_health())
            assert status == "hit" and strategy is not None
            events = [record["event"] for record in journal.records]
            assert "engine.fault" in events
            assert "engine.degraded" in events
        finally:
            eng._kill_worker_processes()
            eng.close()
            obs.shutdown()


class TestPayloadFaults:
    def test_payload_error_classified_and_not_retried(self):
        """A deterministic payload error must not burn the rebuild budget:
        the pool stays up and the caller falls back synchronously."""
        chaos.activate(ChaosConfig(seed=3, raise_p=1.0))
        eng = SynthesisEngine(workers=WORKERS)
        try:
            assert eng.submit(job(), full_health())
            wait_done(wave_of(eng, job()).future)
            status, strategy = eng.take(job(), full_health())
            assert (status, strategy) == ("error", None)
            assert eng.faults.get("payload") == 1
            assert eng.rebuilds == 0 and eng.submitted == 1
            assert eng.pooled and not eng.degraded
            # The synchronous fallback's library entry wins, but a fresh
            # wave for the key is not blocked.
            assert eng.submit(job(), full_health())
        finally:
            eng.close()


class TestStoreFaults:
    def _strategy(self):
        return strategy_from_synthesis(job(), synthesize(job(), full_health()))

    def test_use_after_close_is_counted_noop(self, tmp_path):
        store = StrategyStore(tmp_path / "s.sqlite")
        strategy = self._strategy()
        store.put(job(), full_health(), strategy)
        store.close()
        assert store.get(job(), full_health()) is None
        store.put(job(), full_health(), strategy)  # must not raise
        assert store.use_after_close == 2
        assert store.counters()["use_after_close"] == 2

    def test_chaos_corruption_tolerated(self, tmp_path):
        chaos.activate(ChaosConfig(seed=7, store_p=1.0))
        with StrategyStore(tmp_path / "s.sqlite") as store:
            store.put(job(), full_health(), self._strategy())
            assert len(store) == 1  # the garbled row did land on disk
            assert store.get(job(), full_health()) is None
            assert store.corrupt == 1
            assert len(store) == 0  # ...and was deleted on first read
            assert store.usable  # degraded rows don't take the store down
            # With chaos off the same write round-trips.
            chaos.deactivate()
            store.put(job(), full_health(), self._strategy())
            assert store.get(job(), full_health()) is not None


class TestChaosHarness:
    def test_draws_are_deterministic_pure_functions(self):
        a = ChaosInjector(ChaosConfig(seed=1))
        b = ChaosInjector(ChaosConfig(seed=1))
        draw = a.draw("kill", "tok")
        assert 0.0 <= draw < 1.0
        assert draw == b.draw("kill", "tok")
        assert draw != a.draw("raise", "tok")  # site-addressed
        assert draw != a.draw("kill", "tok2")  # token-addressed
        assert draw != ChaosInjector(ChaosConfig(seed=2)).draw("kill", "tok")

    def test_spec_round_trip(self):
        cfg = chaos.parse_spec("kill=0.25,raise=0.1,delay=0.5:100,store=0.3,seed=9")
        assert cfg == ChaosConfig(
            seed=9, kill_p=0.25, raise_p=0.1,
            delay_p=0.5, delay_ms=100.0, store_p=0.3,
        )
        assert chaos.parse_spec(cfg.to_spec()) == cfg

    def test_invalid_specs_rejected(self):
        for bad in ("kill", "bogus=1", "kill=x", "kill=1.5", "seed=abc"):
            with pytest.raises(ValueError):
                chaos.parse_spec(bad)

    def test_worker_inject_raise_and_delay(self):
        with pytest.raises(ChaosInjectedError):
            ChaosInjector(ChaosConfig(seed=0, raise_p=1.0)).worker_inject("t")
        # A zero-probability config never fires, whatever the token.
        ChaosInjector(ChaosConfig(seed=0)).worker_inject("t")

    def test_corrupt_payload_gates_on_probability(self):
        payload = '{"a": 1, "b": 2}'
        on = ChaosInjector(ChaosConfig(seed=0, store_p=1.0))
        off = ChaosInjector(ChaosConfig(seed=0))
        assert off.corrupt_payload("k", payload) == payload
        garbled = on.corrupt_payload("k", payload)
        assert garbled != payload
        with pytest.raises(ValueError):
            import json

            json.loads(garbled)

    def test_env_propagation_and_seed_override(self):
        cfg = ChaosConfig(seed=4, kill_p=0.5)
        chaos.activate(cfg)
        # Simulate a fresh worker process: module globals reset, config
        # rebuilt from the environment alone.
        chaos._injector = None
        chaos._loaded_from_env = False
        rebuilt = chaos.injector()
        assert rebuilt is not None and rebuilt.config == cfg
        # REPRO_CHAOS_SEED overrides the spec's seed (the CI matrix knob).
        os.environ[chaos.ENV_SEED] = "99"
        chaos._injector = None
        chaos._loaded_from_env = False
        assert chaos.injector().config.seed == 99
        chaos.deactivate()
        assert chaos.injector() is None

    def test_inline_wave_never_injects_chaos(self):
        """Chaos faults belong to pool workers: a pool-less engine solves
        its waves in the caller's process, which must survive a
        ``kill=1.0`` config."""
        chaos.activate(ChaosConfig(seed=0, kill_p=1.0, raise_p=1.0))
        eng = SynthesisEngine(workers=1)
        try:
            assert eng.presynthesize_batch(
                [(job(), None), (other_job(), None)], full_health()
            ) == 2
            for the_job in (job(), other_job()):
                status, strategy = eng.take(the_job, full_health())
                assert status == "hit" and strategy is not None
            assert eng.errors == 0
        finally:
            eng.close()


class TestDegradedDeterminism:
    def test_mid_assay_degrade_matches_serial_trace(self, rebuild_budget):
        """The headline invariant: an engine whose pool dies mid-assay and
        degrades must route bit-identically to a run with no pool at all."""
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
            if engine is not None and engine.pooled:
                scheduler.presynthesize(chip.health())
            result = sim.run(scheduler, max_cycles=600)
            return result, trace

        serial_result, serial_trace = execute(None)

        # Every worker payload dies instantly; the zero rebuild budget
        # degrades the engine on the first classified pool fault.
        rebuild_budget(0)
        chaos.activate(ChaosConfig(seed=13, kill_p=1.0))
        engine = SynthesisEngine(workers=WORKERS)
        try:
            degraded_result, degraded_trace = execute(engine)
        finally:
            chaos.deactivate()
            engine.close()

        assert engine.degraded  # the scenario actually happened
        assert degraded_result.success == serial_result.success
        assert degraded_result.cycles == serial_result.cycles
        assert degraded_result.resyntheses == serial_result.resyntheses
        assert len(degraded_trace.frames) == len(serial_trace.frames)
        for sf, df in zip(serial_trace.frames, degraded_trace.frames):
            assert df.cycle == sf.cycle
            assert df.droplets == sf.droplets
            assert df.moving == sf.moving

"""Tests for the batched solver core and the batch presynthesis API.

The contract under test is *bit-identity*: every result produced through
``synthesize_batch`` / ``solve_reach_avoid_reward_batch`` — values,
decisions, certified bounds — must equal, bit for bit, what the per-RJ
path (``synthesize_with_field`` / ``solve_reach_avoid_reward``) returns
for the same inputs.  The batch layers (shape buckets, window-level
dedup, the cross-call value memo, the engine's batched submission) may
only ever change *when* work happens, never *what* comes out.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import perf
from repro.core.baseline import AdaptiveRouter
from repro.core.fastmdp import (
    build_dedup_token,
    build_routing_model_fast,
    clear_build_template_cache,
)
from repro.core.routing_job import RoutingJob
from repro.core.synthesis import (
    BatchRequest,
    clear_batch_value_memo,
    force_field_from_health,
    synthesize,
    synthesize_batch,
    synthesize_with_field,
)
from repro.engine import SynthesisEngine
from repro.geometry.rect import Rect
from repro.modelcheck.batch import (
    solve_reach_avoid_reward_batch,
    structural_key,
)
from repro.modelcheck.compiled import solve_reach_avoid_reward

W, H = 24, 18
FULL = Rect(1, 1, W, H)


def _jobs() -> list[RoutingJob]:
    return [
        RoutingJob(Rect(2, 2, 4, 4), Rect(W - 5, H - 5, W - 3, H - 3), FULL),
        RoutingJob(Rect(W - 4, 2, W - 2, 4), Rect(3, H - 4, 5, H - 2), FULL),
        RoutingJob(Rect(2, 8, 4, 10), Rect(W - 4, 8, W - 2, 10),
                   Rect(1, 5, W, 14)),
    ]


def _health(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    health = rng.integers(1, 4, size=(W, H))
    health[0:6, 0:6] = 3
    health[W - 7 :, H - 7 :] = 3
    return health


def _fresh_caches() -> None:
    clear_build_template_cache()
    clear_batch_value_memo()


def _assert_result_identical(batched, solo) -> None:
    """Bit-identity of two SynthesisResults (values, decisions, cycles)."""
    assert batched.expected_cycles == solo.expected_cycles
    assert (batched.strategy is None) == (solo.strategy is None)
    if batched.strategy is not None:
        assert batched.strategy.decisions == solo.strategy.decisions
        assert batched.strategy.values == solo.strategy.values


class TestBatchedSynthesisEquivalence:
    def test_cold_batch_matches_serial_bit_identical(self):
        for health_seed in (3, 11):
            field = force_field_from_health(_health(health_seed))
            _fresh_caches()
            solo = [synthesize_with_field(job, field) for job in _jobs()]
            _fresh_caches()
            batched = synthesize_batch(
                [BatchRequest(job, field) for job in _jobs()]
            )
            for rb, rs in zip(batched, solo):
                _assert_result_identical(rb, rs)

    def test_warm_batch_matches_serial_bit_identical(self):
        jobs = _jobs()
        first = force_field_from_health(np.full((W, H), 3, dtype=int))
        _fresh_caches()
        seeds = [synthesize_with_field(job, first) for job in jobs]
        warm = [
            None if r.strategy is None else r.strategy.values for r in seeds
        ]
        second = force_field_from_health(
            np.minimum(_health(7), np.full((W, H), 3, dtype=int))
        )
        solo = [
            synthesize_with_field(job, second, warm_values=w)
            for job, w in zip(jobs, warm)
        ]
        batched = synthesize_batch(
            [
                BatchRequest(job, second, warm_values=w)
                for job, w in zip(jobs, warm)
            ]
        )
        for rb, rs in zip(batched, solo):
            _assert_result_identical(rb, rs)

    def test_single_request_batch_degenerates_to_serial(self):
        job = _jobs()[0]
        field = force_field_from_health(_health(5))
        _fresh_caches()
        solo = synthesize_with_field(job, field)
        _fresh_caches()
        (batched,) = synthesize_batch([BatchRequest(job, field)])
        _assert_result_identical(batched, solo)

    def test_exotic_field_falls_back_to_solo_path(self):
        class Weird:
            """A field with no backing matrix (duck-typed ForceField)."""

            def force(self, i, j):
                return 1.0

            def rect_mean(self, rect):
                return 1.0

        jobs = _jobs()[:2]
        matrix_field = force_field_from_health(_health(9))
        _fresh_caches()
        results = synthesize_batch(
            [
                BatchRequest(jobs[0], Weird()),
                BatchRequest(jobs[1], matrix_field),
            ]
        )
        _assert_result_identical(
            results[0], synthesize_with_field(jobs[0], Weird())
        )
        _fresh_caches()
        _assert_result_identical(
            results[1], synthesize_with_field(jobs[1], matrix_field)
        )


class TestKernelBucketing:
    def test_mixed_shape_bucket_raises(self):
        forces = force_field_from_health(_health(2)).forces
        jobs = _jobs()
        a = build_routing_model_fast(jobs[0], forces).compiled
        b = build_routing_model_fast(jobs[2], forces).compiled
        assert structural_key(a) != structural_key(b)
        with pytest.raises(ValueError, match="single shape bucket"):
            solve_reach_avoid_reward_batch([a, b])

    def test_kernel_results_bit_identical_to_solo(self):
        # Same job geometry under different force matrices: one shape
        # bucket, distinct numerics.
        job = _jobs()[0]
        models = []
        for seed in (2, 4, 6):
            clear_build_template_cache()
            forces = force_field_from_health(_health(seed)).forces
            models.append(build_routing_model_fast(job, forces).compiled)
        assert len({structural_key(cm) for cm in models}) == 1
        batched = solve_reach_avoid_reward_batch(models)
        for cm, rb in zip(models, batched):
            rs = solve_reach_avoid_reward(cm)
            assert np.array_equal(rb.values, rs.values)
            assert np.array_equal(rb.choice, rs.choice)
            assert rb.certified and rs.certified
            assert np.array_equal(rb.lower, rs.lower)
            assert np.array_equal(rb.upper, rs.upper)


class TestDedupToken:
    def test_token_requires_recorded_template(self):
        job = _jobs()[0]
        forces = force_field_from_health(_health(1)).forces
        clear_build_template_cache()
        assert build_dedup_token(job, forces) is None
        build_routing_model_fast(job, forces)
        token = build_dedup_token(job, forces)
        assert isinstance(token, bytes)
        assert build_dedup_token(job, forces) == token

    def test_out_of_window_change_preserves_token_and_model(self):
        # A job fenced to the upper-left region never reads forces near
        # the opposite corner; the token (and the built model) must not
        # depend on them.
        job = RoutingJob(
            Rect(2, 2, 4, 4), Rect(8, 8, 10, 10), Rect(1, 1, 14, 14)
        )
        clear_build_template_cache()
        forces = force_field_from_health(_health(1)).forces
        base = build_routing_model_fast(job, forces)
        token = build_dedup_token(job, forces)
        perturbed = forces.copy()
        perturbed[W - 1, H - 1] *= 0.5  # far outside the job's window
        assert build_dedup_token(job, perturbed) == token
        other = build_routing_model_fast(job, perturbed)
        assert (
            base.compiled.transitions != other.compiled.transitions
        ).nnz == 0

    def test_in_window_change_flips_token(self):
        job = _jobs()[0]
        clear_build_template_cache()
        forces = force_field_from_health(_health(1)).forces
        build_routing_model_fast(job, forces)
        token = build_dedup_token(job, forces)
        perturbed = forces.copy()
        perturbed[W // 2, H // 2] *= 0.5  # inside the full-chip hazard
        assert build_dedup_token(job, perturbed) != token


class TestBatchValueMemo:
    def test_repeat_epoch_hits_memo_with_identical_results(self):
        jobs = _jobs()
        field = force_field_from_health(_health(13))
        _fresh_caches()
        perf.reset()
        first = synthesize_batch([BatchRequest(job, field) for job in jobs])
        assert perf.get("vi.batch.memo.hits") == 0
        second = synthesize_batch([BatchRequest(job, field) for job in jobs])
        assert perf.get("vi.batch.memo.hits") == len(jobs)
        for ra, rb in zip(first, second):
            _assert_result_identical(ra, rb)

    def test_duplicate_requests_dedup_within_call(self):
        job = _jobs()[0]
        field = force_field_from_health(_health(13))
        _fresh_caches()
        # Prime the template so the dedup token exists for the job.
        synthesize_batch([BatchRequest(job, field)])
        clear_batch_value_memo()
        perf.reset()
        results = synthesize_batch(
            [BatchRequest(job, field), BatchRequest(job, field)]
        )
        assert perf.get("vi.batch.dedup") == 1
        _assert_result_identical(results[0], results[1])


class TestBatchedEquivalenceProperty:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_random_health_fingerprints_bit_identical(self, seed):
        jobs = _jobs()[:2]
        field = force_field_from_health(_health(seed))
        _fresh_caches()
        solo = [synthesize_with_field(job, field) for job in jobs]
        _fresh_caches()
        batched = synthesize_batch([BatchRequest(job, field) for job in jobs])
        for rb, rs in zip(batched, solo):
            _assert_result_identical(rb, rs)


def _full_health() -> np.ndarray:
    return np.full((W, H), 3, dtype=int)


class TestEngineBatchPresynthesis:
    def test_sync_fallback_serves_take_without_pool(self):
        # workers=1: no pool, so the batch is solved in-process through
        # the batched kernel and parked as completed speculations — the
        # satellite fix for presynthesize returning 0 when not pooled.
        engine = SynthesisEngine(workers=1)
        try:
            router = AdaptiveRouter(engine=engine)
            jobs = _jobs()[:2]
            health = _full_health()
            submitted = engine.presynthesize_batch(
                [(job, None) for job in jobs], health
            )
            assert submitted == 2
            assert not engine.pooled
            for job in jobs:
                plan = router.plan(job, health)
                assert plan is not None
            assert router.syntheses == 0  # both served speculatively
            assert engine.hits == 2
            for job in jobs:
                direct = synthesize(job, health)
                assert router.library.get(job, health).expected_cycles == \
                    direct.expected_cycles
        finally:
            engine.close()

    def test_pooled_batch_take_matches_synchronous(self):
        import os
        import time

        workers = int(os.environ.get("REPRO_TEST_WORKERS", "2"))
        engine = SynthesisEngine(workers=max(workers, 2))
        try:
            jobs = _jobs()[:2]
            health = _full_health()
            submitted = engine.presynthesize_batch(
                [(job, None) for job in jobs], health
            )
            assert submitted == 2
            # All members share one wave (one pool task).
            waves = {id(wave) for _, wave, _ in engine._members.values()}
            assert len(waves) == 1
            wave = next(iter(engine._members.values()))[1]
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline and not wave.future.done():
                time.sleep(0.05)
            for job in jobs:
                status, strategy = engine.take(job, health)
                assert status == "hit"
                direct = synthesize(job, health)
                assert strategy.expected_cycles == direct.expected_cycles
                assert strategy.policy.values == direct.strategy.values
        finally:
            engine.close()

    def test_stale_member_discarded_like_solo_submission(self):
        engine = SynthesisEngine(workers=1)
        try:
            job = _jobs()[0]
            health = _full_health()
            degraded = _full_health()
            degraded[10, 8] = 1  # inside the hazard zone
            assert engine.presynthesize_batch([(job, None)], health) == 1
            assert engine.take(job, degraded) == ("absent", None)
            assert not engine._members  # the stale member is gone
            assert engine.submit(job, health)  # a one-member wave
            assert engine.take(job, degraded) == ("absent", None)
            assert engine.wasted == 2
        finally:
            engine.close()

    def test_router_prefetch_batch_filters_library_hits(self):
        engine = SynthesisEngine(workers=1)
        try:
            router = AdaptiveRouter(engine=engine)
            jobs = _jobs()[:2]
            health = _full_health()
            router.plan(jobs[0], health)  # fills the library
            submitted = router.prefetch_batch(jobs, health)
            assert submitted == 1  # only the uncovered job ships
        finally:
            engine.close()

"""Differential tests: the fast (compiled) builder vs the reference builders.

``build_routing_model_fast`` must be semantically identical to
``build_routing_mdp`` + ``compile_mdp``: same state space, same choice
structure, and — most importantly — the same synthesis values for both
query types under arbitrary health matrices and obstacle sets.  Against
the scalar oracle ``build_routing_model_scalar`` the match is exact: the
cold and the template-revalued fast build both reproduce its transitions
bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import perf
from repro.core.actions import ActionClass
from repro.core.fastmdp import (
    build_routing_model_fast,
    build_routing_model_scalar,
    clear_build_template_cache,
    extract_fast_strategy,
)
from repro.core.mdp import build_routing_mdp
from repro.core.routing_job import RoutingJob
from repro.core.synthesis import force_field_from_health
from repro.geometry.rect import Rect
from repro.modelcheck.compiled import (
    compile_mdp,
    solve_reach_avoid_probability,
    solve_reach_avoid_reward,
)
from repro.modelcheck.strategy import extract_strategy

W, H = 24, 18


def _random_case(seed: int):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 5))
    xa = int(rng.integers(1, 6))
    ya = int(rng.integers(1, 6))
    gxa = int(rng.integers(10, W - d))
    gya = int(rng.integers(8, H - d))
    start = Rect(xa, ya, xa + d - 1, ya + d - 1)
    goal = Rect(gxa, gya, gxa + d - 1, gya + d - 1)
    hazard = Rect(1, 1, W, H)
    obstacles = ()
    if rng.random() < 0.5:
        ox = int(rng.integers(6, W - 8))
        oy = int(rng.integers(4, H - 6))
        obstacle = Rect(ox, oy, ox + 2, oy + 2)
        if not obstacle.adjacent_or_overlapping(start) and not (
            obstacle.adjacent_or_overlapping(goal)
        ):
            obstacles = (obstacle,)
    job = RoutingJob(start, goal, hazard, obstacles)
    health = rng.integers(0, 4, size=(W, H))
    # keep start and goal neighbourhoods alive so routes usually exist
    health[max(xa - 2, 0):xa + d + 1, max(ya - 2, 0):ya + d + 1] = 3
    health[gxa - 2:gxa + d + 1, gya - 2:gya + d + 1] = 3
    return job, health


class TestEquivalence:
    @given(st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_same_model_statistics(self, seed: int):
        job, health = _random_case(seed)
        field = force_field_from_health(health)
        fast = build_routing_model_fast(job, field.forces)
        ref = build_routing_mdp(job, field)
        assert fast.num_states == ref.num_states
        assert fast.num_choices == ref.num_choices
        assert set(map(str, fast.states)) == set(map(str, ref.mdp.states))

    @given(st.integers(0, 500))
    @settings(max_examples=20, deadline=None)
    def test_same_rmin_values(self, seed: int):
        job, health = _random_case(seed)
        field = force_field_from_health(health)
        fast = build_routing_model_fast(job, field.forces)
        ref = compile_mdp(build_routing_mdp(job, field).mdp)
        rf = solve_reach_avoid_reward(fast.compiled, epsilon=1e-9)
        rr = solve_reach_avoid_reward(ref, epsilon=1e-9)
        v_fast = rf.values[fast.compiled.initial]
        v_ref = rr.values[ref.initial]
        if np.isinf(v_ref):
            assert np.isinf(v_fast)
        else:
            assert v_fast == pytest.approx(v_ref, abs=1e-5)

    @given(st.integers(0, 500))
    @settings(max_examples=20, deadline=None)
    def test_same_pmax_values(self, seed: int):
        job, health = _random_case(seed)
        field = force_field_from_health(health)
        fast = build_routing_model_fast(job, field.forces)
        ref = compile_mdp(build_routing_mdp(job, field).mdp)
        pf = solve_reach_avoid_probability(fast.compiled, epsilon=1e-9)
        pr = solve_reach_avoid_probability(ref, epsilon=1e-9)
        assert pf.values[fast.compiled.initial] == pytest.approx(
            pr.values[ref.initial], abs=1e-6
        )

    def test_strategies_agree_on_values(self):
        job, health = _random_case(7)
        field = force_field_from_health(health)
        fast = build_routing_model_fast(job, field.forces)
        ref_model = build_routing_mdp(job, field)
        rf = solve_reach_avoid_reward(fast.compiled, epsilon=1e-9)
        rr = solve_reach_avoid_reward(compile_mdp(ref_model.mdp), epsilon=1e-9)
        sf = extract_fast_strategy(fast, rf)
        sr = extract_strategy(ref_model.mdp, rr)
        # The optimal actions may differ on ties, but the achieved values
        # must match state by state.
        for state, value in sr.values.items():
            other = sf.value_at(state)
            assert other is not None
            if np.isfinite(value):
                assert other == pytest.approx(value, abs=1e-5)

    def test_action_family_filter_matches(self):
        from repro.core.actions import ActionClass

        job, health = _random_case(3)
        field = force_field_from_health(health)
        families = (ActionClass.CARDINAL, ActionClass.ORDINAL)
        fast = build_routing_model_fast(job, field.forces, families=families)
        ref = build_routing_mdp(job, field, families=families)
        assert fast.num_states == ref.num_states
        assert fast.num_choices == ref.num_choices

    def test_dispense_rejected(self):
        from repro.core.droplet import OFF_CHIP

        job = RoutingJob(OFF_CHIP, Rect(3, 3, 6, 6), Rect(1, 1, 9, 9))
        with pytest.raises(ValueError):
            build_routing_model_fast(job, np.ones((W, H)))


def _exact_view(model):
    """A model keyed by ``Rect``: goal states and, per ``(state, label)``
    choice, its successor -> probability map (floats compared exactly)."""
    cm = model.compiled
    t = cm.transitions
    states = model.states
    choices = {}
    for c in range(cm.num_choices):
        lo, hi = t.indptr[c], t.indptr[c + 1]
        key = (states[cm.choice_state[c]], model.choice_labels[c])
        assert key not in choices
        choices[key] = dict(
            zip((states[j] for j in t.indices[lo:hi]), t.data[lo:hi].tolist())
        )
    goal = {states[i] for i in np.flatnonzero(cm.labels["goal"])}
    return states[cm.initial], goal, choices


def _oracle_health(seed: int, dead: bool) -> np.ndarray:
    rng = np.random.default_rng(seed)
    health = rng.integers(1, 4, size=(W, H))
    if dead:
        health[rng.random((W, H)) < 0.15] = 0
    return health


_START, _GOAL = Rect(2, 2, 5, 5), Rect(18, 12, 21, 15)
_ORACLE_JOBS = {
    "full": RoutingJob(_START, _GOAL, Rect(1, 1, W, H)),
    "obstacles": RoutingJob(
        _START, _GOAL, Rect(1, 1, W, H),
        (Rect(10, 6, 12, 8), Rect(14, 1, 15, 3)),
    ),
    "interior-hazard": RoutingJob(
        Rect(5, 4, 8, 7), Rect(15, 10, 18, 13), Rect(4, 3, 20, 15)
    ),
}


class TestScalarOracle:
    """Cold and revalued fast builds equal the scalar build bit for bit."""

    @pytest.mark.parametrize(
        "job_name, max_aspect, families, dead",
        [
            ("full", 2.0, None, False),
            ("full", 2.0, None, True),
            ("full", 1.0, None, True),  # morphing off
            ("obstacles", 2.0, None, True),
            ("interior-hazard", 2.0, None, True),
            ("interior-hazard", 1.0, None, False),
        ] + [
            ("full", 2.0, (family,), True) for family in ActionClass
        ],
    )
    def test_fast_builds_equal_scalar(self, job_name, max_aspect, families,
                                      dead):
        job = _ORACLE_JOBS[job_name]
        health = _oracle_health(1, dead)
        forces = force_field_from_health(health).forces
        scalar = build_routing_model_scalar(job, forces, max_aspect, families)
        clear_build_template_cache()
        cold = build_routing_model_fast(job, forces, max_aspect, families)
        # Revalue: record the template on other live-cell healths with the
        # same dead cells (so the same support), then rebuild for
        # ``forces``.
        other = np.where(health > 0, _oracle_health(99, False), 0)
        clear_build_template_cache()
        build_routing_model_fast(
            job, force_field_from_health(other).forces, max_aspect, families
        )
        hits = perf.get("fastmdp.template.hits")
        revalued = build_routing_model_fast(job, forces, max_aspect, families)
        assert perf.get("fastmdp.template.hits") == hits + 1

        expected = _exact_view(scalar)
        assert expected[2], "the oracle model has choices"
        assert set(cold.states) == set(scalar.states)
        assert _exact_view(cold) == expected
        assert set(revalued.states) == set(scalar.states)
        assert _exact_view(revalued) == expected
        shapes = {(s.width, s.height) for s in scalar.states[1:]}
        assert (len(shapes) > 1) == (
            max_aspect > 1.0
            and families in (None, (ActionClass.WIDEN,),
                             (ActionClass.HEIGHTEN,))
        )


class TestRevalueBitIdentity:
    """A template revalue reproduces a fresh build's arrays byte for byte.

    Regression: duplicate transitions (several outcomes of one choice
    landing in the hazard sink) used to be summed by ``np.add.reduceat``
    on revalue, which rounded some three-entry runs 1 ulp away from the
    fresh build's left-to-right sum (seed 13 hits one).
    """

    @pytest.mark.parametrize("seed", range(60))
    def test_revalue_matches_fresh_build(self, seed):
        job = RoutingJob(_START, _GOAL, Rect(2, 2, 23, 17))
        rng = np.random.default_rng(seed)
        f1 = rng.uniform(0.5, 1.0, (W, H))
        f2 = f1 * rng.uniform(0.8, 1.0, (W, H))
        clear_build_template_cache()
        build_routing_model_fast(job, f1)
        hits = perf.get("fastmdp.template.hits")
        revalued = build_routing_model_fast(job, f2)
        assert perf.get("fastmdp.template.hits") == hits + 1
        clear_build_template_cache()
        fresh = build_routing_model_fast(job, f2)
        assert revalued.states == fresh.states
        assert revalued.choice_labels == fresh.choice_labels
        a, b = revalued.compiled.transitions, fresh.compiled.transitions
        for name in ("indptr", "indices", "data"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype
            assert x.tobytes() == y.tobytes(), name

"""Metamorphic tests of the whole synthesis pipeline (builder + solver).

The agreement suites elsewhere compare solvers on one built model, so a
builder bug passes all of them.  These properties compare *two different
models* instead: a change to the job or the chip that can only make
routing harder must never lower the synthesized minimum expected cycles
(``Rmin``).  Both models go through the fast builder and the certified
solver, exactly as :func:`~repro.core.synthesis.synthesize` runs them.

Health monotonicity holds only for actions whose outcomes are "move" or
"stall" (cardinal steps and morphs).  A double step or an ordinal move
also has partial outcomes — one hop, or one axis — and from some states a
partial outcome is closer to the goal than the full move, so weakening
the second leg's frontier can *lower* ``Rmin``.  The scalar reference
builder agrees on such a case (pinned below), so it is a property of the
outcome kernel (:mod:`repro.core.transitions`), not a builder bug.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.actions import ActionClass
from repro.core.routing_job import RoutingJob, zone
from repro.core.synthesis import (
    SYNTHESIS_EPSILON,
    force_field_from_health,
    synthesize,
    synthesize_with_field,
)
from repro.geometry.rect import Rect

W, H = 20, 12

#: Each solve's value is certified to within ``SYNTHESIS_EPSILON`` of the
#: true value, so two solves may disagree with the true order by twice that.
TOLERANCE = 2 * SYNTHESIS_EPSILON


def _place(draw, w: int, h: int) -> Rect:
    x = draw(st.integers(1, W - w + 1))
    y = draw(st.integers(1, H - h + 1))
    return Rect(x, y, x + w - 1, y + h - 1)


@st.composite
def jobs(draw) -> RoutingJob:
    """A droplet of 2x2 to 4x4 MCs routed to a same-shape goal."""
    w, h = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    start, goal = _place(draw, w, h), _place(draw, w, h)
    return RoutingJob(start, goal, zone(start, goal, W, H))


@st.composite
def obstacles(draw) -> Rect:
    """A parked droplet of up to 3x3 MCs anywhere on the chip."""
    return _place(draw, draw(st.integers(1, 3)), draw(st.integers(1, 3)))


def _health(seed: int) -> np.ndarray:
    """Mostly healthy codes (2-bit levels 0..3) with scattered wear."""
    rng = np.random.default_rng(seed)
    return rng.choice(4, size=(W, H), p=[0.05, 0.15, 0.3, 0.5])


#: The action families with only "move" and "stall" outcomes.
TWO_OUTCOME = (ActionClass.CARDINAL, ActionClass.WIDEN, ActionClass.HEIGHTEN)


def _rmin(job: RoutingJob, health: np.ndarray, families=None) -> float:
    if families is None:
        return synthesize(job, health).expected_cycles
    field = force_field_from_health(health)
    return synthesize_with_field(job, field, families=families).expected_cycles


class TestMonotoneRmin:
    @settings(max_examples=40, deadline=None)
    @given(job=jobs(), obstacle=obstacles(), seed=st.integers(0, 10_000))
    def test_adding_an_obstacle_never_lowers_rmin(self, job, obstacle, seed):
        health = _health(seed)
        blocked = job.with_obstacles(job.obstacles + (obstacle,))
        assert _rmin(blocked, health) >= _rmin(job, health) - TOLERANCE

    @settings(max_examples=40, deadline=None)
    @given(job=jobs(), seed=st.integers(0, 10_000),
           lower_seed=st.integers(0, 10_000),
           share=st.floats(0.05, 0.5))
    def test_lowering_health_never_lowers_rmin(self, job, seed, lower_seed,
                                               share):
        health = _health(seed)
        rng = np.random.default_rng(lower_seed)
        drop = (rng.random((W, H)) < share) * rng.integers(1, 4, (W, H))
        worse = np.maximum(health - drop, 0)
        assert (_rmin(job, worse, TWO_OUTCOME)
                >= _rmin(job, health, TWO_OUTCOME) - TOLERANCE)

    def test_partial_outcomes_can_lower_rmin(self):
        """Why the property above is restricted: with every action family,
        killing one cell on a second leg's frontier lowers ``Rmin``."""
        job = RoutingJob(Rect(3, 2, 4, 3), Rect(4, 8, 5, 9), Rect(1, 1, 8, 12))
        health = _health(487)
        assert health[5, 7] == 2
        worse = health.copy()
        worse[5, 7] = 0
        assert _rmin(job, worse) < _rmin(job, health) - 0.5
        assert (_rmin(job, worse, TWO_OUTCOME)
                >= _rmin(job, health, TWO_OUTCOME) - TOLERANCE)

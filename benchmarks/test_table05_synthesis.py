"""Table V — synthesis model sizes and runtimes.

Sweeps routing-job areas (10x10, 20x20, 30x30) and droplet sizes (3x3..6x6)
with a worst-case health matrix (no zeros), reporting the induced MDP's
states / transitions / choices and the construction / synthesis / total
times — the paper's Table V columns.

The paper's state counts are "droplet placements + 3"; with the single
hazard-sink reduction ours are "placements + 1" (65/50/37/26 for the 10x10
column vs the paper's 67/52/39/28), and the same trends must hold: smaller
droplets mean larger models, model construction dominates the runtime, and
the 30x30 jobs are an order of magnitude slower than 10x10.

"Construction dominates" is a claim about the paper's pipeline, which builds
the model state by state; it is checked on the scalar builder
(``build_routing_model_scalar``) plus the same solve.  The vectorized fast
path builds the model faster than it solves it, and the table prints that
ratio as a recorded deviation.
"""

from __future__ import annotations

import time

import numpy as np

from repro.analysis.tables import format_table
from repro.core.fastmdp import build_routing_model_scalar
from repro.core.routing_job import RoutingJob
from repro.core.synthesis import (
    SYNTHESIS_EPSILON,
    force_field_from_health,
    synthesize,
)
from repro.modelcheck.compiled import solve_reach_avoid_reward
from repro.geometry.rect import Rect

from benchmarks.common import emit

#: Paper Table V state counts, keyed by (area, droplet).
PAPER_STATES = {
    (10, 3): 67, (10, 4): 52, (10, 5): 39, (10, 6): 28,
    (20, 3): 327, (20, 4): 292, (20, 5): 259, (20, 6): 228,
    (30, 3): 787, (30, 4): 732, (30, 5): 679, (30, 6): 628,
}

#: Morphing disabled across 3x3..6x6 (see DESIGN.md): reproduces the paper's
#: positions-only state spaces.
MAX_ASPECT = 4 / 3


def _job(area: int, droplet: int) -> RoutingJob:
    start = Rect(1, 1, droplet, droplet)
    goal = Rect(area - droplet + 1, area - droplet + 1, area, area)
    return RoutingJob(start, goal, Rect(1, 1, area, area))


def _scalar_times(job: RoutingJob, health: np.ndarray) -> tuple[float, float]:
    """Construction and solve seconds of the paper-faithful pipeline: the
    per-state scalar builder, then the solve ``synthesize`` runs."""
    forces = force_field_from_health(health).forces
    t0 = time.perf_counter()
    model = build_routing_model_scalar(job, forces, max_aspect=MAX_ASPECT)
    t1 = time.perf_counter()
    solve_reach_avoid_reward(model.compiled, epsilon=SYNTHESIS_EPSILON)
    return t1 - t0, time.perf_counter() - t1


def test_table5_synthesis_runtime(benchmark):
    health = np.full((40, 40), 3)
    rows = []
    results = {}
    for area in (10, 20, 30):
        for droplet in (3, 4, 5, 6):
            result = synthesize(
                _job(area, droplet), health, max_aspect=MAX_ASPECT
            )
            results[(area, droplet)] = result
            model = result.model
            rows.append([
                f"{area}x{area}", f"{droplet}x{droplet}",
                model.num_states, model.num_transitions, model.num_choices,
                f"{result.construction_time:.3f}",
                f"{result.solve_time:.3f}",
                f"{result.total_time:.3f}",
                PAPER_STATES[(area, droplet)],
            ])
    big = results[(30, 3)]
    construct, solve = _scalar_times(_job(30, 3), health)
    emit(
        "table05_synthesis",
        format_table(
            ["RJ area", "droplet", "#states", "#transitions", "#choices",
             "construct (s)", "solve (s)", "total (s)", "paper #states"],
            rows,
            title="Table V — model sizes and synthesis runtimes",
        )
        + "\n30x30 3x3 construct/solve: scalar pipeline "
        f"{construct:.3f}/{solve:.3f} s ({construct / solve:.1f}x); "
        f"fast path {big.construction_time:.3f}/{big.solve_time:.3f} s "
        f"({big.construction_time / big.solve_time:.2f}x)",
    )

    for area in (10, 20, 30):
        states = [results[(area, d)].model.num_states for d in (3, 4, 5, 6)]
        # Paper trend: models shrink as droplets grow; counts match the
        # paper's placements-plus-sinks structure within the sink-count
        # convention (ours +1, PRISM's +3).
        assert states == sorted(states, reverse=True)
        for d in (3, 4, 5, 6):
            placements = (area - d + 1) ** 2
            assert results[(area, d)].model.num_states == placements + 1
            assert abs(PAPER_STATES[(area, d)] - placements) <= 3
    # Paper trend: construction dominates total synthesis time (on the
    # paper's state-by-state construction, not on the fast path).
    assert construct > solve
    # Paper trend: every strategy exists under the worst-case healthy matrix.
    assert all(r.exists for r in results.values())

    benchmark.pedantic(
        lambda: synthesize(_job(20, 4), health, max_aspect=MAX_ASPECT),
        rounds=3, iterations=1,
    )

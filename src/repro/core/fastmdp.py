"""Array-first construction of the per-RJ routing MDP.

Semantically identical to :func:`repro.core.mdp.build_routing_mdp` followed
by :func:`repro.modelcheck.compiled.compile_mdp` — the unit tests check the
two pipelines produce the same model statistics and the same synthesis
values — but built for the synthesis hot loop:

* droplet patterns are plain ``(xa, ya, xb, yb)`` int tuples;
* each droplet shape's actions (guards, frontier rectangles, outcome
  factors, successor offsets) are compiled once per *process* into a
  :class:`_ShapeTable`, memoized by ``(w, h, max_aspect, families)``;
* frontier means come from a 2-D prefix sum of the force matrix, so every
  leg probability is O(1);
* one per-shape kernel (:func:`_shape_values`) computes the probabilities
  of every outcome of every action of a shape at every anchor as one
  ``(outcomes, k)`` matrix; successors, hazard and obstacle checks are
  ``(outcomes, k)`` array ops too, with no per-action Python loop;
* transitions are assembled into canonical CSR form directly, skipping the
  explicit model objects entirely.

A template-cached rebuild for new forces (:func:`_revalue_template`) runs
the same kernel and the same CSR assembly as the cold build, so the two are
bit-identical.

:func:`build_routing_model_scalar` keeps the original per-state Python
expansion.  It is the pre-fast-path pipeline: the differential tests check
the cold and the revalued fast build against it bit for bit, and
``benchmarks/bench_synthesis.py`` measures the speedup of the fast path
over it.

Only matrix-backed force fields are supported (the synthesizer's health
estimates and the baseline's uniform field both are); exotic fields fall
back to the explicit builder in :mod:`repro.core.synthesis`.
"""


from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro import perf
from repro.core.actions import (
    ALL_ACTIONS,
    DEFAULT_MAX_ASPECT,
    Action,
    ActionClass,
    apply_action,
    frontier,
    frontier_directions,
    guard,
)
from repro.core.mdp import CYCLE_REWARD
from repro.core.routing_job import RoutingJob
from repro.geometry.rect import Rect
from repro.modelcheck.compiled import CompiledMDP
from repro.modelcheck.reachability import ValueResult
from repro.modelcheck.strategy import MemorylessStrategy

IntRect = tuple[int, int, int, int]

#: Index of the absorbing hazard sink in every compiled routing model.
HAZARD_INDEX = 0


@dataclass(frozen=True)
class _LegSpec:
    """A frontier rectangle as offsets from the droplet's (xa, ya)."""

    dxa: int
    dya: int
    dxb: int
    dyb: int


@dataclass(frozen=True)
class _ActionSpec:
    """Precompiled semantics of one action for one droplet shape.

    ``legs`` holds the offset frontiers whose means are the leg success
    probabilities; ``outcomes`` maps tuples of leg-success booleans to the
    successor-pattern offsets ``(dxa, dya, w, h)`` (``None`` = stay put).
    """

    name: str
    klass: ActionClass
    legs: tuple[_LegSpec, ...]
    outcomes: tuple[tuple[tuple[bool, ...], tuple[int, int, int, int] | None], ...]


def _offset(base: Rect, rect: Rect) -> _LegSpec:
    return _LegSpec(
        rect.xa - base.xa, rect.ya - base.ya, rect.xb - base.xa, rect.yb - base.ya
    )


def _succ_offset(base: Rect, rect: Rect) -> tuple[int, int, int, int]:
    return (rect.xa - base.xa, rect.ya - base.ya, rect.width, rect.height)


def _compile_shape_actions(
    w: int, h: int, max_aspect: float,
    families: tuple[ActionClass, ...] | None = None,
) -> list[_ActionSpec]:
    """Per-shape action metadata, derived from the reference implementation."""
    base = Rect(100, 100, 100 + w - 1, 100 + h - 1)
    specs: list[_ActionSpec] = []
    for action in ALL_ACTIONS:
        if families is not None and action.klass not in families:
            continue
        if not guard(base, action, max_aspect=max_aspect):
            continue
        specs.append(_spec_for(base, action))
    return specs


def _spec_for(base: Rect, action: Action) -> _ActionSpec:
    klass = action.klass
    if klass is ActionClass.CARDINAL:
        (direction,) = frontier_directions(action)
        leg = _offset(base, frontier(base, action, direction))  # type: ignore[arg-type]
        moved = _succ_offset(base, apply_action(base, action))
        return _ActionSpec(
            action.name, klass, (leg,),
            (((True,), moved), ((False,), None)),
        )
    if klass is ActionClass.DOUBLE:
        (direction,) = frontier_directions(action)
        leg1 = _offset(base, frontier(base, action, direction))  # type: ignore[arg-type]
        from repro.core.actions import ACTIONS

        one = apply_action(base, ACTIONS[f"a_{direction}"])
        leg2 = _offset(base, frontier(one, action, direction))  # type: ignore[arg-type]
        return _ActionSpec(
            action.name, klass, (leg1, leg2),
            (
                ((True, True), _succ_offset(base, apply_action(base, action))),
                ((True, False), _succ_offset(base, one)),
                ((False,), None),  # second leg never attempted
            ),
        )
    if klass is ActionClass.ORDINAL:
        dv, dh = action.vertical, action.horizontal
        assert dv is not None and dh is not None
        legv = _offset(base, frontier(base, action, dv))  # type: ignore[arg-type]
        legh = _offset(base, frontier(base, action, dh))  # type: ignore[arg-type]
        from repro.core.actions import ACTIONS

        return _ActionSpec(
            action.name, klass, (legv, legh),
            (
                ((True, True), _succ_offset(base, apply_action(base, action))),
                ((True, False),
                 _succ_offset(base, apply_action(base, ACTIONS[f"a_{dv}"]))),
                ((False, True),
                 _succ_offset(base, apply_action(base, ACTIONS[f"a_{dh}"]))),
                ((False, False), None),
            ),
        )
    # Morphs: one leg; success reshapes the droplet.
    (direction,) = frontier_directions(action)
    fr = frontier(base, action, direction)
    if fr is None:  # degenerate single-row/-column morphs are unguarded only
        raise AssertionError("guarded morph must have a frontier")
    return _ActionSpec(
        action.name, klass, (_offset(base, fr),),
        (((True,), _succ_offset(base, apply_action(base, action))),
         ((False,), None)),
    )


@dataclass(frozen=True)
class _ShapeTable:
    """One droplet shape's actions compiled for the per-shape kernel.

    Outcome rows are in *emission order*: per action, its moving outcomes,
    then its stay.  ``factor_rows[o, j]`` is the row of
    ``[probs; 1 - probs; ones]`` outcome ``o`` multiplies by at leg
    position ``j`` (the ones row for a leg the outcome never attempts, as
    a DOUBLE's first-leg failure).  Leg offsets and successor offsets are
    ``(·, 1)`` columns that broadcast against a ``(k,)`` anchor batch.
    """

    specs: tuple[_ActionSpec, ...]
    names: tuple[str, ...]
    #: Stacked leg frontiers of all actions, offsets from ``(xa, ya)``.
    leg_dxa: np.ndarray
    leg_dya: np.ndarray
    leg_dxb: np.ndarray
    leg_dyb: np.ndarray
    leg_area: np.ndarray
    factor_rows: np.ndarray
    #: Action index of each outcome row.
    row_action: np.ndarray
    #: Rows of the moving outcomes and their successor ``(dxa, dya, w, h)``;
    #: ``move_shape`` indexes ``succ_shapes`` (first-appearance order).
    move_rows: np.ndarray
    move_dxa: np.ndarray
    move_dya: np.ndarray
    move_w: np.ndarray
    move_h: np.ndarray
    move_shape: np.ndarray
    succ_shapes: tuple[tuple[int, int], ...]
    #: Row of each action's (single) staying outcome.
    stay_rows: np.ndarray


def _compile_shape_table(
    w: int, h: int, max_aspect: float,
    families: tuple[ActionClass, ...] | None,
) -> _ShapeTable:
    specs = tuple(_compile_shape_actions(w, h, max_aspect, families=families))
    legs = [leg for spec in specs for leg in spec.legs]
    ones = 2 * len(legs)
    width = max((len(spec.legs) for spec in specs), default=1)
    factor_rows: list[list[int]] = []
    row_action: list[int] = []
    move_rows: list[int] = []
    moves: list[tuple[int, int, int, int]] = []
    stay_rows: list[int] = []
    leg_base = 0
    for a, spec in enumerate(specs):
        moving = [o for o in spec.outcomes if o[1] is not None]
        stays = [o for o in spec.outcomes if o[1] is None]
        assert len(stays) == 1, "every action has exactly one staying outcome"
        for pattern, succ in moving + stays:
            row = [leg_base + j + (0 if ok else len(legs))
                   for j, ok in enumerate(pattern)]
            if succ is None:
                stay_rows.append(len(factor_rows))
            else:
                move_rows.append(len(factor_rows))
                moves.append(succ)
            factor_rows.append(row + [ones] * (width - len(row)))
            row_action.append(a)
        leg_base += len(spec.legs)
    succ_shapes = tuple(dict.fromkeys((m[2], m[3]) for m in moves))
    move = np.array(moves, dtype=np.int64).reshape(-1, 4)
    leg = np.array(
        [(g.dxa, g.dya, g.dxb, g.dyb) for g in legs], dtype=np.int64
    ).reshape(-1, 4)
    return _ShapeTable(
        specs=specs,
        names=tuple(spec.name for spec in specs),
        leg_dxa=leg[:, 0:1], leg_dya=leg[:, 1:2],
        leg_dxb=leg[:, 2:3], leg_dyb=leg[:, 3:4],
        leg_area=((leg[:, 2:3] - leg[:, 0:1] + 1)
                  * (leg[:, 3:4] - leg[:, 1:2] + 1)).astype(float),
        factor_rows=np.array(factor_rows, dtype=np.int64).reshape(-1, width),
        row_action=np.array(row_action, dtype=np.int64),
        move_rows=np.array(move_rows, dtype=np.int64),
        move_dxa=move[:, 0:1], move_dya=move[:, 1:2],
        move_w=move[:, 2:3], move_h=move[:, 3:4],
        move_shape=np.array(
            [succ_shapes.index((m[2], m[3])) for m in moves], dtype=np.int64
        ).reshape(-1, 1),
        succ_shapes=succ_shapes,
        stay_rows=np.array(stay_rows, dtype=np.int64),
    )


#: Process-global memo of per-shape action tables.  Key: droplet shape,
#: aspect bound and (normalized) family restriction; value: the compiled
#: :class:`_ShapeTable`.  Shape semantics are position-independent, so one
#: compilation serves every model build in the process.
_SHAPE_ACTION_MEMO: dict[
    tuple[int, int, float, tuple[ActionClass, ...] | None], _ShapeTable,
] = {}


def _shape_table(
    w: int, h: int, max_aspect: float,
    families: tuple[ActionClass, ...] | None = None,
) -> _ShapeTable:
    """Memoized per-shape action table (see :data:`_SHAPE_ACTION_MEMO`)."""
    key = (w, h, float(max_aspect),
           families if families is None else tuple(families))
    table = _SHAPE_ACTION_MEMO.get(key)
    if table is None:
        perf.incr("fastmdp.shape_memo.miss")
        table = _compile_shape_table(w, h, max_aspect, key[3])
        _SHAPE_ACTION_MEMO[key] = table
    else:
        perf.incr("fastmdp.shape_memo.hit")
    return table


def compiled_shape_actions(
    w: int, h: int, max_aspect: float,
    families: tuple[ActionClass, ...] | None = None,
) -> tuple[_ActionSpec, ...]:
    """Memoized per-shape action semantics (see :data:`_SHAPE_ACTION_MEMO`)."""
    return _shape_table(w, h, max_aspect, families).specs


def clear_shape_action_memo() -> None:
    """Drop the global action-table memo (benches use this to model a cold
    process; regular code never needs it — tables are immutable)."""
    _SHAPE_ACTION_MEMO.clear()


@dataclass(frozen=True)
class CompiledRoutingModel:
    """A routing MDP in compiled (array) form plus its state inventory."""

    compiled: CompiledMDP
    states: list[Rect | str]
    choice_labels: list[str]
    job: RoutingJob

    @property
    def num_states(self) -> int:
        return self.compiled.num_states

    @property
    def num_choices(self) -> int:
        return self.compiled.num_choices

    @property
    def num_transitions(self) -> int:
        return int(self.compiled.transitions.nnz)


def build_routing_model_scalar(
    job: RoutingJob,
    forces: np.ndarray,
    max_aspect: float = DEFAULT_MAX_ASPECT,
    families: tuple[ActionClass, ...] | None = None,
) -> CompiledRoutingModel:
    """Per-state (scalar) compiled-model builder — the pre-fast-path pipeline.

    Semantically identical to :func:`build_routing_model_fast` but expands
    one state at a time in pure Python.  Kept as the differential-test
    oracle and as the baseline that ``benchmarks/bench_synthesis.py``
    measures the vectorized fast path against; no production caller uses
    it.
    """
    if job.is_dispense:
        raise ValueError("dispense jobs are materialized, not routed")
    width, height = forces.shape
    prefix = np.zeros((width + 1, height + 1))
    prefix[1:, 1:] = forces.cumsum(axis=0).cumsum(axis=1)

    def rect_mean(xa: int, ya: int, xb: int, yb: int) -> float:
        cxa, cya = max(xa, 1), max(ya, 1)
        cxb, cyb = min(xb, width), min(yb, height)
        if cxb < cxa or cyb < cya:
            return 0.0
        total = (
            prefix[cxb, cyb]
            - prefix[cxa - 1, cyb]
            - prefix[cxb, cya - 1]
            + prefix[cxa - 1, cya - 1]
        )
        return float(total) / ((xb - xa + 1) * (yb - ya + 1))

    hz = job.hazard.as_tuple()
    goal = job.goal.as_tuple()
    obstacles = [o.as_tuple() for o in job.obstacles]
    start = job.start.as_tuple()

    def in_hazard(r: IntRect) -> bool:
        return (
            hz[0] <= r[0] and hz[1] <= r[1] and r[2] <= hz[2] and r[3] <= hz[3]
        )

    def in_goal(r: IntRect) -> bool:
        return (
            goal[0] <= r[0] and goal[1] <= r[1]
            and r[2] <= goal[2] and r[3] <= goal[3]
        )

    def blocked(r: IntRect) -> bool:
        for (oxa, oya, oxb, oyb) in obstacles:
            if (
                r[0] - 2 <= oxb and oxa - 2 <= r[2]
                and r[1] - 2 <= oyb and oya - 2 <= r[3]
            ):
                return True
        return False

    shape_specs: dict[tuple[int, int], list[_ActionSpec]] = {}

    # State 0 is the hazard sink; the start is state 1.
    states: list[IntRect | None] = [None, start]
    index: dict[IntRect, int] = {start: 1}
    goal_indices: list[int] = []

    choice_state: list[int] = []
    choice_labels: list[str] = []
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []

    def state_id(r: IntRect) -> int:
        idx = index.get(r)
        if idx is None:
            idx = len(states)
            states.append(r)
            index[r] = idx
            queue.append(r)
        return idx

    queue: list[IntRect] = [start]
    head = 0
    while head < len(queue):
        r = queue[head]
        head += 1
        s_idx = index[r]
        if in_goal(r):
            goal_indices.append(s_idx)
            continue
        xa, ya = r[0], r[1]
        shape = (r[2] - r[0] + 1, r[3] - r[1] + 1)
        specs = shape_specs.get(shape)
        if specs is None:
            specs = _compile_shape_actions(
                shape[0], shape[1], max_aspect, families=families
            )
            shape_specs[shape] = specs
        for spec in specs:
            probs = [
                rect_mean(xa + leg.dxa, ya + leg.dya, xa + leg.dxb, ya + leg.dyb)
                for leg in spec.legs
            ]
            c_idx = len(choice_state)
            stay_prob = 0.0
            emitted = False
            for pattern, succ in spec.outcomes:
                p = 1.0
                for leg_i, success in enumerate(pattern):
                    p *= probs[leg_i] if success else 1.0 - probs[leg_i]
                if p <= 0.0:
                    continue
                if succ is None:
                    stay_prob += p
                    continue
                dxa, dya, w2, h2 = succ
                nxt = (xa + dxa, ya + dya, xa + dxa + w2 - 1, ya + dya + h2 - 1)
                safe = in_hazard(nxt) and (nxt == start or not blocked(nxt))
                target = state_id(nxt) if safe else HAZARD_INDEX
                rows.append(c_idx)
                cols.append(target)
                vals.append(p)
                emitted = True
            if stay_prob > 0.0:
                rows.append(c_idx)
                cols.append(s_idx)
                vals.append(stay_prob)
                emitted = True
            assert emitted, "every action has at least one outcome"
            choice_state.append(s_idx)
            choice_labels.append(spec.name)

    n = len(states)
    transitions = sparse.csr_matrix(
        (vals, (rows, cols)), shape=(max(len(choice_state), 1), n)
    )
    goal_mask = np.zeros(n, dtype=bool)
    goal_mask[goal_indices] = True
    hazard_mask = np.zeros(n, dtype=bool)
    hazard_mask[HAZARD_INDEX] = True
    compiled = CompiledMDP(
        num_states=n,
        choice_state=np.asarray(choice_state, dtype=np.int64),
        choice_reward=np.full(len(choice_state), CYCLE_REWARD),
        transitions=transitions,
        labels={"goal": goal_mask, "hazard": hazard_mask},
        initial=1,
    )
    from repro.core.mdp import HAZARD_STATE

    state_objects: list[Rect | str] = [HAZARD_STATE] + [
        Rect(*r) for r in states[1:]  # type: ignore[misc]
    ]
    return CompiledRoutingModel(
        compiled=compiled, states=state_objects, choice_labels=choice_labels,
        job=job,
    )


def _force_prefix(forces: np.ndarray) -> np.ndarray:
    width, height = forces.shape
    prefix = np.zeros((width + 1, height + 1))
    prefix[1:, 1:] = forces.cumsum(axis=0).cumsum(axis=1)
    return prefix


def _leg_gather(
    table: _ShapeTable, xa: np.ndarray, ya: np.ndarray,
    width: int, height: int, window: tuple[int, int, int, int],
) -> "tuple[np.ndarray, np.ndarray]":
    """Vectorized ``rect_mean`` lookups of every leg over a position batch.

    Returns ``(gather, valid)``: the four flat force-prefix indices of each
    clamped leg-rect corner, ``(4, L, k)``, and the ``(L, k)`` mask of
    non-empty overlaps.  The prefix is local to ``window`` (see
    :func:`_read_window`) while the clamps stay in global chip coordinates,
    so the arithmetic is position-independent.  It is pure geometry —
    constant across force matrices — which is why a template records it
    once and every revalue skips straight to the prefix gathers.
    """
    ox, _, oy, y1 = window
    cxa = np.maximum(xa + table.leg_dxa, 1)
    cya = np.maximum(ya + table.leg_dya, 1)
    cxb = np.minimum(xa + table.leg_dxb, width)
    cyb = np.minimum(ya + table.leg_dyb, height)
    valid = (cxb >= cxa) & (cyb >= cya)
    # Clamp the lookup indices so invalid (empty-overlap) rows index
    # safely; their values are discarded by the mask.  One-sided clamps
    # suffice: cxb/cyb are already bounded above, cxa/cya below.
    ixb = np.maximum(cxb, 0) - ox
    iyb = np.maximum(cyb, 0) - oy
    ixa = np.minimum(cxa - 1, width) - ox
    iya = np.minimum(cya - 1, height) - oy
    ph = y1 - oy + 1
    gather = np.stack(
        [ixb * ph + iyb, ixa * ph + iyb, ixb * ph + iya, ixa * ph + iya]
    )
    return gather, valid


def _shape_values(
    prefix: np.ndarray, table: _ShapeTable,
    gather: np.ndarray, valid: np.ndarray, k: int,
) -> np.ndarray:
    """The ``(outcomes, k)`` outcome probabilities of one shape's actions.

    The one kernel both the cold build and a template revalue run.  Leg
    probabilities are frontier means from the flat force ``prefix``; each
    outcome multiplies its leg factors left to right (an unattempted leg
    contributes an exact 1.0), element for element the arithmetic of
    :func:`build_routing_model_scalar`.  Rows follow the table's emission
    order.
    """
    total = (
        prefix[gather[0]] - prefix[gather[1]]
        - prefix[gather[2]] + prefix[gather[3]]
    )
    probs = np.where(valid, total / table.leg_area, 0.0)
    factors = np.concatenate([probs, 1.0 - probs, np.ones((1, k))])
    values = factors[table.factor_rows[:, 0]]
    for j in range(1, table.factor_rows.shape[1]):
        values *= factors[table.factor_rows[:, j]]
    return values


def _sum_runs(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Sum each run ``values[starts[i]:starts[i + 1]]`` left to right.

    This is the order scipy's ``sum_duplicates`` adds duplicate entries
    in; ``np.add.reduceat`` promises no order and rounds some three-entry
    runs differently.  Runs are a choice's outcomes that share a successor
    (in practice several outcomes landing in the hazard sink), so they are
    a few entries long.
    """
    out = values[starts]
    if out.size:
        length = np.diff(starts, append=values.size)
        for j in range(1, int(length.max())):
            more = np.flatnonzero(length > j)
            out[more] += values[starts[more] + j]
    return out


def _read_window(
    hz: tuple, hz_w: int, hz_h: int,
    shapes: "list[tuple[int, int]]", tables: "list[_ShapeTable]",
    width: int, height: int,
) -> tuple[int, int, int, int]:
    """The force-cell window ``[x0:x1, y0:y1]`` a build can read.

    Every leg-probability lookup indexes the force prefix at clamped rect
    corners; the clamps are monotone in the anchor coordinate and the leg
    offset, so the extreme offsets over a shape's anchor range bound every
    lookup.  The build sums forces over a prefix *local to this window*,
    which makes the model a pure function of ``forces[x0:x1, y0:y1]`` —
    the foundation of the batch kernel's fingerprint-level dedup
    (identical window bytes imply a bit-identical model).
    """
    x0, x1 = width, 0
    y0, y1 = height, 0
    for (w, h), t in zip(shapes, tables):
        if not t.leg_dxa.size:
            continue
        ax_hi, ay_hi = hz[0] + (hz_w - w), hz[1] + (hz_h - h)
        x0 = min(x0, min(max(hz[0] + int(t.leg_dxa.min()), 1) - 1, width))
        x1 = max(x1, max(min(ax_hi + int(t.leg_dxb.max()), width), 0))
        y0 = min(y0, min(max(hz[1] + int(t.leg_dya.min()), 1) - 1, height))
        y1 = max(y1, max(min(ay_hi + int(t.leg_dyb.max()), height), 0))
    if x1 < x0:  # no legs at all: degenerate empty window at the origin
        x0 = x1 = y0 = y1 = 0
    return x0, x1, y0, y1


@dataclass
class _ShapeRecord:
    """One droplet shape of a build template.

    ``gather``/``valid`` are the :func:`_leg_gather` record for the shape's
    non-goal anchors and ``emit`` the ``(outcomes, k)`` support of the
    recording build.  The transition *structure* (targets, reachability,
    renumbering) depends on the force matrix only through ``emit``, so a
    revalue is valid exactly when the support is unchanged.
    """

    table: _ShapeTable
    gather: np.ndarray
    valid: np.ndarray
    emit: np.ndarray


@dataclass
class _BuildTemplate:
    """Everything force-independent about one job's built model.

    A template is recorded on the first (full) build for a job geometry and
    replayed by :func:`_revalue_template` for later builds that differ only
    in the force matrix.  Both run the same per-shape kernel
    (:func:`_shape_values`) and the same canonical CSR assembly
    (:func:`_instantiate`), so a revalued model is bit-identical to a
    fresh build at a fraction of the cost.
    """

    shapes: list[_ShapeRecord]
    #: Force-cell window ``forces[x0:x1, y0:y1]`` the build reads — the
    #: model is a pure function of this slice (see :func:`_read_window`).
    window: tuple[int, int, int, int] = (0, 0, 0, 0)
    # Canonical CSR skeleton (None ``order`` = the no-transitions edge
    # case): ``order`` gathers the emitted values straight into scipy's
    # canonical (row, column) order, ``starts`` marks each duplicate run
    # there, and ``indices``/``indptr`` are the canonical structure.
    order: np.ndarray | None = None
    starts: np.ndarray | None = None
    indices: np.ndarray | None = None
    indptr: np.ndarray | None = None
    num_choices: int = 0
    n: int = 0
    # Shared (read-only) model components.
    choice_state: np.ndarray | None = None
    choice_reward: np.ndarray | None = None
    labels: dict | None = None
    states: list | None = None
    choice_labels: list | None = None
    first_choice: np.ndarray | None = None
    digest: str | None = None


#: Process-global LRU of build templates keyed by job geometry
#: ``(job.key(), forces.shape, max_aspect, families)``.
_TEMPLATE_CACHE: "dict[tuple, _BuildTemplate]" = {}
_TEMPLATE_CACHE_MAX = 64

#: Guards cache mutation.  The serve layer runs builds on worker threads.
_TEMPLATE_LOCK = threading.Lock()


def clear_build_template_cache() -> None:
    """Drop the build-template cache (benches model a cold process with
    this; regular code never needs it — revalues are bit-identical)."""
    with _TEMPLATE_LOCK:
        _TEMPLATE_CACHE.clear()


def _instantiate(
    tpl: _BuildTemplate, job: RoutingJob, vals: np.ndarray
) -> CompiledRoutingModel:
    """The model of a template whose emitted values (chunk order) are
    ``vals``: duplicates summed left to right into canonical CSR form."""
    shape = (max(tpl.num_choices, 1), tpl.n)
    if tpl.order is None:
        transitions = sparse.csr_matrix(shape)
    else:
        transitions = sparse.csr_matrix(
            (
                _sum_runs(vals[tpl.order], tpl.starts),
                tpl.indices.copy(), tpl.indptr.copy(),
            ),
            shape=shape,
        )
        transitions.has_canonical_format = True
    compiled = CompiledMDP(
        num_states=tpl.n,
        choice_state=tpl.choice_state,
        choice_reward=tpl.choice_reward,
        transitions=transitions,
        labels=tpl.labels,
        initial=1,
    )
    if tpl.first_choice is None:
        tpl.first_choice = compiled.first_choice()
    else:
        compiled._first_choice_cache.append(tpl.first_choice)
    if tpl.digest is not None:
        compiled._digest_cache.append(tpl.digest)
    return CompiledRoutingModel(
        compiled=compiled, states=tpl.states, choice_labels=tpl.choice_labels,
        job=job,
    )


def _revalue_template(
    tpl: _BuildTemplate, job: RoutingJob, forces: np.ndarray
) -> CompiledRoutingModel | None:
    """Rebuild a job's model from its template for a new force matrix.

    Reruns the build's per-shape kernel on the recorded gathers, validates
    the support against the template and assembles the transitions the way
    the build did, so the result is bit-identical to a fresh
    :func:`build_routing_model_fast` build.  Returns ``None`` when the
    support changed (the caller falls back to a full rebuild, which
    re-records the template).
    """
    wx0, wx1, wy0, wy1 = tpl.window
    pf = _force_prefix(forces[wx0:wx1, wy0:wy1]).ravel()
    chunks: list[np.ndarray] = []
    for sh in tpl.shapes:
        values = _shape_values(
            pf, sh.table, sh.gather, sh.valid, sh.emit.shape[1]
        )
        if not np.array_equal(values > 0.0, sh.emit):
            return None
        chunks.append(values[sh.emit])
    model = _instantiate(
        tpl, job, np.concatenate(chunks) if chunks else np.zeros(0)
    )
    if tpl.digest is None:
        from repro.modelcheck.batch import structural_key

        tpl.digest = structural_key(model.compiled)
    return model


def build_routing_model_fast(
    job: RoutingJob,
    forces: np.ndarray,
    max_aspect: float = DEFAULT_MAX_ASPECT,
    families: tuple[ActionClass, ...] | None = None,
) -> CompiledRoutingModel:
    """Build the per-RJ MDP in compiled form, vectorized and template-cached.

    ``forces`` is the ``(W, H)`` per-MC relative-force matrix; cells outside
    it exert zero force.  ``families`` optionally restricts the action set
    to the given classes (``None`` = all five).

    The first build for a job geometry runs the full vectorized pipeline
    (see :func:`_build_fast`) and records a :class:`_BuildTemplate`; later
    builds for the same geometry — the common case in resynthesis storms,
    where only the health fingerprint changes — replay the template,
    rerunning only the per-shape probability kernel.  Build and revalue
    share that kernel and the CSR assembly, so revalued models are
    bit-identical to fresh builds (the differential tests assert this) and
    the cache is transparent to every caller.
    """
    if job.is_dispense:
        raise ValueError("dispense jobs are materialized, not routed")
    key = (
        job.key(), forces.shape, float(max_aspect),
        families if families is None else tuple(families),
    )
    with _TEMPLATE_LOCK:
        tpl = _TEMPLATE_CACHE.get(key)
    if tpl is not None:
        model = _revalue_template(tpl, job, forces)
        if model is not None:
            perf.incr("fastmdp.template.hits")
            return model
        perf.incr("fastmdp.template.rebuilds")
    else:
        perf.incr("fastmdp.template.misses")
    model, tpl = _build_fast(job, forces, max_aspect, families)
    with _TEMPLATE_LOCK:
        if len(_TEMPLATE_CACHE) >= _TEMPLATE_CACHE_MAX:
            _TEMPLATE_CACHE.pop(next(iter(_TEMPLATE_CACHE)))
        _TEMPLATE_CACHE[key] = tpl
    return model


def build_dedup_token(
    job: RoutingJob,
    forces: np.ndarray,
    max_aspect: float = DEFAULT_MAX_ASPECT,
    families: tuple[ActionClass, ...] | None = None,
) -> bytes | None:
    """The bytes of the force window a build of ``(job, forces)`` reads.

    Two builds of the same job whose tokens are equal produce bit-identical
    models (the build is a pure function of the window slice — see
    :func:`_read_window`), so batch callers can solve one and reuse the
    result for the other.  Returns ``None`` when no template is cached for
    the job geometry yet (the window is discovered by the first build).
    """
    key = (
        job.key(), forces.shape, float(max_aspect),
        families if families is None else tuple(families),
    )
    with _TEMPLATE_LOCK:
        tpl = _TEMPLATE_CACHE.get(key)
    if tpl is None:
        return None
    x0, x1, y0, y1 = tpl.window
    return forces[x0:x1, y0:y1].tobytes()


def _build_fast(
    job: RoutingJob,
    forces: np.ndarray,
    max_aspect: float,
    families: tuple[ActionClass, ...] | None,
) -> "tuple[CompiledRoutingModel, _BuildTemplate]":
    """The full vectorized build, recording a revalue template as it goes.

    Instead of expanding states one at a time, the builder enumerates
    *every* in-hazard pattern of every reachable droplet shape up front,
    computes the outcome probabilities and successors of all of a shape's
    actions with one batch of ``(outcomes, k)`` array ops, and then
    restricts the model to the component reachable from the start with a
    C-level sparse BFS (:func:`scipy.sparse.csgraph.breadth_first_order`).
    The arithmetic is element-for-element the same as
    :func:`build_routing_model_scalar`, so the two builders produce
    identical probabilities and (up to state ordering) identical models.
    """
    perf.incr("fastmdp.builds")
    width, height = forces.shape
    tpl = _BuildTemplate(shapes=[])

    hz = job.hazard.as_tuple()
    goal = job.goal.as_tuple()
    obstacles = [o.as_tuple() for o in job.obstacles]
    start = job.start.as_tuple()
    hz_w = hz[2] - hz[0] + 1
    hz_h = hz[3] - hz[1] + 1
    # -- shape closure: droplet shapes reachable via morph successors --------
    start_shape = (start[2] - start[0] + 1, start[3] - start[1] + 1)
    shape_index: dict[tuple[int, int], int] = {start_shape: 0}
    shapes: list[tuple[int, int]] = [start_shape]
    tables: list[_ShapeTable] = []
    si = 0
    while si < len(shapes):
        table = _shape_table(
            shapes[si][0], shapes[si][1], max_aspect, families=families
        )
        tables.append(table)
        for nshape in table.succ_shapes:
            if (
                nshape not in shape_index
                and nshape[0] <= hz_w and nshape[1] <= hz_h
            ):
                shape_index[nshape] = len(shapes)
                shapes.append(nshape)
        si += 1

    # The force prefix is local to the window this job can read: the model
    # becomes a pure function of ``forces[window]``, so the batch kernel
    # can dedup requests whose window bytes coincide.
    tpl.window = _read_window(hz, hz_w, hz_h, shapes, tables, width, height)
    wx0, wx1, wy0, wy1 = tpl.window
    prefix = _force_prefix(forces[wx0:wx1, wy0:wy1]).ravel()

    # -- provisional pattern ids: 0 = hazard sink, then shape-major blocks ---
    # Patterns of shape (w, h) anchor at xa in [hz.xa, hz.xb - w + 1] and
    # ya in [hz.ya, hz.yb - h + 1]; the id of (xa, ya) is arithmetic, so
    # successor lookups need no hash/grid at all.
    base = np.zeros(len(shapes) + 1, dtype=np.int64)
    for i, (w, h) in enumerate(shapes):
        base[i + 1] = base[i] + (hz_w - w + 1) * (hz_h - h + 1)
    total = int(base[-1])
    start_pid = 1 + int(base[shape_index[start_shape]]) + (
        (start[0] - hz[0]) * (hz_h - start_shape[1] + 1) + (start[1] - hz[1])
    )

    pat_x = np.zeros(total + 1, dtype=np.int64)
    pat_y = np.zeros(total + 1, dtype=np.int64)
    pat_w = np.zeros(total + 1, dtype=np.int64)
    pat_h = np.zeros(total + 1, dtype=np.int64)

    owner_chunks: list[np.ndarray] = []
    label_chunks: list[np.ndarray] = []
    names: list[str] = []
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    goal_pids: list[np.ndarray] = []
    num_prov_choices = 0

    for si, (w, h) in enumerate(shapes):
        table = tables[si]
        nx = hz_w - w + 1
        ny = hz_h - h + 1
        xa = np.repeat(np.arange(hz[0], hz[0] + nx, dtype=np.int64), ny)
        ya = np.tile(np.arange(hz[1], hz[1] + ny, dtype=np.int64), nx)
        pids = 1 + int(base[si]) + np.arange(nx * ny, dtype=np.int64)
        pat_x[pids] = xa
        pat_y[pids] = ya
        pat_w[pids] = w
        pat_h[pids] = h
        in_goal = (
            (goal[0] <= xa) & (goal[1] <= ya)
            & (xa + w - 1 <= goal[2]) & (ya + h - 1 <= goal[3])
        )
        if in_goal.any():
            goal_pids.append(pids[in_goal])
        ng = ~in_goal  # goal patterns are absorbing: no choices
        xa_ng, ya_ng, pid_ng = xa[ng], ya[ng], pids[ng]
        k = pid_ng.size
        if k == 0:
            continue
        gather, valid = _leg_gather(
            table, xa_ng, ya_ng, width, height, tpl.window
        )
        values = _shape_values(prefix, table, gather, valid, k)
        emit = values > 0.0
        tpl.shapes.append(
            _ShapeRecord(table=table, gather=gather, valid=valid, emit=emit)
        )
        # Successors of every moving outcome at once, ``(M, k)``.
        nxa = xa_ng + table.move_dxa
        nya = ya_ng + table.move_dya
        nxb = nxa + (table.move_w - 1)
        nyb = nya + (table.move_h - 1)
        safe = (
            (hz[0] <= nxa) & (hz[1] <= nya) & (nxb <= hz[2]) & (nyb <= hz[3])
        )
        if obstacles:
            blocked = np.zeros(safe.shape, dtype=bool)
            for (oxa, oya, oxb, oyb) in obstacles:
                blocked |= (
                    (nxa - 2 <= oxb) & (oxa - 2 <= nxb)
                    & (nya - 2 <= oyb) & (oya - 2 <= nyb)
                )
            is_start = (
                (nxa == start[0]) & (nya == start[1])
                & (table.move_w == start_shape[0])
                & (table.move_h == start_shape[1])
            )
            safe &= is_start | ~blocked
        # A successor shape outside the closure does not fit the hazard
        # bounds, so ``safe`` is already False there and its base is moot.
        succ_base = np.array(
            [base[shape_index.get(s, 0)] for s in table.succ_shapes],
            dtype=np.int64,
        )
        tpid = 1 + succ_base[table.move_shape] + (
            (nxa - hz[0]) * (hz_h - table.move_h + 1) + (nya - hz[1])
        )
        targets = np.empty(values.shape, dtype=np.int64)
        targets[table.move_rows] = np.where(safe, tpid, HAZARD_INDEX)
        targets[table.stay_rows] = pid_ng
        # Provisional choice ``action * k + position``; row-major nonzeros
        # of the emission-ordered matrix are the per-action chunk order
        # (moving outcomes, then the stay).
        flat = np.flatnonzero(emit)
        out_row, pos = np.divmod(flat, k)
        rows.append(num_prov_choices + table.row_action[out_row] * k + pos)
        cols.append(targets.ravel()[flat])
        vals.append(values.ravel()[flat])
        n_actions = len(table.names)
        owner_chunks.append(np.tile(pid_ng, n_actions))
        label_chunks.append(np.repeat(
            np.arange(len(names), len(names) + n_actions, dtype=np.int64), k
        ))
        names.extend(table.names)
        num_prov_choices += n_actions * k

    row_arr = (np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64))
    col_arr = (np.concatenate(cols) if cols else np.zeros(0, dtype=np.int64))
    val_arr = (np.concatenate(vals) if vals else np.zeros(0))
    owner_arr = (
        np.concatenate(owner_chunks) if owner_chunks
        else np.zeros(0, dtype=np.int64)
    )
    label_arr = (
        np.concatenate(label_chunks) if label_chunks
        else np.zeros(0, dtype=np.int64)
    )

    # -- restrict to the component reachable from the start ------------------
    reach = np.zeros(total + 1, dtype=bool)
    reach[HAZARD_INDEX] = True  # the sink exists even when unreachable
    reach[start_pid] = True
    # State adjacency (owner state -> successor state) from the emitted
    # transitions: transition t belongs to choice row_arr[t], whose owner
    # pattern is owner_arr[row_arr[t]].
    if row_arr.size:
        edge_src = owner_arr[row_arr]
        graph = sparse.csr_matrix(
            (np.ones(edge_src.size, dtype=np.int8), (edge_src, col_arr)),
            shape=(total + 1, total + 1),
        )
        order = sparse.csgraph.breadth_first_order(
            graph, start_pid, directed=True, return_predecessors=False
        )
        reach[order] = True

    reach_pids = np.flatnonzero(reach)
    n = reach_pids.size
    new_id = np.full(total + 1, -1, dtype=np.int64)
    new_id[HAZARD_INDEX] = 0
    new_id[start_pid] = 1
    others = reach_pids[(reach_pids != HAZARD_INDEX) & (reach_pids != start_pid)]
    new_id[others] = 2 + np.arange(others.size, dtype=np.int64)

    keep_choice = np.flatnonzero(reach[owner_arr]) if owner_arr.size else \
        np.zeros(0, dtype=np.int64)
    new_owner = new_id[owner_arr[keep_choice]]
    perm = np.argsort(new_owner, kind="stable")
    final_choices = keep_choice[perm]
    num_choices = final_choices.size
    choice_state = new_owner[perm]
    choice_labels: list[str] = np.array(names, dtype=object)[
        label_arr[final_choices]
    ].tolist()
    choice_new = np.full(num_prov_choices, -1, dtype=np.int64)
    choice_new[final_choices] = np.arange(num_choices, dtype=np.int64)

    if row_arr.size:
        rows_f = choice_new[row_arr]
        tmask = rows_f >= 0
        rows_f = rows_f[tmask]
        cols_f = new_id[col_arr[tmask]]
        counts = np.bincount(rows_f, minlength=num_choices)
        assert (counts > 0).all(), "every action has at least one outcome"
        t_order = np.argsort(rows_f, kind="stable")
        indptr = np.zeros(max(num_choices, 1) + 1, dtype=np.int64)
        indptr[1 : num_choices + 1] = np.cumsum(counts)
        # Probe scipy's canonicalization once: feeding entry ranks as data
        # through ``sort_indices`` recovers the exact permutation it
        # applies, and run boundaries in the sorted (row, col) sequence
        # mark the duplicates ``sum_duplicates`` would merge.
        probe = sparse.csr_matrix(
            (np.arange(1.0, rows_f.size + 1.0), cols_f[t_order], indptr),
            shape=(max(num_choices, 1), n),
        )
        probe.sort_indices()
        perm2 = probe.data.astype(np.int64) - 1
        cols2 = probe.indices
        rowrep = np.repeat(
            np.arange(probe.shape[0], dtype=np.int64), np.diff(probe.indptr)
        )
        new_run = np.ones(cols2.size, dtype=bool)
        new_run[1:] = (cols2[1:] != cols2[:-1]) | (rowrep[1:] != rowrep[:-1])
        starts = np.flatnonzero(new_run)
        tpl.order = np.flatnonzero(tmask)[t_order[perm2]]
        tpl.starts = starts
        tpl.indices = cols2[starts]
        tpl.indptr = np.concatenate(([0], np.cumsum(new_run)))[probe.indptr]

    goal_mask = np.zeros(n, dtype=bool)
    if goal_pids:
        goal_new = new_id[np.concatenate(goal_pids)]
        goal_mask[goal_new[goal_new >= 0]] = True
    hazard_mask = np.zeros(n, dtype=bool)
    hazard_mask[HAZARD_INDEX] = True
    from repro.core.mdp import HAZARD_STATE

    inv = np.zeros(n, dtype=np.int64)
    inv[new_id[reach_pids]] = reach_pids
    sx = pat_x[inv[1:]]
    sy = pat_y[inv[1:]]
    sw = pat_w[inv[1:]]
    sh = pat_h[inv[1:]]
    tpl.states = [HAZARD_STATE] + [
        Rect(x, y, x + w - 1, y + h - 1)
        for x, y, w, h in zip(
            sx.tolist(), sy.tolist(), sw.tolist(), sh.tolist()
        )
    ]
    tpl.num_choices = num_choices
    tpl.n = n
    tpl.choice_state = choice_state
    tpl.choice_reward = np.full(num_choices, CYCLE_REWARD)
    tpl.labels = {"goal": goal_mask, "hazard": hazard_mask}
    tpl.choice_labels = choice_labels
    return _instantiate(tpl, job, val_arr), tpl


def extract_fast_strategy(
    model: CompiledRoutingModel, result: ValueResult
) -> MemorylessStrategy:
    """Memoryless strategy from a solved compiled routing model."""
    cm = model.compiled
    first = cm.first_choice()
    has_choice = result.choice >= 0
    global_choice = np.where(has_choice, first + result.choice, -1)
    states = model.states
    labels = model.choice_labels
    values: dict[object, float] = dict(zip(states, result.values.tolist()))
    decided = np.flatnonzero(has_choice)
    picked = global_choice[decided].tolist()
    decisions: dict[object, str] = {
        states[s]: labels[c] for s, c in zip(decided.tolist(), picked)
    }
    return MemorylessStrategy(
        decisions=decisions,
        values=values,
        initial_value=float(result.values[cm.initial]),
    )

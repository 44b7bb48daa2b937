"""Vectorized solvers over a compiled (array-form) MDP.

The explicit :class:`~repro.modelcheck.model.MDP` is convenient to build but
slow to iterate in pure Python.  For the synthesis workload (hundreds of
value-iteration solves per bioassay execution) the model is compiled once
into flat numpy/scipy-sparse arrays:

* ``choice_state[c]`` — owner state of choice ``c`` (choices are grouped by
  state in construction order);
* ``choice_reward[c]`` — reward of choice ``c``;
* ``transitions`` — a ``(num_choices, num_states)`` CSR matrix of successor
  probabilities.

Solving is a *sound* two-stage pipeline (see :mod:`.precompute` and
:mod:`.interval`):

1. **qualitative precomputation** pins every state whose value is exactly
   0 or 1 from the graph alone (``prob0``/``prob1`` under both ``Pmax``
   and ``Pmin`` semantics), which both removes the non-contracting end
   components that made plain ``Pmin`` iteration diverge and gives the
   numeric stage a unique fixpoint;
2. **interval value iteration** brackets the remaining states between a
   monotone lower and upper iterate, so every :class:`ValueResult` carries
   certified ``lower``/``upper`` arrays with ``gap <= epsilon``.

Warm-start seeds are *validated*, not trusted: values outside the
documented bound raise ``ValueError``, non-finite entries are filled with
the side-correct neutral value (0 for a lower/least-fixpoint side, 1 for
the ``Pmin`` upper side), and the surviving candidate is accepted only if
one Bellman application confirms it bounds the fixpoint from its side
(rejections cold-start and count as ``vi.warm.rejected``).

The pure-Python solvers in :mod:`repro.modelcheck.reachability` /
:mod:`repro.modelcheck.rewards` remain as reference implementations; the
unit tests check agreement between the two on randomized models.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from repro import perf
from repro.modelcheck import interval, precompute
from repro.modelcheck.model import MDP
from repro.modelcheck.reachability import (
    DEFAULT_EPSILON,
    DEFAULT_MAX_ITERATIONS,
    ValueResult,
)


@dataclass(frozen=True)
class CompiledMDP:
    """Array form of an explicit MDP (see module docstring)."""

    num_states: int
    choice_state: np.ndarray
    choice_reward: np.ndarray
    transitions: sparse.csr_matrix
    labels: dict[str, np.ndarray]
    initial: int
    _first_choice_cache: list = field(
        default_factory=list, repr=False, compare=False
    )
    _digest_cache: list = field(
        default_factory=list, repr=False, compare=False
    )

    @property
    def num_choices(self) -> int:
        return int(self.choice_state.size)

    def label_mask(self, name: str) -> np.ndarray:
        """Boolean state mask for a label (all-false when unused)."""
        if name in self.labels:
            return self.labels[name]
        return np.zeros(self.num_states, dtype=bool)

    def first_choice(self) -> np.ndarray:
        """Index of each state's first choice (choices are state-grouped).

        Computed once per model and reused by every strategy extraction and
        local-index conversion instead of re-running bincount/cumsum per
        call.
        """
        if not self._first_choice_cache:
            first = np.zeros(self.num_states, dtype=np.int64)
            counts = np.bincount(self.choice_state, minlength=self.num_states)
            first[1:] = np.cumsum(counts)[:-1]
            self._first_choice_cache.append(first)
        return self._first_choice_cache[0]


def compile_mdp(mdp: MDP) -> CompiledMDP:
    """Flatten an explicit MDP into arrays for the vectorized solvers."""
    if mdp.initial is None:
        raise ValueError("model has no initial state")
    n = mdp.num_states
    choice_state: list[int] = []
    choice_reward: list[float] = []
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    c_idx = 0
    for s in range(n):
        for choice in mdp.enabled(s):
            choice_state.append(s)
            choice_reward.append(choice.reward)
            for t, p in choice.successors:
                rows.append(c_idx)
                cols.append(t)
                vals.append(p)
            c_idx += 1
    transitions = sparse.csr_matrix(
        (vals, (rows, cols)), shape=(max(c_idx, 1), n)
    )
    labels = {
        name: _mask(n, members) for name, members in mdp.labels.items()
    }
    return CompiledMDP(
        num_states=n,
        choice_state=np.asarray(choice_state, dtype=np.int64),
        choice_reward=np.asarray(choice_reward, dtype=float),
        transitions=transitions,
        labels=labels,
        initial=mdp.initial,
    )


def _mask(n: int, members: set[int]) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    mask[list(members)] = True
    return mask


#: Absolute tolerance within which a choice ties its owner's optimum in
#: strategy extraction; the lowest tying choice index wins.
_TIE_ATOL = 1e-12


def _sanitize_probability_seed(
    initial_values: np.ndarray, n: int, maximize: bool
) -> np.ndarray:
    """Validate a probability warm-start seed.

    Finite entries must respect the documented ``[0, 1]`` bound (a gross
    violation raises instead of being silently clipped — it means the
    caller handed values from the wrong query).  Non-finite entries are
    filled *side-correctly*: 0 for the ``Pmax`` lower side, 1 for the
    ``Pmin`` upper side — a 0-fill under ``Pmin`` would sit below the
    greatest fixpoint and stall the old one-sided iteration on a spurious
    fixpoint.
    """
    seed = np.asarray(initial_values, dtype=float)
    if seed.shape != (n,):
        raise ValueError(
            f"warm-start seed has shape {seed.shape}, expected ({n},)"
        )
    finite = np.isfinite(seed)
    if bool(np.any(finite & ((seed < -1e-9) | (seed > 1.0 + 1e-9)))):
        raise ValueError(
            "probability warm-start seed has entries outside [0, 1]"
        )
    fill = 0.0 if maximize else 1.0
    return np.where(finite, np.clip(seed, 0.0, 1.0), fill)


def _sanitize_reward_seed(initial_values: np.ndarray, n: int) -> np.ndarray:
    """Validate a reward warm-start seed (lower side: non-negative)."""
    seed = np.asarray(initial_values, dtype=float)
    if seed.shape != (n,):
        raise ValueError(
            f"warm-start seed has shape {seed.shape}, expected ({n},)"
        )
    finite = np.isfinite(seed)
    if bool(np.any(finite & (seed < -1e-9))):
        raise ValueError("reward warm-start seed has negative entries")
    return np.where(finite, np.maximum(seed, 0.0), 0.0)


def _extract(
    cm: CompiledMDP,
    values: np.ndarray,
    choice_mask: np.ndarray,
    rewards: np.ndarray | None,
    maximize: bool,
) -> np.ndarray:
    """Greedy strategy (global choice indices) from converged values.

    Each state takes the lowest-index choice of ``choice_mask`` whose
    q-value lies within :data:`_TIE_ATOL` of the state's optimum, and
    ``-1`` where it owns no masked choice (or none compares, as with a
    NaN optimum).  Choices are grouped by owner, so the optimum and the
    first tying choice are each one segment reduction over the owners'
    start offsets.
    """
    choice = np.full(cm.num_states, -1, dtype=np.int64)
    idx = np.flatnonzero(choice_mask)
    if idx.size == 0:
        return choice
    q = interval._rows(cm) @ values
    if rewards is not None:
        q = rewards + q
    q = q[idx]
    own = cm.choice_state[idx]
    newseg = np.r_[True, own[1:] != own[:-1]]
    starts = np.flatnonzero(newseg)
    red = np.maximum.reduceat if maximize else np.minimum.reduceat
    best = red(q, starts)[np.cumsum(newseg) - 1]
    with np.errstate(invalid="ignore"):  # inf - inf: equality decides
        hit = (np.abs(q - best) <= _TIE_ATOL) | (q == best)
    first = np.minimum.reduceat(np.where(hit, idx, cm.num_choices), starts)
    found = first < cm.num_choices
    choice[own[starts[found]]] = first[found]
    return choice


def solve_reach_avoid_probability(
    cm: CompiledMDP,
    goal: str = "goal",
    avoid: str = "hazard",
    maximize: bool = True,
    epsilon: float = DEFAULT_EPSILON,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    initial_values: np.ndarray | None = None,
) -> ValueResult:
    """Vectorized ``Pmax``/``Pmin`` of ``[] !avoid && <> goal``.

    The pipeline is sound: qualitative precomputation pins the
    exact-0/exact-1 states, then interval value iteration brackets the rest
    between monotone bounds, so the result's ``lower``/``upper`` satisfy
    ``lower <= P <= upper`` pointwise with ``max(upper - lower) <= epsilon``
    and ``values`` is their midpoint (within ``epsilon/2`` of the truth).

    ``initial_values`` warm-starts the contracting side (lower for
    ``Pmax``, upper for ``Pmin``).  Seeds are validated: finite entries
    outside ``[0, 1]`` raise ``ValueError``; non-finite entries fill
    side-correctly; the candidate (relaxed by ``epsilon`` toward its side)
    is kept only when one Bellman application confirms it bounds the
    fixpoint, otherwise the solve silently cold-starts
    (``vi.warm.rejected``).
    """
    goal_mask = cm.label_mask(goal)
    avoid_mask = cm.label_mask(avoid)
    if np.any(goal_mask & avoid_mask):
        raise ValueError("goal and avoid labels overlap")
    n = cm.num_states
    seed: np.ndarray | None = None
    if initial_values is not None:
        seed = _sanitize_probability_seed(initial_values, n, maximize)
        perf.incr("vi.probability.warm_solves")
    else:
        perf.incr("vi.probability.cold_solves")

    sets = precompute.qualitative(cm, goal_mask, avoid_mask, maximize)
    solution = interval.solve_probability_interval(
        cm,
        zero=sets.zero,
        one=sets.one,
        maximize=maximize,
        epsilon=epsilon,
        max_iterations=max_iterations,
        seed=seed,
    )
    return _probability_result(cm, solution, goal_mask | avoid_mask, maximize)


def _probability_result(
    cm: CompiledMDP,
    solution: interval.IntervalSolution,
    frozen: np.ndarray,
    maximize: bool,
) -> ValueResult:
    """Package a certified probability solution (midpoint + strategy).

    ``frozen`` marks the goal and avoid states, which get no choice.
    Shared with the batched kernel so both paths count and report alike.
    """
    values = 0.5 * (solution.lower + solution.upper)
    remapped = _extract(cm, values, ~frozen[cm.choice_state], None, maximize)
    remapped[frozen] = -1
    # The extraction Bellman application counts as an iteration, so even a
    # fully precomputed solve reports >= 1.
    iterations = solution.iterations + 1
    perf.incr("vi.probability.iterations", iterations)
    return _interval_result(cm, solution, values, remapped, iterations)


def _reward_region(
    cm: CompiledMDP, goal_mask: np.ndarray, avoid_mask: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(goal_zero, active, usable)`` for total-reward solving.

    ``usable`` restricts to choices whose support stays inside the
    probability-one region (PRISM total-reward semantics: any chance of
    leaving it means reward accrues forever on the non-reaching runs).
    """
    struct = precompute.structure(cm)
    sure = precompute.prob1e_mask(cm, goal_mask, avoid_mask, struct)
    n = cm.num_states
    owners = cm.choice_state
    stays = (struct @ (~sure).astype(np.int8)) == 0
    usable = stays & sure[owners] & ~goal_mask[owners]
    active = np.zeros(n, dtype=bool)
    active[owners[usable]] = True
    return goal_mask & sure, active, usable


def solve_reach_avoid_reward(
    cm: CompiledMDP,
    goal: str = "goal",
    avoid: str = "hazard",
    minimize: bool = True,
    epsilon: float = DEFAULT_EPSILON,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    initial_values: np.ndarray | None = None,
) -> ValueResult:
    """Vectorized ``Rmin``/``Rmax`` of cumulated reward until ``goal``.

    States outside the probability-one region get ``inf`` (PRISM
    total-reward semantics); the iteration is restricted to choices that
    stay inside it.  The pipeline certifies the finite values with
    optimistic value iteration: ``lower <= R <= upper`` pointwise with
    ``max(upper - lower) <= epsilon`` over the finite region, and
    ``values`` is the midpoint.

    ``initial_values`` warm-starts the lower iterate.  Negative finite
    entries raise ``ValueError``; non-finite entries fill with 0 (the sound
    lower start); the candidate (relaxed down by ``epsilon``) is verified
    with a Bellman application and dropped where it fails
    (``vi.warm.rejected``).  Goal states and states outside the prob-1
    region keep their pinned values regardless of the seed.
    """
    goal_mask = cm.label_mask(goal)
    avoid_mask = cm.label_mask(avoid)
    n = cm.num_states
    seed: np.ndarray | None = None
    if initial_values is not None:
        seed = _sanitize_reward_seed(initial_values, n)
        perf.incr("vi.reward.warm_solves")
    else:
        perf.incr("vi.reward.cold_solves")

    goal_zero, active, usable = _reward_region(cm, goal_mask, avoid_mask)
    solution = interval.solve_reward_interval(
        cm,
        goal_zero=goal_zero,
        active=active,
        usable=usable,
        minimize=minimize,
        epsilon=epsilon,
        max_iterations=max_iterations,
        seed=seed,
    )
    return _reward_result(cm, solution, usable, minimize)


def _reward_result(
    cm: CompiledMDP,
    solution: interval.IntervalSolution,
    usable: np.ndarray,
    minimize: bool,
) -> ValueResult:
    """Package a certified reward solution (midpoint + strategy).

    States outside the probability-one region keep their ``inf`` lower
    value.  Shared with the batched kernel so both paths count and report
    alike.
    """
    values = np.where(
        np.isfinite(solution.lower) & np.isfinite(solution.upper),
        0.5 * (solution.lower + solution.upper),
        solution.lower,
    )
    remapped = _extract(cm, values, usable, cm.choice_reward, not minimize)
    iterations = solution.iterations + 1
    perf.incr("vi.reward.iterations", iterations)
    return _interval_result(cm, solution, values, remapped, iterations)


def _interval_result(
    cm: CompiledMDP,
    solution: interval.IntervalSolution,
    values: np.ndarray,
    remapped: np.ndarray,
    iterations: int,
) -> ValueResult:
    """The objective-independent tail: interval counters and the result."""
    perf.incr("vi.interval.iters", solution.iterations)
    perf.observe("vi.interval.gap", solution.gap, bounds=GAP_BUCKETS)
    return ValueResult(
        values=values,
        choice=_to_local(cm, remapped),
        iterations=iterations,
        lower=solution.lower,
        upper=solution.upper,
    )


#: Histogram buckets for certified-gap observations (``vi.interval.gap``).
GAP_BUCKETS = (1e-12, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-2, 1.0)


def _to_local(cm: CompiledMDP, global_choice: np.ndarray) -> np.ndarray:
    """Convert global choice indices to per-state (local) choice indices.

    :class:`ValueResult` stores the index of the optimal choice *within* the
    owning state's choice list, matching the reference solvers.
    """
    n = cm.num_states
    first_choice = cm.first_choice()
    local = np.full(n, -1, dtype=np.int64)
    has = global_choice >= 0
    states = np.flatnonzero(has)
    local[states] = global_choice[states] - first_choice[states]
    return local

"""Batched certified solving of same-shape MDP families.

Adaptive routing re-synthesizes the same routing-job model over and over
with different health fingerprints: the sparsity pattern (which cells can
reach which) is fixed by the chip geometry while the transition
*probabilities* move with degradation.  Solving those models one at a time
repeats two kinds of work:

* **graph precompute** — qualitative prob0/prob1 sets, the total-reward
  region and the block's gather skeletons depend only on the transition
  *support*,
  so models sharing a support share all of it (:class:`SharedContext`,
  memoized on a structural fingerprint);
* **sweep scheduling** — the value-iteration settling prelude that costs
  most of a warm solve runs the same reductions per model; stacking the
  models into one ``(models, choices)`` value array turns ``m`` sweeps
  into one block-diagonal matvec plus one axis-1 segment reduction.

The kernel is *exact*, not approximate: every per-model operation either
reuses the solo code verbatim (:func:`interval._solve_reward_block`,
:func:`interval._pi_finish`) or mirrors it op-for-op with no cross-model
data flow, so each model's float sequence — and therefore its certified
``lower``/``upper`` bounds, gap and extracted strategy — is bit-identical
to a solo :func:`~repro.modelcheck.compiled.solve_reach_avoid_reward` call
with the same seed.  Models retire from the active set as they settle;
any model the batch path cannot handle (stored zero probabilities,
unsorted owners, a solver failure) falls back to the full solo solve,
which reproduces solo behavior including its exceptions.

The boundary is pure array-in/array-out: callers hand in compiled models
(plus optional warm seeds) and get :class:`ValueResult` objects back —
nothing here knows about routing jobs, strategies or engines.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro import perf
from repro.modelcheck import compiled, interval, precompute
from repro.modelcheck.reachability import (
    DEFAULT_EPSILON,
    DEFAULT_MAX_ITERATIONS,
    ValueResult,
)


def structural_key(cm) -> str:
    """Fingerprint of everything the shared precompute depends on.

    Two models with equal keys have identical state/choice layout,
    transition sparsity, labels and initial state — they may differ only
    in transition probabilities (and rewards), which is exactly the family
    a :class:`SharedContext` covers.  Probability *values* are excluded on
    purpose; support equality additionally requires every stored entry to
    be positive (:func:`supports_batching`).
    """
    if cm._digest_cache:
        return cm._digest_cache[0]
    t = interval._rows(cm)
    h = hashlib.sha256()
    h.update(np.int64(cm.num_states).tobytes())
    h.update(np.int64(cm.num_choices).tobytes())
    h.update(np.int64(cm.initial).tobytes())
    h.update(np.ascontiguousarray(cm.choice_state).tobytes())
    h.update(np.ascontiguousarray(t.indptr).tobytes())
    h.update(np.ascontiguousarray(t.indices).tobytes())
    for name in sorted(cm.labels):
        h.update(name.encode())
        h.update(np.ascontiguousarray(cm.labels[name]).tobytes())
    digest = h.hexdigest()
    cm._digest_cache.append(digest)
    return digest


def supports_batching(cm) -> bool:
    """True when the stored sparsity *is* the support (no explicit zeros).

    A stored zero would make two equal-key models have different
    qualitative sets, silently invalidating the shared precompute; such
    models take the solo path instead.
    """
    return bool((interval._rows(cm).data > 0.0).all())


def _raw_csr(data, indices, indptr, shape) -> sparse.csr_matrix:
    """CSR from pre-validated arrays, skipping the constructor's checks.

    The arrays come from skeletons derived off a canonical matrix (or a
    gather through one), so re-running ``check_format`` per model per
    solve would only re-verify what the construction guarantees.
    """
    out = sparse.csr_matrix(shape, dtype=data.dtype)
    out.data = data
    out.indices = indices
    out.indptr = indptr
    return out


def _block_diag_csr(mats: "list[sparse.csr_matrix]") -> sparse.csr_matrix:
    """Block-diagonal stack of same-shape, same-sparsity CSR matrices.

    ``scipy.sparse.block_diag`` round-trips through COO (a sort over the
    whole stacked nnz); with identical skeletons the result is a plain
    concatenation, so build it directly.
    """
    m = len(mats)
    first = mats[0]
    if m == 1:
        return first
    nr, nc = first.shape
    idx = first.indices
    data = np.concatenate([A.data for A in mats])
    offsets = np.repeat(
        np.arange(m, dtype=idx.dtype) * idx.dtype.type(nc), idx.size
    )
    indices = np.tile(idx, m) + offsets
    counts = np.diff(first.indptr)
    indptr = np.concatenate(([0], np.cumsum(np.tile(counts, m)))).astype(
        first.indptr.dtype
    )
    return _raw_csr(data, indices, indptr, (m * nr, m * nc))


@dataclass(frozen=True)
class _Level:
    """Shared structure of the active block (support-derived)."""

    block: np.ndarray  # bool state mask of the block
    idx: np.ndarray  # global choice indices of the block
    own: np.ndarray  # owner state per block choice
    states: np.ndarray  # sorted state indices of the block
    rowpos: np.ndarray  # gather: T.data[rowpos] -> Tl.data
    tl_indices: np.ndarray
    tl_indptr: np.ndarray
    blockpos: np.ndarray  # gather: Tl.data[blockpos] -> Tblock.data
    tb_indices: np.ndarray
    tb_indptr: np.ndarray
    argopt_starts: np.ndarray | None  # None when owners are unsorted/empty
    argopt_seg: np.ndarray | None
    direct_ok: bool

    def make_tl(self, T: sparse.csr_matrix, n: int) -> sparse.csr_matrix:
        """This model's block rows — bit-identical to ``T[idx]``."""
        return _raw_csr(
            T.data[self.rowpos], self.tl_indices, self.tl_indptr,
            (self.idx.size, n),
        )

    def make_tblock(self, Tl: sparse.csr_matrix) -> sparse.csr_matrix:
        """The in-block columns — bit-identical to ``Tl[:, states]``."""
        return _raw_csr(
            Tl.data[self.blockpos], self.tb_indices, self.tb_indptr,
            (self.idx.size, self.states.size),
        )


@dataclass(frozen=True)
class SharedContext:
    """Support-derived precompute shared by a same-shape model family.

    ``level`` is ``None`` when the family has no active state.
    """

    key: str
    goal: str
    avoid: str
    goal_zero: np.ndarray
    active: np.ndarray
    usable: np.ndarray
    level: _Level | None


def _build_level(
    T: sparse.csr_matrix,
    owners: np.ndarray,
    block: np.ndarray,
    usable: np.ndarray,
    minimize: bool,
) -> _Level:
    idx = np.flatnonzero(usable & block[owners])
    own = owners[idx]
    states = np.flatnonzero(block)

    counts = np.diff(T.indptr)[idx]
    total = int(counts.sum())
    seg0 = np.concatenate(([0], np.cumsum(counts)[:-1])).astype(np.int64)
    rowpos = np.repeat(T.indptr[idx], counts) + (
        np.arange(total, dtype=np.int64) - np.repeat(seg0, counts)
    )
    tl_indices = T.indices[rowpos]
    tl_indptr = np.concatenate(([0], np.cumsum(counts))).astype(
        T.indptr.dtype
    )

    # Column-slice skeleton: slicing an index-valued matrix with the same
    # structure records, in the exact data order scipy's slicing produces,
    # which Tl entry lands where — so per-model Tblocks are one gather.
    marker = sparse.csr_matrix(
        (np.arange(1, total + 1, dtype=np.int64), tl_indices, tl_indptr),
        shape=(idx.size, T.shape[1]),
    )
    msub = marker[:, states]
    blockpos = np.asarray(msub.data, dtype=np.int64) - 1
    tb_indices = msub.indices
    tb_indptr = msub.indptr

    fast = interval._make_argopt(own)
    if fast is not None and own.size:
        newseg = np.r_[True, own[1:] != own[:-1]]
        argopt_starts = np.flatnonzero(newseg)
        argopt_seg = np.cumsum(newseg) - 1
    else:
        argopt_starts = argopt_seg = None
    return _Level(
        block=block,
        idx=idx,
        own=own,
        states=states,
        rowpos=rowpos,
        tl_indices=tl_indices,
        tl_indptr=tl_indptr,
        blockpos=blockpos,
        tb_indices=tb_indices,
        tb_indptr=tb_indptr,
        argopt_starts=argopt_starts,
        argopt_seg=argopt_seg,
        direct_ok=(
            minimize
            and states.size <= interval._SPARSE_DIRECT_MAX
            and argopt_starts is not None
            and argopt_starts.size == states.size
        ),
    )


def build_context(cm, goal: str, avoid: str, minimize: bool) -> SharedContext:
    """Compute the shared precompute from one representative model."""
    goal_mask = cm.label_mask(goal)
    avoid_mask = cm.label_mask(avoid)
    goal_zero, active, usable = compiled._reward_region(
        cm, goal_mask, avoid_mask
    )
    level = None
    if active.any():
        level = _build_level(
            interval._rows(cm), cm.choice_state, active, usable, minimize
        )
    return SharedContext(
        key=structural_key(cm),
        goal=goal,
        avoid=avoid,
        goal_zero=goal_zero,
        active=active,
        usable=usable,
        level=level,
    )


#: Shared-context memo.  Worker processes solve many batches for the same
#: assay geometry, so a small LRU holds the handful of live shapes.
_CONTEXT_CACHE: OrderedDict[tuple, SharedContext] = OrderedDict()
_CONTEXT_CACHE_MAX = 32


def reward_context(cm, goal: str, avoid: str, minimize: bool) -> SharedContext:
    """Memoized :func:`build_context` keyed on the structural fingerprint."""
    key = (structural_key(cm), goal, avoid, minimize)
    ctx = _CONTEXT_CACHE.get(key)
    if ctx is not None:
        _CONTEXT_CACHE.move_to_end(key)
        perf.incr("vi.batch.precompute.hits")
        return ctx
    perf.incr("vi.batch.precompute.misses")
    ctx = build_context(cm, goal, avoid, minimize)
    _CONTEXT_CACHE[key] = ctx
    while len(_CONTEXT_CACHE) > _CONTEXT_CACHE_MAX:
        _CONTEXT_CACHE.popitem(last=False)
    return ctx


def clear_context_cache() -> None:
    _CONTEXT_CACHE.clear()


class _ModelState:
    """Mutable per-model solve state of one batched solve."""

    __slots__ = ("cm", "T", "lower", "upper", "budget", "seed", "failed")

    def __init__(self, cm, ctx: SharedContext, max_iterations: int, seed):
        n = cm.num_states
        self.cm = cm
        self.T = interval._rows(cm)
        self.lower = np.full(n, np.inf)
        self.upper = np.full(n, np.inf)
        self.lower[ctx.goal_zero] = 0.0
        self.upper[ctx.goal_zero] = 0.0
        self.lower[ctx.active] = 0.0
        self.budget = interval._Budget(
            max_iterations, "reward iteration did not converge"
        )
        self.seed = seed
        self.failed = False


def _batched_settle(
    lvl: _Level,
    ms: "list[_ModelState]",
    x0s: "list[np.ndarray]",
    bases: "list[np.ndarray]",
    tblocks: "list[sparse.csr_matrix]",
) -> "list[np.ndarray | None]":
    """Lockstep settling prelude over all models of the block.

    Mirrors the ``settle`` closure of :func:`interval._policy_fixpoint`
    op-for-op per model: same budget ticks, same value-only vs greedy
    round cadence, same strict-improvement policy update.  There is no
    data flow between models — stacking only amortizes the matvec and
    reduction calls — so each model's iterate sequence is identical to
    its solo run.  Returns each model's held policy (``None`` where the
    prelude failed to settle, matching solo).
    """
    ns = lvl.states.size
    nc = lvl.own.size
    starts = lvl.argopt_starts
    seg = lvl.argopt_seg
    idxarr = np.arange(nc, dtype=np.int64)
    minimize_red = np.minimum.reduceat

    active = [i for i, m in enumerate(ms) if not m.failed]
    held: "list[np.ndarray | None]" = [None] * len(ms)
    stable = {i: 0 for i in active}
    done: "set[int]" = set()

    if starts is None or starts.size != ns:
        # Solo settling would bail on the first value-only round (the
        # reduction cannot cover every block state); replicate its single
        # budget tick and report failure for every model.
        for i in active:
            try:
                ms[i].budget.tick()
            except interval.NonConvergence:
                ms[i].failed = True
        return held

    def rebuild(models: "list[int]"):
        B = _block_diag_csr([tblocks[i] for i in models])
        Base = np.stack([bases[i] for i in models])
        return B, Base

    # ``lanes`` are the models materialized in the stacked arrays; models
    # retire from ``live`` immediately but their lanes are only compacted
    # once half are dead — a retired lane keeps sweeping into values nobody
    # reads (block-diagonal structure means it cannot influence a live
    # lane), which is cheaper than rebuilding the stack per retirement.
    lanes = list(active)
    live = set(active)
    B, Base = rebuild(lanes)
    X = np.stack([x0s[i] for i in lanes])
    sweeps = 0
    for k in range(interval._PI_PRELUDE_MAX):
        if not live:
            break
        for i in list(live):
            try:
                ms[i].budget.tick()
            except interval.NonConvergence:
                ms[i].failed = True
                live.discard(i)
        if not live:
            break
        if 2 * len(live) <= len(lanes):
            keep = [row for row, i in enumerate(lanes) if i in live]
            lanes = [i for i in lanes if i in live]
            X = X[keep]
            B, Base = rebuild(lanes)
        sweeps += 1
        Q = Base + (B @ X.reshape(-1)).reshape(len(lanes), nc)
        if (k + 1) % interval._PI_PRELUDE_CHECK:
            X = minimize_red(Q, starts, axis=1)
            continue
        Best = minimize_red(Q, starts, axis=1)
        cand = np.where(Q == Best[:, seg], idxarr, nc)
        G = np.minimum.reduceat(cand, starts, axis=1)
        Best = np.take_along_axis(Q, G, axis=1)
        X = Best
        for row, i in enumerate(lanes):
            if i not in live:
                continue
            if held[i] is None:
                held[i] = G[row]
                continue
            cur = Q[row, held[i]]
            margin = interval._CHECK_RTOL * (1.0 + np.abs(cur))
            improve = Best[row] < cur - margin
            if improve.any():
                held[i] = np.where(improve, G[row], held[i])
                stable[i] = 0
            else:
                stable[i] += 1
                if stable[i] >= interval._PI_PRELUDE_STABLE:
                    done.add(i)
                    live.discard(i)
                    if live:
                        perf.incr("vi.batch.retired_early")
    perf.incr("vi.batch.sweeps", sweeps)
    return held


def _solve_block(
    lvl: _Level,
    live: "list[_ModelState]",
    epsilon: float,
    minimize: bool,
) -> None:
    """Solve the active block for every model, in place.

    Each model runs the solo block body, :func:`interval._solve_reward_block`;
    when more than one model can share it, the settling prelude runs
    batched first and each model finishes from its own held policy.
    Models that exhaust their budget are marked ``failed``.
    """
    tls = {id(m): lvl.make_tl(m.T, m.cm.num_states) for m in live}
    rls = {id(m): m.cm.choice_reward[lvl.idx] for m in live}

    if not lvl.direct_ok or len(live) == 1:
        # No batched prelude possible (maximization, oversized or
        # degenerate block), or a single live model (nothing to batch) —
        # run the solo block body whole.  Either way the shared-context
        # precompute is still amortized.
        for m in live:
            try:
                interval._solve_reward_block(
                    m.lower, m.upper, lvl.block, tls[id(m)], rls[id(m)],
                    lvl.own, m.budget, epsilon=epsilon, minimize=minimize,
                    seed=m.seed,
                )
            except interval.NonConvergence:
                m.failed = True
        return

    # Seed verification (solo order: before the direct attempt).
    for m in live:
        if m.seed is None:
            continue
        try:
            opt = interval._make_opt(lvl.own, m.cm.num_states, not minimize)
            interval._verify_reward_seed(
                m.lower, lvl.block,
                lambda vec, m=m, opt=opt: opt(rls[id(m)] + tls[id(m)] @ vec),
                m.seed, epsilon, m.budget,
            )
        except interval.NonConvergence:
            m.failed = True
    live = [m for m in live if not m.failed]
    if not live:
        return

    # Inputs of the settling prelude, exactly as
    # interval._policy_fixpoint derives them.
    x0s, bases, tblocks = [], [], []
    for m in live:
        vals = m.lower.copy()
        certified = np.isfinite(m.upper)
        vals[certified] = 0.5 * (m.lower[certified] + m.upper[certified])
        x0 = vals[lvl.states].copy()
        x0[~np.isfinite(x0)] = 0.0
        vals[lvl.states] = 0.0
        bases.append(rls[id(m)] + tls[id(m)] @ vals)
        x0s.append(x0)
        tblocks.append(lvl.make_tblock(tls[id(m)]))

    held = _batched_settle(lvl, live, x0s, bases, tblocks)
    for row, m in enumerate(live):
        if m.failed:
            continue
        try:
            interval._solve_reward_block(
                m.lower, m.upper, lvl.block, tls[id(m)], rls[id(m)],
                lvl.own, m.budget, epsilon=epsilon, minimize=minimize,
                seed=None, presettled=(held[row], tblocks[row], bases[row]),
            )
        except interval.NonConvergence:
            m.failed = True


def solve_reach_avoid_reward_batch(
    models,
    goal: str = "goal",
    avoid: str = "hazard",
    minimize: bool = True,
    epsilon: float = DEFAULT_EPSILON,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    initial_values=None,
    context: SharedContext | None = None,
) -> "list[ValueResult]":
    """Solve a same-shape family of reward queries in one batched pass.

    Every entry of the returned list is bit-identical — bounds, values,
    choices, iteration counts — to what
    :func:`compiled.solve_reach_avoid_reward` returns for that model and
    seed.  Models the batch cannot handle fall back to exactly that call
    (``vi.batch.fallbacks``), so failure modes (including
    :class:`~repro.modelcheck.interval.NonConvergence`) also match solo
    behavior.  Raises ``ValueError`` when the models do not share a
    structural key — callers bucket by :func:`structural_key` first.
    """
    models = list(models)
    if initial_values is None:
        initial_values = [None] * len(models)
    if len(initial_values) != len(models):
        raise ValueError("initial_values length does not match models")
    if not models:
        return []

    def solo(cm, seed):
        perf.incr("vi.batch.fallbacks")
        return compiled.solve_reach_avoid_reward(
            cm, goal, avoid, minimize=minimize, epsilon=epsilon,
            max_iterations=max_iterations, initial_values=seed,
        )

    keys = [structural_key(cm) for cm in models]
    if len(set(keys)) != 1:
        raise ValueError(
            "batched solve requires a single shape bucket; got "
            f"{len(set(keys))} distinct structural keys"
        )

    perf.incr("vi.batch.solves")
    perf.incr("vi.batch.models", len(models))

    results: "list[ValueResult | None]" = [None] * len(models)
    batchable: "list[int]" = []
    for i, cm in enumerate(models):
        if supports_batching(cm):
            batchable.append(i)
        else:
            results[i] = solo(cm, initial_values[i])
    if not batchable:
        return results
    # A single batchable model still runs the shared-context machinery:
    # the per-epoch win in resynthesis storms is the memoized prob1e
    # region and gather skeletons (keyed on support), which the plain
    # solo path would recompute from scratch every call.

    rep = models[batchable[0]]
    if context is None or context.key != keys[batchable[0]] or (
        context.goal != goal or context.avoid != avoid
    ):
        context = reward_context(rep, goal, avoid, minimize)
    ctx = context

    states_list: "list[_ModelState]" = []
    for i in batchable:
        cm = models[i]
        seed = None
        if initial_values[i] is not None:
            seed = compiled._sanitize_reward_seed(
                initial_values[i], cm.num_states
            )
            perf.incr("vi.reward.warm_solves")
        else:
            perf.incr("vi.reward.cold_solves")
        states_list.append(_ModelState(cm, ctx, max_iterations, seed))

    if ctx.level is not None:
        _solve_block(ctx.level, states_list, epsilon, minimize)

    for i, m in zip(batchable, states_list):
        if m.failed:
            results[i] = solo(models[i], initial_values[i])
            continue
        solution = interval.IntervalSolution(
            m.lower, m.upper, m.budget.iterations
        )
        results[i] = compiled._reward_result(
            models[i], solution, ctx.usable, minimize
        )
    return results


#: Probability-objective memo: qualitative sets depend only on support.
_QUAL_CACHE: OrderedDict[tuple, precompute.QualitativeSets] = OrderedDict()
_QUAL_CACHE_MAX = 64


def qualitative_context(
    cm, goal: str, avoid: str, maximize: bool
) -> precompute.QualitativeSets:
    """Memoized qualitative prob0/prob1 sets for a model family."""
    key = (structural_key(cm), goal, avoid, maximize)
    sets = _QUAL_CACHE.get(key)
    if sets is not None:
        _QUAL_CACHE.move_to_end(key)
        perf.incr("vi.batch.precompute.hits")
        return sets
    perf.incr("vi.batch.precompute.misses")
    sets = precompute.qualitative(
        cm, cm.label_mask(goal), cm.label_mask(avoid), maximize
    )
    _QUAL_CACHE[key] = sets
    while len(_QUAL_CACHE) > _QUAL_CACHE_MAX:
        _QUAL_CACHE.popitem(last=False)
    return sets


def solve_reach_avoid_probability_batch(
    models,
    goal: str = "goal",
    avoid: str = "hazard",
    maximize: bool = True,
    epsilon: float = DEFAULT_EPSILON,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    initial_values=None,
) -> "list[ValueResult]":
    """Batched probability queries: shared qualitative precompute.

    Production routing solves reward objectives, so this path stays thin:
    the graph precompute (the shape-dependent half of a probability solve)
    is shared across the family and the numeric interval iteration runs
    per model through the untouched solo code, keeping results trivially
    bit-identical to :func:`compiled.solve_reach_avoid_probability`.
    """
    models = list(models)
    if initial_values is None:
        initial_values = [None] * len(models)
    if len(initial_values) != len(models):
        raise ValueError("initial_values length does not match models")
    if not models:
        return []
    perf.incr("vi.batch.solves")
    perf.incr("vi.batch.models", len(models))
    results = []
    for cm, seed_values in zip(models, initial_values):
        goal_mask = cm.label_mask(goal)
        avoid_mask = cm.label_mask(avoid)
        if np.any(goal_mask & avoid_mask):
            raise ValueError("goal and avoid labels overlap")
        seed = None
        if seed_values is not None:
            seed = compiled._sanitize_probability_seed(
                seed_values, cm.num_states, maximize
            )
            perf.incr("vi.probability.warm_solves")
        else:
            perf.incr("vi.probability.cold_solves")
        if supports_batching(cm):
            sets = qualitative_context(cm, goal, avoid, maximize)
        else:
            sets = precompute.qualitative(
                cm, goal_mask, avoid_mask, maximize
            )
        solution = interval.solve_probability_interval(
            cm, zero=sets.zero, one=sets.one, maximize=maximize,
            epsilon=epsilon, max_iterations=max_iterations, seed=seed,
        )
        results.append(compiled._probability_result(
            cm, solution, goal_mask | avoid_mask, maximize
        ))
    return results

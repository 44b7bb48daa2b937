"""Host speed: a fixed reference kernel timed alongside the workload.

The benchmark runs on a shared host whose speed drifts by tens of
percent over minutes as other tenants come and go.  A run's own
repetitions cannot average that drift away, because it lasts longer
than a run.  So every run also times this kernel, interleaved with its
units, and the time metrics are reported at a fixed *reference speed*:
a measured time is multiplied by ``NOMINAL_S / kernel time`` (a rate
divided by it).  On a host as fast as the one the nominal was taken on
the reported value equals the measured one; the run's record keeps the
factors, and every batch unit's measured times.

The kernel does not call the program, so a faster program still reads
faster.  It mixes the kinds of work the program does: interpreter work
on dicts, tuples and a deque (the scheduler and simulator), many small
numpy calls and model-sized array operations (model construction), and
a sparse build with matrix-vector sweeps and a small dense solve
(model checking).
"""

from __future__ import annotations

import statistics
import time
from collections import deque

import numpy as np

#: Median kernel time in seconds on an idle 2-core Intel Xeon host
#: (thread CPU time and wall time agree there).
NOMINAL_S = 0.007


class _Inputs:
    """The kernel's fixed inputs, built once per process."""

    def __init__(self) -> None:
        from scipy import sparse

        rng = np.random.default_rng(12345)
        self.w, self.h = 40, 20
        self.blocked = {(int(x), int(y)) for x, y in
                        rng.integers(0, (40, 20), size=(120, 2))}
        self.blocked.discard((0, 0))
        self.blocked.discard((39, 19))
        # A routing model's size: ~500 states, ~7k choices, ~18k edges.
        self.values = rng.random(18_000)
        self.keys = rng.integers(0, 7_000, size=18_000)
        self.legs = [rng.random(40) for _ in range(8)]
        n, nnz = 7_000, 18_000
        self.rows = rng.integers(0, n, size=nnz)
        self.cols = rng.integers(0, n, size=nnz)
        self.probs = rng.random(nnz)
        self.dense = rng.random((60, 60)) + 60.0 * np.eye(60)
        self.rhs = rng.random(60)
        self.sparse = sparse


_INPUTS: _Inputs | None = None


def kernel() -> float:
    """One fixed unit of reference work; returns a checksum."""
    global _INPUTS
    if _INPUTS is None:
        _INPUTS = _Inputs()
    inp = _INPUTS

    # Interpreter: breadth-first distances over a blocked grid.
    total = 0
    for start in ((0, 0), (inp.w - 1, inp.h - 1)):
        dist = {start: 0}
        frontier = deque([start])
        while frontier:
            x, y = frontier.popleft()
            d = dist[(x, y)] + 1
            for nxt in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                if (0 <= nxt[0] < inp.w and 0 <= nxt[1] < inp.h
                        and nxt not in inp.blocked and nxt not in dist):
                    dist[nxt] = d
                    frontier.append(nxt)
        total += sum(dist.values())

    # Many small array calls, where numpy's call overhead dominates.
    for _ in range(60):
        stacked = np.stack(inp.legs)
        total += float(np.full(40, 0.5).dot(stacked.max(axis=0)))

    # Model-sized arrays: sort, group and gather.
    order = np.argsort(inp.keys, kind="stable")
    keys = inp.keys[order]
    vals = inp.values[order]
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    sums = np.add.reduceat(vals, starts)
    spread = vals - sums[np.searchsorted(keys[starts], keys)]
    total += float(np.abs(spread).sum())

    # Sparse model build, value-iteration sweeps and a small dense solve.
    n = inp.keys.max() + 1
    matrix = inp.sparse.csr_matrix((inp.probs, (inp.rows, inp.cols)),
                                   shape=(n, n))
    matrix.sort_indices()
    x = np.zeros(n)
    for _ in range(40):
        x = np.maximum(inp.values[:n], 0.5 * (matrix @ x))
    total += float(np.linalg.solve(inp.dense, inp.rhs).sum())
    return total + float(x.sum())


class HostSpeed:
    """Kernel timings of one run and the speed factors they give.

    ``sample`` runs the kernel and records its thread CPU time and wall
    time.  A factor is the median kernel time over the nominal, above 1
    on a host slower than the reference one: :meth:`factor` over the
    whole run, or over the samples from index ``start`` on, which the
    workloads take just before and just after one unit of work, so that
    a burst of host slowness a few seconds long is charged to the units
    it slowed; or, by :meth:`factor_nearest`, over the samples nearest
    in time to a moment, for work that ran in other threads.
    """

    def __init__(self) -> None:
        self.cpu_s: list[float] = []
        self.wall_s: list[float] = []
        #: ``time.perf_counter()`` at the start of every sample.
        self.at: list[float] = []

    def warm_up(self, n: int = 5) -> None:
        for _ in range(n):
            kernel()

    def sample(self, n: int = 1) -> int:
        """Time the kernel ``n`` times; returns the index of the first."""
        first = len(self.cpu_s)
        for _ in range(n):
            c0, w0 = time.thread_time(), time.perf_counter()
            self.at.append(w0)
            kernel()
            self.wall_s.append(time.perf_counter() - w0)
            self.cpu_s.append(time.thread_time() - c0)
        return first

    def factor(self, clock: str = "cpu", start: int = 0) -> float:
        samples = (self.cpu_s if clock == "cpu" else self.wall_s)[start:]
        if not samples:
            raise RuntimeError("host speed was never sampled")
        return statistics.median(samples) / NOMINAL_S

    def factor_nearest(self, when: float, k: int,
                       clock: str = "cpu") -> float:
        """Factor of the ``k`` samples taken nearest in time to ``when``
        (a ``perf_counter`` time)."""
        samples = self.cpu_s if clock == "cpu" else self.wall_s
        if not samples:
            raise RuntimeError("host speed was never sampled")
        nearest = sorted(zip(self.at, samples),
                         key=lambda pair: abs(pair[0] - when))[:k]
        return statistics.median(t for _, t in nearest) / NOMINAL_S

    def summary(self) -> dict:
        return {
            "nominal_s": NOMINAL_S,
            "samples": len(self.cpu_s),
            "cpu_factor": self.factor("cpu"),
            "wall_factor": self.factor("wall"),
        }

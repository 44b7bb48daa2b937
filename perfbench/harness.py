"""Helpers shared by the workloads: percentiles, spans, schedules,
cache isolation, trace digests and the provenance envelope.

Nothing here imports :mod:`repro` at module level, so the helpers can be
tested (and the probe child can start) without paying the package import.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

#: A percentile is reported only when at least this many samples lie
#: strictly beyond it.
MIN_BEYOND = 10


# -- percentiles -------------------------------------------------------------


def percentile(samples, q: float, min_beyond: int = MIN_BEYOND):
    """Nearest-rank ``q``-quantile of ``samples`` and the sample count.

    Returns ``(value, n)``; ``value`` is ``None`` when fewer than
    ``min_beyond`` samples lie beyond the quantile's rank (a p99 needs
    1000 samples, a p90 100, a median 20), so a thin tail is never
    reported as a percentile.
    """
    n = len(samples)
    if n == 0 or not 0.0 < q < 1.0:
        return None, n
    rank = max(1, math.ceil(q * n))
    if n - rank < min_beyond:
        return None, n
    return sorted(samples)[rank - 1], n


def median_rate(samples: dict, weights: dict) -> float:
    """Units per second over a fixed mix, each kind at its median time.

    ``samples`` maps a kind of unit to its measured seconds, ``weights``
    says how many units of each kind the mix holds; kinds without samples
    drop out.  A burst of host slowness that hits a minority of one kind's
    units does not move its median.
    """
    kinds = [k for k in weights if samples.get(k)]
    if not kinds:
        return 0.0
    busy = sum(weights[k] * statistics.median(samples[k]) for k in kinds)
    return sum(weights[k] for k in kinds) / busy


# -- spans -------------------------------------------------------------------


@dataclass
class Span:
    """One timed call: name, [start, end] on ``perf_counter``, parent id."""

    id: int
    name: str
    start: float
    end: float | None = None
    parent: int | None = None
    attrs: dict = field(default_factory=dict)


class SpanRecorder:
    """In-memory span store with a per-thread stack for parent links.

    Spans are only kept in memory; the benchmark reduces them to
    per-layer self-times when the run ends.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, **attrs) -> Span:
        stack = self._stack()
        with self._lock:
            span = Span(len(self.spans), name, time.perf_counter(),
                        parent=stack[-1] if stack else None, attrs=attrs)
            self.spans.append(span)
        stack.append(span.id)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == span.id:
            stack.pop()

    def add(self, name: str, start: float, end: float,
            parent: int | None = None, **attrs) -> Span:
        """Record a finished span whose interval is already known."""
        with self._lock:
            span = Span(len(self.spans), name, start, end, parent, attrs)
            self.spans.append(span)
        return span


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> self time: its duration minus the part of its interval
    that its child spans cover (children clipped to the parent)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None and span.end is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = {}
    for span in spans:
        if span.end is None:
            continue
        clipped = [
            (max(s, span.start), min(e, span.end))
            for s, e in children.get(span.id, ())
            if min(e, span.end) > max(s, span.start)
        ]
        out[span.id] = (span.end - span.start) - _covered(clipped)
    return out


# -- open-loop schedule ------------------------------------------------------


@dataclass
class Arrival:
    """One open-loop request: when it was due, when it went out, and what
    the send returned."""

    index: int
    due: float
    sent: float
    result: object


def open_loop(n: int, rate: float, send, emit, start: float,
              clock=time.perf_counter, sleep=time.sleep) -> None:
    """Send ``n`` requests at a fixed ``rate`` per second from ``start``.

    Request ``i`` is due at ``start + i / rate`` whatever happened to
    earlier ones: the generator sleeps until the due time, or sends at
    once when a slow send made it late.  ``emit`` receives an
    :class:`Arrival` per request.
    """
    for i in range(n):
        due = start + i / rate
        delay = due - clock()
        if delay > 0:
            sleep(delay)
        sent = clock()
        emit(Arrival(i, due, sent, send(i)))


def open_loop_latency(due: float, finished: float, sent: float):
    """An open-loop job's latency and the generator's lateness, in ms.

    Latency runs from the job's *due* time, so a generator that fell
    behind (a stall that delayed the send) still charges the wait to the
    job; lateness is how far after its due time the job was sent.
    """
    return (finished - due) * 1e3, max(0.0, sent - due) * 1e3


# -- cache isolation ---------------------------------------------------------


def clear_process_caches() -> None:
    """Empty every process-global synthesis cache and check it is empty.

    The five caches are the shape-action memo and build-template cache in
    ``core.fastmdp``, the batch value memo in ``core.synthesis`` and the
    shared-context and qualitative caches in ``modelcheck.batch``.
    """
    from repro.core import fastmdp, synthesis
    from repro.modelcheck import batch

    fastmdp.clear_shape_action_memo()
    fastmdp.clear_build_template_cache()
    synthesis.clear_batch_value_memo()
    batch.clear_context_cache()
    batch._QUAL_CACHE.clear()
    sizes = {
        "fastmdp._SHAPE_ACTION_MEMO": len(fastmdp._SHAPE_ACTION_MEMO),
        "fastmdp._TEMPLATE_CACHE": len(fastmdp._TEMPLATE_CACHE),
        "synthesis._BATCH_VALUE_MEMO": len(synthesis._BATCH_VALUE_MEMO),
        "batch._CONTEXT_CACHE": len(batch._CONTEXT_CACHE),
        "batch._QUAL_CACHE": len(batch._QUAL_CACHE),
    }
    left = {name: size for name, size in sizes.items() if size}
    if left:
        raise RuntimeError(f"caches not empty after clearing: {left}")


# -- outputs -----------------------------------------------------------------


def trace_digest(trace) -> str:
    """A stable digest of an ExecutionTrace's routed frames."""
    hasher = hashlib.sha256()
    for frame in trace.frames:
        hasher.update(
            repr((frame.cycle, frame.droplets, frame.moving)).encode()
        )
    return hasher.hexdigest()[:16]


# -- provenance --------------------------------------------------------------


def _commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _src_digest(root: Path) -> str:
    """Content hash of ``src/``: identifies the code when there is no git."""
    hasher = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        hasher.update(str(path.relative_to(root)).encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(root: Path, workload: str, seed: int, cache: str) -> dict:
    """The envelope every result carries: code, host, versions, inputs."""
    import numpy
    import scipy

    return {
        "commit": _commit(root),
        "src_digest": _src_digest(root),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "bytecode_cache": not os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "workload": workload,
        "seed": seed,
        "cache": cache,
    }

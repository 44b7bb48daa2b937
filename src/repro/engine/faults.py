"""Worker-failure taxonomy for the synthesis engine.

The :class:`~repro.engine.pool.SynthesisEngine` runs presynthesis waves on
a ``ProcessPoolExecutor``; everything that can go wrong there falls into
one of three buckets:

* **pool** — the executor itself broke (``BrokenProcessPool``: a worker
  was OOM-killed, segfaulted, or died mid-pickle).  The pool is unusable
  and every running wave fails at once.  Recovery: rebuild the executor
  with capped exponential backoff, up to a rebuild budget; past the budget
  the engine *degrades permanently* to inline synthesis.
* **transient** — an individual future failed for an infrastructure
  reason (cancelled, timed out, a pipe error) while the executor stayed
  alive.
* **payload** — the worker ran our code and it raised.  The failure is
  deterministic — rerunning the identical payload reproduces it.

Transient and payload failures are counted and the caller falls back to
synchronous synthesis (which will surface a payload bug where it can be
debugged).  The classification is intentionally conservative: anything
unrecognized is treated as a payload error.
"""

from __future__ import annotations

from concurrent.futures import BrokenExecutor, CancelledError, TimeoutError
from enum import Enum


class FaultKind(Enum):
    """What went wrong with a wave (drives the recovery action)."""

    #: The executor broke (worker killed / died): rebuild.
    POOL = "pool"
    #: Per-future infrastructure failure on a live pool.
    TRANSIENT = "transient"
    #: Deterministic error raised by the synthesis payload.
    PAYLOAD = "payload"


def classify_failure(exc: BaseException) -> FaultKind:
    """Map an exception raised by ``Future.result()`` to a fault kind."""
    if isinstance(exc, BrokenExecutor):
        return FaultKind.POOL
    if isinstance(exc, (CancelledError, TimeoutError, OSError)):
        return FaultKind.TRANSIENT
    return FaultKind.PAYLOAD

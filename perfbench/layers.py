"""Instrumentation from outside: wrappers around the layers' public calls.

Two kinds of wrapper are patched onto :mod:`repro` classes and modules
from here; nothing under ``src/`` is edited.

* **Probes** are always installed and cost one clock read per call: the
  controlling thread's CPU clock at the start of every
  ``HybridScheduler.plan_cycle`` inside a ``MedaSimulator.run`` (so a
  control cycle is the CPU time from one plan to the next, covering plan
  and simulator step; waits for the interpreter lock held by a concurrent
  job are left out, the serve latency carries them), and the calling
  thread's CPU time in every ``AdaptiveRouter.plan`` the strategy library
  could not answer (a routing job the controller had to wait for).
* **Spans** are installed only around traced executions.  Each records
  name, start, end and parent in a :class:`~harness.SpanRecorder`; the
  layer of a span is fixed by :data:`LAYER_OF`.  A layer's self time is
  its spans' durations minus their child spans.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import threading
import time
from collections import defaultdict

from harness import SpanRecorder, self_times

#: Span name -> the ``src/repro`` layer its self time is charged to.
#: Root spans (``assay``, ``serve.job``) map to ``None``: their self time
#: is what no layer accounts for.
LAYER_OF = {
    "assay": None,
    "serve.job": None,
    "bioassay.plan": "bioassay",
    "biochip.sample": "biochip",
    "biochip.sim": "biochip",
    "scheduler.init": "core.scheduler",
    "scheduler.plan_cycle": "core.scheduler",
    "router.plan": "core.baseline",
    "library.get": "core.strategy",
    "synthesis": "core.synthesis",
    "synthesis.construct": "core.fastmdp",
    "synthesis.solve": "modelcheck",
    "engine.take": "engine",
    "engine.submit": "engine",
    "engine.batch": "engine",
    "store.get": "engine.store",
    "store.put": "engine.store",
    "reconfig.init": "reconfig",
    "reconfig.update": "reconfig",
    "reconfig.remap": "reconfig",
    "serve.lateness": "serve",
    "serve.http": "serve",
    "serve.queue": "serve",
    "serve.run": "serve",
}

#: The modules each workload family imports to run (setup and import cost).
RUN_PATH_MODULES = {
    "batch": (
        "numpy", "repro.bioassay.library", "repro.bioassay.planner",
        "repro.biochip.chip", "repro.biochip.simulator",
        "repro.biochip.trace", "repro.core.baseline", "repro.core.scheduler",
        "repro.degradation.faults", "repro.reconfig",
    ),
    "serve": ("repro.serve", "repro.engine"),
}


def _patch(patches: list, owner, attr: str, make) -> None:
    """Replace ``owner.attr`` with ``make(original)``; remember the undo."""
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(raw, classmethod):
        new = classmethod(make(raw.__func__))
    else:
        new = make(raw)
    setattr(owner, attr, new)
    patches.append((owner, attr, raw))


def _unpatch(patches: list) -> None:
    while patches:
        owner, attr, raw = patches.pop()
        setattr(owner, attr, raw)


class Instrument:
    """Probe samples for the end-to-end metrics plus optional span tracing."""

    def __init__(self) -> None:
        self.collecting = False
        self.cycle_ms: list[float] = []
        #: One ``(perf_counter at its end, first, end)`` per simulator run:
        #: the slice of ``cycle_ms`` it added.
        self.cycle_runs: list[tuple[float, int, int]] = []
        self.rj_ms: list[float] = []
        self.recorder = SpanRecorder()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._probes: list = []
        self._spans: list = []
        #: perf-counter increments made while spans were on.
        self.perf_delta: dict[str, float] = defaultdict(float)
        self._perf_at_on: dict[str, float] = {}

    # -- probes ------------------------------------------------------------

    def install_probes(self) -> None:
        from repro.biochip.simulator import MedaSimulator
        from repro.core.baseline import AdaptiveRouter
        from repro.core.scheduler import HybridScheduler

        local = self._local

        def sim_run(orig):
            def run(sim, scheduler, *args, **kwargs):
                marks: list[float] = []
                local.marks = marks
                try:
                    return orig(sim, scheduler, *args, **kwargs)
                finally:
                    marks.append(time.thread_time())
                    local.marks = None
                    if self.collecting:
                        cycles = [(b - a) * 1e3 for a, b in zip(marks, marks[1:])]
                        with self._lock:
                            first = len(self.cycle_ms)
                            self.cycle_ms.extend(cycles)
                            self.cycle_runs.append((time.perf_counter(), first,
                                                    len(self.cycle_ms)))
            return run

        def plan_cycle(orig):
            def plan(scheduler, health):
                marks = getattr(local, "marks", None)
                if marks is not None:
                    marks.append(time.thread_time())
                return orig(scheduler, health)
            return plan

        def router_plan(orig):
            # A routing job the strategy library could not answer: the
            # controller waits for a store read or a synthesis.
            def plan(router, job, health):
                hits = router.library.hits
                t0 = time.thread_time()
                try:
                    return orig(router, job, health)
                finally:
                    if self.collecting and router.library.hits == hits:
                        self.rj_ms.append((time.thread_time() - t0) * 1e3)
            return plan

        _patch(self._probes, MedaSimulator, "run", sim_run)
        _patch(self._probes, HybridScheduler, "plan_cycle", plan_cycle)
        _patch(self._probes, AdaptiveRouter, "plan", router_plan)

    def uninstall(self) -> None:
        _unpatch(self._spans)
        _unpatch(self._probes)

    # -- spans -------------------------------------------------------------

    def _span(self, name: str, after=None):
        rec = self.recorder

        def make(orig):
            def wrapper(*args, **kwargs):
                span = rec.begin(name)
                try:
                    result = orig(*args, **kwargs)
                finally:
                    rec.end(span)
                if after is not None:
                    after(span, args, kwargs, result)
                return result
            return wrapper
        return make

    def trace_on(self) -> None:
        """Patch span wrappers around every layer's public calls."""
        from repro import perf
        from repro.bioassay import planner
        from repro.biochip.chip import MedaChip
        from repro.biochip.simulator import MedaSimulator
        from repro.core import baseline
        from repro.core.scheduler import HybridScheduler
        from repro.core.strategy import StrategyLibrary
        from repro.engine.pool import SynthesisEngine
        from repro.engine.store import StrategyStore
        from repro.reconfig.policy import ReconfigPolicy
        from repro.serve import scheduler as serve_scheduler

        rec = self.recorder

        def synthesis_children(span, args, kwargs, result):
            # construction_time/solve_time are the layer split synthesize
            # itself reports; they become children of the synthesis span.
            span.attrs["warm"] = kwargs.get("warm_values") is not None
            mid = span.start + result.construction_time
            rec.add("synthesis.construct", span.start, mid, parent=span.id)
            rec.add("synthesis.solve", mid, mid + result.solve_time,
                    parent=span.id)

        def note_hit(span, args, kwargs, result):
            span.attrs["hit"] = result is not None

        def note_job(span, args, kwargs, result):
            view = kwargs.get("engine")
            span.attrs["job"] = getattr(view, "name", None)

        patches = self._spans
        _patch(patches, planner, "plan", self._span("bioassay.plan"))
        _patch(patches, MedaChip, "sample", self._span("biochip.sample"))
        _patch(patches, MedaSimulator, "run", self._span("biochip.sim"))
        _patch(patches, HybridScheduler, "__init__",
               self._span("scheduler.init"))
        _patch(patches, HybridScheduler, "plan_cycle",
               self._span("scheduler.plan_cycle"))
        _patch(patches, baseline.AdaptiveRouter, "plan",
               self._span("router.plan"))
        _patch(patches, StrategyLibrary, "get",
               self._span("library.get", note_hit))
        _patch(patches, baseline, "synthesize",
               self._span("synthesis", synthesis_children))
        _patch(patches, SynthesisEngine, "take", self._span("engine.take"))
        _patch(patches, SynthesisEngine, "submit", self._span("engine.submit"))
        _patch(patches, SynthesisEngine, "presynthesize_batch",
               self._span("engine.batch"))
        _patch(patches, StrategyStore, "get", self._span("store.get", note_hit))
        _patch(patches, StrategyStore, "put", self._span("store.put"))
        _patch(patches, ReconfigPolicy, "__init__",
               self._span("reconfig.init"))
        _patch(patches, ReconfigPolicy, "update",
               self._span("reconfig.update"))
        _patch(patches, ReconfigPolicy, "remap", self._span("reconfig.remap"))
        _patch(patches, serve_scheduler, "execute_assay",
               self._span("serve.run", note_job))
        self._perf_at_on = perf.snapshot()

    def trace_off(self) -> None:
        from repro import perf

        _unpatch(self._spans)
        for name, value in perf.snapshot().items():
            if isinstance(value, (int, float)) and value == value:
                self.perf_delta[name] += value - self._perf_at_on.get(name, 0)


# -- reductions --------------------------------------------------------------


def layer_breakdown(spans) -> dict:
    """Per span name: calls, total self ms, total duration ms; plus the
    root wall time and the share of it that named layers account for."""
    selfs = self_times(spans)
    by_name: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "self_ms": 0.0, "dur_ms": 0.0}
    )
    root_ms = unattributed_ms = 0.0
    for span in spans:
        if span.end is None:
            continue
        entry = by_name[span.name]
        entry["calls"] += 1
        entry["self_ms"] += selfs[span.id] * 1e3
        entry["dur_ms"] += (span.end - span.start) * 1e3
        if LAYER_OF.get(span.name, "?") is None:
            root_ms += (span.end - span.start) * 1e3
            unattributed_ms += selfs[span.id] * 1e3
    layers: dict[str, float] = defaultdict(float)
    for name, entry in by_name.items():
        layer = LAYER_OF.get(name, "?")
        if layer is not None:
            layers[layer] += entry["self_ms"]
    attributed = 1.0 - unattributed_ms / root_ms if root_ms else 0.0
    return {
        "spans": dict(by_name),
        "layers_self_ms": dict(layers),
        "wall_ms": root_ms,
        "attributed_share": attributed,
    }


def span_attr_ratio(spans, name: str, attr: str) -> tuple[float, int]:
    """Share of ``name`` spans whose ``attr`` is truthy, with the base."""
    marked = [s.attrs.get(attr, False) for s in spans if s.name == name]
    return (sum(marked) / len(marked) if marked else 0.0), len(marked)


def import_times(root, family: str) -> dict[str, float]:
    """Self import time in ms per package family, via ``-X importtime``.

    Runs a fresh interpreter that imports the workload's run path and
    sums each module's *self* time by its top-level package.
    """
    code = "import " + ", ".join(RUN_PATH_MODULES[family])
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", code],
        cwd=root, env=child_env(root), capture_output=True, text=True,
        timeout=120, check=True,
    )
    totals: dict[str, float] = defaultdict(float)
    pattern = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s+(\S+)")
    for line in proc.stderr.splitlines():
        match = pattern.match(line.strip())
        if match:
            package = match.group(3).split(".")[0]
            totals[package] += int(match.group(1)) / 1e3
    return {
        "numpy": totals["numpy"],
        "scipy": totals["scipy"],
        "networkx": totals["networkx"],
        "repro": totals["repro"],
        "total": sum(totals.values()),
    }


def child_env(root) -> dict:
    """This process's environment with ``src/`` on ``PYTHONPATH``."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env

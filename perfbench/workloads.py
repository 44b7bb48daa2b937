"""The workloads: inputs from the seed, execution, correctness checks.

All run on the 60x30 chip.  The program receives only generated inputs
(bioassay names, chip seeds, fault plans, job specs); the workload seed
never reaches it directly.

* ``suite-cold`` — the six evaluation assays, each on a fresh chip with
  the process caches emptied first (the serial ``repro run`` path).
* ``chip-lifetime`` — one chip ages through back-to-back serial-dilution
  runs with warm caches, one router (and strategy library) for its life,
  ``ReconfigPolicy`` on and wear-levelled re-placement between runs (the
  ``repro run --runs N --reconfig --wear-level`` path).  A dead-cluster or
  dead-column fault trips partway, so later runs quarantine and remap.
* ``serve-mix`` — an open loop of job arrivals at a fixed rate against a
  live ``ServeService`` with the in-process engine; its traced run adds a
  pass with a two-worker engine pool.
"""

from __future__ import annotations

import math
import queue
import threading
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np

from harness import (
    clear_process_caches,
    open_loop,
    open_loop_latency,
    trace_digest,
)

WIDTH, HEIGHT = 60, 30
SUITE = ("master-mix", "cep", "serial-dilution", "covid-rat", "covid-pcr",
         "nuip")
MAX_CYCLES = 800

#: chip-lifetime: runs per chip, the actuation count at which the fault
#: region dies, and how far below it every MC starts (so the fault trips
#: a few runs into the lifetime).
LIFETIME_RUNS = 12
FAIL_AT = 1000.0
PREWEAR_MARGIN = 200.0

#: The warm-up unit's input stream is the workload's seed plus this.
WARM_UP_SEED = 1_000_003

#: serve: arrivals per second, and one fresh-chip job per block of 16.
SERVE_RATE = 8.0
FRESH_EVERY = 16
#: Host-speed kernel samples after every batch unit, and before and
#: after each serve pass; during a pass the service is polled for idle
#: time every ``SERVE_HOST_POLL_S`` and sampled when the next arrival is
#: more than ``SERVE_IDLE_GAP_S`` away.
HOST_SAMPLES = 2
SERVE_HOST_SAMPLES = 20
SERVE_HOST_POLL_S = 0.1
SERVE_IDLE_GAP_S = 0.03


def _hot_specs():
    """The four hot specs of ``benchmarks/bench_serve.py``, on 60x30."""
    from repro.serve import AssaySpec

    return (
        AssaySpec(bioassay="master-mix", width=WIDTH, height=HEIGHT, seed=3,
                  max_cycles=400),
        AssaySpec(bioassay="serial-dilution", width=WIDTH, height=HEIGHT,
                  seed=5, max_cycles=400),
        AssaySpec(bioassay="covid-rat", width=WIDTH, height=HEIGHT, seed=11,
                  max_cycles=800),
        AssaySpec(bioassay="master-mix", width=WIDTH, height=HEIGHT, seed=13,
                  max_cycles=400),
    )


# -- batch workloads -----------------------------------------------------------


class _Stream:
    """A deterministic sequence of units; ``step`` executes the next one.

    ``block`` is the number of units whose routing quality is reported
    (``sim_cycles.mean``): always the same inputs for a seed, whatever
    the host speed.
    """

    block = 1

    def __init__(self, seed: int, inst) -> None:
        self.inst = inst
        self.done = 0

    def _execute(self, chip, scheduler, sim_seed: int):
        from repro.biochip.simulator import MedaSimulator
        from repro.biochip.trace import ExecutionTrace

        trace = ExecutionTrace()
        sim = MedaSimulator(chip, np.random.default_rng(sim_seed), trace=trace)
        result = sim.run(scheduler, max_cycles=MAX_CYCLES)
        return result, trace


class SuiteStream(_Stream):
    """Pass after pass over the six assays, fresh chip seeds each pass."""

    block = len(SUITE)

    def __init__(self, seed: int, inst) -> None:
        super().__init__(seed, inst)
        self._rng = np.random.default_rng(seed)
        self._seeds: list[int] = []

    def step(self, traced: bool, cache: str = "cold") -> dict:
        from repro.bioassay import planner
        from repro.bioassay.library import ALL_BIOASSAYS
        from repro.biochip.chip import MedaChip
        from repro.core.baseline import AdaptiveRouter
        from repro.core.scheduler import HybridScheduler

        index = self.done
        if index >= len(self._seeds):
            self._seeds.extend(
                int(s) for s in self._rng.integers(0, 2**31, size=len(SUITE))
            )
        name, chip_seed = SUITE[index % len(SUITE)], self._seeds[index]
        if cache == "cold":
            clear_process_caches()
        rec = self.inst.recorder
        t0, c0 = time.perf_counter(), time.thread_time()
        root = rec.begin("assay") if traced else None
        graph = planner.plan(ALL_BIOASSAYS[name](), WIDTH, HEIGHT)
        chip = MedaChip.sample(WIDTH, HEIGHT, np.random.default_rng(chip_seed))
        scheduler = HybridScheduler(graph, AdaptiveRouter(), WIDTH, HEIGHT)
        result, trace = self._execute(chip, scheduler, chip_seed + 1)
        if root is not None:
            rec.end(root)
        cpu = time.thread_time() - c0
        wall = time.perf_counter() - t0
        self.done += 1
        return {
            "unit": index, "kind": name, "chip_seed": chip_seed,
            "cache": cache, "success": bool(result.success),
            "failure": result.failure, "cycles": int(result.cycles),
            "remaps": 0, "wall_s": wall, "cpu_s": cpu,
            "digest": trace_digest(trace),
        }


class LifetimeStream(_Stream):
    """Lifetime after lifetime of back-to-back serial-dilution runs.

    Lifetime ``k`` samples its chip from a seed drawn from the workload
    seed and alternates the fault family (dead cluster on even ``k``,
    dead column on odd ``k``), aimed at the first dilution slot.
    """

    block = LIFETIME_RUNS

    def __init__(self, seed: int, inst) -> None:
        super().__init__(seed, inst)
        self._rng = np.random.default_rng(seed)
        self._lifetime = -1
        self._run = LIFETIME_RUNS

    def _new_lifetime(self) -> None:
        from repro.bioassay import planner
        from repro.bioassay.library import ALL_BIOASSAYS
        from repro.bioassay.ops import MOType
        from repro.biochip.chip import MedaChip
        from repro.core.baseline import AdaptiveRouter
        from repro.degradation.faults import dead_cluster_plan, dead_column_plan

        self._lifetime += 1
        self._run = 0
        self.chip_seed = int(self._rng.integers(0, 2**31))
        self.base = ALL_BIOASSAYS["serial-dilution"]()
        self.graph = planner.plan(self.base, WIDTH, HEIGHT)
        slot = next(mo for mo in self.graph.mos
                    if mo.type in (MOType.MIX, MOType.DLT)).locs[0]
        if self._lifetime % 2 == 0:
            self.faults = dead_cluster_plan(WIDTH, HEIGHT, [slot],
                                            fail_at=FAIL_AT)
        else:
            self.faults = dead_column_plan(WIDTH, HEIGHT,
                                           column=int(slot[0]) - 2,
                                           fail_at=FAIL_AT)
        # The slow-degrading recipe of benchmarks/bench_reconfig.py: health
        # stays near-perfect except where the sudden fault strikes.
        self.chip = MedaChip.sample(
            WIDTH, HEIGHT, np.random.default_rng(self.chip_seed),
            tau_range=(0.95, 0.99), c_range=(5000.0, 9000.0),
            fault_plan=self.faults,
        )
        self.chip.actuations += FAIL_AT - PREWEAR_MARGIN
        self.router = AdaptiveRouter()

    def step(self, traced: bool, cache: str = "warm") -> dict:
        from repro.bioassay import planner
        from repro.core.scheduler import HybridScheduler
        from repro.reconfig import ReconfigPolicy

        if self._run >= LIFETIME_RUNS:
            self._new_lifetime()
        index, run = self.done, self._run
        chip = self.chip
        dead_before = bool(self.faults.failed_mask(chip.actuations).any())
        rec = self.inst.recorder
        t0, c0 = time.perf_counter(), time.thread_time()
        root = rec.begin("assay") if traced else None
        if run:
            # Re-place against the wear so far (repro run --wear-level).
            self.graph = planner.plan(self.base, WIDTH, HEIGHT,
                                      wear=chip.actuations.copy())
        policy = ReconfigPolicy(WIDTH, HEIGHT, wear=chip.actuations.copy())
        scheduler = HybridScheduler(self.graph, self.router, WIDTH, HEIGHT,
                                    reconfig=policy)
        result, trace = self._execute(chip, scheduler,
                                      self.chip_seed + 1 + run)
        if root is not None:
            rec.end(root)
        cpu = time.thread_time() - c0
        wall = time.perf_counter() - t0
        self.done += 1
        self._run += 1
        return {
            "unit": index, "kind": f"run-{run}", "lifetime": self._lifetime,
            "run": run,
            "chip_seed": self.chip_seed, "cache": cache,
            "success": bool(result.success), "failure": result.failure,
            "cycles": int(result.cycles), "remaps": int(scheduler.remaps),
            "dead_before": dead_before, "wall_s": wall, "cpu_s": cpu,
            "digest": trace_digest(trace),
        }


STREAMS = {"suite-cold": SuiteStream, "chip-lifetime": LifetimeStream}


def _lifetime_failures(records: list[dict]) -> list[str]:
    """Each whole lifetime must have remapped once its silicon died."""
    problems = []
    lifetimes: dict[int, list[dict]] = {}
    for record in records:
        lifetimes.setdefault(record["lifetime"], []).append(record)
    for k, runs in lifetimes.items():
        if len(runs) < LIFETIME_RUNS:
            continue
        if not any(r["dead_before"] for r in runs):
            problems.append(f"lifetime {k}: the fault never tripped")
        elif not any(r["dead_before"] and r["remaps"] for r in runs):
            problems.append(f"lifetime {k}: dead silicon but no remap")
    return problems


def run_batch(name: str, seed: int, seconds: float, traced: bool,
              inst, host) -> dict:
    """Run a batch workload for ``seconds`` (at least one whole block).

    Untraced: the end-to-end measurement.  Traced: every unit runs twice
    on identical inputs, once untraced and once traced (alternating which
    goes first), so tracing overhead and output identity are measured on
    the same work; only the traced copies contribute spans.

    One unmeasured unit of another input stream goes first, so the
    measured units find the program's lazy imports done.  In an untraced
    run ``host`` (a :class:`hostspeed.HostSpeed`) times its kernel before
    the first unit and after every unit; each record carries the CPU-time
    factor of the samples on both sides of it (``host_factor``) and the
    slices of ``inst.cycle_ms`` and ``inst.rj_ms`` it added.
    """
    make = STREAMS[name]
    cache = "cold" if name == "suite-cold" else "warm"
    records: list[dict] = []
    traced_records: list[dict] = []
    problems: list[str] = []
    t_warm = time.perf_counter()
    make(seed + WARM_UP_SEED, inst).step(False, cache)
    host.warm_up()
    warm_up_s = time.perf_counter() - t_warm
    streams = [make(seed, inst)] + ([make(seed, inst)] if traced else [])
    block = streams[0].block
    inst.collecting = not traced
    mark = host.sample(HOST_SAMPLES)
    t_start = time.perf_counter()
    while (time.perf_counter() - t_start < seconds
           or len(records) < block):
        if not traced:
            cycles, jobs = len(inst.cycle_ms), len(inst.rj_ms)
            record = streams[0].step(False, cache)
            after = host.sample(HOST_SAMPLES)
            record["host_factor"] = host.factor("cpu", start=mark)
            record["cycle_ms_at"] = (cycles, len(inst.cycle_ms))
            record["rj_ms_at"] = (jobs, len(inst.rj_ms))
            records.append(record)
            mark = after
            continue
        order = [(0, False), (1, True)]
        if len(records) % 2:
            order.reverse()
        pair = {}
        for idx, on in order:
            if on:
                inst.trace_on()
            try:
                pair[on] = streams[idx].step(on, cache)
            finally:
                if on:
                    inst.trace_off()
        records.append(pair[False])
        traced_records.append(pair[True])
        if pair[False]["digest"] != pair[True]["digest"]:
            problems.append(f"unit {pair[False]['unit']}: traced and "
                            f"untraced traces differ")
    loop_s = time.perf_counter() - t_start
    inst.collecting = False

    t_checks = time.perf_counter()
    for record in records + traced_records:
        if not record["success"]:
            problems.append(f"unit {record['unit']} failed: "
                            f"{record['failure']}")
    if name == "suite-cold":
        # Caches must not change outcomes: rerun the first pass warm.
        rerun = make(seed, inst)
        for record in records[:block]:
            again = rerun.step(False, "warm")
            if again["digest"] != record["digest"]:
                problems.append(f"{record['kind']} (chip {record['chip_seed']})"
                                f": warm-cache rerun diverged")
    else:
        problems.extend(_lifetime_failures(records))

    return {
        "records": records,
        "traced_records": traced_records,
        "block": block,
        "problems": problems,
        "phases": {"warm_up_s": warm_up_s, "measure_s": loop_s,
                   "checks_s": time.perf_counter() - t_checks},
    }


# -- serve workloads -----------------------------------------------------------


def serve_jobs(seed: int, n: int):
    """``n`` job specs: blocks of 16 cycling the four hot specs in a
    seeded order, one position per block replaced by a fresh chip seed
    (the block's bioassay rotates through the hot specs)."""
    hot = _hot_specs()
    rng = np.random.default_rng(seed)
    jobs = []
    for block in range(-(-n // FRESH_EVERY)):
        order = rng.permutation(np.arange(FRESH_EVERY) % len(hot))
        fresh_at = int(rng.integers(FRESH_EVERY))
        fresh_seed = int(rng.integers(1_000, 2**31))
        for pos, which in enumerate(order):
            spec = hot[int(which)]
            if pos == fresh_at:
                spec = replace(hot[block % len(hot)], seed=fresh_seed)
            jobs.append(spec)
    return jobs[:n]


def _serve_pass(jobs, engine_workers: int, traced: bool, inst,
                store_path: Path, host) -> dict:
    """One open-loop pass against a fresh service; returns job documents.

    ``host`` times its kernel before the service starts, after the last
    job finished, and in between whenever every job that has arrived is
    done and the next is not due for ``SERVE_IDLE_GAP_S``.  Timed beside
    running jobs, the kernel would slow with them and cancel part of any
    change in their speed; timed only while the service is idle, it
    neither slows them nor is slowed by them.
    """
    from repro.serve import ServeClient, ServeService

    t_pass = time.perf_counter()
    clear_process_caches()
    host.warm_up()
    host.sample(SERVE_HOST_SAMPLES)
    service = ServeService(
        port=0, serve_workers=2, engine_workers=engine_workers,
        store_path=store_path, keep_traces=True, drain_deadline_s=60.0,
    )
    service.start()
    try:
        client = ServeClient(service.url, timeout=120.0)
        # A resident server has seen its hot specs: prime the store once.
        for spec in _hot_specs():
            client.wait(client.submit(spec), timeout=120.0)
        if traced:
            inst.trace_on()
        inst.collecting = not traced
        handoff: queue.Queue = queue.Queue()
        docs: dict[int, dict] = {}
        races = [0]
        errors: list[BaseException] = []
        # perf_counter is the span clock; job documents carry wall time.
        wall_offset = time.time() - time.perf_counter()
        start = time.perf_counter() + 0.05

        def generate() -> None:
            post = ServeClient(service.url, timeout=120.0)
            try:
                open_loop(len(jobs), SERVE_RATE,
                          lambda i: post.submit(jobs[i]), handoff.put, start)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)
            finally:
                handoff.put(None)

        def collect() -> None:
            wait = ServeClient(service.url, timeout=120.0)
            try:
                while (item := handoff.get()) is not None:
                    doc = wait.wait(item.result, timeout=120.0)
                    # The serve layer marks a job done before it stamps
                    # finished_at; re-read until the stamp is there.
                    while doc["state"] == "done" and "finished_at" not in doc:
                        races[0] += 1
                        time.sleep(0.001)
                        doc = wait.job(item.result)
                    doc["_due"], doc["_sent"] = item.due, item.sent
                    docs[item.index] = doc
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)

        def idle_for(now: float) -> float:
            """Seconds to the next arrival if every arrived job is done."""
            arrived = min(len(jobs), math.floor((now - start) * SERVE_RATE)
                          + 1)
            if arrived < 0 or arrived >= len(jobs) or len(docs) < arrived:
                return 0.0
            return start + arrived / SERVE_RATE - now

        threads = [threading.Thread(target=generate),
                   threading.Thread(target=collect)]
        for thread in threads:
            thread.start()
        while threads[-1].is_alive():
            if idle_for(time.perf_counter()) > SERVE_IDLE_GAP_S:
                host.sample()
            threads[-1].join(SERVE_HOST_POLL_S)
        for thread in threads:
            thread.join()
        inst.collecting = False
        host.sample(SERVE_HOST_SAMPLES)
        if traced:
            inst.trace_off()
        if errors:
            raise errors[0]
        engine = service.engine.counters()
    finally:
        service.drain(deadline_s=60.0)
    # After the drain every finished job's trace has been handed over.
    for doc in docs.values():
        for key in ("submitted_at", "started_at", "finished_at"):
            if key in doc:
                doc["_" + key] = doc[key] - wall_offset
        trace = service.trace(doc["id"])
        doc["_digest"] = trace_digest(trace) if trace is not None else None
    return {"docs": [docs[i] for i in sorted(docs)], "engine": engine,
            "done_before_finish_stamp": races[0],
            "seconds": time.perf_counter() - t_pass}


def _job_spans(inst, docs) -> None:
    """Give every served job a root span from its due time to its finish,
    with lateness, HTTP and queue-wait children and its run span."""
    rec = inst.recorder
    run_spans = {s.attrs.get("job"): s for s in rec.spans
                 if s.name == "serve.run"}
    for doc in docs:
        if "_finished_at" not in doc:
            continue
        root = rec.add("serve.job", doc["_due"], doc["_finished_at"])
        if doc["_sent"] > doc["_due"]:
            rec.add("serve.lateness", doc["_due"], doc["_sent"],
                    parent=root.id)
        rec.add("serve.http", doc["_sent"], doc["_submitted_at"],
                parent=root.id)
        if "_started_at" in doc:
            rec.add("serve.queue", doc["_submitted_at"], doc["_started_at"],
                    parent=root.id)
        run = run_spans.get(doc["id"])
        if run is not None:
            run.parent = root.id


def run_serve(seed: int, seconds: float, traced: bool, inst,
              workdir: Path, host) -> dict:
    """Open-loop serving for about ``seconds`` with the in-process engine.

    A traced run makes three passes over the same arrivals: untraced,
    traced, and traced again with a two-worker engine pool, whose spans
    go to their own recorder (``pool_inst``).  On a 2-core host the
    pool's end-to-end numbers spread too widely from run to run to gate
    on, so the pool is measured here, layer by layer, not as a workload.
    """
    from layers import Instrument
    from repro.serve.runner import execute_assay

    n = FRESH_EVERY * max(1, round(SERVE_RATE * seconds / FRESH_EVERY))
    jobs = serve_jobs(seed, n)
    passes = {"untraced": (1, False, inst)}
    pool_inst = None
    if traced:
        pool_inst = Instrument()
        passes.update(traced=(1, True, inst), pooled=(2, True, pool_inst))
    results = {}
    for i, (name, (workers, on, pass_inst)) in enumerate(passes.items()):
        store = workdir / f"store-{i}.sqlite"
        results[name] = _serve_pass(jobs, workers, on, pass_inst, store,
                                    host)
        if on:
            _job_spans(pass_inst, results[name]["docs"])

    # Every served trace must equal the solo in-process run of its spec.
    t_checks = time.perf_counter()
    problems: list[str] = []
    references: dict = {}
    for result in results.values():
        for spec, doc in zip(jobs, result["docs"]):
            if doc["state"] != "done":
                problems.append(f"{doc['id']} ended {doc['state']}: "
                                f"{doc.get('error')}")
                continue
            if spec not in references:
                references[spec] = trace_digest(
                    execute_assay(spec, engine=None).trace
                )
            if doc["_digest"] != references[spec]:
                problems.append(f"{doc['id']} ({spec.bioassay}, seed "
                                f"{spec.seed}) diverged from its solo run")
    phases = {f"pass_{name}_s": r["seconds"] for name, r in results.items()}
    phases["checks_s"] = time.perf_counter() - t_checks
    return {"jobs": jobs, "passes": results, "pool_inst": pool_inst,
            "problems": problems, "phases": phases}


def serve_summary(docs: list[dict], jobs, factor=None) -> dict:
    """Latency, lateness, throughput and routing quality of one pass.

    ``run_s`` groups the jobs' run times by kind (each hot spec, and the
    fresh-chip jobs of each bioassay) and ``mix`` counts the kinds in the
    arrival schedule, for :func:`harness.median_rate`.  When ``factor``
    is given, each job's latency and run time are divided by
    ``factor(doc)``, its host factor.
    """
    hot = set(_hot_specs())
    kinds = [spec if spec in hot else f"fresh {spec.bioassay}"
             for spec in jobs]
    done = [(d, kind) for d, kind in zip(docs, kinds) if d["state"] == "done"]
    scale = {d["id"]: factor(d) if factor else 1.0 for d, _ in done}
    latency = [open_loop_latency(d["_due"], d["_finished_at"], d["_sent"])[0]
               / scale[d["id"]] for d, _ in done]
    span_s = (max(d["_finished_at"] for d, _ in done)
              - min(d["_due"] for d in docs)) if done else 0.0
    run_s: dict = {}
    for d, kind in done:
        run_s.setdefault(kind, []).append(
            d["run_ms"] / 1e3 / scale[d["id"]])
    return {
        "attempted": len(docs),
        "done": len(done),
        "latency_ms": latency,
        "lateness_ms": [max(0.0, d["_sent"] - d["_due"]) * 1e3 for d in docs],
        "run_s": run_s,
        "mix": Counter(kinds),
        "jobs_per_s": len(done) / span_s if span_s else 0.0,
        "cycles": [d["result"]["cycles"] for d, _ in done],
    }

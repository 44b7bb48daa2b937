"""The repository's benchmark: one command, three workloads, every metric.

Run from the repository root::

    python3 perfbench/run.py --workload suite-cold --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes a separate traced run and reports the per-layer
metrics.  Both check the program's outputs.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the line before it is the full record (provenance
envelope, sample counts, per-unit results with their cache state, and
the layer breakdown).  The exit code is 0 only when every check passed.
See ``perfbench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

#: One BLAS/OpenMP thread, for this process and every child it starts.
#: On a 2-core host the default OpenBLAS pool contends with the program's
#: own threads and pool workers, and a dense ``np.linalg.solve`` in the
#: certified solver then stalls by several times, at random; measured
#: times would follow the host's other load rather than the code.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

from harness import median_rate, percentile, provenance  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from layers import (  # noqa: E402
    Instrument,
    child_env,
    import_times,
    layer_breakdown,
    span_attr_ratio,
)

WORKLOADS = ("suite-cold", "chip-lifetime", "serve-mix")
SETUP_REPEATS = 5
#: Host-speed kernel samples before and after each set-up probe.
SETUP_HOST_SAMPLES = 4
#: A served job is scaled by this many host-speed samples nearest to it.
SERVE_NEAREST = 8


def family(workload: str) -> str:
    return "serve" if workload == "serve-mix" else "batch"


def measure_setup(workload: str, workdir: Path,
                  host: HostSpeed) -> tuple[float, list[float]]:
    """Median seconds from spawning a fresh interpreter until the run path
    is imported (and, for serving, ``ServeService.start()`` returned).

    One unmeasured spawn first, so every measured one finds the source
    files read (and the bytecode cache written, where Python may write
    one), as a first run in a fresh checkout would not.  ``host`` times
    its kernel just before and just after every spawn, and each sample is
    brought to reference speed by the wall-clock factor of those timings.
    """
    samples = []
    host.warm_up()
    for i in range(SETUP_REPEATS + 1):
        mark = host.sample(SETUP_HOST_SAMPLES)
        argv = [sys.executable, str(HERE / "probe.py"), family(workload)]
        if family(workload) == "serve":
            argv.append(str(workdir / f"setup-{i}.sqlite"))
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(ROOT),
                                stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        host.sample(SETUP_HOST_SAMPLES)
        if i:
            samples.append(elapsed / host.factor("wall", start=mark))
    return statistics.median(samples), samples


def peak_rss_mb() -> float:
    """Peak RSS of this process in MB (the set-up probes, which measure
    start-up rather than the workload, are not counted)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _needs(value, what: str, problems: list[str]):
    """A percentile that failed the reporting rule is a failed run."""
    if value is None:
        problems.append(f"too few samples to report {what}")
        return float("nan")
    return value


def end_to_end(workload: str, out: dict, inst: Instrument, setup_s: float,
               host: HostSpeed, problems: list[str]
               ) -> tuple[dict, int, int, dict]:
    """The ten end-to-end metrics from an untraced run, plus counts.

    Times and rates are reported at the reference host speed of
    :mod:`hostspeed`.  The batch workloads run one thread and are
    measured in its CPU time, every assay's times divided by the
    CPU-time factor of the kernel timings around it.  Serving runs
    several threads and is measured on the wall clock: every job's
    latency and run time are divided by the wall-clock factor of the
    ``SERVE_NEAREST`` kernel timings nearest its finish (taken while the
    service was idle), and every simulator run's control cycles by the
    CPU-time factor of those nearest the run's end; its throughput is
    set by the arrival rate and is not scaled.
    ``setup_s`` comes in already scaled.
    """
    from workloads import serve_summary

    if family(workload) == "serve":
        untraced = out["passes"]["untraced"]
        summary = serve_summary(
            untraced["docs"], out["jobs"],
            lambda doc: host.factor_nearest(doc["_finished_at"],
                                            SERVE_NEAREST, "wall"))
        assays_per_s = median_rate(summary["run_s"], summary["mix"])
        cycle_ms = []
        for end, first, last in inst.cycle_runs:
            run_f = host.factor_nearest(end, SERVE_NEAREST, "cpu")
            cycle_ms.extend(v / run_f for v in inst.cycle_ms[first:last])
        jobs_per_s = summary["jobs_per_s"]
        latency = summary["latency_ms"]
        attempted, done = summary["attempted"], summary["done"]
        sim_cycles = summary["cycles"]
        samples = {"jobs": attempted, "latency": len(latency),
                   "done_before_finish_stamp":
                       untraced["done_before_finish_stamp"]}
    else:
        records = out["records"]
        block = records[: out["block"]]
        attempted = len(records)
        done = sum(r["success"] for r in records)

        def scaled(values, record, key):
            return [v / record["host_factor"]
                    for v in values[slice(*record[key])]]

        times: dict[str, list[float]] = {}
        for record in records:
            if record["success"]:
                times.setdefault(record["kind"], []).append(
                    record["cpu_s"] / record["host_factor"])
        assays_per_s = median_rate(times, {r["kind"]: 1 for r in block})
        cycle_ms = [v for r in records
                    for v in scaled(inst.cycle_ms, r, "cycle_ms_at")]
        # A batch run's jobs are routing jobs: strategy requests the
        # library could not answer, which the controller waits for.
        latency = [v for r in records
                   for v in scaled(inst.rj_ms, r, "rj_ms_at")]
        jobs_per_s = len(latency) / sum(r["cpu_s"] / r["host_factor"]
                                        for r in records)
        sim_cycles = [r["cycles"] for r in block]
        samples = {"assays": attempted, "routing_jobs": len(latency),
                   "sim_cycles_block": len(sim_cycles)}
    cycle_p50, n_cycles = percentile(cycle_ms, 0.5)
    cycle_p99, _ = percentile(cycle_ms, 0.99)
    lat_p50, _ = percentile(latency, 0.5)
    lat_p90, _ = percentile(latency, 0.9)
    samples["cycles"] = n_cycles
    samples["host_speed"] = host.summary()
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "assays_per_s": _metric(assays_per_s, "1/s"),
        "cycle_ms.p50": _metric(_needs(cycle_p50, "cycle_ms.p50", problems),
                                "ms"),
        "cycle_ms.p99": _metric(_needs(cycle_p99, "cycle_ms.p99", problems),
                                "ms"),
        "sim_cycles.mean": _metric(statistics.fmean(sim_cycles), "cycles"),
        "completed_share": _metric(done / attempted, "ratio"),
        "serve.jobs_per_s": _metric(jobs_per_s, "1/s"),
        "serve.latency_ms.p50": _metric(
            _needs(lat_p50, "serve.latency_ms.p50", problems), "ms"),
        "serve.latency_ms.p90": _metric(
            _needs(lat_p90, "serve.latency_ms.p90", problems), "ms"),
        "peak_rss_mb": _metric(peak_rss_mb(), "MB"),
    }
    return metrics, attempted, attempted - done, samples


class _Layers:
    """Span and counter reductions of one traced pass."""

    def __init__(self, inst: Instrument, units: int,
                 problems: list[str]) -> None:
        self.spans = inst.recorder.spans
        self.breakdown = layer_breakdown(self.spans)
        self.perf = inst.perf_delta
        self.per = 1.0 / units
        attributed = self.breakdown["attributed_share"]
        if attributed < 0.95:
            problems.append(f"layer self-times cover {attributed:.3f} of the "
                            f"traced wall time (< 0.95)")

    def calls(self, name: str) -> float:
        return self.breakdown["spans"].get(name, {}).get("calls", 0) * self.per

    def self_ms(self, *names: str) -> float:
        by = self.breakdown["spans"]
        return sum(by.get(n, {}).get("self_ms", 0.0) for n in names) * self.per

    def dur_ms(self, name: str) -> float:
        return self.breakdown["spans"].get(name, {}).get("dur_ms", 0.0) * self.per

    def delta(self, name: str) -> float:
        return self.perf.get(name, 0.0)

    def per_assay(self) -> dict:
        return {layer: ms * self.per for layer, ms in
                sorted(self.breakdown["layers_self_ms"].items())}


def per_layer(workload: str, out: dict, inst: Instrument,
              problems: list[str]) -> tuple[dict, dict]:
    """The per-layer metrics of a traced run, plus its layer breakdown."""
    from workloads import serve_summary

    serve = family(workload) == "serve"
    pool = None
    if serve:
        traced_docs = out["passes"]["traced"]["docs"]
        units = len(traced_docs)
        traced_s = sum(d.get("run_ms", 0.0) for d in traced_docs)
        untraced_s = sum(d.get("run_ms", 0.0)
                         for d in out["passes"]["untraced"]["docs"])
        # The engine layer is measured on the pass with the process pool.
        pooled = out["passes"]["pooled"]
        engine = pooled["engine"]
        pool = _Layers(out["pool_inst"], len(pooled["docs"]), problems)
        remaps = 0
    else:
        units = len(out["traced_records"])
        traced_s = sum(r["wall_s"] for r in out["traced_records"])
        untraced_s = sum(r["wall_s"] for r in out["records"])
        engine = {"submitted": 0, "hits": 0}
        remaps = sum(r["remaps"] for r in out["traced_records"])
    lay = _Layers(inst, units, problems)
    spans = lay.spans

    library_hit, library_base = span_attr_ratio(spans, "library.get", "hit")
    store_hit, store_base = span_attr_ratio(spans, "store.get", "hit")
    warm_share, synth_base = span_attr_ratio(spans, "synthesis", "warm")
    template_hits = lay.delta("fastmdp.template.hits")
    template_base = template_hits + lay.delta("fastmdp.template.misses")
    solves = sum(lay.delta(f"vi.{kind}.{temp}_solves")
                 for kind in ("reward", "probability")
                 for temp in ("warm", "cold"))
    iterations = lay.delta("vi.reward.iterations") + lay.delta(
        "vi.probability.iterations")
    submitted = engine.get("submitted", 0)
    useful = engine.get("hits", 0) / submitted if submitted else 0.0

    queue_p50 = run_p50 = http_p50 = lateness_max = 0.0
    if serve:
        done = [d for d in traced_docs if d["state"] == "done"]
        queue_p50 = percentile([d["queued_ms"] for d in done], 0.5)[0]
        run_p50 = percentile([d["run_ms"] for d in done], 0.5)[0]
        http = [(d["_finished_at"] - d["_sent"]) * 1e3 - d["queued_ms"]
                - d["run_ms"] for d in done]
        http_p50 = percentile(http, 0.5)[0]
        lateness_max = max(serve_summary(traced_docs, out["jobs"])[
            "lateness_ms"])
        for name, value in (("serve.queue_wait_ms.p50", queue_p50),
                            ("serve.run_ms.p50", run_p50),
                            ("serve.http_ms.p50", http_p50)):
            _needs(value, name, problems)

    imports = import_times(ROOT, family(workload))
    m = _metric
    metrics = {
        "import.numpy_ms": m(imports["numpy"], "ms"),
        "import.scipy_ms": m(imports["scipy"], "ms"),
        "import.networkx_ms": m(imports["networkx"], "ms"),
        "import.repro_self_ms": m(imports["repro"], "ms"),
        "bioassay.plan.calls": m(lay.calls("bioassay.plan"), "1/assay"),
        "bioassay.plan_ms": m(lay.self_ms("bioassay.plan"), "ms/assay"),
        "biochip.sample_ms": m(lay.self_ms("biochip.sample"), "ms/assay"),
        "biochip.sim_self_ms": m(lay.self_ms("biochip.sim"), "ms/assay"),
        "scheduler.cycles": m(lay.calls("scheduler.plan_cycle"), "1/assay"),
        "scheduler.self_ms": m(
            lay.self_ms("scheduler.init", "scheduler.plan_cycle"), "ms/assay"),
        "router.plan.calls": m(lay.calls("router.plan"), "1/assay"),
        "router.library.hit_ratio": m(library_hit, "ratio"),
        "synthesis.calls": m(lay.calls("synthesis"), "1/assay"),
        "synthesis.construct_ms": m(lay.dur_ms("synthesis.construct"),
                                    "ms/assay"),
        "synthesis.solve_ms": m(lay.dur_ms("synthesis.solve"), "ms/assay"),
        "synthesis.warm_share": m(warm_share, "ratio"),
        "fastmdp.builds": m(lay.delta("fastmdp.builds") * lay.per, "1/assay"),
        "fastmdp.template.hit_ratio": m(
            template_hits / template_base if template_base else 0.0, "ratio"),
        "modelcheck.vi_iterations.mean": m(
            iterations / solves if solves else 0.0, "iterations"),
        "modelcheck.warm_rejected": m(
            lay.delta("vi.warm.rejected") * lay.per, "1/assay"),
        "engine.submitted": m(submitted * (pool or lay).per, "1/assay"),
        "engine.speculation.useful_ratio": m(useful, "ratio"),
        "engine.take_ms": m((pool or lay).self_ms("engine.take"), "ms/assay"),
        "store.get.calls": m(lay.calls("store.get"), "1/assay"),
        "store.get_ms": m(lay.self_ms("store.get"), "ms/assay"),
        "store.put_ms": m(lay.self_ms("store.put"), "ms/assay"),
        "store.hit_ratio": m(store_hit, "ratio"),
        "reconfig.update_ms": m(lay.self_ms("reconfig.update"), "ms/assay"),
        "reconfig.remaps": m(remaps * lay.per, "1/assay"),
        "serve.queue_wait_ms.p50": m(queue_p50 or 0.0, "ms"),
        "serve.run_ms.p50": m(run_p50 or 0.0, "ms"),
        "serve.http_ms.p50": m(http_p50 or 0.0, "ms"),
        "serve.generator_lateness_ms.max": m(lateness_max, "ms"),
        "trace.overhead_share": m(
            traced_s / untraced_s if untraced_s else 0.0, "ratio"),
        "trace.attributed_share": m(
            lay.breakdown["attributed_share"], "ratio"),
    }
    detail = {
        "units": units,
        "bases": {
            "router.library.hit_ratio": library_base,
            "store.hit_ratio": store_base,
            "synthesis.warm_share": synth_base,
            "fastmdp.template.hit_ratio": template_base,
            "modelcheck.vi_iterations.mean": solves,
            "engine.speculation.useful_ratio": submitted,
        },
        "engine": engine,
        "imports_ms": imports,
        "layers_self_ms_per_assay": lay.per_assay(),
        "spans": lay.breakdown["spans"],
        "traced_wall_ms": lay.breakdown["wall_ms"],
    }
    if pool is not None:
        summary = serve_summary(out["passes"]["pooled"]["docs"], out["jobs"])
        detail["pooled"] = {
            "layers_self_ms_per_assay": pool.per_assay(),
            "attributed_share": pool.breakdown["attributed_share"],
            "latency_ms.p50": percentile(summary["latency_ms"], 0.5)[0],
            "latency_ms.p90": percentile(summary["latency_ms"], 0.9)[0],
            "assays_per_s": median_rate(summary["run_s"], summary["mix"]),
            "jobs": summary["attempted"],
        }
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} "
              f"is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # A terminated run still drains its service, stops its pool workers
    # and removes its scratch files (the finally blocks below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workdir = HERE / ".work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir: Path) -> int:
    from workloads import run_batch, run_serve

    traced = bool(args.trace)
    setup_s = setup_samples = None
    host = HostSpeed()
    t0 = time.perf_counter()
    if not traced:
        setup_s, setup_samples = measure_setup(args.workload, workdir, host)
    t1 = time.perf_counter()

    inst = Instrument()
    inst.install_probes()
    try:
        if family(args.workload) == "serve":
            out = run_serve(args.seed, args.seconds, traced, inst, workdir,
                            host)
        else:
            out = run_batch(args.workload, args.seed, args.seconds, traced,
                            inst, host)
    finally:
        inst.uninstall()
    phases = {"setup_probes_s": t1 - t0, "workload_s": time.perf_counter() - t1,
              **out["phases"]}
    problems = list(out["problems"])

    if traced:
        metrics, detail = per_layer(args.workload, out, inst, problems)
        if family(args.workload) == "serve":
            docs = [d for name in ("traced", "pooled")
                    for d in out["passes"][name]["docs"]]
            attempted = len(docs)
            failed = sum(d["state"] != "done" for d in docs)
        else:
            attempted = len(out["traced_records"])
            failed = sum(not r["success"] for r in out["traced_records"])
    else:
        metrics, attempted, failed, samples = end_to_end(
            args.workload, out, inst, setup_s, host, problems)
        detail = {"samples": samples, "setup_samples_s": setup_samples}

    if family(args.workload) == "serve":
        units = [
            {"job": d["id"], "state": d["state"],
             "cycles": d.get("result", {}).get("cycles"),
             "digest": d["_digest"], "cache": "warm"}
            for d in out["passes"]["untraced"]["docs"]
        ]
        cache = "warm: process caches emptied, then the store primed " \
                "with the hot specs"
    else:
        units = out["records"] + out["traced_records"]
        cache = units[0]["cache"] if units else "cold"
    record = {
        "provenance": provenance(ROOT, args.workload, args.seed, cache),
        "trace": traced,
        "problems": problems,
        "detail": detail,
        "phases": phases,
        "units": units,
    }
    print(json.dumps({"record": record}, default=str))
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())

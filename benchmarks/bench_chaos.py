"""Chaos bench: whole-bioassay survival under deterministic fault injection.

Executes consecutive runs of the master-mix and cep evaluation bioassays
on a fast-degrading 60x30 chip (the ``--runs N`` CLI shape: chip wear,
engine, and strategy store persist across runs), once fault-free and
serially (the reference sequence), then once per chaos scenario with a
pooled synthesis engine under injection:

* **worker-kills** — workers die mid-payload (``BrokenProcessPool``);
* **payload-errors** — workers raise deterministically;
* **hung-workers** — workers stall, so their waves' members surface as
  ``pending`` misses;
* **store-corruption** — every strategy-store row is garbled on write
  (later runs read the garbled rows back);
* **mixed** — all of the above at lower rates.

Two hard gates (always enforced, they are the PR's contract):

1. **completion probability 1.0** — every chaos run finishes without an
   unhandled exception and reaches the same terminal state as the serial
   reference;
2. **routing identity** — cycles, resyntheses, and the execution-trace
   digest of every chaos run are bit-identical to the serial reference
   (speculation and its failures change latency only, never routing).

A third hard gate guards the bench itself: at least one fault must
actually have been injected, otherwise the sweep exercised nothing.

One soft gate (``--enforce`` makes it fail): chaos-run wall time stays
under ``OVERHEAD_LIMIT``x the serial reference — fault recovery must not
be quadratically expensive.

The injector seed comes from ``REPRO_CHAOS_SEED`` (default 0) so a CI
matrix can sweep seeds.  Results land in ``BENCH_chaos.json`` at the repo
root; the run journal (engine fault/rebuild/degrade events included) is
written to ``benchmarks/out/bench_chaos.journal.jsonl`` for artifact
upload.  Honours ``REPRO_BENCH_SCALE=quick|full``.

Run with ``PYTHONPATH=src python benchmarks/bench_chaos.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import CHIP_HEIGHT, CHIP_WIDTH, OUT_DIR, SCALE, emit, scaled  # noqa: E402

from repro import obs  # noqa: E402
from repro.bioassay.library import EVALUATION_BIOASSAYS  # noqa: E402
from repro.bioassay.planner import plan  # noqa: E402
from repro.biochip.chip import MedaChip  # noqa: E402
from repro.biochip.simulator import MedaSimulator  # noqa: E402
from repro.biochip.trace import ExecutionTrace  # noqa: E402
from repro.core.baseline import AdaptiveRouter  # noqa: E402
from repro.core.scheduler import HybridScheduler  # noqa: E402
from repro.engine import StrategyStore, SynthesisEngine  # noqa: E402
from repro.engine import chaos  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent
JSON_PATH = REPO_ROOT / "BENCH_chaos.json"
JOURNAL_PATH = OUT_DIR / "bench_chaos.journal.jsonl"

BIOASSAYS = ("master-mix", "cep")
CHIP_SEED = 11
MAX_CYCLES = 1200
OVERHEAD_LIMIT = 6.0

#: name -> chaos kwargs.  Probabilities are moderate on purpose: the
#: engine must survive repeated faults, not a single one.
SCENARIOS: dict[str, dict] = {
    "worker-kills": {"kill_p": 0.3},
    "payload-errors": {"raise_p": 0.5},
    "hung-workers": {"delay_p": 0.6, "delay_ms": 1500.0},
    "store-corruption": {"store_p": 1.0},
    "mixed": {"kill_p": 0.15, "raise_p": 0.15, "delay_p": 0.25,
              "delay_ms": 1000.0, "store_p": 0.5},
}


def sample_chip() -> MedaChip:
    # The bench_parallel fast-degrading recipe: health keeps moving, so
    # later runs resynthesize and re-query the store.
    return MedaChip.sample(
        CHIP_WIDTH, CHIP_HEIGHT, np.random.default_rng(CHIP_SEED),
        tau_range=(0.75, 0.90), c_range=(300.0, 800.0),
    )


def trace_digest(trace: ExecutionTrace) -> str:
    """A stable digest of the routed frames (position-exact identity)."""
    hasher = hashlib.sha256()
    for frame in trace.frames:
        hasher.update(
            repr((frame.cycle, frame.droplets, frame.moving)).encode()
        )
    return hasher.hexdigest()[:16]


def execute_sequence(graphs, runs_per_assay: int,
                     engine: SynthesisEngine | None) -> list[dict]:
    """The reference workload: consecutive runs per bioassay, one chip and
    one engine/store per bioassay sequence (chip wear carries over)."""
    outcomes = []
    for name, graph in graphs.items():
        chip = sample_chip()
        for run in range(runs_per_assay):
            router = AdaptiveRouter(engine=engine)
            scheduler = HybridScheduler(graph, router, CHIP_WIDTH, CHIP_HEIGHT)
            trace = ExecutionTrace()
            sim = MedaSimulator(
                chip, np.random.default_rng(CHIP_SEED + 1 + run), trace=trace
            )
            t0 = time.perf_counter()
            if engine is not None and engine.pooled:
                scheduler.presynthesize(chip.health())
            result = sim.run(scheduler, max_cycles=MAX_CYCLES)
            outcomes.append({
                "bioassay": name,
                "run": run + 1,
                "success": bool(result.success),
                "cycles": int(result.cycles),
                "resyntheses": int(result.resyntheses),
                "wall_s": round(time.perf_counter() - t0, 4),
                "digest": trace_digest(trace),
            })
    return outcomes


def run_scenario(graphs, name: str, runs_per_assay: int, seed: int,
                 workers: int, store_dir: Path) -> dict:
    config = chaos.ChaosConfig(seed=seed, **SCENARIOS[name])
    store = None
    if config.store_p:
        store = StrategyStore(store_dir / f"{name}.sqlite")
    engine = SynthesisEngine(workers=workers, store=store)
    obs.journal_event("bench.scenario", name=name, spec=config.to_spec())
    chaos.activate(config)
    try:
        outcomes = execute_sequence(graphs, runs_per_assay, engine)
        crashed = None
    except Exception as exc:  # a crash is exactly what the gate must catch
        outcomes = []
        crashed = repr(exc)
    finally:
        chaos.deactivate()
        engine._kill_worker_processes()  # kill chaos-delayed sleepers
        engine.close()
    return {
        "spec": config.to_spec(),
        "crashed": crashed,
        "degraded": engine.degraded,
        "runs": outcomes,
        "engine": engine.counters(),
    }


def run_bench(seed: int, workers: int) -> dict:
    runs_per_assay = scaled(3, 6)
    graphs = {
        name: plan(EVALUATION_BIOASSAYS[name](), CHIP_WIDTH, CHIP_HEIGHT)
        for name in BIOASSAYS
    }

    serial = execute_sequence(graphs, runs_per_assay, engine=None)

    scenarios: dict[str, dict] = {}
    with tempfile.TemporaryDirectory(prefix="repro-bench-chaos-") as tmp:
        for name in SCENARIOS:
            scenarios[name] = run_scenario(
                graphs, name, runs_per_assay, seed, workers, Path(tmp)
            )

    attempted = completed = 0
    mismatches = []
    injected = 0
    for name, scenario in scenarios.items():
        engine = scenario["engine"]
        injected += engine.get("errors", 0)
        injected += engine.get("store_corrupt", 0)
        attempted += len(serial)
        if scenario["crashed"] is not None:
            mismatches.append(f"{name}: crashed: {scenario['crashed']}")
            continue
        completed += len(scenario["runs"])
        for reference, outcome in zip(serial, scenario["runs"]):
            for field in ("success", "cycles", "resyntheses", "digest"):
                if outcome[field] != reference[field]:
                    mismatches.append(
                        f"{name}/{reference['bioassay']}#{reference['run']}: "
                        f"{field} {outcome[field]!r} != serial "
                        f"{reference[field]!r}"
                    )

    serial_wall = sum(run["wall_s"] for run in serial)
    overhead = max(
        (sum(r["wall_s"] for r in scenario["runs"]) / serial_wall
         if scenario["runs"] else float("inf"))
        for scenario in scenarios.values()
    )
    return {
        "bench": "chaos",
        "bioassays": list(BIOASSAYS),
        "chip": {"width": CHIP_WIDTH, "height": CHIP_HEIGHT},
        "max_cycles": MAX_CYCLES,
        "scale": SCALE,
        "chaos_seed": seed,
        "workers": workers,
        "runs_per_assay": runs_per_assay,
        "serial": serial,
        "scenarios": scenarios,
        "completion_probability": completed / attempted if attempted else 0.0,
        "injected_faults": injected,
        "determinism_ok": not mismatches,
        "mismatches": mismatches,
        "worst_overhead_x": round(overhead, 2),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--seed", type=int,
        default=int(os.environ.get(chaos.ENV_SEED, "0")),
        help="chaos injector seed (default: REPRO_CHAOS_SEED or 0)",
    )
    parser.add_argument(
        "--workers", type=int, default=2,
        help="pool size for the chaos runs (default 2: a pool even on a "
             "single-core runner)",
    )
    parser.add_argument(
        "--enforce", action="store_true",
        help="also fail (exit 1) when the soft overhead gate is missed",
    )
    args = parser.parse_args(argv)

    OUT_DIR.mkdir(exist_ok=True)
    obs.configure(journal=JOURNAL_PATH)
    try:
        report = run_bench(args.seed, args.workers)
    finally:
        obs.shutdown()
    JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")

    lines = [
        f"chaos survival, {'+'.join(report['bioassays'])} on "
        f"{CHIP_WIDTH}x{CHIP_HEIGHT}, {report['runs_per_assay']} runs each, "
        f"chaos seed {report['chaos_seed']}, {report['workers']} workers "
        f"(scale={report['scale']})",
    ]
    for name, scenario in report["scenarios"].items():
        engine = scenario["engine"]
        lines.append(
            f"  {name:16s} completed {len(scenario['runs'])}"
            f"/{len(report['serial'])}"
            f"  faults={engine.get('errors', 0)}"
            f" rebuilds={engine.get('rebuilds', 0)}"
            f" misses={engine.get('misses', 0)}"
            f" store_corrupt={engine.get('store_corrupt', 0)}"
            f" degraded={'yes' if scenario['degraded'] else 'no'}"
        )
    lines += [
        f"  completion probability: {report['completion_probability']:.2f} "
        f"(gate: 1.00)",
        f"  routing identity:       "
        f"{'ok' if report['determinism_ok'] else 'VIOLATED'}",
        f"  injected faults:        {report['injected_faults']}",
        f"  worst overhead:         {report['worst_overhead_x']:.2f}x "
        f"(soft gate {OVERHEAD_LIMIT:.1f}x)",
        f"  wrote {JSON_PATH}",
        f"  journal {JOURNAL_PATH}",
    ]
    emit("bench_chaos", "\n".join(lines))

    hard_failures = []
    if report["completion_probability"] != 1.0:
        hard_failures.append(
            f"completion probability "
            f"{report['completion_probability']:.2f} != 1.0"
        )
    if not report["determinism_ok"]:
        hard_failures.extend(report["mismatches"])
    if report["injected_faults"] == 0:
        hard_failures.append(
            "no faults were injected — the bench exercised nothing"
        )
    for message in hard_failures:
        print(f"FAIL: {message}", file=sys.stderr)
    if hard_failures:
        return 1

    if report["worst_overhead_x"] > OVERHEAD_LIMIT:
        message = (
            f"chaos overhead {report['worst_overhead_x']:.2f}x > "
            f"{OVERHEAD_LIMIT:.1f}x serial"
        )
        print(f"{'FAIL' if args.enforce else 'WARN'}: {message}",
              file=sys.stderr)
        if args.enforce:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Synthesis execution engine: worker pool, presynthesis, persistent store.

See :mod:`repro.engine.pool` for the batched presynthesis engine,
:mod:`repro.engine.store` for the cross-run SQLite strategy cache,
:mod:`repro.engine.faults` for the worker-failure taxonomy, and
:mod:`repro.engine.chaos` for the deterministic fault-injection harness.
"""

from repro.engine.chaos import ChaosConfig, ChaosInjectedError, ChaosInjector
from repro.engine.faults import FaultKind, classify_failure
from repro.engine.pool import SynthesisEngine, TenantView, resolve_workers
from repro.engine.store import StrategyStore, default_store_path

__all__ = [
    "ChaosConfig",
    "ChaosInjectedError",
    "ChaosInjector",
    "FaultKind",
    "SynthesisEngine",
    "StrategyStore",
    "TenantView",
    "classify_failure",
    "default_store_path",
    "resolve_workers",
]

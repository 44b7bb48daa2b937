"""Set-up probe: a fresh interpreter imports a workload's run path.

``python3 perfbench/probe.py batch`` imports the modules a batch workload
runs; ``python3 perfbench/probe.py serve STORE`` also starts a
``ServeService`` on an ephemeral port with its store at ``STORE``.  It
prints ``ready`` once set up (the parent times interpreter start to that
line), then tears down and exits.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import RUN_PATH_MODULES  # noqa: E402


def main(argv: list[str]) -> int:
    family = argv[0]
    for name in RUN_PATH_MODULES[family]:
        importlib.import_module(name)
    if family == "serve":
        from repro.serve import ServeService

        service = ServeService(port=0, store_path=argv[1])
        service.start()
        print("ready", flush=True)
        service.drain(deadline_s=10.0)
    else:
        print("ready", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

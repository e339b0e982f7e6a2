"""Time a fresh interpreter's path to a validated ScenarioConfig.

    python3 benchmarks/probe.py <scenario> <overlay.ini> <seed>

Prints one JSON line of ``time.monotonic()`` readings: at the start of this
script, after importing every fmux layer (numpy and scipy included) and
after ``load_config`` + ``validate``. CLOCK_MONOTONIC is shared by all
processes, so the parent subtracts its own reading taken before the spawn.
"""

import time

started = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import fmux.cli  # noqa: E402,F401

imported = time.monotonic()

from fmux.scenarios import load_config  # noqa: E402

scenario, overlay, seed = sys.argv[1:4]
load_config(scenario, config_path=overlay, seed=int(seed)).validate()
print(json.dumps({"started": started, "imported": imported, "ready": time.monotonic()}))

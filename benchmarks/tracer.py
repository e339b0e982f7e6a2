"""Per-layer tracing from outside the package.

Every public function of each fmux layer module is wrapped wherever the
package binds it (module attributes, including names re-exported with
``from .x import y``), plus ``DiscretizedDensityMatrix.eigenvalues`` and the
``SpectrometerModel`` constructor. A wrapper records calls, total time and
self time: its own duration minus the time spent in nested wrapped calls.
Wrappers are installed only for traced rounds, so untraced rounds run the
unmodified program.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
from time import perf_counter

LAYERS = ("spectral", "spectrometer", "serrodyne", "heralded", "statistics", "losses",
          "scenarios", "cli")


# units of work per call, for rates: pulses simulated or bytes written
WORK = {
    "statistics.monte_carlo_counting": lambda a: a["pulses"],
    "scenarios.simulate_feedforward_stream":
        lambda a: a.get("pulses") or a["cfg"].get("run.stream_pulses"),
    "spectral.write_jsa_text": lambda a: os.path.getsize(a["path"]),
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s, work]
        self._stack: list[float] = []  # nested time accumulated per open call
        self._patches: list[tuple] = []  # (owner, attribute, original, wrapper)
        layers = [importlib.import_module(f"fmux.{layer}") for layer in LAYERS]
        modules = [m for n, m in sys.modules.items() if n == "fmux" or n.startswith("fmux.")]
        for layer, module in zip(LAYERS, layers):
            for attr, fn in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    wrapper = self._wrap(f"{layer}.{attr}", fn)
                    for owner in modules:
                        for name, value in vars(owner).items():
                            if value is fn:
                                self._patches.append((owner, name, fn, wrapper))
        heralded = sys.modules["fmux.heralded"]
        spectrometer = sys.modules["fmux.spectrometer"]
        for cls, attr, name in (
            (heralded.DiscretizedDensityMatrix, "eigenvalues", "heralded.eigenvalues"),
            (spectrometer.SpectrometerModel, "__init__", "spectrometer.SpectrometerModel"),
        ):
            fn = vars(cls)[attr]
            self._patches.append((cls, attr, fn, self._wrap(name, fn)))

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        work = WORK.get(name)
        sig = inspect.signature(fn) if work else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - nested
            if work:
                stats[3] += work(sig.bind(*args, **kwargs).arguments)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

"""Simulator of a frequency-multiplexed heralded single-photon source.

Submodules, reached as fmux.<name>:
    spectral     joint spectral amplitudes, filters, Schmidt analysis
    spectrometer time-of-flight herald frequency measurement
    serrodyne    electro-optic frequency shifting and the feed-forward LUT
    heralded     heralded density matrices and the purity engine
    statistics   multiplexed counting statistics and HOM visibility
    losses       component loss budget and Klyshko reconciliation
    scenarios    named end-to-end runs with reproducible outputs
"""

from . import defaults
from .defaults import PACKAGE_VERSION as __version__
from .scenarios import ScenarioConfig, load_config, run_scenario, simulate_feedforward_stream

__all__ = [
    "__version__",
    "defaults",
    "ScenarioConfig",
    "load_config",
    "run_scenario",
    "simulate_feedforward_stream",
]

"""Simulator of a frequency-multiplexed heralded single-photon source.

Submodules:
    spectral     joint spectral amplitudes, filters, Schmidt analysis
    spectrometer time-of-flight herald frequency measurement
    serrodyne    electro-optic frequency shifting and the feed-forward LUT
    heralded     conditional wavepackets and the heralded-purity engine
    statistics   multiplexed counting statistics and HOM visibility
    losses       component loss budget and Klyshko reconciliation
    scenarios    named end-to-end runs with reproducible outputs
"""

from . import defaults
from .defaults import PACKAGE_VERSION as __version__
from .heralded import (
    HeraldedStateModel,
    assemble_density_matrix,
    conditional_wavepacket,
    gvd_parameter,
    purity_from_eigenvalues,
    purity_from_trace,
    purity_integral,
)
from .losses import LossTable, arm_efficiency, reconcile, reference_loss_table
from .scenarios import ScenarioConfig, load_config, run_scenario, simulate_feedforward_stream
from .serrodyne import (
    FeedForwardLUT,
    ShifterModel,
    apply_temporal_phase,
    build_lut,
    phase_jitter_purity,
    shift_magnitude,
)
from .spectral import (
    FrequencyGrid,
    GaussianWindow,
    JointSpectralAmplitude,
    PumpEnvelope,
    TopHatWindow,
    apply_filter,
    build_anticorrelated_jsa,
    build_factorable_jsa,
    schmidt_number,
    schmidt_purity,
)
from .spectrometer import (
    HeraldOutcome,
    JitterDistribution,
    SpectrometerModel,
    conditional_outcome_distribution,
    frequency_to_arrival_time,
    herald_posterior,
    sample_herald_event,
)
from .statistics import (
    CountingResult,
    MultiplexedStatisticsModel,
    analytic_counting,
    effective_mode_count,
    hom_dip_curve,
    hom_visibility,
    klyshko_efficiencies,
    monte_carlo_counting,
)

__all__ = [
    "__version__",
    "defaults",
    "FrequencyGrid",
    "GaussianWindow",
    "JointSpectralAmplitude",
    "PumpEnvelope",
    "TopHatWindow",
    "apply_filter",
    "build_anticorrelated_jsa",
    "build_factorable_jsa",
    "schmidt_number",
    "schmidt_purity",
    "SpectrometerModel",
    "JitterDistribution",
    "HeraldOutcome",
    "frequency_to_arrival_time",
    "conditional_outcome_distribution",
    "herald_posterior",
    "sample_herald_event",
    "ShifterModel",
    "FeedForwardLUT",
    "shift_magnitude",
    "build_lut",
    "apply_temporal_phase",
    "phase_jitter_purity",
    "HeraldedStateModel",
    "conditional_wavepacket",
    "assemble_density_matrix",
    "purity_integral",
    "purity_from_eigenvalues",
    "purity_from_trace",
    "gvd_parameter",
    "MultiplexedStatisticsModel",
    "CountingResult",
    "effective_mode_count",
    "analytic_counting",
    "monte_carlo_counting",
    "klyshko_efficiencies",
    "hom_visibility",
    "hom_dip_curve",
    "LossTable",
    "arm_efficiency",
    "reconcile",
    "reference_loss_table",
    "ScenarioConfig",
    "load_config",
    "run_scenario",
    "simulate_feedforward_stream",
]

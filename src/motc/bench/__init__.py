"""Benchmark harness: model builders, experiment runners, artifact emission."""

from .experiments import (
    DEFAULT_SEED,
    ExperimentConfig,
    TrajectoryLog,
    count_high_frequency_modes,
    field_power_spectrum,
    run_efficiency_comparison,
    run_gradient_flow,
    run_gramian_distribution,
    run_motc_experiment,
    run_unitary_experiment,
    substream,
)
from .io import config_hash, emit_results
from .models import (
    build_model_system,
    build_observable_set,
    build_rank_truncated_state,
    sample_random_field,
)

__all__ = [
    "DEFAULT_SEED",
    "ExperimentConfig",
    "TrajectoryLog",
    "count_high_frequency_modes",
    "field_power_spectrum",
    "run_efficiency_comparison",
    "run_gradient_flow",
    "run_gramian_distribution",
    "run_motc_experiment",
    "run_unitary_experiment",
    "substream",
    "config_hash",
    "emit_results",
    "build_model_system",
    "build_observable_set",
    "build_rank_truncated_state",
    "sample_random_field",
]

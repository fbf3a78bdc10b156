"""Local wave-field quantum dynamics.

Each quantum system is a set of indexed single-particle packets whose
interaction history lives in a per-system memory ledger.  Interactions
happen either instantly or through a moving equal-flux boundary with
transfer-matrix boundary conditions, and every outcome can be audited
against the ordinary tensor-product route.
"""

from .boundary import (
    BoundaryLink,
    TransferMatrix,
    find_initial_boundary,
    step_boundary_fields,
    transfer_matrices_synced,
)
from .engine import (
    Packet,
    ScenarioState,
    WaveField,
    add_system,
    advance,
    branches,
    correlation_table,
    index_distribution,
    meet,
    new_state,
    set_potential,
    total_mass,
    validate_against_memory,
)
from .ensemble import (
    FluidParticle,
    PairingReport,
    ensemble_statistics,
    pair_particles,
    sample_particles,
    statistics_report,
)
from .hilbert import (
    Ket,
    Operator,
    ProductTerm,
    apply,
    expand_product_terms,
    reduced_density,
    state_ket,
    tensor,
)
from .memory import (
    ExternalMemory,
    IndexLabel,
    InteractionOp,
    InternalMemory,
    derive_state,
    external_memories,
    fresh_memory,
    memory_from_json,
    memory_to_json,
    record_interaction,
    synchronize,
)
from .scenarios import (
    SCENARIOS,
    CheckFailure,
    ScenarioConfig,
    ScenarioResult,
    list_scenarios,
    run_scenario,
)
from .serialize import dumps, write_run
from .spatial import (
    Grid,
    Propagator,
    current,
    gaussian_packet,
    norm_squared,
    streamlines,
    streamlines_from_fields,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryLink",
    "CheckFailure",
    "ExternalMemory",
    "FluidParticle",
    "Grid",
    "IndexLabel",
    "InteractionOp",
    "InternalMemory",
    "Ket",
    "Operator",
    "Packet",
    "PairingReport",
    "ProductTerm",
    "Propagator",
    "SCENARIOS",
    "ScenarioConfig",
    "ScenarioResult",
    "ScenarioState",
    "TransferMatrix",
    "WaveField",
    "add_system",
    "advance",
    "apply",
    "branches",
    "correlation_table",
    "current",
    "derive_state",
    "dumps",
    "ensemble_statistics",
    "expand_product_terms",
    "external_memories",
    "find_initial_boundary",
    "fresh_memory",
    "gaussian_packet",
    "index_distribution",
    "list_scenarios",
    "meet",
    "memory_from_json",
    "memory_to_json",
    "new_state",
    "norm_squared",
    "pair_particles",
    "record_interaction",
    "reduced_density",
    "run_scenario",
    "sample_particles",
    "set_potential",
    "state_ket",
    "statistics_report",
    "step_boundary_fields",
    "streamlines",
    "streamlines_from_fields",
    "synchronize",
    "tensor",
    "total_mass",
    "transfer_matrices_synced",
    "validate_against_memory",
    "write_run",
]

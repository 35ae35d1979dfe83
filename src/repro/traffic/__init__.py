"""Traffic substrate: the Monte-Carlo driving world standing in for fleet data.

Encounters arrive per context (:mod:`.encounters`), the tactical policy
shapes the speed they are met at (:mod:`.policy` — the paper's
exposure-is-a-design-choice), perception decides when they are seen
(:mod:`.perception`), kinematics resolves the outcome (:mod:`.dynamics`,
including degraded braking from :mod:`.faults`), and the simulator
(:mod:`.simulator`) records incidents that :mod:`.incidents` turns into
QRN inputs: per-type incident counts.
"""

from .dynamics import (KMH_PER_MS, BrakingArrays, BrakingOutcome,
                       impact_speed, impact_speed_array, kmh_to_ms,
                       ms_to_kmh, required_deceleration,
                       required_deceleration_array, resolve_braking,
                       resolve_braking_arrays, stopping_distance,
                       stopping_distance_array)
from .encounters import (ContextProfile, Encounter, EncounterBatch,
                         EncounterGenerator, ProposalTilt,
                         default_context_profiles, encounter_log_weights)
from .engine import (ImportanceRun, resolve_batch, simulate_importance,
                     simulate_vectorized)
from .faults import BrakingSystem
from .incidents import type_counts
from .acceleration import (ACCELERATORS, AcceleratedRate, SeverityChannel,
                           accelerated_collision_rate,
                           importance_collision_rate, naive_collision_rate,
                           severity_channels, splitting_collision_rate)
from .perception import (PerceptionModel, default_perception,
                         degraded_perception)
from .policy import (TacticalPolicy, aggressive_policy, cautious_policy,
                     nominal_policy)
from .scenarios import (AnimalRunOut, CrossingPedestrian, CutIn,
                        LeadVehicleBraking, ObstacleBehindCurve,
                        Scenario, ScenarioOutcome, ScenarioStatistics,
                        ScenarioSuite, incident_rate_contributions,
                        run_scenario)
from .checkpoint import (CampaignCheckpoint, CheckpointMismatchError,
                         CheckpointWriteError)
from .fleet import (CHUNK_TRANSPORTS, DEFAULT_CHUNK_HOURS, DEFAULT_MIX,
                    DEFAULT_RETRY_POLICY, POLICY_NAMES, FleetProgress,
                    policy_by_name, run_fleet, validate_chunk_output)
from .records import (RECORD_BLOCK_SCHEMA_NAME, RECORD_DTYPE, RecordBlock,
                      RecordSink, classify_block_counts, iter_record_blocks,
                      load_record_blocks, shm_available)
from .simulator import (ENGINES, SimulationConfig, SimulationResult,
                        simulate, simulate_mix)

__all__ = [
    "KMH_PER_MS", "kmh_to_ms", "ms_to_kmh", "stopping_distance",
    "required_deceleration", "impact_speed", "BrakingOutcome",
    "resolve_braking",
    "stopping_distance_array", "required_deceleration_array",
    "impact_speed_array", "BrakingArrays", "resolve_braking_arrays",
    "EncounterBatch", "resolve_batch", "simulate_vectorized", "ENGINES",
    "TacticalPolicy", "cautious_policy", "nominal_policy",
    "aggressive_policy",
    "PerceptionModel", "default_perception", "degraded_perception",
    "BrakingSystem",
    "Encounter", "ContextProfile", "EncounterGenerator",
    "default_context_profiles",
    "SimulationConfig", "SimulationResult", "simulate", "simulate_mix",
    "CHUNK_TRANSPORTS", "DEFAULT_CHUNK_HOURS", "DEFAULT_RETRY_POLICY",
    "FleetProgress", "run_fleet", "validate_chunk_output",
    "RECORD_BLOCK_SCHEMA_NAME", "RECORD_DTYPE", "RecordBlock", "RecordSink",
    "classify_block_counts", "iter_record_blocks", "load_record_blocks",
    "shm_available",
    "CampaignCheckpoint", "CheckpointMismatchError",
    "CheckpointWriteError", "DEFAULT_MIX", "POLICY_NAMES", "policy_by_name",
    "type_counts",
    "ProposalTilt", "encounter_log_weights", "ImportanceRun",
    "simulate_importance",
    "ACCELERATORS", "AcceleratedRate", "SeverityChannel",
    "accelerated_collision_rate", "importance_collision_rate",
    "naive_collision_rate", "severity_channels", "splitting_collision_rate",
    "Scenario", "ScenarioOutcome", "ScenarioStatistics", "ScenarioSuite",
    "CrossingPedestrian", "LeadVehicleBraking", "CutIn",
    "ObstacleBehindCurve", "AnimalRunOut", "run_scenario",
    "incident_rate_contributions",
]

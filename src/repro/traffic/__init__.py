"""Traffic substrate: the Monte-Carlo driving world standing in for fleet data.

Encounters arrive per context (:mod:`.encounters`), the tactical policy
shapes the speed they are met at (:mod:`.policy` — the paper's
exposure-is-a-design-choice), perception decides when they are seen
(:mod:`.perception`), kinematics resolves the outcome (:mod:`.dynamics`,
including degraded braking from :mod:`.faults`), and the simulator
(:mod:`.simulator`) records incidents that :mod:`.incidents` turns into
QRN inputs: per-type incident counts.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".dynamics": ("KMH_PER_MS", "kmh_to_ms", "ms_to_kmh", "stopping_distance",
                  "required_deceleration", "impact_speed", "BrakingOutcome",
                  "resolve_braking", "stopping_distance_array",
                  "required_deceleration_array", "impact_speed_array",
                  "BrakingArrays", "resolve_braking_arrays"),
    ".encounters": ("EncounterBatch", "Encounter", "ContextProfile",
                    "EncounterGenerator", "default_context_profiles",
                    "encounter_log_weights"),
    ".engine": ("resolve_batch", "simulate_vectorized", "ImportanceRun",
                "simulate_importance"),
    ".simulator": ("ENGINES", "SimulationConfig", "SimulationResult",
                   "simulate", "simulate_mix"),
    ".policy": ("TacticalPolicy", "cautious_policy", "nominal_policy",
                "aggressive_policy"),
    ".perception": ("PerceptionModel", "default_perception",
                    "degraded_perception"),
    ".faults": ("BrakingSystem",),
    ".fleet": ("CHUNK_TRANSPORTS", "DEFAULT_CHUNK_HOURS",
               "DEFAULT_RETRY_POLICY", "FleetProgress", "run_fleet",
               "validate_chunk_output", "DEFAULT_MIX", "POLICY_NAMES",
               "policy_by_name"),
    ".records": ("RECORD_BLOCK_SCHEMA_NAME", "RECORD_DTYPE", "RecordBlock",
                 "RecordSink", "classify_block_counts", "iter_record_blocks",
                 "load_record_blocks", "shm_available"),
    ".checkpoint": ("CampaignCheckpoint", "CheckpointMismatchError",
                    "CheckpointWriteError"),
    ".incidents": ("type_counts",),
    # ProposalTilt (from .encounters) moves back there: ROADMAP item 1.
    ".acceleration": ("ProposalTilt", "ACCELERATORS", "AcceleratedRate",
                      "SeverityChannel", "accelerated_collision_rate",
                      "importance_collision_rate", "naive_collision_rate",
                      "severity_channels", "splitting_collision_rate"),
    ".scenarios": ("Scenario", "ScenarioOutcome", "ScenarioStatistics",
                   "ScenarioSuite", "CrossingPedestrian",
                   "LeadVehicleBraking", "CutIn", "ObstacleBehindCurve",
                   "AnimalRunOut", "run_scenario",
                   "incident_rate_contributions"),
})

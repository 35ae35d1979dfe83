"""Statistical substrate: Poisson inference, counting logs, Monte Carlo.

The QRN's "quantitative" is carried by this package — rate estimation with
exact confidence bounds (:mod:`.poisson`), event logs over exposure
(:mod:`.counting`), reproducible Monte-Carlo harnesses (:mod:`.montecarlo`)
and stratified rare-event estimation (:mod:`.rare_event`).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".counting": ("CountedEvent", "CountingLog"),
    ".montecarlo": ("BatchMeans", "MonteCarloResult", "estimate_mean",
                    "spawn_generators"),
    ".poisson": ("RateEstimate", "demonstration_power",
                 "exposure_to_demonstrate", "max_acceptable_count",
                 "rate_confidence_interval", "rate_lower_bound", "rate_mle",
                 "rate_upper_bound"),
    ".rare_event": ("StratifiedEstimate", "StratumEstimate",
                    "stratified_rate"),
    ".importance": ("WeightDegeneracyError", "WeightDiagnostics",
                    "bernoulli_log_ratio", "clamped_lognormal_log_ratio",
                    "floored_normal_log_ratio", "normal_cdf",
                    "normal_log_ratio"),
    ".splitting": ("LevelPassage", "SplittingEstimate", "adaptive_levels",
                   "multilevel_splitting", "replicated_splitting"),
    ".sequential": ("SprtDecision", "SprtPlan", "SprtState",
                    "expected_acceptance_exposure"),
    ".bayes": ("GammaRatePrior", "JEFFREYS", "prior_from_simulation",
               "field_exposure_to_demonstrate"),
    ".parallel": ("Chunk", "ChunkProgress", "default_worker_count",
                  "plan_chunks", "run_chunked"),
    ".fault_tolerance": ("FAILURE_KINDS", "CampaignPartialFailure",
                         "ChunkFailure", "RetryPolicy"),
})

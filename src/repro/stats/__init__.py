"""Statistical substrate: Poisson inference, counting logs, Monte Carlo.

The QRN's "quantitative" is carried by this package — rate estimation with
exact confidence bounds (:mod:`.poisson`), event logs over exposure
(:mod:`.counting`), reproducible Monte-Carlo harnesses (:mod:`.montecarlo`)
and stratified rare-event estimation (:mod:`.rare_event`).
"""

from .counting import CountedEvent, CountingLog
from .montecarlo import (BatchMeans, MonteCarloResult, estimate_mean,
                         spawn_generators)
from .poisson import (RateEstimate, demonstration_power,
                      exposure_to_demonstrate, max_acceptable_count,
                      rate_confidence_interval, rate_lower_bound, rate_mle,
                      rate_upper_bound)
from .bayes import (JEFFREYS, GammaRatePrior,
                    field_exposure_to_demonstrate, prior_from_simulation)
from .sequential import (SprtDecision, SprtPlan, SprtState,
                         expected_acceptance_exposure)
from .rare_event import StratifiedEstimate, StratumEstimate, stratified_rate
from .importance import (WeightDegeneracyError, WeightDiagnostics,
                         bernoulli_log_ratio, clamped_lognormal_log_ratio,
                         floored_normal_log_ratio, normal_cdf,
                         normal_log_ratio)
from .splitting import (LevelPassage, SplittingEstimate, adaptive_levels,
                        multilevel_splitting, replicated_splitting)
from .parallel import (Chunk, ChunkProgress, default_worker_count,
                       plan_chunks, run_chunked)
from .fault_tolerance import (FAILURE_KINDS, CampaignPartialFailure,
                              ChunkFailure, RetryPolicy)

__all__ = [
    "CountedEvent",
    "CountingLog",
    "BatchMeans",
    "MonteCarloResult",
    "estimate_mean",
    "spawn_generators",
    "RateEstimate",
    "demonstration_power",
    "exposure_to_demonstrate",
    "max_acceptable_count",
    "rate_confidence_interval",
    "rate_lower_bound",
    "rate_mle",
    "rate_upper_bound",
    "StratifiedEstimate",
    "StratumEstimate",
    "stratified_rate",
    "WeightDegeneracyError",
    "WeightDiagnostics",
    "bernoulli_log_ratio",
    "clamped_lognormal_log_ratio",
    "floored_normal_log_ratio",
    "normal_cdf",
    "normal_log_ratio",
    "LevelPassage",
    "SplittingEstimate",
    "adaptive_levels",
    "multilevel_splitting",
    "replicated_splitting",
    "SprtDecision",
    "SprtPlan",
    "SprtState",
    "expected_acceptance_exposure",
    "GammaRatePrior",
    "JEFFREYS",
    "prior_from_simulation",
    "field_exposure_to_demonstrate",
    "Chunk",
    "ChunkProgress",
    "default_worker_count",
    "plan_chunks",
    "run_chunked",
    "FAILURE_KINDS",
    "CampaignPartialFailure",
    "ChunkFailure",
    "RetryPolicy",
]

"""From simulation output to QRN inputs.

The glue between the substrate and the core: bucket simulated incident
records by incident type, estimate per-type rates with confidence bounds,
and derive empirical contribution splits (Δv distributions per type pushed
through the injury model).  This is the pipeline a real programme would
run against fleet data; here it runs against :mod:`repro.traffic.simulator`
output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

from ..core.consequence import ConsequenceScale
from ..core.incident import (ContributionSplit, IncidentType,
                             SpeedBand, classify_records)
from ..injury.risk_curves import InjuryRiskModel, severity_distribution
from ..injury.classifier import split_for_proximity, _severity_to_class
from ..stats.poisson import RateEstimate, rate_confidence_interval
from .records import classify_block_counts
from .simulator import SimulationResult

__all__ = [
    "TypeRates",
    "estimate_type_rates",
    "empirical_splits",
    "type_counts",
    "weighted_type_counts",
]


@dataclass(frozen=True)
class TypeRates:
    """Per-incident-type rate estimates from one simulation campaign."""

    exposure_hours: float
    estimates: Mapping[str, RateEstimate]
    unclassified: int

    def rate(self, type_id: str) -> RateEstimate:
        try:
            return self.estimates[type_id]
        except KeyError:
            raise KeyError(f"no estimate for incident type {type_id!r}; "
                           f"known: {sorted(self.estimates)}") from None

    def counts(self) -> Dict[str, int]:
        return {type_id: est.count for type_id, est in self.estimates.items()}


def type_counts(result: SimulationResult,
                types: Sequence[IncidentType]) -> Tuple[Dict[str, int], int]:
    """Observed occurrences per incident type, plus the unclassified count.

    A nonzero unclassified count means the incident-type set does not
    cover everything the simulation produced — for MECE-derived type sets
    over the simulated record space this must be zero, and the QRN
    verification treats it as a completeness failure upstream.
    """
    return classify_block_counts(result.record_block, list(types))


def weighted_type_counts(records: Sequence,
                         weights: Sequence[float],
                         types: Sequence[IncidentType],
                         ) -> Tuple[Dict[str, float], float]:
    """Importance-weighted occurrences per incident type.

    The likelihood-ratio analogue of :func:`type_counts`: each record
    contributes its Campbell weight instead of 1, so the totals are
    unbiased nominal-law expected counts even though the records were
    sampled under a proposal.  Returns the per-type weighted counts and
    the weighted unclassified mass.
    """
    if len(records) != len(weights):
        raise ValueError(
            f"got {len(records)} records but {len(weights)} weights")
    totals: Dict[str, float] = {itype.type_id: 0.0 for itype in types}
    unclassified = 0.0
    type_list = list(types)
    for record, weight in zip(records, weights):
        weight = float(weight)
        if weight < 0 or not np.isfinite(weight):
            raise ValueError(
                f"record weights must be finite and >= 0, got {weight}")
        buckets = classify_records([record], type_list)
        if buckets.pop("<unclassified>"):
            unclassified += weight
            continue
        for type_id, bucket in buckets.items():
            if bucket:
                totals[type_id] += weight
                break
    return totals, unclassified


def estimate_type_rates(result: SimulationResult,
                        types: Sequence[IncidentType],
                        *, confidence: float = 0.95) -> TypeRates:
    """Exact Poisson rate estimates per incident type."""
    counts, unclassified = type_counts(result, types)
    estimates = {
        type_id: rate_confidence_interval(count, result.hours, confidence)
        for type_id, count in counts.items()
    }
    return TypeRates(exposure_hours=result.hours, estimates=estimates,
                     unclassified=unclassified)


def empirical_splits(result: SimulationResult,
                     types: Sequence[IncidentType],
                     model: InjuryRiskModel,
                     scale: ConsequenceScale,
                     *, min_samples: int = 5,
                     ) -> Dict[str, ContributionSplit]:
    """Contribution splits from *observed* Δv distributions.

    For collision types with at least ``min_samples`` observed records,
    the split is the injury model's severity distribution averaged over
    the observed impact speeds — the data-grounded version of Fig. 5's
    70/30.  Types with too few observations fall back to a uniform grid
    over their speed band (the same computation as
    :func:`repro.injury.classifier.split_for_speed_band`), so rare severe
    types still get a defensible split.  Near-miss types use the
    behavioural proximity split.
    """
    if min_samples < 1:
        raise ValueError("min_samples must be >= 1")
    buckets = classify_records(result.records, types)
    splits: Dict[str, ContributionSplit] = {}
    for itype in types:
        if isinstance(itype.margin, SpeedBand):
            observed = [r.delta_v_kmh for r in buckets[itype.type_id]
                        if r.is_collision]
            if len(observed) >= min_samples:
                samples = observed
            else:
                band = itype.margin
                samples = list(np.linspace(band.low_kmh, band.high_kmh, 51)[1:])
            distribution = severity_distribution(model, itype.counterpart,
                                                 samples)
            fractions: Dict[str, float] = {}
            for severity, mass in distribution.items():
                if mass <= 1e-9:
                    continue
                class_id = _severity_to_class(scale, severity)
                if class_id is not None:
                    fractions[class_id] = fractions.get(class_id, 0.0) + mass
            if not fractions:
                raise ValueError(
                    f"no modelled class receives mass for type {itype.type_id}")
            splits[itype.type_id] = ContributionSplit(fractions)
        else:
            splits[itype.type_id] = split_for_proximity(itype.margin, scale)
    return splits

"""From simulation output to QRN inputs.

The glue between the substrate and the core: bucket simulated incident
records by incident type, the counts a real programme would take from
fleet data and here take from :mod:`repro.traffic.simulator` output.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from ..core.incident import IncidentType
from .records import classify_block_counts
from .simulator import SimulationResult

__all__ = ["type_counts"]


def type_counts(result: SimulationResult,
                types: Sequence[IncidentType]) -> Tuple[Dict[str, int], int]:
    """Observed occurrences per incident type, plus the unclassified count.

    A nonzero unclassified count means the incident-type set does not
    cover everything the simulation produced — for MECE-derived type sets
    over the simulated record space this must be zero, and the QRN
    verification treats it as a completeness failure upstream.
    """
    return classify_block_counts(result.record_block, list(types))

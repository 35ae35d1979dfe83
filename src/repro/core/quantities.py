"""Frequency quantities with explicit units.

The quantitative risk norm (QRN) of Warg et al. (DSN-W 2020) is "a budget
of acceptable frequencies of incidents" (Sec. I).  Everything downstream —
consequence-class budgets, incident-type budgets, safety-goal integrity
attributes, verification against measured rates — is arithmetic over
frequencies.  Mixing up "per hour" and "per kilometre" budgets would
silently corrupt a safety case, so frequencies here are value objects with
explicit units and the arithmetic refuses to combine incompatible ones.

Units are kept deliberately simple: a :class:`FrequencyUnit` is "events per
one unit of exposure", where the exposure base is operating hours,
kilometres driven, or missions (trips).  Conversion between bases requires
an explicit :class:`ExposureProfile` (e.g. an average speed links hours and
kilometres); there is no implicit conversion.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Union

__all__ = [
    "ExposureBase",
    "FrequencyUnit",
    "Frequency",
    "FrequencyBand",
    "ExposureProfile",
    "PER_HOUR",
    "PER_KM",
    "PER_MISSION",
    "UnitMismatchError",
]


class UnitMismatchError(ValueError):
    """Raised when arithmetic would combine frequencies of different units."""


class ExposureBase(Enum):
    """The denominator of a frequency: what one unit of exposure is."""

    OPERATING_HOUR = "h"
    KILOMETRE = "km"
    MISSION = "mission"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True, order=False)
class FrequencyUnit:
    """Events per ``scale`` units of ``base`` exposure.

    ``FrequencyUnit(ExposureBase.OPERATING_HOUR)`` is "per operating hour".
    The ``scale`` field allows "per 10^9 hours" style units without losing
    precision in the magnitude; two units are compatible iff their bases
    match (scales are normalised away in :class:`Frequency`).
    """

    base: ExposureBase
    scale: float = 1.0

    def __post_init__(self) -> None:
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise ValueError(f"unit scale must be a positive finite number, got {self.scale}")

    def __str__(self) -> str:
        if self.scale == 1.0:
            return f"/{self.base.value}"
        return f"/{self.scale:g} {self.base.value}"

    def compatible_with(self, other: "FrequencyUnit") -> bool:
        """Whether frequencies in the two units may be combined."""
        return self.base is other.base


PER_HOUR = FrequencyUnit(ExposureBase.OPERATING_HOUR)
PER_KM = FrequencyUnit(ExposureBase.KILOMETRE)
PER_MISSION = FrequencyUnit(ExposureBase.MISSION)

_FREQ_RE = re.compile(
    r"^\s*(?P<value>[0-9.eE+-]+)\s*/\s*(?:(?P<scale>[0-9.eE+-]+)\s*)?(?P<base>h|km|mission)\s*$"
)


@dataclass(frozen=True)
class Frequency:
    """An event rate: ``rate`` events per one unit of exposure.

    Internally the rate is normalised to scale 1 (events per single hour /
    kilometre / mission) regardless of the unit's display scale, so two
    frequencies with the same exposure base always compare correctly.

    Frequencies form a partial algebra: addition, subtraction and scalar
    multiplication are defined between compatible units; comparison across
    incompatible units raises :class:`UnitMismatchError`.  A frequency may
    be zero (an incident type whose budget has been fully revoked) but never
    negative — negative budgets have no safety-case meaning.
    """

    rate: float
    unit: FrequencyUnit = PER_HOUR

    def __post_init__(self) -> None:
        if isinstance(self.rate, bool) or not isinstance(self.rate, (int, float)):
            raise TypeError(f"rate must be a real number, got {type(self.rate).__name__}")
        if not math.isfinite(self.rate):
            raise ValueError(f"rate must be finite, got {self.rate}")
        if self.rate < 0:
            raise ValueError(f"rate must be non-negative, got {self.rate}")
        # Normalise display scale into the rate so the invariant
        # "rate == events per 1 exposure unit" always holds.
        if self.unit.scale != 1.0:
            object.__setattr__(self, "rate", self.rate / self.unit.scale)
            object.__setattr__(self, "unit", FrequencyUnit(self.unit.base))

    # -- constructors ------------------------------------------------------

    @classmethod
    def per_hour(cls, rate: float) -> "Frequency":
        """Events per operating hour."""
        return cls(rate, PER_HOUR)

    @classmethod
    def per_km(cls, rate: float) -> "Frequency":
        """Events per kilometre driven."""
        return cls(rate, PER_KM)

    @classmethod
    def per_mission(cls, rate: float) -> "Frequency":
        """Events per mission (trip)."""
        return cls(rate, PER_MISSION)

    @classmethod
    def parse(cls, text: str) -> "Frequency":
        """Parse ``"1e-7 /h"``, ``"3/1e9 km"``, ``"0.2 /mission"`` forms."""
        match = _FREQ_RE.match(text)
        if match is None:
            raise ValueError(f"cannot parse frequency from {text!r}")
        value = float(match.group("value"))
        scale = float(match.group("scale")) if match.group("scale") else 1.0
        base = {"h": ExposureBase.OPERATING_HOUR,
                "km": ExposureBase.KILOMETRE,
                "mission": ExposureBase.MISSION}[match.group("base")]
        return cls(value, FrequencyUnit(base, scale))

    @classmethod
    def zero(cls, unit: FrequencyUnit = PER_HOUR) -> "Frequency":
        """The zero rate in the given unit (identity of addition)."""
        return cls(0.0, unit)

    # -- algebra -----------------------------------------------------------

    def _check(self, other: "Frequency") -> None:
        if not isinstance(other, Frequency):
            raise TypeError(f"expected Frequency, got {type(other).__name__}")
        if not self.unit.compatible_with(other.unit):
            raise UnitMismatchError(
                f"cannot combine {self.unit} with {other.unit}; "
                "convert explicitly via ExposureProfile first"
            )

    def __add__(self, other: "Frequency") -> "Frequency":
        self._check(other)
        return Frequency(self.rate + other.rate, self.unit)

    def __sub__(self, other: "Frequency") -> "Frequency":
        self._check(other)
        diff = self.rate - other.rate
        if diff < 0 and diff > -1e-15 * max(self.rate, 1.0):
            diff = 0.0  # absorb float fuzz at the budget boundary
        return Frequency(diff, self.unit)

    def __mul__(self, factor: float) -> "Frequency":
        if isinstance(factor, Frequency):
            raise TypeError("cannot multiply two frequencies")
        return Frequency(self.rate * factor, self.unit)

    __rmul__ = __mul__

    def __truediv__(self, divisor: Union[float, "Frequency"]) -> Union[float, "Frequency"]:
        if isinstance(divisor, Frequency):
            self._check(divisor)
            if divisor.rate == 0:
                raise ZeroDivisionError("division by zero frequency")
            return self.rate / divisor.rate
        return Frequency(self.rate / divisor, self.unit)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Frequency):
            return NotImplemented
        return self.unit.base is other.unit.base and self.rate == other.rate

    def __hash__(self) -> int:
        return hash((self.rate, self.unit.base))

    def __lt__(self, other: "Frequency") -> bool:
        self._check(other)
        return self.rate < other.rate

    def __le__(self, other: "Frequency") -> bool:
        self._check(other)
        return self.rate <= other.rate

    def __gt__(self, other: "Frequency") -> bool:
        self._check(other)
        return self.rate > other.rate

    def __ge__(self, other: "Frequency") -> bool:
        self._check(other)
        return self.rate >= other.rate

    def is_zero(self) -> bool:
        return self.rate == 0.0

    def within(self, budget: "Frequency", *, rel_tol: float = 1e-9) -> bool:
        """Whether this rate fits inside ``budget`` (Eq. 1 per-term check).

        A relative tolerance absorbs floating-point fuzz from summing many
        contribution terms; the safety-relevant direction (exceeding the
        budget) is never masked beyond that tolerance.
        """
        self._check(budget)
        return self.rate <= budget.rate * (1.0 + rel_tol) + 1e-300

    def expected_events(self, exposure: float) -> float:
        """Expected event count over ``exposure`` units (hours/km/missions)."""
        if exposure < 0:
            raise ValueError("exposure must be non-negative")
        return self.rate * exposure

    def __str__(self) -> str:
        return f"{self.rate:.3g} {self.unit}"

    def __repr__(self) -> str:
        return f"Frequency({self.rate!r}, {self.unit.base.value!r})"


def sum_frequencies(frequencies: Iterable[Frequency], unit: FrequencyUnit = PER_HOUR) -> Frequency:
    """Sum frequencies, all of which must share ``unit``'s exposure base.

    Returns the zero frequency in ``unit`` for an empty iterable — the sum
    over no incident types contributes nothing to a consequence class.
    """
    total = Frequency.zero(unit)
    for freq in frequencies:
        total = total + freq
    return total


@dataclass(frozen=True)
class FrequencyBand:
    """A half-open frequency interval ``[low, high)`` in one unit.

    Used to express acceptance corridors in a norm: the political upper
    acceptance limit and the state-of-the-art lower claim limit discussed in
    Sec. III-A span such a band.
    """

    low: Frequency
    high: Frequency

    def __post_init__(self) -> None:
        if not self.low.unit.compatible_with(self.high.unit):
            raise UnitMismatchError("band bounds must share an exposure base")
        if self.low > self.high:
            raise ValueError(f"band low {self.low} exceeds high {self.high}")

    def __contains__(self, freq: Frequency) -> bool:
        return self.low <= freq < self.high

    def midpoint_log(self) -> Frequency:
        """Geometric midpoint — natural for order-of-magnitude budgets."""
        if self.low.is_zero():
            return Frequency(self.high.rate / 2.0, self.high.unit)
        return Frequency(math.sqrt(self.low.rate * self.high.rate), self.low.unit)

    def width_decades(self) -> float:
        """Band width in decades (log10 high/low); ``inf`` if low is zero."""
        if self.low.is_zero():
            return math.inf
        return math.log10(self.high.rate / self.low.rate)


@dataclass(frozen=True)
class ExposureProfile:
    """Explicit link between exposure bases for one feature/ODD.

    The paper keeps frequencies abstract; in practice a norm stated per
    operating hour must be compared against field data collected per
    kilometre or per mission.  A profile declares the average conversion
    factors for a specific feature (they are ODD-dependent, which is
    exactly why conversion must never be implicit).
    """

    mean_speed_km_per_h: float
    mean_mission_hours: float

    def __post_init__(self) -> None:
        if self.mean_speed_km_per_h <= 0:
            raise ValueError("mean speed must be positive")
        if self.mean_mission_hours <= 0:
            raise ValueError("mean mission duration must be positive")

    def convert(self, freq: Frequency, target: FrequencyUnit) -> Frequency:
        """Convert ``freq`` to ``target``'s exposure base via this profile."""
        if freq.unit.compatible_with(target):
            return Frequency(freq.rate, target)
        per_hour = self._to_per_hour(freq)
        if target.base is ExposureBase.OPERATING_HOUR:
            return Frequency(per_hour, PER_HOUR)
        if target.base is ExposureBase.KILOMETRE:
            return Frequency(per_hour / self.mean_speed_km_per_h, PER_KM)
        if target.base is ExposureBase.MISSION:
            return Frequency(per_hour * self.mean_mission_hours, PER_MISSION)
        raise ValueError(f"unknown target base {target.base}")  # pragma: no cover

    def _to_per_hour(self, freq: Frequency) -> float:
        base = freq.unit.base
        if base is ExposureBase.OPERATING_HOUR:
            return freq.rate
        if base is ExposureBase.KILOMETRE:
            return freq.rate * self.mean_speed_km_per_h
        if base is ExposureBase.MISSION:
            return freq.rate / self.mean_mission_hours
        raise ValueError(f"unknown base {base}")  # pragma: no cover

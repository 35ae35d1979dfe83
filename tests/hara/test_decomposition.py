"""Tests for ASIL decomposition/inheritance and their breakdown (Sec. V)."""

from __future__ import annotations

import pytest

from repro.hara.asil import Asil
from repro.hara.decomposition import (DECOMPOSITION_SCHEMES,
                                      DecompositionError, analyse_inheritance,
                                      decompose, inheritance_effective_rate,
                                      is_valid_decomposition)


class TestSchemes:
    def test_published_schemes(self):
        assert (Asil.C, Asil.A) in DECOMPOSITION_SCHEMES[Asil.D]
        assert (Asil.B, Asil.B) in DECOMPOSITION_SCHEMES[Asil.D]
        assert (Asil.D, Asil.QM) in DECOMPOSITION_SCHEMES[Asil.D]
        assert (Asil.A, Asil.A) in DECOMPOSITION_SCHEMES[Asil.B]
        assert DECOMPOSITION_SCHEMES[Asil.QM] == ()

    def test_validation_is_order_insensitive(self):
        assert is_valid_decomposition(Asil.D, [Asil.A, Asil.C])
        assert is_valid_decomposition(Asil.D, [Asil.C, Asil.A])

    def test_invalid_pairs_rejected(self):
        assert not is_valid_decomposition(Asil.D, [Asil.A, Asil.A])
        assert not is_valid_decomposition(Asil.B, [Asil.QM, Asil.QM])

    def test_three_way_split_not_a_scheme(self):
        assert not is_valid_decomposition(Asil.D, [Asil.B, Asil.A, Asil.A])

    def test_decompose_produces_notation(self):
        parts = decompose(Asil.D, [Asil.B, Asil.B], ["primary", "secondary"])
        assert [p.notation() for p in parts] == ["ASIL B(D)", "ASIL B(D)"]

    def test_decompose_qm_leg_notation(self):
        parts = decompose(Asil.D, [Asil.D, Asil.QM], ["main", "monitor"])
        assert parts[1].notation() == "QM(D)"

    def test_decompose_invalid_scheme_raises_with_allowed(self):
        with pytest.raises(DecompositionError, match="allowed"):
            decompose(Asil.D, [Asil.A, Asil.A], ["a", "b"])

    def test_decompose_name_count_mismatch(self):
        with pytest.raises(DecompositionError, match="one name"):
            decompose(Asil.D, [Asil.B, Asil.B], ["only-one"])

    def test_sum_preservation_shape(self):
        """Every scheme's parts sum to at least the original level in the
        informal 'ASIL arithmetic' (QM=0 … D=4) — the standard's design."""
        for level, schemes in DECOMPOSITION_SCHEMES.items():
            for pair in schemes:
                assert int(pair[0]) + int(pair[1]) >= int(level)


class TestInheritanceBreakdown:
    def test_single_element_sound(self):
        analysis = analyse_inheritance(Asil.A, 1)
        assert analysis.is_sound

    def test_thousands_of_elements_unsound(self):
        """The paper's Sec. V scenario: thousands of ASIL A causes."""
        analysis = analyse_inheritance(Asil.A, 2000)
        assert not analysis.is_sound
        assert analysis.achieved_level is Asil.QM
        assert analysis.gap_levels() >= 1

    def test_effective_rate_scales_linearly(self):
        assert inheritance_effective_rate(10, Asil.B) == \
            pytest.approx(10 * 1e-6)

    def test_breakdown_threshold_monotone(self):
        """Soundness, once lost, never returns with more elements."""
        sound_flags = [analyse_inheritance(Asil.C, n).is_sound
                       for n in (1, 2, 5, 10, 100, 1000)]
        # once False, stays False
        seen_false = False
        for flag in sound_flags:
            if seen_false:
                assert not flag
            if not flag:
                seen_false = True

    def test_qm_has_no_band_to_aggregate(self):
        with pytest.raises(ValueError, match="no numeric rate band"):
            inheritance_effective_rate(10, Asil.QM)

    def test_invalid_element_count(self):
        with pytest.raises(ValueError):
            inheritance_effective_rate(0, Asil.A)

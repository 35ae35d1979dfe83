"""Cross-module property-based tests.

Invariants that tie subsystems together: the banding DP agrees with
brute force, fault-tree cut sets account exactly for the top event,
verification verdicts respond monotonically to evidence, and allocation
arithmetic is linear the way Eq. 1 says it is.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.assurance.fault_tree import BasicEvent, FaultTree, Gate, GateKind
from repro.core import (Allocation, Frequency, allocate_proportional,
                        derive_safety_goals)
from repro.core.banding import propose_bands
from repro.core.taxonomy import ActorClass
from repro.core.verification import Verdict, verify_against_counts
from repro.injury.risk_curves import default_risk_model


class TestBandingOptimality:
    def test_dp_matches_brute_force_for_two_bands(self):
        """The k=2 DP solution equals the exhaustive best single cut."""
        model = default_risk_model()
        resolution = 16
        result = propose_bands(model, ActorClass.VRU, 70.0, 2,
                               resolution=resolution)

        # Brute force over every grid cut using the same machinery.
        import numpy as np
        from repro.core.banding import _profile_grid

        speeds, profiles = _profile_grid(model, ActorClass.VRU, 70.0,
                                         resolution)

        def segment_cost(i, j):
            segment = profiles[i:j]
            centre = segment.mean(axis=0)
            return float(np.abs(segment - centre).sum()) * 0.5

        best_cost = min(segment_cost(0, cut) + segment_cost(cut, len(speeds))
                        for cut in range(1, len(speeds)))
        assert result.total_dispersion == pytest.approx(best_cost)


class TestFaultTreeAccounting:
    @given(rates=st.lists(st.floats(min_value=1e-9, max_value=1e-4),
                          min_size=2, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_or_tree_cut_sets_sum_to_top(self, rates):
        tree = FaultTree(Gate("top", GateKind.OR, tuple(
            BasicEvent(f"e{i}", Frequency.per_hour(rate))
            for i, rate in enumerate(rates))))
        total = sum(cs.rate.rate for cs in tree.minimal_cut_sets())
        assert total == pytest.approx(tree.top_event_rate().rate)

    @given(pair=st.tuples(st.floats(min_value=1e-8, max_value=1e-3),
                          st.floats(min_value=1e-8, max_value=1e-3)),
           single=st.floats(min_value=1e-10, max_value=1e-6))
    @settings(max_examples=40, deadline=None)
    def test_mixed_tree_cut_sets_account_exactly(self, pair, single):
        tree = FaultTree(Gate("top", GateKind.OR, (
            BasicEvent("solo", Frequency.per_hour(single)),
            Gate("pair", GateKind.AND, (
                BasicEvent("a", Frequency.per_hour(pair[0])),
                BasicEvent("b", Frequency.per_hour(pair[1])),
            ), exposure_window=1 / 3600),
        )))
        total = sum(cs.rate.rate for cs in tree.minimal_cut_sets())
        assert total == pytest.approx(tree.top_event_rate().rate)


class TestVerificationMonotonicity:
    _ORDER = {Verdict.VIOLATED: 0, Verdict.INCONCLUSIVE: 1,
              Verdict.DEMONSTRATED: 2}

    @given(base=st.integers(min_value=0, max_value=5),
           extra=st.integers(min_value=1, max_value=20))
    @settings(max_examples=30, deadline=None)
    def test_more_events_never_improve_a_verdict(self, base, extra,
                                                 ):
        from repro.core import example_norm, figure5_incident_types
        goals = derive_safety_goals(allocate_proportional(
            example_norm(), list(figure5_incident_types())))
        exposure = 1e6
        few = verify_against_counts(goals, {"I2": base}, exposure)
        many = verify_against_counts(goals, {"I2": base + extra}, exposure)
        assert self._ORDER[many.goal("SG-I2").verdict] <= \
            self._ORDER[few.goal("SG-I2").verdict]

    @given(count=st.integers(min_value=0, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_more_clean_exposure_never_hurts(self, count):
        from repro.core import example_norm, figure5_incident_types
        goals = derive_safety_goals(allocate_proportional(
            example_norm(), list(figure5_incident_types())))
        small = verify_against_counts(goals, {"I1": count}, 1e5)
        large = verify_against_counts(goals, {"I1": count}, 1e8)
        assert self._ORDER[large.goal("SG-I1").verdict] >= \
            self._ORDER[small.goal("SG-I1").verdict]


class TestAllocationLinearity:
    @given(factor=st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=30, deadline=None)
    def test_class_loads_scale_linearly_with_budgets(self, factor):
        """Eq. 1's left side is linear: scaling every f_I by c scales
        every class load by c (and preserves feasibility for c ≤ 1)."""
        from repro.core import example_norm, figure5_incident_types
        norm = example_norm()
        types = list(figure5_incident_types())
        base = allocate_proportional(norm, types)
        scaled = Allocation(norm, types, {
            type_id: budget * factor
            for type_id, budget in base.budgets().items()})
        for class_id in norm.class_ids:
            assert scaled.class_load(class_id).rate == pytest.approx(
                base.class_load(class_id).rate * factor)
        assert scaled.is_feasible()

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_contribution_matrix_columns_decompose_budgets(self, seed):
        """Each type's contributions across classes sum to exactly
        (split total) × budget — nothing leaks, nothing appears."""
        from repro.core import example_norm, figure5_incident_types
        rng = np.random.default_rng(seed)
        norm = example_norm()
        types = list(figure5_incident_types())
        budgets = {t.type_id: Frequency.per_hour(float(rng.uniform(0, 1e-7)))
                   for t in types}
        allocation = Allocation(norm, types, budgets)
        matrix, _, type_ids = allocation.contribution_matrix()
        for k, type_id in enumerate(type_ids):
            itype = allocation.type_by_id(type_id)
            expected = allocation.budget(type_id).rate * itype.split.total()
            assert matrix[:, k].sum() == pytest.approx(expected, rel=1e-9,
                                                       abs=1e-300)

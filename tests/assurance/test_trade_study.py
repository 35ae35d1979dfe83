"""Tests for the Sec. IV safety-strategy trade study."""

from __future__ import annotations

import pytest

from repro.assurance.trade_study import (TradeAxis, TradeOption, TradeStudy)
from repro.core import Frequency, allocate_proportional, derive_safety_goals


@pytest.fixture
def goals(norm, fig5_types):
    return derive_safety_goals(allocate_proportional(norm, fig5_types))


@pytest.fixture
def axes():
    return [
        TradeAxis("driving_style", (
            TradeOption("cautious", cost=3.0, payload=0.1),
            TradeOption("nominal", cost=1.0, payload=1.0),
            TradeOption("performance", cost=0.0, payload=10.0),
        )),
        TradeAxis("sensors", (
            TradeOption("premium", cost=5.0, payload=0.2),
            TradeOption("standard", cost=1.0, payload=1.0),
        )),
    ]


def make_evaluator(goals):
    """Achieved rates = base rates scaled by the option payloads."""
    base = {goal.goal_id: goal.max_frequency.rate * 0.8 for goal in goals}

    def evaluate(selection):
        factor = 1.0
        for option in selection.values():
            factor *= float(option.payload)
        return {goal_id: Frequency.per_hour(rate * factor)
                for goal_id, rate in base.items()}

    return evaluate


class TestEvaluation:
    def test_all_combinations_evaluated(self, goals, axes):
        study = TradeStudy(goals, axes, make_evaluator(goals))
        assert study.combination_count() == 6
        results = study.evaluate_all()
        assert len(results) == 6

    def test_fulfilment_logic(self, goals, axes):
        study = TradeStudy(goals, axes, make_evaluator(goals))
        results = {r.label(): r for r in study.evaluate_all()}
        # nominal+standard: factor 1 → rates at 80% of budget → fulfils.
        assert results["driving_style=nominal + sensors=standard"].fulfils_all
        # performance+standard: factor 10 → violates.
        assert not results["driving_style=performance + "
                           "sensors=standard"].fulfils_all

    def test_cheapest_fulfilling(self, goals, axes):
        study = TradeStudy(goals, axes, make_evaluator(goals))
        best = study.cheapest_fulfilling()
        assert best is not None
        # performance+premium: factor 10*0.2=2 → violates (rates at 160%).
        # nominal+standard (cost 2) is the cheapest fulfilling combo.
        assert best.label() == "driving_style=nominal + sensors=standard"
        assert best.cost == 2.0

    def test_nothing_fulfils(self, goals, axes):
        def hopeless(selection):
            return {goal.goal_id: goal.max_frequency * 100.0
                    for goal in goals}

        study = TradeStudy(goals, axes, hopeless)
        assert study.cheapest_fulfilling() is None
        assert study.pareto_front() == []

    def test_pareto_front_no_domination(self, goals, axes):
        study = TradeStudy(goals, axes, make_evaluator(goals))
        front = study.pareto_front()
        assert front
        for a in front:
            for b in front:
                if a is b:
                    continue
                dominates = (b.cost <= a.cost
                             and b.worst_margin_decades
                             >= a.worst_margin_decades
                             and (b.cost < a.cost
                                  or b.worst_margin_decades
                                  > a.worst_margin_decades))
                assert not dominates

    def test_more_money_buys_margin_on_the_front(self, goals, axes):
        study = TradeStudy(goals, axes, make_evaluator(goals))
        front = study.pareto_front()
        costs = [r.cost for r in front]
        margins = [r.worst_margin_decades for r in front]
        assert costs == sorted(costs)
        assert margins == sorted(margins)

    def test_evaluator_must_cover_all_goals(self, goals, axes):
        def partial(selection):
            goal = next(iter(goals))
            return {goal.goal_id: goal.max_frequency}

        study = TradeStudy(goals, axes, partial)
        with pytest.raises(ValueError, match="omitted"):
            study.evaluate_all()

    def test_unit_mismatch_detected(self, goals, axes):
        def wrong_units(selection):
            return {goal.goal_id: Frequency.per_km(1e-9) for goal in goals}

        study = TradeStudy(goals, axes, wrong_units)
        with pytest.raises(ValueError, match="budget"):
            study.evaluate_all()

    def test_report(self, goals, axes):
        study = TradeStudy(goals, axes, make_evaluator(goals))
        text = study.report()
        assert "6 combinations" in text
        assert "driving_style=cautious" in text


class TestValidation:
    def test_option_validation(self):
        with pytest.raises(ValueError):
            TradeOption("", cost=1.0)
        with pytest.raises(ValueError):
            TradeOption("x", cost=-1.0)

    def test_axis_validation(self):
        with pytest.raises(ValueError):
            TradeAxis("a", ())
        option = TradeOption("x", 1.0)
        with pytest.raises(ValueError, match="duplicate"):
            TradeAxis("a", (option, option))

    def test_study_validation(self, goals, axes):
        with pytest.raises(ValueError):
            TradeStudy(goals, [], lambda s: {})
        with pytest.raises(ValueError, match="duplicate axis"):
            TradeStudy(goals, [axes[0], axes[0]], lambda s: {})

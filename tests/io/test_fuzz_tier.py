"""The ``fuzz`` tier: ≥500 deterministic corruptions per registered schema.

Every registered artifact loader is driven against the seed-stable
corpus from :class:`repro.testing.ArtifactFuzzer` and must uphold the
boundary contract (DESIGN §10):

* **zero untyped exceptions** — every rejection is an
  :class:`~repro.errors.ArtifactError` subclass, never a bare
  ``KeyError`` / ``TypeError`` / ``JSONDecodeError`` / ``RecursionError``;
* **zero silently-accepted value changes** — a byte-lane mutation either
  raises or loads an object equal to the pristine one (the digest makes
  any value change detectable);
* **coherent acceptance** — a re-signed structural mutation that passes
  validation is a legitimately different valid artifact, and its own
  re-dump must round-trip cleanly;
* the pristine save→load round trip is **bit-for-bit**.

Run with ``pytest -q -m fuzz`` (CI gives this lane its own timeout box).
"""

from __future__ import annotations

import pytest

from repro.errors import ArtifactError
from repro.io import ARTIFACTS, load_builtin_schemas
from repro.testing import ArtifactFuzzer, BYTE_MUTATORS, STRUCTURAL_MUTATORS

pytestmark = pytest.mark.fuzz

FUZZ_SEED = 2020
CASES_PER_SCHEMA = 500


def _schemas():
    return [pytest.param(schema, id=schema.name)
            for schema in load_builtin_schemas()]


@pytest.mark.parametrize("schema", _schemas())
def test_corruption_corpus_upholds_boundary_contract(schema):
    pristine = schema.example()
    text = ARTIFACTS.dump_text(schema.name, pristine)
    corpus = ArtifactFuzzer(FUZZ_SEED).cases(text, CASES_PER_SCHEMA)
    assert len(corpus) == CASES_PER_SCHEMA
    for case in corpus:
        try:
            loaded = ARTIFACTS.load_bytes(case.data, schema.name)
        except ArtifactError:
            continue  # typed rejection: the contract's happy failure path
        except Exception as exc:  # noqa: BLE001 - the assertion under test
            pytest.fail(
                f"{schema.name} case {case.label}: untyped "
                f"{type(exc).__name__}: {exc}")
        if case.resigned:
            # Structurally mutated but carrying a valid digest: if the
            # loader accepts it, it must be a coherent artifact — its
            # own re-dump round-trips to an equal object.
            text2 = ARTIFACTS.dump_text(schema.name, loaded)
            again = ARTIFACTS.load_text(text2, schema.name)
            assert schema.instances_equal(loaded, again), (
                f"{schema.name} case {case.label}: accepted artifact does "
                f"not re-dump idempotently")
        else:
            # Raw byte damage with the original digest: acceptance is
            # only legitimate when nothing semantic changed.
            assert schema.instances_equal(loaded, pristine), (
                f"{schema.name} case {case.label}: byte-lane corruption "
                f"was silently accepted with changed values")


@pytest.mark.parametrize("schema", _schemas())
def test_pristine_roundtrip_bit_for_bit(schema):
    pristine = schema.example()
    text = ARTIFACTS.dump_text(schema.name, pristine)
    loaded = ARTIFACTS.load_text(text, schema.name)
    assert schema.instances_equal(loaded, pristine)
    text2 = ARTIFACTS.dump_text(schema.name, loaded)
    assert text2 == text  # byte-identical including the digest


def test_fuzzer_is_seed_deterministic():
    schema = load_builtin_schemas()[0]
    text = ARTIFACTS.dump_text(schema.name, schema.example())
    first = ArtifactFuzzer(7).cases(text, 120)
    second = ArtifactFuzzer(7).cases(text, 120)
    assert first == second  # same seed -> bit-identical corpus
    other = ArtifactFuzzer(8).cases(text, 120)
    assert first != other  # different seed -> different corpus


def test_corpus_exercises_every_mutator():
    """With 500 draws the deterministic stream hits all mutators in both
    lanes (pinned by the fixed seed; a regression in lane selection or a
    renamed mutator shows up here)."""
    schema = next(s for s in load_builtin_schemas()
                  if s.name == "repro.run-manifest")
    text = ARTIFACTS.dump_text(schema.name, schema.example())
    corpus = ArtifactFuzzer(FUZZ_SEED).cases(text, CASES_PER_SCHEMA)
    seen = {case.label.split("-", 1)[1] for case in corpus}
    assert set(BYTE_MUTATORS) <= seen
    assert set(STRUCTURAL_MUTATORS) <= seen
    assert any(case.resigned for case in corpus)
    assert any(not case.resigned for case in corpus)

"""Unit tests for the hardened artifact I/O boundary (DESIGN §10).

Covers the store's core promises in isolation: digest write/verify,
typed failure taxonomy, strict-vs-lenient validation, schema tag
checking, version migrations, and atomic no-residue writes.  The
broad-spectrum corruption coverage lives in the ``fuzz`` tier
(``test_fuzz_tier.py``); these are the targeted regressions.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.errors import (ArtifactError, ArtifactValidationError,
                          CorruptArtifactError, ReproError,
                          SchemaMismatchError, SchemaVersionError)
from repro.io import (ARTIFACTS, DIGEST_KEY, ArtifactSchema, ArtifactStore,
                      Int, Record, Str, atomic_write_text,
                      canonical_payload_text, load_builtin_schemas,
                      parse_artifact_bytes, parse_artifact_text,
                      parse_schema_tag, payload_digest)

load_builtin_schemas()

GOAL_SET = "repro.goal-set"


def _goal_set_example():
    return ARTIFACTS.get(GOAL_SET).example()


# -- error taxonomy -------------------------------------------------------

def test_error_taxonomy_shape():
    assert issubclass(ArtifactError, ReproError)
    assert issubclass(ArtifactError, ValueError)  # legacy except-sites
    for sub in (CorruptArtifactError, SchemaMismatchError,
                SchemaVersionError, ArtifactValidationError):
        assert issubclass(sub, ArtifactError)
    assert ReproError.exit_code == 4


def test_error_carries_context():
    err = ArtifactValidationError("bad field", source="/tmp/x.json",
                                  schema="repro.goal-set/v1",
                                  field="$.goals[0].type_id")
    assert err.source == "/tmp/x.json"
    assert err.schema == "repro.goal-set/v1"
    assert err.field == "$.goals[0].type_id"
    assert str(err).startswith("/tmp/x.json: ")


# -- digest ----------------------------------------------------------------

def test_save_load_roundtrip(tmp_path):
    path = tmp_path / "goals.json"
    pristine = _goal_set_example()
    ARTIFACTS.save(path, GOAL_SET, pristine)
    data = json.loads(path.read_text())
    assert data["schema"] == "repro.goal-set/v1"
    assert data[DIGEST_KEY].startswith("sha256:")
    back = ARTIFACTS.load(path, GOAL_SET)
    schema = ARTIFACTS.get(GOAL_SET)
    assert schema.instances_equal(back, pristine)


def test_digest_covers_values_not_formatting(tmp_path):
    """Re-indenting the file by hand keeps the digest valid; changing a
    value invalidates it."""
    path = tmp_path / "goals.json"
    ARTIFACTS.save(path, GOAL_SET, _goal_set_example())
    data = json.loads(path.read_text())
    # compact re-serialisation: same values, different formatting
    path.write_text(json.dumps(data, sort_keys=True))
    ARTIFACTS.load(path, GOAL_SET)  # loads fine


def test_value_tamper_detected(tmp_path):
    path = tmp_path / "goals.json"
    ARTIFACTS.save(path, GOAL_SET, _goal_set_example())
    data = json.loads(path.read_text())
    data["goals"][0]["max_frequency_rate"] = 123.0  # the attack
    path.write_text(json.dumps(data))
    with pytest.raises(CorruptArtifactError, match="digest mismatch"):
        ARTIFACTS.load(path, GOAL_SET)


def test_digest_tamper_detected(tmp_path):
    path = tmp_path / "goals.json"
    ARTIFACTS.save(path, GOAL_SET, _goal_set_example())
    data = json.loads(path.read_text())
    data[DIGEST_KEY] = "sha256:" + "0" * 64
    path.write_text(json.dumps(data))
    with pytest.raises(CorruptArtifactError, match="digest mismatch"):
        ARTIFACTS.load(path, GOAL_SET)


def test_truncation_detected(tmp_path):
    path = tmp_path / "goals.json"
    ARTIFACTS.save(path, GOAL_SET, _goal_set_example())
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) // 2])
    with pytest.raises(CorruptArtifactError):
        ARTIFACTS.load(path, GOAL_SET)


def test_missing_file_is_typed(tmp_path):
    with pytest.raises(CorruptArtifactError, match="cannot read"):
        ARTIFACTS.load(tmp_path / "nope.json", GOAL_SET)


def test_legacy_digest_free_file_loads(tmp_path):
    """Files written before the boundary existed (no digest) still load."""
    path = tmp_path / "legacy.json"
    pristine = _goal_set_example()
    schema = ARTIFACTS.get(GOAL_SET)
    payload = schema.dump(pristine)  # neither tag nor digest
    path.write_text(json.dumps(payload))
    back = ARTIFACTS.load(path, GOAL_SET, require_tag=False)
    assert schema.instances_equal(back, pristine)


def test_payload_digest_is_formatting_independent():
    doc = {"b": 1.5, "a": [1, 2]}
    assert payload_digest(doc) == payload_digest({"a": [1, 2], "b": 1.5})
    assert canonical_payload_text(doc) == '{"a":[1,2],"b":1.5}'


# -- schema tags -----------------------------------------------------------

def test_parse_schema_tag():
    assert parse_schema_tag("repro.goal-set/v1") == ("repro.goal-set", 1)
    with pytest.raises(ValueError, match="malformed"):
        parse_schema_tag("not a tag")


def test_missing_tag_names_expected(tmp_path):
    path = tmp_path / "goals.json"
    ARTIFACTS.save(path, GOAL_SET, _goal_set_example())
    data = json.loads(path.read_text())
    del data["schema"]
    del data[DIGEST_KEY]
    path.write_text(json.dumps(data))
    with pytest.raises(SchemaMismatchError,
                       match=r"missing schema tag.*repro\.goal-set/v1"):
        ARTIFACTS.load(path, GOAL_SET)


def test_unknown_tag_names_expected_and_found(tmp_path):
    path = tmp_path / "goals.json"
    ARTIFACTS.save(path, GOAL_SET, _goal_set_example())
    data = json.loads(path.read_text())
    data["schema"] = "repro.other-thing/v1"
    del data[DIGEST_KEY]
    path.write_text(json.dumps(data))
    with pytest.raises(
            SchemaMismatchError,
            match=r"repro\.other-thing/v1.*expected.*repro\.goal-set/v1"):
        ARTIFACTS.load(path, GOAL_SET)


def test_top_level_non_object_is_typed():
    with pytest.raises(ArtifactValidationError, match="top level"):
        ARTIFACTS.load_text("[1, 2, 3]", GOAL_SET)


# -- parsing hardening -----------------------------------------------------

@pytest.mark.parametrize("text", ["", "{", "null extra", '{"a": NaN}',
                                  '{"a": Infinity}', '{"a": -Infinity}'])
def test_parse_rejections_are_typed(text):
    with pytest.raises(CorruptArtifactError):
        parse_artifact_text(text)
    if text in ("null extra",):
        return
    with pytest.raises(CorruptArtifactError):
        ARTIFACTS.load_text(text, GOAL_SET)


def test_nesting_bomb_is_typed():
    bomb = "[" * 5000 + "]" * 5000
    with pytest.raises(CorruptArtifactError):
        parse_artifact_text(bomb)


def test_invalid_utf8_is_typed():
    with pytest.raises(CorruptArtifactError, match="UTF-8"):
        parse_artifact_bytes(b'{"a": "\xff\xfe"}')


# -- strict vs lenient validation -----------------------------------------

def _store_with_toy(version=2, migrations=None):
    store = ArtifactStore()
    spec = Record(required={"name": Str(), "count": Int()},
                  optional={"note": Str()})
    store.register(ArtifactSchema(
        name="toy.widget", version=version, spec=spec,
        load=lambda d: (d["name"], d["count"], d.get("note", "")),
        dump=lambda w: {"name": w[0], "count": w[1], "note": w[2]},
        label="widget", migrations=migrations or {}))
    return store


def test_lenient_mode_tolerates_absent_optional_and_unknown():
    store = _store_with_toy()
    doc = {"schema": "toy.widget/v2", "name": "w", "count": 3,
           "future_field": True}  # no digest: lenient
    assert store.load_dict(doc, "toy.widget") == ("w", 3, "")


def test_strict_mode_requires_optional_and_rejects_unknown():
    store = _store_with_toy()
    complete = {"schema": "toy.widget/v2", "name": "w", "count": 3,
                "note": "n"}
    signed = dict(complete)
    signed[DIGEST_KEY] = payload_digest(complete)
    assert store.load_dict(signed, "toy.widget") == ("w", 3, "n")

    absent = {"schema": "toy.widget/v2", "name": "w", "count": 3}
    absent[DIGEST_KEY] = payload_digest(
        {k: v for k, v in absent.items() if k != DIGEST_KEY})
    with pytest.raises(ArtifactValidationError, match="missing field"):
        store.load_dict(absent, "toy.widget")

    extra = dict(complete)
    extra["surprise"] = 1
    extra[DIGEST_KEY] = payload_digest(
        {k: v for k, v in extra.items() if k != DIGEST_KEY})
    with pytest.raises(ArtifactValidationError, match="unknown field"):
        store.load_dict(extra, "toy.widget")


def test_validation_error_carries_dotted_field_path():
    store = _store_with_toy()
    doc = {"schema": "toy.widget/v2", "name": "w", "count": "three"}
    with pytest.raises(ArtifactValidationError) as info:
        store.load_dict(doc, "toy.widget")
    assert info.value.field == "$.count"


# -- migrations ------------------------------------------------------------

def test_migration_chain_upgrades_old_payloads():
    def v1_to_v2(payload):
        payload = dict(payload)
        payload["count"] = payload.pop("n")
        return payload

    store = _store_with_toy(migrations={1: v1_to_v2})
    old = {"schema": "toy.widget/v1", "name": "w", "n": 7}
    assert store.load_dict(old, "toy.widget") == ("w", 7, "")


def test_version_newer_than_supported():
    store = _store_with_toy()
    doc = {"schema": "toy.widget/v9", "name": "w", "count": 3}
    with pytest.raises(SchemaVersionError, match="newer than this build"):
        store.load_dict(doc, "toy.widget")


def test_missing_migration_path():
    store = _store_with_toy()  # no migrations registered
    doc = {"schema": "toy.widget/v1", "name": "w", "n": 3}
    with pytest.raises(SchemaVersionError, match="no migration path"):
        store.load_dict(doc, "toy.widget")


def test_duplicate_registration_rejected():
    store = _store_with_toy()
    other = ArtifactSchema(name="toy.widget", version=1,
                           spec=Record(required={}), load=dict, dump=dict)
    with pytest.raises(ValueError, match="already registered"):
        store.register(other)


def test_unknown_schema_name():
    with pytest.raises(ValueError, match="no artifact schema registered"):
        ARTIFACTS.get("repro.nonexistent")


# -- write-side validation & atomicity ------------------------------------

def test_refuses_to_write_non_json_payload(tmp_path):
    store = _store_with_toy()
    with pytest.raises(ArtifactError):
        store.save(tmp_path / "w.json", "toy.widget",
                   (object(), 1, ""))  # dump produces a non-JSON value


def test_atomic_write_leaves_no_residue(tmp_path):
    path = tmp_path / "nested" / "goals.json"
    ARTIFACTS.save(path, GOAL_SET, _goal_set_example())
    ARTIFACTS.save(path, GOAL_SET, _goal_set_example())  # overwrite
    assert sorted(p.name for p in path.parent.iterdir()) == ["goals.json"]


def test_atomic_write_text_failure_keeps_previous(tmp_path):
    path = tmp_path / "file.txt"
    atomic_write_text(path, "first")
    assert path.read_text() == "first"
    atomic_write_text(path, "second")
    assert path.read_text() == "second"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file.txt"]


def test_everything_written_reloads(tmp_path):
    """dump validates strictly before writing, so a save can never
    produce a file the same build refuses to load."""
    for schema in load_builtin_schemas():
        assert schema.example is not None, schema.name
        path = tmp_path / f"{schema.name}.json"
        ARTIFACTS.save(path, schema.name, schema.example())
        back = ARTIFACTS.load(path, schema.name)
        assert schema.instances_equal(back, schema.example()), schema.name


def test_registry_covers_all_builtin_artifacts():
    names = {s.name for s in load_builtin_schemas()}
    assert names == {
        "repro.incident-type", "repro.allocation", "repro.mece-certificate",
        "repro.goal-set", "repro.run-manifest", "repro.campaign-checkpoint",
        "repro.checkpoint-log", "repro.record-block", "repro.event-log",
    }


def test_reads_ignore_permission_style_oserrors(tmp_path):
    directory = tmp_path / "adir"
    directory.mkdir()
    # reading a directory raises IsADirectoryError -> typed
    with pytest.raises(CorruptArtifactError):
        ARTIFACTS.load(directory, GOAL_SET)


def test_fsync_can_be_disabled_for_tests(tmp_path):
    path = tmp_path / "x.txt"
    atomic_write_text(path, "data", durable=False)
    assert path.read_text() == "data"
    assert os.path.exists(path)

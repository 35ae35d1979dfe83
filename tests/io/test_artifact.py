"""Unit tests for the hardened artifact I/O boundary (DESIGN §10).

Covers the store's core promises in isolation: digest write/verify,
typed failure taxonomy, one-mode validation, schema tag and version
checking, the one-format read rule, and atomic no-residue writes.  The
broad-spectrum corruption coverage lives in the ``fuzz`` tier
(``test_fuzz_tier.py``); these are the targeted regressions.
"""

from __future__ import annotations

import copy
import json
import os

import pytest

from repro.core.serialize import (allocation_from_dict,
                                  certificate_from_dict, goal_set_from_dict,
                                  incident_type_from_dict)
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
    data[DIGEST_KEY] = payload_digest(data)  # re-signed without its tag
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
    data[DIGEST_KEY] = payload_digest(data)  # re-signed under a foreign tag
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


# -- validation ------------------------------------------------------------

def _store_with_toy(version=2):
    store = ArtifactStore()
    spec = Record(required={"name": Str(), "count": Int(), "note": Str()})
    store.register(ArtifactSchema(
        name="toy.widget", version=version, spec=spec,
        load=lambda d: (d["name"], d["count"], d["note"]),
        dump=lambda w: {"name": w[0], "count": w[1], "note": w[2]},
        label="widget"))
    return store


def test_strict_mode_requires_optional_and_rejects_unknown():
    """A record carries every declared field and no other."""
    store = _store_with_toy()
    complete = {"schema": "toy.widget/v2", "name": "w", "count": 3,
                "note": "n"}
    signed = dict(complete)
    signed[DIGEST_KEY] = payload_digest(complete)
    assert store.load_dict(signed, "toy.widget") == ("w", 3, "n")

    absent = {"schema": "toy.widget/v2", "name": "w", "count": 3}
    absent[DIGEST_KEY] = payload_digest(
        {k: v for k, v in absent.items() if k != DIGEST_KEY})
    with pytest.raises(ArtifactValidationError,
                       match="missing required field"):
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


# -- versions --------------------------------------------------------------

def test_version_newer_than_supported():
    store = _store_with_toy()
    doc = {"schema": "toy.widget/v9", "name": "w", "count": 3}
    with pytest.raises(SchemaVersionError, match="newer than this build"):
        store.load_dict(doc, "toy.widget")


def test_missing_migration_path():
    """An older version is refused too: there is no migration path."""
    store = _store_with_toy()
    doc = {"schema": "toy.widget/v1", "name": "w", "count": 3, "note": ""}
    with pytest.raises(SchemaVersionError,
                       match=r"'toy\.widget/v1' is older than this build "
                             r"supports.*'toy\.widget/v2'"):
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
        "repro.goal-set", "repro.run-manifest", "repro.checkpoint-log",
        "repro.record-block", "repro.event-log",
    }


# -- one format per artifact ----------------------------------------------

def _builtin_schemas():
    return [pytest.param(schema, id=schema.name)
            for schema in load_builtin_schemas()]


@pytest.mark.parametrize("schema", _builtin_schemas())
def test_unsigned_document_is_refused(schema):
    """A stored document without its digest is refused, not validated
    leniently: deleting the digest line cannot switch the check off."""
    data = json.loads(ARTIFACTS.dump_text(schema.name, schema.example()))
    del data[DIGEST_KEY]
    with pytest.raises(CorruptArtifactError, match=DIGEST_KEY):
        ARTIFACTS.load_text(json.dumps(data), schema.name)


@pytest.mark.parametrize("version", [0, 2])
@pytest.mark.parametrize("schema", _builtin_schemas())
def test_other_version_is_refused(schema, version):
    data = json.loads(ARTIFACTS.dump_text(schema.name, schema.example()))
    del data[DIGEST_KEY]
    data["schema"] = f"{schema.name}/v{version}"
    data[DIGEST_KEY] = payload_digest(data)
    with pytest.raises(SchemaVersionError) as info:
        ARTIFACTS.load_text(json.dumps(data), schema.name)
    assert f"'{schema.name}/v{version}'" in str(info.value)
    assert f"'{schema.tag}'" in str(info.value)


#: ``*_from_dict`` per ``core.serialize`` schema, and the fields each
#: ``*_to_dict`` writes that a payload must no longer omit.
_FROM_DICT = {
    "repro.incident-type": incident_type_from_dict,
    "repro.allocation": allocation_from_dict,
    "repro.mece-certificate": certificate_from_dict,
    "repro.goal-set": goal_set_from_dict,
}
_FORMERLY_OPTIONAL = ("description", "taxonomy_leaf", "induced",
                      "rationale", "strategy", "point")


def _field_paths(node, path="$"):
    """``(keys, dotted path)`` of every formerly optional field."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        child_path = (f"{path}.{key}" if isinstance(key, str)
                      else f"{path}[{key}]")
        if key in _FORMERLY_OPTIONAL:
            yield (key,), child_path
        for keys, deeper in _field_paths(child, child_path):
            yield (key,) + keys, deeper


@pytest.mark.parametrize("name", sorted(_FROM_DICT))
def test_from_dict_requires_every_written_field(name):
    schema = ARTIFACTS.get(name)
    payload = schema.dump(schema.example())
    paths = list(_field_paths(payload))
    assert paths, name
    for keys, dotted in paths:
        damaged = copy.deepcopy(payload)
        parent = damaged
        for key in keys[:-1]:
            parent = parent[key]
        del parent[keys[-1]]
        with pytest.raises(ArtifactValidationError) as info:
            _FROM_DICT[name](damaged)
        assert info.value.field == dotted, (name, dotted)


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

"""Unit tests for the RunManifest artifact."""

from __future__ import annotations

import json

import pytest

from repro.core import derive_safety_goals
from repro.core.verification import verify_against_counts
from repro.obs import (MANIFEST_SCHEMA, RunManifest, build_manifest,
                       collect_versions, git_sha, maybe_span,
                       telemetry_session)


@pytest.fixture
def snapshot():
    with telemetry_session() as session:
        session.metrics.counter("sim.encounters").inc(123)
        with maybe_span("run_fleet"):
            pass
    return session.snapshot()


class TestBuildManifest:
    def test_minimal(self, snapshot):
        manifest = build_manifest(snapshot, command="repro fleet")
        assert manifest.schema == MANIFEST_SCHEMA
        assert manifest.metrics["sim.encounters"]["value"] == 123
        assert "run_fleet" in manifest.spans["children"]
        assert manifest.budget_utilisation is None
        assert "python" in manifest.versions

    def test_full_provenance_fields(self, snapshot):
        manifest = build_manifest(
            snapshot, command="repro fleet", seed=2020, engine="vectorized",
            policy="nominal", hours=500.0, mix={"urban": 1.0}, workers=4,
            chunk_hours=125.0, n_chunks=4, summary={"incidents": 7})
        assert manifest.seed == 2020
        assert manifest.engine == "vectorized"
        assert manifest.policy == "nominal"
        assert manifest.n_chunks == 4
        assert manifest.summary == {"incidents": 7}

    def test_budget_report_embedded(self, snapshot, allocation):
        goals = derive_safety_goals(allocation)
        report = verify_against_counts(goals, {"I1": 2}, 400.0)
        manifest = build_manifest(snapshot, command="repro fleet",
                                  budget_report=report)
        rows = manifest.budget_utilisation
        assert rows == report.to_rows()
        kinds = {row["kind"] for row in rows}
        assert kinds == {"incident_type", "consequence_class"}
        by_id = {row["budget_id"]: row for row in rows}
        assert by_id["I1"]["observed"] == 2.0
        assert 0.0 < by_id["I1"]["rate"] <= by_id["I1"]["rate_upper"]

    def test_versions_and_git_sha_are_strings(self):
        versions = collect_versions()
        assert all(isinstance(v, str) for v in versions.values())
        assert "numpy" in versions
        sha = git_sha()
        assert isinstance(sha, str) and sha


class TestRoundTrip:
    def test_write_read(self, snapshot, tmp_path):
        manifest = build_manifest(snapshot, command="repro dossier",
                                  seed=1, hours=10.0)
        path = tmp_path / "nested" / "manifest.json"
        manifest.write(path)  # creates parent dirs
        back = RunManifest.read(path)
        assert back == manifest
        # the on-disk form is plain sorted-key JSON
        data = json.loads(path.read_text())
        assert data["schema"] == MANIFEST_SCHEMA
        assert list(data) == sorted(data)

    def test_failure_log_round_trips(self, snapshot, tmp_path):
        from repro.stats import ChunkFailure

        failures = [
            ChunkFailure(chunk_index=2, attempt=1, kind="exception",
                         message="boom").to_dict(),
            ChunkFailure(chunk_index=2, attempt=2, kind="invalid",
                         message="NaN hours").to_dict(),
        ]
        manifest = build_manifest(snapshot, command="repro fleet",
                                  failure_log=failures)
        assert manifest.failure_log == failures
        path = tmp_path / "manifest.json"
        manifest.write(path)
        assert RunManifest.read(path).failure_log == failures

    def test_fault_free_failure_log_is_none(self, snapshot):
        manifest = build_manifest(snapshot, command="repro fleet")
        assert manifest.failure_log is None
        back = RunManifest.from_dict(manifest.to_dict())
        assert back.failure_log is None

    def test_unknown_schema_rejected(self, snapshot, tmp_path):
        manifest = build_manifest(snapshot, command="x")
        data = manifest.to_dict()
        data["schema"] = "something/else"
        with pytest.raises(ValueError, match="schema"):
            RunManifest.from_dict(data)


class TestArtifactBoundary:
    """Regression coverage for the repro.io integration (DESIGN §10)."""

    def test_missing_schema_tag_names_expected_and_found(self, snapshot):
        data = build_manifest(snapshot, command="x").to_dict()
        del data["schema"]
        from repro.errors import SchemaMismatchError
        with pytest.raises(SchemaMismatchError,
                           match=r"missing schema tag.*repro\.run-manifest/v1"):
            RunManifest.from_dict(data)

    def test_unknown_schema_tag_names_both_tags(self, snapshot):
        data = build_manifest(snapshot, command="x").to_dict()
        data["schema"] = "something/else"
        from repro.errors import SchemaMismatchError
        with pytest.raises(
                SchemaMismatchError,
                match=r"'something/else'.*expected 'repro\.run-manifest/v1'"):
            RunManifest.from_dict(data)

    def test_written_manifest_carries_digest(self, snapshot, tmp_path):
        path = tmp_path / "manifest.json"
        build_manifest(snapshot, command="x").write(path)
        data = json.loads(path.read_text())
        assert data["payload_sha256"].startswith("sha256:")

    def test_digest_tamper_detected_on_read(self, snapshot, tmp_path):
        path = tmp_path / "manifest.json"
        build_manifest(snapshot, command="x", seed=7).write(path)
        data = json.loads(path.read_text())
        data["seed"] = 8  # the bit that silently changes a provenance claim
        path.write_text(json.dumps(data))
        from repro.errors import CorruptArtifactError
        with pytest.raises(CorruptArtifactError, match="digest mismatch"):
            RunManifest.read(path)

    def test_truncated_manifest_is_typed(self, snapshot, tmp_path):
        path = tmp_path / "manifest.json"
        build_manifest(snapshot, command="x").write(path)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) // 3])
        from repro.errors import ArtifactError
        with pytest.raises(ArtifactError):
            RunManifest.read(path)

    def test_digest_free_manifest_is_refused(self, snapshot, tmp_path):
        path = tmp_path / "manifest.json"
        build_manifest(snapshot, command="x").write(path)
        data = json.loads(path.read_text())
        del data["payload_sha256"]
        path.write_text(json.dumps(data))
        from repro.errors import CorruptArtifactError
        with pytest.raises(CorruptArtifactError, match="payload_sha256"):
            RunManifest.read(path)

"""Run manifests: the frozen provenance artifact of one campaign.

A :class:`RunManifest` is the JSON document a ``--telemetry PATH`` run
writes next to its results: everything needed to (a) reproduce the run
(seed, engine, policy, hours, mix, worker count, chunk plan, package
versions, git SHA) and (b) audit what happened inside it (the aggregated
span tree, the merged metrics snapshot, and — when a goal set is in
scope — the per-incident-type / per-consequence-class budget table of
:meth:`~repro.core.verification.VerificationReport.to_rows`).

The manifest is a pure record: building one never perturbs the campaign
(no RNG access, no mutation of the session it snapshots).  ``write`` /
``read`` round-trip through the :mod:`repro.io` artifact boundary
(DESIGN §10): writes are atomic and carry an embedded payload sha256
digest, reads require and verify it, and a missing/unknown ``schema``
tag or corrupt content fails fast with the typed
:class:`~repro.errors.ArtifactError` taxonomy instead of a mis-parse.  On-disk form stays sorted-key JSON so
manifests diff cleanly in review.
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence

from ..io.artifact import ARTIFACTS, ArtifactSchema, register_artifact
from ..io.validate import (Int, Json, ListOf, MapOf, NullOr, Number, Record,
                           Str)
from .session import TelemetrySnapshot

__all__ = ["MANIFEST_SCHEMA", "MANIFEST_SCHEMA_NAME", "RunManifest",
           "build_manifest", "collect_versions", "git_sha"]

MANIFEST_SCHEMA_NAME = "repro.run-manifest"
MANIFEST_SCHEMA = f"{MANIFEST_SCHEMA_NAME}/v1"


def collect_versions() -> Dict[str, str]:
    """Best-effort version stamps for the packages that matter here."""
    versions: Dict[str, str] = {
        "python": platform.python_version(),
    }
    try:
        from .. import __version__ as repro_version
        versions["repro"] = str(repro_version)
    except Exception:  # pragma: no cover - version attr is optional
        versions["repro"] = "unknown"
    for name in ("numpy", "scipy"):
        module = sys.modules.get(name)
        if module is None:
            try:
                module = __import__(name)
            except Exception:  # pragma: no cover - optional dependency
                continue
        versions[name] = str(getattr(module, "__version__", "unknown"))
    return versions


def git_sha(cwd: Optional[Path] = None) -> str:
    """The repository HEAD SHA, or ``"unknown"`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(cwd) if cwd is not None else None,
            capture_output=True, text=True, timeout=5, check=False)
    except Exception:  # pragma: no cover - git missing entirely
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return out.stdout.strip() or "unknown"


@dataclass(frozen=True)
class RunManifest:
    """Frozen provenance + telemetry record of one campaign run."""

    schema: str
    created_utc: str
    command: str
    seed: Optional[int]
    engine: Optional[str]
    policy: Optional[str]
    hours: Optional[float]
    mix: Optional[Dict[str, float]]
    workers: Optional[int]
    chunk_hours: Optional[float]
    n_chunks: Optional[int]
    versions: Dict[str, str]
    git_sha: str
    platform: str
    spans: Dict[str, object]
    metrics: Dict[str, object]
    budget_utilisation: Optional[List[Dict[str, object]]] = None
    summary: Dict[str, object] = field(default_factory=dict)
    failure_log: Optional[List[Dict[str, object]]] = None
    """Recovered-fault audit trail: one entry per
    :class:`~repro.stats.fault_tolerance.ChunkFailure` the campaign's
    retry layer logged (``chunk_index``/``attempt``/``kind``/``message``).
    ``None`` for fault-free runs."""

    event_log: Optional[str] = None
    """Pointer to the campaign's flight-recorder journal (the
    ``repro.event-log/v1`` JSONL file), when one was recorded.  ``None``
    for recorder-less runs.  Replaying the pointed journal must
    reconstruct this manifest's counters and budget table exactly."""

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "schema": self.schema,
            "created_utc": self.created_utc,
            "command": self.command,
            "seed": self.seed,
            "engine": self.engine,
            "policy": self.policy,
            "hours": self.hours,
            "mix": self.mix,
            "workers": self.workers,
            "chunk_hours": self.chunk_hours,
            "n_chunks": self.n_chunks,
            "versions": dict(self.versions),
            "git_sha": self.git_sha,
            "platform": self.platform,
            "spans": self.spans,
            "metrics": self.metrics,
            "budget_utilisation": self.budget_utilisation,
            "summary": dict(self.summary),
            "failure_log": self.failure_log,
            "event_log": self.event_log,
        }
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "RunManifest":
        """Validate + rebuild through the artifact boundary.

        A missing or unknown ``schema`` tag raises
        :class:`~repro.errors.SchemaMismatchError` naming the expected
        and found tags; structurally invalid content raises
        :class:`~repro.errors.ArtifactValidationError`.
        """
        manifest = ARTIFACTS.load_dict(data, MANIFEST_SCHEMA_NAME)
        assert isinstance(manifest, RunManifest)
        return manifest

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def write(self, path: Path) -> None:
        """Atomic, digest-signed write through the I/O boundary."""
        ARTIFACTS.save(Path(path), MANIFEST_SCHEMA_NAME, self)

    @classmethod
    def read(cls, path: Path) -> "RunManifest":
        """Load + verify one manifest file (typed errors only)."""
        manifest = ARTIFACTS.load(Path(path), MANIFEST_SCHEMA_NAME)
        assert isinstance(manifest, RunManifest)
        return manifest


def build_manifest(snapshot: TelemetrySnapshot, *, command: str,
                   seed: Optional[int] = None,
                   engine: Optional[str] = None,
                   policy: Optional[str] = None,
                   hours: Optional[float] = None,
                   mix: Optional[Mapping[str, float]] = None,
                   workers: Optional[int] = None,
                   chunk_hours: Optional[float] = None,
                   n_chunks: Optional[int] = None,
                   budget_report=None,
                   summary: Optional[Mapping[str, object]] = None,
                   failure_log: Optional[Sequence[Mapping[str, object]]] = None,
                   event_log: Optional[str] = None,
                   ) -> RunManifest:
    """Assemble a :class:`RunManifest` from a frozen telemetry snapshot.

    ``budget_report`` is an optional
    :class:`~repro.core.verification.VerificationReport`; its rows are
    embedded as plain dicts so the manifest stays self-contained.
    ``failure_log`` takes the plain-dict form of the campaign's recovered
    :class:`~repro.stats.fault_tolerance.ChunkFailure` entries (e.g.
    ``[f.to_dict() for f in failure_sink]``); pass ``None`` — not ``[]``
    — for a fault-free run so the manifest reads unambiguously.
    """
    budget_rows: Optional[List[Dict[str, object]]] = None
    if budget_report is not None:
        budget_rows = budget_report.to_rows()
    return RunManifest(
        schema=MANIFEST_SCHEMA,
        created_utc=datetime.now(timezone.utc).isoformat(),
        command=command,
        seed=seed,
        engine=engine,
        policy=policy,
        hours=hours,
        mix=None if mix is None else dict(mix),
        workers=workers,
        chunk_hours=chunk_hours,
        n_chunks=n_chunks,
        versions=collect_versions(),
        git_sha=git_sha(),
        platform=platform.platform(),
        spans=snapshot.spans.to_dict(),
        metrics=snapshot.metrics.to_dict(),
        budget_utilisation=budget_rows,
        summary={} if summary is None else dict(summary),
        failure_log=(None if failure_log is None
                     else [dict(row) for row in failure_log]),
        event_log=None if event_log is None else str(event_log),
    )


# -- artifact schema registration ----------------------------------------

def _load_manifest(data: Mapping[str, object]) -> RunManifest:
    mix = data["mix"]
    budget = data["budget_utilisation"]
    return RunManifest(
        schema=MANIFEST_SCHEMA,
        created_utc=str(data["created_utc"]),
        command=str(data["command"]),
        seed=(None if data["seed"] is None
              else int(data["seed"])),  # type: ignore[arg-type]
        engine=(None if data["engine"] is None
                else str(data["engine"])),
        policy=(None if data["policy"] is None
                else str(data["policy"])),
        hours=(None if data["hours"] is None
               else float(data["hours"])),  # type: ignore[arg-type]
        mix=(None if mix is None
             else {str(k): float(v)  # type: ignore[arg-type]
                   for k, v in dict(mix).items()}),  # type: ignore[call-overload]
        workers=(None if data["workers"] is None
                 else int(data["workers"])),  # type: ignore[arg-type]
        chunk_hours=(None if data["chunk_hours"] is None
                     else float(data["chunk_hours"])),  # type: ignore[arg-type]
        n_chunks=(None if data["n_chunks"] is None
                  else int(data["n_chunks"])),  # type: ignore[arg-type]
        versions={str(k): str(v) for k, v in
                  dict(data["versions"]).items()},  # type: ignore[call-overload]
        git_sha=str(data["git_sha"]),
        platform=str(data["platform"]),
        spans=dict(data["spans"]),  # type: ignore[call-overload]
        metrics=dict(data["metrics"]),  # type: ignore[call-overload]
        budget_utilisation=(
            None if budget is None
            else [dict(row) for row in budget]),  # type: ignore[union-attr]
        summary=dict(data["summary"]),  # type: ignore[call-overload]
        failure_log=(
            None if data["failure_log"] is None
            else [dict(row) for row in data["failure_log"]]),  # type: ignore[union-attr]
        event_log=(None if data["event_log"] is None
                   else str(data["event_log"])),
    )


def _example_manifest() -> RunManifest:
    """A small deterministic manifest for the fuzz tier."""
    return RunManifest(
        schema=MANIFEST_SCHEMA,
        created_utc="2026-01-01T00:00:00+00:00",
        command="repro fleet",
        seed=2020,
        engine="vectorized",
        policy="nominal",
        hours=500.0,
        mix={"urban": 0.5, "highway": 0.5},
        workers=4,
        chunk_hours=125.0,
        n_chunks=4,
        versions={"python": "3.12.0", "repro": "1.0.0"},
        git_sha="0123456789abcdef0123456789abcdef01234567",
        platform="Linux-example",
        spans={"count": 0, "total_s": 0.0,
               "children": {"run_fleet": {"count": 1, "total_s": 1.25,
                                          "min_s": 1.25, "max_s": 1.25}}},
        metrics={"sim.encounters": {"kind": "counter", "value": 123}},
        budget_utilisation=[{"budget_id": "I1", "kind": "incident_type",
                             "observed": 2.0, "rate_upper": 1e-05,
                             "verdict": "inconclusive"}],
        summary={"incidents": 7},
        failure_log=[{"chunk_index": 2, "attempt": 1, "kind": "exception",
                      "message": "boom"}],
        event_log="out/flight/journal.jsonl",
    )


_MANIFEST_SPEC = Record(
    required={
        "created_utc": Str(),
        "command": Str(),
        "seed": NullOr(Int()),
        "engine": NullOr(Str()),
        "policy": NullOr(Str()),
        "hours": NullOr(Number()),
        "mix": NullOr(MapOf(Number())),
        "workers": NullOr(Int()),
        "chunk_hours": NullOr(Number()),
        "n_chunks": NullOr(Int()),
        "versions": MapOf(Str()),
        "git_sha": Str(),
        "platform": Str(),
        "spans": Json(),
        "metrics": Json(),
        "budget_utilisation": NullOr(ListOf(Json())),
        "summary": Json(),
        "failure_log": NullOr(ListOf(Json())),
        "event_log": NullOr(Str()),
    })

register_artifact(ArtifactSchema(
    name=MANIFEST_SCHEMA_NAME,
    version=1,
    spec=_MANIFEST_SPEC,
    load=_load_manifest,
    dump=RunManifest.to_dict,
    label="manifest",
    example=_example_manifest,
))

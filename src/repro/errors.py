"""Typed error taxonomy for the reproduction toolkit.

The QRN work products this package emits — goal sets, checkpoints, run
manifests — are *audit artifacts*: an assessor reloads them months later
and must be able to trust what they say, and a resumed campaign
re-ingests them as ground truth.  That makes the failure mode of a
loader part of the safety argument: a truncated checkpoint that parses
"successfully" into half a campaign is worse than a crash, and a crash
that surfaces as a raw ``KeyError`` traceback tells an auditor nothing.

This module is the root of the error contract (DESIGN §10):

* :class:`ReproError` — every intentional, user-facing failure raised by
  this package.  The CLI maps these to one-line ``error: …``
  diagnostics with exit code :data:`ReproError.exit_code` (4), never a
  traceback.
* :class:`ArtifactError` — the artifact-I/O branch, carrying the
  offending ``source`` (file path or flag name), the ``schema`` tag in
  play and, where known, the ``field`` that failed.  It also subclasses
  :class:`ValueError` so pre-existing ``except ValueError`` call sites
  and tests keep working unchanged.

The concrete artifact failures an I/O boundary can produce:

* :class:`CorruptArtifactError` — the bytes themselves are bad: invalid
  UTF-8, malformed JSON, NaN/Infinity tokens, pathological nesting, or
  an embedded payload digest that no longer matches the content
  (truncation / bit-flips *detected*, not mis-parsed).
* :class:`SchemaMismatchError` — the document parsed but its ``schema``
  tag is missing, malformed, or names a different artifact kind; the
  message always names the expected and the found tag.
* :class:`SchemaVersionError` — the tag names the right artifact at a
  version other than the one this build reads (every schema is read at
  exactly its registered version).
* :class:`ArtifactValidationError` — well-formed, correctly tagged JSON
  whose *structure or values* violate the schema: missing or unknown
  fields, wrong types, non-finite numbers, or domain rules (e.g. a goal
  referencing an unknown incident type).

Loaders registered with :class:`repro.io.ArtifactStore` are guaranteed
to raise only this taxonomy — never a bare ``KeyError`` / ``TypeError``
/ ``RecursionError`` — a property the ``fuzz`` test tier enforces with
deterministic corruption campaigns (``repro.testing.fuzz``).
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "ReproError",
    "ArtifactError",
    "CorruptArtifactError",
    "SchemaMismatchError",
    "SchemaVersionError",
    "ArtifactValidationError",
]


class ReproError(Exception):
    """Root of every intentional, user-facing error in this package.

    ``exit_code`` is what the CLI returns after printing the one-line
    diagnostic (4 by convention, distinct from 1 = domain verdicts,
    2 = usage errors, 3 = partial campaign failure).
    """

    exit_code: int = 4


class ArtifactError(ReproError, ValueError):
    """An artifact (file or inline JSON document) could not be trusted.

    Parameters
    ----------
    message:
        Human-readable, single-line description of what failed.
    source:
        Where the artifact came from — a file path or a CLI flag name
        (``"--counts"``).  Prefixed onto the message when present so the
        CLI diagnostic reads ``error: <path>: <what went wrong>``.
    schema:
        The schema tag in play (expected or found), when known.
    field:
        Dotted payload path of the offending field (``$.data.result.hours``),
        when validation pinpointed one.
    """

    def __init__(self, message: str, *, source: Optional[object] = None,
                 schema: Optional[str] = None,
                 field: Optional[str] = None):
        self.source = None if source is None else str(source)
        self.schema = schema
        self.field = field
        prefix = f"{self.source}: " if self.source else ""
        super().__init__(prefix + message)


class CorruptArtifactError(ArtifactError):
    """The artifact bytes are damaged: bad encoding, malformed JSON,
    non-finite number tokens, pathological nesting, or an embedded
    payload digest that does not match the content."""


class SchemaMismatchError(ArtifactError):
    """The document's ``schema`` tag is missing, malformed, or names a
    different artifact kind than the loader expected."""


class SchemaVersionError(ArtifactError):
    """The ``schema`` tag names the right artifact at a version other
    than the one this build reads (older or newer); the message names
    the found and the supported tag."""


class ArtifactValidationError(ArtifactError):
    """The document is well-formed and correctly tagged, but its
    structure or values violate the artifact's schema."""

"""The hardened artifact I/O boundary: schema registry + digest-verified
loaders (DESIGN §10).

Every configuration-managed document this package reads or writes —
campaign checkpoints, run manifests, stored goal sets — crosses this
boundary.  The contract it enforces:

* **Typed failures only.**  A loader either returns a fully constructed
  object or raises a subclass of :class:`~repro.errors.ArtifactError`
  with source/schema/field context — never a bare ``KeyError`` /
  ``TypeError`` / ``JSONDecodeError`` / ``RecursionError``.  The
  ``fuzz`` test tier drives ≥500 deterministic corruptions per schema
  against exactly this promise.
* **One format per artifact.**  A document read from bytes
  (:meth:`ArtifactStore.load`, ``load_text``, ``load_bytes``) must carry
  its ``schema`` tag at the registered version and its
  ``payload_sha256`` digest: ``save`` embeds the digest over the
  canonical payload and every read verifies it, so truncation, bit-flips
  and an edited value with its digest line deleted all surface as
  :class:`~repro.errors.CorruptArtifactError` instead of half-parsed
  campaigns or a quietly raised budget.  A missing or foreign tag raises
  :class:`~repro.errors.SchemaMismatchError`; the right name at another
  version raises :class:`~repro.errors.SchemaVersionError`.
* **Structure before construction.**  The registered
  :class:`~repro.io.validate.Spec` tree is checked against the whole
  payload before the loader runs, so domain constructors only ever see
  structurally sound data.
* **Atomic durable writes** via :func:`~repro.io.atomic.atomic_write_text`.

Modules owning an artifact register its schema at import time against
the process-wide :data:`ARTIFACTS` store; :func:`load_builtin_schemas`
imports all of them (useful for the fuzz tier and tooling).
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import (Any, Callable, Dict, Mapping, Optional, Tuple)

from ..errors import (ArtifactError, ArtifactValidationError,
                      CorruptArtifactError, SchemaMismatchError,
                      SchemaVersionError)
from .atomic import atomic_write_text
from .validate import Spec, SpecError

__all__ = [
    "DIGEST_KEY", "ArtifactSchema", "ArtifactStore", "ARTIFACTS",
    "register_artifact", "canonical_payload_text", "payload_digest",
    "parse_artifact_text", "parse_artifact_bytes", "parse_schema_tag",
    "load_builtin_schemas",
]

#: Envelope key holding the sha256 digest of the canonical payload.
DIGEST_KEY = "payload_sha256"

_TAG_RE = re.compile(r"^(?P<name>[A-Za-z0-9_.\-]+)/v(?P<version>[0-9]+)$")


def parse_schema_tag(tag: str) -> Tuple[str, int]:
    """Split ``"repro.run-manifest/v1"`` into ``("repro.run-manifest", 1)``.

    Raises :class:`ValueError` on malformed tags (callers convert).
    """
    match = _TAG_RE.match(tag)
    if match is None:
        raise ValueError(f"malformed schema tag {tag!r}")
    return match.group("name"), int(match.group("version"))


def canonical_payload_text(payload: object, *,
                           source: Optional[object] = None) -> str:
    """The canonical (digest-input) JSON form of a payload.

    Sorted keys, compact separators, raw UTF-8, NaN/Infinity forbidden —
    independent of the pretty form written to disk, so re-indenting a
    file by hand does not invalidate its digest, but any value change
    does.
    """
    try:
        return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                          ensure_ascii=False, allow_nan=False)
    except ValueError as exc:  # non-finite float (or circular structure)
        raise ArtifactValidationError(
            f"payload is not canonical JSON: {exc}", source=source) from exc
    except RecursionError as exc:
        raise CorruptArtifactError(
            "payload nesting too deep to canonicalise",
            source=source) from exc
    except TypeError as exc:
        raise ArtifactValidationError(
            f"payload contains non-JSON values: {exc}",
            source=source) from exc


def payload_digest(payload: object, *,
                   source: Optional[object] = None) -> str:
    """``"sha256:<hex>"`` over the canonical payload text."""
    text = canonical_payload_text(payload, source=source)
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def _reject_constant(token: str) -> float:
    raise ValueError(f"non-finite number token {token!r}")


def parse_artifact_text(text: str, *,
                        source: Optional[object] = None) -> object:
    """Parse artifact JSON text; every failure is a typed artifact error.

    Rejects ``NaN`` / ``Infinity`` tokens (they silently become floats
    under stock ``json.loads`` and then poison every downstream
    comparison) and converts nesting-bomb ``RecursionError`` into
    :class:`~repro.errors.CorruptArtifactError`.
    """
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except CorruptArtifactError:
        raise
    except RecursionError as exc:
        raise CorruptArtifactError("JSON nesting too deep",
                                   source=source) from exc
    except json.JSONDecodeError as exc:
        raise CorruptArtifactError(f"invalid JSON: {exc}",
                                   source=source) from exc
    except ValueError as exc:  # _reject_constant
        raise CorruptArtifactError(f"invalid JSON: {exc}",
                                   source=source) from exc


def parse_artifact_bytes(data: bytes, *,
                         source: Optional[object] = None) -> object:
    """Decode + parse raw artifact bytes (bad encodings are typed too)."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorruptArtifactError(f"invalid UTF-8: {exc}",
                                   source=source) from exc
    return parse_artifact_text(text, source=source)


@dataclass(frozen=True)
class ArtifactSchema:
    """One registered artifact kind: shape, codec, identity.

    ``load`` receives a validated payload dict (``schema`` tag and
    digest already stripped) and returns the domain object; ``dump`` is
    its inverse (the ``schema`` key, if emitted, is overwritten by the
    store).  ``example`` builds a small deterministic instance (the fuzz
    tier corrupts its serialised form); ``equal`` compares two loaded
    instances (defaults to ``==``).
    """

    name: str
    version: int
    spec: Spec
    load: Callable[[Mapping[str, Any]], object]
    dump: Callable[[Any], Dict[str, object]]
    label: str = "artifact"
    example: Optional[Callable[[], object]] = None
    equal: Optional[Callable[[object, object], bool]] = None

    @property
    def tag(self) -> str:
        return f"{self.name}/v{self.version}"

    def instances_equal(self, a: object, b: object) -> bool:
        if self.equal is not None:
            return bool(self.equal(a, b))
        return bool(a == b)


class ArtifactStore:
    """Schema registry + digest-verified load/save for artifacts."""

    def __init__(self) -> None:
        self._schemas: Dict[str, ArtifactSchema] = {}

    # -- registry ---------------------------------------------------------

    def register(self, schema: ArtifactSchema) -> ArtifactSchema:
        existing = self._schemas.get(schema.name)
        if existing is not None and existing is not schema:
            raise ValueError(
                f"artifact schema {schema.name!r} already registered")
        self._schemas[schema.name] = schema
        return schema

    def get(self, name: str) -> ArtifactSchema:
        try:
            return self._schemas[name]
        except KeyError:
            raise ValueError(
                f"no artifact schema registered under {name!r} "
                f"(known: {sorted(self._schemas)})") from None

    def schemas(self) -> Tuple[ArtifactSchema, ...]:
        return tuple(self._schemas[name] for name in sorted(self._schemas))

    # -- loading ----------------------------------------------------------

    def load_dict(self, data: object, name: str, *,
                  require_tag: bool = True,
                  source: Optional[object] = None) -> object:
        """Validate + construct from an already-parsed document.

        The digest is verified when the document carries one; an
        in-memory payload (a ``*_from_dict`` argument) may omit it, and
        its tag too when ``require_tag`` is false.  Documents read from
        bytes go through :meth:`load_bytes`, which requires both.
        """
        schema = self.get(name)
        if not isinstance(data, Mapping):
            raise ArtifactValidationError(
                f"expected a JSON object at top level, got "
                f"{type(data).__name__}",
                source=source, schema=schema.tag)
        payload: Dict[str, object] = dict(data)
        self._verify_digest(payload, schema, source)
        self._check_tag(payload, schema, require_tag, source)
        try:
            schema.spec.check(payload, "$")
        except SpecError as err:
            raise ArtifactValidationError(
                str(err), source=source, schema=schema.tag,
                field=err.field) from None
        try:
            return schema.load(payload)
        except ArtifactError:
            raise
        except RecursionError as exc:
            raise CorruptArtifactError(
                f"{schema.label} nesting too deep to load",
                source=source, schema=schema.tag) from exc
        except Exception as exc:
            raise ArtifactValidationError(
                f"invalid {schema.label} content: {exc}",
                source=source, schema=schema.tag) from exc

    def load_text(self, text: str, name: str, *,
                  source: Optional[object] = None) -> object:
        data = parse_artifact_text(text, source=source)
        return self._load_stored(data, name, source)

    def load_bytes(self, data: bytes, name: str, *,
                   source: Optional[object] = None) -> object:
        parsed = parse_artifact_bytes(data, source=source)
        return self._load_stored(parsed, name, source)

    def load(self, path: "Path | str", name: str) -> object:
        """Read + verify + construct one artifact file."""
        path = Path(path)
        schema = self.get(name)
        try:
            raw = path.read_bytes()
        except OSError as exc:
            raise CorruptArtifactError(
                f"cannot read {schema.label}: {exc.strerror or exc}",
                source=path, schema=schema.tag) from exc
        return self.load_bytes(raw, name, source=path)

    # -- dumping ----------------------------------------------------------

    def dump_dict(self, name: str, obj: object, *,
                  source: Optional[object] = None) -> Dict[str, object]:
        """Tagged + digest-signed envelope for one object.

        The dumper's output is round-tripped through canonical JSON
        first, so tuples normalise to lists and the digest is computed
        over exactly what a reader will parse back; it is then validated,
        guaranteeing everything the boundary writes reloads.
        """
        schema = self.get(name)
        payload = dict(schema.dump(obj))
        payload["schema"] = schema.tag
        text = canonical_payload_text(payload, source=source)
        payload = json.loads(text)
        body = dict(payload)
        body.pop("schema", None)
        try:
            schema.spec.check(body, "$")
        except SpecError as err:
            raise ArtifactValidationError(
                f"refusing to write invalid {schema.label}: {err}",
                source=source, schema=schema.tag, field=err.field) from None
        payload[DIGEST_KEY] = "sha256:" + hashlib.sha256(
            text.encode("utf-8")).hexdigest()
        return payload

    def dump_text(self, name: str, obj: object, *,
                  source: Optional[object] = None) -> str:
        """The pretty on-disk form (sorted keys, indent 2, newline)."""
        envelope = self.dump_dict(name, obj, source=source)
        return json.dumps(envelope, indent=2, sort_keys=True) + "\n"

    def save(self, path: "Path | str", name: str, obj: object) -> Path:
        """Atomically write one digest-signed artifact file."""
        path = Path(path)
        return atomic_write_text(path, self.dump_text(name, obj,
                                                      source=path))

    # -- internals --------------------------------------------------------

    def _load_stored(self, data: object, name: str,
                     source: Optional[object]) -> object:
        """A document read from bytes: it must be signed and tagged."""
        if isinstance(data, Mapping) and DIGEST_KEY not in data:
            schema = self.get(name)
            raise CorruptArtifactError(
                f"{schema.label} carries no {DIGEST_KEY}; this build reads "
                f"only signed {schema.tag} documents",
                source=source, schema=schema.tag)
        return self.load_dict(data, name, source=source)

    def _verify_digest(self, payload: Dict[str, object],
                       schema: ArtifactSchema,
                       source: Optional[object]) -> None:
        """Pop + verify the digest, if the payload carries one."""
        if DIGEST_KEY not in payload:
            return
        claimed = payload.pop(DIGEST_KEY)
        if not isinstance(claimed, str):
            raise CorruptArtifactError(
                f"{DIGEST_KEY} must be a string, got "
                f"{type(claimed).__name__}",
                source=source, schema=schema.tag)
        actual = payload_digest(payload, source=source)
        if claimed != actual:
            raise CorruptArtifactError(
                f"payload digest mismatch — {schema.label} is corrupt "
                f"(truncated or modified): file claims {claimed}, "
                f"content hashes to {actual}",
                source=source, schema=schema.tag)

    def _check_tag(self, payload: Dict[str, object],
                   schema: ArtifactSchema, require_tag: bool,
                   source: Optional[object]) -> None:
        """Pop + check the ``schema`` tag: the registered name at the
        registered version."""
        tag = payload.pop("schema", None)
        if tag is None:
            if require_tag:
                raise SchemaMismatchError(
                    f"missing schema tag in {schema.label} "
                    f"(expected {schema.tag!r})",
                    source=source, schema=schema.tag)
            return
        found = None
        if isinstance(tag, str):
            try:
                found = parse_schema_tag(tag)
            except ValueError:
                pass
        if found is None or found[0] != schema.name:
            raise SchemaMismatchError(
                f"unsupported {schema.label} schema {tag!r} "
                f"(expected {schema.tag!r})",
                source=source, schema=schema.tag)
        if found[1] != schema.version:
            relation = "newer" if found[1] > schema.version else "older"
            raise SchemaVersionError(
                f"{schema.label} schema {tag!r} is {relation} than this "
                f"build supports (it reads only {schema.tag!r})",
                source=source, schema=schema.tag)


#: The process-wide registry every built-in artifact registers against.
ARTIFACTS = ArtifactStore()


def register_artifact(schema: ArtifactSchema) -> ArtifactSchema:
    """Register ``schema`` with the default :data:`ARTIFACTS` store."""
    return ARTIFACTS.register(schema)


def load_builtin_schemas() -> Tuple[ArtifactSchema, ...]:
    """Import every module that registers a built-in artifact schema and
    return the full registry (used by the fuzz tier and tooling)."""
    from ..core import serialize  # noqa: F401  (registers on import)
    from ..obs import events  # noqa: F401
    from ..obs import manifest  # noqa: F401
    from ..traffic import checkpoint  # noqa: F401
    from ..traffic import records  # noqa: F401
    return ARTIFACTS.schemas()

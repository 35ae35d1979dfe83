"""repro.io — the hardened artifact I/O boundary (DESIGN §10).

Everything configuration-managed that this package reads from or writes
to disk (campaign checkpoints, run manifests, stored goal sets, inline
CLI JSON) goes through this package:

* :mod:`.atomic` — the single temp-file + fsync + ``os.replace``
  implementation of atomic durable writes;
* :mod:`.faults` — the ``REPRO_FS_CHAOS`` filesystem fault hook the
  durable-write paths consult at their named points;
* :mod:`.validate` — structural Spec combinators checked before any
  domain object is constructed;
* :mod:`.artifact` — the schema registry, sha256 payload digests
  (written on save, required and verified on every read from bytes),
  one registered version per schema, and the typed-error guarantee the
  ``fuzz`` test tier enforces.

``json.loads`` / ``json.load`` call sites are *forbidden* outside this
package (a guard test greps for them): raw parsing without typed error
conversion is exactly the bug class this boundary exists to remove.
"""

from ..errors import (ArtifactError, ArtifactValidationError,
                      CorruptArtifactError, ReproError,
                      SchemaMismatchError, SchemaVersionError)
from .artifact import (ARTIFACTS, DIGEST_KEY, ArtifactSchema, ArtifactStore,
                       canonical_payload_text, load_builtin_schemas,
                       parse_artifact_bytes, parse_artifact_text,
                       parse_schema_tag, payload_digest, register_artifact)
from .atomic import atomic_write_text
from .validate import (Bool, Int, Json, ListOf, MapOf, NullOr, Number,
                       Record, Spec, SpecError, Str, TaggedUnion)

__all__ = [
    # errors (re-exported for convenience at the boundary)
    "ReproError", "ArtifactError", "CorruptArtifactError",
    "SchemaMismatchError", "SchemaVersionError", "ArtifactValidationError",
    # artifact store
    "ARTIFACTS", "DIGEST_KEY", "ArtifactSchema", "ArtifactStore",
    "register_artifact", "load_builtin_schemas", "canonical_payload_text",
    "payload_digest", "parse_artifact_text", "parse_artifact_bytes",
    "parse_schema_tag",
    # atomic writes
    "atomic_write_text",
    # validation combinators
    "Spec", "SpecError", "Str", "Bool", "Int", "Number", "NullOr",
    "ListOf", "MapOf", "Record", "TaggedUnion", "Json",
]

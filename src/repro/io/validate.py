"""Structural validation combinators for artifact payloads.

Every artifact schema registered with
:class:`~repro.io.artifact.ArtifactStore` declares a :class:`Spec` tree
describing the *shape* of its payload: which fields exist, their JSON
types, finiteness of numbers, nesting bounds.  The store checks the
whole tree **before any domain object is constructed**, so loaders see
only structurally sound data and corrupted artifacts surface as
:class:`~repro.errors.ArtifactValidationError` with a dotted field path
(``$.data.result.hours``) instead of a ``KeyError`` three stack
frames deep.

There is one validation mode (DESIGN §10): a record carries every
declared field and no other, because every artifact this build reads was
written by a dumper that emits every field.

Specs raise the internal :class:`SpecError`; the store converts it to
the public typed error with path/schema context attached.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping

__all__ = [
    "SpecError", "Spec", "Str", "Bool", "Int", "Number", "NullOr",
    "ListOf", "MapOf", "Record", "TaggedUnion", "Json",
]

#: JSON types a :class:`Json` subtree may contain.
_JSON_SCALARS = (str, int, float, bool, type(None))


class SpecError(ValueError):
    """Internal structural-validation failure (field path + message)."""

    def __init__(self, field: str, message: str):
        self.field = field
        self.message = message
        super().__init__(f"field {field}: {message}" if field else message)


def _type_name(value: object) -> str:
    return {
        str: "string", bool: "boolean", int: "integer", float: "number",
        list: "array", dict: "object", type(None): "null",
    }.get(type(value), type(value).__name__)


class Spec:
    """Base class: one node of a payload-shape description."""

    def check(self, value: object, field: str) -> None:
        raise NotImplementedError


class Str(Spec):
    """A JSON string."""

    def check(self, value: object, field: str) -> None:
        if not isinstance(value, str):
            raise SpecError(field,
                            f"expected string, got {_type_name(value)}")


class Bool(Spec):
    """A JSON boolean."""

    def check(self, value: object, field: str) -> None:
        if not isinstance(value, bool):
            raise SpecError(field,
                            f"expected boolean, got {_type_name(value)}")


class Int(Spec):
    """A JSON integer (bools rejected — they are a distinct type)."""

    def check(self, value: object, field: str) -> None:
        if isinstance(value, bool) or not isinstance(value, int):
            raise SpecError(field,
                            f"expected integer, got {_type_name(value)}")


class Number(Spec):
    """A finite JSON number (int or float; bools and NaN/Inf rejected)."""

    def check(self, value: object, field: str) -> None:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SpecError(field,
                            f"expected number, got {_type_name(value)}")
        if isinstance(value, float) and not math.isfinite(value):
            raise SpecError(field, f"expected finite number, got {value!r}")


class NullOr(Spec):
    """``null`` or a value matching the wrapped spec."""

    def __init__(self, inner: Spec):
        self.inner = inner

    def check(self, value: object, field: str) -> None:
        if value is None:
            return
        self.inner.check(value, field)


class ListOf(Spec):
    """A JSON array with homogeneous items matching the wrapped spec."""

    def __init__(self, item: Spec):
        self.item = item

    def check(self, value: object, field: str) -> None:
        if not isinstance(value, list):
            raise SpecError(field,
                            f"expected array, got {_type_name(value)}")
        for index, item in enumerate(value):
            self.item.check(item, f"{field}[{index}]")


class MapOf(Spec):
    """A JSON object with homogeneous values."""

    def __init__(self, value: Spec):
        self.value = value

    def check(self, value: object, field: str) -> None:
        if not isinstance(value, dict):
            raise SpecError(field,
                            f"expected object, got {_type_name(value)}")
        for key, item in value.items():
            if not isinstance(key, str):  # pragma: no cover - JSON keys are str
                raise SpecError(field, f"non-string key {key!r}")
            self.value.check(item, f"{field}.{key}")


class Record(Spec):
    """A JSON object carrying every ``required`` field and no other."""

    def __init__(self, required: Mapping[str, Spec]):
        self.required: Dict[str, Spec] = dict(required)

    def check(self, value: object, field: str) -> None:
        if not isinstance(value, dict):
            raise SpecError(field,
                            f"expected object, got {_type_name(value)}")
        for name, spec in self.required.items():
            if name not in value:
                raise SpecError(f"{field}.{name}",
                                f"missing required field {name!r}")
            spec.check(value[name], f"{field}.{name}")
        for name in value:
            if name not in self.required:
                raise SpecError(field, f"unknown field {name!r}")


class TaggedUnion(Spec):
    """A record whose shape is selected by a string tag field."""

    def __init__(self, tag: str, options: Mapping[str, Spec]):
        self.tag = tag
        self.options: Dict[str, Spec] = dict(options)

    def check(self, value: object, field: str) -> None:
        if not isinstance(value, dict):
            raise SpecError(field,
                            f"expected object, got {_type_name(value)}")
        tag = value.get(self.tag)
        if not isinstance(tag, str):
            raise SpecError(f"{field}.{self.tag}",
                            "missing or non-string tag")
        spec = self.options.get(tag)
        if spec is None:
            raise SpecError(
                f"{field}.{self.tag}",
                f"unknown {self.tag} {tag!r} (expected one of "
                f"{sorted(self.options)})")
        spec.check(value, field)


class Json(Spec):
    """Any JSON value, iteratively checked for type sanity and bounded
    nesting (no ``RecursionError`` escapes from open-ended subtrees like
    span trees or metrics snapshots), with non-finite floats rejected."""

    def __init__(self, max_depth: int = 64):
        self.max_depth = max_depth

    def check(self, value: object, field: str) -> None:
        stack = [(value, field, 0)]
        while stack:
            node, path, depth = stack.pop()
            if depth > self.max_depth:
                raise SpecError(path,
                                f"nesting deeper than {self.max_depth}")
            if isinstance(node, dict):
                for key, item in node.items():
                    if not isinstance(key, str):  # pragma: no cover
                        raise SpecError(path, f"non-string key {key!r}")
                    stack.append((item, f"{path}.{key}", depth + 1))
            elif isinstance(node, list):
                for index, item in enumerate(node):
                    stack.append((item, f"{path}[{index}]", depth + 1))
            elif isinstance(node, float) and not math.isfinite(node):
                raise SpecError(path,
                                f"expected finite number, got {node!r}")
            elif not isinstance(node, _JSON_SCALARS):
                raise SpecError(path,
                                f"non-JSON value of type "
                                f"{type(node).__name__}")

"""Lazy package exports (PEP 562), shared by every package ``__init__``.

A package lists which module defines each name it exports; importing
the package runs none of them.  The first lookup of an exported name
imports its module and caches the value in the package namespace, so
``from repro.core import allocate_lp`` loads the allocation module and
what it imports, and nothing else (DESIGN §16).
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(package: str, exports: Mapping[str, Sequence[str]],
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]],
                            List[str]]:
    """``(__getattr__, __dir__, __all__)`` for the package ``package``.

    ``exports`` maps a module name, relative to ``package`` (``".risk_norm"``,
    ``"..errors"``), to the names the package re-exports from it.
    ``__all__`` lists every exported name once, in the order given.
    """
    owner: Dict[str, str] = {}
    for module, names in exports.items():
        for name in names:
            if name in owner:
                raise ValueError(f"{package} exports {name!r} from both "
                                 f"{owner[name]} and {module}")
            owner[name] = module

    def __getattr__(name: str) -> object:
        try:
            module = owner[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(owner))

    return __getattr__, __dir__, list(owner)

"""Atomic, durable file writes — the single implementation.

``traffic/checkpoint.py`` and ``obs/manifest.py`` used to hand-roll
variations of the temp-file-plus-rename dance; this module is the one
place the pattern lives now (DESIGN §10).  The contract:

* the temp file is created *in the destination directory* (``os.replace``
  is only atomic within one filesystem);
* content is flushed and ``fsync``'d before the rename, so a crash at
  any point leaves either the previous complete file or the new complete
  file on disk — never a torn one;
* the temp file is unlinked on any failure, so no ``*.tmp`` residue
  accumulates next to checkpoints.

The one failure the unlink cannot cover is a hard crash (SIGKILL, power
loss) *between* ``mkstemp`` and ``os.replace``: the orphaned temp file
survives.  That is why every temp name starts with
:data:`ORPHAN_TMP_PREFIX` and ends with :data:`ORPHAN_TMP_SUFFIX` — the
recognizable signature :func:`sweep_orphan_tmp` removes
(:func:`iter_orphan_tmp` finds them).  Sweeping is provably safe: a temp
file is never referenced by anything until the rename, and after the
rename it no longer exists.

Fault injection: the write path is instrumented with the
``REPRO_FS_CHAOS`` point ``atomic-write`` (:mod:`repro.io.faults`,
DESIGN §15), simulating disk-full before any byte lands (``enospc``), a
failed fsync after a complete write (``eio``), a torn write that dies
mid-payload and leaves its orphan temp behind (``torn``), and the
durability lie where the rename landed but the caller is told it failed
(``shortfsync``).
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Iterator

from .faults import fs_chaos, fs_fault

__all__ = ["atomic_write_text", "iter_orphan_tmp", "sweep_orphan_tmp",
           "ORPHAN_TMP_PREFIX", "ORPHAN_TMP_SUFFIX"]

#: Every in-flight temp file is ``.repro-tmp.<destname>.<random>.tmp`` —
#: the leading dot keeps it out of artifact globs (the record sink's
#: ``<prefix>-*.json``), the fixed prefix/suffix pair makes orphans
#: sweepable by signature.
ORPHAN_TMP_PREFIX = ".repro-tmp."
ORPHAN_TMP_SUFFIX = ".tmp"


def atomic_write_text(path: "Path | str", text: str, *,
                      encoding: str = "utf-8", durable: bool = True) -> Path:
    """Atomically replace ``path`` with ``text``.

    Creates parent directories as needed.  With ``durable`` (the
    default) the temp file is ``fsync``'d before the rename; pass
    ``False`` only for scratch outputs where torn-write protection
    matters but durability across power loss does not.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fault = fs_chaos("atomic-write")
    if fault == "enospc":
        raise fs_fault(fault, "atomic-write")
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent),
        prefix=ORPHAN_TMP_PREFIX + path.name + ".",
        suffix=ORPHAN_TMP_SUFFIX)
    leak_tmp = False
    try:
        with os.fdopen(fd, "w", encoding=encoding) as handle:
            if fault == "torn":
                # A prefix lands, then the process "dies" before it can
                # clean up: the orphan temp file is the crash residue
                # sweep_orphan_tmp removes.  The destination is untouched.
                handle.write(text[:max(1, len(text) // 2)])
                handle.flush()
                leak_tmp = True
                raise fs_fault(fault, "atomic-write")
            handle.write(text)
            handle.flush()
            if durable:
                if fault == "eio":
                    raise fs_fault(fault, "atomic-write")
                os.fsync(handle.fileno())
        os.replace(tmp_name, path)
        if fault == "shortfsync":
            # The rename landed; the durability step "failed".  The
            # caller sees an error while the file is complete — retries
            # must be idempotent against exactly this.
            raise fs_fault(fault, "atomic-write")
    except BaseException:
        if not leak_tmp:
            try:
                os.unlink(tmp_name)
            except OSError:  # pragma: no cover - already replaced/removed
                pass
        raise
    return path


def iter_orphan_tmp(root: "Path | str") -> Iterator[Path]:
    """Every orphaned atomic-write temp file under ``root``, sorted.

    Matches the :data:`ORPHAN_TMP_PREFIX`/``SUFFIX`` signature only —
    nothing else in an output tree starts with ``.repro-tmp.``.
    """
    root = Path(root)
    yield from sorted(root.rglob(ORPHAN_TMP_PREFIX + "*"
                                 + ORPHAN_TMP_SUFFIX))


def sweep_orphan_tmp(root: "Path | str") -> "list[Path]":
    """Unlink every orphaned temp file under ``root``; returns them.

    Safe by construction (see module docstring): an orphan temp was
    never renamed into place, so no artifact can reference it.
    """
    swept = []
    for path in iter_orphan_tmp(root):
        try:
            os.unlink(path)
        except OSError:  # pragma: no cover - raced by a writer
            continue
        swept.append(path)
    return swept

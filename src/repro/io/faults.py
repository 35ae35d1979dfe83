"""Filesystem fault injection at named write points (``REPRO_FS_CHAOS``).

The durable-write paths are instrumented with named points:
``atomic-write`` (:func:`~repro.io.atomic.atomic_write_text`),
``journal-append:repro.event-log`` (the flight recorder's journal
append in :mod:`repro.obs.events`) and ``checkpoint-save`` (the
campaign checkpoint log's append).  Each asks :func:`fs_chaos` whether
a fault is scripted for *this* hit of its point and then simulates the
real storage failure mode in place — only the call site knows which
bytes a torn write should cut:

``enospc``
    ``OSError(ENOSPC)`` before any byte lands — the clean disk-full.
``eio``
    ``OSError(EIO)`` after the data is written but before it is
    durable — the failed fsync / dying device.
``torn``
    a *prefix* of the payload lands and then the write errors — the
    torn page / power cut mid-append.  Atomic writers leave their
    orphaned temp file behind; journal appenders leave a torn tail.
``shortfsync``
    the write completes — the rename even lands — but the final
    durability step reports failure, so the caller believes the write
    failed while the bytes are intact.  Retries must be idempotent
    against this lie.

Directives are semicolon-separated::

    REPRO_FS_CHAOS="<kind>@<point>[#<nth>];..."

Without ``#<nth>`` a directive fires on *every* hit of its point (a
persistently sick disk).  With ``#<nth>`` it fires once, on the nth hit
of the point *across all processes and restarts*.  Every directive that
names a point counts every hit of it, so ``torn@p#2;eio@p#3`` fires at
hits 2 and 3.  Hits are claimed through ``O_CREAT | O_EXCL`` marker
files in ``REPRO_FS_CHAOS_DIR`` (:func:`claim_hit`), because the victim
of a torn write may well be about to die.  With the variable unset,
each instrumented point costs one environment lookup.
"""

from __future__ import annotations

import errno
import os

__all__ = ["FS_CHAOS_ENV", "FS_CHAOS_DIR_ENV", "FS_FAULT_KINDS",
           "claim_hit", "fs_chaos", "fs_fault"]

FS_CHAOS_ENV = "REPRO_FS_CHAOS"
FS_CHAOS_DIR_ENV = "REPRO_FS_CHAOS_DIR"

FS_FAULT_KINDS = ("enospc", "eio", "torn", "shortfsync")


def claim_hit(state_dir: str, prefix: str) -> int:
    """Claim the next 1-based hit number under ``prefix``, crash-safely.

    Creates the marker file ``<state_dir>/<prefix><n>`` for the lowest
    ``n`` not claimed yet.  ``O_CREAT | O_EXCL`` makes the claim atomic
    across processes, and the marker outlives its claimer: a killed
    process never gets to update an in-memory counter.
    """
    hit = 1
    while True:
        try:
            fd = os.open(os.path.join(state_dir, f"{prefix}{hit}"),
                         os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            hit += 1
            continue
        os.close(fd)
        return hit


def fs_fault(kind: str, point: str) -> OSError:
    """The :class:`OSError` an injected filesystem fault surfaces as.

    ``enospc`` carries ``errno.ENOSPC``; every other kind carries
    ``errno.EIO`` (a torn write and a failed fsync both look like I/O
    errors to the caller).  Callers wrap it into their typed taxonomy
    exactly as they would the real thing.
    """
    code = errno.ENOSPC if kind == "enospc" else errno.EIO
    return OSError(code, f"injected fs fault {kind!r} at chaos point "
                         f"{point!r}")


def fs_chaos(point: str) -> "str | None":
    """The scripted filesystem fault kind for this hit of ``point``.

    Returns one of :data:`FS_FAULT_KINDS` when a directive for ``point``
    fires on this hit, else ``None``.  When any ``#<nth>`` directive
    names the point, the hit is claimed once and every such directive
    compares against it.
    """
    spec = os.environ.get(FS_CHAOS_ENV, "")
    if not spec:
        return None
    directives = []
    for directive in spec.split(";"):
        kind, _, rest = directive.strip().partition("@")
        target, _, nth = rest.partition("#")
        if target == point and kind in FS_FAULT_KINDS:
            directives.append((kind, nth))
    hit = None
    if any(nth for _, nth in directives):
        state_dir = os.environ.get(FS_CHAOS_DIR_ENV)
        if state_dir is None:
            raise RuntimeError(
                f"{FS_CHAOS_ENV} has an nth-hit directive but "
                f"{FS_CHAOS_DIR_ENV} is unset")
        hit = claim_hit(state_dir, f"{point}.hit")
    for kind, nth in directives:
        if not nth or int(nth) == hit:
            return kind
    return None

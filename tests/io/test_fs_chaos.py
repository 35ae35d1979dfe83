"""The filesystem fault-injection tier and the atomic-write contract.

Each injected fault (``REPRO_FS_CHAOS``, DESIGN §15) must surface as a
plain ``OSError`` with the right errno at the instrumented point and
leave the destination in one of exactly two states: the previous
complete file or the new complete file — never a torn one.  The only
permitted residue is the recognizable orphan temp file of a torn
write, which ``sweep_orphan_tmp`` removes.
"""

from __future__ import annotations

import errno

import pytest

from repro.io.atomic import (ORPHAN_TMP_PREFIX, ORPHAN_TMP_SUFFIX,
                             atomic_write_text, iter_orphan_tmp,
                             sweep_orphan_tmp)
from repro.io.faults import (FS_CHAOS_DIR_ENV, FS_CHAOS_ENV,
                             FS_FAULT_KINDS, fs_chaos, fs_fault)


class TestFsChaosDirectives:
    def test_noop_without_env(self, monkeypatch):
        monkeypatch.delenv(FS_CHAOS_ENV, raising=False)
        assert fs_chaos("atomic-write") is None

    def test_kind_returned_for_matching_point(self, monkeypatch):
        monkeypatch.setenv(FS_CHAOS_ENV, "enospc@atomic-write")
        assert fs_chaos("atomic-write") == "enospc"
        assert fs_chaos("checkpoint-save") is None

    def test_multiple_directives(self, monkeypatch):
        monkeypatch.setenv(FS_CHAOS_ENV,
                           "eio@journal-append:repro.event-log; "
                           "torn@checkpoint-save")
        assert fs_chaos("journal-append:repro.event-log") == "eio"
        assert fs_chaos("checkpoint-save") == "torn"
        assert fs_chaos("atomic-write") is None

    def test_unknown_kind_is_ignored(self, monkeypatch):
        monkeypatch.setenv(FS_CHAOS_ENV, "meteor@atomic-write")
        assert fs_chaos("atomic-write") is None

    def test_nth_hit_fires_exactly_once(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FS_CHAOS_ENV, "enospc@atomic-write#3")
        monkeypatch.setenv(FS_CHAOS_DIR_ENV, str(tmp_path))
        hits = [fs_chaos("atomic-write") for _ in range(5)]
        assert hits == [None, None, "enospc", None, None]

    def test_every_directive_counts_every_hit_of_its_point(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv(FS_CHAOS_ENV, "torn@p#2;eio@p#3;enospc@q#1")
        monkeypatch.setenv(FS_CHAOS_DIR_ENV, str(tmp_path))
        assert [fs_chaos("p") for _ in range(4)] == \
            [None, "torn", "eio", None]
        assert fs_chaos("q") == "enospc"  # q's hits are its own

    def test_nth_hit_requires_state_dir(self, monkeypatch):
        monkeypatch.setenv(FS_CHAOS_ENV, "eio@atomic-write#1")
        monkeypatch.delenv(FS_CHAOS_DIR_ENV, raising=False)
        with pytest.raises(RuntimeError, match=FS_CHAOS_DIR_ENV):
            fs_chaos("atomic-write")

    def test_fault_errnos(self):
        assert fs_fault("enospc", "p").errno == errno.ENOSPC
        for kind in ("eio", "torn", "shortfsync"):
            assert fs_fault(kind, "p").errno == errno.EIO
        assert set(FS_FAULT_KINDS) == {"enospc", "eio", "torn",
                                       "shortfsync"}


class TestAtomicWriteFaults:
    @pytest.fixture
    def target(self, tmp_path):
        path = tmp_path / "artifact.json"
        atomic_write_text(path, "previous complete state\n")
        return path

    def test_enospc_leaves_no_trace(self, target, monkeypatch):
        monkeypatch.setenv(FS_CHAOS_ENV, "enospc@atomic-write")
        with pytest.raises(OSError) as excinfo:
            atomic_write_text(target, "new state\n")
        assert excinfo.value.errno == errno.ENOSPC
        assert target.read_text() == "previous complete state\n"
        assert list(iter_orphan_tmp(target.parent)) == []

    def test_eio_cleans_its_temp(self, target, monkeypatch):
        monkeypatch.setenv(FS_CHAOS_ENV, "eio@atomic-write")
        with pytest.raises(OSError) as excinfo:
            atomic_write_text(target, "new state\n")
        assert excinfo.value.errno == errno.EIO
        assert target.read_text() == "previous complete state\n"
        assert list(iter_orphan_tmp(target.parent)) == []

    def test_torn_write_leaves_recognizable_orphan(self, target,
                                                   monkeypatch):
        monkeypatch.setenv(FS_CHAOS_ENV, "torn@atomic-write")
        with pytest.raises(OSError):
            atomic_write_text(target, "new state that dies mid-write\n")
        # Destination untouched: the tear hit the temp file only.
        assert target.read_text() == "previous complete state\n"
        orphans = list(iter_orphan_tmp(target.parent))
        assert len(orphans) == 1
        name = orphans[0].name
        assert name.startswith(ORPHAN_TMP_PREFIX + target.name + ".")
        assert name.endswith(ORPHAN_TMP_SUFFIX)
        # The orphan holds a strict prefix of the intended payload.
        partial = orphans[0].read_text()
        assert "new state that dies mid-write\n".startswith(partial)
        assert partial != "new state that dies mid-write\n"

    def test_orphan_invisible_to_artifact_globs(self, target, monkeypatch):
        monkeypatch.setenv(FS_CHAOS_ENV, "torn@atomic-write")
        with pytest.raises(OSError):
            atomic_write_text(target.parent / "j-abc.json", "payload\n")
        assert list(target.parent.glob("j-*.json")) == []

    def test_sweep_removes_orphans_only(self, target, monkeypatch):
        monkeypatch.setenv(FS_CHAOS_ENV, "torn@atomic-write")
        with pytest.raises(OSError):
            atomic_write_text(target, "doomed\n")
        monkeypatch.delenv(FS_CHAOS_ENV)
        swept = sweep_orphan_tmp(target.parent)
        assert len(swept) == 1
        assert list(iter_orphan_tmp(target.parent)) == []
        assert target.read_text() == "previous complete state\n"

    def test_shortfsync_is_a_durability_lie(self, target, monkeypatch):
        monkeypatch.setenv(FS_CHAOS_ENV, "shortfsync@atomic-write")
        with pytest.raises(OSError) as excinfo:
            atomic_write_text(target, "new state\n")
        assert excinfo.value.errno == errno.EIO
        # The rename landed before the "failure": the caller saw an
        # error but the file is the new complete state — a retry must
        # be idempotent against exactly this.
        assert target.read_text() == "new state\n"
        monkeypatch.delenv(FS_CHAOS_ENV)
        atomic_write_text(target, "new state\n")  # the idempotent retry
        assert target.read_text() == "new state\n"
        assert list(iter_orphan_tmp(target.parent)) == []

    def test_retry_after_fault_succeeds(self, target, monkeypatch):
        for kind in ("enospc", "eio", "torn"):
            monkeypatch.setenv(FS_CHAOS_ENV, f"{kind}@atomic-write")
            with pytest.raises(OSError):
                atomic_write_text(target, f"state after {kind}\n")
            monkeypatch.delenv(FS_CHAOS_ENV)
            atomic_write_text(target, f"state after {kind}\n")
            assert target.read_text() == f"state after {kind}\n"

"""Journal damage triage + suffix-cut repair (DESIGN §15).

The repair-safety obligation under test: for a journal truncated at an
*arbitrary* byte offset — the residue of a crash or a full disk mid-
append — ``scan_journal`` classifies the damage as a torn tail,
``repair_journal_tail`` cuts it at the last valid byte, and the strict
reader then accepts a journal whose records are exactly a prefix of
the originals.  Interior damage (committed entries exist past the
break) must never be cut — only quarantine is safe there.

Property-tested with hypothesis over truncation offsets, for both
chained-log schemas (``repro.event-log`` and the campaign checkpoint's
``repro.checkpoint-log``).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CorruptArtifactError
from repro.io import ARTIFACTS
from repro.io.faults import FS_CHAOS_ENV
from repro.obs.events import (EVENT_LOG_SCHEMA_NAME, EventJournal,
                              read_chained_journal, repair_journal_tail,
                              scan_journal)
from repro.traffic.checkpoint import (CHECKPOINT_LOG_SCHEMA_NAME,
                                      CampaignCheckpoint, result_from_dict)

N_RECORDS = 5


def write_event_journal(path) -> bytes:
    with EventJournal.open(path) as journal:
        journal.emit("campaign.started", {"policy": "nominal"})
        for index in range(N_RECORDS - 2):
            journal.emit("chunk.committed", {"chunk_index": index})
        journal.emit("campaign.finished", {"chunks": N_RECORDS - 2})
    return path.read_bytes()


def chunk_result():
    example = ARTIFACTS.get(CHECKPOINT_LOG_SCHEMA_NAME).example()
    return result_from_dict(example.data["result"])


def write_checkpoint_log(path) -> bytes:
    checkpoint = CampaignCheckpoint.new(path, {"seed": 2020})
    for index in range(N_RECORDS - 1):
        checkpoint.record(index, chunk_result())
    return path.read_bytes()


def _checkpoint_log(chain_function):
    return lambda path: chain_function(
        path, schema_name=CHECKPOINT_LOG_SCHEMA_NAME)


FLAVOURS = {
    "event-log": (write_event_journal, scan_journal,
                  repair_journal_tail,
                  lambda p: read_chained_journal(p)),
    "checkpoint-log": (write_checkpoint_log, _checkpoint_log(scan_journal),
                       _checkpoint_log(repair_journal_tail),
                       _checkpoint_log(read_chained_journal)),
}


def _append_event(path) -> str:
    with EventJournal.open(path, resume=True) as journal:
        journal.emit("campaign.resumed", {})
    return "campaign.resumed"


def _append_chunk(path) -> str:
    checkpoint, _ = CampaignCheckpoint.resume(path)
    checkpoint.record(N_RECORDS, chunk_result())
    return "chunk.banked"


#: How each flavour's own writer continues a recovered chain.
APPEND = {"event-log": _append_event,
          "checkpoint-log": _append_chunk}


@pytest.mark.parametrize("flavour", sorted(FLAVOURS))
class TestScan:
    def test_clean_journal_scans_clean(self, tmp_path, flavour):
        write, scan, _, read = FLAVOURS[flavour]
        path = tmp_path / "journal.jsonl"
        raw = write(path)
        result = scan(path)
        assert result.clean and not result.torn_tail
        assert len(result.records) == N_RECORDS
        assert result.valid_bytes == result.total_bytes == len(raw)
        assert result.head == read(path)[1]

    def test_missing_file_is_a_typed_error(self, tmp_path, flavour):
        _, scan, _, _ = FLAVOURS[flavour]
        result = scan(tmp_path / "absent.jsonl")
        assert not result.clean
        assert result.valid_bytes == 0 and result.records == []

    def test_interior_damage_is_not_a_torn_tail(self, tmp_path, flavour):
        write, scan, repair, _ = FLAVOURS[flavour]
        path = tmp_path / "journal.jsonl"
        raw = write(path)
        lines = raw.split(b"\n")
        # Corrupt an interior entry; the committed tail still parses.
        lines[1] = lines[1].replace(b"sha256", b"sha666")
        path.write_bytes(b"\n".join(lines))
        result = scan(path)
        assert not result.clean and not result.torn_tail
        assert len(result.records) == 1
        with pytest.raises(CorruptArtifactError,
                           match="not a torn tail"):
            repair(path)


@pytest.mark.parametrize("flavour", sorted(FLAVOURS))
class TestTornTailProperty:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_truncation_offset_repairs_to_a_prefix(
            self, tmp_path_factory, flavour, data):
        write, scan, repair, read = FLAVOURS[flavour]
        path = tmp_path_factory.mktemp(flavour) / "journal.jsonl"
        raw = write(path)
        originals = [r.to_dict() for r in read(path)[0]]
        cut = data.draw(st.integers(min_value=1, max_value=len(raw) - 1),
                        label="truncation offset")
        path.write_bytes(raw[:cut])

        result = scan(path)
        if result.clean:
            # The cut landed exactly on a record boundary: shorter but
            # valid — the crash contract's "merely shorter chain".
            assert cut == result.valid_bytes
        else:
            assert result.torn_tail, (
                "arbitrary truncation must always classify as a torn "
                "tail: nothing after the cut can be a complete envelope")
            repaired = repair(path)
            assert repaired.clean

        records, head = read(path if result.clean else repaired.path)
        recovered = [r.to_dict() for r in records]
        # THE repair-safety property: what survives is exactly a prefix
        # of what was acknowledged — never an invented or altered entry.
        assert recovered == originals[:len(recovered)]
        if recovered:
            assert head is not None

    @settings(max_examples=30, deadline=None)
    @given(cut=st.integers(min_value=1, max_value=40))
    def test_repaired_journal_resumes_the_chain(self, tmp_path_factory,
                                                flavour, cut):
        """After repair, the journal writer appends to the recovered
        chain as if the torn entry never happened."""
        write, scan, repair, read = FLAVOURS[flavour]
        path = tmp_path_factory.mktemp(flavour) / "journal.jsonl"
        raw = write(path)
        path.write_bytes(raw[:len(raw) - cut])  # tear the tail
        result = scan(path)
        if not result.clean:
            repair(path)
        kind = APPEND[flavour](path)
        records, _ = read(path)
        assert records[-1].kind == kind
        assert [r.seq for r in records] == list(range(len(records)))


class TestCheckpointResumeProperty:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_truncation_resumes_a_prefix_or_fails_typed(
            self, tmp_path_factory, data):
        """``--resume`` on a log cut at any offset: past the identity
        line it cuts back to whole entries and keeps exactly those
        chunks; inside the identity line (which the writer never tears)
        it refuses and touches nothing."""
        path = tmp_path_factory.mktemp("checkpoint") / "ck.json"
        raw = write_checkpoint_log(path)
        cut = data.draw(st.integers(min_value=1, max_value=len(raw) - 1),
                        label="truncation offset")
        path.write_bytes(raw[:cut])
        if cut < raw.index(b"\n"):
            with pytest.raises(CorruptArtifactError):
                CampaignCheckpoint.resume(path)
            assert path.read_bytes() == raw[:cut]
            return
        checkpoint, removed = CampaignCheckpoint.resume(path)
        kept = path.read_bytes()
        assert raw.startswith(kept) and removed == cut - len(kept)
        assert checkpoint.chunk_indices() == \
            tuple(range(len(kept.splitlines()) - 1))


class TestPoisonedWriter:
    def test_failed_append_poisons_and_fsck_style_repair_recovers(
            self, tmp_path, monkeypatch):
        path = tmp_path / "journal.jsonl"
        journal = EventJournal.open(path)
        for index in range(N_RECORDS):
            journal.emit("chunk.committed", {"chunk_index": index})
        monkeypatch.setenv(
            FS_CHAOS_ENV, f"torn@journal-append:{EVENT_LOG_SCHEMA_NAME}")
        with pytest.raises(OSError):
            journal.emit("chunk.committed", {"chunk_index": N_RECORDS})
        monkeypatch.delenv(FS_CHAOS_ENV)
        # Poisoned: the writer refuses to stack damage on damage.
        with pytest.raises(ValueError, match="poisoned"):
            journal.emit("chunk.committed", {"chunk_index": N_RECORDS + 1})

        scan = scan_journal(path)
        assert not scan.clean and scan.torn_tail
        repaired = repair_journal_tail(path)
        assert repaired.clean
        records, _ = read_chained_journal(path)
        assert len(records) == N_RECORDS  # every acknowledged entry

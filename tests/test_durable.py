"""The append-only log and atomic publication of ``repro.durable``.

:class:`TornWriteCases` is the torn-write suite every log passes:
``tests/test_serve.py::TestWAL`` runs it on the service's job log (no
key) and :class:`TestKeyedLog` here on a keyed log, as the sweep
checkpoint opens it.  The rest pins the job log's bytes on disk, the
held descriptor's behaviour when another process replaces the file,
and — as an expected failure — the durability the job log does not yet
give.

The CI ``serve-smoke`` and ``chaos-smoke`` jobs run this file.
"""

import os

import pytest

from repro.durable import AppendLog, atomic_write_bytes, decode_line, encode_record
from repro.robust import Chaos, ChaosSpec, chaos_scope, tear_final_line
from repro.serve import WALError, WriteAheadLog, open_service

KEY = b"sweep-secret"


def _written(log, record):
    """Append ``record`` and return the line the log wrote."""
    log.append(record)
    with open(log.path, encoding="utf-8") as fh:
        return fh.read().splitlines()[-1]


class TornWriteCases:
    """Torn-write and checksum cases; a subclass binds ``make_log``."""

    @staticmethod
    def make_log(path):
        raise NotImplementedError

    def test_append_replay_roundtrip(self, tmp_path):
        wal = self.make_log(tmp_path / "w.jsonl")
        for i in range(5):
            wal.append({"job": f"j{i}", "ev": "submitted"})
        records, offset = wal.replay(0)
        assert [r["job"] for r in records] == [f"j{i}" for i in range(5)]
        assert offset == os.path.getsize(tmp_path / "w.jsonl")

    def test_incremental_replay(self, tmp_path):
        wal = self.make_log(tmp_path / "w.jsonl")
        wal.append({"job": "a", "ev": "submitted"})
        _, offset = wal.replay(0)
        wal.append({"job": "b", "ev": "submitted"})
        records, _ = wal.replay(offset)
        assert [r["job"] for r in records] == ["b"]

    def test_checksum_rejects_corruption(self, tmp_path):
        line = _written(self.make_log(tmp_path / "w.jsonl"), {"job": "a", "ev": "done"})
        assert decode_line(line)["job"] == "a"
        assert decode_line(line.replace("done", "dead")) is None
        assert decode_line(line[: len(line) // 2]) is None
        assert decode_line("not json at all") is None

    def test_torn_final_line_is_skipped(self, tmp_path):
        path = tmp_path / "w.jsonl"
        wal = self.make_log(path)
        for i in range(4):
            wal.append({"job": f"j{i}", "ev": "submitted"})
        removed = tear_final_line(path)
        assert removed > 0
        # the torn tail has no newline: replay leaves it pending
        records, _ = self.make_log(path).replay(0)
        assert [r["job"] for r in records] == ["j0", "j1", "j2"]

    def test_torn_tail_guard_isolates_next_append(self, tmp_path):
        path = tmp_path / "w.jsonl"
        wal = self.make_log(path)
        wal.append({"job": "a", "ev": "submitted"})
        wal.append({"job": "b", "ev": "submitted"})
        tear_final_line(path)
        wal2 = self.make_log(path)
        wal2.append({"job": "c", "ev": "submitted"})
        records, _ = wal2.replay(0)
        # b's torn half is skipped; a and c survive intact
        assert [r["job"] for r in records] == ["a", "c"]
        assert wal2.stats["skipped"] == 1

    def test_injected_disk_full_raises_walerror(self, tmp_path):
        chaos = Chaos(
            tmp_path / "chaos",
            log={"append": ChaosSpec(kind="disk_full", times=1)},
        )
        wal = self.make_log(tmp_path / "w.jsonl")
        with chaos_scope(chaos):
            with pytest.raises(WALError):
                wal.append({"job": "a", "ev": "submitted"})
            wal.append({"job": "b", "ev": "submitted"})  # schedule spent
        records, _ = wal.replay(0)
        assert [r["job"] for r in records] == ["b"]

    def test_injected_torn_write_recovers_on_replay(self, tmp_path):
        chaos = Chaos(
            tmp_path / "chaos",
            log={"append": ChaosSpec(kind="torn", times=1)},
        )
        wal = self.make_log(tmp_path / "w.jsonl")
        with chaos_scope(chaos):
            wal.append({"job": "a", "ev": "submitted"})  # torn on disk
            wal.append({"job": "b", "ev": "submitted"})
        records, _ = wal.replay(0)
        assert [r["job"] for r in records] == ["b"]
        assert wal.stats["skipped"] == 1

    def test_append_after_replacement_reaches_the_new_file(self, tmp_path):
        """Another process compacting the file into place must not
        strand the held descriptor on the unlinked old file."""
        path = tmp_path / "w.jsonl"
        log = self.make_log(path)
        log.append({"job": "a", "ev": "submitted"})
        atomic_write_bytes(str(path), path.read_bytes())
        log.append({"job": "b", "ev": "submitted"})
        records, _ = self.make_log(path).replay(0)
        assert [r["job"] for r in records] == ["a", "b"]


class TestKeyedLog(TornWriteCases):
    """The suite on a keyed log, as the sweep checkpoint opens it."""

    @staticmethod
    def make_log(path):
        return AppendLog(path, key=KEY)

    def test_mac_covers_the_body(self, tmp_path):
        log = self.make_log(tmp_path / "w.jsonl")
        rec = decode_line(_written(log, {"job": "a", "ev": "done"}))
        assert log.authentic(rec)
        assert not AppendLog(log.path, key=b"other").authentic(rec)
        forged = dict(rec, ev="dead")
        assert decode_line(encode_record(forged)) == forged  # ck re-derived
        assert not log.authentic(forged)  # but the MAC does not follow


class TestWALFormat:
    #: a ``submitted`` event exactly as the job log has always written it
    LINE = (
        '{"analysis":"dc","ck":"49efaf1de6eb","ev":"submitted",'
        '"job":"job-0123456789ab","key":"ab12","label":"","t":1.5}'
    )
    RECORD = {
        "job": "job-0123456789ab", "ev": "submitted", "t": 1.5,
        "key": "ab12", "analysis": "dc", "label": "",
    }

    def test_line_bytes_are_pinned(self, tmp_path):
        assert decode_line(self.LINE) == self.RECORD
        assert encode_record(self.RECORD) == self.LINE
        assert _written(WriteAheadLog(tmp_path / "w.jsonl"), self.RECORD) == self.LINE


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="WAL appends are not fsync'd: ROADMAP item D (fsync'd WAL events)",
)
def test_acknowledged_submit_survives_power_loss(tmp_path, monkeypatch):
    """A power loss keeps a file only up to its last fsync.  Cut the WAL
    back to that length after ``submit`` acknowledged a job: the job
    must still be there when the service reopens."""
    synced = {}
    real_fsync = os.fsync

    def recording_fsync(fd):
        real_fsync(fd)
        st = os.fstat(fd)
        synced[(st.st_dev, st.st_ino)] = st.st_size

    monkeypatch.setattr(os, "fsync", recording_fsync)
    monkeypatch.setattr(os, "fdatasync", recording_fsync, raising=False)
    svc = open_service(tmp_path / "s")
    res = svc.submit("divider\nV1 in 0 1.0\nR1 in out 1k\nR2 out 0 1k\n.end\n", "dc")
    assert res.state == "queued"
    wal = os.path.join(svc.root, "wal.jsonl")
    st = os.stat(wal)
    svc.queue.wal.close()
    os.truncate(wal, synced.get((st.st_dev, st.st_ino), 0))
    assert open_service(tmp_path / "s").status(res.job_id) is not None

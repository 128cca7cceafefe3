"""Durable storage: one append-only log and atomic file publication.

:class:`AppendLog` is the checksummed JSONL log under both the service's
write-ahead job log (:mod:`repro.serve.wal`) and the sweep checkpoint
(``checkpoint=`` of :func:`repro.perf.sweep_map`).
:func:`atomic_write_bytes` publishes whole files.  DESIGN.md ("Durable
storage") sets out the rules; in short:

* a line is canonical JSON (sorted keys, no spaces) carrying ``ck``, the
  first 12 hex digits of the sha256 of its *body* — the record without
  ``ck`` and ``mac`` — and, in a log opened with a key, ``mac``, the
  HMAC-SHA256 of the same body;
* an append is one ``os.write`` on a held ``O_APPEND`` descriptor behind
  the torn-tail guard.  It is not fsync'd: a line survives the death of
  its writer and torn writes, not a power loss or an OS crash;
* replay reads complete lines only and skips lines that fail ``ck``.

An installed :class:`repro.robust.faultinject.Chaos` harness
(``log={"append": ...}``) makes scheduled appends to any log fail with
``ENOSPC`` or persist only half their line.
"""

from __future__ import annotations

import errno
import hashlib
import hmac
import json
import os
import tempfile
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "AppendLog", "LogWriteError", "atomic_write_bytes", "atomic_write_json",
    "decode_line", "encode_record", "fsync_dir",
]


class LogWriteError(OSError):
    """An append could not be written (disk full, permissions): the
    record is not in the log."""


def _json_default(obj):
    as_dict = getattr(obj, "as_dict", None)
    if callable(as_dict):
        return as_dict()
    return repr(obj)


_canonical = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), default=_json_default
).encode


def _body(record: Dict) -> Tuple[Dict, bytes]:
    body = {k: v for k, v in record.items() if k not in ("ck", "mac")}
    return body, _canonical(body).encode("utf-8")


def _mac(key: bytes, payload: bytes) -> str:
    return hmac.new(key, payload, hashlib.sha256).hexdigest()


def _encode(record: Dict, key: Optional[bytes]) -> str:
    body, payload = _body(record)
    mac = _mac(key, payload) if key is not None else record.get("mac")
    body["ck"] = hashlib.sha256(payload).hexdigest()[:12]
    if mac is not None:
        body["mac"] = mac
    return _canonical(body)


def encode_record(record: Dict) -> str:
    """One log line (no newline) for ``record``: ``ck`` recomputed, a
    ``mac`` field carried over unchanged."""
    return _encode(record, None)


def decode_line(line: str) -> Optional[Dict]:
    """Parse and verify one line; ``None`` for torn/corrupt lines.  The
    record comes back without ``ck``; a ``mac`` stays, for
    :meth:`AppendLog.authentic`."""
    try:
        rec = json.loads(line)
    except ValueError:
        return None
    if not isinstance(rec, dict):
        return None
    ck = rec.pop("ck", None)
    if ck != hashlib.sha256(_body(rec)[1]).hexdigest()[:12]:
        return None
    return rec


class AppendLog:
    """Append/replay over one checksummed JSONL file; with ``key``
    (bytes) every appended line also carries a ``mac``."""

    def __init__(self, path, key: Optional[bytes] = None):
        self.path = os.fspath(path)
        self.key = key
        self._fd: Optional[int] = None
        #: replay bookkeeping from the last full or incremental read
        self.stats = {"lines": 0, "applied": 0, "skipped": 0}

    def _open(self) -> Tuple[int, int]:
        """The held descriptor and its file's size.  Reopened when the
        path names another file: a line written to a file that another
        process replaced (a checkpoint compaction) would be lost."""
        if self._fd is not None:
            st = os.fstat(self._fd)
            try:
                if os.path.samestat(st, os.stat(self.path)):
                    return self._fd, st.st_size
            except FileNotFoundError:
                pass
            self.close()
        # O_RDWR (not O_WRONLY): the torn-tail guard preads the final byte
        self._fd = os.open(self.path, os.O_CREAT | os.O_RDWR | os.O_APPEND, 0o644)
        return self._fd, os.fstat(self._fd).st_size

    def append(self, record: Dict) -> Dict:
        """Append ``record`` as one line and return it.

        Not fsync'd: the line survives the writer's death and torn
        writes, not a power loss.  Raises :class:`LogWriteError` when
        the write fails or a chaos harness injects a disk-full.  A
        chaos-injected *torn* write persists only half the line — what
        a crash mid-``write`` leaves — and returns normally.
        """
        data = _encode(record, self.key).encode("utf-8") + b"\n"
        # imported here so that importing this module loads no numpy
        from .robust.faultinject import active_chaos

        chaos = active_chaos()
        fault = chaos.log_op("append") if chaos is not None else None
        if fault == "disk_full":
            raise LogWriteError(errno.ENOSPC, "injected disk-full on log append")
        if fault == "torn":
            data = data[: max(1, len(data) // 2)]
        try:
            fd, size = self._open()
            # torn-tail guard: a file that does not end in a newline ends
            # in a torn line; start a fresh one instead of extending it
            if size > 0 and os.pread(fd, 1, size - 1) != b"\n":
                data = b"\n" + data
            os.write(fd, data)
        except OSError as exc:
            raise LogWriteError(exc.errno or errno.EIO, f"log append failed: {exc}") from exc
        return record

    def close(self) -> None:
        if self._fd is not None:
            try:
                os.close(self._fd)
            finally:
                self._fd = None

    def replay(self, offset: int = 0) -> Tuple[List[Dict], int]:
        """Read records from ``offset``; returns ``(records, new_offset)``.

        Only complete lines are consumed: a partial tail stays on disk
        for the next incremental read.  Skipped (torn/corrupt) lines are
        counted in :attr:`stats`.
        """
        records: List[Dict] = []
        try:
            with open(self.path, "rb") as fh:
                fh.seek(offset)
                blob = fh.read()
        except OSError:
            return records, offset
        end = blob.rfind(b"\n")
        if end < 0:
            return records, offset  # no complete line yet
        for raw in blob[:end].split(b"\n"):
            if not raw.strip():
                continue
            self.stats["lines"] += 1
            rec = decode_line(raw.decode("utf-8", "replace"))
            if rec is None:
                self.stats["skipped"] += 1
                continue
            self.stats["applied"] += 1
            records.append(rec)
        return records, offset + end + 1

    def authentic(self, record: Dict) -> bool:
        """Whether a replayed record carries this log's MAC (always true
        for a log without a key)."""
        if self.key is None:
            return True
        mac = record.get("mac")
        return isinstance(mac, str) and hmac.compare_digest(
            mac, _mac(self.key, _body(record)[1])
        )

    def rewrite(self, records: Iterable[Dict]) -> int:
        """Atomically replace the file with ``records`` (each record's
        ``mac`` kept as it is); returns the new size in bytes."""
        blob = b"".join(encode_record(r).encode("utf-8") + b"\n" for r in records)
        atomic_write_bytes(self.path, blob)
        return len(blob)


def fsync_dir(path: str) -> None:
    """Flush a directory's entry table (rename/link durability)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fs without dir fsync
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: str, data: bytes, fsync: bool = True) -> None:
    """Write ``data`` to ``path`` via tmp-file + fsync + ``os.replace``.

    The temp file is flushed to disk *before* the rename and the
    directory entry after it, so a power loss leaves either the old
    file or the complete new one — never a zero-length or torn file
    under the final name.
    """
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=d)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            if fsync:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, path)
        if fsync:
            fsync_dir(d)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_json(path: str, obj, fsync: bool = True) -> None:
    atomic_write_bytes(
        path, json.dumps(obj, indent=1, default=repr).encode("utf-8"), fsync=fsync
    )

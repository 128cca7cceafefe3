"""Write-ahead JSONL job log with torn-line recovery.

The service's only durable record of job state: one event per line in
a :class:`repro.durable.AppendLog` without a key (line format, torn-tail
guard and replay rules there).  Replay *skips* torn or corrupt lines; a
dropped event can only regress a job to an earlier state, and the
lease-recovery machinery re-runs it — at-least-once execution, with the
content-addressed result store giving the exactly-once recorded result.
Events survive the death of any process and torn writes; they are not
fsync'd, so a power loss can drop even an acknowledged submission.
"""

from __future__ import annotations

from ..durable import AppendLog, decode_line, encode_record
from ..durable import LogWriteError as WALError

__all__ = ["WALError", "WriteAheadLog", "encode_record", "decode_line"]


class WriteAheadLog(AppendLog):
    """The job log: an :class:`~repro.durable.AppendLog` without a key,
    in a class of its own so a profiler that wraps
    ``WriteAheadLog.append`` times the job log, not sweep checkpoints."""

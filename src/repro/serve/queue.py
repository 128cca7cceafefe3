"""Durable job queue: WAL-backed state machine + lease-based ownership.

Every job moves through an atomic state machine::

    queued -> leased -> running -> done
                |          |
                |          +-> failed --(backoff)--> queued
                |          +-> dead  (dead-letter quarantine)
                +-> queued  (lease reclaimed: worker crashed/hung)

State is *derived*: the only durable artifacts are the write-ahead log
(:mod:`repro.serve.wal`), per-job spec files, per-job **lease files**
and the content-addressed result store.  Anyone — the service process,
any worker, a post-crash restart — reconstructs the same job table by
replaying the WAL, which is what makes a ``kill -9`` of any process
recoverable.

Ownership is a lease file created with ``O_CREAT | O_EXCL`` (the
filesystem arbitrates: exactly one claimant wins), refreshed by the
owning worker's heartbeat (an ``mtime`` touch) and **reclaimed** when it
goes stale — heartbeats stopped for longer than the lease TTL — or when
the recorded owner PID is no longer alive (a restart reclaims a killed
worker's jobs immediately instead of waiting out the TTL).  Reclaim
races are settled by ``os.rename`` of the lease file: one winner.

Failure handling is a per-job retry/backoff ladder (deterministic
jittered exponential backoff, reusing
:func:`repro.perf.sweep.backoff_seconds`).  A job that exhausts its
budget — by raising, or by repeatedly killing its workers — goes to the
**dead-letter quarantine**: state ``dead``, a human-readable record
under ``dead/``, and no further execution until an operator
``requeue-dead``'s it.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
import uuid
from typing import Dict, List, Optional

from ..durable import atomic_write_json
from ..perf.sweep import backoff_seconds
from ..trace import get_tracer
from .jobspec import JobSpec
from .store import ResultStore
from .wal import WALError, WriteAheadLog

__all__ = ["JOB_STATES", "JobRecord", "JobQueue", "ServiceConfig"]

#: Recognised job states.  ``rejected`` is terminal (admission refused
#: it); ``done`` is terminal; ``dead`` is terminal until requeued.
JOB_STATES = (
    "queued",
    "leased",
    "running",
    "done",
    "failed",
    "dead",
    "rejected",
)

_TERMINAL = ("done", "rejected")


@dataclasses.dataclass
class ServiceConfig:
    """Service-wide policy knobs, persisted to ``config.json`` so every
    worker process — including ones launched later from the CLI — runs
    the same lease/retry semantics.

    Attributes
    ----------
    lease_ttl:
        Seconds without a heartbeat before a lease is presumed dead and
        its job reclaimed.
    heartbeat:
        Seconds between heartbeat touches (default ``lease_ttl / 3``).
    max_retries:
        Failed attempts beyond the first before a job is quarantined.
    backoff_base:
        Base seconds of the deterministic retry backoff ladder.
    poll:
        Worker idle-poll interval in seconds.
    trace:
        When true, worker processes write per-job trace spans to
        ``trace/worker-<id>-<pid>.jsonl`` under the service root.
    admission:
        ``"strict"`` (default) — error-severity lint diagnostics reject
        the submission; ``"warn"`` — record diagnostics but enqueue
        anyway; ``"off"`` — skip the lint gate entirely.
    gc_max_bytes / gc_max_age:
        Result-store GC budgets (see :meth:`repro.serve.store.ResultStore.gc`);
        ``0`` disables that bound.  When either is set, workers run the
        GC opportunistically between jobs (in-flight job keys are
        always protected from eviction).
    gc_every:
        A worker runs the opportunistic GC after every this-many
        completed jobs (only when a GC budget is configured).
    """

    lease_ttl: float = 10.0
    heartbeat: Optional[float] = None
    max_retries: int = 2
    backoff_base: float = 0.05
    poll: float = 0.05
    trace: bool = False
    admission: str = "strict"
    gc_max_bytes: int = 0
    gc_max_age: float = 0.0
    gc_every: int = 8

    def __post_init__(self):
        if self.heartbeat is None:
            self.heartbeat = max(0.05, self.lease_ttl / 3.0)
        if self.admission not in ("strict", "warn", "off"):
            raise ValueError(
                f"admission must be strict|warn|off, got {self.admission!r}"
            )

    def as_dict(self) -> Dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: Dict) -> "ServiceConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in d.items() if k in known})


@dataclasses.dataclass
class JobRecord:
    """Replayed view of one job — everything the status CLI shows."""

    job_id: str
    key: str = ""
    analysis: str = ""
    label: str = ""
    state: str = "queued"
    attempts: int = 0
    lease_reclaimed: int = 0
    requeues: int = 0
    duplicate_done: int = 0
    worker: Optional[str] = None
    failure_cause: Optional[str] = None
    retry_at: float = 0.0
    submitted_at: float = 0.0
    finished_at: float = 0.0
    wall: float = 0.0
    cached: bool = False
    diagnostics: List[Dict] = dataclasses.field(default_factory=list)

    @property
    def terminal(self) -> bool:
        return self.state in _TERMINAL

    def claimable(self, now: float) -> bool:
        if self.state == "queued":
            return True
        return self.state == "failed" and self.retry_at <= now

    def as_dict(self) -> Dict:
        return dataclasses.asdict(self)


def _stable_int(job_id: str) -> int:
    """Stable small int per job for decorrelated backoff jitter."""
    return sum(job_id.encode("utf-8")) % 997


class JobQueue:
    """The durable queue: WAL + specs + leases + dead-letter + results."""

    def __init__(self, root, config: Optional[ServiceConfig] = None):
        self.root = os.fspath(root)
        self.config = config or ServiceConfig()
        self.wal = WriteAheadLog(os.path.join(self.root, "wal.jsonl"))
        self.store = ResultStore(os.path.join(self.root, "results"))
        self.specs_dir = os.path.join(self.root, "specs")
        self.leases_dir = os.path.join(self.root, "leases")
        self.dead_dir = os.path.join(self.root, "dead")
        self.trace_dir = os.path.join(self.root, "trace")
        for d in (self.specs_dir, self.leases_dir, self.dead_dir, self.trace_dir):
            os.makedirs(d, exist_ok=True)
        self.jobs: Dict[str, JobRecord] = {}
        self._order: List[str] = []  # submission order (replay order)
        self._offset = 0
        # wall-vs-monotonic anchor: detects wall-clock steps so lease
        # TTLs (measured in file mtimes == wall time) cannot
        # mass-reclaim live leases after an NTP jump (see
        # reclaim_expired)
        self._clock_anchor = (time.time(), time.monotonic())

    # -- WAL replay / state machine ------------------------------------

    def refresh(self) -> None:
        """Fold any new WAL events into the in-memory job table."""
        records, self._offset = self.wal.replay(self._offset)
        for rec in records:
            self._apply(rec)

    def replay_all(self) -> Dict:
        """Full replay from byte 0 (service open / restart recovery)."""
        self.jobs.clear()
        self._order.clear()
        self._offset = 0
        self.wal.stats = {"lines": 0, "applied": 0, "skipped": 0}
        self.refresh()
        return dict(self.wal.stats)

    def _apply(self, ev: Dict) -> None:
        job_id = ev.get("job")
        kind = ev.get("ev")
        if not job_id or not kind:
            return
        r = self.jobs.get(job_id)
        if r is None:
            r = self.jobs[job_id] = JobRecord(job_id=job_id)
            self._order.append(job_id)
        if kind == "submitted":
            r.key = ev.get("key", r.key)
            r.analysis = ev.get("analysis", r.analysis)
            r.label = ev.get("label", r.label)
            r.submitted_at = ev.get("t", 0.0)
            if r.state == "queued":
                pass  # fresh job
        elif kind == "rejected":
            r.state = "rejected"
            r.key = ev.get("key", r.key)
            r.analysis = ev.get("analysis", r.analysis)
            r.label = ev.get("label", r.label)
            r.diagnostics = ev.get("diagnostics", [])
            r.failure_cause = "rejected by admission gate"
            r.finished_at = ev.get("t", 0.0)
        elif kind == "done":
            if r.state == "done":
                r.duplicate_done += 1  # exactly-once: first record wins
                return
            r.state = "done"
            r.worker = ev.get("worker", r.worker)
            r.wall = ev.get("wall", 0.0)
            r.cached = bool(ev.get("cached", False))
            r.finished_at = ev.get("t", 0.0)
            r.failure_cause = None
        elif r.terminal:
            return  # nothing moves a terminal job except nothing
        elif kind == "leased":
            r.state = "leased"
            r.worker = ev.get("worker")
            r.attempts = max(r.attempts, int(ev.get("attempt", r.attempts + 1)))
        elif kind == "running":
            r.state = "running"
            r.worker = ev.get("worker", r.worker)
        elif kind == "attempt_failed":
            r.state = "failed"
            r.failure_cause = ev.get("cause")
            r.retry_at = float(ev.get("retry_at", 0.0))
            r.worker = None
        elif kind == "lease_reclaimed":
            r.state = "queued"
            r.lease_reclaimed += 1
            r.worker = None
        elif kind == "dead":
            r.state = "dead"
            r.failure_cause = ev.get("cause", r.failure_cause)
            r.finished_at = ev.get("t", 0.0)
            r.worker = None
        elif kind == "requeued":
            if r.state in ("dead", "failed"):
                r.state = "queued"
                r.requeues += 1
                r.retry_at = 0.0
                r.failure_cause = None

    # -- event append helpers ------------------------------------------

    def _append(self, job_id: str, kind: str, **fields) -> Dict:
        rec = {"job": job_id, "ev": kind, "t": time.time()}
        rec.update(fields)
        self.wal.append(rec)
        # derive state from the durable log, not the in-memory intent:
        # a torn append then leaves memory agreeing with disk, and the
        # event is never double-applied by a later refresh()
        self.refresh()
        return rec

    # -- submission ----------------------------------------------------

    def spec_path(self, job_id: str) -> str:
        return os.path.join(self.specs_dir, f"{job_id}.json")

    def load_spec(self, job_id: str) -> JobSpec:
        with open(self.spec_path(job_id), "r", encoding="utf-8") as fh:
            return JobSpec.from_dict(json.load(fh))

    def new_job_id(self) -> str:
        return "job-" + uuid.uuid4().hex[:12]

    def record_submitted(self, job_id: str, spec: JobSpec) -> None:
        atomic_write_json(self.spec_path(job_id), spec.as_dict())
        self._append(
            job_id,
            "submitted",
            key=spec.key,
            analysis=spec.analysis,
            label=spec.label,
        )

    def record_rejected(self, job_id: str, spec: JobSpec, diagnostics: List[Dict]) -> None:
        atomic_write_json(self.spec_path(job_id), spec.as_dict())
        self._append(
            job_id,
            "rejected",
            key=spec.key,
            analysis=spec.analysis,
            label=spec.label,
            diagnostics=diagnostics,
        )

    def record_done(
        self, job_id: str, key: str, worker: str, wall: float, cached: bool = False
    ) -> None:
        self._append(
            job_id, "done", key=key, worker=worker, wall=wall, cached=cached
        )

    # -- leases --------------------------------------------------------

    def _lease_path(self, job_id: str) -> str:
        return os.path.join(self.leases_dir, f"{job_id}.lease")

    def try_lease(self, job_id: str, worker: str) -> bool:
        """Claim a job: exactly one O_EXCL creator wins the lease."""
        path = self._lease_path(job_id)
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        except FileExistsError:
            return False
        except OSError:
            return False
        r = self.jobs[job_id]
        attempt = r.attempts + 1
        try:
            os.write(
                fd,
                json.dumps(
                    {"job": job_id, "worker": worker, "pid": os.getpid(),
                     "attempt": attempt}
                ).encode("utf-8"),
            )
        finally:
            os.close(fd)
        try:
            self._append(job_id, "leased", worker=worker, attempt=attempt)
        except WALError:
            # lease without a durable event is just a stray file: drop
            # the claim so another (healthier) actor can take the job
            try:
                os.remove(path)
            except OSError:
                pass
            return False
        return True

    def heartbeat(self, job_id: str) -> None:
        try:
            os.utime(self._lease_path(job_id))
        except OSError:
            pass  # lease reclaimed under us: the WAL settles ownership

    def release_lease(self, job_id: str) -> None:
        try:
            os.remove(self._lease_path(job_id))
        except OSError:
            pass

    def _lease_owner_dead(self, path: str) -> bool:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                pid = int(json.load(fh).get("pid", 0))
        except (OSError, ValueError):
            return False  # unreadable == just created; rely on the TTL
        if pid <= 0 or pid == os.getpid():
            return False
        try:
            os.kill(pid, 0)
            return False
        except ProcessLookupError:
            return True
        except OSError:
            return False

    def clock_step(self, now: Optional[float] = None) -> float:
        """Seconds the wall clock has visibly stepped since this queue
        opened (positive: jumped forward; negative: jumped backward).

        Lease ages are wall-clock deltas against file mtimes, so a
        stepped clock makes every age wrong by the step size — in the
        forward direction, old enough to look TTL-expired at once.
        """
        wall0, mono0 = self._clock_anchor
        now = time.time() if now is None else now
        return now - (wall0 + (time.monotonic() - mono0))

    def reclaim_expired(self, now: Optional[float] = None) -> List[str]:
        """Reclaim jobs whose lease went stale or whose owner died.

        Returns the job ids reclaimed.  Also sweeps stray lease files
        (terminal jobs, claim-then-crash leftovers) and notices
        leased/running jobs with *no* lease file — an owner that died
        between unlinking its lease and recording the outcome.

        Staleness is clock-step-hardened: ages are clamped at zero
        (a lease touched "in the future" is fresh, not infinitely
        stale), and when the wall clock has visibly stepped against the
        monotonic clock since open, TTL expiry alone is not trusted —
        the recorded owner PID must *also* be dead before the lease is
        taken, so an NTP jump can never mass-reclaim live leases and
        run the same job on two workers.
        """
        now = time.time() if now is None else now
        # a step larger than one heartbeat is visible; smaller drift is
        # indistinguishable from scheduling noise and harmless vs TTL
        stepped = abs(self.clock_step(now)) > max(
            1.0, self.config.heartbeat or 1.0
        )
        reclaimed: List[str] = []
        tr = get_tracer()
        try:
            entries = os.listdir(self.leases_dir)
        except OSError:
            entries = []
        with_lease = set()
        for name in entries:
            if not name.endswith(".lease"):
                continue
            job_id = name[: -len(".lease")]
            with_lease.add(job_id)
            path = os.path.join(self.leases_dir, name)
            r = self.jobs.get(job_id)
            if r is None:
                continue
            if r.terminal or r.state in ("failed", "dead"):
                # outcome already recorded: the lease is a leftover
                try:
                    os.remove(path)
                except OSError:
                    pass
                continue
            try:
                age = max(0.0, now - os.path.getmtime(path))
            except OSError:
                continue  # vanished: owner released it just now
            stale = age > self.config.lease_ttl
            if stale and stepped:
                # TTL verdicts are untrustworthy across a clock step:
                # only a provably dead owner loses its lease
                stale = False
            if not stale and not self._lease_owner_dead(path):
                continue
            # one winner per reclaim: settle the race with a rename
            tomb = path + f".rip-{os.getpid()}-{uuid.uuid4().hex[:6]}"
            try:
                os.rename(path, tomb)
            except OSError:
                continue  # somebody else won
            try:
                os.remove(tomb)
            except OSError:
                pass
            if r.state == "queued":
                continue  # claim-then-crash before the leased event: free
            reclaimed.append(job_id)
            if tr.enabled:
                tr.event("serve.lease_reclaimed", job=job_id, stale=stale)
            try:
                self._append(job_id, "lease_reclaimed", attempt=r.attempts)
            except WALError:
                continue
            self._maybe_dead_after_crash(job_id)
        # leased/running jobs with no lease file at all: the owner died
        # after dropping its lease but before recording the outcome
        for job_id, r in list(self.jobs.items()):
            if r.state in ("leased", "running") and job_id not in with_lease:
                reclaimed.append(job_id)
                if tr.enabled:
                    tr.event("serve.lease_reclaimed", job=job_id, stale=True)
                try:
                    self._append(job_id, "lease_reclaimed", attempt=r.attempts)
                except WALError:
                    continue
                self._maybe_dead_after_crash(job_id)
        return reclaimed

    def _maybe_dead_after_crash(self, job_id: str) -> None:
        """A reclaimed attempt died without a verdict; if the job has
        burned through its whole budget killing workers, quarantine it."""
        r = self.jobs[job_id]
        if r.attempts > self.config.max_retries:
            self.mark_dead(job_id, "worker died repeatedly while executing this job")

    # -- failure ladder / dead letter ----------------------------------

    def record_running(self, job_id: str, worker: str) -> None:
        self._append(job_id, "running", worker=worker)

    def fail_attempt(self, job_id: str, cause: str) -> str:
        """Dispose of a failed attempt: retry with backoff or go dead.

        Returns the resulting state (``"failed"`` — scheduled for retry
        — or ``"dead"``).
        """
        r = self.jobs[job_id]
        if r.attempts > self.config.max_retries:
            self.mark_dead(job_id, cause)
            return "dead"
        delay = backoff_seconds(
            _stable_int(job_id), r.attempts, self.config.backoff_base
        )
        tr = get_tracer()
        if tr.enabled:
            tr.event("serve.retry", job=job_id, attempt=r.attempts,
                     delay=round(delay, 6))
        self._append(
            job_id,
            "attempt_failed",
            cause=cause,
            retry_at=time.time() + delay,
        )
        return "failed"

    def mark_dead(self, job_id: str, cause: str) -> None:
        r = self.jobs[job_id]
        tr = get_tracer()
        if tr.enabled:
            tr.event("serve.dead_letter", job=job_id, cause=cause[:200])
        self._append(job_id, "dead", cause=cause)
        quarantine = {
            "job_id": job_id,
            "key": r.key,
            "analysis": r.analysis,
            "label": r.label,
            "cause": cause,
            "attempts": r.attempts,
            "lease_reclaimed": r.lease_reclaimed,
            "spec": self.spec_path(job_id),
        }
        try:
            atomic_write_json(os.path.join(self.dead_dir, f"{job_id}.json"), quarantine)
        except OSError:  # pragma: no cover - quarantine dir unwritable
            pass

    def requeue_dead(self, job_id: Optional[str] = None) -> List[str]:
        """Resurrect dead jobs (all of them when ``job_id`` is None)."""
        targets = (
            [job_id]
            if job_id is not None
            else [j for j in self._order if self.jobs[j].state == "dead"]
        )
        out = []
        for j in targets:
            r = self.jobs.get(j)
            if r is None or r.state != "dead":
                continue
            self._append(j, "requeued")
            try:
                os.remove(os.path.join(self.dead_dir, f"{j}.json"))
            except OSError:
                pass
            out.append(j)
        return out

    # -- views ---------------------------------------------------------

    def in_order(self) -> List[JobRecord]:
        return [self.jobs[j] for j in self._order]

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for r in self.jobs.values():
            out[r.state] = out.get(r.state, 0) + 1
        return out

    def pending(self, now: Optional[float] = None) -> List[str]:
        """Jobs that still need work: claimable now or later, or owned
        by somebody who might still die (leased/running)."""
        now = time.time() if now is None else now
        return [
            j
            for j in self._order
            if self.jobs[j].state in ("queued", "leased", "running", "failed")
        ]

    def next_retry_at(self) -> Optional[float]:
        times = [
            self.jobs[j].retry_at
            for j in self._order
            if self.jobs[j].state == "failed"
        ]
        return min(times) if times else None

    def inflight_keys(self) -> set:
        """Content keys of jobs that still need their result: anything
        non-terminal may hit the cache on its next attempt, so GC must
        never evict these."""
        return {
            r.key
            for r in self.jobs.values()
            if r.key and r.state in ("queued", "leased", "running", "failed")
        }

    def gc_store(
        self,
        max_bytes: Optional[int] = None,
        max_age: Optional[float] = None,
        dry_run: bool = False,
    ) -> Dict:
        """Run result-store GC with in-flight keys pinned.

        ``None`` budgets fall back to the service config
        (``gc_max_bytes``/``gc_max_age``; ``0`` = no bound).  Workers
        call this opportunistically between jobs; operators via
        ``python -m repro.serve gc``.
        """
        if max_bytes is None:
            max_bytes = self.config.gc_max_bytes or None
        if max_age is None:
            max_age = self.config.gc_max_age or None
        self.refresh()
        stats = self.store.gc(
            max_bytes=max_bytes,
            max_age=max_age,
            pinned=self.inflight_keys(),
            dry_run=dry_run,
        )
        tr = get_tracer()
        if tr.enabled and (stats["evicted"] or stats["orphan_meta_removed"]):
            tr.event(
                "serve.gc",
                evicted=stats["evicted"],
                evicted_bytes=stats["evicted_bytes"],
                bytes_after=stats["bytes_after"],
                dry_run=dry_run,
            )
        return stats

    def active_job_for_key(self, key: str) -> Optional[str]:
        """A non-terminal, non-dead job already covering this content key
        (the submit-time in-flight dedupe target)."""
        for j in self._order:
            r = self.jobs[j]
            if r.key == key and r.state in ("queued", "leased", "running", "failed"):
                return j
        return None

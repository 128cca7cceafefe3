"""The simulation service front door: submit, status, drain, recover.

:class:`SimulationService` owns a service **root** directory::

    root/
      config.json   service-wide policy (lease TTL, retries, admission)
      wal.jsonl     the write-ahead job log (repro.serve.wal)
      specs/        one JSON spec per submitted job
      leases/       one lease file per in-flight job
      results/      the content-addressed result store
      dead/         dead-letter quarantine records
      trace/        per-worker trace JSONL files

Submission runs the admission gate (:func:`repro.serve.runner.lint_spec`
— reject-before-enqueue, so malformed netlists and impossible analyses
never cost a worker), then the content-addressed fast paths: an already
recorded result completes the job instantly (``cached``), an identical
job already in flight is joined rather than duplicated (``deduped``).
Everything else is enqueued (its spec fsync'd, its ``submitted``
event appended to the WAL, not fsync'd) and executed by workers —
inline via :meth:`drain`, or real processes via :meth:`spawn_workers`.

Opening a service root *is* crash recovery: the WAL replay rebuilds the
job table (skipping torn/corrupt lines), and :meth:`recover` reclaims
leases whose owners died.  There is no other recovery code path — the
cold-start path and the post-crash path are the same code, so recovery
is exercised on every open rather than only in disasters.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing as mp
import os
import time
from typing import Dict, List, Optional

from ..durable import atomic_write_json
from ..robust.diagnostics import ValidationReport
from ..trace import get_tracer
from .jobspec import JobSpec
from .queue import JobQueue, ServiceConfig
from .runner import lint_spec
from .worker import Worker, worker_main

__all__ = ["SimulationService", "SubmitResult", "open_service"]


@dataclasses.dataclass
class SubmitResult:
    """What :meth:`SimulationService.submit` tells the caller.

    ``state`` is one of ``"queued"`` (enqueued), ``"done"``
    (content-addressed cache hit: the result already exists),
    ``"deduped"`` (an identical job is already in flight — this is its
    id) or ``"rejected"`` (admission gate; see ``report``).
    """

    job_id: str
    key: str
    state: str
    report: Optional[ValidationReport] = None
    cached: bool = False

    @property
    def ok(self) -> bool:
        return self.state != "rejected"


class SimulationService:
    """Durable simulation job service over one root directory."""

    def __init__(self, root, config: Optional[ServiceConfig] = None):
        self.root = os.fspath(root)
        os.makedirs(self.root, exist_ok=True)
        cfg_path = os.path.join(self.root, "config.json")
        if config is None:
            config = self._load_config(cfg_path) or ServiceConfig()
        atomic_write_json(cfg_path, config.as_dict())
        self.config = config
        self.queue = JobQueue(self.root, config)
        #: WAL replay stats from open ({"lines", "applied", "skipped"}) —
        #: nonzero "skipped" means torn/corrupt lines were recovered past.
        self.recovery = self.queue.replay_all()

    @staticmethod
    def _load_config(path: str) -> Optional[ServiceConfig]:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return ServiceConfig.from_dict(json.load(fh))
        except (OSError, ValueError):
            return None

    # -- submission ----------------------------------------------------

    def submit(
        self,
        netlist: str,
        analysis: str,
        params: Optional[Dict] = None,
        label: str = "",
    ) -> SubmitResult:
        """Admit, dedupe and enqueue one simulation job."""
        spec = JobSpec(netlist=netlist, analysis=analysis,
                       params=params or {}, label=label)
        tr = get_tracer()
        self.queue.refresh()

        report = None
        if self.config.admission != "off":
            report = lint_spec(spec)
            if report.errors and self.config.admission == "strict":
                job_id = self.queue.new_job_id()
                self.queue.record_rejected(
                    job_id, spec,
                    diagnostics=[d.as_dict() for d in report.diagnostics],
                )
                if tr.enabled:
                    tr.event("serve.rejected", job=job_id,
                             errors=len(report.errors))
                return SubmitResult(job_id, spec.key, "rejected", report=report)

        if self.queue.store.has(spec.key):
            # result already recorded: the job is born done
            job_id = self.queue.new_job_id()
            self.queue.record_submitted(job_id, spec)
            self.queue.record_done(job_id, spec.key, worker="service",
                                   wall=0.0, cached=True)
            if tr.enabled:
                tr.event("serve.cache_hit", job=job_id, key=spec.key[:12])
            return SubmitResult(job_id, spec.key, "done", report=report,
                                cached=True)

        existing = self.queue.active_job_for_key(spec.key)
        if existing is not None:
            if tr.enabled:
                tr.event("serve.deduped", job=existing, key=spec.key[:12])
            return SubmitResult(existing, spec.key, "deduped", report=report)

        job_id = self.queue.new_job_id()
        self.queue.record_submitted(job_id, spec)
        return SubmitResult(job_id, spec.key, "queued", report=report)

    # -- results / status ----------------------------------------------

    def result(self, job_id: str):
        """The recorded payload for a done job (``None`` otherwise)."""
        self.queue.refresh()
        r = self.queue.jobs.get(job_id)
        if r is None or r.state != "done":
            return None
        return self.queue.store.get(r.key)

    def status(self, job_id: Optional[str] = None):
        """One job's record dict, or all jobs in submission order."""
        self.queue.refresh()
        if job_id is not None:
            r = self.queue.jobs.get(job_id)
            return r.as_dict() if r is not None else None
        return [r.as_dict() for r in self.queue.in_order()]

    def summary(self) -> Dict:
        self.queue.refresh()
        return {
            "root": self.root,
            "jobs": len(self.queue.jobs),
            "states": self.queue.counts(),
            "results": len(self.queue.store),
            "store_bytes": self.queue.store.total_bytes(),
            "wal": dict(self.queue.wal.stats),
            "recovered_skipped_lines": self.recovery.get("skipped", 0),
        }

    def queue_depth(self) -> int:
        """How many jobs still need work (queued/leased/running/failed)
        — the number the HTTP front-end's backpressure gate watches."""
        self.queue.refresh()
        return len(self.queue.pending())

    # -- result-store GC -----------------------------------------------

    def gc(
        self,
        max_bytes: Optional[int] = None,
        max_age: Optional[float] = None,
        dry_run: bool = False,
    ) -> Dict:
        """Bound the result store (see :meth:`ResultStore.gc`).

        In-flight job keys and on-disk pins are never evicted; ``None``
        budgets fall back to the service config.
        """
        return self.queue.gc_store(
            max_bytes=max_bytes, max_age=max_age, dry_run=dry_run
        )

    # -- execution -----------------------------------------------------

    def drain(self, max_jobs: Optional[int] = None,
              max_seconds: Optional[float] = None) -> int:
        """Run an inline worker until the queue is empty.

        The simplest deployment — and the recovery tool of last resort:
        after any crash, opening the root and draining finishes every
        unfinished job.
        """
        self.recover()
        w = Worker(self.queue, worker_id=f"inline-{os.getpid()}")
        return w.run(until_drained=True, max_jobs=max_jobs,
                     max_seconds=max_seconds)

    def spawn_workers(self, n: int = 2, until_drained: bool = True,
                      max_seconds: Optional[float] = None) -> List[mp.Process]:
        """Start ``n`` worker processes over this root; returns them
        unjoined so callers can supervise (or kill) them."""
        ctx = mp.get_context()
        procs = []
        for i in range(n):
            p = ctx.Process(
                target=worker_main,
                args=(self.root,),
                kwargs={"worker_id": f"w{i}", "until_drained": until_drained,
                        "max_seconds": max_seconds},
                daemon=True,
            )
            p.start()
            procs.append(p)
        return procs

    # -- recovery / quarantine -----------------------------------------

    def recover(self) -> Dict:
        """Replay the WAL and reclaim dead/stale leases; returns what
        happened (replay stats + reclaimed job ids)."""
        stats = self.queue.replay_all()
        reclaimed = self.queue.reclaim_expired()
        return {"wal": stats, "reclaimed": reclaimed}

    def requeue_dead(self, job_id: Optional[str] = None) -> List[str]:
        self.queue.refresh()
        return self.queue.requeue_dead(job_id)

    def wait(self, timeout: float = 30.0, poll: float = 0.05) -> bool:
        """Block until no job is pending (True) or ``timeout`` (False).

        Purely observational — reclaiming/working is left to workers, so
        a supervisor can wait without competing for leases.
        """
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            self.queue.refresh()
            if not self.queue.pending():
                return True
            time.sleep(poll)
        return False


def open_service(root, **config_kwargs) -> SimulationService:
    """Open (or create) a service root; kwargs become the config."""
    config = ServiceConfig(**config_kwargs) if config_kwargs else None
    return SimulationService(root, config=config)

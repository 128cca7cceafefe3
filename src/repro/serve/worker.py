"""Worker processes: claim, heartbeat, solve, record.

A worker is a loop over the durable queue:

1. **reclaim** any expired/orphaned leases (every worker is also a
   janitor, so recovery needs no dedicated coordinator process);
2. **claim** the oldest runnable job via the O_EXCL lease file;
3. start a daemon **heartbeat** thread touching the lease's mtime, so a
   long solve is distinguishable from a dead worker;
4. **cache check** — if the content-addressed store already holds the
   job's key, record ``done (cached)`` without solving.  This is both
   the dedupe fast path and the crash-recovery fast path: a job whose
   worker died *after* the store write but *before* the done event gets
   re-leased, hits the cache, and completes without a second solve;
5. otherwise **solve** via :func:`repro.serve.runner.run_job`, write the
   result to the store (write-once: a concurrent duplicate is dropped),
   and append the ``done`` event;
6. on exception, hand the cause to the queue's retry/backoff ladder —
   which retries later or quarantines the job in the dead-letter.

Workers swallow :class:`~repro.serve.wal.WALError` on state transitions
(a worker that cannot write the log keeps its solve; the lease/reclaim
machinery re-derives the state), and an installed
:class:`~repro.robust.faultinject.Chaos` harness is consulted
before each solve — that is where injected crashes/hangs/poison strike,
in the worker process, exactly where real ones would.

:func:`worker_main` is the module-level process entry point (picklable,
``multiprocessing``-friendly); per-worker trace files land under the
service root's ``trace/`` directory so
``python -m repro.trace summarize serve-root/trace/*.jsonl`` is the
service's latency dashboard.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Optional

from ..robust.faultinject import active_chaos
from ..trace import enable as trace_enable, get_tracer
from .queue import JobQueue, ServiceConfig
from .runner import run_job
from .wal import WALError

__all__ = ["Worker", "worker_main"]


class Worker:
    """One claim/solve/record loop over a service root."""

    def __init__(self, queue: JobQueue, worker_id: Optional[str] = None):
        self.q = queue
        self.worker_id = worker_id or f"w-{os.getpid()}"
        self.jobs_run = 0

    # -- claim ---------------------------------------------------------

    def _claim_next(self) -> Optional[str]:
        now = time.time()
        for r in self.q.in_order():
            if not r.claimable(now):
                continue
            if self.q.try_lease(r.job_id, self.worker_id):
                return r.job_id
        return None

    # -- heartbeat -----------------------------------------------------

    def _heartbeat_loop(self, job_id: str, stop: threading.Event) -> None:
        interval = self.q.config.heartbeat
        while not stop.wait(interval):
            self.q.heartbeat(job_id)

    # -- execute -------------------------------------------------------

    def _execute(self, job_id: str) -> None:
        spec = self.q.load_spec(job_id)
        tr = get_tracer()
        stop = threading.Event()
        beat = threading.Thread(
            target=self._heartbeat_loop, args=(job_id, stop), daemon=True
        )
        beat.start()
        t0 = time.perf_counter()
        try:
            cached = self.q.store.get(spec.key)
            if cached is not None:
                if tr.enabled:
                    tr.event("serve.cache_hit", job=job_id, key=spec.key[:12])
                self._record_done(job_id, spec.key, t0, cached=True)
                return
            try:
                self.q.record_running(job_id, self.worker_id)
            except WALError:
                pass  # lease + reclaim re-derive the state
            chaos = active_chaos()
            if chaos is not None:
                chaos.before_job(spec.netlist, job_id)
            payload = run_job(spec)
            self.q.store.put(
                spec.key,
                payload,
                meta={"analysis": spec.analysis, "job_id": job_id,
                      "worker": self.worker_id},
            )
            self._record_done(job_id, spec.key, t0)
        except Exception as exc:
            cause = f"{type(exc).__name__}: {exc}"
            if tr.enabled:
                tr.event("serve.attempt_failed", job=job_id, cause=cause[:200])
            try:
                self.q.fail_attempt(job_id, cause)
            except WALError:
                pass
        finally:
            stop.set()
            self.q.release_lease(job_id)

    def _record_done(self, job_id: str, key: str, t0: float, cached: bool = False):
        try:
            self.q.record_done(
                job_id, key, self.worker_id,
                wall=time.perf_counter() - t0, cached=cached,
            )
        except WALError:
            # the result (if any) is in the store; reclaim + cache check
            # will finish the bookkeeping on a later attempt
            pass

    # -- opportunistic store GC ----------------------------------------

    def _maybe_gc(self) -> None:
        """Bound the result store between jobs when the config asks.

        Runs every ``gc_every`` completed jobs; in-flight keys are
        pinned by :meth:`JobQueue.gc_store`, so a worker janitoring the
        store can never evict a result another worker is about to
        claim.  GC failures never take a worker down.
        """
        cfg = self.q.config
        if not (cfg.gc_max_bytes or cfg.gc_max_age):
            return
        if self.jobs_run % max(1, cfg.gc_every):
            return
        try:
            self.q.gc_store()
        except OSError:  # pragma: no cover - store dir unlistable
            pass

    # -- loop ----------------------------------------------------------

    def run(
        self,
        until_drained: bool = True,
        max_jobs: Optional[int] = None,
        max_seconds: Optional[float] = None,
    ) -> int:
        """Process jobs; returns how many attempts this worker executed.

        ``until_drained=True`` exits once no job is queued, leased,
        running or awaiting retry; ``False`` keeps serving until
        ``max_jobs``/``max_seconds`` (daemon mode).
        """
        deadline = time.monotonic() + max_seconds if max_seconds else None
        while True:
            if deadline is not None and time.monotonic() >= deadline:
                break
            if max_jobs is not None and self.jobs_run >= max_jobs:
                break
            self.q.refresh()
            try:
                self.q.reclaim_expired()
            except WALError:
                pass
            job_id = self._claim_next()
            if job_id is not None:
                self._execute(job_id)
                self.jobs_run += 1
                self._maybe_gc()
                continue
            if until_drained and not self.q.pending():
                break
            time.sleep(self.q.config.poll)
        return self.jobs_run


def worker_main(
    root,
    worker_id: Optional[str] = None,
    until_drained: bool = True,
    max_jobs: Optional[int] = None,
    max_seconds: Optional[float] = None,
) -> int:
    """Process entry point: open the queue at ``root`` and serve.

    Module-level so ``multiprocessing.Process(target=worker_main, ...)``
    works under every start method.  When the service config enables
    tracing, this process writes ``trace/worker-<id>-<pid>.jsonl`` under
    the root.
    """
    root = os.fspath(root)
    config = _load_config(root)
    queue = JobQueue(root, config)
    worker_id = worker_id or f"w-{os.getpid()}"
    if config.trace:
        trace_enable(
            os.path.join(root, "trace", f"worker-{worker_id}-{os.getpid()}.jsonl")
        )
    queue.replay_all()
    w = Worker(queue, worker_id)
    try:
        return w.run(
            until_drained=until_drained, max_jobs=max_jobs, max_seconds=max_seconds
        )
    finally:
        tr = get_tracer()
        close = getattr(tr, "close", None)
        if callable(close):
            close()


def _load_config(root: str) -> ServiceConfig:
    import json

    path = os.path.join(root, "config.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return ServiceConfig.from_dict(json.load(fh))
    except (OSError, ValueError):
        return ServiceConfig()

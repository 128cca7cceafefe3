"""Crash-safe simulation service: durable queue, leases, solve cache.

The paper's methodology assumes simulation is a *service* the design
flow leans on — schematic capture hands netlists to simulators and
expects answers back reliably, not "resubmit everything because a
machine died".  This package is that service layer for the repro stack:

* :class:`SimulationService` / :func:`open_service` — the front door
  (submit / status / drain / recover) over one durable root directory;
* :class:`JobSpec` + :func:`content_key` — content-addressed job
  identity (identical work is solved once, ever);
* :class:`JobQueue` — the WAL-backed job state machine with lease-based
  worker ownership and dead-letter quarantine;
* :class:`Worker` / :func:`worker_main` — the claim/solve/record loop;
* :class:`ResultStore` — the fsync-durable, write-once, optionally
  HMAC-authenticated result store, with corrupt-entry quarantine and
  LRU eviction (:meth:`ResultStore.gc`) under pin protection;
* :class:`WriteAheadLog` — the checksummed JSONL event log with
  torn-line recovery;
* :class:`ServeHTTPServer` / :func:`serve_http` — the stdlib-only HTTP
  front-end (admission, backpressure, bearer auth, verified
  byte-serving of results);
* :class:`ServeClient` — the scripting client with retry/backoff and
  verify-before-unpickle result fetching.

Job specs and results are fsync'd; WAL events survive the death of any
process and torn writes but not a power loss, which can drop a job that
``submit`` already acknowledged.

``python -m repro.serve`` is the operator CLI (including ``serve`` for
the HTTP front-end and ``gc`` for store eviction).  See DESIGN.md ("Job
lifecycle", "Durable storage") for the state machine and the
crash-recovery rules.
"""

from .client import ServeClient, ServeClientError, ServeResultError
from .http import HIGH_WATER_ENV, TOKEN_ENV, ServeHTTPServer, serve_http
from .jobspec import JobSpec, canonical_netlist, canonical_params, content_key
from .queue import JOB_STATES, JobQueue, JobRecord, ServiceConfig
from .runner import ANALYSES, lint_spec, run_job
from .service import SimulationService, SubmitResult, open_service
from .store import (
    GC_MAX_AGE_ENV,
    GC_MAX_BYTES_ENV,
    RESULT_KEY_ENV,
    ResultStore,
)
from .wal import WALError, WriteAheadLog
from .worker import Worker, worker_main

__all__ = [
    "ANALYSES",
    "GC_MAX_AGE_ENV",
    "GC_MAX_BYTES_ENV",
    "HIGH_WATER_ENV",
    "JOB_STATES",
    "JobQueue",
    "JobRecord",
    "JobSpec",
    "RESULT_KEY_ENV",
    "ResultStore",
    "ServeClient",
    "ServeClientError",
    "ServeHTTPServer",
    "ServeResultError",
    "ServiceConfig",
    "SimulationService",
    "SubmitResult",
    "TOKEN_ENV",
    "WALError",
    "Worker",
    "WriteAheadLog",
    "canonical_netlist",
    "canonical_params",
    "content_key",
    "lint_spec",
    "open_service",
    "run_job",
    "serve_http",
    "worker_main",
]

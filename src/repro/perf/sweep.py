"""Deterministic, fault-tolerant parallel executor for sweeps.

AC/HB frequency points, phase-noise Monte-Carlo paths, ROM transfer
sweeps and EM panel-matrix row blocks are all independent work items.
:func:`sweep_map` runs them through one of three backends:

``"serial"``
    A plain loop.  The reference behaviour every other backend must
    reproduce bit-for-bit.
``"thread"``
    A ``concurrent.futures`` thread pool.  Cheap to spin up and fine
    when the per-item work releases the GIL (sparse LU, BLAS), but
    pure-Python device evaluation serialises on the GIL and threads can
    *lose* to serial.
``"process"``
    A ``concurrent.futures.ProcessPoolExecutor``, so CPU-bound Python
    work scales with cores.  Requires the task callable, the items and
    the results to be picklable; when the task is not picklable the
    call transparently degrades to the thread backend (recorded in
    ``stats["backend"]``).

Three invariants the adopters rely on:

* **deterministic ordering** — results come back in item order,
  regardless of completion order, chunking, backend or worker count;
* **backend/worker-count independence** — the per-item computation
  never depends on ``workers`` or the backend, so serial, threaded and
  process runs produce bit-identical outputs (pinned by
  ``tests/test_sweep_backends.py``);
* **purity** — tasks must be deterministic functions of their item (no
  hidden mutable state): the executor may re-run items after worker
  crashes, timeouts or transient faults, and dispatch gives no ordering
  guarantee during execution.

Configuration: ``workers=`` / ``backend=`` arguments win; otherwise the
``REPRO_SWEEP_WORKERS`` / ``REPRO_SWEEP_BACKEND`` environment variables
apply; the defaults are one worker (serial) and the thread backend.

Fault tolerance
---------------

Long sweeps (Monte-Carlo ensembles, EM extraction batches, corner
exploration) must survive individual solves hanging, crashing a worker,
or failing transiently.  :func:`sweep_map` grows four orthogonal knobs
(arguments win; ``REPRO_SWEEP_TIMEOUT`` / ``REPRO_SWEEP_RETRIES`` /
``REPRO_SWEEP_CHECKPOINT`` environment variables apply otherwise):

``timeout=``
    Per-item deadline in seconds.  Enforcement strength is per backend:
    the process backend interrupts the item *inside* the worker with
    ``SIGALRM`` (tasks run on the worker's main thread) and backstops a
    stuck worker by replacing the whole pool; the serial backend uses
    ``SIGALRM`` when running on the main thread and post-hoc detection
    otherwise; the thread backend discards late results post hoc and
    can only *abandon* a stuck item's pool (soft timeout — its threads
    leak until their items return; the pool's other items run on and
    are not run again).
``retries=`` / ``retry_backoff=`` / ``retry_on=``
    Bounded re-execution of failed items with deterministic jittered
    exponential backoff (:func:`backoff_seconds` — no RNG state, so two
    runs of the same sweep back off identically).  ``retry_on`` narrows
    which exception types are transient (default: any ``Exception``)
    and matches identically on every backend: a worker exception that
    cannot be pickled back to the parent arrives as
    :class:`SweepRemoteError`, which carries the original type's MRO
    and matches ``retry_on`` as the original would have.
``on_item_failure=``
    ``"raise"`` (default) fails the sweep once an item exhausts its
    attempts (which error wins is set out below);
    ``"retry"`` is ``"raise"`` with a default retry budget of one;
    ``"skip"`` quarantines exhausted items — their result slot is
    ``None`` and the sweep returns partial results plus a per-item
    ledger (``stats["items"]``, a list of
    :class:`~repro.robust.report.SweepItemRecord` dicts with wall time,
    attempts, backoff and failure cause per item).
``checkpoint=`` / ``checkpoint_tag=``
    Path of an append-only JSONL checkpoint, a
    :class:`repro.durable.AppendLog` that the sweep appends to through
    one held descriptor and closes when it ends.  Completed items are
    persisted keyed by a content address (fingerprint of ``fn`` +
    pickle hash of the item), so an interrupted sweep — including one
    torn down by ``KeyboardInterrupt`` or a broken pool — resumes
    executing only the items not already on disk.  Appends are not
    fsync'd: a line survives the sweep's death, not a power loss.
    ``checkpoint_tag`` pins the fingerprint explicitly when ``fn`` is
    rebuilt between runs (closures, functools.partial) and would not
    hash stably.
    Restoring unpickles the stored results, so the checkpoint file must
    come from a trusted writer; set ``REPRO_SWEEP_CHECKPOINT_KEY`` to
    authenticate every line with an HMAC and have restore ignore
    tampered or unauthenticated lines instead of unpickling them.

One executor runs every sweep, armed or not.  A serial sweep runs the
per-item unit inline.  Thread and process sweeps share one dispatch
loop and differ only in the pool and the unit they submit.  A thread
future carries one item.  A process sweep with no deadline or
checkpoint armed sends items in chunks of ``chunksize`` (default
``ceil(n / (4 * workers))``), all submitted up front; with a checkpoint
each future carries one item, so an item is saved as soon as it
finishes.  With a deadline, each future carries one item and no more
futures than workers are outstanding, so the parent's backstop can
time each item from its start.  Under ``"raise"`` with no retry budget
a chunk stops at its first failure.  A process pool that breaks
mid-flight (a worker was OOM-killed or segfaulted) is replaced, armed
or not: finished futures are harvested, the crash *suspects* — items
whose breadcrumb says a worker was executing them when it died — are
replayed in isolated single-worker pools, and every other item is
resubmitted for free.
Under ``"raise"`` (and ``"retry"`` once retries run out) the sweep
raises the error of the lowest-indexed item that used up its attempts,
once every lower-indexed item has finished, so the error does not
depend on the backend, worker count, chunking or completion order.
Arming a knob (or installing a :class:`repro.robust.faultinject.Chaos`
harness with ``items`` faults) adds the per-item ledger to ``stats``; a
deadline or a checkpoint also switches process dispatch to one item per
future.

Worker processes are seeded at pool start with the parent's tracing
state: child spans are aggregated in-memory and folded back into the
parent tracer, so ``SolveReport.perf["trace"]`` sees sweep work done
in workers.
"""

from __future__ import annotations

import base64
import functools
import hashlib
import math
import multiprocessing
import os
import pickle
import queue
import signal
import threading
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, List, Optional

from .. import trace as _trace
from ..durable import AppendLog
from ..robust.faultinject import active_chaos
from ..robust.report import SweepItemRecord
from ..trace import get_tracer

__all__ = [
    "WORKERS_ENV",
    "BACKEND_ENV",
    "TIMEOUT_ENV",
    "RETRIES_ENV",
    "CHECKPOINT_ENV",
    "CHECKPOINT_KEY_ENV",
    "MAX_ITEM_RECORDS_ENV",
    "BACKENDS",
    "ON_ITEM_FAILURE_MODES",
    "SweepItemTimeout",
    "SweepWorkerCrash",
    "SweepRemoteError",
    "SweepItemSkipped",
    "SkippedSlot",
    "backoff_seconds",
    "resolve_workers",
    "resolve_backend",
    "resolve_timeout",
    "resolve_retries",
    "resolve_checkpoint",
    "resolve_fault_policy",
    "resolve_max_item_records",
    "sweep_map",
]

#: Environment variable consulted when ``workers`` is None.
WORKERS_ENV = "REPRO_SWEEP_WORKERS"
#: Environment variable consulted when ``backend`` is None.
BACKEND_ENV = "REPRO_SWEEP_BACKEND"
#: Environment variable consulted when ``timeout`` is None.
TIMEOUT_ENV = "REPRO_SWEEP_TIMEOUT"
#: Environment variable consulted when ``retries`` is None.
RETRIES_ENV = "REPRO_SWEEP_RETRIES"
#: Environment variable consulted when ``checkpoint`` is None.
CHECKPOINT_ENV = "REPRO_SWEEP_CHECKPOINT"
#: Optional secret for per-line checkpoint HMACs.  When set, saved
#: lines are authenticated and unauthenticated/tampered lines are
#: ignored on restore.  Without it the checkpoint file must be trusted:
#: restore unpickles result blobs, and unpickling attacker-controlled
#: data executes arbitrary code.
CHECKPOINT_KEY_ENV = "REPRO_SWEEP_CHECKPOINT_KEY"
#: Cap on detailed ``stats["items"]`` ledger entries (see
#: :func:`resolve_max_item_records`).  ``0`` means unlimited; unset
#: means 10000.
MAX_ITEM_RECORDS_ENV = "REPRO_SWEEP_MAX_ITEM_RECORDS"
#: Recognised backend names.
BACKENDS = ("serial", "thread", "process")
#: Recognised ``on_item_failure`` policies.
ON_ITEM_FAILURE_MODES = ("raise", "retry", "skip")

#: Default base of the jittered exponential retry backoff, in seconds.
_DEFAULT_BACKOFF = 0.05

#: Checkpoint-compaction size trigger in bytes.  Opening a checkpoint
#: file larger than this that contains superseded or corrupt lines
#: rewrites it atomically, keeping only the latest line per item key
#: (across every fingerprint sharing the file).
_COMPACT_BYTES = 4 * 1024 * 1024

#: Default ``stats["items"]`` ledger cap (detailed records).
_DEFAULT_MAX_ITEM_RECORDS = 10000


class SweepItemTimeout(TimeoutError):
    """A sweep item exceeded its per-item deadline.

    ``enforced`` records the mechanism that caught it — ``"signal"``
    (``SIGALRM`` interrupted the item mid-flight), ``"posthoc"`` (the
    item finished but over budget; its result is discarded for
    determinism), ``"abandoned"`` (thread backend: the worker thread
    was abandoned and leaks until its item returns) or ``"kill"``
    (process backend: the worker ignored its in-worker alarm and the
    whole pool was replaced).

    All constructor arguments ride through ``args`` so instances
    pickle across process boundaries intact.
    """

    def __init__(self, index: int, deadline: float, enforced: str = "signal"):
        super().__init__(index, deadline, enforced)
        self.index = index
        self.deadline = deadline
        self.enforced = enforced

    def __str__(self):
        return (
            f"sweep item {self.index} exceeded its {self.deadline:.6g} s "
            f"deadline (enforced: {self.enforced})"
        )


class SweepItemSkipped(RuntimeError):
    """A consumer touched a result slot that ``on_item_failure="skip"``
    quarantined.

    ``sweep_map`` leaves ``None`` (or a :class:`SkippedSlot` placeholder,
    for consumers that wrap their results) in the slot of an item whose
    retries were exhausted.  Downstream code that cannot tolerate holes
    raises this instead of an opaque ``TypeError``/``AttributeError``,
    with guidance: inspect ``stats["items"]`` for the failure causes, or
    run with ``on_item_failure="raise"`` to surface the original error.
    """

    def __init__(self, index, context: str = ""):
        super().__init__(index, context)
        self.index = index
        self.context = context

    def __str__(self):
        where = f" in {self.context}" if self.context else ""
        return (
            f"sweep item {self.index} was skipped by on_item_failure='skip'"
            f"{where}; its result slot is empty.  Pass stats={{}} to the sweep "
            "and inspect stats['items'] for the recorded failure cause, or "
            "rerun with on_item_failure='raise' to surface the original error."
        )


class SkippedSlot:
    """Falsy placeholder for a skipped sweep item's result slot.

    Consumers that hand sweep results straight back to callers (e.g.
    ``hb_sweep``) replace ``None`` holes with this so that accidental
    attribute access fails loudly with :class:`SweepItemSkipped`
    guidance instead of an ``AttributeError`` on ``None``.  Test for it
    with ``bool(slot)`` / ``isinstance(slot, SkippedSlot)``.
    """

    __slots__ = ("index", "context")

    def __init__(self, index, context: str = ""):
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "context", context)

    def __bool__(self):
        return False

    def __repr__(self):
        return f"SkippedSlot(index={self.index!r}, context={self.context!r})"

    def __getattr__(self, item):
        raise SweepItemSkipped(
            object.__getattribute__(self, "index"),
            object.__getattribute__(self, "context"),
        )


class SweepWorkerCrash(RuntimeError):
    """A worker process died while (probably) executing a sweep item.

    Raised against the item whose in-flight breadcrumb survived the
    crash once its isolated replay budget is exhausted — i.e. the item
    keeps killing workers and is presumed poisonous.
    """

    def __init__(self, index: int, detail: str = "worker process died"):
        super().__init__(index, detail)
        self.index = index
        self.detail = detail

    def __str__(self):
        return f"sweep item {self.index}: {self.detail}"


class SweepRemoteError(RuntimeError):
    """A worker-side exception that could not be pickled back to the
    parent process.

    The original object is lost at the process boundary, so this
    wrapper records the original type's qualified name (``original``)
    and the qualified names of its whole MRO (``mro``).  ``retry_on``
    matching consults ``mro`` — never this wrapper's own type — so an
    unpicklable ``MyError`` still matches ``retry_on=(MyError,)`` (and
    any of its bases) exactly as it would on the serial and thread
    backends.

    All constructor arguments ride through ``args`` so instances
    pickle across process boundaries intact.
    """

    def __init__(self, original: str, message: str, mro: tuple = ()):
        mro = tuple(mro)
        super().__init__(original, message, mro)
        self.original = original
        self.message = message
        self.mro = mro

    def __str__(self):
        return (
            f"{self.original}: {self.message} "
            "(original exception was not picklable across the process "
            "boundary)"
        )


def _qualify(tp: type) -> str:
    return f"{getattr(tp, '__module__', '')}.{getattr(tp, '__qualname__', '')}"


def resolve_workers(workers: Optional[int] = None) -> int:
    """Effective worker count: explicit arg, else env var, else 1.

    Rejects non-integers and values ``<= 0`` with :class:`ValueError`
    (both for the explicit argument and for the environment variable) —
    a typo'd worker count must fail loudly, not silently run serial.
    """
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "").strip()
        if not raw:
            return 1
        try:
            workers = int(raw)
        except ValueError:
            raise ValueError(
                f"{WORKERS_ENV}={raw!r} is not an integer worker count"
            ) from None
    if isinstance(workers, bool) or not hasattr(type(workers), "__index__"):
        raise ValueError(
            f"workers must be an integer >= 1, got {workers!r} "
            f"({type(workers).__name__})"
        )
    workers = int(workers)
    if workers <= 0:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def resolve_backend(backend: Optional[str] = None) -> str:
    """Effective backend name: explicit arg, else env var, else "thread".

    Unknown names raise :class:`ValueError` listing the valid choices.
    """
    if backend is None:
        raw = os.environ.get(BACKEND_ENV, "").strip().lower()
        if not raw:
            return "thread"
        backend = raw
    backend = str(backend).lower()
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown sweep backend {backend!r}; expected one of {BACKENDS}"
        )
    return backend


def resolve_timeout(timeout: Optional[float] = None) -> Optional[float]:
    """Effective per-item deadline: explicit arg, else env var, else None."""
    if timeout is None:
        raw = os.environ.get(TIMEOUT_ENV, "").strip()
        if not raw:
            return None
        try:
            timeout = float(raw)
        except ValueError:
            raise ValueError(
                f"{TIMEOUT_ENV}={raw!r} is not a number of seconds"
            ) from None
    timeout = float(timeout)
    if not math.isfinite(timeout) or timeout <= 0:
        raise ValueError(f"timeout must be a finite number > 0, got {timeout!r}")
    return timeout


def resolve_retries(
    retries: Optional[int] = None, on_item_failure: str = "raise"
) -> int:
    """Effective retry budget: explicit arg, else env var, else a
    policy-dependent default (1 under ``"retry"``, 0 otherwise)."""
    if retries is None:
        raw = os.environ.get(RETRIES_ENV, "").strip()
        if not raw:
            return 1 if on_item_failure == "retry" else 0
        try:
            retries = int(raw)
        except ValueError:
            raise ValueError(
                f"{RETRIES_ENV}={raw!r} is not an integer retry count"
            ) from None
    if isinstance(retries, bool) or not hasattr(type(retries), "__index__"):
        raise ValueError(f"retries must be an integer >= 0, got {retries!r}")
    retries = int(retries)
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    return retries


def resolve_checkpoint(checkpoint=None) -> Optional[str]:
    """Effective checkpoint path: explicit arg, else env var, else None."""
    if checkpoint is None:
        raw = os.environ.get(CHECKPOINT_ENV, "").strip()
        return raw or None
    return os.fspath(checkpoint)


def resolve_max_item_records(value=None) -> int:
    """Effective cap on detailed ``stats["items"]`` ledger entries.

    Explicit arg, else :data:`MAX_ITEM_RECORDS_ENV`, else 10000.  ``0``
    means unlimited; negative or non-numeric values raise
    :class:`ValueError`.  When a sweep has more items than the cap, the
    ledger keeps every non-``ok`` record first (failures are what the
    ledger is *for*), pads with ``ok`` records in index order, and
    reports the exact per-status tallies in ``stats["status_counts"]``
    plus the overflow in ``stats["items_truncated"]`` — bounded memory
    on million-point sweeps without losing the rollup arithmetic.
    """
    if value is None:
        raw = os.environ.get(MAX_ITEM_RECORDS_ENV, "").strip()
        if not raw:
            return _DEFAULT_MAX_ITEM_RECORDS
        value = raw
    try:
        n = int(value)
    except (TypeError, ValueError):
        raise ValueError(
            f"max_item_records must be an integer >= 0, got {value!r}"
        )
    if n < 0:
        raise ValueError(
            f"max_item_records must be an integer >= 0, got {value!r}"
        )
    return n


def resolve_fault_policy(
    on_item_failure: Optional[str] = None,
    timeout: Optional[float] = None,
    retries: Optional[int] = None,
    checkpoint=None,
) -> tuple:
    """:func:`sweep_map`'s fault-tolerance knobs, resolved, and whether
    they arm it.

    Returns ``(on_item_failure, timeout, retries, checkpoint, chaos,
    armed)``: each knob as :func:`sweep_map` resolves it (explicit
    argument, else environment), ``chaos`` the active harness when it
    has ``items`` faults and None otherwise.  An armed sweep keeps its
    per-item ledger.  A caller that packs several units of work into one
    item (``explore``'s corner chunks) sends one unit per item when the
    sweep is armed, so retries, deadlines, checkpoints, chaos indices and
    skip holes keep their per-unit meaning.
    """
    mode = _resolve_on_item_failure(on_item_failure)
    eff_timeout = resolve_timeout(timeout)
    eff_retries = resolve_retries(retries, mode)
    ckpt_path = resolve_checkpoint(checkpoint)
    chaos = active_chaos()
    if chaos is not None and not chaos.faults["items"]:
        chaos = None  # a harness for other surfaces leaves the sweep unarmed
    armed = (
        eff_timeout is not None
        or ckpt_path is not None
        or mode != "raise"
        or eff_retries > 0
        or chaos is not None
    )
    return mode, eff_timeout, eff_retries, ckpt_path, chaos, armed


def _resolve_on_item_failure(mode: Optional[str]) -> str:
    if mode is None:
        return "raise"
    mode = str(mode).lower()
    if mode not in ON_ITEM_FAILURE_MODES:
        raise ValueError(
            f"unknown on_item_failure mode {mode!r}; "
            f"expected one of {ON_ITEM_FAILURE_MODES}"
        )
    return mode


def _resolve_retry_on(retry_on) -> tuple:
    if retry_on is None:
        return (Exception,)
    if isinstance(retry_on, type):
        retry_on = (retry_on,)
    retry_on = tuple(retry_on)
    for t in retry_on:
        if not (isinstance(t, type) and issubclass(t, Exception)):
            raise ValueError(
                f"retry_on entries must be Exception subclasses, got {t!r}"
            )
    return retry_on


def backoff_seconds(index: int, attempt: int, base: float = _DEFAULT_BACKOFF) -> float:
    """Deterministic jittered exponential backoff before retrying an item.

    ``base * 2**(attempt-1)`` scaled by a jitter factor in ``[0.5, 1.5)``
    derived from ``sha256(f"{index}:{attempt}")`` — no RNG state, so a
    re-run of the same sweep sleeps identically, and simultaneous
    retries of different items decorrelate.
    """
    if attempt <= 0 or base <= 0:
        return 0.0
    digest = hashlib.sha256(f"{index}:{attempt}".encode("ascii")).digest()
    frac = int.from_bytes(digest[:4], "big") / 2.0**32
    return base * (2.0 ** (attempt - 1)) * (0.5 + frac)


def _process_worker_init(trace_enabled: bool, crumbs) -> None:
    """Pool initializer: install the breadcrumb array and seed the
    per-worker tracer."""
    global _CRUMBS
    _CRUMBS = crumbs
    if trace_enabled and not get_tracer().enabled:
        # in-memory child tracer: spans are aggregated and shipped back
        # to the parent with each unit's outcomes (no JSONL file of its own)
        _trace.enable(None)


def _can_alarm() -> bool:
    """True when a SIGALRM deadline can be armed right here (POSIX +
    main thread — signal handlers only fire on the main thread)."""
    return (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )


def _guarded_call(fn: Callable, item, index: int, timeout: Optional[float], chaos):
    """Run chaos injection + ``fn(item)``, under a SIGALRM deadline when
    the platform and thread allow hard enforcement.

    The chaos ``before_item`` hook runs *inside* the alarm window so an
    injected hang is interrupted exactly like a genuinely stuck solve.
    """
    alarm = timeout is not None and _can_alarm()
    if alarm:
        def _on_alarm(signum, frame):
            raise SweepItemTimeout(index, timeout, "signal")

        prev = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        if chaos is not None:
            chaos.before_item(index)
        return fn(item)
    finally:
        if alarm:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, prev)


# -- crash breadcrumbs --------------------------------------------------
#
# A process sweep shares one array of doubles with its workers, one slot
# per sweep item, installed by the pool initializer.  A worker stores the
# wall-clock time in an item's slot as the item starts and ``-1`` once it
# finishes.  A hard crash (os._exit, OOM kill, segfault) leaves the slot
# positive, so after a BrokenProcessPool the positive slots of the lost
# chunks name exactly the items that were executing when the pool died —
# the crash *suspects*.  The other items of a lost chunk never started,
# or finished with outcomes that died with the worker, and are
# resubmitted for free.  A positive slot is also the start time that the
# parent's deadline backstop times an item from.

#: This worker's breadcrumb array (set by the pool initializer).
_CRUMBS = None


def _run_item(fn, index, item, attempt, timeout, chaos, tr, crumbs=None):
    """The per-item unit: one attempt of one item, as ``(result, failure,
    wall)``.

    The failure comes back in-band, so the caller gets the attempt's
    wall time either way.  Serial sweeps call this inline and thread
    pools run it through :func:`_run_items`: spans go straight to the
    parent's tracer ``tr`` and a failure is the original exception
    object.  Process workers run it through :class:`_ProcessUnit`,
    passing their breadcrumb array ``crumbs``.
    A result that arrives after its deadline where no ``SIGALRM`` could
    interrupt it (any thread but the main one) is discarded post hoc,
    so the deadline contract holds on every backend.
    """
    if crumbs is not None:
        crumbs[index] = time.time()
    result = failure = None
    t0 = time.perf_counter()
    try:
        if tr.enabled:
            with tr.span("sweep.task", index=index, attempt=attempt):
                result = _guarded_call(fn, item, index, timeout, chaos)
        else:
            result = _guarded_call(fn, item, index, timeout, chaos)
    except Exception as exc:
        failure = exc
    wall = time.perf_counter() - t0
    if crumbs is not None:
        crumbs[index] = -1.0
    if (
        failure is None
        and timeout is not None
        and wall > timeout
        and not _can_alarm()
    ):
        return None, SweepItemTimeout(index, timeout, "posthoc"), wall
    return result, failure, wall


def _run_items(fn, entries, timeout, chaos, tr, stop, crumbs=None) -> List:
    """One chunk: the per-item unit over ``(index, item, attempt)``
    entries in order.  With ``stop`` set (no retry or quarantine can
    absorb a failure) the chunk ends at its first failure: the sweep
    will raise, and its later items could only fail at higher indices."""
    outcomes = []
    for index, item, attempt in entries:
        outcome = _run_item(fn, index, item, attempt, timeout, chaos, tr, crumbs)
        outcomes.append(outcome)
        if stop and outcome[1] is not None:
            break
    return outcomes


class _ProcessUnit:
    """Picklable process-backend unit: :func:`_run_items` over one chunk,
    inside a worker, with its deadline armed there.

    Adds what the process boundary needs: breadcrumbs, a
    :class:`SweepRemoteError` in place of any failure that would not
    pickle back, and the worker tracer's span/event aggregate for the
    chunk.  Returns ``(outcomes, summary)``; ``summary`` is ``None``
    when tracing is off.  Only a hard worker death surfaces as a broken
    future.
    """

    __slots__ = ("fn", "entries", "timeout", "chaos", "stop")

    def __init__(self, fn, entries, timeout, chaos, stop):
        self.fn = fn
        self.entries = entries
        self.timeout = timeout
        self.chaos = chaos
        self.stop = stop

    def __call__(self):
        tr = get_tracer()
        mark = tr.mark() if tr.enabled else None
        outcomes = _run_items(
            self.fn, self.entries, self.timeout, self.chaos, tr, self.stop, _CRUMBS
        )
        for k, (result, failure, wall) in enumerate(outcomes):
            if failure is None:
                continue
            try:
                pickle.loads(pickle.dumps(failure))
            except Exception:
                mro = tuple(
                    _qualify(c)
                    for c in type(failure).__mro__
                    if isinstance(c, type) and issubclass(c, BaseException)
                )
                outcomes[k] = (
                    result,
                    SweepRemoteError(_qualify(type(failure)), str(failure), mro),
                    wall,
                )
        summary = None
        if tr.enabled:
            summary = tr.summary_since(mark)
            summary.pop("file", None)
        return outcomes, summary


# -- checkpoint store ---------------------------------------------------


def _fn_fingerprint(fn: Callable, tag=None) -> str:
    """Content fingerprint of the task callable for checkpoint keys.

    ``tag`` (from ``checkpoint_tag=``) pins it explicitly; otherwise the
    pickle of ``fn`` is hashed, falling back to module/qualname/bytecode
    for unpicklable callables.
    """
    if tag is not None:
        return str(tag)
    try:
        blob = pickle.dumps(fn)
    except Exception:
        code = getattr(fn, "__code__", None)
        parts = [
            getattr(fn, "__module__", "") or "",
            getattr(fn, "__qualname__", "") or repr(fn),
        ]
        if code is not None:
            parts.append(repr(code.co_code))
        blob = "|".join(parts).encode("utf-8", "replace")
    return hashlib.sha256(blob).hexdigest()[:16]


def _item_key(fingerprint: str, item) -> str:
    try:
        blob = pickle.dumps(item)
    except Exception:
        blob = repr(item).encode("utf-8", "replace")
    return fingerprint + ":" + hashlib.sha256(blob).hexdigest()[:32]


class _CheckpointStore:
    """Completed sweep items in a :class:`~repro.durable.AppendLog`.

    One line per completed item: ``{"fp", "key", "index", "result"}``
    with the result pickled and base64'd.  Lines whose fingerprint does
    not match the current sweep's are ignored (several sweeps may share
    a file), and replay skips torn/corrupt lines — resume is
    best-effort by construction, never worse than recomputing.

    **Trust boundary**: restore unpickles the result blobs, and
    unpickling attacker-controlled bytes executes arbitrary code, so a
    checkpoint file (including one named by :data:`CHECKPOINT_ENV`)
    must only ever come from a trusted writer.  Setting
    :data:`CHECKPOINT_KEY_ENV` makes every saved line carry the log's
    HMAC-SHA256 ``mac``, and restore ignores any line of this sweep
    whose MAC is missing or wrong — tampered or foreign lines are
    recomputed instead of unpickled.
    """

    def __init__(self, path, fingerprint: str):
        raw_key = os.environ.get(CHECKPOINT_KEY_ENV, "")
        self.log = AppendLog(path, raw_key.encode("utf-8") if raw_key else None)
        self.path = self.log.path
        self.fingerprint = fingerprint
        self.saved = 0
        self.compacted = None
        #: key -> unpickled result of this sweep's latest trusted line
        self.restored = {}
        records, _ = self.log.replay(0)
        # latest record per (fp, key) of every fingerprint sharing the
        # file: what a compaction keeps
        latest: dict = {}
        for rec in records:
            if "key" not in rec:
                continue
            mine = rec.get("fp") == fingerprint
            if mine and not self.log.authentic(rec):
                continue  # tampered: never restored, never kept
            latest[(rec.get("fp"), rec["key"])] = rec
            if mine:
                try:
                    self.restored[rec["key"]] = pickle.loads(base64.b64decode(rec["result"]))
                except Exception:
                    pass  # undecodable result: the item is recomputed
        self._maybe_compact(latest, self.log.stats["lines"])

    def _maybe_compact(self, latest: dict, total: int) -> None:
        """Atomically rewrite the file when it is both big and garbagey.

        Triggered at store open, when the file exceeds
        :data:`_COMPACT_BYTES` *and* holds lines that no resume can use
        (superseded duplicates, torn or tampered lines).  The rewrite
        keeps exactly the latest line per ``(fingerprint, key)`` — other
        sweeps' lines keep their MACs — and is published atomically, so a
        crash mid-compaction leaves the original.
        """
        if total <= len(latest):
            return
        try:
            size = os.path.getsize(self.path)
            if size <= _COMPACT_BYTES:
                return
            after = self.log.rewrite(latest.values())
        except OSError:  # pragma: no cover - unwritable dir: keep original
            return
        self.compacted = {
            "before_bytes": size,
            "after_bytes": after,
            "dropped_lines": total - len(latest),
        }

    def put(self, key: str, index: int, result) -> None:
        try:
            blob = base64.b64encode(pickle.dumps(result)).decode("ascii")
        except Exception:
            return  # unpicklable results simply are not checkpointable
        try:
            self.log.append({"fp": self.fingerprint, "key": key, "index": index, "result": blob})
        except OSError:
            return  # disk full, read-only dir: the item stays unsaved
        self.saved += 1

    def close(self) -> None:
        self.log.close()


def _abort_pool(pool) -> None:
    """Shut a pool down *hard*: cancel queued work and, for a process
    pool, terminate and reap the worker processes — no orphans left
    behind when the sweep is interrupted or fails.  Threads cannot be
    stopped; a thread pool's running items finish on their own."""
    if pool is None:
        return
    # snapshot the worker handles first: shutdown() drops the executor's
    # _processes reference even with wait=False
    procs = getattr(pool, "_processes", None)
    workers = list(procs.values()) if procs else []
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - already broken
        pass
    for p in workers:
        try:
            p.terminate()
        except Exception:  # pragma: no cover
            pass
    for p in workers:
        try:
            p.join(timeout=2.0)
        except Exception:  # pragma: no cover
            pass


def _is_picklable(fn: Callable) -> bool:
    try:
        pickle.dumps(fn)
        return True
    except Exception:
        return False


#: Record statuses of items that need no further attempt and raise nothing.
_SETTLED = ("ok", "cached", "skipped")


# -- the executor -------------------------------------------------------


class _ResilientSweep:
    """The one execution engine behind :func:`sweep_map`.

    Responsibilities: checkpoint restore/persist, per-item deadline
    enforcement, bounded deterministic retry, quarantine, pool
    replacement with breadcrumb-guided crash replay, the failure-order
    rule, and the per-item ledger
    (:class:`~repro.robust.report.SweepItemRecord` per item).  Results
    land positionally in ``self.results`` so ordering is deterministic
    whatever the completion order.  ``kind``/``workers`` track what
    actually executes, after any fallback.
    """

    def __init__(
        self,
        fn,
        items,
        effective,
        backend,
        mode,
        timeout,
        retries,
        backoff_base,
        retry_on,
        checkpoint,
        checkpoint_tag,
        chaos,
        tr,
        armed: bool,
        chunksize: Optional[int] = None,
        max_item_records: Optional[int] = None,
    ):
        self.fn = fn
        self.items = items
        self.effective = effective
        self.backend = backend
        self.mode = mode
        self.timeout = timeout
        self.retries = retries
        self.backoff_base = backoff_base
        self.retry_on = retry_on
        self.chaos = chaos
        self.tr = tr
        self.armed = armed
        self.chunksize_arg = chunksize
        self.max_item_records = resolve_max_item_records(max_item_records)
        n = len(items)
        self.kind = backend if effective > 1 else "serial"
        self.workers = effective if effective > 1 else 1
        self.attempted = 0
        self.chunksize = None  # set once a process pool runs
        self.results: List = [None] * n
        self.records = [SweepItemRecord(index=i) for i in range(n)]
        self.store = None
        self.keys: List[Optional[str]] = [None] * n
        if checkpoint is not None:
            fp = _fn_fingerprint(fn, checkpoint_tag)
            self.store = _CheckpointStore(checkpoint, fp)
            self.keys = [_item_key(fp, it) for it in items]
        self.retried = 0
        self.quarantined = 0
        self.cached = 0
        self.timeouts = 0
        self.pool_replacements = 0
        # Backstop against pathological pool churn (e.g. the worker
        # initializer itself crashes, so every replacement pool breaks
        # on first submit with no breadcrumbs): once the budget is
        # spent, the pool stays down and the serial drain finishes the
        # sweep instead of replacing pools forever.
        self.max_pool_replacements = max(4, 2 * n)
        # index -> error of each item that used up its attempts under
        # "raise"/"retry"; the lowest index is raised once every lower
        # item has finished (see _raise_first_failure)
        self.failures: dict = {}
        self._frontier = 0
        self._pool = None
        self._crumbs = None  # shared breadcrumb array of process pools

    # -- entry point ---------------------------------------------------

    def run(self) -> List:
        pending = list(range(len(self.items)))
        if self.store is not None:
            pending = self._restore(pending)
        if pending:
            if self.kind == "serial":
                self._run_serial(pending)
            else:
                self._run_pool(pending)
        return self.results

    def fill_stats(self, stats: dict) -> None:
        """Publish what ran: the base keys always, ``chunksize`` once a
        process pool ran, ``pool_replacements`` once a pool was
        replaced, and the ledger keys when a knob or chaos is armed."""
        stats["workers"] = self.workers
        stats["tasks"] = len(self.items)
        stats["attempted"] = self.attempted
        stats["backend"] = self.kind
        # running serial because there is nothing to parallelise (one
        # worker or one item) is the requested backend's degenerate
        # case, not a fallback
        if self.kind != self.backend and self.effective > 1:
            stats["backend_requested"] = self.backend
        if self.chunksize is not None:
            stats["chunksize"] = self.chunksize
        if self.pool_replacements or self.armed:
            stats["pool_replacements"] = self.pool_replacements
        if not self.armed:
            return
        # exact per-status tallies over *every* item, independent of the
        # detailed-ledger cap below
        counts: dict = {}
        for r in self.records:
            counts[r.status] = counts.get(r.status, 0) + 1
        stats["status_counts"] = counts
        cap = self.max_item_records
        if cap and len(self.records) > cap:
            # failures are what the ledger is for: keep every non-ok
            # record first, pad with ok records in index order
            keep = [r for r in self.records if r.status != "ok"][:cap]
            if len(keep) < cap:
                budget = cap - len(keep)
                keep.extend(
                    [r for r in self.records if r.status == "ok"][:budget]
                )
            keep.sort(key=lambda r: r.index)
            stats["items"] = [r.as_dict() for r in keep]
            stats["items_truncated"] = len(self.records) - len(keep)
        else:
            stats["items"] = [r.as_dict() for r in self.records]
            stats["items_truncated"] = 0
        stats["retried"] = self.retried
        stats["quarantined"] = self.quarantined
        stats["cached"] = self.cached
        stats["timeouts"] = self.timeouts
        stats["fault_policy"] = {
            "timeout": self.timeout,
            "retries": self.retries,
            "on_item_failure": self.mode,
            "backoff_base": self.backoff_base,
        }
        if self.store is not None:
            stats["checkpoint"] = {
                "path": self.store.path,
                "restored": self.cached,
                "saved": self.store.saved,
            }
            if self.store.compacted is not None:
                stats["checkpoint"]["compacted"] = dict(self.store.compacted)

    # -- shared bookkeeping --------------------------------------------

    def _restore(self, pending: List[int]) -> List[int]:
        rest = []
        for i in pending:
            key = self.keys[i]
            if key is not None and key in self.store.restored:
                self.results[i] = self.store.restored[key]
                self.records[i].status = "cached"
                self.cached += 1
                if self.tr.enabled:
                    self.tr.event("sweep.checkpoint_restore", index=i)
            else:
                rest.append(i)
        return rest

    def _charge(self, chunk: List[int]) -> List[tuple]:
        """Start one attempt of every item in ``chunk``; returns the
        ``(index, item, attempt)`` entries a unit runs."""
        entries = []
        for i in chunk:
            rec = self.records[i]
            rec.attempts += 1
            entries.append((i, self.items[i], rec.attempts))
        self.attempted += len(chunk)
        return entries

    def _refund(self, chunk: List[int]) -> None:
        """Take back attempts that never ran, or whose outcome died with
        their pool, so that resubmitting them is free."""
        for i in chunk:
            self.records[i].attempts -= 1
        self.attempted -= len(chunk)

    def _unit(self, entries: List[tuple]):
        """The callable that runs ``entries`` on the current backend."""
        stop = self.mode != "skip" and self.retries == 0
        if self.kind == "process":
            return _ProcessUnit(self.fn, entries, self.timeout, self.chaos, stop)
        return functools.partial(
            _run_items, self.fn, entries, self.timeout, self.chaos, self.tr, stop
        )

    def _retryable(self, exc) -> bool:
        """``retry_on`` match that survives the process boundary: a
        :class:`SweepRemoteError` stands in for an unpicklable worker
        exception, so it matches on the *original* type's MRO — never
        on the wrapper's own type — keeping retry/quarantine decisions
        identical across the serial, thread and process backends."""
        if isinstance(exc, SweepRemoteError):
            names = set(exc.mro)
            return any(_qualify(t) in names for t in self.retry_on)
        return isinstance(exc, self.retry_on)

    def _handle_failure(
        self, i: int, exc, wall: float = 0.0, retry_at=None, allow_retry=True
    ) -> bool:
        """Dispose of a failed attempt per policy.  Returns True when a
        retry was scheduled (``retry_at`` list) or should run now
        (``retry_at is None`` — backoff already slept).  An item out of
        attempts is quarantined under ``"skip"``, else recorded in
        ``self.failures`` for :meth:`_raise_first_failure`."""
        rec = self.records[i]
        rec.wall_time += wall
        rec.failure_cause = f"{type(exc).__name__}: {exc}"
        tr = self.tr
        if isinstance(exc, SweepItemTimeout):
            self.timeouts += 1
            if tr.enabled:
                tr.event(
                    "sweep.timeout",
                    index=i,
                    deadline=self.timeout,
                    enforced=exc.enforced,
                )
        if allow_retry and self._retryable(exc) and rec.attempts <= self.retries:
            delay = backoff_seconds(i, rec.attempts, self.backoff_base)
            rec.backoff_time += delay
            self.retried += 1
            if tr.enabled:
                tr.event(
                    "sweep.retry", index=i, attempt=rec.attempts, delay=round(delay, 6)
                )
            if retry_at is None:
                if delay > 0:
                    time.sleep(delay)
            else:
                retry_at.append([time.monotonic() + delay, i])
            return True
        if self.mode == "skip":
            rec.status = "skipped"
            self.quarantined += 1
            self.results[i] = None
            if tr.enabled:
                tr.event("sweep.quarantine", index=i, cause=rec.failure_cause)
            return False
        rec.status = "failed"
        self.failures[i] = exc
        return False

    def _account(self, i: int, outcome, retry_at=None) -> bool:
        """Account one attempt's ``(result, failure, wall)``: record a
        success (and checkpoint it) or dispose of the failure per
        policy.  Returns True when a retry was scheduled (or, with
        ``retry_at=None``, is due now)."""
        result, failure, wall = outcome
        if failure is not None:
            return self._handle_failure(i, failure, wall=wall, retry_at=retry_at)
        rec = self.records[i]
        rec.wall_time += wall
        rec.status = "ok"
        self.results[i] = result
        if self.store is not None and self.keys[i] is not None:
            self.store.put(self.keys[i], i, result)
        return False

    def _settle(self, chunk: List[int], out, retry_at) -> None:
        """Account a unit's return for the items of ``chunk``."""
        if self.kind == "process":
            out, summary = out
            if summary and self.tr.enabled:
                self.tr.absorb(summary)
        for i, outcome in zip(chunk, out):
            self._account(i, outcome, retry_at)
        if len(out) < len(chunk):
            # the unit stopped at a failure: the rest never ran
            self._refund(chunk[len(out):])

    def _raise_first_failure(self) -> None:
        """Raise the error of the lowest-indexed item that used up its
        attempts, but only once every lower-indexed item has finished:
        the same error whatever the backend, worker count, chunking or
        completion order."""
        if not self.failures:
            return
        f = self._frontier
        while self.records[f].status in _SETTLED:
            f += 1
        self._frontier = f
        if f in self.failures:
            raise self.failures[f]

    # -- serial --------------------------------------------------------

    def _run_serial(self, pending: List[int]) -> None:
        """Run the per-item unit inline, item by item, stopping at the
        first item that runs out of attempts."""
        self.kind, self.workers = "serial", 1
        for i in pending:
            rec = self.records[i]
            again = True
            while again:
                rec.attempts += 1
                self.attempted += 1
                outcome = _run_item(
                    self.fn, i, self.items[i], rec.attempts,
                    self.timeout, self.chaos, self.tr,
                )
                again = self._account(i, outcome)
            self._raise_first_failure()

    # -- thread and process pools --------------------------------------

    def _new_pool(self, n: int):
        """A fresh executor of ``n`` workers for the current backend, or
        ``None`` when the platform refuses one."""
        try:
            if self.kind == "process":
                if self._crumbs is None:
                    self._crumbs = multiprocessing.RawArray("d", len(self.items))
                return ProcessPoolExecutor(
                    max_workers=n,
                    initializer=_process_worker_init,
                    initargs=(bool(self.tr.enabled), self._crumbs),
                )
            return ThreadPoolExecutor(max_workers=n)
        except (OSError, RuntimeError, pickle.PicklingError):
            return None

    def _run_pool(self, pending: List[int]) -> None:
        tr = self.tr
        if self.kind == "process" and not _is_picklable(self.fn):
            if tr.enabled:
                tr.event("sweep.process_fallback", reason="unpicklable")
            self.kind = "thread"
        self._pool = self._new_pool(self.effective)
        if self._pool is None and self.kind == "process":
            if tr.enabled:
                tr.event("sweep.process_fallback", reason="pool_unavailable")
            self.kind = "thread"
            self._pool = self._new_pool(self.effective)
        if self._pool is None:
            return self._run_serial(pending)
        if self.kind == "thread" or self.timeout is not None or self.store is not None:
            # a thread future has no pickling to amortise, a deadline
            # times one item per future, and a checkpoint saves each
            # item as its future returns
            chunksize = 1
        elif self.chunksize_arg is None:
            chunksize = max(1, math.ceil(len(pending) / (4 * self.effective)))
        else:
            chunksize = max(1, int(self.chunksize_arg))
        if self.kind == "process":
            self.chunksize = chunksize
        clean = False
        try:
            self._dispatch(pending, chunksize)
            clean = True
        finally:
            if clean and self._pool is not None:
                self._pool.shutdown(wait=True)
            else:
                # failing item or KeyboardInterrupt: drop queued work and
                # terminate workers instead of waiting the sweep out
                _abort_pool(self._pool)

    def _submit(self, chunk: List[int]):
        return self._pool.submit(self._unit(self._charge(chunk)))

    def _dispatch(self, pending: List[int], chunksize: int) -> None:
        """The submit/wait/retry loop shared by thread and process pools."""
        deadline = self.timeout is not None
        todo = deque(pending)
        retry_at: List[List] = []  # [ready_monotonic, index]
        inflight: dict = {}  # future -> chunk (list of indices)
        submitted_at: dict = {}  # future -> monotonic
        # completed futures arrive here through done-callbacks: one
        # wake-up per completion however many futures are outstanding
        finished = queue.SimpleQueue()
        while True:
            self._raise_first_failure()
            if not (todo or retry_at or inflight):
                return
            if self._pool is None and not inflight:
                # pool gone for good (platform refusal, or the
                # replacement budget is spent): once the items still
                # running in an abandoned thread pool are in, finish
                # what is left inline
                if self.tr.enabled:
                    self.tr.event("sweep.process_fallback", reason="pool_unavailable")
                self._run_serial(sorted(set(todo) | {e[1] for e in retry_at}))
                return
            now = time.monotonic()
            for entry in [e for e in retry_at if e[0] <= now]:
                retry_at.remove(entry)
                todo.append(entry[1])
            # Without a deadline every chunk goes in up front.  With
            # one, outstanding submissions are capped at the worker
            # count: an item only enters the executor when a worker is
            # free to take it, so submission time approximates execution
            # start and queue wait never accrues against its allowance.
            while (
                self._pool is not None
                and todo
                and not (deadline and len(inflight) >= self.effective)
            ):
                chunk = [todo.popleft() for _ in range(min(chunksize, len(todo)))]
                try:
                    fut = self._submit(chunk)
                except BrokenProcessPool:
                    self._refund(chunk)
                    todo.extendleft(reversed(chunk))
                    self._replace_pool("broken_pool", inflight, todo, retry_at)
                    break
                except (OSError, RuntimeError):
                    # the platform refused a worker (process or thread
                    # limits): requeue everything for the serial drain
                    self._refund(chunk)
                    todo.extendleft(reversed(chunk))
                    for lost in inflight.values():
                        self._refund(lost)
                        todo.extend(lost)
                    inflight.clear()
                    _abort_pool(self._pool)
                    self._pool = None
                    break
                inflight[fut] = chunk
                submitted_at[fut] = time.monotonic()
                fut.add_done_callback(finished.put)
            if not inflight:
                if retry_at:
                    nxt = min(e[0] for e in retry_at)
                    time.sleep(min(max(nxt - time.monotonic(), 0.01), 0.25))
                continue
            wait_s = None
            if deadline:
                wait_s = 0.05
            elif retry_at:
                wait_s = max(min(e[0] for e in retry_at) - time.monotonic(), 0.0)
            try:
                fut = finished.get(timeout=wait_s)
            except queue.Empty:
                fut = None
            # None: the wait timed out, or the future belongs to a pool
            # that was replaced (its items were already accounted for)
            chunk = inflight.pop(fut, None)
            if chunk is not None:
                del submitted_at[fut]
                try:
                    out = fut.result()
                except BrokenProcessPool:
                    inflight[fut] = chunk  # classified with the rest
                    self._replace_pool("broken_pool", inflight, todo, retry_at)
                except Exception as exc:
                    # dispatch-side failure (e.g. an item that would not
                    # pickle): no worker wall time to account
                    for i in chunk:
                        self._handle_failure(i, exc, retry_at=retry_at)
                else:
                    self._settle(chunk, out, retry_at)
            if deadline and inflight:
                overdue = self._overdue(inflight, submitted_at)
                if overdue:
                    self._replace_pool(
                        "deadline", inflight, todo, retry_at, overdue
                    )
            if not inflight:
                submitted_at.clear()

    def _allowance(self) -> float:
        """Seconds an attempt may run before the parent gives up on it.
        A process worker's own ``SIGALRM`` fires first, so the parent
        only backstops a worker stuck with signals blocked; a thread
        cannot be interrupted, so the parent abandons it after a short
        grace."""
        if self.kind == "process":
            return self.timeout * 2.0 + 1.0
        return self.timeout + max(0.25, 0.1 * self.timeout)

    def _overdue(self, inflight: dict, submitted_at: dict) -> set:
        """Items that have *executed* past the allowance.  A process
        item times from its breadcrumb, the moment a worker reached it;
        without one (on threads, or before a worker gets there) from
        submission, accurate to a scheduling tick because armed
        submissions are capped at the worker count.  Futures that
        completed since the wait are harvested next pass, never timed
        out."""
        allowance = self._allowance()
        now_wall = time.time()
        now_mono = time.monotonic()
        overdue = set()
        for fut, (i,) in inflight.items():  # armed: one item per future
            if fut.done():
                continue
            started = self._crumbs[i] if self.kind == "process" else 0.0
            if started > 0:
                if now_wall - started > allowance:
                    overdue.add(i)
            elif now_mono - submitted_at[fut] > allowance:
                overdue.add(i)
        return overdue

    def _replace_pool(
        self, reason: str, inflight: dict, todo, retry_at, overdue=frozenset()
    ) -> None:
        """Tear the pool down and stand up a replacement.

        ``reason`` is ``"broken_pool"`` (a worker process died) or
        ``"deadline"`` (``overdue`` items outlived their allowance).
        Overdue items time out (``kill`` on processes, ``abandoned`` on
        threads).  Process workers are terminated: finished futures are
        harvested, and after a crash the items whose breadcrumb says
        they were executing are the suspects, replayed in isolation.
        A thread pool is abandoned: its threads leak until their items
        return, and the items it is still running stay in flight, their
        done-callbacks reporting them as usual.  Every other item is
        resubmitted for free: it never started, or its outcome died
        with the pool.
        """
        self.pool_replacements += 1
        tr = self.tr
        if tr.enabled:
            tr.event("sweep.pool_replaced", reason=reason)
        _abort_pool(self._pool)
        self._pool = None
        threads = self.kind == "thread"
        enforced = "abandoned" if threads else "kill"
        suspects = []
        for fut, chunk in list(inflight.items()):
            if threads and not fut.cancelled() and chunk[0] not in overdue:
                continue  # running on (or done): reported by its callback
            del inflight[fut]
            if fut.done() and not fut.cancelled():
                exc = fut.exception()
                if exc is None:
                    self._settle(chunk, fut.result(), retry_at)
                    continue
                if not isinstance(exc, BrokenProcessPool):
                    for i in chunk:
                        self._handle_failure(i, exc, retry_at=retry_at)
                    continue
            for i in chunk:
                executing = False
                if not threads:
                    executing = self._crumbs[i] > 0
                    self._crumbs[i] = 0.0
                if i in overdue:
                    self._handle_failure(
                        i,
                        SweepItemTimeout(i, self.timeout, enforced),
                        wall=self._allowance(),
                        retry_at=retry_at,
                    )
                elif executing and reason == "broken_pool":
                    suspects.append(i)
                else:
                    self._refund([i])
                    todo.append(i)
        if self.pool_replacements >= self.max_pool_replacements:
            # replacement budget spent: pools keep breaking (broken
            # initializer, broken fork/spawn) — stay down and let the
            # serial drain finish rather than churn pools forever
            if tr.enabled:
                tr.event(
                    "sweep.pool_budget_exhausted",
                    replacements=self.pool_replacements,
                )
        else:
            self._pool = self._new_pool(self.effective)
        for i in sorted(suspects):
            self._replay_suspect(i, retry_at)

    def _replay_suspect(self, i: int, retry_at) -> None:
        """Replay a crash suspect in an isolated single-worker pool so a
        genuinely poisonous item can only kill its own sandbox.  Budget:
        ``max(1, retries)`` replays — even ``retries=0`` gets one, since
        a crash consumed the original attempt without a verdict."""
        allowance = None if self.timeout is None else self._allowance()
        last_crash = None
        for _ in range(max(1, self.retries)):
            iso = self._new_pool(1)
            if iso is None:
                last_crash = SweepWorkerCrash(i, "isolation pool unavailable")
                break
            ok = False
            t0 = time.perf_counter()
            try:
                fut = iso.submit(self._unit(self._charge([i])))
                out = fut.result(timeout=allowance)
                ok = True
            except BrokenProcessPool:
                last_crash = SweepWorkerCrash(
                    i, "worker process died while executing this item"
                )
                continue
            except _FuturesTimeout:
                self._handle_failure(
                    i,
                    SweepItemTimeout(i, self.timeout, "kill"),
                    wall=time.perf_counter() - t0,
                    retry_at=retry_at,
                )
                return
            finally:
                self._crumbs[i] = 0.0
                if ok:
                    iso.shutdown(wait=True)
                else:
                    _abort_pool(iso)
            self._settle([i], out, retry_at)
            return
        self._handle_failure(i, last_crash, retry_at=retry_at, allow_retry=False)


def sweep_map(
    fn: Callable,
    items: Iterable,
    workers: Optional[int] = None,
    stats: Optional[dict] = None,
    backend: Optional[str] = None,
    chunksize: Optional[int] = None,
    timeout: Optional[float] = None,
    retries: Optional[int] = None,
    retry_backoff: Optional[float] = None,
    retry_on=None,
    on_item_failure: Optional[str] = None,
    checkpoint=None,
    checkpoint_tag=None,
    max_item_records: Optional[int] = None,
) -> List:
    """Map ``fn`` over ``items`` preserving order; parallel when asked.

    Parameters
    ----------
    fn / items:
        The per-point work and the sweep points.  ``fn`` must be a pure,
        deterministic function of its item and must not depend on
        execution order — only result *ordering* is deterministic.  For
        the process backend ``fn``, the items and the results must all
        be picklable; an unpicklable ``fn`` silently degrades to the
        thread backend (recorded in ``stats``).
    workers:
        Worker count; ``None`` consults :data:`WORKERS_ENV`.  Values
        that are not integers >= 1 raise :class:`ValueError`.  A single
        item (or ``workers=1``) runs the serial path whatever the
        backend.
    backend:
        ``"serial"`` | ``"thread"`` | ``"process"``; ``None`` consults
        :data:`BACKEND_ENV`, defaulting to ``"thread"``.
    chunksize:
        Process items per dispatched chunk.  Defaults to
        ``ceil(n / (4 * workers))`` for the ``n`` items left to run
        (all of them unless a checkpoint restored some) — large enough
        to amortise pickling, small enough to load-balance.  Chunking never affects
        results or their order.  Ignored (forced to 1) when a deadline
        or a checkpoint is armed: deadlines time one item per future,
        and a checkpoint saves each item as its future returns.  Thread
        sweeps always dispatch one item per future.
    timeout:
        Per-item deadline in seconds; ``None`` consults
        :data:`TIMEOUT_ENV`.  See the module docstring for per-backend
        enforcement strength.  A timed-out attempt raises (or retries
        as) :class:`SweepItemTimeout`.
    retries / retry_backoff / retry_on:
        Retry budget per item beyond the first attempt (``None``
        consults :data:`RETRIES_ENV`; defaults to 1 when
        ``on_item_failure="retry"``, else 0), the base seconds of the
        deterministic jittered exponential backoff
        (:func:`backoff_seconds`), and the exception types considered
        transient (default: any ``Exception``).  ``retry_on`` matching
        is backend-independent: worker exceptions that cannot be
        pickled back surface as :class:`SweepRemoteError` and match by
        the original type's MRO.
    on_item_failure:
        ``"raise"`` (default) — an exhausted item fails the sweep;
        ``"retry"`` — like raise but with a default retry budget of 1;
        ``"skip"`` — exhausted items are quarantined: their result slot
        is ``None``, the sweep completes, and ``stats["items"]`` tells
        the story per item.
    checkpoint / checkpoint_tag:
        JSONL checkpoint path (``None`` consults :data:`CHECKPOINT_ENV`)
        and an optional explicit fingerprint overriding the hash of
        ``fn`` for resume matching.  Restore unpickles stored results:
        only point this at files written by a trusted sweep, or set
        :data:`CHECKPOINT_KEY_ENV` to HMAC-authenticate lines.  Opening
        a checkpoint file larger than 4 MiB that contains
        superseded/corrupt lines compacts it atomically (latest line
        per item key, every fingerprint preserved; the rewrite is
        fsync'd before it replaces the file) and reports it under
        ``stats["checkpoint"]["compacted"]``.
    max_item_records:
        Cap on detailed ``stats["items"]`` entries (``None`` consults
        :data:`MAX_ITEM_RECORDS_ENV`, defaulting to 10000; ``0`` means
        unlimited).  See :func:`resolve_max_item_records` for the
        keep/truncate policy; ``stats["status_counts"]`` stays exact
        regardless.
    stats:
        Optional dict filled with ``{"workers", "tasks", "attempted",
        "backend"}`` describing what actually ran — the benchmarks
        record it.  The process backend adds ``"chunksize"``, and a
        sweep that replaced a pool adds ``"pool_replacements"``.
        ``backend`` reports the backend that *executed* (after any
        fallback), and ``backend_requested`` appears when a fallback
        demoted the requested backend (running serial because there is
        nothing to parallelise — one worker or one item — is the
        requested backend's degenerate case, not a fallback).
        The dict is populated even when ``fn`` raises (``attempted``
        counts the executions started — retries included — before the
        failure).  When a fault-tolerance knob (or a chaos harness with
        ``items`` faults) is armed the dict also gains ``"items"`` (the
        per-item ledger, capped by ``max_item_records``),
        ``"items_truncated"``, ``"status_counts"`` (exact per-status
        tallies), ``"retried"``, ``"quarantined"``, ``"cached"``,
        ``"timeouts"``, ``"pool_replacements"``, ``"fault_policy"`` and
        (with a checkpoint) ``"checkpoint"``.

    Exceptions raised by ``fn`` propagate to the caller on every
    backend: the sweep raises the error of the lowest-indexed item that
    used up its attempts, once every lower-indexed item has finished.
    """
    items = list(items)
    w = resolve_workers(workers)
    requested = resolve_backend(backend)
    mode, eff_timeout, eff_retries, ckpt_path, chaos, armed = resolve_fault_policy(
        on_item_failure, timeout, retries, checkpoint
    )
    eff_retry_on = _resolve_retry_on(retry_on)
    if retry_backoff is None:
        backoff_base = _DEFAULT_BACKOFF
    else:
        backoff_base = float(retry_backoff)
        if backoff_base < 0 or not math.isfinite(backoff_base):
            raise ValueError(f"retry_backoff must be >= 0, got {retry_backoff!r}")
    tr = get_tracer()
    engine = _ResilientSweep(
        fn,
        items,
        min(w, len(items)) if items else 1,
        requested,
        mode,
        eff_timeout,
        eff_retries,
        backoff_base,
        eff_retry_on,
        ckpt_path,
        checkpoint_tag,
        chaos,
        tr,
        armed,
        chunksize=chunksize,
        max_item_records=max_item_records,
    )
    sweep_span = None
    if tr.enabled:
        sweep_span = tr.span("sweep.map", tasks=len(items), backend=requested)
    try:
        return engine.run()
    finally:
        if engine.store is not None:
            engine.store.close()
        if sweep_span is not None:
            sweep_span.annotate(
                workers=engine.workers, attempted=engine.attempted, ran=engine.kind
            )
            sweep_span.__exit__(None, None, None)
        if stats is not None:
            engine.fill_stats(stats)

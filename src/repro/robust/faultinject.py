"""Fault injection for solver callables — proves the recovery ladders work.

The escalation ladders in :mod:`repro.robust.policy` only earn their
keep if every rung demonstrably fires and recovers.  Real circuits that
break *specific* rungs on demand are hard to construct, so instead this
module wraps the callables the solvers consume — residuals, Jacobians,
matvecs, whole MNA systems — and injects faults on a scheduled window of
calls:

* ``inject_nan`` — poison the output with NaNs (models overflowing
  device evaluations);
* ``inject_singular`` — replace a Jacobian with an all-zero (hence
  singular) matrix of the same shape/format;
* ``inject_perturb`` — add a random perturbation (models noisy or
  inconsistent operator applications, which stall Krylov solvers);
* ``inject_error`` — raise a spurious :class:`ConvergenceError`
  (models an inner solver giving up).

Faults are scheduled by a :class:`FaultClock` counting calls, so a test
can make exactly the first ``k`` evaluations fail and then observe the
ladder recover.  All wrappers leave argument/return conventions intact.

Beyond the solver-callable wrappers, this module also hosts the **sweep
chaos harness** (:class:`SweepChaos` + :func:`chaos_sweeps`): scheduled
per-item faults — transient errors, hangs, and hard worker crashes via
``os._exit`` — injected into :func:`repro.perf.sweep_map` tasks, in
whatever process the task executes.  Attempt counters live in files so a
schedule like "crash the first execution of item 3, succeed afterwards"
holds across worker processes, retries and pool replacements; that is
what makes the sweep executor's recovery paths *testable* instead of
merely written.
"""

from __future__ import annotations

import dataclasses
import os
import time
from contextlib import contextmanager
from typing import Callable, Dict, Optional

import numpy as np
import scipy.sparse as sp

from repro.linalg.newton import ConvergenceError

__all__ = [
    "ChaosSpec",
    "FaultClock",
    "FaultyMNASystem",
    "ServeChaos",
    "SweepChaos",
    "TransientFault",
    "active_serve_chaos",
    "active_sweep_chaos",
    "chaos_serve",
    "chaos_sweeps",
    "inject_error",
    "inject_nan",
    "inject_perturb",
    "inject_singular",
    "install_serve_chaos",
    "install_sweep_chaos",
    "tear_final_line",
]


class TransientFault(RuntimeError):
    """Marker for injected transient failures.

    Raised by the chaos harness's ``"error"`` fault kind; retry policies
    in tests key on it to mean "would succeed if tried again".
    """


@dataclasses.dataclass
class FaultClock:
    """Decides *which* calls of a wrapped callable are faulty.

    Fires on calls ``start .. start + count - 1`` (1-based).  Shared
    between several wrappers it provides a global call ordering, so one
    schedule can span residual and Jacobian evaluations.

    Attributes
    ----------
    start:
        First (1-based) call number that faults.
    count:
        How many consecutive calls fault; ``None`` means "forever".
    calls / fired:
        Observability counters for test assertions.
    """

    start: int = 1
    count: Optional[int] = 1
    calls: int = 0
    fired: int = 0

    def tick(self) -> bool:
        self.calls += 1
        active = self.calls >= self.start and (
            self.count is None or self.calls < self.start + self.count
        )
        if active:
            self.fired += 1
        return active


def inject_nan(fn: Callable, clock: FaultClock) -> Callable:
    """Wrap ``fn`` so scheduled calls return a NaN-poisoned copy."""

    def wrapped(*args, **kwargs):
        out = fn(*args, **kwargs)
        if clock.tick():
            out = np.array(out, dtype=float, copy=True)
            out[...] = np.nan
        return out

    return wrapped


def inject_singular(fn: Callable, clock: FaultClock) -> Callable:
    """Wrap a Jacobian evaluator so scheduled calls return a singular
    (all-zero) matrix of the same shape and storage format."""

    def wrapped(*args, **kwargs):
        out = fn(*args, **kwargs)
        if clock.tick():
            if sp.issparse(out):
                return sp.csr_matrix(out.shape, dtype=out.dtype)
            return np.zeros_like(np.asarray(out))
        return out

    return wrapped


def inject_perturb(
    fn: Callable,
    clock: FaultClock,
    scale: float = 1e-2,
    rng: Optional[np.random.Generator] = None,
) -> Callable:
    """Wrap ``fn`` so scheduled calls get a relative random perturbation.

    Applied to a Krylov matvec this makes the operator inconsistent
    between iterations, which reliably forces GMRES stagnation without
    touching the solver internals.
    """
    gen = rng if rng is not None else np.random.default_rng(0)

    def wrapped(*args, **kwargs):
        out = fn(*args, **kwargs)
        if clock.tick():
            out = np.asarray(out)
            bump = gen.standard_normal(out.shape)
            if np.iscomplexobj(out):
                bump = bump + 1j * gen.standard_normal(out.shape)
            return out + scale * (np.linalg.norm(out) or 1.0) * bump
        return out

    return wrapped


def inject_error(
    fn: Callable,
    clock: FaultClock,
    exc_factory: Callable[[], Exception] = lambda: ConvergenceError("injected failure"),
) -> Callable:
    """Wrap ``fn`` so scheduled calls raise a spurious solver failure."""

    def wrapped(*args, **kwargs):
        if clock.tick():
            raise exc_factory()
        return fn(*args, **kwargs)

    return wrapped


#: ``error``/``hang``/``crash`` strike executing tasks (sweep items,
#: service jobs); ``disk_full``/``torn`` strike write-ahead-log appends
#: and result-store writes; ``drop`` (close the connection without a
#: response) is HTTP-only.  Which kinds a fault map accepts is enforced
#: per surface in :class:`ServeChaos`.
_CHAOS_KINDS = ("error", "hang", "crash", "disk_full", "torn", "drop")


@dataclasses.dataclass
class ChaosSpec:
    """One scheduled fault for a single sweep item.

    Attributes
    ----------
    kind:
        ``"error"`` — raise ``exc_type(message)`` (a transient fault);
        ``"hang"`` — sleep ``duration`` seconds before running (models a
        stuck solve; a sweep deadline interrupts the sleep);
        ``"crash"`` — ``os._exit(exit_code)``, killing the worker
        process without cleanup (models OOM kills / segfaults).  Never
        schedule a crash for a task that executes in the parent process
        (serial/thread backends) unless losing the parent is the point.
    times:
        Executions 1..times of the item fault; later executions run
        clean — so ``times=1`` models a transient fault that a single
        retry survives, and a large ``times`` models a poison item.
    duration / exit_code / exc_type / message:
        Kind-specific knobs.  ``exc_type`` must be a module-level
        exception class so the spec stays picklable.
    """

    kind: str = "error"
    times: int = 1
    duration: float = 30.0
    exit_code: int = 87
    exc_type: type = TransientFault
    message: str = "chaos: injected transient fault"

    def __post_init__(self):
        if self.kind not in _CHAOS_KINDS:
            raise ValueError(
                f"unknown chaos kind {self.kind!r}; expected one of {_CHAOS_KINDS}"
            )
        if self.times < 1:
            raise ValueError(f"times must be >= 1, got {self.times}")


class SweepChaos:
    """Deterministic per-item fault injection for sweep executor tasks.

    ``faults`` maps **item index** (the position in the sweep's item
    list) to a :class:`ChaosSpec`.  The harness is picklable, so it
    rides into process-backend workers with the task itself; attempt
    counters are one file per item under ``state_dir`` (a byte appended
    per execution), which makes schedules hold across worker processes,
    retries, pool replacements, and the parent's own serial fallbacks.

    Install it around a block of sweeps with :func:`chaos_sweeps`::

        chaos = SweepChaos({3: ChaosSpec(kind="crash")}, tmp_path)
        with chaos_sweeps(chaos):
            ac_analysis(system, "V1", freqs, backend="process",
                        sweep_options={"on_item_failure": "retry"})
        assert chaos.attempts(3) == 2   # crashed once, replayed once
    """

    def __init__(self, faults: Dict[int, ChaosSpec], state_dir):
        self.faults = {int(k): v for k, v in faults.items()}
        for spec in self.faults.values():
            if not isinstance(spec, ChaosSpec):
                raise TypeError(f"fault values must be ChaosSpec, got {spec!r}")
        self.state_dir = os.fspath(state_dir)
        os.makedirs(self.state_dir, exist_ok=True)

    # -- attempt bookkeeping (file-based: shared across processes) -----
    def _counter_path(self, index: int) -> str:
        return os.path.join(self.state_dir, f"item_{int(index)}.attempts")

    def attempts(self, index: int) -> int:
        """How many times item ``index`` started executing so far."""
        try:
            return os.path.getsize(self._counter_path(index))
        except OSError:
            return 0

    def reset(self) -> None:
        """Forget all attempt counters (fresh schedule)."""
        for index in self.faults:
            try:
                os.remove(self._counter_path(index))
            except OSError:
                pass

    # -- the injection point consumed by repro.perf.sweep --------------
    def before_item(self, index: int) -> None:
        """Called by the sweep executor as item ``index`` starts.

        Counts the execution, then applies the scheduled fault (if any
        remain for this item).  Runs in whatever process executes the
        item, which is exactly where a real fault would strike.
        """
        spec = self.faults.get(int(index))
        if spec is None:
            return
        with open(self._counter_path(index), "ab") as fh:
            fh.write(b".")
            fh.flush()
            n = fh.tell()
        if n > spec.times:
            return
        if spec.kind == "crash":
            os._exit(spec.exit_code)
        if spec.kind == "hang":
            time.sleep(spec.duration)
            return
        raise spec.exc_type(f"{spec.message} (item {index}, attempt {n})")


#: Process-global chaos harness consumed by repro.perf.sweep (parent
#: side — the harness is then shipped to workers with each task).
_SWEEP_CHAOS: Optional[SweepChaos] = None


def install_sweep_chaos(chaos: Optional[SweepChaos]) -> Optional[SweepChaos]:
    """Install (or clear, with ``None``) the active sweep chaos harness.

    Returns the previously installed harness so callers can restore it.
    """
    global _SWEEP_CHAOS
    prev = _SWEEP_CHAOS
    _SWEEP_CHAOS = chaos
    return prev


def active_sweep_chaos() -> Optional[SweepChaos]:
    """The harness :func:`repro.perf.sweep_map` will inject, if any."""
    return _SWEEP_CHAOS


@contextmanager
def chaos_sweeps(chaos: SweepChaos):
    """Scope ``chaos`` over a block: every ``sweep_map`` inside it runs
    with the harness's scheduled faults, whatever backend executes."""
    prev = install_sweep_chaos(chaos)
    try:
        yield chaos
    finally:
        install_sweep_chaos(prev)


# -- service-level chaos ------------------------------------------------

_JOB_KINDS = ("error", "hang", "crash")
_WAL_KINDS = ("disk_full", "torn")
_STORE_KINDS = ("error", "torn", "crash")
_HTTP_KINDS = ("error", "hang", "drop", "torn")


class ServeChaos:
    """Deterministic fault injection for the simulation service.

    Two fault surfaces:

    * ``job_faults`` maps a **netlist tag** — any substring of the
      submitted netlist text, or ``"*"`` for every job — to a
      :class:`ChaosSpec` with a task-level kind (``error``/``hang``/
      ``crash``).  Workers call :meth:`before_job` as a claimed job
      starts solving; the fault strikes *in the worker process*, so a
      ``crash`` models a worker SIGKILL'd mid-job and a ``hang`` models
      a stuck solve the lease TTL must reap.
    * ``wal_faults`` maps a WAL **operation name** (currently
      ``"append"``) to a spec with a log-level kind: ``disk_full``
      makes scheduled appends raise ``ENOSPC``, ``torn`` makes them
      persist only half the line — what a crash mid-``write`` leaves.
    * ``store_faults`` maps a result-store **operation name**
      (currently ``"put"``) to a spec: ``torn`` leaves a half-written
      payload under the final name (the pre-fsync power-loss failure
      mode) and raises, ``crash`` ``os._exit``'s after the temp write
      but before publication (the atomicity regression net), ``error``
      raises before any write.
    * ``http_faults`` maps a **path substring** (or ``"*"``) of HTTP
      front-end requests to a spec: ``drop`` closes the connection
      without any response, ``torn`` sends the headers plus half the
      body then kills the connection mid-response, ``hang`` sleeps
      ``duration`` before handling, ``error`` answers 500.

    All schedules count executions in files under ``state_dir`` (one
    byte per occurrence), so "crash the first attempt, succeed after"
    holds across worker processes and service restarts — the same
    idiom as :class:`SweepChaos`.

    Install process-wide with :func:`chaos_serve`::

        chaos = ServeChaos({"poison": ChaosSpec(kind="crash")}, tmp_path)
        with chaos_serve(chaos):
            svc.drain()
        assert chaos.attempts("poison") == 2   # crashed once, retried
    """

    def __init__(
        self,
        job_faults: Optional[Dict[str, ChaosSpec]] = None,
        state_dir=".",
        wal_faults: Optional[Dict[str, ChaosSpec]] = None,
        store_faults: Optional[Dict[str, ChaosSpec]] = None,
        http_faults: Optional[Dict[str, ChaosSpec]] = None,
    ):
        self.job_faults = dict(job_faults or {})
        self.wal_faults = dict(wal_faults or {})
        self.store_faults = dict(store_faults or {})
        self.http_faults = dict(http_faults or {})
        surfaces = (
            ("job", self.job_faults, _JOB_KINDS),
            ("wal", self.wal_faults, _WAL_KINDS),
            ("store", self.store_faults, _STORE_KINDS),
            ("http", self.http_faults, _HTTP_KINDS),
        )
        for surface, faults, kinds in surfaces:
            for tag, spec in faults.items():
                if not isinstance(spec, ChaosSpec):
                    raise TypeError(
                        f"fault values must be ChaosSpec, got {spec!r}"
                    )
                if spec.kind not in kinds:
                    raise ValueError(
                        f"{surface} fault {tag!r}: kind must be one of "
                        f"{kinds}, got {spec.kind!r}"
                    )
        self.state_dir = os.fspath(state_dir)
        os.makedirs(self.state_dir, exist_ok=True)

    # -- counters (file-based: shared across processes) ----------------
    @staticmethod
    def _slug(text: str) -> str:
        import hashlib

        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]

    def _job_counter(self, tag: str) -> str:
        return os.path.join(self.state_dir, f"serve_job_{self._slug(tag)}.attempts")

    def _wal_counter(self, op: str) -> str:
        return os.path.join(self.state_dir, f"serve_wal_{op}.count")

    def _store_counter(self, op: str) -> str:
        return os.path.join(self.state_dir, f"serve_store_{op}.count")

    def _http_counter(self, tag: str) -> str:
        return os.path.join(
            self.state_dir, f"serve_http_{self._slug(tag)}.count"
        )

    @staticmethod
    def _bump(path: str) -> int:
        with open(path, "ab") as fh:
            fh.write(b".")
            fh.flush()
            return fh.tell()

    @staticmethod
    def _count(path: str) -> int:
        try:
            return os.path.getsize(path)
        except OSError:
            return 0

    def attempts(self, tag: str) -> int:
        """Executions so far of jobs matching ``tag``."""
        return self._count(self._job_counter(tag))

    def wal_ops(self, op: str) -> int:
        """WAL operations of kind ``op`` seen so far."""
        return self._count(self._wal_counter(op))

    def store_ops(self, op: str) -> int:
        """Result-store operations of kind ``op`` seen so far."""
        return self._count(self._store_counter(op))

    def http_ops(self, tag: str) -> int:
        """HTTP requests matching fault tag ``tag`` seen so far."""
        return self._count(self._http_counter(tag))

    def reset(self) -> None:
        paths = (
            [self._job_counter(t) for t in self.job_faults]
            + [self._wal_counter(o) for o in self.wal_faults]
            + [self._store_counter(o) for o in self.store_faults]
            + [self._http_counter(t) for t in self.http_faults]
        )
        for path in paths:
            try:
                os.remove(path)
            except OSError:
                pass

    # -- injection points consumed by repro.serve ----------------------
    def before_job(self, netlist: str, job_id: str = "") -> None:
        """Called by a worker as a claimed job starts solving.

        The first ``job_faults`` tag found in the netlist text (``"*"``
        matches everything) is counted and, while executions remain in
        its schedule, applied — in this process, like a real fault.
        """
        for tag, spec in self.job_faults.items():
            if tag != "*" and tag not in netlist:
                continue
            n = self._bump(self._job_counter(tag))
            if n > spec.times:
                return
            if spec.kind == "crash":
                os._exit(spec.exit_code)
            if spec.kind == "hang":
                time.sleep(spec.duration)
                return
            raise spec.exc_type(f"{spec.message} (job {job_id}, attempt {n})")

    def wal_op(self, op: str) -> Optional[str]:
        """Called by the WAL before operation ``op``; returns the fault
        kind to apply (``"disk_full"``/``"torn"``) or ``None``."""
        spec = self.wal_faults.get(op)
        if spec is None:
            return None
        n = self._bump(self._wal_counter(op))
        if n > spec.times:
            return None
        return spec.kind

    def store_op(self, op: str) -> Optional[ChaosSpec]:
        """Called by the result store before operation ``op``; returns
        the scheduled :class:`ChaosSpec` (the store needs its
        ``exc_type``/``exit_code``, not just the kind) or ``None``."""
        spec = self.store_faults.get(op)
        if spec is None:
            return None
        n = self._bump(self._store_counter(op))
        if n > spec.times:
            return None
        return spec

    def http_op(self, path: str) -> Optional[ChaosSpec]:
        """Called by the HTTP front-end per request; first tag found in
        ``path`` (``"*"`` matches everything) is counted and, while its
        schedule lasts, returned for the server to apply."""
        for tag, spec in self.http_faults.items():
            if tag != "*" and tag not in path:
                continue
            n = self._bump(self._http_counter(tag))
            if n > spec.times:
                return None
            return spec
        return None


def tear_final_line(path) -> int:
    """Truncate a file's final line to half its bytes (a torn write).

    Models a writer killed mid-``write`` — exactly the damage the WAL's
    replay rules and torn-tail guard must absorb.  Returns how many
    bytes were removed (0 when the file is empty or has no final line).
    """
    path = os.fspath(path)
    try:
        size = os.path.getsize(path)
    except OSError:
        return 0
    if size == 0:
        return 0
    with open(path, "r+b") as fh:
        data = fh.read()
        body = data[:-1] if data.endswith(b"\n") else data
        if not body:
            return 0
        start = body.rfind(b"\n") + 1
        line = body[start:]
        if not line:
            return 0
        new_end = start + max(1, len(line) // 2)
        fh.truncate(new_end)
    return size - new_end


#: Process-global service chaos harness consumed by repro.serve (each
#: worker process re-imports this module, so install it *before* fork
#: or inside worker_main's process).
_SERVE_CHAOS: Optional[ServeChaos] = None


def install_serve_chaos(chaos: Optional[ServeChaos]) -> Optional[ServeChaos]:
    """Install (or clear, with ``None``) the active service chaos
    harness; returns the previously installed one."""
    global _SERVE_CHAOS
    prev = _SERVE_CHAOS
    _SERVE_CHAOS = chaos
    return prev


def active_serve_chaos() -> Optional[ServeChaos]:
    """The harness the service's WAL and workers will consult, if any."""
    return _SERVE_CHAOS


@contextmanager
def chaos_serve(chaos: ServeChaos):
    """Scope ``chaos`` over a block of service activity."""
    prev = install_serve_chaos(chaos)
    try:
        yield chaos
    finally:
        install_serve_chaos(prev)


class FaultyMNASystem:
    """Proxy over a compiled :class:`~repro.netlist.mna.MNASystem` with
    selected evaluators replaced by fault-injecting wrappers.

    Everything not overridden delegates to the wrapped system, so the
    proxy drops into any analysis entry point unchanged::

        clock = FaultClock(start=1, count=2)
        bad = FaultyMNASystem(sys, G=inject_singular(sys.G, clock))
        dc_analysis(bad)   # plain Newton fails, the ladder recovers

    Overridable names are the evaluator methods analyses call:
    ``f``, ``G``, ``q``, ``C``, ``b``, ``b_dc``, ``batch_fq``,
    ``batch_jacobians``.  When ``f`` or ``q`` is overridden and
    ``batch_fq`` is not, ``batch_fq`` goes through the overrides
    (``(self.f(X), self.q(X))``), so a fault scheduled on ``f`` or ``q``
    also reaches callers of the fused evaluator.
    """

    _OVERRIDABLE = ("f", "G", "q", "C", "b", "b_dc", "batch_fq", "batch_jacobians")

    def __init__(self, system, **overrides):
        unknown = set(overrides) - set(self._OVERRIDABLE)
        if unknown:
            raise ValueError(
                f"cannot override {sorted(unknown)}; allowed: {self._OVERRIDABLE}"
            )
        self._system = system
        self._overrides = overrides

    def __getattr__(self, name):
        overrides = object.__getattribute__(self, "_overrides")
        if name in overrides:
            return overrides[name]
        if name == "batch_fq" and ("f" in overrides or "q" in overrides):
            return self._split_batch_fq
        return getattr(object.__getattribute__(self, "_system"), name)

    def _split_batch_fq(self, X):
        return self.f(X), self.q(X)

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

Beyond the solver-callable wrappers, this module also hosts the **chaos
harness** (:class:`Chaos` + :func:`chaos_scope`): scheduled faults in
:func:`repro.perf.sweep_map` items, service jobs, append-only-log
appends, result-store writes and HTTP requests — transient errors,
hangs, hard crashes via ``os._exit``, disk-full and torn writes, dropped
connections — injected in whatever process the work executes.
Occurrence counters live in files so a schedule like "crash the first
execution of item 3, succeed afterwards" holds across worker processes,
retries, pool replacements and service restarts; that is what makes the
recovery paths *testable* instead of merely written.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import time
from contextlib import contextmanager
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from repro.linalg.newton import ConvergenceError

__all__ = [
    "Chaos",
    "ChaosSpec",
    "FaultClock",
    "FaultyMNASystem",
    "TransientFault",
    "active_chaos",
    "chaos_scope",
    "inject_error",
    "inject_nan",
    "inject_perturb",
    "inject_singular",
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


#: Fault kinds each :class:`Chaos` surface accepts (its docstring says
#: what each kind does there).
_SURFACE_KINDS = {
    "items": ("error", "hang", "crash"),
    "jobs": ("error", "hang", "crash"),
    "log": ("disk_full", "torn"),
    "store": ("error", "torn", "crash"),
    "http": ("error", "hang", "drop", "torn"),
}
_CHAOS_KINDS = ("error", "hang", "crash", "disk_full", "torn", "drop")


@dataclasses.dataclass
class ChaosSpec:
    """One scheduled fault on one tag of a :class:`Chaos` surface.

    Attributes
    ----------
    kind:
        One of ``error``, ``hang``, ``crash``, ``disk_full``, ``torn``,
        ``drop``; which ones a surface accepts is listed in
        :class:`Chaos`.  On a task surface: ``"error"`` — raise
        ``exc_type(message)`` (a transient fault); ``"hang"`` — sleep
        ``duration`` seconds before running (models a stuck solve; a
        sweep deadline interrupts the sleep); ``"crash"`` —
        ``os._exit(exit_code)``, killing the process without cleanup
        (models OOM kills / segfaults).  Never schedule a crash for a
        task that executes in the parent process (serial/thread
        backends) unless losing the parent is the point.
    times:
        Occurrences 1..times of the tag fault; later ones run clean — so
        ``times=1`` models a transient fault that a single retry
        survives, and a large ``times`` models a poison item.
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


class Chaos:
    """Deterministic fault injection for sweeps and the simulation service.

    Each keyword maps the tags of one fault surface to :class:`ChaosSpec`
    schedules:

    * ``items`` — a sweep **item index** (the position in the sweep's
      item list) to ``error``/``hang``/``crash``, applied as the item
      starts by :func:`repro.perf.sweep_map`, in whatever process
      executes it;
    * ``jobs`` — a **netlist tag** (any substring of the submitted
      netlist text, or ``"*"`` for every job) to ``error``/``hang``/
      ``crash``, applied by a service worker as a claimed job starts
      solving: a ``crash`` models a worker SIGKILL'd mid-job, a ``hang``
      a stuck solve the lease TTL must reap;
    * ``log`` — an **operation name** (``"append"``) of every
      :class:`repro.durable.AppendLog` (the service WAL and sweep
      checkpoints) to ``disk_full`` (the append raises ``ENOSPC``) or
      ``torn`` (only half the line persists — what a crash mid-``write``
      leaves);
    * ``store`` — a result-store **operation name** (``"put"``) to
      ``torn`` (a half-written payload under the final name, the
      pre-fsync power-loss failure mode, then raise), ``crash``
      (``os._exit`` after the temp write but before publication) or
      ``error`` (raise before any write);
    * ``http`` — a **path substring** (or ``"*"``) of HTTP front-end
      requests to ``drop`` (close the connection without a response),
      ``torn`` (headers plus half the body, then kill the connection),
      ``hang`` (sleep ``duration`` before handling) or ``error`` (answer
      500).

    On ``jobs`` and ``http`` the first tag found is the one counted and
    applied.  Occurrences are counted in files under ``state_dir`` (one
    byte each), so "crash the first attempt, succeed after" holds across
    worker processes, retries, pool replacements and service restarts.
    The harness is picklable: it rides into process-backend sweep
    workers with each task.  Install it process-wide with
    :func:`chaos_scope`::

        chaos = Chaos(tmp_path, items={3: ChaosSpec(kind="crash")})
        with chaos_scope(chaos):
            ac_analysis(system, "V1", freqs, backend="process",
                        sweep_options={"on_item_failure": "retry"})
        assert chaos.count("items", 3) == 2   # crashed once, replayed once
    """

    def __init__(self, state_dir, items=None, jobs=None, log=None, store=None, http=None):
        self.faults = {
            "items": {int(k): v for k, v in (items or {}).items()},
            "jobs": dict(jobs or {}),
            "log": dict(log or {}),
            "store": dict(store or {}),
            "http": dict(http or {}),
        }
        for surface, faults in self.faults.items():
            kinds = _SURFACE_KINDS[surface]
            for tag, spec in faults.items():
                if not isinstance(spec, ChaosSpec):
                    raise TypeError(f"fault values must be ChaosSpec, got {spec!r}")
                if spec.kind not in kinds:
                    raise ValueError(
                        f"{surface} fault {tag!r}: kind must be one of "
                        f"{kinds}, got {spec.kind!r}"
                    )
        self.state_dir = os.fspath(state_dir)
        os.makedirs(self.state_dir, exist_ok=True)

    # -- counters (file-based: shared across processes) ----------------
    def _counter(self, surface: str, tag) -> str:
        digest = hashlib.sha256(str(tag).encode("utf-8")).hexdigest()[:12]
        return os.path.join(self.state_dir, f"{surface}_{digest}.count")

    def count(self, surface: str, tag) -> int:
        """Occurrences of ``tag`` on ``surface`` so far — executions
        started, for ``items`` and ``jobs``."""
        if surface not in _SURFACE_KINDS:
            raise ValueError(f"unknown chaos surface {surface!r}")
        try:
            return os.path.getsize(self._counter(surface, tag))
        except OSError:
            return 0

    def reset(self) -> None:
        """Forget all counters (fresh schedule)."""
        for surface, faults in self.faults.items():
            for tag in faults:
                try:
                    os.remove(self._counter(surface, tag))
                except OSError:
                    pass

    def _due(self, surface: str, tag):
        """Count one occurrence of a scheduled ``tag``; returns
        ``(spec, n)``, with ``spec`` None once the schedule is spent."""
        spec = self.faults[surface].get(tag)
        if spec is None:
            return None, 0
        with open(self._counter(surface, tag), "ab") as fh:
            fh.write(b".")
            fh.flush()
            n = fh.tell()
        return (spec if n <= spec.times else None), n

    def _first_tag(self, surface: str, text: str):
        return next((t for t in self.faults[surface] if t == "*" or t in text), None)

    def _strike(self, surface: str, tag, what: str) -> None:
        spec, n = self._due(surface, tag)
        if spec is None:
            return
        if spec.kind == "crash":
            os._exit(spec.exit_code)
        if spec.kind == "hang":
            time.sleep(spec.duration)
            return
        raise spec.exc_type(f"{spec.message} ({what}, attempt {n})")

    # -- injection points ----------------------------------------------
    def before_item(self, index: int) -> None:
        """Called by the sweep executor as item ``index`` starts, in the
        process that executes it — exactly where a real fault strikes."""
        self._strike("items", int(index), f"item {index}")

    def before_job(self, netlist: str, job_id: str = "") -> None:
        """Called by a service worker as a claimed job starts solving."""
        self._strike("jobs", self._first_tag("jobs", netlist), f"job {job_id}")

    def log_op(self, op: str) -> Optional[str]:
        """Called by an append-only log before operation ``op``; returns
        the fault kind to apply (``"disk_full"``/``"torn"``) or ``None``."""
        spec, _ = self._due("log", op)
        return spec.kind if spec is not None else None

    def store_op(self, op: str) -> Optional[ChaosSpec]:
        """Called by the result store before operation ``op``; returns
        the scheduled :class:`ChaosSpec` (the store needs its
        ``exc_type``/``exit_code``, not just the kind) or ``None``."""
        return self._due("store", op)[0]

    def http_op(self, path: str) -> Optional[ChaosSpec]:
        """Called by the HTTP front-end per request; returns the spec of
        the first tag found in ``path`` while its schedule lasts."""
        return self._due("http", self._first_tag("http", path))[0]


#: The installed harness, consulted by sweeps, service workers, the
#: append-only log, the result store and the HTTP front-end.  Service
#: worker processes inherit it when it is installed before they fork.
_CHAOS: Optional[Chaos] = None


def active_chaos() -> Optional[Chaos]:
    """The installed chaos harness, if any."""
    return _CHAOS


@contextmanager
def chaos_scope(chaos: Chaos):
    """Install ``chaos`` process-wide over a block, then restore the
    previous harness."""
    global _CHAOS
    prev, _CHAOS = _CHAOS, chaos
    try:
        yield chaos
    finally:
        _CHAOS = prev


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
    ``batch_jacobians``.  The fused evaluator ``batch_fq`` always goes
    through the overrides, so a fault scheduled on any of them reaches
    its callers: ``(f, q)`` come from a ``batch_fq`` override (called
    with ``X`` alone), else from ``f``/``q`` when either is overridden;
    with ``jacobians=True`` the batch Jacobian values come from
    ``batch_jacobians``.  Only when none of these four is overridden is
    it the wrapped system's single fused pass.
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
        return getattr(object.__getattribute__(self, "_system"), name)

    def batch_fq(self, X, jacobians=False):
        overrides = self._overrides
        if "batch_fq" in overrides:
            fq = tuple(overrides["batch_fq"](X))
        elif "f" in overrides or "q" in overrides:
            fq = (self.f(X), self.q(X))
        elif jacobians and "batch_jacobians" not in overrides:
            return self._system.batch_fq(X, jacobians=True)
        else:
            fq = self._system.batch_fq(X)
        return fq + tuple(self.batch_jacobians(X)) if jacobians else fq

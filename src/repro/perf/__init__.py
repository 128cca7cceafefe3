"""Hot-path performance layer: factorization reuse and sweep parallelism.

The paper's headline claims are about *speed* — harmonic balance "in
minutes" on large circuits (sec. 2.1), IES3 turning days of extraction
into minutes (sec. 4).  This package supplies the two mechanisms the
rest of the tool family uses to get there:

* :mod:`repro.perf.factorcache` — :class:`FactorCache`, a keyed cache of
  LU factorizations enabling *modified Newton* (reuse a factorization
  across iterations until the convergence rate degrades) and LU reuse
  across transient timesteps while the step size is unchanged;
* :mod:`repro.perf.sweep` — :func:`sweep_map`, a deterministic parallel
  executor for embarrassingly parallel workloads (AC/HB frequency
  points, Monte-Carlo paths, ROM transfer sweeps, EM panel-matrix
  assembly) with serial, thread and process backends — results are
  bit-identical whichever backend and worker count runs them;
* :mod:`repro.perf.counters` — :class:`PerfCounters`, the factor
  hit/miss, saved-Jacobian and per-stage wall-time counters attached to
  :class:`~repro.robust.report.SolveReport` objects as ``report.perf``.
"""

from repro.perf.counters import PerfCounters
from repro.perf.factorcache import FactorCache, make_factor_solver
from repro.perf.sweep import (
    BACKENDS,
    ON_ITEM_FAILURE_MODES,
    SkippedSlot,
    SweepItemSkipped,
    SweepItemTimeout,
    SweepRemoteError,
    SweepWorkerCrash,
    backoff_seconds,
    resolve_backend,
    resolve_checkpoint,
    resolve_retries,
    resolve_timeout,
    resolve_workers,
    sweep_map,
)

__all__ = [
    "BACKENDS",
    "ON_ITEM_FAILURE_MODES",
    "FactorCache",
    "PerfCounters",
    "SkippedSlot",
    "SweepItemSkipped",
    "SweepItemTimeout",
    "SweepRemoteError",
    "SweepWorkerCrash",
    "backoff_seconds",
    "make_factor_solver",
    "resolve_backend",
    "resolve_checkpoint",
    "resolve_retries",
    "resolve_timeout",
    "resolve_workers",
    "sweep_map",
]

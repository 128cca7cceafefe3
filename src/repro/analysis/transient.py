"""Time-domain transient analysis.

Backward-Euler and trapezoidal integration of the circuit DAE

    d q(x)/dt + f(x) = b(t)

with Newton solution of each implicit step.  The paper's point of
departure (sec. 1-2) is that this workhorse becomes hopeless for RF
stimuli with widely separated time scales — the Figure 1 and Figure 5
benchmarks quantify exactly that against HB and MMFT.  It remains the
substrate for everything else: shooting wraps it, TD-ENV integrates the
slow MPDE axis with it, and the phase-noise Monte Carlo is a stochastic
variant of it.
"""

from __future__ import annotations

import dataclasses
import time
import warnings
from typing import Callable, Optional

import numpy as np
import scipy.sparse.linalg as spla

from repro.analysis.dc import _dc_solve
from repro.linalg import ConvergenceError, NewtonOptions, newton_solve
from repro.netlist.mna import MNASystem
from repro.perf import FactorCache, PerfCounters
from repro.robust import AttemptRecord, EscalationPolicy, SolveFailure, SolveReport
from repro.robust.diagnostics import ValidationReport, enforce
from repro.robust.validate import preflight
from repro.trace import get_tracer, spanned, traceable

__all__ = ["TransientResult", "transient_analysis", "step_once", "TRANSIENT_LADDER"]

#: Recovery rungs of the transient step loop: a plain implicit step,
#: then exponential step backoff down to a floor.
TRANSIENT_LADDER = ("step", "step-backoff")

# cap on per-rejection attempt records kept in the report (the counters
# remain exact; only the detailed records are bounded)
_MAX_RECORDED_REJECTIONS = 40


@dataclasses.dataclass
class TransientResult:
    """Time points ``t`` (m,) and solution samples ``X`` (n, m)."""

    t: np.ndarray
    X: np.ndarray
    newton_iterations: int
    rejected_steps: int = 0
    converged: bool = True
    report: Optional[SolveReport] = None
    validation: Optional[ValidationReport] = None

    def voltage(self, system: MNASystem, node: str) -> np.ndarray:
        return self.X[system.node(node)]

    def current(self, system: MNASystem, device: str) -> np.ndarray:
        """Branch-current waveform of a device (vsource/inductor/...)."""
        return self.X[system.branch(device)]

    def sample(self, k: int) -> np.ndarray:
        return self.X[:, k]


def step_once(
    system: MNASystem,
    x_prev: np.ndarray,
    t_prev: float,
    h: float,
    method: str = "trap",
    newton_opts: Optional[NewtonOptions] = None,
    cache: Optional[FactorCache] = None,
    cache_key=None,
):
    """Advance one implicit step; returns (x_next, newton_iterations).

    BE:    (q(x+) - q(x))/h + f(x+) - b(t+) = 0
    trap:  (q(x+) - q(x))/h + (f(x+) - b(t+))/2 + (f(x) - b(t))/2 = 0

    When a :class:`FactorCache` is supplied the step Jacobian
    ``C(x)/h + alpha G(x)`` is solved in modified-Newton mode: the LU
    factorization is reused across iterations *and* across consecutive
    steps sharing ``cache_key`` (i.e. while ``h`` is unchanged), with
    fail-closed refresh on any residual-increasing stale step.
    """
    x_next, iters, _ = _step(
        system, x_prev, system.batch_fq(x_prev), t_prev, h, method,
        newton_opts, cache, cache_key,
    )
    return x_next, iters


def _step(system, x_prev, fq_prev, t_prev, h, method, newton_opts, cache, cache_key):
    """:func:`step_once` from a point whose ``(f, q)`` are already known.

    Returns ``(x_next, newton_iterations, (f, q) at x_next)``.  Each
    Newton iterate costs one device pass (:meth:`MNASystem.batch_fq`);
    the residual at ``x_prev`` itself, Newton's starting point, reuses
    ``fq_prev``, and the converged point's ``(f, q)`` come back from the
    last residual evaluation, so the next step starts without a pass.
    """
    t_next = t_prev + h
    f_prev, q_prev = fq_prev
    b_next = system.b(t_next)
    opts = newton_opts or NewtonOptions(abstol=1e-9, maxiter=50, dx_limit=2.0)

    if method == "be":
        alpha = 1.0
        hist = np.zeros(system.n)
    elif method == "trap":
        alpha = 0.5
        hist = 0.5 * (f_prev - system.b(t_prev))
    else:
        raise ValueError(f"unknown method {method!r} (use 'be' or 'trap')")

    x_bits = np.asarray(x_prev, dtype=float).tobytes()
    last_x, last_fq = None, None  # most recent residual point

    def residual(x):
        nonlocal last_x, last_fq
        # Newton starts from a copy of x_prev: same bits, same (f, q)
        fq = fq_prev if x.tobytes() == x_bits else system.batch_fq(x)
        last_x, last_fq = x, fq
        f, q = fq
        return (q - q_prev) / h + alpha * (f - b_next) + hist

    def jacobian(x):
        return (system.C(x) / h + alpha * system.G(x)).tocsc()

    res = newton_solve(
        residual, jacobian, x_prev, opts, factor_cache=cache, cache_key=cache_key
    )
    if cache is not None:
        c = cache.counters
        c.jacobian_evals += res.jacobian_evals
        c.jacobian_evals_saved += res.factor_reuses
        c.stale_refreshes += res.stale_refreshes
    # newton_solve returns the last point it evaluated the residual at
    fq_next = last_fq if res.x is last_x else system.batch_fq(res.x)
    return res.x, res.iterations, fq_next


@traceable
@spanned("transient.analysis")
def transient_analysis(
    system: MNASystem,
    t_stop: float,
    dt: float,
    x0: Optional[np.ndarray] = None,
    t_start: float = 0.0,
    method: str = "trap",
    adaptive: bool = False,
    lte_tol: float = 1e-4,
    max_steps: int = 2_000_000,
    callback: Optional[Callable[[float, np.ndarray], None]] = None,
    policy: Optional[EscalationPolicy] = None,
    on_failure: Optional[str] = None,
    h_floor: Optional[float] = None,
    on_invalid: str = "raise",
    reuse_lu: bool = True,
    reuse_iter_threshold: int = 2,
) -> TransientResult:
    """Integrate the circuit from ``t_start`` to ``t_stop``.

    Parameters
    ----------
    dt:
        Fixed step size, or the initial step when ``adaptive``.
    x0:
        Initial state; DC operating point when omitted.
    method:
        ``"trap"`` (default, 2nd order) or ``"be"``.
    adaptive:
        Enable step-size control based on a local extrapolation error
        estimate; ``lte_tol`` is the per-step relative target.
    policy / on_failure:
        Failure handling for the step-backoff ladder.  On an unrecoverable
        step (backoff hit ``h_floor``) the default raises; ``"warn"`` /
        ``"best_effort"`` return the partial trajectory integrated so far
        with ``converged=False`` and the report attached.
    h_floor:
        Smallest step the backoff may try before declaring the step
        unrecoverable (default ``1e-21``, the historical hard floor).
    on_invalid:
        Pre-flight lint policy: circuit topology plus timestep checks
        (``AN_TIMESTEP_NONPOSITIVE``, ``AN_TIMESTEP_COARSE``).
    reuse_lu:
        Reuse the step-Jacobian LU factorization across Newton
        iterations and across timesteps while the stepsize ``h`` is
        unchanged (``C/h + alpha G`` keyed by ``h``), with fail-closed
        refresh on stale steps.  The cache is invalidated whenever a
        step is rejected, since backoff changes ``h``.  Converged
        answers are unchanged (the residual stays exact); disable only
        to benchmark the reuse itself.
    reuse_iter_threshold:
        Step-level staleness policy: a converged step that needed more
        than this many Newton iterations signals that the cached LU has
        drifted (strong nonlinearity active), so the cache is dropped
        and the next step factors fresh.  Keeps reuse a net win on
        nonlinear circuits where stale factors degrade the convergence
        rate.
    """
    validation = enforce(
        preflight(system, "transient", dt=dt, t_stop=t_stop, t_start=t_start),
        on_invalid,
    )
    pol = policy or EscalationPolicy()
    mode = on_failure if on_failure is not None else pol.on_failure
    backoff_opts = pol.options_for("step-backoff")
    backoff_factor = float(backoff_opts.get("factor", 0.25))
    floor = float(h_floor if h_floor is not None else backoff_opts.get("floor", 1e-21))
    report = SolveReport(analysis="transient", on_failure=mode)
    tr = get_tracer()
    trace_mark = tr.mark() if tr.enabled else None
    counters = PerfCounters()
    cache = FactorCache(max_entries=4, counters=counters) if reuse_lu else None

    if x0 is None:
        # already linted above; don't lint (or raise) twice
        with counters.stage("dc"):
            x0 = _dc_solve(system).x
    x = np.asarray(x0, dtype=float).copy()
    # (f, q) at the accepted point, carried from step to step
    fq = system.batch_fq(x)

    # LTE is only meaningful for unknowns with dynamics: algebraic
    # variables (e.g. source branch currents) follow instantaneously and
    # their trapezoidal micro-ringing must not drive the step size.
    C0 = system.C(x)
    dynamic = np.asarray(
        (np.abs(C0) @ np.ones(system.n)) + (np.abs(C0).T @ np.ones(system.n))
    ) > 0.0
    if not np.any(dynamic):
        dynamic = np.ones(system.n, dtype=bool)

    times = [t_start]
    states = [x.copy()]
    t = t_start
    h = dt
    total_newton = 0
    rejected = 0

    def finish(converged: bool) -> TransientResult:
        report.record(
            AttemptRecord(
                strategy="step",
                converged=converged,
                iterations=total_newton,
                residual_norm=0.0 if converged else float("inf"),
                detail={"steps": len(times) - 1, "rejected": rejected},
            )
        )
        counters.add_stage("stepping", time.perf_counter() - step_t0)
        counters.attach(report)
        if tr.enabled:
            tr.publish(report, trace_mark)
        return TransientResult(
            t=np.array(times),
            X=np.array(states).T,
            newton_iterations=total_newton,
            rejected_steps=rejected,
            converged=converged,
            report=report,
            validation=validation,
        )

    def give_up(cause: str) -> TransientResult:
        msg = (
            f"transient on {system.title!r} {cause} at t = {t:.6g} "
            f"({len(times) - 1} accepted steps, {rejected} rejected)"
        )
        report.notes.append(msg)
        if mode == "raise":
            raise SolveFailure(msg, finish(False).report)
        if mode == "warn":
            warnings.warn(f"{msg} — returning partial trajectory", RuntimeWarning)
        return finish(False)

    def record_rejection(
        strategy: str,
        iterations: int,
        residual_norm: float,
        cause: str,
        **detail,
    ) -> None:
        # both rejection flavors (Newton failure and LTE) share one cap so
        # the report's attempt list stays bounded while rejected_steps
        # remains exact; the cap note fires once, on the first overflow
        if rejected <= _MAX_RECORDED_REJECTIONS:
            report.record(
                AttemptRecord(
                    strategy=strategy,
                    converged=False,
                    iterations=iterations,
                    residual_norm=residual_norm,
                    failure_cause=cause,
                    detail=detail,
                )
            )
        elif rejected == _MAX_RECORDED_REJECTIONS + 1:
            report.notes.append(
                f"further step rejections not individually recorded "
                f"(cap {_MAX_RECORDED_REJECTIONS}); see rejected_steps"
            )

    t_eps = 1e-12 * max(abs(t_stop), abs(t_start), dt)
    step_t0 = time.perf_counter()
    while t < t_stop - t_eps:
        if len(times) > max_steps:
            return give_up(f"exceeded {max_steps} steps")
        h = min(h, t_stop - t)
        try:
            x_new, iters, fq_new = _step(
                system, x, fq, t, h, method, None, cache, ("step", method, h)
            )
        except ConvergenceError as exc:
            rejected += 1
            if tr.enabled:
                tr.event(
                    "transient.step",
                    t=float(t),
                    h=float(h),
                    iters=int(getattr(exc, "iterations", 0) or 0),
                    accepted=False,
                    cause="newton-fail",
                )
            if cache is not None:
                # backoff changes h, so G + C/h changes: any cached
                # factorization is stale for every retry from here on
                cache.invalidate()
            record_rejection(
                "step-backoff",
                int(getattr(exc, "iterations", 0) or 0),
                float(getattr(exc, "best_norm", np.inf) or np.inf),
                f"{type(exc).__name__}: {exc}",
                t=t,
                h=h,
            )
            h *= backoff_factor
            if h < floor:
                return give_up(f"step backoff hit the floor ({floor:g} s)")
            continue
        total_newton += iters
        if cache is not None and iters > reuse_iter_threshold:
            # slow step: the cached factorization no longer matches the
            # active nonlinearity — refactor fresh next step
            cache.invalidate()

        # floor: below ~dt/100 the extrapolation error estimate is
        # dominated by Newton solver noise, so force acceptance there
        h_min = 1e-2 * dt
        h_prev = times[-1] - times[-2] if len(times) >= 2 else 0.0
        if adaptive and h_prev > 0.0:
            x_pred = x + (x - states[-2]) * (h / h_prev)
            scale = np.maximum(np.abs(x_new), 1e-6)
            err = float(np.max((np.abs(x_new - x_pred) / scale)[dynamic]))
            if not np.isfinite(err):
                err = 8.0 * lte_tol  # treat as a bad step, but bounded
            if err > 4.0 * lte_tol and h > h_min:
                if tr.enabled:
                    tr.event(
                        "transient.step",
                        t=float(t),
                        h=float(h),
                        iters=iters,
                        accepted=False,
                        cause="lte",
                    )
                rejected += 1
                record_rejection(
                    "step-lte",
                    iters,
                    float(err),
                    f"local truncation error {err:.3g} exceeded "
                    f"{4.0 * lte_tol:.3g} (4x lte_tol)",
                    t=t,
                    h=h,
                )
                h = max(0.5 * h, h_min)
                continue
            grow = min(2.0, max(0.5, (lte_tol / max(err, 1e-30)) ** 0.5))
            h_next = max(h * grow, h_min)
        else:
            h_next = h

        if tr.enabled:
            tr.event(
                "transient.step", t=float(t), h=float(h), iters=iters, accepted=True
            )
        t += h
        x, fq = x_new, fq_new
        times.append(t)
        states.append(x.copy())
        if callback is not None:
            callback(t, x)
        h = h_next

    return finish(True)

"""Univariate shooting for periodic steady state.

Finds ``x0`` with ``Phi_T(x0) = x0``, where ``Phi_T`` is the one-period
transient map, by Newton iteration on the boundary condition.  The
sensitivity (monodromy) matrix is propagated alongside the transient
integration: differentiating the backward-Euler step

    (q(x_{k+1}) - q(x_k))/h + f(x_{k+1}) - b = 0

with respect to ``x0`` gives

    (C_{k+1}/h + G_{k+1}) S_{k+1} = (C_k/h) S_k,

(and the trapezoidal analogue).  The monodromy matrix is also the input
to the Floquet analysis in :mod:`repro.phasenoise`.

This is the classical *single time scale* method: its cost per period is
proportional to ``f_fast / f_slow`` when both tones are present, which is
the Figure 5 comparison (univariate shooting ~300x slower than MMFT on
the switching mixer).
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

import numpy as np
import scipy.sparse.linalg as spla

from repro.analysis.dc import _dc_solve
from repro.linalg import ConvergenceError, NewtonOptions, attach_failure_payload, newton_solve
from repro.netlist.mna import MNASystem
from repro.robust import EscalationPolicy, RungOutcome, SolveReport, run_ladder
from repro.robust.diagnostics import ValidationReport, enforce
from repro.robust.validate import preflight

__all__ = [
    "ShootingResult",
    "shooting_analysis",
    "integrate_with_sensitivity",
    "SHOOTING_LADDER",
]

#: Escalation rungs for forced-circuit shooting: plain Newton shooting,
#: then a transient settle to supply a near-cycle initial guess.
SHOOTING_LADDER = ("shooting", "transient-settle")


@dataclasses.dataclass
class ShootingResult:
    """Periodic steady state from shooting.

    ``t``/``X`` sample one period; ``monodromy`` is d x(T) / d x(0).
    """

    x0: np.ndarray
    t: np.ndarray
    X: np.ndarray
    monodromy: np.ndarray
    period: float
    newton_iterations: int
    transient_steps: int
    converged: bool = True
    report: Optional[SolveReport] = None
    validation: Optional[ValidationReport] = None

    def voltage(self, system: MNASystem, node: str) -> np.ndarray:
        return self.X[system.node(node)]


def integrate_with_sensitivity(
    system: MNASystem,
    x0: np.ndarray,
    t0: float,
    period: float,
    steps: int,
    method: str = "trap",
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """One period of transient plus the monodromy matrix.

    Returns ``(t, X, M, newton_iters)`` where ``X`` is (n, steps+1) and
    ``M = dx(T)/dx(0)`` is dense (n, n).
    """
    n = system.n
    h = period / steps
    alpha = 1.0 if method == "be" else 0.5
    x = np.asarray(x0, dtype=float).copy()
    S = np.eye(n)
    t = t0
    times = [t]
    states = [x.copy()]
    total_newton = 0
    opts = NewtonOptions(abstol=1e-10, maxiter=60, dx_limit=2.0)

    C_prev = system.C(x).toarray()
    G_prev = system.G(x).toarray()
    for k in range(steps):
        # First step is always backward Euler: trapezoidal integration
        # does not damp inconsistent algebraic initial conditions (their
        # perturbations alternate sign forever), which would poison the
        # monodromy matrix with spurious unit eigenvalues.
        step_alpha = 1.0 if k == 0 else alpha
        q_prev = system.q(x)
        hist = (
            np.zeros(n)
            if step_alpha == 1.0
            else 0.5 * (system.f(x) - system.b(t))
        )
        t_next = t + h
        b_next = system.b(t_next)

        def residual(z):
            return (system.q(z) - q_prev) / h + step_alpha * (system.f(z) - b_next) + hist

        def jacobian(z):
            return (system.C(z) / h + step_alpha * system.G(z)).tocsc()

        res = newton_solve(residual, jacobian, x, opts)
        x = res.x
        total_newton += res.iterations

        C_new = system.C(x).toarray()
        G_new = system.G(x).toarray()
        lhs = C_new / h + step_alpha * G_new
        if step_alpha == 1.0:
            rhs = (C_prev / h) @ S
        else:
            rhs = (C_prev / h - step_alpha * G_prev) @ S
        S = np.linalg.solve(lhs, rhs)
        C_prev, G_prev = C_new, G_new

        t = t_next
        times.append(t)
        states.append(x.copy())

    return np.array(times), np.array(states).T, S, total_newton


def shooting_analysis(
    system: MNASystem,
    period: float,
    steps_per_period: int = 100,
    x0: Optional[np.ndarray] = None,
    t0: float = 0.0,
    method: str = "trap",
    abstol: float = 1e-8,
    maxiter: int = 40,
    policy: Optional[EscalationPolicy] = None,
    on_failure: Optional[str] = None,
    settle_periods: int = 8,
    on_invalid: str = "raise",
) -> ShootingResult:
    """Periodic steady state of a forced circuit by Newton shooting.

    Parameters
    ----------
    period:
        Forcing period (the slow beat period for multi-tone stimuli —
        which is exactly why this method is expensive there).
    steps_per_period:
        Transient steps per period; accuracy of the PSS waveform (and of
        the Figure 5 runtime comparison) scales with it.
    policy / on_failure:
        Escalation control over :data:`SHOOTING_LADDER`.  The
        ``transient-settle`` rung integrates ``settle_periods`` forcing
        periods of plain transient to land near the limit cycle, then
        re-shoots from there — the standard rescue when shooting from
        the DC point diverges.
    on_invalid:
        Pre-flight lint policy: circuit topology plus period checks
        (``AN_PERIOD_NONPOSITIVE``, ``AN_PERIOD_MISMATCH``).
    """
    validation = enforce(preflight(system, "shooting", period=period), on_invalid)
    guess = (
        _dc_solve(system).x  # already linted above
        if x0 is None
        else np.asarray(x0, dtype=float)
    )
    guess = guess.copy()
    n = system.n
    counters = {"newton": 0, "steps": 0}

    def _shoot(start):
        z = start.copy()
        history = []
        best = None
        for it in range(maxiter):
            t, X, M, iters = integrate_with_sensitivity(
                system, z, t0, period, steps_per_period, method
            )
            counters["newton"] += iters
            counters["steps"] += steps_per_period
            F = X[:, -1] - z
            fnorm = float(np.linalg.norm(F))
            history.append(fnorm)
            if best is None or fnorm < best[0]:
                best = (fnorm, z.copy(), t, X, M)
            if fnorm <= abstol * max(1.0, np.linalg.norm(z)):
                return RungOutcome(
                    value=(z, t, X, M),
                    iterations=it + 1,
                    residual_norm=fnorm,
                    history=history,
                )
            J = M - np.eye(n)
            dx = np.linalg.solve(J, F)
            z = z - dx
        raise attach_failure_payload(
            ConvergenceError(
                f"shooting failed to converge in {maxiter} outer iterations "
                f"(best |x(T)-x(0)| = {best[0]:.3e})"
            ),
            best_x=best[1],
            best_norm=best[0],
            iterations=maxiter,
            history=history,
        )

    def shooting_rung():
        return _shoot(guess)

    def settle_rung():
        # late import: transient imports this module's sibling dc only,
        # but keep the dependency local to the rung regardless
        from repro.analysis.transient import transient_analysis

        dt = period / steps_per_period
        tr = transient_analysis(
            system,
            t_stop=settle_periods * period,
            dt=dt,
            x0=guess,
            method=method,
            on_invalid="ignore",
        )
        counters["newton"] += tr.newton_iterations
        counters["steps"] += tr.t.size - 1
        return _shoot(tr.X[:, -1])

    strategies = [("shooting", shooting_rung), ("transient-settle", settle_rung)]

    def fallback(best, rep):
        start = best.value if best is not None else guess
        t, X, M, iters = integrate_with_sensitivity(
            system, np.asarray(start), t0, period, steps_per_period, method
        )
        counters["newton"] += iters
        counters["steps"] += steps_per_period
        return RungOutcome(
            value=(np.asarray(start), t, X, M),
            residual_norm=best.residual_norm if best is not None else float("inf"),
        )

    out, rep = run_ladder(
        "shooting", strategies, policy=policy, on_failure=on_failure, fallback=fallback
    )
    z, t, X, M = out.value
    return ShootingResult(
        x0=z,
        t=t,
        X=X,
        monodromy=M,
        period=period,
        newton_iterations=counters["newton"],
        transient_steps=counters["steps"],
        converged=rep.converged,
        report=rep,
        validation=validation,
    )

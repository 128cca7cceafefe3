"""DC operating-point analysis.

Solves ``f(x) = b_dc`` by damped Newton, escalating through the standard
SPICE homotopies when plain Newton fails on strongly nonlinear circuits.
The escalation ladder (see :mod:`repro.robust.policy`) is

    ``newton`` → ``gmin-stepping`` → ``source-stepping`` → ``pseudo-transient``

* **gmin stepping** — a shunt conductance on every node diagonal is swept
  from large to negligible;
* **source stepping** — the excitation is ramped from 0 to 100 %;
* **pseudo-transient** — artificial time stepping ``(x_k+1 - x_k)/h``
  with a growing step, the last-resort continuation that follows the
  circuit's own relaxation dynamics toward the operating point.

Every result carries a :class:`~repro.robust.report.SolveReport`
recording each attempt; ``on_failure="best_effort"`` returns the best
iterate with ``converged=False`` instead of raising.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np
import scipy.sparse as sp

from repro.linalg import ConvergenceError, NewtonOptions, newton_solve
from repro.netlist.mna import MNASystem
from repro.robust import EscalationPolicy, RungOutcome, SolveReport, run_ladder
from repro.robust.diagnostics import ValidationReport, enforce
from repro.robust.validate import preflight

__all__ = ["DCResult", "dc_analysis", "DC_LADDER"]

#: Rung names of the DC escalation ladder, in order.
DC_LADDER = ("newton", "gmin-stepping", "source-stepping", "pseudo-transient")


@dataclasses.dataclass
class DCResult:
    """Operating point ``x`` plus bookkeeping about how it was found."""

    x: np.ndarray
    iterations: int
    strategy: str
    residual_norm: float
    converged: bool = True
    report: Optional[SolveReport] = None
    validation: Optional[ValidationReport] = None

    def voltage(self, system: MNASystem, node: str) -> float:
        return float(self.x[system.node(node)])


def _newton_dc(system: MNASystem, b: np.ndarray, x0: np.ndarray, gshunt: float, opts: NewtonOptions):
    n = system.n
    num_nodes = len(system.node_names)
    shunt = sp.diags(
        np.concatenate([np.full(num_nodes, gshunt), np.zeros(n - num_nodes)])
    ).tocsr()

    def residual(x):
        return system.f(x) + shunt @ x - b

    def jacobian(x):
        return (system.G(x) + shunt).tocsc()

    return newton_solve(residual, jacobian, x0, opts)


def dc_analysis(
    system: MNASystem,
    x0: Optional[np.ndarray] = None,
    abstol: float = 1e-9,
    maxiter: int = 100,
    dx_limit: float = 2.0,
    policy: Optional[EscalationPolicy] = None,
    on_failure: Optional[str] = None,
    on_invalid: str = "raise",
) -> DCResult:
    """Find the DC operating point of a compiled circuit.

    Parameters
    ----------
    system:
        Compiled circuit.
    x0:
        Optional initial guess (defaults to all-zero, the SPICE default).
    dx_limit:
        Per-iteration cap on the Newton update infinity-norm; junction
        devices blow up without it.
    policy:
        Escalation policy selecting/ordering rungs from
        :data:`DC_LADDER` and setting the failure mode.
    on_failure:
        ``"raise"`` (default) / ``"warn"`` / ``"best_effort"``;
        overrides ``policy.on_failure``.
    on_invalid:
        Pre-flight lint policy (``"raise"``/``"warn"``/``"ignore"``);
        error-severity diagnostics (floating node, V-source loop, ...)
        raise :class:`~repro.robust.diagnostics.ValidationError` before
        the solve under the default.
    """
    validation = enforce(preflight(system, "dc"), on_invalid)
    res = _dc_solve(system, x0, abstol, maxiter, dx_limit, policy, on_failure)
    res.validation = validation
    return res


def _dc_solve(
    system: MNASystem,
    x0: Optional[np.ndarray] = None,
    abstol: float = 1e-9,
    maxiter: int = 100,
    dx_limit: float = 2.0,
    policy: Optional[EscalationPolicy] = None,
    on_failure: Optional[str] = None,
) -> DCResult:
    """:func:`dc_analysis` without its pre-flight lint, for analyses
    that lint the system themselves before asking for an operating
    point; the result carries no ``validation``."""
    b = system.b_dc()
    guess = np.zeros(system.n) if x0 is None else np.asarray(x0, dtype=float)
    opts = NewtonOptions(abstol=abstol, maxiter=maxiter, dx_limit=dx_limit)

    def _outcome(x, iterations, res):
        return RungOutcome(
            value=x,
            iterations=iterations,
            residual_norm=res.residual_norm,
            history=list(res.history),
        )

    def newton_rung():
        res = _newton_dc(system, b, guess, 0.0, opts)
        return _outcome(res.x, res.iterations, res)

    def gmin_rung():
        x = guess.copy()
        total = 0
        try:
            for gshunt in 10.0 ** np.arange(-2, -13, -1.0):
                res = _newton_dc(system, b, x, gshunt, opts)
                x = res.x
                total += res.iterations
            res = _newton_dc(system, b, x, 0.0, opts)
        except ConvergenceError as exc:
            exc.iterations = total + int(getattr(exc, "iterations", 0) or 0)
            if getattr(exc, "best_x", None) is None:
                exc.best_x = x
            raise
        return _outcome(res.x, total + res.iterations, res)

    def source_rung():
        x = guess.copy()
        total = 0
        alpha = 0.0
        step = 0.1
        failures = 0
        while alpha < 1.0:
            target = min(1.0, alpha + step)
            try:
                res = _newton_dc(system, target * b, x, 0.0, opts)
                x = res.x
                total += res.iterations
                alpha = target
                step = min(step * 2.0, 0.25)
            except ConvergenceError:
                step *= 0.5
                failures += 1
                if failures > 40 or step < 1e-6:
                    exc = ConvergenceError(
                        f"source stepping stalled at alpha = {alpha:.3g} "
                        f"for {system.title!r}"
                    )
                    exc.best_x = x
                    exc.iterations = total
                    raise exc
        final = _newton_dc(system, b, x, 0.0, opts)
        return _outcome(final.x, total + final.iterations, final)

    def pseudo_transient_rung():
        # Artificial time stepping d x / d tau = -(f(x) - b): regularizes
        # every unknown (including branch currents, which gmin misses)
        # and follows the relaxation trajectory; the step grows until the
        # implicit solve *is* the DC Newton solve.
        n = system.n
        reg = sp.identity(n, format="csr")
        x = guess.copy()
        total = 0
        h = 1e-9
        try:
            for _ in range(36):
                x_prev = x

                def residual(z):
                    return system.f(z) - b + (reg @ (z - x_prev)) / h

                def jacobian(z):
                    return (system.G(z) + reg / h).tocsc()

                res = newton_solve(residual, jacobian, x, opts)
                x = res.x
                total += res.iterations
                h *= 4.0
                if h > 1.0 and np.linalg.norm(system.f(x) - b) <= abstol * 10:
                    break
            final = _newton_dc(system, b, x, 0.0, opts)
        except ConvergenceError as exc:
            exc.iterations = total + int(getattr(exc, "iterations", 0) or 0)
            if getattr(exc, "best_x", None) is None:
                exc.best_x = x
            raise
        return _outcome(final.x, total + final.iterations, final)

    strategies = [
        ("newton", newton_rung),
        ("gmin-stepping", gmin_rung),
        ("source-stepping", source_rung),
        ("pseudo-transient", pseudo_transient_rung),
    ]

    def fallback(best, rep):
        x = best.value if best is not None else guess
        norm = best.residual_norm if best is not None else float("inf")
        return RungOutcome(value=np.asarray(x), residual_norm=norm)

    out, rep = run_ladder(
        "dc", strategies, policy=policy, on_failure=on_failure, fallback=fallback
    )
    winning = rep.strategy or "best-effort"
    norm = out.residual_norm
    if not np.isfinite(norm):
        norm = float(np.linalg.norm(system.f(out.value) - b))
    return DCResult(
        x=out.value,
        iterations=rep.total_iterations,
        strategy=winning,
        residual_norm=norm,
        converged=rep.converged,
        report=rep,
    )

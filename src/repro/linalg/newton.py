"""Damped Newton solver shared by DC, transient, shooting, envelope and
hierarchical shooting.

Those analyses reduce to the same template: ``F(x) = 0`` with a
Jacobian that is a dense array or a scipy sparse matrix.  This module
implements a line-search damped Newton iteration over that template.
HB and the other MPDE solvers run their own Newton loop in
:func:`repro.mpde.mpde_core.solve_mpde`.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..trace import get_tracer, spanned

__all__ = [
    "NewtonResult",
    "NewtonOptions",
    "newton_solve",
    "ConvergenceError",
    "attach_failure_payload",
]


class ConvergenceError(RuntimeError):
    """Raised when an iterative solver fails to reach its tolerance.

    Instances may carry a best-effort payload consumed by the recovery
    ladders in :mod:`repro.robust`:

    * ``best_x`` — least-bad iterate seen before giving up;
    * ``best_norm`` — its residual norm;
    * ``iterations`` — iterations spent;
    * ``history`` — residual norms per iteration.

    All default to ``None``/absent; use :func:`attach_failure_payload`
    to populate them.
    """


def attach_failure_payload(exc, best_x=None, best_norm=None, iterations=None, history=None):
    """Stamp a best-effort payload onto a solver exception (returned)."""
    exc.best_x = best_x
    exc.best_norm = best_norm
    exc.iterations = iterations
    exc.history = history
    return exc


@dataclasses.dataclass
class NewtonOptions:
    """Tuning knobs for :func:`newton_solve`.

    Attributes
    ----------
    abstol / reltol:
        Convergence is declared when ``||F|| <= abstol`` or the Newton
        update is small relative to the iterate.
    maxiter:
        Iteration cap before raising :class:`ConvergenceError`.
    damping:
        Enable backtracking line search on the residual norm.
    max_backtrack:
        Number of step-halvings tried before accepting the step anyway.
    dx_limit:
        Optional cap on the infinity norm of a Newton update; exponential
        device models need this to avoid overflow on early iterations.
    reuse_jacobian:
        Modified-Newton knob: maximum consecutive iterations one
        factorization may serve before a mandatory refresh.  0 (the
        default) disables in-solve reuse unless a ``factor_cache`` is
        passed to :func:`newton_solve`, in which case a conservative
        default applies.
    reuse_rate_limit:
        Staleness policy: after a step taken with a *stale*
        factorization, refresh when ``||F_new|| > reuse_rate_limit *
        ||F||`` — i.e. as soon as the contraction rate degrades past
        this ratio, the next iteration pays for a fresh Jacobian.
    """

    abstol: float = 1e-9
    reltol: float = 1e-9
    maxiter: int = 100
    damping: bool = True
    max_backtrack: int = 20
    dx_limit: Optional[float] = None
    reuse_jacobian: int = 0
    reuse_rate_limit: float = 0.5


@dataclasses.dataclass
class NewtonResult:
    x: np.ndarray
    converged: bool
    iterations: int
    residual_norm: float
    history: list
    # SolveReport attached by the repro.robust recovery layer when this
    # solve ran inside an escalation ladder; None for bare solves.
    report: object = None
    # modified-Newton accounting: Jacobians actually evaluated, steps
    # served by a reused factorization, and fail-closed refreshes where
    # a stale factor produced a bad step and was replaced in-place
    jacobian_evals: int = 0
    factor_reuses: int = 0
    stale_refreshes: int = 0


def _solve_linear(J, r):
    """Solve J dx = r for dense or sparse J."""
    if sp.issparse(J):
        return spla.spsolve(J.tocsc(), r)
    return np.linalg.solve(J, r)


#: in-solve reuse cap applied when a factor cache is supplied but the
#: caller did not set ``NewtonOptions.reuse_jacobian`` explicitly
_CACHE_DEFAULT_REUSE = 8


@spanned("newton.solve")
def newton_solve(
    residual: Callable[[np.ndarray], np.ndarray],
    jacobian: Callable[[np.ndarray], object],
    x0: np.ndarray,
    options: Optional[NewtonOptions] = None,
    callback: Optional[Callable[[int, np.ndarray, float], None]] = None,
    factor_cache=None,
    cache_key=None,
) -> NewtonResult:
    """Solve ``residual(x) = 0`` by damped Newton iteration.

    Parameters
    ----------
    residual:
        Maps an iterate to the residual vector ``F(x)``.
    jacobian:
        Maps an iterate to the matrix ``J(x)`` (dense or sparse).
    x0:
        Initial guess (not modified).
    factor_cache / cache_key:
        Optional :class:`~repro.perf.factorcache.FactorCache` and entry
        key enabling *modified Newton*: the Jacobian factorization is
        reused across iterations (and across successive solves sharing
        the cache, e.g. transient timesteps at a fixed stepsize) until
        the staleness policy in :class:`NewtonOptions` triggers a
        refresh.  The stale-factor mode **fails closed**: a reused
        factorization that produces a non-finite or non-descent step is
        invalidated and the step retried with a fresh Jacobian before
        any :class:`ConvergenceError` escapes to an escalation ladder.
    """
    opts = options or NewtonOptions()
    tr = get_tracer()
    x = np.array(x0, dtype=float)
    F = residual(x)
    fnorm = np.linalg.norm(F)
    history = [fnorm]
    best_x, best_norm = x.copy(), fnorm

    reuse_limit = opts.reuse_jacobian
    if reuse_limit <= 0 and factor_cache is not None:
        reuse_limit = _CACHE_DEFAULT_REUSE
    use_reuse = reuse_limit > 0
    cache = factor_cache if (factor_cache is not None and cache_key is not None) else None

    solver = None  # current linear-solve callable (factorization)
    solver_stale = False  # factored at an earlier iterate / another solve
    force_fresh = False  # staleness policy demanded a refresh: skip cache
    age = 0  # accepted steps served by the current factorization
    jac_evals = 0
    reuses = 0
    stale_refreshes = 0

    def _fail(message, it):
        if tr.enabled:
            tr.event("newton.fail", iterations=it, best_norm=float(best_norm))
        raise attach_failure_payload(
            ConvergenceError(message),
            best_x=best_x,
            best_norm=float(best_norm),
            iterations=it,
            history=history,
        )

    def _result(xv, converged, iters, norm):
        if tr.enabled:
            tr.event(
                "newton.done",
                converged=converged,
                iterations=iters,
                rnorm=float(norm),
                jacobian_evals=jac_evals,
                factor_reuses=reuses,
                stale_refreshes=stale_refreshes,
            )
        return NewtonResult(
            xv,
            converged,
            iters,
            norm,
            history,
            jacobian_evals=jac_evals,
            factor_reuses=reuses,
            stale_refreshes=stale_refreshes,
        )

    def _fresh_solver(it):
        """Evaluate the Jacobian at the current iterate and factor it."""
        nonlocal jac_evals
        from repro.perf.factorcache import make_factor_solver

        J = jacobian(x)
        jac_evals += 1
        try:
            s = make_factor_solver(J)
        except (np.linalg.LinAlgError, RuntimeError, ValueError) as exc:
            _fail(f"singular Jacobian at iteration {it}: {exc}", it - 1)
        if cache is not None:
            cache.store(cache_key, s)
        return s

    def _limited(dx):
        if opts.dx_limit is not None:
            peak = np.max(np.abs(dx))
            if peak > opts.dx_limit:
                dx = dx * (opts.dx_limit / peak)
        return dx

    def _line_search(dx):
        """Backtracking search; mirrors the classic accept-anyway tail."""
        step = 1.0
        for _ in range(opts.max_backtrack + 1):
            x_new = x - step * dx
            F_new = residual(x_new)
            fnorm_new = np.linalg.norm(F_new)
            if np.isfinite(fnorm_new) and (
                not opts.damping or fnorm_new < fnorm or fnorm <= opts.abstol
            ):
                return x_new, F_new, fnorm_new, True
            step *= 0.5
        # smallest step, evaluated once more (historical behaviour)
        x_new = x - step * dx
        F_new = residual(x_new)
        fnorm_new = np.linalg.norm(F_new)
        return x_new, F_new, fnorm_new, False

    for it in range(1, opts.maxiter + 1):
        if fnorm <= opts.abstol:
            return _result(x, True, it - 1, fnorm)

        if not use_reuse:
            J = jacobian(x)
            jac_evals += 1
            try:
                dx = _solve_linear(J, F)
            except np.linalg.LinAlgError as exc:
                _fail(f"singular Jacobian at iteration {it}: {exc}", it - 1)
            dx = np.asarray(dx, dtype=float)
            if not np.all(np.isfinite(dx)):
                _fail("Newton update is not finite (singular Jacobian?)", it - 1)
            x_new, F_new, fnorm_new, accepted = _line_search(_limited(dx))
        else:
            used_stale = False
            while True:
                if solver is None:
                    cached = None
                    if cache is not None and not force_fresh:
                        cached = cache.get(cache_key)
                    if cached is not None:
                        solver, solver_stale = cached, True
                    else:
                        solver = _fresh_solver(it)
                        solver_stale = False
                    force_fresh = False
                    age = 0
                used_stale = solver_stale
                dx = np.asarray(solver(F), dtype=float)
                if not np.all(np.isfinite(dx)):
                    if used_stale:
                        # fail closed: poisoned/stale factorization — drop
                        # it and retry with a fresh Jacobian before any
                        # escalation ladder sees a failure
                        if cache is not None:
                            cache.invalidate(cache_key)
                        solver = None
                        stale_refreshes += 1
                        if tr.enabled:
                            tr.event("newton.stale_refresh", iter=it, cause="nonfinite-step")
                        continue
                    _fail("Newton update is not finite (singular Jacobian?)", it - 1)
                x_new, F_new, fnorm_new, accepted = _line_search(_limited(dx))
                if accepted or not used_stale:
                    break
                # fail closed: the stale factorization could not produce a
                # descent step — refresh and redo this iteration
                if cache is not None:
                    cache.invalidate(cache_key)
                solver = None
                stale_refreshes += 1
                if tr.enabled:
                    tr.event("newton.stale_refresh", iter=it, cause="non-descent")

        if not accepted:
            # Accept the smallest step anyway; Newton sometimes needs to
            # climb out of a shallow residual plateau.  But never carry a
            # non-finite residual into the next iteration — that only
            # loops on NaNs until maxiter with no diagnostic.
            if not np.isfinite(fnorm_new):
                _fail(
                    f"residual is not finite after {opts.max_backtrack} "
                    f"backtracks at iteration {it} (last finite ||F|| = "
                    f"{best_norm:.3e})",
                    it,
                )

        if use_reuse:
            if used_stale:
                reuses += 1
            age += 1
            rate_bad = used_stale and fnorm_new > opts.reuse_rate_limit * fnorm
            if age >= reuse_limit or rate_bad:
                solver = None
                force_fresh = True
            else:
                solver_stale = True

        dx_norm = np.linalg.norm(x_new - x)
        x_scale = max(np.linalg.norm(x_new), 1.0)
        if tr.enabled:
            tr.event(
                "newton.iter",
                iter=it,
                rnorm=float(fnorm_new),
                contraction=float(fnorm_new / fnorm) if fnorm > 0 else 0.0,
                stale=bool(use_reuse and used_stale),
            )
        x, F, fnorm = x_new, F_new, fnorm_new
        history.append(fnorm)
        if np.isfinite(fnorm) and fnorm < best_norm:
            best_x, best_norm = x.copy(), fnorm
        if callback is not None:
            callback(it, x, fnorm)

        if fnorm <= opts.abstol or (dx_norm <= opts.reltol * x_scale and fnorm <= 1e3 * opts.abstol):
            return _result(x, True, it, fnorm)

    if fnorm <= opts.abstol * 10:
        return _result(x, True, opts.maxiter, fnorm)
    _fail(
        f"Newton failed to converge in {opts.maxiter} iterations (||F|| = {fnorm:.3e})",
        opts.maxiter,
    )

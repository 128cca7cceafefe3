"""Matrix-free GMRES with optional right preconditioning.

The paper's harmonic-balance and extraction engines both hinge on Krylov
subspace iterative solvers applied to operators that are never formed
explicitly (the HB Jacobian is applied via FFTs; the IES3-compressed
integral operator is applied block-by-block).  This module provides the
single GMRES implementation shared by both.

scipy's gmres would also work, but rolling our own keeps the iteration
count and residual history observable (the benchmarks report them) and
removes any dependence on scipy's changing callback semantics.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

import numpy as np

from ..trace import get_tracer

__all__ = ["GMRESResult", "gmres"]


@dataclasses.dataclass
class GMRESResult:
    """Outcome of a GMRES solve.

    Attributes
    ----------
    x:
        Approximate solution.
    converged:
        True when the relative residual dropped below ``tol``.
    iterations:
        Total inner iterations performed (across restarts).
    residuals:
        Relative residual norm after each inner iteration.
    """

    x: np.ndarray
    converged: bool
    iterations: int
    residuals: list
    # SolveReport attached by the repro.robust recovery layer (e.g.
    # robust_gmres restart escalation); None for bare solves.
    report: object = None

    @property
    def final_residual(self) -> float:
        return self.residuals[-1] if self.residuals else np.inf


def gmres(
    matvec: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    x0: Optional[np.ndarray] = None,
    tol: float = 1e-10,
    restart: int = 60,
    maxiter: int = 2000,
    precond: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> GMRESResult:
    """Solve ``A x = b`` where ``A`` is given only through ``matvec``.

    Parameters
    ----------
    matvec:
        Function applying the (real or complex) operator.
    b:
        Right-hand side vector.
    x0:
        Initial guess.  ``None`` starts from zero, whose residual is
        ``b`` itself, so that start costs no matvec.
    tol:
        Relative residual tolerance ``||b - A x|| <= tol * ||b||``.
    restart:
        Krylov subspace dimension per restart cycle.
    maxiter:
        Cap on total inner iterations.
    precond:
        Right preconditioner: function approximating ``A^{-1} v``.  Right
        preconditioning keeps the monitored residual equal to the true
        residual of the original system.
    """
    tr = get_tracer()
    if not tr.enabled:
        return _gmres_impl(tr, matvec, b, x0, tol, restart, maxiter, precond)
    with tr.span("gmres.solve", n=int(np.asarray(b).shape[0]), restart=restart,
                 maxiter=maxiter, tol=tol):
        res = _gmres_impl(tr, matvec, b, x0, tol, restart, maxiter, precond)
        tr.event(
            "gmres.done",
            converged=res.converged,
            iterations=res.iterations,
            final_rel=float(res.final_residual),
        )
        return res


def _gmres_impl(tr, matvec, b, x0, tol, restart, maxiter, precond):
    b = np.asarray(b)
    n = b.shape[0]
    dtype = np.result_type(b.dtype, np.float64)
    if precond is None:
        precond = lambda v: v  # noqa: E731 - identity preconditioner

    x = np.zeros(n, dtype=dtype) if x0 is None else np.array(x0, dtype=dtype)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return GMRESResult(np.zeros(n, dtype=dtype), True, 0, [0.0])

    residuals: list = []
    total_iters = 0
    cycle = 0

    while total_iters < maxiter:
        cycle += 1
        # no copy of b for the zero start: r is only read, and a fresh
        # array per call costs page faults on the HB grids
        r = b if cycle == 1 and x0 is None else b - matvec(x)
        beta = np.linalg.norm(r)
        if beta / bnorm <= tol:
            residuals.append(beta / bnorm)
            return GMRESResult(x, True, total_iters, residuals)

        m = min(restart, maxiter - total_iters)
        # Krylov basis stored row-major: each vector is one contiguous
        # row, and rows past the last one built are never touched
        Q = np.empty((m + 1, n), dtype=dtype)
        H = np.zeros((m + 1, m), dtype=dtype)
        # Givens rotation coefficients and the rotated RHS of the
        # least-squares problem.
        cs = np.zeros(m, dtype=dtype)
        sn = np.zeros(m, dtype=dtype)
        g = np.zeros(m + 1, dtype=dtype)
        g[0] = beta
        Q[0] = r / beta

        k_used = 0
        for k in range(m):
            # force a copy: matvec may return its input (e.g. identity),
            # and the in-place orthogonalization below must not alias Q
            w = np.array(matvec(precond(Q[k])), dtype=dtype)
            # Modified Gram-Schmidt with one re-orthogonalization pass.
            for j in range(k + 1):
                H[j, k] = np.vdot(Q[j], w)
                w -= H[j, k] * Q[j]
            correction = Q[: k + 1].conj() @ w
            w -= correction @ Q[: k + 1]
            H[: k + 1, k] += correction
            # Capture the subdiagonal norm *before* the Givens rotation
            # below zeroes H[k+1, k]: this is the quantity the happy-
            # breakdown test must see (a tiny value means the Krylov
            # space is exhausted and the projected solve is exact).
            subdiag = float(np.linalg.norm(w))
            H[k + 1, k] = subdiag

            if subdiag > 1e-300:
                Q[k + 1] = w / subdiag

            # Apply accumulated Givens rotations to the new column.
            for j in range(k):
                temp = cs[j] * H[j, k] + sn[j] * H[j + 1, k]
                H[j + 1, k] = -np.conj(sn[j]) * H[j, k] + np.conj(cs[j]) * H[j + 1, k]
                H[j, k] = temp
            denom = np.sqrt(abs(H[k, k]) ** 2 + abs(H[k + 1, k]) ** 2)
            if denom == 0.0:
                cs[k], sn[k] = 1.0, 0.0
            else:
                cs[k] = abs(H[k, k]) / denom if H[k, k] != 0 else 0.0
                if H[k, k] != 0:
                    phase = H[k, k] / abs(H[k, k])
                    cs[k] = abs(H[k, k]) / denom
                    sn[k] = phase * np.conj(H[k + 1, k]) / denom
                else:
                    cs[k], sn[k] = 0.0, 1.0
            temp = cs[k] * g[k] + sn[k] * g[k + 1]
            g[k + 1] = -np.conj(sn[k]) * g[k] + np.conj(cs[k]) * g[k + 1]
            g[k] = temp
            H[k, k] = cs[k] * H[k, k] + sn[k] * H[k + 1, k]
            H[k + 1, k] = 0.0

            total_iters += 1
            k_used = k + 1
            rel = abs(g[k + 1]) / bnorm
            residuals.append(rel)
            # Happy breakdown: the captured subdiagonal (not H[k+1, k],
            # which the rotation above has already zeroed) detects an
            # exhausted Krylov space; the least-squares solution is then
            # exact over that space, so continuing the cycle would only
            # orthogonalize against a zero vector.
            if rel <= tol or subdiag <= 1e-300:
                break

        # Back-substitute the triangular least-squares system.
        y = np.zeros(k_used, dtype=dtype)
        for i in range(k_used - 1, -1, -1):
            y[i] = (g[i] - H[i, i + 1 : k_used] @ y[i + 1 : k_used]) / H[i, i]
        x = x + precond(y @ Q[:k_used])

        if tr.enabled:
            tr.event(
                "gmres.cycle",
                cycle=cycle,
                iters=k_used,
                total_iters=total_iters,
                rel=float(abs(residuals[-1])),
            )

        if residuals[-1] <= tol:
            # Re-check with a true residual to guard against drift in the
            # recurrence-based estimate.
            true_rel = np.linalg.norm(b - matvec(x)) / bnorm
            residuals[-1] = true_rel
            if true_rel <= tol * 10:
                return GMRESResult(x, True, total_iters, residuals)

    # Restart budget exhausted.  The Arnoldi-recurrence estimate in
    # ``residuals[-1]`` can drift arbitrarily far from the true residual
    # (inexact matvecs, loss of orthogonality mid-cycle), so the verdict
    # must come from the same ``||b - Ax|| / ||b||`` recheck the in-loop
    # exit performs — otherwise an exhausted solve can claim convergence
    # the true residual contradicts.
    claimed = bool(residuals) and residuals[-1] <= tol
    true_rel = float(np.linalg.norm(b - matvec(x)) / bnorm)
    if residuals:
        residuals[-1] = true_rel
    else:
        residuals.append(true_rel)
    converged = true_rel <= (tol * 10 if claimed else tol)
    return GMRESResult(x, converged, total_iters, residuals)

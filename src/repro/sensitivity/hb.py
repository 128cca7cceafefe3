"""Harmonic-balance / MPDE parameter sensitivities.

The converged steady state satisfies ``R(x) = D q(x) + f(x) - B = 0``
on the multi-time grid (``D`` the spectral derivative operator), so per
parameter

    ∂R/∂p = D ∂q/∂p + ∂f/∂p - ∂B/∂p,
    J s = -∂R/∂p              (direct),
    Jᵀ λ = ∂φ/∂x,  dφ/dp = -λᵀ ∂R/∂p   (adjoint),

with ``J = D C_big + G_big`` the HB Jacobian the Newton engine already
builds.  Two linear-solver routes, mirroring the solve itself:

* **assembled** — the sparse direct Jacobian from
  :class:`~repro.mpde.mpde_core._MPDEProblem`, factored once; the
  adjoint reuses the same LU with a transpose solve.
* **matrix-free** — ``Jᵀ w = C_bigᵀ (Dᵀ w) + G_bigᵀ w`` with ``Dᵀ``
  applied by :meth:`~repro.mpde.grid.MPDEGrid.apply_derivative_adjoint`
  (conjugated circulant eigenvalues), solved by GMRES under the
  conjugate-transposed averaged-circuit preconditioner.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import scipy.sparse.linalg as spla

from repro.mpde.mpde_core import MPDEOptions, _MPDEProblem
from repro.netlist.mna import MNASystem
from repro.robust import robust_gmres
from repro.sensitivity.assemble import dbdp_grid, param_residual_derivs
from repro.sensitivity.dc import SensitivityResult, _check_method
from repro.sensitivity.objectives import resolve_grid_objective
from repro.sensitivity.params import ParamSet

__all__ = ["hb_sensitivity"]

_SOLVERS = ("auto", "direct", "gmres")


def hb_sensitivity(
    system: MNASystem,
    solution,
    params: Sequence,
    objective,
    method: str = "adjoint",
    solver: str = "auto",
    direct_cutoff: int = 40_000,
    gmres_tol: float = 1e-10,
    gmres_restart: int = 80,
    gmres_maxiter: int = 2000,
) -> SensitivityResult:
    """Sensitivities of a converged HB/MPDE steady state.

    Parameters
    ----------
    solution:
        :class:`~repro.hb.hb_core.HBResult` or
        :class:`~repro.mpde.mpde_core.MPDESolution` (anything exposing
        ``grid`` and the flat state ``x``).
    objective:
        Grid objective with ``value(x, grid, system)`` and
        ``grad(x, grid, system)`` — e.g.
        :class:`~repro.sensitivity.objectives.HarmonicAmplitude`.
    solver:
        ``"direct"`` assembles and factors the sparse HB Jacobian;
        ``"gmres"`` stays matrix-free (FFT-applied ``Jᵀ``/``J`` with the
        averaged-circuit preconditioner); ``"auto"`` picks by problem
        size against ``direct_cutoff``.
    """
    method = _check_method(method)
    if solver not in _SOLVERS:
        raise ValueError(f"solver must be one of {_SOLVERS}, got {solver!r}")
    ps = ParamSet(system, params)
    grid = solution.grid
    x = np.asarray(solution.x, dtype=float)
    n, m = system.n, grid.total
    obj = resolve_grid_objective(objective, system)
    g = np.asarray(obj.grad(x, grid, system), dtype=float)
    value = float(obj.value(x, grid, system))

    prob = _MPDEProblem(system, grid, None, MPDEOptions())
    cols = grid.columns(x, n)
    G_big, C_big, g_vals, c_vals = prob.batch_matrices(x)

    # ∂R/∂p columns, flat sample-major like the state itself
    rhs = np.empty((n * m, len(ps)))
    for j, bp in enumerate(ps.bound):
        dfdp, dqdp = param_residual_derivs(system, cols, bp)
        Q = dqdp.T.reshape(grid.shape + (n,))
        dQ = grid.apply_derivative(Q).reshape(m, n)
        dB = dbdp_grid(system, grid, bp)
        rhs[:, j] = (dQ + dfdp.T - dB).reshape(-1)

    if solver == "auto":
        solver = "direct" if n * m <= direct_cutoff else "gmres"

    if solver == "direct":
        lu = spla.splu(prob.direct_jacobian(G_big, C_big))
        if method == "direct":
            S = -lu.solve(rhs)
            return SensitivityResult(
                params=ps.names, x=x, method=method,
                gradient=g @ S, sensitivities=S, value=value,
            )
        lam = lu.solve(g, trans="T")
        return SensitivityResult(
            params=ps.names, x=x, method=method,
            gradient=-(lam @ rhs), value=value,
        )

    # matrix-free route
    def solve_one(mv, pc, b):
        res = robust_gmres(
            mv, b, tol=gmres_tol, restart=gmres_restart, maxiter=gmres_maxiter,
            precond=pc, on_failure="raise", dense_max_n=0,
        )
        return res.x

    if method == "direct":
        mv = prob.matvec(G_big, C_big)
        pc = prob.averaged_preconditioner(g_vals, c_vals)
        S = np.column_stack([-solve_one(mv, pc, rhs[:, j]) for j in range(len(ps))])
        return SensitivityResult(
            params=ps.names, x=x, method=method,
            gradient=g @ S, sensitivities=S, value=value,
        )

    G_bigT = G_big.T.tocsr()
    C_bigT = C_big.T.tocsr()

    def matvec_T(w):
        W = prob.grid.reshape(np.asarray(w, dtype=float), n)
        dw = grid.apply_derivative_adjoint(W).reshape(-1)
        return C_bigT @ dw + G_bigT @ w

    pc_T = prob.averaged_preconditioner(g_vals, c_vals, adjoint=True)
    lam = solve_one(matvec_T, pc_T, g)
    return SensitivityResult(
        params=ps.names, x=x, method=method,
        gradient=-(lam @ rhs), value=value,
    )

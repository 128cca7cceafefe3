"""System-level assembly of parameter derivatives.

Bridges the per-device protocol (``Device.g_stamp_derivs`` /
``c_stamp_derivs`` / ``b_stamp_derivs`` / ``nl_dfdp``) to the vectors
the sensitivity solvers consume:

* ``param_residual_derivs(system, X, bp)`` — ``(∂f/∂p, ∂q/∂p)`` columns
  at fixed states, batched over samples: both of shape ``(n, m)`` for
  ``X`` of shape ``(n, m)``.
* ``dbdp_dc`` / ``dbdp_at`` / ``dbdp_grid`` — the excitation derivative
  ``∂b/∂p`` as a DC vector, over a time array, or over an MPDE/HB grid
  (via :meth:`~repro.mpde.grid.MPDEGrid.excitation` on a shim carrying
  only the derivative waveforms).
"""

from __future__ import annotations

import numpy as np

from repro.netlist.mna import MNASystem
from repro.sensitivity.params import BoundParam

__all__ = [
    "param_residual_derivs",
    "dbdp_dc",
    "dbdp_at",
    "dbdp_grid",
]


def param_residual_derivs(system: MNASystem, X: np.ndarray, bp: BoundParam):
    """``(∂f/∂p, ∂q/∂p)`` at fixed states ``X`` (n,) or (n, m).

    Linear-stamp derivatives multiply the state columns; nonlinear
    devices contribute their exact (or finite-difference fallback)
    ``nl_dfdp`` scattered onto the KCL rows.  Ground rows/columns are
    dropped, mirroring the MNA stamping rules.
    """
    X2d = np.asarray(X, dtype=float)
    squeeze = X2d.ndim == 1
    if squeeze:
        X2d = X2d[:, None]
    n, m = X2d.shape
    if n != system.n:
        raise ValueError(f"state has {n} rows, system has {system.n} unknowns")
    dfdp = np.zeros((n, m))
    dqdp = np.zeros((n, m))
    dev = bp.device
    for i, j, dv in dev.g_stamp_derivs(bp.name):
        if i >= 0 and j >= 0:
            dfdp[i] += dv * X2d[j]
    for i, j, dv in dev.c_stamp_derivs(bp.name):
        if i >= 0 and j >= 0:
            dqdp[i] += dv * X2d[j]
    if dev.nonlinear:
        var_idx, eq_idx = dev.nl_ports()
        var_idx = np.asarray(var_idx)
        V = np.where((var_idx >= 0)[:, None], X2d[var_idx], 0.0)  # ground reads 0
        df, dq = dev.nl_dfdp(V, bp.name)
        for k, row in enumerate(np.asarray(eq_idx)):
            if row >= 0:
                dfdp[row] += df[k]
                dqdp[row] += dq[k]
    if squeeze:
        return dfdp[:, 0], dqdp[:, 0]
    return dfdp, dqdp


def _b_derivs(bp: BoundParam):
    """Non-ground (row, waveform, sign) triples of ``∂b/∂p``."""
    return [
        (row, wave, sign)
        for row, wave, sign in bp.device.b_stamp_derivs(bp.name)
        if row >= 0
    ]


def dbdp_dc(system: MNASystem, bp: BoundParam) -> np.ndarray:
    """``∂b_dc/∂p`` as a length-n vector."""
    out = np.zeros(system.n)
    for row, wave, sign in _b_derivs(bp):
        out[row] += sign * wave.dc
    return out


def dbdp_at(system: MNASystem, bp: BoundParam, t: np.ndarray) -> np.ndarray:
    """``∂b(t)/∂p`` over a time array; returns ``(n, len(t))``."""
    t2 = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.zeros((system.n, t2.shape[0]))
    for row, wave, sign in _b_derivs(bp):
        out[row] += sign * wave(t2)
    return out


class _ExcitationShim:
    """Minimal stand-in for MNASystem inside ``MPDEGrid.excitation``.

    Carries only the derivative-waveform rows, so the grid machinery
    samples ``∂b/∂p`` exactly the way it samples ``b`` itself.
    """

    __slots__ = ("n", "_b_rows", "_b_waves", "_b_signs")

    def __init__(self, n: int, rows, waves, signs):
        self.n = n
        self._b_rows = np.asarray(rows, dtype=int)
        self._b_waves = list(waves)
        self._b_signs = np.asarray(signs, dtype=float)


def dbdp_grid(system: MNASystem, grid, bp: BoundParam) -> np.ndarray:
    """``∂B/∂p`` sampled over an MPDE/HB grid; returns ``(total, n)``."""
    derivs = _b_derivs(bp)
    if not derivs:
        return np.zeros((grid.total, system.n))
    rows = [row for row, _, _ in derivs]
    waves = [wave for _, wave, _ in derivs]
    signs = [sign for _, _, sign in derivs]
    return grid.excitation(_ExcitationShim(system.n, rows, waves, signs))

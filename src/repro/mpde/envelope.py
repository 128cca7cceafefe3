"""Time-domain envelope following (TD-ENV), paper sec. 2.2 (3).

Applies *mixed* boundary conditions to the MPDE: periodic along the fast
axis, an initial condition along the slow axis.  The fast axis is
semi-discretized (FD or spectral, both circulant), turning the MPDE into
a DAE in the slow time for the vector of fast-axis samples,

    (1/h1) [Q(Y_m) - Q(Y_{m-1})]  +  D2 Q(Y_m)  +  F(Y_m)  =  B(tau_m, .),

integrated with backward Euler.  The result is the *envelope*: how the
fast-periodic waveform (amplitude, harmonics) evolves over slow time —
turn-on transients, AM modulation, PLL settling — without ever stepping
through individual fast cycles.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np
import scipy.sparse as sp

from repro.analysis.dc import dc_analysis
from repro.linalg import NewtonOptions, newton_solve
from repro.mpde.grid import Axis, MPDEGrid
from repro.mpde.mpde_core import _BlockDiagPattern, _circulant_matrix
from repro.netlist.mna import MNASystem

__all__ = ["FastPeriodicSystem", "EnvelopeResult", "envelope_analysis"]


class FastPeriodicSystem:
    """The circuit semi-discretized along a periodic fast axis.

    State ``Y`` stacks the fast-axis samples sample-major
    (``Y[s*n + i]``).  Provides the terms of the slow-time DAE

        d QY(Y)/dtau + FY(Y) = BY(tau)

    where ``FY`` already folds in the fast-axis derivative ``D2 Q``.
    Shared by the envelope integrator and hierarchical shooting.
    """

    def __init__(self, system: MNASystem, fast_axis: Axis):
        if not fast_axis.periodic:
            raise ValueError("fast axis must be periodic")
        self.system = system
        self.axis = fast_axis
        self.grid = MPDEGrid([fast_axis])
        self.n = system.n
        self.ns = fast_axis.size
        self.N = self.n * self.ns
        self.blocks = _BlockDiagPattern(system.jacobian_pattern(), self.n, self.ns)
        D2 = _circulant_matrix(fast_axis.deriv_eigenvalues())
        self.D2_big = sp.kron(D2, sp.identity(self.n)).tocsr()

    def columns(self, Y: np.ndarray) -> np.ndarray:
        return Y.reshape(self.ns, self.n).T

    def QY(self, Y: np.ndarray) -> np.ndarray:
        q = self.system.q(self.columns(Y))
        return q.T.reshape(-1)

    def FY(self, Y: np.ndarray) -> np.ndarray:
        cols = self.columns(Y)
        f, q = self.system.batch_fq(cols)
        return f.T.reshape(-1) + self.D2_big @ q.T.reshape(-1)

    def BY(self, tau: float) -> np.ndarray:
        return self.grid.excitation(self.system, transient_time=tau).reshape(-1)

    def jacobians(self, Y: np.ndarray):
        """(CY, GY) sparse Jacobians of QY and FY."""
        cols = self.columns(Y)
        g_vals, c_vals = self.system.batch_jacobians(cols)
        G_big = self.blocks.matrix(g_vals)
        C_big = self.blocks.matrix(c_vals)
        return C_big, (G_big + self.D2_big @ C_big)

    def periodic_solution(self, tau: float, x_dc: Optional[np.ndarray] = None) -> np.ndarray:
        """Fast-periodic steady state with slow sources frozen at ``tau``."""
        Y = np.tile(x_dc if x_dc is not None else dc_analysis(self.system).x, self.ns)
        B = self.BY(tau)

        def residual(Yv):
            return self.FY(Yv) - B

        def jacobian(Yv):
            _, GY = self.jacobians(Yv)
            return GY.tocsc()

        res = newton_solve(
            residual, jacobian, Y, NewtonOptions(abstol=1e-9, maxiter=80, dx_limit=2.0)
        )
        return res.x


@dataclasses.dataclass
class EnvelopeResult:
    """Envelope trajectory: fast-periodic waveforms vs slow time.

    ``Y[m]`` holds the fast-axis samples (ns, n) at slow time ``tau[m]``.
    """

    system: MNASystem
    axis: Axis
    tau: np.ndarray
    Y: np.ndarray
    newton_iterations: int

    def fast_waveform(self, node, m: int) -> np.ndarray:
        idx = self.system.node(node) if isinstance(node, str) else int(node)
        return self.Y[m, :, idx]

    def harmonic_envelope(self, node, k: int = 1) -> np.ndarray:
        """One-sided amplitude of fast harmonic k vs slow time.

        This is the 'envelope' a designer watches: carrier amplitude for
        k=1, DC drift for k=0.
        """
        idx = self.system.node(node) if isinstance(node, str) else int(node)
        spec = np.fft.fft(self.Y[:, :, idx], axis=1) / self.axis.size
        mag = np.abs(spec[:, k % self.axis.size])
        return mag if k == 0 else 2.0 * mag


def envelope_analysis(
    system: MNASystem,
    fast_freq: float,
    t_stop: float,
    dt: float,
    fast_steps: int = 32,
    fast_kind: str = "fourier",
    initial: str = "periodic",
    newton_opts: Optional[NewtonOptions] = None,
) -> EnvelopeResult:
    """Envelope-following transient.

    Parameters
    ----------
    fast_freq:
        Fundamental of the fast (carrier/LO) axis.
    t_stop, dt:
        Slow-time horizon and (fixed) slow step — typically thousands of
        fast periods long, the whole point of the method.
    initial:
        ``"periodic"`` starts from the fast-PSS with slow sources frozen
        at t=0; ``"dc"`` starts from the DC point replicated along the
        fast axis (models a cold start).
    """
    axis = Axis(fast_kind, fast_freq, fast_steps)
    fps = FastPeriodicSystem(system, axis)
    x_dc = dc_analysis(system).x
    if initial == "periodic":
        Y = fps.periodic_solution(0.0, x_dc)
    elif initial == "dc":
        Y = np.tile(x_dc, fast_steps)
    else:
        raise ValueError("initial must be 'periodic' or 'dc'")

    opts = newton_opts or NewtonOptions(abstol=1e-8, maxiter=60, dx_limit=2.0)
    taus = [0.0]
    states = [Y.copy()]
    total_newton = 0
    tau = 0.0
    while tau < t_stop - 1e-15 * max(1.0, t_stop):
        h = min(dt, t_stop - tau)
        tau_next = tau + h
        Q_prev = fps.QY(Y)
        B = fps.BY(tau_next)

        def residual(Yv):
            return (fps.QY(Yv) - Q_prev) / h + fps.FY(Yv) - B

        def jacobian(Yv):
            CY, GY = fps.jacobians(Yv)
            return (CY / h + GY).tocsc()

        res = newton_solve(residual, jacobian, Y, opts)
        Y = res.x
        total_newton += res.iterations
        tau = tau_next
        taus.append(tau)
        states.append(Y.copy())

    Yarr = np.array(states).reshape(len(states), fast_steps, system.n)
    return EnvelopeResult(
        system=system, axis=axis, tau=np.array(taus), Y=Yarr, newton_iterations=total_newton
    )

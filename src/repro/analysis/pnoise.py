"""Periodic (cyclostationary) noise analysis around a periodic steady state.

Paper sec. 1: "Noise sources and signals in RF circuits are modulated by
time-varying signals and can only be modeled by cyclo-stationary and
nonstationary stochastic processes."  Stationary noise analysis around a
DC point misses two effects the paper cares about: *noise folding* (the
LPTV circuit mixes noise from every sideband f + k f0 down to f) and
*bias modulation* of shot/channel noise along the large-signal orbit.

Formulation (the classical frequency-domain "pnoise"): linearize the
circuit about its periodic steady state x_s(t), giving the LPTV system

    C(t) dw/dt + G(t) w = u(t),      C(t) = dq/dx|_{x_s(t)}, etc.

In the HB sample basis, the response to an input at envelope frequency
``nu`` is governed by the *offset Jacobian*

    A(nu) = D_{nu} C_blocks + G_blocks,

where ``D_nu`` is the spectral-derivative circulant with eigenvalues
``lambda_k + j 2 pi nu``.  One transposed solve per analysis frequency,

    A(nu)^T z = (1/N) e_out  (replicated over the samples),

yields the sampled harmonic-weighted transfer H(t_i, nu) = N z_i^T u_s,
and the time-averaged output PSD including all folding terms is

    S_out(f) = N * sum_s sum_i |z_i^T u_s|^2  psd_s(t_i),

with ``psd_s(t_i)`` the (bias-modulated, one-sided) white PSD of source
``s`` evaluated along the orbit.  In the time-invariant limit this
collapses exactly to :func:`repro.analysis.noise.noise_analysis`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.netlist.mna import MNASystem

__all__ = ["PNoiseResult", "periodic_noise_analysis"]


@dataclasses.dataclass
class PNoiseResult:
    """Cyclostationary output noise over the analysis frequencies.

    ``psd`` is the time-averaged one-sided output voltage noise density
    (V^2/Hz); ``contributions`` maps source names to their share;
    ``stationary_psd`` is what a (wrong, for switching circuits) DC-point
    analysis would have predicted, kept for the folding comparison.
    """

    freqs: np.ndarray
    psd: np.ndarray
    contributions: Dict[str, np.ndarray]

    def spot_noise_volts(self, k: int = 0) -> float:
        return float(np.sqrt(self.psd[k]))


def periodic_noise_analysis(
    solution,
    output_node,
    freqs: Sequence[float],
    harmonic: int = 0,
) -> PNoiseResult:
    """Output noise of a periodically driven circuit (one-tone PSS).

    Parameters
    ----------
    solution:
        A converged single-axis (one-tone) :class:`MPDESolution` — e.g.
        ``harmonic_balance(...).solution`` — whose grid supplies both the
        sampled orbit and the spectral differentiation.
    output_node:
        Node name (or unknown index) observed.
    freqs:
        Analysis frequencies (the envelope offset; typically below the
        large-signal fundamental).
    harmonic:
        Observe the noise sidebands around ``harmonic * f0 + freq``
        instead of baseband: ``harmonic=1`` gives the noise skirt riding
        on the carrier (what a spectrum analyzer shows next to the LO),
        ``harmonic=0`` the demodulated/baseband noise.
    """
    # imported here: repro.mpde imports repro.analysis.dc, so a module-level
    # import would be circular
    from repro.mpde.mpde_core import _BlockDiagPattern, _circulant_matrix

    system: MNASystem = solution.system
    grid = solution.grid
    if grid.ndim != 1:
        raise ValueError("periodic noise analysis expects a one-tone (single-axis) PSS")
    n = system.n
    N = grid.total

    X = grid.columns(solution.x, n)  # (n, N) orbit samples
    g_vals, c_vals = system.batch_jacobians(X)
    blocks = _BlockDiagPattern(system.jacobian_pattern(), n, N)
    G_big = blocks.matrix(g_vals)
    C_big = blocks.matrix(c_vals)

    lam = grid.axes[0].deriv_eigenvalues()

    out_idx = system.node(output_node) if isinstance(output_node, str) else int(output_node)
    b_adj = np.zeros(n * N, dtype=complex)
    # select the observed output harmonic: Y_k = (1/N) sum_i w_i e^{-j2pi k i/N}
    phase = np.exp(-2j * np.pi * harmonic * np.arange(N) / N)
    b_adj[out_idx::n] = phase / N

    injections = system.noise_injection_vectors()
    # bias-modulated one-sided PSDs along the orbit, shape (N,) per source
    psd_samples = [src.psd_at(X) for src, _ in injections]

    freqs = np.asarray(list(freqs), dtype=float)
    total = np.zeros(freqs.size)
    contributions: Dict[str, np.ndarray] = {
        src.name: np.zeros(freqs.size) for src, _ in injections
    }

    for kf, f0 in enumerate(freqs):
        eigs = lam + 2j * np.pi * f0
        D = _circulant_matrix(eigs)
        D_big = sp.kron(D, sp.identity(n))
        A = (D_big @ C_big + G_big).tocsc()
        z = spla.spsolve(A.T, b_adj)
        Z = z.reshape(N, n)
        for (src, u), s_vals in zip(injections, psd_samples):
            transfer = Z @ u  # z_i^T u per sample
            contrib = float(N * np.sum(np.abs(transfer) ** 2 * s_vals))
            contributions[src.name][kf] += contrib
            total[kf] += contrib

    return PNoiseResult(freqs=freqs, psd=total, contributions=contributions)

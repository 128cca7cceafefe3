"""Core solver for the multi-rate partial differential equation (MPDE).

Solves the bi-/multi-variate steady-state problem of paper eq. (4),

    sum_a  d q(x_hat)/dt_a  +  f(x_hat)  =  b_hat(t_1, ..., t_d),

with periodic boundary conditions along every axis, discretized on an
:class:`~repro.mpde.grid.MPDEGrid`.  Depending on the per-axis
discretization this *is* harmonic balance (all-Fourier), MFDTD (all-FD),
or MMFT (Fourier slow axis, FD fast axis) — one Newton engine serves the
whole family, which is the punchline of the paper's sec. 2.2.

Two linear-solver strategies (also the subject of an ablation bench):

* ``direct`` — assemble the sparse Jacobian
  ``J = D_big @ C_big + G_big`` and factor it.  Cheap for FD axes (banded
  circulants) and small spectral grids.
* ``gmres`` — matrix-free application of ``J`` via FFT differentiation,
  preconditioned by the *time-averaged* circuit ``(lambda_k C_avg +
  G_avg)^{-1}`` applied frequency-by-frequency.  This is the iterative
  linear algebra that made full-chip HB feasible (paper sec. 2.1,
  refs [10, 31]).
"""

from __future__ import annotations

import dataclasses
import time
from typing import List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.analysis.dc import _dc_solve
from repro.linalg import ConvergenceError, attach_failure_payload
from repro.mpde.grid import Axis, MPDEGrid
from repro.netlist.mna import MNASystem
from repro.perf import PerfCounters
from repro.robust import (
    EscalationPolicy,
    RungOutcome,
    SolveReport,
    robust_gmres,
    run_ladder,
)
from repro.robust.diagnostics import ValidationReport, enforce
from repro.robust.validate import preflight
from repro.trace import get_tracer, spanned, traceable

__all__ = [
    "MPDEOptions",
    "MPDESolution",
    "FrequencyDomainBlock",
    "solve_mpde",
    "MPDE_LADDER",
]

#: Escalation rungs of the MPDE/HB solver, in order: one full-strength
#: solve, then homotopy on the AC excitation, then solve on a coarser
#: harmonic grid and spectrally prolong the result as the initial guess.
MPDE_LADDER = ("direct", "source-ramp", "harmonic-continuation")


@dataclasses.dataclass
class FrequencyDomainBlock:
    """A linear multiport described only by a frequency-domain admittance.

    This is the Section 5 co-simulation hook: field-solver or ROM models
    often exist only as ``Y(omega)``, and *only* spectral (HB-type) axes
    can absorb them naturally.  ``ports`` are global unknown indices;
    ``admittance(omega)`` returns the (p, p) complex admittance at the
    physical angular frequency ``omega`` (vectorized over an array of
    omegas to shape (m, p, p)).
    """

    ports: np.ndarray
    admittance: object

    def __post_init__(self):
        self.ports = np.asarray(self.ports, dtype=int)
        if np.any(self.ports < 0):
            raise ValueError("frequency-domain block ports must be non-ground")


@dataclasses.dataclass
class MPDEOptions:
    solver: str = "auto"  # "auto" | "direct" | "gmres"
    abstol: float = 1e-9
    maxiter: int = 60
    gmres_tol: float = 1e-10
    gmres_restart: int = 80
    gmres_maxiter: int = 1000
    # below this many unknowns "auto" picks the sparse direct solver even
    # for spectral axes: assembling the (dense-in-harmonics) Jacobian is
    # cheaper than iterating when the whole problem is small
    direct_cutoff: int = 6000
    ramp_steps: int = 0  # >0 forces source ramping with that many steps
    verbose: bool = False
    # escalation control (repro.robust): which MPDE_LADDER rungs run and
    # what happens when they are all exhausted
    policy: Optional[EscalationPolicy] = None
    on_failure: str = "raise"  # "raise" | "warn" | "best_effort"
    # when stalled GMRES leaves a problem this small (unknowns), fall
    # back to the assembled sparse direct Jacobian inside the Newton step
    direct_fallback_max: int = 40000
    # harmonic-continuation stops coarsening at this many samples/axis
    coarsen_floor: int = 8
    # modified-Newton reuse (repro.perf): hold the direct-solver LU (or
    # the averaged-circuit preconditioner on the GMRES path) across
    # Newton iterations instead of refactoring every time.  The residual
    # stays exact, so converged answers are unchanged; stale factors
    # fail closed (refresh + retry) before the escalation ladder sees a
    # failure.  reuse_limit caps consecutive stale iterations; after a
    # stale-served step the factor is also dropped when the contraction
    # rate degrades past reuse_rate_limit.
    reuse_factorization: bool = True
    reuse_limit: int = 5
    reuse_rate_limit: float = 0.5


@dataclasses.dataclass
class MPDESolution:
    """Converged multivariate steady state.

    ``x`` is the flat sample-major solution; use the accessors for
    grid-shaped waveforms, spectra, and univariate reconstruction.
    """

    system: MNASystem
    grid: MPDEGrid
    x: np.ndarray
    newton_iterations: int
    gmres_iterations: int
    solver: str
    residual_norm: float
    wall_time: float
    converged: bool = True
    report: Optional[SolveReport] = None
    validation: Optional["ValidationReport"] = None

    def grid_waveform(self, node) -> np.ndarray:
        """Samples of one unknown over the grid, shape (N1, ..., Nd)."""
        idx = self.system.node(node) if isinstance(node, str) else int(node)
        return self.grid.reshape(self.x, self.system.n)[..., idx]

    def grid_all(self) -> np.ndarray:
        return self.grid.reshape(self.x, self.system.n)

    def harmonics(self, node) -> np.ndarray:
        """Complex Fourier coefficients over the grid (fftn order, normalized).

        ``H[k1, k2]`` multiplies ``exp(2 pi i (k1 f1 + k2 f2) t)`` in the
        univariate reconstruction.
        """
        W = self.grid_waveform(node)
        return np.fft.fftn(W) / self.grid.total

    def amplitude(self, node, index: Tuple[int, ...]) -> float:
        """|peak| amplitude of the tone at harmonic multi-index ``index``.

        For a real signal the tone at +k and -k combine; the returned
        value is the physical (one-sided) amplitude ``2 |X_k|`` except at
        DC.
        """
        H = self.harmonics(node)
        idx = tuple(int(k) % self.grid.shape[a] for a, k in enumerate(index))
        mag = abs(H[idx])
        if all(k == 0 for k in index):
            return mag
        return 2.0 * mag

    def spectrum(self, node) -> List[Tuple[float, float]]:
        """(frequency_hz, one-sided peak amplitude) sorted by frequency.

        Conjugate bins at +-f merge, so a pure tone ``A sin(2 pi f t)``
        reports amplitude ``A`` at ``f``.
        """
        H = self.harmonics(node)
        f_phys = 0.0
        for a, ax in enumerate(self.grid.axes):
            k = np.fft.fftfreq(ax.size, d=1.0 / ax.size)
            shape = [1] * H.ndim
            shape[a] = ax.size
            f_phys = f_phys + k.reshape(shape) * ax.freq
        keys, bins = np.unique(np.abs(np.round(f_phys, 6)), return_inverse=True)
        amps = np.bincount(bins.ravel(), weights=np.abs(H).ravel(), minlength=keys.size)
        return list(zip(keys, amps))

    def univariate(self, t: np.ndarray) -> np.ndarray:
        """Reconstruct x(t) = x_hat(t, ..., t); returns (len(t), n)."""
        return self.grid.interpolate_diagonal(self.grid_all(), np.asarray(t))


class _BlockDiagPattern:
    """Block-diagonal CSR structure over ``m`` samples, compiled once.

    ``pattern`` is the per-sample COO ``(rows, cols)`` of
    :meth:`~repro.netlist.mna.MNASystem.jacobian_pattern`, which repeats
    ``(row, col)`` pairs (a linear stamp and a device block on the same
    entry).  The compiled form keeps the canonical CSR ``indptr`` and
    ``indices`` of the ``(n m, n m)`` block diagonal plus the map from
    entries to slots, so :meth:`matrix` only fills ``data``.  Repeated
    entries are summed in the order scipy's COO -> CSR conversion sums
    them, so the matrix is bit-identical to that build.
    """

    def __init__(self, pattern, n: int, m: int):
        rows, cols = (np.asarray(a, dtype=np.int64) for a in pattern)
        self.n, self.m = n, m
        # scipy sums a slot's entries in the order its CSR index sort
        # leaves them (std::sort: stable up to 16 entries a row, not
        # beyond).  The sort compares columns only, so sorting the entry
        # numbers as data yields that order exactly.
        by_row = np.argsort(rows, kind="stable")
        probe = sp.csr_matrix(
            (by_row.astype(float), cols[by_row], np.searchsorted(rows[by_row], np.arange(n + 1))),
            shape=(n, n),
        )
        probe.sort_indices()
        entry = probe.data.astype(np.int64)
        key = rows[entry] * n + cols[entry]
        start = np.flatnonzero(np.diff(key, prepend=-1))
        self.keys = key[start]
        nslot = start.size
        slot = np.repeat(np.arange(nslot), np.diff(np.r_[start, key.size]))
        rank = np.arange(key.size) - start[slot]
        self._first = entry[start]
        self._dups = [
            (slot[rank == r], entry[rank == r]) for r in range(1, rank.max(initial=0) + 1)
        ]
        rows_u, cols_u = np.divmod(self.keys, n)
        indptr = np.searchsorted(rows_u, np.arange(n + 1))
        offs = np.arange(m)[:, None]
        idx = np.int32 if max(n, nslot) * m < 2**31 else np.int64
        self.indptr = np.append((indptr[:-1] + nslot * offs).ravel(), nslot * m).astype(idx)
        self.indices = (cols_u + n * offs).ravel().astype(idx)
        # shared by every matrix this pattern fills
        self.indptr.flags.writeable = False
        self.indices.flags.writeable = False

    def fill(self, vals: np.ndarray) -> np.ndarray:
        """Slot values from entry values: ``(nnz, ...)`` -> ``(nslot, ...)``."""
        data = vals[self._first]
        for slots, entries in self._dups:
            data[slots] += vals[entries]
        return data

    def matrix(self, vals: np.ndarray) -> sp.csr_matrix:
        """Block diagonal from per-sample entry values ``(nnz, m)``."""
        N = self.n * self.m
        M = sp.csr_matrix((self.fill(vals).T.ravel(), self.indices, self.indptr), shape=(N, N))
        M.has_canonical_format = True
        return M

    def dense(self, vals: np.ndarray) -> np.ndarray:
        """One dense ``(n, n)`` block from entry values ``(nnz,)``."""
        out = np.zeros(self.n * self.n, dtype=vals.dtype)
        out[self.keys] = self.fill(vals)
        return out.reshape(self.n, self.n)


def _block_pattern(system, m: int) -> _BlockDiagPattern:
    """The system's block pattern over ``m`` samples, compiled once per
    (Jacobian pattern, ``m``).

    The system hands out one pattern tuple until a restamp moves stamp
    coordinates (:meth:`~repro.netlist.mna.MNASystem.jacobian_pattern`),
    so the cache is keyed on that tuple's identity.  It is replaced as
    one tuple, so concurrent solves on one system (thread-backend
    ``hb_sweep``) never see it half built; the compiled pattern itself
    is read-only.
    """
    pattern = system.jacobian_pattern()
    cached = getattr(system, "_mpde_blocks", None)
    if cached is not None and cached[0] is pattern and cached[1] == m:
        return cached[2]
    blocks = _BlockDiagPattern(pattern, system.n, m)
    system._mpde_blocks = (pattern, m, blocks)
    return blocks


#: Largest probe reading ``max_k ||A_k y_k - z_k|| / ||z_k||`` at which
#: the pencil form of the averaged-circuit preconditioner is used; above
#: it the build falls back to the stacked inverse.  The reading is a
#: relative residual, so it grows with the conditioning of the blocks as
#: well as with that of the eigenbasis ``V``: ~2e-15 on the Figure 1
#: modulator, a few 1e-14 on other well-conditioned pencils, 1e-12 to
#: 1e-10 once ``cond(G_avg)`` reaches 1e3 to 1e6, and 4e-8 at 1e8 (where
#: the pencil's output drifts 8e-10 from per-block LU).  1e-11 lies a
#: decade from the nearest of these readings on either side.
PENCIL_PROBE_TOL = 1e-11


class _AveragedPreconditioner:
    """``F^-1 diag(A_k^-1) F`` over the ``rfftn`` half-spectrum.

    ``solve_half`` maps the half-spectrum rows ``(m_half, n)`` to the
    block solves; ``path`` names how it was built (``"pencil"`` or
    ``"stacked"``) and ``backward_error`` is the pencil probe's reading
    (None when the pencil was not tried).
    """

    def __init__(self, grid, n, solve_half, path, backward_error=None):
        self.grid, self.n = grid, n
        self.solve_half = solve_half
        self.path = path
        self.backward_error = backward_error
        self._axes = tuple(range(grid.ndim))
        self._half = grid.shape[:-1] + (grid.shape[-1] // 2 + 1, n)

    def __call__(self, v):
        V = self.grid.reshape(np.asarray(v, dtype=float), self.n)
        spec = np.fft.rfftn(V, axes=self._axes).reshape(-1, self.n)
        spec = self.solve_half(spec).reshape(self._half)
        return np.fft.irfftn(spec, s=self.grid.shape, axes=self._axes).reshape(-1)


def _pencil_solver(G_avg, C_avg, lam, adjoint, probe):
    """Half-spectrum block solves from one eigendecomposition.

    Every block is ``A_k = lam_k C_avg + G_avg = G_avg (I + lam_k M)``
    with ``M = G_avg^-1 C_avg = V diag(mu) V^-1``, so
    ``A_k^-1 = V diag(1 / (1 + lam_k mu)) V^-1 G_avg^-1``: two
    ``(m_half, n) x (n, n)`` GEMMs around an elementwise scale, for any
    number of frequencies.  Returns ``(solve_half, backward_error)``;
    ``solve_half`` is None when ``G_avg`` or ``V`` cannot be inverted
    or the probe reads above :data:`PENCIL_PROBE_TOL`.  Raises
    :class:`numpy.linalg.LinAlgError` when some ``1 + lam_k mu_j`` is
    zero, i.e. a block is singular.
    """
    try:
        G_inv = np.linalg.inv(G_avg)
        mu, V = np.linalg.eig(G_inv @ C_avg)
        W = np.linalg.solve(V, G_inv)
    except np.linalg.LinAlgError:
        return None, None
    denom = 1.0 + lam[:, None] * mu
    if not np.all(denom):
        raise np.linalg.LinAlgError("singular averaged-circuit block")
    scale = 1.0 / denom
    if adjoint:
        # A_k^-H = W^H diag(conj(scale_k)) V^H, applied to rows
        left, scale, right = V.conj(), scale.conj(), W.conj()
        lam_op, C_op, G_op = np.conj(lam), C_avg, G_avg
    else:
        left, right = W.T, V.T
        lam_op, C_op, G_op = lam, C_avg.T, G_avg.T

    def solve_half(Z):
        return ((Z @ left) * scale) @ right

    # a-posteriori check of every block on one fixed probe: the rows of
    # A_k y_k are lam_k y_k C^T + y_k G^T (conjugated lam, untransposed
    # C and G for the adjoint)
    y = solve_half(probe)
    resid = lam_op[:, None] * (y @ C_op) + y @ G_op - probe
    err = float(np.max(np.linalg.norm(resid, axis=1) / np.linalg.norm(probe, axis=1)))
    if not err <= PENCIL_PROBE_TOL:
        return None, err
    return solve_half, err


def _circulant_matrix(eigs: np.ndarray, drop_tol: float = 1e-12) -> sp.csr_matrix:
    """Sparse circulant with the given DFT eigenvalues.

    Real-valued when the eigenvalues are conjugate-symmetric (ordinary
    differentiation operators); complex otherwise (e.g. the offset
    operators ``lambda_k + j omega`` of periodic noise analysis).
    """
    N = eigs.size
    first_col = np.fft.ifft(eigs)
    if np.max(np.abs(first_col.imag)) <= drop_tol * max(np.max(np.abs(first_col)), 1e-300):
        first_col = np.real(first_col).copy()
    scale = np.max(np.abs(first_col)) or 1.0
    first_col[np.abs(first_col) < drop_tol * scale] = 0.0
    rows, cols, data = [], [], []
    nz = np.nonzero(first_col)[0]
    for j in range(N):
        for k in nz:
            rows.append((j + k) % N)
            cols.append(j)
            data.append(first_col[k])
    return sp.csr_matrix((data, (rows, cols)), shape=(N, N))


class _MPDEProblem:
    """Shared state for one MPDE solve (grid, excitation, fd-blocks)."""

    def __init__(self, system, grid, fd_blocks, options):
        self.system = system
        self.grid = grid
        self.options = options
        self.n = system.n
        self.m = grid.total
        self.pattern = system.jacobian_pattern()
        self.blocks = _block_pattern(system, self.m)
        self.fd_blocks = list(fd_blocks or [])
        if self.fd_blocks and any(ax.kind != "fourier" for ax in grid.axes):
            raise ValueError(
                "frequency-domain blocks require all-Fourier (harmonic "
                "balance) axes — this is the paper's sec. 5 point that only "
                "HB naturally accepts frequency-domain models"
            )
        self.omega_grid = np.imag(grid.combined_eigenvalues())  # physical omega
        self._fd_Y = []
        for blk in self.fd_blocks:
            Y = np.asarray(blk.admittance(np.abs(self.omega_grid).ravel()))
            p = blk.ports.size
            Y = Y.reshape(self.m, p, p)
            # negative-frequency bins: Y(-w) = conj(Y(w)) for a real system
            neg = (self.omega_grid.ravel() < 0)
            Y[neg] = np.conj(Y[neg])
            self._fd_Y.append(Y)
        # fixed probe of the pencil preconditioner's backward error
        self._probe = None

    # -- fd-block application (linear, spectral-domain) -------------------
    def fd_contribution(self, x_flat: np.ndarray) -> np.ndarray:
        if not self.fd_blocks:
            return np.zeros_like(x_flat)
        X = self.grid.reshape(x_flat, self.n)
        spec = np.fft.fftn(X, axes=tuple(range(self.grid.ndim)))
        spec_flat = spec.reshape(self.m, self.n)
        out = np.zeros((self.m, self.n), dtype=complex)
        for blk, Y in zip(self.fd_blocks, self._fd_Y):
            V = spec_flat[:, blk.ports]  # (m, p)
            I = np.einsum("mpq,mq->mp", Y, V)
            out[:, blk.ports] += I
        out_grid = out.reshape(self.grid.shape + (self.n,))
        res = np.real(np.fft.ifftn(out_grid, axes=tuple(range(self.grid.ndim))))
        return res.reshape(-1)

    # -- residual -----------------------------------------------------------
    def residual(self, x_flat: np.ndarray, B: np.ndarray):
        """``(r, vals)``: the flat residual at ``x_flat`` and the batch
        Jacobian values ``(g_vals, c_vals)`` from the same device pass,
        for :meth:`batch_matrices` at this iterate."""
        cols = self.grid.columns(x_flat, self.n)
        f, q, g_vals, c_vals = self.system.batch_fq(cols, jacobians=True)
        Q = q.T.reshape(self.grid.shape + (self.n,))
        dq = self.grid.apply_derivative(Q).reshape(self.m, self.n)
        r = dq + f.T - B
        r_flat = r.reshape(-1)
        if self.fd_blocks:
            r_flat = r_flat + self.fd_contribution(x_flat)
        return r_flat, (g_vals, c_vals)

    # -- jacobians ------------------------------------------------------------
    def batch_matrices(self, x_flat: np.ndarray, vals=None):
        """``(G_big, C_big, g_vals, c_vals)`` at ``x_flat``; ``vals`` are
        the values :meth:`residual` returned there (evaluated afresh
        when omitted)."""
        if vals is None:
            vals = self.system.batch_jacobians(self.grid.columns(x_flat, self.n))
        g_vals, c_vals = vals
        return self.blocks.matrix(g_vals), self.blocks.matrix(c_vals), g_vals, c_vals

    def direct_jacobian(self, G_big, C_big) -> sp.csc_matrix:
        mats = [_circulant_matrix(ax.deriv_eigenvalues()) for ax in self.grid.axes]
        D_samples = None
        for a, Da in enumerate(mats):
            left = 1
            for b in range(a):
                left *= self.grid.shape[b]
            right = 1
            for b in range(a + 1, self.grid.ndim):
                right *= self.grid.shape[b]
            expanded = sp.kron(sp.identity(left), sp.kron(Da, sp.identity(right)))
            D_samples = expanded if D_samples is None else D_samples + expanded
        D_big = sp.kron(D_samples, sp.identity(self.n))
        return (D_big @ C_big + G_big).tocsc()

    def matvec(self, G_big, C_big):
        def apply(v):
            u = C_big @ v
            U = self.grid.reshape(u, self.n)
            du = self.grid.apply_derivative(U).reshape(-1)
            out = du + G_big @ v
            if self.fd_blocks:
                out = out + self.fd_contribution(v)
            return out

        return apply

    def averaged_preconditioner(self, g_vals, c_vals, adjoint=False):
        """Frequency-diagonal preconditioner from time-averaged C, G.

        Applies ``F^-1 diag(A_k^-1) F`` to a real vector, with blocks
        ``A_k = lambda_k C_avg + G_avg (+ Y_k)``; ``adjoint=True`` uses
        ``A_k^-H`` instead, which preconditions the transposed system of
        the HB adjoint.  ``C_avg``/``G_avg`` are real and ``lambda`` and
        ``Y`` are conjugate-symmetric, so ``A_-k = conj(A_k)`` and only
        the ``rfftn`` half-spectrum is solved.  Without fd-blocks the
        blocks share one pencil and are applied through its
        eigendecomposition (:func:`_pencil_solver`); with fd-blocks, or
        when that fails its probe, they are inverted as one stack.
        Raises :class:`numpy.linalg.LinAlgError` on a singular block.
        """
        n, shape = self.n, self.grid.shape
        G_avg = self.blocks.dense(g_vals.mean(axis=1))
        C_avg = self.blocks.dense(c_vals.mean(axis=1))
        half = shape[:-1] + (shape[-1] // 2 + 1,)
        lam = self.grid.combined_eigenvalues()[..., : half[-1]].reshape(-1)
        solve_half, err = None, None
        if not self.fd_blocks:
            if self._probe is None:
                rng = np.random.default_rng(0)
                self._probe = rng.standard_normal((lam.size, n)) + 1j * rng.standard_normal(
                    (lam.size, n)
                )
            solve_half, err = _pencil_solver(G_avg, C_avg, lam, adjoint, self._probe)
        path = "pencil"
        if solve_half is None:
            path = "stacked"
            A = lam[:, None, None] * C_avg + G_avg
            for blk, Y in zip(self.fd_blocks, self._fd_Y):
                p = blk.ports.size
                Y_half = Y.reshape(shape + (p, p))[..., : half[-1], :, :].reshape(-1, p, p)
                # add.at, not +=: a port listed twice accumulates its entries
                np.add.at(A, (slice(None), blk.ports[:, None], blk.ports[None, :]), Y_half)
            inv = np.linalg.inv(A)
            if adjoint:
                inv = inv.conj().swapaxes(1, 2)

            def solve_half(Z):
                return np.matmul(inv, Z[..., None])[..., 0]

        tr = get_tracer()
        if tr.enabled:
            tr.event(
                "mpde.precond_build", m=self.m, n=n, path=path, backward_error=err,
                adjoint=bool(adjoint),
            )
        return _AveragedPreconditioner(self.grid, n, solve_half, path, err)


def _coarsen_grid(grid: MPDEGrid, floor: int) -> Optional[MPDEGrid]:
    """Grid with every axis halved (not below ``floor``); None if stuck."""
    changed = False
    axes = []
    for ax in grid.axes:
        if ax.size // 2 >= max(floor, 4):
            axes.append(Axis(ax.kind, ax.freq, ax.size // 2))
            changed = True
        else:
            axes.append(Axis(ax.kind, ax.freq, ax.size))
    return MPDEGrid(axes) if changed else None


def _prolong(x_coarse: np.ndarray, grid_c: MPDEGrid, grid_f: MPDEGrid, n: int) -> np.ndarray:
    """Spectrally interpolate a coarse-grid solution onto a finer grid.

    Works for every periodic axis kind (uniform periodic samples):
    zero-pad the centered DFT spectrum axis by axis.
    """
    axes = tuple(range(grid_c.ndim))
    Xc = grid_c.reshape(np.asarray(x_coarse, dtype=float), n)
    spec = np.fft.fftshift(np.fft.fftn(Xc, axes=axes), axes=axes)
    target = np.zeros(grid_f.shape + (n,), dtype=complex)
    slices = []
    for Nc, Nf in zip(grid_c.shape, grid_f.shape):
        lo = (Nf - Nc) // 2
        slices.append(slice(lo, lo + Nc))
    target[tuple(slices)] = spec
    fine = np.fft.ifftn(np.fft.ifftshift(target, axes=axes), axes=axes)
    fine = np.real(fine) * (grid_f.total / grid_c.total)
    return fine.reshape(-1)


@traceable
@spanned("mpde.solve")
def solve_mpde(
    system: MNASystem,
    grid: MPDEGrid,
    x0: Optional[np.ndarray] = None,
    options: Optional[MPDEOptions] = None,
    fd_blocks: Optional[Sequence[FrequencyDomainBlock]] = None,
    policy: Optional[EscalationPolicy] = None,
    on_failure: Optional[str] = None,
    on_invalid: str = "raise",
) -> MPDESolution:
    """Solve the periodic MPDE on ``grid`` for the compiled circuit.

    Parameters
    ----------
    x0:
        Initial flat iterate; defaults to the DC operating point
        broadcast over the grid.
    fd_blocks:
        Optional frequency-domain linear blocks (requires all-Fourier
        axes, i.e. harmonic balance).
    policy / on_failure:
        Escalation control over :data:`MPDE_LADDER`; override the
        equivalent :class:`MPDEOptions` fields when given.  Under
        ``"best_effort"``/``"warn"`` an exhausted ladder returns the
        best iterate with ``converged=False`` instead of raising.
    on_invalid:
        Pre-flight lint policy: circuit topology plus tone-list checks
        (``AN_TONE_MISMATCH``, ``AN_TONE_NONPOSITIVE``, ...) against the
        periodic axes of ``grid``.
    """
    tones = [
        ax.freq for ax in grid.axes if ax.kind != "transient" and ax.freq > 0
    ]
    validation = enforce(preflight(system, "mpde", freqs=tones), on_invalid)
    opts = options or MPDEOptions()
    pol = policy if policy is not None else opts.policy
    mode = on_failure if on_failure is not None else (
        pol.on_failure if pol is not None else opts.on_failure
    )
    prob = _MPDEProblem(system, grid, fd_blocks, opts)
    t_begin = time.perf_counter()

    if x0 is None:
        # already linted above; don't lint twice
        x_dc = _dc_solve(system).x
        x_init = np.tile(x_dc, grid.total)
    else:
        x_init = np.asarray(x0, dtype=float).copy()

    solver = opts.solver
    if solver == "auto":
        spectral_big = any(
            ax.kind == "fourier" and ax.size > 16 for ax in grid.axes
        )
        small = system.n * grid.total <= opts.direct_cutoff
        if fd_blocks:
            solver = "gmres"
        elif spectral_big and not small:
            solver = "gmres"
        else:
            solver = "direct"

    B_full = grid.excitation(system)
    B_dc = np.tile(system.b_dc(), (grid.total, 1)).reshape(grid.total, system.n)

    counters = {"newton": 0, "gmres": 0, "gmres_fallbacks": 0}
    tr = get_tracer()
    trace_mark = tr.mark() if tr.enabled else None
    perf = PerfCounters()
    reuse_on = opts.reuse_factorization and opts.reuse_limit > 0
    # modified-Newton state shared across solve_at calls: the direct LU
    # (or averaged preconditioner) plus its age in served iterations and
    # the contraction rate of the last accepted step — the LU is only
    # served stale once the iteration is already contracting well (the
    # asymptotic regime where the Jacobian has stopped moving)
    reuse = {"lu": None, "lu_age": 0, "pc": None, "pc_age": 0, "contraction": np.inf}

    def solve_at(B, x_start, abstol):
        x_it = x_start.copy()
        # each residual pass also returns the iterate's batch Jacobian
        # values; the accepted iterate's are carried into the next
        # iteration's matrices, so a Newton step costs one device pass
        r, vals = prob.residual(x_it, B)
        rnorm = np.linalg.norm(r)
        r0 = max(rnorm, 1e-30)
        best_x, best_norm = x_it.copy(), (rnorm if np.isfinite(rnorm) else np.inf)
        for it in range(opts.maxiter):
            if rnorm <= abstol:
                return x_it, rnorm
            # two passes at most: the first may serve a stale
            # factorization, the second (after a fail-closed refresh)
            # always factors fresh at the current iterate
            for attempt in (0, 1):
                used_stale_lu = used_stale_pc = False
                if solver == "direct":
                    if (
                        reuse_on
                        and attempt == 0
                        and reuse["lu"] is not None
                        and reuse["lu_age"] < opts.reuse_limit
                        and reuse["contraction"] <= opts.reuse_rate_limit
                    ):
                        dx = reuse["lu"](r)
                        used_stale_lu = True
                        perf.factor_hits += 1
                        perf.jacobian_evals_saved += 1
                    else:
                        G_big, C_big, g_vals, c_vals = prob.batch_matrices(x_it, vals)
                        perf.jacobian_evals += 1
                        J = prob.direct_jacobian(G_big, C_big)
                        if reuse_on:
                            reuse["lu"] = spla.splu(J.tocsc()).solve
                            reuse["lu_age"] = 0
                            perf.factor_misses += 1
                            dx = reuse["lu"](r)
                        else:
                            dx = spla.spsolve(J, r)
                else:
                    # matrix-free GMRES: the operator must be exact at
                    # the current iterate, so the batch matrices are
                    # always rebuilt from its carried values — the
                    # reusable part is the averaged-circuit
                    # preconditioner
                    G_big, C_big, g_vals, c_vals = prob.batch_matrices(x_it, vals)
                    perf.jacobian_evals += 1
                    mv = prob.matvec(G_big, C_big)
                    if (
                        reuse_on
                        and attempt == 0
                        and reuse["pc"] is not None
                        and reuse["pc_age"] < opts.reuse_limit
                    ):
                        pc = reuse["pc"]
                        used_stale_pc = True
                        perf.factor_hits += 1
                        perf.jacobian_evals_saved += 1
                    else:
                        pc = prob.averaged_preconditioner(g_vals, c_vals)
                        if reuse_on:
                            reuse["pc"] = pc
                            reuse["pc_age"] = 0
                            perf.factor_misses += 1
                    lin_tol = max(opts.gmres_tol, min(1e-3, 0.01 * rnorm / r0))
                    # restart escalation first (repro.robust ladder); the
                    # dense rung is disabled — materializing the HB operator
                    # is never affordable, the sparse direct Jacobian below
                    # is the analysis-specific equivalent
                    res = robust_gmres(
                        mv,
                        r,
                        tol=lin_tol,
                        restart=opts.gmres_restart,
                        maxiter=opts.gmres_maxiter,
                        precond=pc,
                        on_failure="best_effort",
                        dense_max_n=0,
                        restart_growth=(1, 2),
                    )
                    counters["gmres"] += (
                        res.report.total_iterations if res.report else res.iterations
                    )
                    if not res.converged and used_stale_pc:
                        # fail closed: a stale preconditioner may be what
                        # stalled GMRES — rebuild it fresh and retry
                        # before engaging any fallback
                        reuse["pc"] = None
                        perf.stale_refreshes += 1
                        perf.factor_invalidations += 1
                        if tr.enabled:
                            tr.event("mpde.stale_refresh", iter=it, cause="gmres-stall")
                        continue
                    if not res.converged:
                        # the averaged-circuit preconditioner degrades on
                        # extreme conductance modulation (hard-driven diode
                        # stacks); fall back to a direct factorization when
                        # the problem is small enough to afford it
                        if not prob.fd_blocks and system.n * grid.total <= opts.direct_fallback_max:
                            J = prob.direct_jacobian(G_big, C_big)
                            dx = spla.spsolve(J, r)
                            counters["gmres_fallbacks"] += 1
                            res = None
                        elif res.final_residual > 0.5:
                            raise attach_failure_payload(
                                ConvergenceError(
                                    f"MPDE GMRES stalled (relres {res.final_residual:.2e})"
                                ),
                                best_x=best_x,
                                best_norm=float(best_norm),
                                iterations=it,
                            )
                    dx = res.x if res is not None else dx
                counters["newton"] += 1
                step = 1.0
                x_try = x_it - dx
                r_try, vals_try = prob.residual(x_try, B)
                rnorm_try = np.linalg.norm(r_try)
                descent = False
                for _ in range(12):
                    if np.isfinite(rnorm_try) and rnorm_try < rnorm:
                        descent = True
                        break
                    step *= 0.5
                    x_try = x_it - step * dx
                    r_try, vals_try = prob.residual(x_try, B)
                    rnorm_try = np.linalg.norm(r_try)
                if not descent and used_stale_lu:
                    # fail closed: the stale LU produced a residual-
                    # increasing (or non-finite) step — drop it and redo
                    # this iteration with a fresh Jacobian before any
                    # escalation ladder engages
                    reuse["lu"] = None
                    perf.stale_refreshes += 1
                    perf.factor_invalidations += 1
                    if tr.enabled:
                        tr.event("mpde.stale_refresh", iter=it, cause="non-descent")
                    continue
                if not np.isfinite(rnorm_try):
                    # fail fast instead of looping on NaNs until maxiter
                    raise attach_failure_payload(
                        ConvergenceError(
                            f"MPDE residual is not finite at Newton iteration {it}"
                        ),
                        best_x=best_x,
                        best_norm=float(best_norm),
                        iterations=it + 1,
                    )
                break
            if reuse_on:
                reuse["contraction"] = rnorm_try / rnorm if rnorm > 0 else 0.0
                rate_bad = rnorm_try > opts.reuse_rate_limit * rnorm
                if reuse["lu"] is not None:
                    reuse["lu_age"] += 1
                    if used_stale_lu and rate_bad:
                        reuse["lu"] = None
                        perf.factor_invalidations += 1
                if reuse["pc"] is not None:
                    reuse["pc_age"] += 1
                    if used_stale_pc and rate_bad:
                        reuse["pc"] = None
                        perf.factor_invalidations += 1
            if tr.enabled:
                tr.event(
                    "mpde.newton",
                    iter=it,
                    rnorm=float(rnorm_try),
                    contraction=float(rnorm_try / rnorm) if rnorm > 0 else 0.0,
                    solver=solver,
                    stale_lu=used_stale_lu,
                    stale_pc=used_stale_pc,
                )
            x_it, r, rnorm, vals = x_try, r_try, rnorm_try, vals_try
            if rnorm < best_norm:
                best_x, best_norm = x_it.copy(), rnorm
            if opts.verbose:
                print(f"    newton {it}: |r| = {rnorm:.3e} (step {step:g})")
        if rnorm <= abstol * 100:
            return x_it, rnorm
        raise attach_failure_payload(
            ConvergenceError(f"MPDE Newton stalled at |r| = {rnorm:.3e}"),
            best_x=best_x,
            best_norm=float(best_norm),
            iterations=opts.maxiter,
        )

    def direct_rung():
        it_before = counters["newton"]
        x, rnorm = solve_at(B_full, x_init, opts.abstol)
        return RungOutcome(
            value=(x, rnorm),
            iterations=counters["newton"] - it_before,
            residual_norm=float(rnorm),
        )

    def ramp_rung():
        it_before = counters["newton"]
        steps = max(opts.ramp_steps, 4)
        x = x_init.copy()
        rnorm = np.inf
        try:
            for alpha in np.linspace(1.0 / steps, 1.0, steps):
                B = B_dc + alpha * (B_full - B_dc)
                tol = opts.abstol if alpha == 1.0 else max(opts.abstol, 1e-7)
                x, rnorm = solve_at(B, x, tol)
        except ConvergenceError as exc:
            exc.iterations = counters["newton"] - it_before
            raise
        return RungOutcome(
            value=(x, rnorm),
            iterations=counters["newton"] - it_before,
            residual_norm=float(rnorm),
            detail={"ramp_steps": steps},
        )

    def continuation_rung():
        grid_c = _coarsen_grid(grid, opts.coarsen_floor)
        if grid_c is None:
            raise ConvergenceError(
                f"harmonic continuation: grid {grid.shape} cannot be "
                f"coarsened below {opts.coarsen_floor} samples/axis"
            )
        sub_opts = dataclasses.replace(opts, policy=None, on_failure="raise")
        sub = solve_mpde(
            system, grid_c, options=sub_opts, fd_blocks=fd_blocks, on_invalid=on_invalid
        )
        counters["newton"] += sub.newton_iterations
        counters["gmres"] += sub.gmres_iterations
        it_before = counters["newton"]
        x_start = _prolong(sub.x, grid_c, grid, system.n)
        x, rnorm = solve_at(B_full, x_start, opts.abstol)
        return RungOutcome(
            value=(x, rnorm),
            iterations=counters["newton"] - it_before,
            residual_norm=float(rnorm),
            detail={"coarse_shape": grid_c.shape, "coarse_strategy": sub.report.strategy
                    if sub.report else None},
        )

    strategies = [
        ("direct", direct_rung),
        ("source-ramp", ramp_rung),
        ("harmonic-continuation", continuation_rung),
    ]
    if pol is None and opts.ramp_steps > 0:
        # explicit ramp request: skip the full-strength first attempt
        pol = EscalationPolicy(rungs=("source-ramp", "harmonic-continuation"))

    def fallback(best, rep):
        if best is not None and best.value is not None:
            return RungOutcome(
                value=(np.asarray(best.value), best.residual_norm),
                residual_norm=best.residual_norm,
            )
        return RungOutcome(value=(x_init.copy(), np.inf), residual_norm=np.inf)

    out, rep = run_ladder(
        "mpde", strategies, policy=pol, on_failure=mode, fallback=fallback
    )
    perf.add_stage("mpde", time.perf_counter() - t_begin)
    perf.attach(rep)
    if tr.enabled:
        tr.publish(rep, trace_mark)
    x, rnorm = out.value
    return MPDESolution(
        system=system,
        grid=grid,
        x=x,
        newton_iterations=counters["newton"],
        gmres_iterations=counters["gmres"],
        solver=solver,
        residual_norm=float(rnorm),
        wall_time=time.perf_counter() - t_begin,
        converged=rep.converged,
        report=rep,
        validation=validation,
    )

"""Multi-time grids for the MPDE formulation (paper sec. 2.2).

A signal with widely separated time scales is represented in its
multivariate form ``x_hat(t1, t2, ...)`` sampled on a uniform grid that
is periodic along each axis.  Differentiation along a periodic axis —
whether *spectral* (Fourier, used by HB and by the almost-linear slow
path in MMFT) or *finite-difference* (used by MFDTD for strongly
nonlinear fast paths) — is a circulant operator, hence diagonal in the
DFT basis.  The whole MPDE solver family therefore shares one engine
parameterized only by the per-axis derivative eigenvalues:

    =============== ===================== =====================
    method          axis 1 (slow)         axis 2 (fast)
    =============== ===================== =====================
    1-tone HB       --                    fourier
    multi-tone HB   fourier               fourier
    MFDTD           fd / fd2              fd / fd2
    MMFT            fourier (few harms)   fd / fd2
    TD-ENV          transient stepping    fourier or fd
    hier. shooting  shooting              fd
    =============== ===================== =====================

Sample layout convention: flattened solutions are *sample-major*,
``x[s * n + i]`` = unknown ``i`` at grid sample ``s``, with the sample
index in C order over ``(N1, N2, ...)``.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.netlist.mna import MNASystem
from repro.netlist.waveforms import DC, MultiTone, Sine, Waveform

__all__ = ["Axis", "MPDEGrid", "decompose_waveform"]

_PERIODIC_KINDS = ("fourier", "fd", "fd2")


@dataclasses.dataclass
class Axis:
    """One artificial time axis.

    Parameters
    ----------
    kind:
        ``"fourier"`` (spectral), ``"fd"`` (backward-difference),
        ``"fd2"`` (2nd-order backward difference), or ``"transient"``
        (non-periodic envelope axis, handled by the envelope/shooting
        drivers rather than the periodic core).
    freq:
        Fundamental frequency of a periodic axis (Hz); ignored for
        ``transient``.
    size:
        Number of uniform samples along the axis.
    """

    kind: str
    freq: float
    size: int

    def __post_init__(self) -> None:
        if self.kind not in _PERIODIC_KINDS + ("transient",):
            raise ValueError(f"unknown axis kind {self.kind!r}")
        if self.kind != "transient":
            if self.freq <= 0:
                raise ValueError("periodic axis needs freq > 0")
            if self.size < 2:
                raise ValueError("axis needs at least 2 samples")

    @property
    def periodic(self) -> bool:
        return self.kind != "transient"

    @property
    def period(self) -> float:
        return 1.0 / self.freq

    def times(self) -> np.ndarray:
        """Uniform sample times over one period."""
        return np.arange(self.size) * (self.period / self.size)

    def deriv_eigenvalues(self) -> np.ndarray:
        """Eigenvalues of the d/dt circulant in DFT (fftfreq) order."""
        if not self.periodic:
            raise ValueError("transient axis has no periodic derivative")
        N = self.size
        h = self.period / N
        k = np.fft.fftfreq(N, d=h)  # physical frequencies
        theta = 2.0 * np.pi * np.arange(N) / N
        theta = np.where(theta > np.pi, theta - 2 * np.pi, theta)  # fftfreq order
        if self.kind == "fourier":
            lam = 2j * np.pi * k
            if N % 2 == 0:
                # Nyquist mode: derivative of the sawtooth-sampled mode is
                # conventionally zeroed to keep the operator real.
                lam[N // 2] = 0.0
            return lam
        if self.kind == "fd":
            return (1.0 - np.exp(-1j * theta)) / h
        if self.kind == "fd2":
            return (1.5 - 2.0 * np.exp(-1j * theta) + 0.5 * np.exp(-2j * theta)) / h
        raise ValueError("transient axis has no periodic derivative")


def decompose_waveform(wave: Waveform) -> List[Tuple[Optional[float], object]]:
    """Split a waveform into (fundamental_or_None, callable) pieces.

    ``None`` marks a DC/transient-assignable piece.  MultiTone sources are
    split tone-by-tone so each piece can live on its own axis — that is
    how a two-tone excitation spreads over the two grid axes.
    """
    if isinstance(wave, MultiTone):
        pieces: List[Tuple[Optional[float], object]] = [(None, DC(wave.offset))]
        for amp, freq, phase in wave.tones:
            if amp != 0.0:
                pieces.append((freq, Sine(amplitude=amp, freq=freq, phase=phase)))
        return pieces
    if isinstance(wave, Sine) and wave.amplitude == 0.0:
        # a zeroed test tone is just its DC offset; do not force its
        # (irrelevant) frequency onto the grid
        return [(None, DC(wave.offset))]
    freqs = wave.frequencies
    if len(freqs) == 0:
        return [(None, wave)]
    if len(freqs) == 1:
        return [(freqs[0], wave)]
    raise ValueError(
        f"waveform {wave!r} carries {len(freqs)} fundamentals; decompose it "
        "into MultiTone or separate sources"
    )


class MPDEGrid:
    """A tensor-product multi-time grid over periodic axes.

    Only the *periodic* axes are represented here; an enclosing envelope
    or shooting driver owns any transient axis.
    """

    def __init__(self, axes: Sequence[Axis]):
        axes = list(axes)
        if not axes:
            raise ValueError("grid needs at least one axis")
        if not all(ax.periodic for ax in axes):
            raise ValueError("MPDEGrid axes must be periodic (fourier/fd/fd2)")
        self.axes = axes
        self.shape = tuple(ax.size for ax in axes)
        self.total = int(np.prod(self.shape))
        self._eigs = [ax.deriv_eigenvalues() for ax in axes]
        self._half_symbol = None

    # ------------------------------------------------------------------
    @property
    def ndim(self) -> int:
        return len(self.axes)

    def reshape(self, x_flat: np.ndarray, n: int) -> np.ndarray:
        """(total*n,) -> (N1, ..., Nd, n)."""
        return x_flat.reshape(self.shape + (n,))

    def flatten(self, X: np.ndarray) -> np.ndarray:
        return X.reshape(-1)

    def columns(self, x_flat: np.ndarray, n: int) -> np.ndarray:
        """(total*n,) -> (n, total) sample columns for batch evaluation."""
        return x_flat.reshape(self.total, n).T

    def from_columns(self, cols: np.ndarray) -> np.ndarray:
        return cols.T.reshape(-1)

    # ------------------------------------------------------------------
    def combined_eigenvalues(self) -> np.ndarray:
        """sum_a lambda_a(k_a) over the full grid, shape ``self.shape``.

        This is the symbol of the total MPDE time-derivative operator
        d/dt1 + d/dt2 + ... in the tensor DFT basis.
        """
        total = np.zeros(self.shape, dtype=complex)
        for a, lam in enumerate(self._eigs):
            shape = [1] * self.ndim
            shape[a] = self.axes[a].size
            total = total + lam.reshape(shape)
        return total

    def half_spectrum_symbol(self) -> np.ndarray:
        """Derivative symbol on the ``rfftn`` half-spectrum, ``half + (1,)``.

        The Hermitian part ``(lam(k) + conj(lam(-k))) / 2`` of the
        combined eigenvalues, truncated to the bins ``rfftn`` keeps.  For
        real samples ``Re ifftn(lam * fftn(Q))`` equals
        ``irfftn(lam_h * rfftn(Q))``, so the half-spectrum transform
        gives the full-spectrum operator at half the FFT work.  Cached:
        the symbol depends on the grid alone.
        """
        if self._half_symbol is None:
            lam = self.combined_eigenvalues()
            mirrored = lam
            for a in range(self.ndim):
                mirrored = np.roll(np.flip(mirrored, axis=a), 1, axis=a)
            herm = 0.5 * (lam + np.conj(mirrored))
            self._half_symbol = herm[..., : self.shape[-1] // 2 + 1, None]
        return self._half_symbol

    def _apply_symbol(self, Q: np.ndarray, symbol: np.ndarray) -> np.ndarray:
        axes = tuple(range(self.ndim))
        spec = np.fft.rfftn(Q, axes=axes)
        spec *= symbol
        return np.fft.irfftn(spec, s=self.shape, axes=axes)

    def apply_derivative(self, Q: np.ndarray) -> np.ndarray:
        """Apply d/dt1 + ... + d/dtd to real grid samples (N1,...,Nd,n)."""
        return self._apply_symbol(Q, self.half_spectrum_symbol())

    def apply_derivative_adjoint(self, Q: np.ndarray) -> np.ndarray:
        """Apply the transpose of :meth:`apply_derivative`.

        The derivative operator is a real circulant, D = F^-1 diag(lam) F
        with DFT matrix F; its transpose is the circulant with conjugated
        eigenvalues (D real => D^T = D^H = F^-1 diag(conj(lam)) F).  Used
        by the adjoint HB/MPDE sensitivity path.
        """
        return self._apply_symbol(Q, np.conj(self.half_spectrum_symbol()))

    def apply_axis_derivative(self, Q: np.ndarray, axis: int) -> np.ndarray:
        """Apply the derivative along a single axis only."""
        spec = np.fft.fft(Q, axis=axis)
        shape = [1] * Q.ndim
        shape[axis] = self.axes[axis].size
        spec *= self._eigs[axis].reshape(shape)
        return np.real(np.fft.ifft(spec, axis=axis))

    # ------------------------------------------------------------------
    def _match_axis(self, freq: float, rtol: float = 1e-6) -> int:
        """Axis whose fundamental divides ``freq`` (integer harmonic).

        A harmonic is only accepted when the axis actually resolves it
        (below the grid Nyquist); higher multiples would alias and must
        be handled as multi-axis mix tones or rejected.
        """
        best = -1
        best_mult = None
        for a, ax in enumerate(self.axes):
            ratio = freq / ax.freq
            mult = round(ratio)
            if (
                1 <= mult <= (ax.size - 1) // 2
                and abs(ratio - mult) <= rtol * max(1.0, ratio)
            ):
                if best_mult is None or mult < best_mult:
                    best, best_mult = a, mult
        if best < 0:
            raise ValueError(
                f"no grid axis resolves source frequency {freq:g} Hz "
                f"(axes: {[(ax.freq, ax.size) for ax in self.axes]})"
            )
        return best

    def _match_combo(self, freq: float, kmax: int = 8, rtol: float = 1e-6):
        """Integer combination sum_a k_a f_a matching ``freq`` (or None).

        Needed for modulated sources: an AM sideband at f_c - f_m is a
        (+1, -1) mix of the two grid fundamentals, not a harmonic of
        either.  Searches small |k| combinations over up to two axes.
        """
        tol = rtol * max(freq, 1.0)
        for a in range(self.ndim):
            for b in range(a + 1, self.ndim):
                fa, fb = self.axes[a].freq, self.axes[b].freq
                for ka in range(-kmax, kmax + 1):
                    rem = freq - ka * fa
                    kb = round(rem / fb)
                    if kb == 0 or abs(kb) > kmax:
                        continue
                    if abs(rem - kb * fb) <= tol:
                        combo = [0] * self.ndim
                        combo[a], combo[b] = ka, kb
                        return combo
        return None

    def _combo_field(self, amp: float, phase: float, combo) -> np.ndarray:
        """sin(2 pi sum_a k_a f_a t_a + phase) sampled over the grid."""
        arg = np.zeros(self.shape)
        for a, k in enumerate(combo):
            if k == 0:
                continue
            shape = [1] * self.ndim
            shape[a] = self.axes[a].size
            arg = arg + (2 * np.pi * k * self.axes[a].freq * self.axes[a].times()).reshape(shape)
        return amp * np.sin(arg + phase)

    def excitation(
        self,
        system: MNASystem,
        transient_time: Optional[float] = None,
    ) -> np.ndarray:
        """Bivariate/multivariate excitation b_hat on the grid, (total, n).

        Every source-waveform piece is evaluated along the axis whose
        fundamental it is a harmonic of; sinusoidal pieces that are an
        integer *combination* of two fundamentals (AM sidebands) are
        placed as 2-D mix tones; pieces with no frequency are constants.
        When ``transient_time`` is given (envelope mode), pieces that
        match no periodic axis are evaluated at that outer time instead
        of raising.
        """
        n = system.n
        B = np.zeros(self.shape + (n,))
        for row, wave, sign in zip(system._b_rows, system._b_waves, system._b_signs):
            for freq, piece in decompose_waveform(wave):
                if freq is None:
                    if transient_time is not None:
                        value = float(np.asarray(piece(transient_time)))
                    else:
                        value = piece.dc
                    B[..., row] += sign * value
                    continue
                try:
                    a = self._match_axis(freq)
                except ValueError:
                    combo = self._match_combo(freq) if isinstance(piece, Sine) else None
                    if combo is not None:
                        B[..., row] += sign * self._combo_field(
                            piece.amplitude, piece.phase, combo
                        )
                        if piece.offset:
                            B[..., row] += sign * piece.offset
                        continue
                    if transient_time is None:
                        raise
                    if isinstance(piece, Sine):
                        # envelope mode: a tone at k f_a + delta becomes the
                        # k-th fast harmonic with a slowly rotating phase,
                        # b_hat(t1, t2) = A sin(2 pi k f_a t2 + 2 pi delta t1
                        # + phi) — the choice that satisfies b(t)=b_hat(t,t)
                        a_near = int(
                            np.argmin([abs(freq / ax.freq - round(freq / ax.freq))
                                       * ax.freq for ax in self.axes])
                        )
                        ax = self.axes[a_near]
                        k = int(round(freq / ax.freq))
                        delta = freq - k * ax.freq
                        phase = 2 * np.pi * delta * transient_time + piece.phase
                        if k == 0:
                            B[..., row] += sign * (
                                piece.offset + piece.amplitude * np.sin(phase)
                            )
                        else:
                            vals = piece.offset + piece.amplitude * np.sin(
                                2 * np.pi * k * ax.freq * ax.times() + phase
                            )
                            shape = [1] * self.ndim
                            shape[a_near] = ax.size
                            B[..., row] += sign * vals.reshape(shape)
                        continue
                    value = float(np.asarray(piece(transient_time)))
                    B[..., row] += sign * value
                    continue
                vals = np.asarray(piece(self.axes[a].times()))
                shape = [1] * self.ndim
                shape[a] = self.axes[a].size
                B[..., row] += sign * vals.reshape(shape)
        return B.reshape(self.total, n)

    def diagonal_times(self, cycles: int = 1, samples_per_cycle: Optional[int] = None) -> np.ndarray:
        """Physical time points for reconstructing x(t) = x_hat(t, .., t)."""
        fastest = max(ax.freq for ax in self.axes)
        m = samples_per_cycle or 32
        t_end = cycles / fastest
        return np.linspace(0.0, t_end, cycles * m, endpoint=False)

    def interpolate_diagonal(self, X_grid: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Evaluate x(t) = x_hat(t mod T1, ..., t mod Td) via trig/linear interp.

        ``X_grid`` has shape (N1,...,Nd,n); returns (len(t), n).  Fourier
        axes use exact trigonometric interpolation; fd axes use the same
        (they are periodic band-limited samples, so trig interpolation is
        the natural choice on a uniform periodic grid).
        """
        t = np.asarray(t, dtype=float)
        spec = np.fft.fftn(X_grid, axes=tuple(range(self.ndim)))
        # evaluate sum_k spec[k] exp(2 pi i sum_a k_a f_a t) / prod(N)
        out = np.zeros((t.size, X_grid.shape[-1]), dtype=complex)
        # loop over axes building the phase tensor progressively
        phase = np.ones((t.size,) + (1,) * self.ndim, dtype=complex)
        for a, ax in enumerate(self.axes):
            k = np.fft.fftfreq(ax.size, d=1.0 / ax.size)  # integer harmonics
            shape = [1] * (self.ndim + 1)
            shape[0] = t.size
            shape[a + 1] = ax.size
            ph = np.exp(2j * np.pi * np.outer(t, k) * ax.freq).reshape(shape)
            phase = phase * ph
        out = np.tensordot(
            phase.reshape(t.size, self.total),
            spec.reshape(self.total, -1),
            axes=1,
        )
        return np.real(out) / self.total

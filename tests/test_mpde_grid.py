"""Tests for multi-time grids, circulant differentiation, and excitations."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.mpde import Axis, MPDEGrid, decompose_waveform
from repro.netlist import Circuit, DC, MultiTone, Sine, SquareWave

from .stamp_reference import assert_block_pattern_matches_coo
from .test_mpde_methods import _pc_host, small_mixer


class TestAxis:
    def test_times_uniform(self):
        ax = Axis("fourier", 1e6, 8)
        t = ax.times()
        assert t.size == 8
        np.testing.assert_allclose(np.diff(t), 1.0 / 1e6 / 8)

    def test_fourier_derivative_of_sine(self):
        ax = Axis("fourier", 2.0, 32)
        t = ax.times()
        y = np.sin(2 * np.pi * 2.0 * t)
        spec = np.fft.fft(y) * ax.deriv_eigenvalues()
        dy = np.real(np.fft.ifft(spec))
        expect = 2 * np.pi * 2.0 * np.cos(2 * np.pi * 2.0 * t)
        np.testing.assert_allclose(dy, expect, atol=1e-9)

    def test_fd_derivative_first_order(self):
        ax = Axis("fd", 1.0, 256)
        t = ax.times()
        y = np.sin(2 * np.pi * t)
        spec = np.fft.fft(y) * ax.deriv_eigenvalues()
        dy = np.real(np.fft.ifft(spec))
        h = 1.0 / 256
        expect = (y - np.roll(y, 1)) / h
        np.testing.assert_allclose(dy, expect, atol=1e-10)

    def test_fd2_more_accurate_than_fd(self):
        exact_err = {}
        for kind in ("fd", "fd2"):
            ax = Axis(kind, 1.0, 64)
            t = ax.times()
            y = np.sin(2 * np.pi * t)
            dy = np.real(np.fft.ifft(np.fft.fft(y) * ax.deriv_eigenvalues()))
            exact_err[kind] = np.max(np.abs(dy - 2 * np.pi * np.cos(2 * np.pi * t)))
        assert exact_err["fd2"] < exact_err["fd"] / 5

    def test_validation(self):
        with pytest.raises(ValueError):
            Axis("nope", 1.0, 8)
        with pytest.raises(ValueError):
            Axis("fourier", -1.0, 8)
        with pytest.raises(ValueError):
            Axis("fourier", 1.0, 1)

    def test_transient_axis_has_no_derivative(self):
        ax = Axis("transient", 0.0, 4)
        assert not ax.periodic
        with pytest.raises(ValueError):
            ax.deriv_eigenvalues()


class TestDecompose:
    def test_sine_single_piece(self):
        pieces = decompose_waveform(Sine(1.0, 5.0))
        assert len(pieces) == 1
        assert pieces[0][0] == 5.0

    def test_dc_is_frequencyless(self):
        pieces = decompose_waveform(DC(3.0))
        assert pieces[0][0] is None

    def test_multitone_split(self):
        w = MultiTone([(1.0, 2.0, 0.0), (0.5, 3.0, 0.1)], offset=1.0)
        pieces = decompose_waveform(w)
        freqs = [p[0] for p in pieces]
        assert freqs == [None, 2.0, 3.0]
        # DC piece carries the offset
        assert pieces[0][1].dc == 1.0


class TestGrid:
    def test_combined_eigenvalues_shape(self):
        grid = MPDEGrid([Axis("fourier", 1.0, 4), Axis("fd", 10.0, 8)])
        lam = grid.combined_eigenvalues()
        assert lam.shape == (4, 8)
        assert grid.total == 32

    def test_apply_derivative_bivariate(self):
        grid = MPDEGrid([Axis("fourier", 1.0, 16), Axis("fourier", 50.0, 32)])
        t1 = grid.axes[0].times()
        t2 = grid.axes[1].times()
        Y = np.sin(2 * np.pi * t1)[:, None] * np.cos(2 * np.pi * 50.0 * t2)[None, :]
        dY = grid.apply_derivative(Y[..., None])[..., 0]
        expect = (
            2 * np.pi * np.cos(2 * np.pi * t1)[:, None] * np.cos(2 * np.pi * 50 * t2)[None, :]
            - 2 * np.pi * 50 * np.sin(2 * np.pi * t1)[:, None] * np.sin(2 * np.pi * 50 * t2)[None, :]
        )
        np.testing.assert_allclose(dY, expect, atol=1e-8)

    def test_flatten_roundtrip(self):
        grid = MPDEGrid([Axis("fourier", 1.0, 4), Axis("fd", 2.0, 6)])
        rng = np.random.default_rng(0)
        x = rng.standard_normal(grid.total * 3)
        X = grid.reshape(x, 3)
        np.testing.assert_array_equal(grid.flatten(X), x)
        cols = grid.columns(x, 3)
        assert cols.shape == (3, grid.total)
        np.testing.assert_array_equal(grid.from_columns(cols), x)

    def test_excitation_axis_matching(self):
        ckt = Circuit()
        ckt.vsource("V1", "a", "0", Sine(1.0, 1e6))
        ckt.vsource("V2", "b", "0", Sine(0.5, 1e9))
        ckt.resistor("R1", "a", "b", 1.0)
        sys = ckt.compile()
        grid = MPDEGrid([Axis("fourier", 1e6, 8), Axis("fourier", 1e9, 8)])
        B = grid.excitation(sys)
        Bg = B.reshape(8, 8, sys.n)
        # V1 varies only along axis 0: constant across axis 1, varying
        # across axis 0
        br1 = sys.branch("V1")
        np.testing.assert_allclose(Bg[:, 0, br1], Bg[:, 5, br1])
        assert not np.allclose(Bg[0, 0, br1], Bg[2, 0, br1])
        # V2 varies only along axis 1
        br2 = sys.branch("V2")
        np.testing.assert_allclose(Bg[0, :, br2], Bg[5, :, br2])
        assert not np.allclose(Bg[0, 0, br2], Bg[0, 2, br2])

    def test_excitation_harmonic_matching(self):
        # a 3 MHz source lives on the 1 MHz axis as its 3rd harmonic
        ckt = Circuit()
        ckt.vsource("V1", "a", "0", Sine(1.0, 3e6))
        ckt.resistor("R1", "a", "0", 1.0)
        sys = ckt.compile()
        grid = MPDEGrid([Axis("fourier", 1e6, 16)])
        B = grid.excitation(sys)
        vals = B[:, sys.branch("V1")]
        t = grid.axes[0].times()
        np.testing.assert_allclose(vals, np.sin(2 * np.pi * 3e6 * t), atol=1e-12)

    def test_excitation_unmatched_raises(self):
        ckt = Circuit()
        ckt.vsource("V1", "a", "0", Sine(1.0, 1.7e6))
        ckt.resistor("R1", "a", "0", 1.0)
        sys = ckt.compile()
        grid = MPDEGrid([Axis("fourier", 1e6, 8)])
        with pytest.raises(ValueError, match="no grid axis"):
            grid.excitation(sys)

    def test_excitation_transient_time_fallback(self):
        ckt = Circuit()
        ckt.vsource("V1", "a", "0", Sine(1.0, 123.0))  # matches no axis
        ckt.vsource("V2", "b", "0", Sine(1.0, 1e6))
        ckt.resistor("R1", "a", "b", 1.0)
        sys = ckt.compile()
        grid = MPDEGrid([Axis("fourier", 1e6, 8)])
        tau = 1.0 / 123.0 / 4.0  # quarter period -> sin = 1
        B = grid.excitation(sys, transient_time=tau)
        np.testing.assert_allclose(B[:, sys.branch("V1")], 1.0, rtol=1e-12)

    def test_interpolate_diagonal_reconstructs(self):
        grid = MPDEGrid([Axis("fourier", 3.0, 16), Axis("fourier", 40.0, 32)])
        t1 = grid.axes[0].times()
        t2 = grid.axes[1].times()
        X = (np.sin(2 * np.pi * 3 * t1)[:, None] + np.cos(2 * np.pi * 40 * t2)[None, :])[..., None]
        t = np.linspace(0, 0.3, 50)
        out = grid.interpolate_diagonal(X, t)
        expect = np.sin(2 * np.pi * 3 * t) + np.cos(2 * np.pi * 40 * t)
        np.testing.assert_allclose(out[:, 0], expect, atol=1e-9)

    @given(n1=st.sampled_from([4, 8, 16]), n2=st.sampled_from([4, 8]))
    def test_derivative_of_constant_is_zero(self, n1, n2):
        grid = MPDEGrid([Axis("fourier", 1.0, n1), Axis("fd", 7.0, n2)])
        X = np.ones((n1, n2, 2)) * 3.7
        dX = grid.apply_derivative(X)
        np.testing.assert_allclose(dX, 0.0, atol=1e-12)


class TestHalfSpectrumDerivative:
    """``apply_derivative`` and its adjoint transform only the ``rfftn``
    half-spectrum; they must equal the full-spectrum form written here,
    ``Re ifftn(lam * fftn(Q))``, to rounding (1e-14 relative)."""

    @staticmethod
    def _full_spectrum(grid, Q, adjoint):
        axes = tuple(range(grid.ndim))
        lam = grid.combined_eigenvalues()
        lam = np.conj(lam) if adjoint else lam
        return np.real(np.fft.ifftn(np.fft.fftn(Q, axes=axes) * lam[..., None], axes=axes))

    @pytest.mark.parametrize(
        "axes",
        [
            [("fourier", 1e6, 16)],
            [("fourier", 1e6, 15)],
            [("fd", 1e6, 12)],
            [("fd", 1e6, 9)],
            [("fd2", 1e6, 10)],
            [("fd2", 1e6, 11)],
            [("fourier", 1e6, 6), ("fourier", 1.3e6, 9)],
            [("fourier", 1e6, 7), ("fourier", 1.3e6, 8)],
            [("fourier", 1e5, 5), ("fd", 1e6, 10)],
            [("fd", 1e5, 7), ("fd2", 1e6, 8)],
            [("fd2", 1e5, 8), ("fourier", 1e6, 7)],
            [("fourier", 1e5, 4), ("fd", 1e6, 6), ("fd2", 2e6, 5)],
        ],
        ids=lambda axes: "x".join(f"{k}{n}" for k, _, n in axes),
    )
    @pytest.mark.parametrize("adjoint", [False, True], ids=["forward", "adjoint"])
    def test_matches_full_spectrum(self, axes, adjoint):
        grid = MPDEGrid([Axis(kind, f, size) for kind, f, size in axes])
        rng = np.random.default_rng(grid.total)
        apply = grid.apply_derivative_adjoint if adjoint else grid.apply_derivative
        for n in (1, 3):
            Q = rng.standard_normal(grid.shape + (n,))
            got, want = apply(Q), self._full_spectrum(grid, Q, adjoint)
            assert got.shape == want.shape and got.dtype == np.float64
            assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


class TestComboMatching:
    def test_am_sidebands_on_two_tone_grid(self):
        """AM sidebands (fc +- fm) land as 2-D mix tones, not aliased
        harmonics of the slow axis."""
        from repro.netlist import am_source

        fc, fm = 100e6, 1e6
        ckt = Circuit()
        ckt.vsource("V1", "a", "0", am_source(1.0, fc, fm, 0.4))
        ckt.resistor("R1", "a", "0", 1.0)
        sys = ckt.compile()
        grid = MPDEGrid([Axis("fourier", fm, 16), Axis("fourier", fc, 16)])
        B = grid.excitation(sys).reshape(16, 16, sys.n)
        br = sys.branch("V1")
        spec = np.fft.fft2(B[:, :, br]) / 256
        # carrier at (0, 1), sidebands at (+-1, 1)
        np.testing.assert_allclose(2 * abs(spec[0, 1]), 1.0, rtol=1e-9)
        np.testing.assert_allclose(2 * abs(spec[1, 1]), 0.2, rtol=1e-9)
        np.testing.assert_allclose(2 * abs(spec[-1, 1]), 0.2, rtol=1e-9)

    def test_unresolvable_harmonic_rejected(self):
        """A 99x harmonic of a 16-sample axis must not silently alias."""
        ckt = Circuit()
        ckt.vsource("V1", "a", "0", Sine(1.0, 99e6))
        ckt.resistor("R1", "a", "0", 1.0)
        sys = ckt.compile()
        grid = MPDEGrid([Axis("fourier", 1e6, 16)])
        with pytest.raises(ValueError, match="resolves"):
            grid.excitation(sys)


def _modulator():
    from repro.rf import ModulatorSpec, quadrature_modulator

    return quadrature_modulator(ModulatorSpec())


def _diode_ladder(stages=12):
    ckt = Circuit("diode ladder")
    ckt.vsource("V1", "n0", "0", Sine(0.8, 50e6))
    ckt.vsource("Vb", "vb", "0", 0.3)
    for k in range(stages):
        ckt.resistor(f"R{k}", f"n{k}", f"n{k+1}", 150.0)
        ckt.diode(f"D{k}", f"n{k+1}", "0", isat=1e-13)
        ckt.resistor(f"Rb{k}", "vb", f"n{k+1}", 5e3)
        ckt.capacitor(f"C{k}", f"n{k+1}", "0", 3e-12)
    return ckt.compile()


class TestCoreHelpers:
    @pytest.mark.parametrize(
        "make", [_modulator, _pc_host, _diode_ladder], ids=["modulator", "pc_host", "ladder"]
    )
    @pytest.mark.parametrize("m", [1, 7, 64])
    def test_block_pattern_matches_coo_build(self, make, m):
        system = make()
        rows, cols = system.jacobian_pattern()
        # these patterns repeat (row, col) pairs, so the slot sums matter
        assert np.unique(rows * system.n + cols).size < rows.size
        assert_block_pattern_matches_coo(system, m, np.random.default_rng(m))

    def test_modulator_pattern_repeats_entries(self):
        system = _modulator()
        rows, cols = system.jacobian_pattern()
        assert (rows.size, np.unique(rows * system.n + cols).size) == (102, 68)

    def test_block_diag_assembly(self):
        from repro.mpde.mpde_core import _BlockDiagPattern

        pattern = (np.array([0, 1, 1]), np.array([0, 0, 1]))
        vals = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]])
        M = _BlockDiagPattern(pattern, n=2, m=2).matrix(vals).toarray()
        expect = np.array(
            [
                [1.0, 0, 0, 0],
                [2.0, 3.0, 0, 0],
                [0, 0, 10.0, 0],
                [0, 0, 20.0, 30.0],
            ]
        )
        np.testing.assert_array_equal(M, expect)

    def test_circulant_matches_fft_application(self):
        from repro.mpde.mpde_core import _circulant_matrix

        ax = Axis("fourier", 2.0, 8)
        eigs = ax.deriv_eigenvalues()
        D = _circulant_matrix(eigs).toarray()
        rng = np.random.default_rng(0)
        x = rng.standard_normal(8)
        via_fft = np.real(np.fft.ifft(eigs * np.fft.fft(x)))
        np.testing.assert_allclose(D @ x, via_fft, atol=1e-12)

    def test_circulant_complex_offset(self):
        from repro.mpde.mpde_core import _circulant_matrix

        ax = Axis("fourier", 2.0, 8)
        eigs = ax.deriv_eigenvalues() + 1j * 3.0
        D = _circulant_matrix(eigs)
        assert np.iscomplexobj(D.toarray())
        x = np.arange(8.0)
        via_fft = np.fft.ifft(eigs * np.fft.fft(x))
        np.testing.assert_allclose(D @ x, via_fft, atol=1e-10)

    def test_fd_circulant_is_banded(self):
        from repro.mpde.mpde_core import _circulant_matrix

        ax = Axis("fd", 1.0, 64)
        D = _circulant_matrix(ax.deriv_eigenvalues())
        assert D.nnz == 2 * 64  # backward difference: two bands


def _spectrum_by_bin(sol, node):
    """Reference for ``MPDESolution.spectrum``: one grid bin at a time."""
    H = sol.harmonics(node)
    out = {}
    for flat_idx in range(H.size):
        multi = np.unravel_index(flat_idx, H.shape)
        f_phys = 0.0
        for a, ax in enumerate(sol.grid.axes):
            k = np.fft.fftfreq(ax.size, d=1.0 / ax.size)[multi[a]]
            f_phys += k * ax.freq
        key = abs(round(f_phys, 6))
        out[key] = out.get(key, 0.0) + abs(H[multi])
    return sorted(out.items())


class TestSpectrum:
    @pytest.mark.parametrize("case", ["modulator-hb", "mfdtd"])
    def test_matches_per_bin_reference(self, case):
        from repro.hb import harmonic_balance
        from repro.mpde import solve_mfdtd
        from repro.rf import ModulatorSpec

        if case == "modulator-hb":
            spec = ModulatorSpec()
            sol = harmonic_balance(
                _modulator(), freqs=[spec.f_bb, spec.f_ref], harmonics=[3, 10]
            ).solution
            node = "rfp"
        else:
            sol = solve_mfdtd(small_mixer(), freqs=[100e3, 10e6], sizes=[8, 32])
            assert [ax.kind for ax in sol.grid.axes] == ["fd", "fd"]
            node = "out"
        got, ref = sol.spectrum(node), _spectrum_by_bin(sol, node)
        assert [f for f, _ in got] == [f for f, _ in ref]
        np.testing.assert_allclose(
            [a for _, a in got], [a for _, a in ref], rtol=1e-14, atol=0
        )

"""Harmonic balance tests: linear exactness, nonlinear cross-checks,
multi-tone intermodulation, solver variants, frequency-domain blocks."""

import numpy as np
import pytest

from repro.analysis import ac_analysis, shooting_analysis
from repro.hb import FrequencyDomainBlock, harmonic_balance, hb_grid
from repro.mpde import MPDEOptions
from repro.netlist import Circuit, MultiTone, Sine


class TestSingleTone:
    def test_linear_rc_exact(self, rc_lowpass, rc_theory_gain):
        hb = harmonic_balance(rc_lowpass, harmonics=4)
        np.testing.assert_allclose(
            hb.amplitude_at("out", (1,)), rc_theory_gain, rtol=1e-10
        )

    def test_matches_ac_phase(self, rc_lowpass):
        hb = harmonic_balance(rc_lowpass, harmonics=4)
        ac = ac_analysis(rc_lowpass, "V1", [1e6])
        h1 = hb.harmonics("out")
        k1 = 1  # fundamental bin
        # hb coefficient multiplies exp(j w t); source is sin -> -j/2 ref
        ratio = h1[(k1,)] / (-0.5j * ac.voltage(rc_lowpass, "out")[0])
        np.testing.assert_allclose(ratio, 1.0, rtol=1e-8)

    def test_rectifier_matches_shooting(self, diode_rectifier):
        hb = harmonic_balance(diode_rectifier, harmonics=24)
        sh = shooting_analysis(diode_rectifier, period=1e-6, steps_per_period=800)
        v_hb_dc = hb.amplitude_at("out", (0,))
        v_sh_dc = sh.voltage(diode_rectifier, "out").mean()
        np.testing.assert_allclose(v_hb_dc, v_sh_dc, rtol=2e-3)

    def test_harmonic_decay(self, diode_rectifier):
        hb = harmonic_balance(diode_rectifier, harmonics=24)
        amps = [hb.amplitude_at("out", (k,)) for k in range(1, 12)]
        assert amps[0] > amps[4] > amps[9]

    def test_default_freq_discovery(self, rc_lowpass):
        hb = harmonic_balance(rc_lowpass)  # no freqs given
        assert hb.grid.axes[0].freq == 1e6

    def test_no_sources_raises(self):
        ckt = Circuit()
        ckt.resistor("R1", "a", "0", 1.0)
        ckt.capacitor("C1", "a", "0", 1e-9)
        with pytest.raises(ValueError, match="no AC sources"):
            harmonic_balance(ckt.compile())


class TestSolverVariants:
    def test_direct_and_gmres_agree(self, diode_rectifier):
        direct = harmonic_balance(
            diode_rectifier, harmonics=10, options=MPDEOptions(solver="direct")
        )
        krylov = harmonic_balance(
            diode_rectifier, harmonics=10, options=MPDEOptions(solver="gmres")
        )
        np.testing.assert_allclose(
            direct.amplitude_at("out", (0,)), krylov.amplitude_at("out", (0,)), rtol=1e-7
        )
        assert krylov.gmres_iterations > 0
        assert direct.gmres_iterations == 0

    def test_ramping_fallback(self):
        # hard drive: big sine straight into diode stack
        ckt = Circuit()
        ckt.vsource("V1", "in", "0", Sine(5.0, 1e6))
        ckt.resistor("R1", "in", "a", 50.0)
        ckt.diode("D1", "a", "b")
        ckt.diode("D2", "b", "0")
        ckt.capacitor("C1", "a", "0", 1e-12)
        ckt.capacitor("C2", "b", "0", 1e-12)
        sys = ckt.compile()
        hb = harmonic_balance(
            sys, harmonics=16, options=MPDEOptions(ramp_steps=6)
        )
        assert hb.residual_norm < 1e-6

    def test_singular_averaged_block_reaches_escalation_ladder(self):
        """Node ``a`` reaches ground only through capacitors, so the
        averaged circuit is singular at DC.  Every rung must fail on a
        recorded, recoverable error and ``best_effort`` must return an
        unconverged result; the coarse continuation sub-solve must honour
        ``on_invalid`` instead of re-linting with ``"raise"``."""
        ckt = Circuit("capacitive node")
        ckt.vsource("V1", "in", "0", Sine(1.0, 1e6))
        ckt.resistor("R1", "in", "b", 1e3)
        ckt.capacitor("C1", "b", "a", 1e-9)
        ckt.capacitor("C2", "a", "0", 1e-9)
        ckt.diode("D1", "b", "0")
        sys = ckt.compile()
        hb = harmonic_balance(
            sys,
            harmonics=40,
            on_invalid="ignore",
            options=MPDEOptions(solver="gmres"),
            on_failure="best_effort",
        )
        assert hb.converged is False
        errors = {a.strategy: a.failure_cause for a in hb.report.attempts}
        assert list(errors) == ["direct", "source-ramp", "harmonic-continuation"]
        assert errors["direct"].startswith("LinAlgError")
        assert errors["source-ramp"].startswith("LinAlgError")
        assert errors["harmonic-continuation"].startswith("SolveFailure")


class TestTwoTone:
    def make_two_tone_amp(self, a=0.05):
        """Weakly nonlinear diode 'amplifier' driven by two close tones."""
        ckt = Circuit()
        ckt.vsource(
            "V1", "in", "0", MultiTone([(a, 1e6, 0.0), (a, 1.2e6, 0.0)])
        )
        ckt.resistor("R1", "in", "d", 200.0)
        ckt.diode("D1", "d", "0")
        ckt.vsource("Vb", "bias", "0", 0.7)
        ckt.resistor("Rb", "bias", "d", 200.0)
        return ckt.compile()

    def test_im3_location_and_scaling(self):
        sys_lo = self.make_two_tone_amp(a=0.02)
        sys_hi = self.make_two_tone_amp(a=0.04)
        hb_lo = harmonic_balance(sys_lo, freqs=[1e6, 1.2e6], harmonics=[4, 4])
        hb_hi = harmonic_balance(sys_hi, freqs=[1e6, 1.2e6], harmonics=[4, 4])
        # IM3 at 2f1 - f2 grows ~ 3x in dB terms when drive doubles
        im3_lo = hb_lo.amplitude_at("d", (2, -1))
        im3_hi = hb_hi.amplitude_at("d", (2, -1))
        fund_lo = hb_lo.amplitude_at("d", (1, 0))
        fund_hi = hb_hi.amplitude_at("d", (1, 0))
        growth_fund = 20 * np.log10(fund_hi / fund_lo)
        growth_im3 = 20 * np.log10(im3_hi / im3_lo)
        assert 4.0 < growth_fund < 8.0  # ~6 dB
        assert 14.0 < growth_im3 < 22.0  # ~18 dB

    def test_spectrum_lists_mix_products(self):
        sys = self.make_two_tone_amp()
        hb = harmonic_balance(sys, freqs=[1e6, 1.2e6], harmonics=[3, 3])
        freqs = [f for f, a in hb.spectrum("d") if a > 1e-8]
        assert any(abs(f - 0.2e6) < 1 for f in freqs)  # f2 - f1 beat
        assert any(abs(f - 2.2e6) < 1 for f in freqs)  # f1 + f2

    def test_dbc_helper(self):
        sys = self.make_two_tone_amp()
        hb = harmonic_balance(sys, freqs=[1e6, 1.2e6], harmonics=[3, 3])
        assert hb.dbc("d", (2, -1), (1, 0)) < -20.0


class TestFrequencyDomainBlocks:
    def test_fd_block_matches_inline_rc(self):
        """A shunt RC attached as Y(omega) must match the native element."""
        r_val, c_val = 200.0, 2e-9

        def build(native):
            ckt = Circuit()
            ckt.vsource("V1", "in", "0", Sine(0.5, 1e6))
            ckt.resistor("Rs", "in", "out", 100.0)
            ckt.diode("D1", "out", "0")  # some nonlinearity at the port
            if native:
                ckt.resistor("Rl", "out", "0", r_val)
                ckt.capacitor("Cl", "out", "0", c_val)
            return ckt.compile()

        sys_native = build(True)
        hb_native = harmonic_balance(sys_native, harmonics=12)

        sys_fd = build(False)

        def admittance(omega):
            omega = np.atleast_1d(omega)
            y = 1.0 / r_val + 1j * omega * c_val
            return y.reshape(-1, 1, 1)

        blk = FrequencyDomainBlock(
            ports=np.array([sys_fd.node("out")]), admittance=admittance
        )
        hb_fd = harmonic_balance(sys_fd, harmonics=12, fd_blocks=[blk])
        for k in range(4):
            np.testing.assert_allclose(
                hb_fd.amplitude_at("out", (k,)),
                hb_native.amplitude_at("out", (k,)),
                rtol=1e-6,
                atol=1e-12,
            )

    def test_fd_block_requires_fourier_axes(self):
        from repro.mpde import Axis, MPDEGrid, solve_mpde

        ckt = Circuit()
        ckt.vsource("V1", "in", "0", Sine(0.5, 1e6))
        ckt.resistor("R1", "in", "out", 100.0)
        ckt.capacitor("C1", "out", "0", 1e-9)
        sys = ckt.compile()
        blk = FrequencyDomainBlock(
            ports=np.array([sys.node("out")]),
            admittance=lambda w: (1e-3 + 0j) * np.ones((np.atleast_1d(w).size, 1, 1)),
        )
        grid = MPDEGrid([Axis("fd", 1e6, 16)])
        with pytest.raises(ValueError, match="Fourier"):
            solve_mpde(sys, grid, fd_blocks=[blk])


class TestHBGrid:
    def test_grid_sizing(self):
        grid = hb_grid([1e6], [8])
        assert grid.axes[0].size >= 32  # 4x oversampling

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            hb_grid([1e6, 2e6], [4])

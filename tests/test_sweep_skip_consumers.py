"""Skip-slot handling in every ``sweep_map`` consumer.

``on_item_failure="skip"`` quarantines a failing sweep item and leaves a
``None`` in its result slot.  Consumers used to crash on that ``None``
(or worse, silently mis-shape their output); now each one either keeps
its output shape with visible NaN holes (AC, Monte-Carlo, ROM transfer)
or refuses loudly with :class:`~repro.perf.SweepItemSkipped` when a hole
would make the result *wrong* rather than incomplete (HB sweep slot
access, EM assembly/extraction).  Faults are injected with the chaos
harness so the skip path is exercised exactly as production would see
it — the item fails persistently, retries exhaust, the engine skips.
"""

import numpy as np
import pytest

from repro.analysis.ac import ac_analysis
from repro.perf import SkippedSlot, SweepItemSkipped
from repro.robust import Chaos, ChaosSpec, chaos_scope

SKIP = {"on_item_failure": "skip", "retries": 0}


def _persistent_fault(index, tmp_path):
    """A fault that never heals: retries exhaust, the engine skips."""
    return Chaos(tmp_path, items={index: ChaosSpec(kind="error", times=99)})


class TestACSkip:
    def test_nan_column_and_note(self, rc_lowpass, tmp_path):
        freqs = [1e3, 1e5, 1e7]
        clean = ac_analysis(rc_lowpass, "V1", freqs)
        with chaos_scope(_persistent_fault(1, tmp_path)):
            res = ac_analysis(rc_lowpass, "V1", freqs, sweep_options=dict(SKIP))
        assert res.skipped == (1,)
        assert np.all(np.isnan(res.X[:, 1]))
        # surviving columns are untouched
        np.testing.assert_array_equal(res.X[:, 0], clean.X[:, 0])
        np.testing.assert_array_equal(res.X[:, 2], clean.X[:, 2])
        assert any("skipped" in note for note in res.notes)

    def test_clean_run_reports_nothing(self, rc_lowpass):
        res = ac_analysis(rc_lowpass, "V1", [1e3, 1e5])
        assert res.skipped == ()
        assert res.notes == ()


class TestHBSweepSkip:
    def _system(self):
        from repro.netlist import Circuit, Sine

        ckt = Circuit("hb")
        ckt.vsource("V1", "in", "0", Sine(offset=0.2, amplitude=0.4, freq=1e6))
        ckt.resistor("R1", "in", "out", 1e3)
        ckt.capacitor("C1", "out", "0", 1e-12)
        ckt.diode("D1", "out", "0")
        return ckt.compile()

    def test_skipped_point_becomes_placeholder(self, tmp_path):
        from repro.hb.hb_core import hb_sweep

        system = self._system()
        points = [{"harmonics": [2]}, {"harmonics": [3]}]
        with chaos_scope(_persistent_fault(0, tmp_path)):
            results = hb_sweep(
                system, points, freqs=[1e6], sweep_options=dict(SKIP)
            )
        assert isinstance(results[0], SkippedSlot)
        assert not results[0]  # falsy, so `if res:` filters naturally
        # the surviving point is a real solution
        assert np.all(np.isfinite(results[1].solution.x))
        # attribute access on the hole fails loudly, with the context
        with pytest.raises(SweepItemSkipped, match="hb_sweep"):
            results[0].solution


class TestMonteCarloSkip:
    def test_nan_path_block_keeps_shape(self, tmp_path):
        from repro.phasenoise import VanDerPol
        from repro.phasenoise.montecarlo import _PATH_CHUNK, simulate_sde_ensemble

        vdp = VanDerPol(mu=0.2, sigma=0.05)
        x0 = np.array([2.0, 0.0])
        n_paths = 3 * _PATH_CHUNK
        _, clean = simulate_sde_ensemble(vdp, x0, 5.0, 100, n_paths, seed=7)
        with chaos_scope(_persistent_fault(1, tmp_path)):
            _, holes = simulate_sde_ensemble(
                vdp, x0, 5.0, 100, n_paths, seed=7, sweep_options=dict(SKIP)
            )
        assert holes.shape == clean.shape
        block = slice(_PATH_CHUNK, 2 * _PATH_CHUNK)
        assert np.all(np.isnan(holes[:, block]))
        np.testing.assert_array_equal(holes[:, : _PATH_CHUNK], clean[:, : _PATH_CHUNK])
        np.testing.assert_array_equal(
            holes[:, 2 * _PATH_CHUNK :], clean[:, 2 * _PATH_CHUNK :]
        )


class TestROMTransferSkip:
    def _descriptor(self):
        from repro.netlist import Circuit
        from repro.rom import port_descriptor

        ckt = Circuit("rom")
        ckt.vsource("P1", "p", "0", 0.0)
        ckt.resistor("R1", "p", "a", 50.0)
        ckt.capacitor("C1", "a", "0", 1e-12)
        ckt.inductor("L1", "a", "0", 1e-9)
        return port_descriptor(ckt.compile(), ["P1"])

    def test_nan_block_and_report_note(self, tmp_path):
        from repro.robust.report import SolveReport

        desc = self._descriptor()
        s_vals = 2j * np.pi * np.logspace(6, 9, 4)
        clean = desc.transfer(s_vals)
        report = SolveReport(analysis="rom")
        with chaos_scope(_persistent_fault(2, tmp_path)):
            holes = desc.transfer(
                s_vals, report=report, sweep_options=dict(SKIP)
            )
        assert holes.shape == clean.shape
        assert np.all(np.isnan(holes[2]))
        np.testing.assert_array_equal(holes[0], clean[0])
        np.testing.assert_array_equal(holes[3], clean[3])
        assert any("skipped" in note for note in report.notes)


class TestEMSkipRefusal:
    """A hole in an EM operator is wrong, not incomplete: refuse loudly."""

    def _panels(self):
        from repro.em import conductor_bus

        return conductor_bus(2, 2e-6, 60e-6, 6e-6, 1, 8)

    def test_dense_assembly_raises(self, tmp_path):
        from repro.em.kernels import PanelKernel

        kern = PanelKernel(self._panels())
        with chaos_scope(_persistent_fault(0, tmp_path)):
            with pytest.raises(SweepItemSkipped, match="row-block assembly"):
                kern.dense(sweep_options=dict(SKIP))

    def test_ies3_compression_raises(self, tmp_path):
        from repro.em.ies3 import compress_operator
        from repro.em.kernels import PanelKernel

        kern = PanelKernel(self._panels())
        with chaos_scope(_persistent_fault(0, tmp_path)):
            with pytest.raises(SweepItemSkipped, match="IES3"):
                compress_operator(
                    kern.block, kern.centers, leaf_size=4,
                    sweep_options=dict(SKIP),
                )

    def test_fast_extraction_raises(self, tmp_path):
        from repro.em.mom import capacitance_matrix_fast

        # fault far enough in to hit the per-conductor excitation sweep
        # on at least some schedules; either sweep refusing is correct
        with chaos_scope(_persistent_fault(0, tmp_path)):
            with pytest.raises(SweepItemSkipped):
                capacitance_matrix_fast(
                    self._panels(), leaf_size=4, sweep_options=dict(SKIP)
                )

"""Contracts of the HB Newton step's single device pass per iterate.

* every residual pass fills the iterate's batch Jacobian values, and the
  accepted iterate's values build the next Newton step's matrices: a
  Figure 1 modulator solve makes as many grid-sized device passes as
  residual evaluations (3), and the carried values equal a fresh
  ``batch_jacobians`` at the same iterate bit for bit;
* the device pass scatters a group's f/q rows rank by rank (no row
  repeats within a rank), bit-identical to the per-device reference;
* the block-diagonal pattern is compiled once per (Jacobian pattern,
  grid size);
* GMRES started from zero takes ``b`` as its first residual without a
  matvec.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.mpde.mpde_core as mpde_core
from repro.hb import harmonic_balance
from repro.linalg import gmres
from repro.mpde import MPDEOptions
from repro.netlist import VCCS, Circuit, Sine
from repro.netlist.mna import MNASystem
from repro.rf import ModulatorSpec, quadrature_modulator
from repro.robust import FaultClock, FaultyMNASystem, inject_nan

from . import test_properties
from .stamp_reference import ReferenceMNASystem

SPEC = ModulatorSpec()
MOD_FREQS, MOD_HARMONICS = [SPEC.f_bb, SPEC.f_ref], [3, 10]


@pytest.fixture(scope="module")
def modulator():
    return quadrature_modulator(SPEC)


def _spy(monkeypatch, owner, name, record):
    """Wrap ``owner.name`` so every call appends ``record(args, out)``."""
    orig = getattr(owner, name)
    calls = []

    def wrapper(*args, **kwargs):
        out = orig(*args, **kwargs)
        calls.append(record(args, out))
        return out

    monkeypatch.setattr(owner, name, wrapper)
    return calls


class TestOnePassPerIterate:
    def test_modulator_solve_passes_equal_residuals(self, modulator, monkeypatch):
        harmonic_balance(modulator, freqs=MOD_FREQS, harmonics=MOD_HARMONICS)  # warm
        passes = _spy(
            monkeypatch, MNASystem, "_device_pass", lambda args, out: args[1].shape[1]
        )
        residuals = _spy(
            monkeypatch, mpde_core._MPDEProblem, "residual",
            lambda args, out: (args[0].grid, args[1].copy(), out[1]),
        )
        hb = harmonic_balance(modulator, freqs=MOD_FREQS, harmonics=MOD_HARMONICS)
        monkeypatch.undo()
        assert hb.converged and hb.solution.solver == "gmres"
        assert (hb.newton_iterations, hb.gmres_iterations) == (2, 4)
        m = residuals[0][0].total
        assert m == 1024
        # the parent made 5 grid passes: 3 residuals + 2 batch_jacobians
        assert len(residuals) == 3
        assert [p for p in passes if p == m] == [m] * len(residuals)
        for grid, x, (g_vals, c_vals) in residuals:
            fresh = modulator.batch_jacobians(grid.columns(x, modulator.n))
            np.testing.assert_array_equal(g_vals, fresh[0])
            np.testing.assert_array_equal(c_vals, fresh[1])

    def test_batch_fq_jacobians_match_batch_jacobians(self, modulator):
        X = np.random.default_rng(3).normal(scale=0.5, size=(modulator.n, 40))
        f, q, g_vals, c_vals = modulator.batch_fq(X, jacobians=True)
        for got, want in zip((f, q), modulator.batch_fq(X)):
            np.testing.assert_array_equal(got, want)
        for got, want in zip((g_vals, c_vals), modulator.batch_jacobians(X)):
            np.testing.assert_array_equal(got, want)

    def test_fault_on_batch_jacobians_reaches_hb(self):
        ckt = Circuit("rc")
        ckt.vsource("V1", "in", "0", Sine(1.0, 1e6))
        ckt.resistor("R1", "in", "out", 1e3)
        ckt.capacitor("C1", "out", "0", 1e-9)
        system = ckt.compile()
        clock = FaultClock(start=1, count=1)
        bad = FaultyMNASystem(
            system, batch_jacobians=inject_nan(system.batch_jacobians, clock)
        )
        # the residual's fused pass takes its Jacobian values from the
        # override, so the first iterate's matrices are poisoned
        res = harmonic_balance(
            bad, freqs=[1e6], harmonics=4, options=MPDEOptions(solver="gmres")
        )
        assert clock.fired == 1
        assert res.converged
        assert res.report.attempts[0].strategy == "direct"
        assert not res.report.attempts[0].converged
        assert res.report.strategy == "source-ramp"


class TestRankedScatter:
    def test_modulator_switch_group_has_several_ranks(self, modulator):
        # the switch quads share their IF/RF output rows
        (group,) = [g for g in modulator._nl_groups if len(g.devices) == 12]
        assert len(group.ranks) == 4
        rows = np.concatenate([r for r, _ in group.ranks])
        np.testing.assert_array_equal(np.sort(rows), np.sort(group.eq_rows))
        for r, _ in group.ranks:
            assert np.unique(r).size == r.size

    @pytest.mark.parametrize("m", [1, 7, 1024])
    def test_modulator_matches_reference(self, modulator, m):
        ref = ReferenceMNASystem.like(modulator)
        X = np.random.default_rng(m).normal(scale=0.7, size=(modulator.n, m))
        for got, want in zip(modulator.batch_fq(X), ref.batch_fq(X)):
            np.testing.assert_array_equal(got, want)

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_devices=st.integers(min_value=6, max_value=14),
        m=st.sampled_from([1, 3, 300]),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_circuits_match_reference(self, seed, n_devices, m):
        # TestVectorizedStamping's generator with up to 300 samples, so
        # groups that share KCL rows take the rank-by-rank scatter too
        # (their small-m evaluations take np.add.at)
        rng = np.random.default_rng(seed)
        make = test_properties.TestVectorizedStamping()._random_circuit
        system = make(rng, n_devices).compile()
        ref = ReferenceMNASystem.like(system)
        X = rng.normal(size=(system.n, m))
        for got, want in zip(system.batch_fq(X, jacobians=True), ref.batch_fq(X, jacobians=True)):
            np.testing.assert_array_equal(got, want)

    def test_generator_makes_multi_rank_groups(self):
        make = test_properties.TestVectorizedStamping()._random_circuit
        ranks = [
            len(grp.ranks)
            for seed in range(10)
            for grp in make(np.random.default_rng(seed), 14).compile()._nl_groups
        ]
        assert max(ranks) > 1


class SparseVCCS(VCCS):
    """Drops zero entries, so a zero ``gm`` moves stamp coordinates."""

    def g_stamps(self):
        return [s for s in super().g_stamps() if s[2] != 0.0]


class TestBlockPatternCache:
    @staticmethod
    def _circuit():
        ckt = Circuit("cache")
        ckt.vsource("V1", "a", "0", Sine(0.5, 1e6))
        ckt.resistor("R1", "a", "b", 1e3)
        ckt.diode("D1", "b", "0")
        ckt.capacitor("C1", "b", "0", 1e-10)
        gm = ckt.add(SparseVCCS("G1", "b", "0", "a", "0", 1e-4))
        return ckt.compile(), gm

    def test_built_once_per_structure_and_grid(self, monkeypatch):
        system, gm = self._circuit()
        builds = _spy(
            monkeypatch, mpde_core._BlockDiagPattern, "__init__",
            lambda args, out: args[3],
        )
        first = harmonic_balance(system, freqs=[1e6], harmonics=4)
        harmonic_balance(system, freqs=[1e6], harmonics=4)
        assert builds == [first.solution.grid.total]
        # a values-only restamp keeps the pattern
        gm.set_param("gm", 2e-4)
        system.refresh_stamps(linear=True)
        harmonic_balance(system, freqs=[1e6], harmonics=4)
        assert len(builds) == 1
        # another grid size compiles its own
        harmonic_balance(system, freqs=[1e6], harmonics=6)
        assert len(builds) == 2 and builds[1] != builds[0]
        # moved stamp coordinates compile a new pattern
        pattern = system.jacobian_pattern()
        gm.set_param("gm", 0.0)
        system.refresh_stamps(linear=True)
        assert system.jacobian_pattern() is not pattern
        res = harmonic_balance(system, freqs=[1e6], harmonics=6)
        assert len(builds) == 3 and builds[2] == builds[1]
        assert res.converged

    def test_pattern_is_shared_and_read_only(self):
        system, _ = self._circuit()
        rows, cols = system.jacobian_pattern()
        assert system.jacobian_pattern()[0] is rows
        with pytest.raises(ValueError):
            rows[0] = 0


class TestGMRESZeroStart:
    @pytest.mark.parametrize("restart", [3, 40])
    def test_one_matvec_fewer_same_bits(self, restart):
        rng = np.random.default_rng(restart)
        n = 40
        A = np.eye(n) * 4.0 + rng.normal(scale=0.3, size=(n, n))
        b = rng.normal(size=n)
        counts = []

        def solve(**kw):
            calls = [0]

            def matvec(v):
                calls[0] += 1
                return A @ v

            res = gmres(matvec, b, tol=1e-12, restart=restart, **kw)
            counts.append(calls[0])
            return res

        none, zero = solve(), solve(x0=np.zeros_like(b))
        assert none.converged and zero.converged
        assert counts[0] == counts[1] - 1
        np.testing.assert_array_equal(none.x, zero.x)
        assert none.residuals == zero.residuals
        assert none.iterations == zero.iterations
        if restart == 40:
            # one cycle: an Arnoldi matvec per iteration plus the final
            # true-residual check
            assert counts[0] == none.iterations + 1

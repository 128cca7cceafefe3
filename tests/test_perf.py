"""Tests for the performance layer (repro.perf) and its adopters.

Covers the factor cache, modified Newton with fail-closed staleness
handling, the O(1) branch-index lookup, transient LU-reuse invalidation
on rejected steps, and serial/parallel equivalence of every sweep
adopter (AC, Monte-Carlo phase noise, ROM transfer, EM panel assembly).
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.analysis import ac_analysis, transient_analysis
from repro.analysis.transient import TransientResult
from repro.em.geometry import make_plate
from repro.em.kernels import PanelKernel
from repro.linalg import ConvergenceError, NewtonOptions, newton_solve
from repro.netlist import Circuit, Sine
from repro.perf import FactorCache, PerfCounters, make_factor_solver, sweep_map
from repro.phasenoise import VanDerPol
from repro.phasenoise.montecarlo import simulate_sde_ensemble
from repro.robust import SolveReport
from repro.robust.faultinject import FaultClock, FaultyMNASystem, inject_nan
from repro.rom import port_descriptor


# ---------------------------------------------------------------------------
# FactorCache / make_factor_solver
# ---------------------------------------------------------------------------
class TestFactorCache:
    def test_solver_matches_direct_solve(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((6, 6)) + 6 * np.eye(6)
        b = rng.standard_normal(6)
        np.testing.assert_allclose(make_factor_solver(A)(b), np.linalg.solve(A, b))
        As = sp.csr_matrix(A)
        np.testing.assert_allclose(make_factor_solver(As)(b), np.linalg.solve(A, b))

    def test_hit_miss_counting(self):
        cache = FactorCache()
        assert cache.get("k") is None
        cache.store("k", lambda r: r)
        assert cache.get("k") is not None
        assert cache.hits == 1 and cache.misses == 1
        assert "k" in cache and len(cache) == 1

    def test_lru_eviction(self):
        cache = FactorCache(max_entries=2)
        cache.store("a", lambda r: r)
        cache.store("b", lambda r: r)
        cache.get("a")  # refresh a: b becomes least-recently-used
        cache.store("c", lambda r: r)
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.counters.factor_invalidations == 1

    def test_invalidate(self):
        cache = FactorCache()
        cache.store("a", lambda r: r)
        cache.store("b", lambda r: r)
        assert cache.invalidate("a") == 1
        assert cache.invalidate("a") == 0
        assert cache.invalidate() == 1
        assert len(cache) == 0

    def test_factor_builds_once(self):
        calls = []
        A = 4 * np.eye(3)

        def build():
            calls.append(1)
            return A

        cache = FactorCache()
        s1, cached1 = cache.factor("k", build)
        s2, cached2 = cache.factor("k", build)
        assert (cached1, cached2) == (False, True)
        assert len(calls) == 1
        np.testing.assert_allclose(s2(np.ones(3)), 0.25 * np.ones(3))


# ---------------------------------------------------------------------------
# sweep_map
# ---------------------------------------------------------------------------
class TestSweepMap:
    def test_preserves_order(self):
        items = list(range(40))
        assert sweep_map(lambda x: x * x, items, workers=4) == [x * x for x in items]

    def test_stats_and_serial(self):
        stats = {}
        sweep_map(lambda x: x, [1, 2, 3], workers=1, stats=stats)
        assert stats == {
            "workers": 1,
            "tasks": 3,
            "attempted": 3,
            "backend": "serial",
        }
        stats = {}
        sweep_map(lambda x: x, [1, 2, 3], workers=8, stats=stats)
        assert stats["workers"] == 3  # capped by item count
        assert stats["attempted"] == 3
        assert stats["backend"] == "thread"

    def test_exception_propagates(self):
        def boom(x):
            if x == 2:
                raise ValueError("item 2")
            return x

        with pytest.raises(ValueError, match="item 2"):
            sweep_map(boom, [1, 2, 3], workers=2)
        with pytest.raises(ValueError, match="item 2"):
            sweep_map(boom, [1, 2, 3], workers=1)

    def test_stats_filled_on_serial_failure(self):
        def boom(x):
            if x == 2:
                raise ValueError("item 2")
            return x

        stats = {}
        with pytest.raises(ValueError, match="item 2"):
            sweep_map(boom, [1, 2, 3], workers=1, stats=stats)
        # items 1 and 2 started before the failure; 3 never ran
        assert stats == {
            "workers": 1,
            "tasks": 3,
            "attempted": 2,
            "backend": "serial",
        }

    def test_stats_filled_on_threaded_failure(self):
        def boom(x):
            if x == 2:
                raise ValueError("item 2")
            return x

        stats = {}
        with pytest.raises(ValueError, match="item 2"):
            sweep_map(boom, [1, 2, 3], workers=2, backend="thread", stats=stats)
        # all items were submitted to the pool before the failure surfaced
        assert stats == {
            "workers": 2,
            "tasks": 3,
            "attempted": 3,
            "backend": "thread",
        }

    def test_fn_runtimeerror_propagates_under_threads(self):
        # an fn-raised RuntimeError must propagate, not trigger the
        # serial thread-creation fallback (which would re-run items)
        calls = []

        def boom(x):
            calls.append(x)
            raise RuntimeError("from fn")

        with pytest.raises(RuntimeError, match="from fn"):
            sweep_map(boom, [1, 2, 3], workers=2)
        assert sorted(calls) == [1, 2, 3]  # each item ran exactly once

    def test_env_var_resolution(self, monkeypatch):
        from repro.perf.sweep import WORKERS_ENV, resolve_workers

        monkeypatch.setenv(WORKERS_ENV, "3")
        assert resolve_workers(None) == 3
        assert resolve_workers(2) == 2
        monkeypatch.delenv(WORKERS_ENV)
        assert resolve_workers(None) == 1
        # a typo'd env value must fail loudly, not silently run serial
        monkeypatch.setenv(WORKERS_ENV, "junk")
        with pytest.raises(ValueError, match="not an integer"):
            resolve_workers(None)


# ---------------------------------------------------------------------------
# modified Newton
# ---------------------------------------------------------------------------
def _cubic_problem():
    """F(x) = x^3 + x - 2 elementwise; root at x = 1."""

    def residual(x):
        return x**3 + x - 2.0

    def jacobian(x):
        return np.diag(3.0 * x**2 + 1.0)

    return residual, jacobian


class TestModifiedNewton:
    def test_reuse_converges_and_counts(self):
        residual, jacobian = _cubic_problem()
        x0 = np.full(4, 3.0)
        base = newton_solve(residual, jacobian, x0, NewtonOptions())
        mod = newton_solve(
            residual, jacobian, x0, NewtonOptions(reuse_jacobian=4)
        )
        np.testing.assert_allclose(mod.x, base.x, atol=1e-8)
        assert mod.converged
        assert mod.factor_reuses > 0
        assert mod.jacobian_evals < mod.iterations
        assert base.jacobian_evals == base.iterations

    def test_cache_shared_across_solves(self):
        residual, jacobian = _cubic_problem()
        cache = FactorCache()
        r1 = newton_solve(
            residual, jacobian, np.full(2, 1.05),
            factor_cache=cache, cache_key="cubic",
        )
        r2 = newton_solve(
            residual, jacobian, np.full(2, 0.95),
            factor_cache=cache, cache_key="cubic",
        )
        assert r1.converged and r2.converged
        # the second solve starts from the first solve's cached factor
        assert cache.hits >= 1
        assert r2.factor_reuses >= 1

    def test_poisoned_cache_fails_closed(self):
        """A NaN-poisoned cached factorization must be refreshed, not
        escalate: no ConvergenceError escapes, and the bad entry is
        dropped from the cache."""
        residual, jacobian = _cubic_problem()
        cache = FactorCache()
        clock = FaultClock(start=1, count=99)
        good_solver = make_factor_solver(jacobian(np.full(3, 2.0)))
        cache.store("cubic", inject_nan(good_solver, clock))
        res = newton_solve(
            residual, jacobian, np.full(3, 2.0),
            factor_cache=cache, cache_key="cubic",
        )
        assert res.converged
        np.testing.assert_allclose(res.x, np.ones(3), atol=1e-6)
        assert res.stale_refreshes >= 1
        assert cache.counters.factor_invalidations >= 1
        # the refreshed (good) factor replaced the poisoned entry
        good = cache.get("cubic")
        assert good is not None
        assert np.all(np.isfinite(good(np.ones(3))))

    def test_non_descent_stale_step_refreshes(self):
        """A stale factor that yields a residual-increasing step is
        replaced by a fresh Jacobian before any failure escapes."""
        residual, jacobian = _cubic_problem()
        cache = FactorCache()
        # wildly wrong (negated) factorization: steps go uphill
        cache.store("cubic", lambda r: -10.0 * r)
        res = newton_solve(
            residual, jacobian, np.full(2, 2.0),
            factor_cache=cache, cache_key="cubic",
        )
        assert res.converged
        assert res.stale_refreshes >= 1


# ---------------------------------------------------------------------------
# MNASystem.branch O(1) lookup + waveform accessor
# ---------------------------------------------------------------------------
def _rc_circuit():
    ckt = Circuit("rc")
    ckt.vsource("V1", "in", "0", Sine(1.0, 1e6))
    ckt.resistor("R1", "in", "out", 1e3)
    ckt.capacitor("C1", "out", "0", 1e-12)
    ckt.inductor("L1", "out", "0", 1e-6)
    return ckt.compile()


class TestBranchIndex:
    def test_matches_first_occurrence_scan(self):
        system = _rc_circuit()
        for owner in set(system.branch_owner):
            expect = len(system.node_names) + system.branch_owner.index(owner)
            assert system.branch(owner) == expect

    def test_keyerror_lists_available(self):
        system = _rc_circuit()
        with pytest.raises(KeyError) as err:
            system.branch("nope")
        msg = str(err.value)
        assert "no branch current" in msg and "V1" in msg and "L1" in msg

    def test_hit_from_transient_current_accessor(self):
        system = _rc_circuit()
        res = transient_analysis(system, 2e-7, 1e-9)
        i_src = res.current(system, "V1")
        assert isinstance(res, TransientResult)
        assert i_src.shape == res.t.shape
        np.testing.assert_array_equal(i_src, res.X[system.branch("V1")])
        with pytest.raises(KeyError):
            res.current(system, "R1")  # resistors carry no branch current


# ---------------------------------------------------------------------------
# transient LU reuse: rejection invalidation + counters
# ---------------------------------------------------------------------------
class TestTransientReuse:
    def _faulty_rc(self):
        system = _rc_circuit()
        # poison a window of excitation evaluations mid-run (two b calls
        # per trap step attempt): the affected steps reject and back
        # off, which must invalidate the factor cache
        clock = FaultClock(start=120, count=2)
        return FaultyMNASystem(system, b=inject_nan(system.b, clock)), system

    def test_rejected_step_invalidates_and_recovers(self):
        faulty_on, system = self._faulty_rc()
        faulty_off, _ = self._faulty_rc()
        res_on = transient_analysis(faulty_on, 1e-7, 1e-9, reuse_lu=True)
        res_off = transient_analysis(faulty_off, 1e-7, 1e-9, reuse_lu=False)
        assert res_on.converged and res_off.converged
        # the fault schedule is deterministic and the circuit linear
        # (identical Newton trajectories), so the rejection count must
        # be exact and unchanged by LU reuse
        assert res_on.rejected_steps == res_off.rejected_steps
        assert res_on.rejected_steps > 0
        perf = res_on.report.perf
        assert perf["factor_invalidations"] > 0
        assert perf["factor_hits"] > 0
        np.testing.assert_allclose(res_on.X[:, -1], res_off.X[:, -1], atol=1e-6)

    def test_reuse_answers_match_no_reuse(self):
        system = _rc_circuit()
        res_on = transient_analysis(system, 2e-7, 1e-9, reuse_lu=True)
        res_off = transient_analysis(system, 2e-7, 1e-9, reuse_lu=False)
        np.testing.assert_allclose(res_on.X, res_off.X, rtol=1e-6, atol=1e-9)
        perf = res_on.report.perf
        assert perf["factor_hits"] > 0
        assert perf["jacobian_evals_saved"] > 0
        assert res_off.report.perf["factor_hits"] == 0
        assert "stepping" in perf["stage_seconds"]


# ---------------------------------------------------------------------------
# serial vs parallel equivalence of the sweep adopters
# ---------------------------------------------------------------------------
class TestParallelEquivalence:
    def test_ac_sweep(self):
        system = _rc_circuit()
        freqs = np.logspace(3, 9, 25)
        serial = ac_analysis(system, "V1", freqs, workers=1)
        threaded = ac_analysis(system, "V1", freqs, workers=4)
        np.testing.assert_array_equal(serial.X, threaded.X)

    def test_monte_carlo_paths(self):
        vdp = VanDerPol(mu=0.2, sigma=0.05)
        x0 = np.array([2.0, 0.0])
        t1, tr1 = simulate_sde_ensemble(vdp, x0, 20.0, 400, 70, seed=7, workers=1)
        t4, tr4 = simulate_sde_ensemble(vdp, x0, 20.0, 400, 70, seed=7, workers=4)
        np.testing.assert_array_equal(tr1, tr4)
        # different seed still produces a different ensemble
        _, other = simulate_sde_ensemble(vdp, x0, 20.0, 400, 70, seed=8, workers=4)
        assert not np.array_equal(tr1, other)

    def test_rom_transfer_sweep(self):
        ckt = Circuit("rom")
        ckt.vsource("P1", "p", "0", 0.0)
        ckt.resistor("R1", "p", "a", 50.0)
        ckt.capacitor("C1", "a", "0", 1e-12)
        ckt.inductor("L1", "a", "0", 1e-9)
        desc = port_descriptor(ckt.compile(), ["P1"])
        s_vals = 2j * np.pi * np.logspace(6, 10, 20)
        h1 = desc.transfer(s_vals, workers=1)
        h4 = desc.transfer(s_vals, workers=4)
        np.testing.assert_array_equal(h1, h4)

    def test_em_panel_assembly(self):
        panels = make_plate(1.0, 1.0, 12, 12)
        kern = PanelKernel(panels)
        P1 = kern.dense(workers=1)
        kern2 = PanelKernel(panels)
        P4 = kern2.dense(workers=4)
        np.testing.assert_array_equal(P1, P4)
        assert P1.shape == (144, 144)


# ---------------------------------------------------------------------------
# perf counters / report plumbing
# ---------------------------------------------------------------------------
class TestPerfPlumbing:
    def test_counters_merge_and_rate(self):
        a = PerfCounters(factor_hits=3, factor_misses=1, workers=2)
        a.add_stage("x", 1.0)
        b = PerfCounters(factor_hits=1, factor_misses=3, workers=4)
        b.add_stage("x", 0.5)
        a.merge(b)
        assert a.factor_hits == 4 and a.factor_misses == 4
        assert a.hit_rate == 0.5
        assert a.workers == 4
        assert a.stage_seconds["x"] == 1.5

    def test_report_merge_recomputes_hit_rate(self):
        r1 = SolveReport(analysis="a")
        PerfCounters(factor_hits=4, factor_misses=0).attach(r1)
        r2 = SolveReport(analysis="b")
        PerfCounters(factor_hits=0, factor_misses=4).attach(r2)
        r1.merge(r2)
        assert r1.perf["factor_hits"] == 4
        assert r1.perf["factor_misses"] == 4
        assert r1.perf["factor_hit_rate"] == 0.5

    def test_summary_includes_perf_line(self):
        rep = SolveReport(analysis="transient")
        PerfCounters(factor_hits=9, factor_misses=1, jacobian_evals_saved=9).attach(rep)
        assert "factor cache 9 hit / 1 miss" in rep.summary()

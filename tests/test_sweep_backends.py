"""Cross-backend equivalence suite for the sweep executor.

The contract under test (see ``repro.perf.sweep``): for a pure task,
``sweep_map`` returns **bit-identical** results — same values, same
ordering, same attached reports — whichever backend (serial / thread /
process) and worker count (1 / 2 / 4) runs it.  Also locks down the
strict worker/backend validation, the transparent process→thread
fallback for unpicklable tasks, exception propagation, and the stats
accounting every benchmark relies on.
"""

import pickle

import numpy as np
import pytest

from repro.netlist import Circuit, Sine
from repro.perf import BACKENDS, resolve_backend, resolve_workers, sweep_map
from repro.perf.sweep import BACKEND_ENV, WORKERS_ENV, worker_factor_cache
from repro.robust import SolveReport

WORKER_COUNTS = (1, 2, 4)


# --- module-level tasks (picklable, unlike closures/lambdas) ---------------
def _square(x):
    return x * x


def _spectrum(x):
    """Array-returning task: exercises result pickling and FP identity."""
    t = np.linspace(0.0, 1.0, 64)
    return np.sin(2.0 * np.pi * x * t) * np.exp(-0.5 * x * t)


def _boom(x):
    if x == 2:
        raise ValueError(f"boom at {x}")
    return x


class _FactorTask:
    """Task that keys the per-worker factor cache on every item."""

    def __init__(self, A):
        self.A = A

    def __call__(self, k):
        cache = worker_factor_cache()
        solve, _ = cache.factor("A", lambda: self.A)
        return solve(np.full(self.A.shape[0], float(k)))


# ---------------------------------------------------------------------------
# strict configuration validation
# ---------------------------------------------------------------------------
class TestResolveWorkers:
    @pytest.mark.parametrize("bad", [0, -1, -3, 2.5, "x", True, False, [2]])
    def test_rejects_non_positive_and_non_int(self, bad):
        with pytest.raises(ValueError):
            resolve_workers(bad)

    def test_rejects_bad_values_in_sweep_map_too(self):
        for bad in (0, -3, 2.5, "x", True):
            with pytest.raises(ValueError):
                sweep_map(_square, [1, 2, 3], workers=bad)

    def test_env_junk_raises(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "many")
        with pytest.raises(ValueError, match="not an integer"):
            resolve_workers(None)
        monkeypatch.setenv(WORKERS_ENV, "0")
        with pytest.raises(ValueError, match=">= 1"):
            resolve_workers(None)

    def test_accepts_integers(self, monkeypatch):
        assert resolve_workers(1) == 1
        assert resolve_workers(np.int64(3)) == 3
        monkeypatch.setenv(WORKERS_ENV, " 4 ")
        assert resolve_workers(None) == 4
        monkeypatch.setenv(WORKERS_ENV, "")
        assert resolve_workers(None) == 1


class TestResolveBackend:
    def test_default_and_env(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert resolve_backend(None) == "thread"
        monkeypatch.setenv(BACKEND_ENV, "process")
        assert resolve_backend(None) == "process"
        assert resolve_backend("serial") == "serial"  # arg wins over env

    def test_unknown_raises(self, monkeypatch):
        with pytest.raises(ValueError, match="unknown sweep backend"):
            resolve_backend("fibers")
        monkeypatch.setenv(BACKEND_ENV, "gpu")
        with pytest.raises(ValueError, match="unknown sweep backend"):
            resolve_backend(None)
        with pytest.raises(ValueError, match="unknown sweep backend"):
            sweep_map(_square, [1], backend="gpu")


# ---------------------------------------------------------------------------
# bit-identical results across every backend x worker count
# ---------------------------------------------------------------------------
class TestCrossBackendEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_scalar_results_and_ordering(self, backend, workers):
        items = list(range(23))
        expect = [_square(x) for x in items]
        assert sweep_map(_square, items, workers=workers, backend=backend) == expect

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_array_results_bit_identical(self, backend, workers):
        items = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5]
        reference = [_spectrum(x) for x in items]
        got = sweep_map(_spectrum, items, workers=workers, backend=backend)
        assert len(got) == len(reference)
        for r, g in zip(reference, got):
            np.testing.assert_array_equal(r, g)

    @pytest.mark.parametrize("workers", (2, 4))
    def test_process_chunking_never_changes_results(self, workers):
        items = list(range(17))
        expect = [_square(x) for x in items]
        for chunksize in (1, 2, 5, 100):
            got = sweep_map(
                _square, items, workers=workers, backend="process", chunksize=chunksize
            )
            assert got == expect

    def test_report_attachment_identical_across_backends(self):
        from repro.rom import port_descriptor

        ckt = Circuit("rom")
        ckt.vsource("P1", "p", "0", 0.0)
        ckt.resistor("R1", "p", "a", 50.0)
        ckt.capacitor("C1", "a", "0", 1e-12)
        ckt.inductor("L1", "a", "0", 1e-9)
        desc = port_descriptor(ckt.compile(), ["P1"])
        s_vals = 2j * np.pi * np.logspace(6, 10, 12)

        results = {}
        strategies = {}
        for backend in BACKENDS:
            rep = SolveReport(analysis="rom")
            results[backend] = desc.transfer(
                s_vals, workers=4, backend=backend, report=rep
            )
            strategies[backend] = [a.strategy for a in rep.attempts]
        np.testing.assert_array_equal(results["serial"], results["thread"])
        np.testing.assert_array_equal(results["serial"], results["process"])
        # per-point sub-reports merge in frequency order on every backend
        assert strategies["serial"] == strategies["thread"] == strategies["process"]
        assert len(strategies["serial"]) >= s_vals.size

    def test_hb_and_monte_carlo_process_equivalence(self):
        from repro.hb.hb_core import hb_sweep
        from repro.phasenoise import VanDerPol
        from repro.phasenoise.montecarlo import simulate_sde_ensemble

        ckt = Circuit("hb")
        ckt.vsource("V1", "in", "0", Sine(offset=0.2, amplitude=0.4, freq=1e6))
        ckt.resistor("R1", "in", "out", 1e3)
        ckt.capacitor("C1", "out", "0", 1e-12)
        ckt.diode("D1", "out", "0")
        system = ckt.compile()
        points = [{"harmonics": [h]} for h in (3, 4, 5)]
        serial = hb_sweep(system, points, workers=1, freqs=[1e6])
        procs = hb_sweep(system, points, workers=4, backend="process", freqs=[1e6])
        for a, b in zip(serial, procs):
            np.testing.assert_array_equal(a.solution.x, b.solution.x)

        vdp = VanDerPol(mu=0.2, sigma=0.05)
        x0 = np.array([2.0, 0.0])
        _, tr1 = simulate_sde_ensemble(vdp, x0, 10.0, 200, 70, seed=7, workers=1)
        _, trp = simulate_sde_ensemble(
            vdp, x0, 10.0, 200, 70, seed=7, workers=4, backend="process"
        )
        np.testing.assert_array_equal(tr1, trp)


# ---------------------------------------------------------------------------
# exception propagation + stats accounting
# ---------------------------------------------------------------------------
class TestFailurePaths:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_fn_exception_propagates(self, backend, workers):
        with pytest.raises(ValueError, match="boom at 2"):
            sweep_map(_boom, [1, 2, 3], workers=workers, backend=backend)

    def test_process_first_failure_in_item_order_wins(self):
        # items 3 and 5 both raise; the earliest *in item order* surfaces
        with pytest.raises(ValueError, match="boom at 3"):
            sweep_map(
                _boom_many, [2, 3, 4, 5], workers=4, backend="process", chunksize=1
            )

    def test_stats_filled_on_process_failure(self):
        stats = {}
        with pytest.raises(ValueError, match="boom at 2"):
            sweep_map(
                _boom, [1, 2, 3, 4], workers=2, backend="process", stats=stats
            )
        assert stats["tasks"] == 4
        assert stats["backend"] == "process"
        assert stats["workers"] == 2
        # all chunks were submitted before the failure surfaced
        assert stats["attempted"] == 4

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_stats_accounting(self, backend):
        stats = {}
        out = sweep_map(_square, list(range(10)), workers=4, backend=backend, stats=stats)
        assert out == [x * x for x in range(10)]
        assert stats["tasks"] == 10
        assert stats["attempted"] == 10
        if backend == "serial":
            assert stats["workers"] == 1
            assert stats["backend"] == "serial"
        else:
            assert stats["workers"] == 4
            assert stats["backend"] == backend
            assert "backend_requested" not in stats
        if backend == "process":
            assert stats["chunksize"] >= 1

    def test_workers_one_is_not_a_fallback(self):
        stats = {}
        sweep_map(_square, [1, 2, 3], workers=1, backend="process", stats=stats)
        assert stats["backend"] == "serial"
        assert "backend_requested" not in stats


def _boom_many(x):
    if x % 2 == 1:
        raise ValueError(f"boom at {x}")
    return x


# ---------------------------------------------------------------------------
# process-backend specifics: fallback, chunking, worker caches, pickling
# ---------------------------------------------------------------------------
class TestProcessBackend:
    def test_unpicklable_fn_falls_back_to_threads(self):
        captured = 3.0
        stats = {}
        out = sweep_map(
            lambda x: x * captured,
            [1, 2, 3, 4],
            workers=2,
            backend="process",
            stats=stats,
        )
        assert out == [3.0, 6.0, 9.0, 12.0]
        assert stats["backend"] == "thread"
        assert stats["backend_requested"] == "process"

    def test_default_chunksize_amortizes(self):
        stats = {}
        sweep_map(_square, list(range(100)), workers=4, backend="process", stats=stats)
        # ceil(100 / (4 * 4)) = 7
        assert stats["chunksize"] == 7

    def test_worker_cache_counts_ship_back(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((5, 5)) + 5 * np.eye(5)
        stats = {}
        out = sweep_map(
            _FactorTask(A),
            list(range(12)),
            workers=2,
            backend="process",
            stats=stats,
        )
        expect = [np.linalg.solve(A, np.full(5, float(k))) for k in range(12)]
        for e, o in zip(expect, out):
            np.testing.assert_allclose(o, e, rtol=1e-10)
        wc = stats["worker_cache"]
        # every worker factors once, every further item in its chunks hits
        assert wc["factor_misses"] >= 1
        assert wc["factor_hits"] + wc["factor_misses"] == 12

    def test_mna_system_pickle_roundtrip(self):
        ckt = Circuit("pkl")
        ckt.vsource("V1", "in", "0", Sine(offset=0.7, amplitude=0.2, freq=1e6))
        ckt.resistor("R1", "in", "a", 100.0)
        ckt.diode("D1", "a", "0")
        system = ckt.compile()
        clone = pickle.loads(pickle.dumps(system))
        x = np.linspace(-0.1, 0.8, system.n)
        np.testing.assert_array_equal(system.f(x), clone.f(x))
        np.testing.assert_array_equal(
            system.G(x).toarray(), clone.G(x).toarray()
        )
        np.testing.assert_array_equal(system.q(x), clone.q(x))
        for got, want in zip(clone.batch_fq(x), system.batch_fq(x)):
            np.testing.assert_array_equal(got, want)
        assert len(clone.noise_sources) == len(system.noise_sources)

    def test_hbresult_getattr_guard(self):
        from repro.hb.hb_core import HBResult

        shell = object.__new__(HBResult)  # 'solution' not yet assigned
        with pytest.raises(AttributeError):
            shell.solution  # must raise, not recurse

    def test_trace_absorbs_worker_spans(self, tmp_path):
        from repro.trace import disable, enable, get_tracer

        tracer = enable(None)
        try:
            sweep_map(_square, list(range(8)), workers=2, backend="process")
            summary = tracer.summary_since()
            assert summary["spans"].get("sweep.task", {}).get("count") == 8
            assert "sweep.map" in summary["spans"]
        finally:
            disable()


# ---------------------------------------------------------------------------
# fault-tolerance knobs must not perturb results (engine vs legacy paths)
# ---------------------------------------------------------------------------
class TestFaultModeEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("workers", (1, 2))
    def test_fault_knobs_do_not_change_results(self, backend, workers):
        # engaging the resilient per-item engine (deadline + retry budget)
        # must be invisible in the results: same values, same order
        items = [0.5, 1.0, 1.5, 2.0]
        reference = [_spectrum(x) for x in items]
        stats = {}
        got = sweep_map(
            _spectrum,
            items,
            workers=workers,
            backend=backend,
            timeout=60.0,
            on_item_failure="retry",
            stats=stats,
        )
        for r, g in zip(reference, got):
            np.testing.assert_array_equal(r, g)
        assert [r["status"] for r in stats["items"]] == ["ok"] * len(items)
        assert stats["retried"] == 0 and stats["timeouts"] == 0


# ---------------------------------------------------------------------------
# env-driven backend selection (what the CI sweep-backends job exercises)
# ---------------------------------------------------------------------------
class TestEnvSelection:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_env_backend_matches_explicit(self, monkeypatch, backend):
        items = [0.5, 1.5, 2.5, 3.5]
        explicit = sweep_map(_spectrum, items, workers=4, backend=backend)
        monkeypatch.setenv(BACKEND_ENV, backend)
        monkeypatch.setenv(WORKERS_ENV, "4")
        via_env = sweep_map(_spectrum, items)
        for e, v in zip(explicit, via_env):
            np.testing.assert_array_equal(e, v)

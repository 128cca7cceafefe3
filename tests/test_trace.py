"""Tests for the repro.trace span/event tracing layer."""

import json
import threading

import numpy as np
import pytest

from repro.netlist import Circuit, Sine
from repro.perf import sweep_map
from repro.trace import (
    NullTracer,
    Tracer,
    disable,
    enable,
    get_tracer,
    load_trace,
    main,
    spanned,
    span_table,
    traceable,
    using,
)
from repro.trace.tracer import _NULL_SPAN


@pytest.fixture(autouse=True)
def _clean_tracer():
    """Every test starts and ends with the no-op default tracer."""
    disable()
    yield
    disable()


def detector_system():
    ckt = Circuit("detector")
    ckt.vsource("V1", "in", "0", Sine(1.0, 1e6))
    ckt.resistor("R1", "in", "out", 1e3)
    ckt.diode("D1", "out", "0")
    ckt.capacitor("C1", "out", "0", 1e-9)
    return ckt.compile()


# ---------------------------------------------------------------------------
# Tracer core
# ---------------------------------------------------------------------------
class TestTracerCore:
    def test_disabled_default_is_null_singleton(self):
        tr = get_tracer()
        assert isinstance(tr, NullTracer)
        assert tr.enabled is False
        assert tr.span("anything", k=1) is _NULL_SPAN
        assert tr.event("anything") is None
        assert tr.summary_since(tr.mark()) == {}

    def test_null_span_is_reusable_context_manager(self):
        with _NULL_SPAN as sp:
            assert sp.annotate(extra=1) is sp
        with _NULL_SPAN:
            pass

    def test_span_nesting_and_parents(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        tr = Tracer(path)
        with tr.span("outer") as outer:
            with tr.span("inner") as inner:
                assert inner.parent == outer.id
            tr.event("tick")
        tr.close()
        recs = load_trace(path)
        by_name = {r["name"]: r for r in recs}
        assert by_name["inner"]["parent"] == by_name["outer"]["id"]
        assert by_name["outer"]["parent"] is None
        assert by_name["tick"]["span"] == by_name["outer"]["id"]
        # spans close innermost-first, so inner is written before outer
        assert recs.index(by_name["inner"]) < recs.index(by_name["outer"])

    def test_monotonic_timestamps(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        tr = Tracer(path)
        for k in range(5):
            tr.event("e", k=k)
        tr.close()
        times = [r["t"] for r in load_trace(path)]
        assert times == sorted(times)
        assert all(t >= 0.0 for t in times)

    def test_span_error_annotation(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        tr = Tracer(path)
        with pytest.raises(ValueError):
            with tr.span("boom"):
                raise ValueError("oops")
        tr.close()
        (rec,) = load_trace(path)
        assert rec["attrs"]["error"] == "ValueError"

    def test_mark_and_summary_since(self):
        tr = Tracer()  # in-memory only, no file
        with tr.span("a"):
            pass
        mark = tr.mark()
        with tr.span("a"):
            pass
        tr.event("ev")
        summary = tr.summary_since(mark)
        assert summary["spans"]["a"]["count"] == 1
        assert summary["events"] == {"ev": 1}
        full = tr.summary_since(None)
        assert full["spans"]["a"]["count"] == 2

    def test_numpy_attrs_serialize(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        tr = Tracer(path)
        tr.event("np", a=np.float64(1.5), b=np.bool_(True), c=np.arange(3))
        tr.close()
        (rec,) = load_trace(path)
        assert rec["attrs"] == {"a": 1.5, "b": True, "c": [0, 1, 2]}

    def test_using_restores_previous(self, tmp_path):
        outer = enable(str(tmp_path / "outer.jsonl"))
        inner = Tracer(str(tmp_path / "inner.jsonl"))
        with using(inner):
            assert get_tracer() is inner
        assert get_tracer() is outer
        inner.close()

    def test_using_accepts_path(self, tmp_path):
        path = str(tmp_path / "p.jsonl")
        with using(path) as tr:
            assert get_tracer() is tr
            tr.event("hello")
        assert isinstance(get_tracer(), NullTracer)
        assert load_trace(path)[0]["name"] == "hello"

    def test_traceable_decorator(self, tmp_path):
        @traceable
        @spanned("fn.call")
        def fn(x):
            return x * 2

        assert fn(3) == 6  # no tracer active, no trace kwarg: plain call
        path = str(tmp_path / "t.jsonl")
        assert fn(3, trace=path) == 6
        assert [r["name"] for r in load_trace(path)] == ["fn.call"]

    def test_spanned_noop_when_disabled(self):
        calls = []

        @spanned("x")
        def fn():
            calls.append(1)
            return 42

        assert fn() == 42
        assert calls == [1]


# ---------------------------------------------------------------------------
# Thread safety under sweep_map
# ---------------------------------------------------------------------------
class TestThreadSafety:
    def test_jsonl_well_formed_under_workers(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        tr = enable(path)

        def work(i):
            with tr.span("unit", i=i):
                tr.event("unit.tick", i=i)
            return i * i

        stats = {}
        out = sweep_map(work, list(range(32)), workers=4, stats=stats)
        disable()
        assert out == [i * i for i in range(32)]
        assert stats["workers"] == 4
        # strict parse: any interleaved/torn line raises
        recs = load_trace(path)
        spans = [r for r in recs if r["type"] == "span" and r["name"] == "unit"]
        events = [r for r in recs if r["type"] == "event" and r["name"] == "unit.tick"]
        assert len(spans) == 32 and len(events) == 32
        assert sorted(r["attrs"]["i"] for r in spans) == list(range(32))
        # each tick is parented to its own thread's open span
        ids = {r["id"]: r for r in spans}
        for ev in events:
            assert ev["span"] in ids
            assert ids[ev["span"]]["attrs"]["i"] == ev["attrs"]["i"]

    def test_thread_ids_are_compact(self, tmp_path):
        path = str(tmp_path / "tid.jsonl")
        tr = Tracer(path)

        def work():
            tr.event("w")

        threads = [threading.Thread(target=work) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        tr.close()
        tids = {r["tid"] for r in load_trace(path)}
        assert tids <= set(range(4))


# ---------------------------------------------------------------------------
# Enabled-vs-disabled equivalence (analyses)
# ---------------------------------------------------------------------------
class TestEquivalence:
    def test_transient_bit_identical(self, tmp_path):
        from repro.analysis import transient_analysis

        sys_ = detector_system()
        base = transient_analysis(sys_, 2e-6, 2e-8)
        traced = transient_analysis(
            sys_, 2e-6, 2e-8, trace=str(tmp_path / "tran.jsonl")
        )
        np.testing.assert_array_equal(base.t, traced.t)
        np.testing.assert_array_equal(base.X, traced.X)
        trace = traced.report.perf["trace"]
        assert trace["events"]["transient.step"] > 0
        assert "newton.solve" in trace["spans"]
        assert "trace" not in (base.report.perf or {})

    def test_hb_bit_identical(self, tmp_path):
        from repro.hb import harmonic_balance

        sys_ = detector_system()
        base = harmonic_balance(sys_, freqs=[1e6], harmonics=8)
        traced = harmonic_balance(
            sys_, freqs=[1e6], harmonics=8, trace=str(tmp_path / "hb.jsonl")
        )
        np.testing.assert_array_equal(base.x, traced.x)
        trace = traced.report.perf["trace"]
        assert trace["events"]["mpde.newton"] > 0

    def test_precond_build_names_its_path(self, tmp_path):
        """Every averaged-preconditioner build, in the HB solve and in the
        HB sensitivities, says which path ran and what its probe read."""
        from repro.hb import harmonic_balance
        from repro.mpde import MPDEOptions
        from repro.mpde.mpde_core import PENCIL_PROBE_TOL
        from repro.sensitivity import HarmonicAmplitude, hb_sensitivity

        sys_ = detector_system()
        path = tmp_path / "pc.jsonl"
        with using(str(path)):
            sol = harmonic_balance(
                sys_, freqs=[1e6], harmonics=8, options=MPDEOptions(solver="gmres")
            )
            for method in ("direct", "adjoint"):
                hb_sensitivity(
                    sys_, sol, ["R1.resistance"], HarmonicAmplitude("out", (1,)),
                    method=method, solver="gmres",
                )
        builds = [
            r["attrs"] for r in load_trace(str(path))
            if r["type"] == "event" and r["name"] == "mpde.precond_build"
        ]
        assert [b["adjoint"] for b in builds[-2:]] == [False, True]
        for b in builds:
            assert b["path"] == "pencil"
            assert 0.0 <= b["backward_error"] <= PENCIL_PROBE_TOL

    def test_ac_sweep_bit_identical_with_workers(self, tmp_path):
        from repro.analysis import ac_analysis

        sys_ = detector_system()
        freqs = np.geomspace(1e3, 1e9, 25)
        base = ac_analysis(sys_, "V1", freqs)
        with using(str(tmp_path / "ac.jsonl")):
            traced = ac_analysis(sys_, "V1", freqs, workers=4)
        np.testing.assert_array_equal(base.X, traced.X)

    def test_report_merge_keeps_trace_dict(self, tmp_path):
        from repro.analysis import transient_analysis

        sys_ = detector_system()
        r1 = transient_analysis(sys_, 1e-6, 2e-8, trace=str(tmp_path / "a.jsonl"))
        r2 = transient_analysis(sys_, 1e-6, 2e-8, trace=str(tmp_path / "b.jsonl"))
        r1.report.merge(r2.report)
        assert isinstance(r1.report.perf["trace"], dict)


# ---------------------------------------------------------------------------
# Summarize CLI
# ---------------------------------------------------------------------------
class TestSummarize:
    def _make_trace(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        tr = Tracer(path)
        for k in range(10):
            with tr.span("step", k=k):
                with tr.span("solve"):
                    tr.event("iter", k=k)
        tr.close()
        return path

    def test_cli_exit_zero_and_tables(self, tmp_path, capsys):
        path = self._make_trace(tmp_path)
        assert main(["summarize", path]) == 0
        out = capsys.readouterr().out
        assert "step" in out and "solve" in out and "iter" in out

    def test_cli_top_rollup(self, tmp_path, capsys):
        path = self._make_trace(tmp_path)
        assert main(["summarize", path, "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "step/solve" in out

    def test_span_table_percentiles(self, tmp_path):
        path = self._make_trace(tmp_path)
        rows = span_table(load_trace(path))
        by_name = {r["name"]: r for r in rows}
        assert by_name["step"]["count"] == 10
        assert by_name["step"]["p50"] <= by_name["step"]["p95"] <= by_name["step"]["max"]
        # inclusive parent time dominates child time
        assert by_name["step"]["total"] >= by_name["solve"]["total"]

    def test_malformed_jsonl_raises(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        with open(path, "w") as fh:
            fh.write('{"type": "event", "name": "ok", "t": 0}\nnot json\n')
        with pytest.raises(ValueError, match="malformed"):
            load_trace(path)

    def test_empty_trace_summarizes(self, tmp_path, capsys):
        path = str(tmp_path / "empty.jsonl")
        open(path, "w").close()
        assert main(["summarize", path]) == 0
        assert "(none)" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Disabled overhead
# ---------------------------------------------------------------------------
class TestDisabledOverhead:
    def test_get_tracer_is_trivial(self):
        # a worst-case guard: a million get_tracer()+enabled checks must
        # cost well under a second (the hot loops do far fewer)
        import time

        t0 = time.perf_counter()
        for _ in range(1_000_000):
            if get_tracer().enabled:  # pragma: no cover
                raise AssertionError
        assert time.perf_counter() - t0 < 1.0

    def test_env_var_enables(self, tmp_path, monkeypatch):
        # REPRO_TRACE is read at import; simulate by calling enable()
        # the way the module-level hook does
        path = str(tmp_path / "env.jsonl")
        tr = enable(path)
        assert get_tracer() is tr
        tr.event("x")
        disable()
        assert load_trace(path)[0]["name"] == "x"

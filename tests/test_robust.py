"""Recovery-layer tests: every escalation rung fires under injected faults.

Each ladder in :mod:`repro.robust.policy` is driven through failure and
recovery with the fault-injection harness: singular Jacobians push DC
through gmin/source stepping, NaN residuals exercise transient step
backoff, and stalled/perturbed matvecs walk GMRES up its restart ladder
into the dense fallback.  ``best_effort`` mode must never raise on any
injected failure and must hand back a degraded result with the full
:class:`~repro.robust.report.SolveReport` attached.
"""

import numpy as np
import pytest

from repro.analysis.dc import DC_LADDER, dc_analysis
from repro.analysis.shooting import shooting_analysis
from repro.analysis.transient import transient_analysis
from repro.hb import harmonic_balance
from repro.linalg import ConvergenceError
from repro.phasenoise import VanDerPol, find_oscillator_pss
from repro.robust import (
    AttemptRecord,
    EscalationPolicy,
    FaultClock,
    FaultyMNASystem,
    RungOutcome,
    SolveFailure,
    SolveReport,
    inject_error,
    inject_nan,
    inject_perturb,
    inject_singular,
    robust_gmres,
    run_ladder,
)

SINGULAR_WARN = "ignore:Matrix is exactly singular"


# ---------------------------------------------------------------------------
# fault-injection harness itself
# ---------------------------------------------------------------------------
class TestFaultClock:
    def test_window(self):
        clock = FaultClock(start=2, count=2)
        assert [clock.tick() for _ in range(5)] == [False, True, True, False, False]
        assert clock.calls == 5
        assert clock.fired == 2

    def test_forever(self):
        clock = FaultClock(start=3, count=None)
        assert [clock.tick() for _ in range(5)] == [False, False, True, True, True]


class TestInjectors:
    def test_inject_nan(self):
        fn = inject_nan(lambda x: x + 1.0, FaultClock(start=1, count=1))
        assert np.isnan(fn(np.zeros(3))).all()
        np.testing.assert_allclose(fn(np.zeros(3)), 1.0)

    def test_inject_singular_dense_and_sparse(self):
        import scipy.sparse as sp

        dense = inject_singular(lambda: np.eye(3), FaultClock())
        assert not dense().any()
        sparse = inject_singular(lambda: sp.identity(3, format="csr"), FaultClock())
        out = sparse()
        assert sp.issparse(out) and out.nnz == 0 and out.shape == (3, 3)

    def test_inject_perturb(self):
        clock = FaultClock(start=1, count=1)
        fn = inject_perturb(lambda x: x, clock, scale=0.5)
        v = np.ones(8)
        assert np.linalg.norm(fn(v) - v) > 0.0
        np.testing.assert_array_equal(fn(v), v)
        assert clock.fired == 1

    def test_inject_error(self):
        fn = inject_error(lambda: 42, FaultClock(start=1, count=1))
        with pytest.raises(ConvergenceError, match="injected"):
            fn()
        assert fn() == 42

    def test_faulty_system_delegates(self, resistive_divider):
        clock = FaultClock(start=1, count=None)
        bad = FaultyMNASystem(
            resistive_divider, G=inject_singular(resistive_divider.G, clock)
        )
        assert bad.n == resistive_divider.n
        assert bad.title == resistive_divider.title
        x = np.zeros(bad.n)
        np.testing.assert_array_equal(bad.f(x), resistive_divider.f(x))
        assert bad.G(x).nnz == 0

    def test_faulty_system_rejects_unknown(self, resistive_divider):
        with pytest.raises(ValueError, match="cannot override"):
            FaultyMNASystem(resistive_divider, nonsense=lambda: None)


# ---------------------------------------------------------------------------
# report bookkeeping
# ---------------------------------------------------------------------------
class TestSolveReport:
    def _report(self):
        rep = SolveReport(analysis="demo")
        rep.record(
            AttemptRecord(
                strategy="a", converged=False, iterations=3,
                residual_norm=1.0, failure_cause="ConvergenceError: no",
            )
        )
        rep.record(AttemptRecord(strategy="a", converged=False, iterations=2))
        rep.record(AttemptRecord(strategy="b", converged=True, iterations=5, residual_norm=1e-12))
        return rep

    def test_outcome_properties(self):
        rep = self._report()
        assert rep.converged
        assert rep.strategy == "b"
        assert rep.total_iterations == 10
        assert rep.attempt_counts() == {"a": 2, "b": 1}
        assert rep.best_residual == pytest.approx(1e-12)

    def test_summary_mentions_every_attempt(self):
        text = self._report().summary()
        assert "demo" in text and "converged" in text
        assert text.count("failed") == 2

    def test_merge_prefixes(self):
        rep = SolveReport(analysis="outer")
        rep.merge(self._report(), prefix="inner")
        assert rep.attempt_counts() == {"inner:a": 2, "inner:b": 1}


# ---------------------------------------------------------------------------
# ladder engine
# ---------------------------------------------------------------------------
def _failing_rung(norm=1.0):
    def thunk():
        exc = ConvergenceError("nope")
        exc.best_x = np.full(2, norm)
        exc.best_norm = norm
        exc.iterations = 4
        raise exc

    return thunk


class TestEscalationEngine:
    def test_first_success_stops_ladder(self):
        calls = []
        out, rep = run_ladder(
            "demo",
            [
                ("a", lambda: calls.append("a") or RungOutcome(value=1, residual_norm=0.0)),
                ("b", lambda: calls.append("b") or RungOutcome(value=2)),
            ],
        )
        assert out.value == 1 and calls == ["a"]
        assert rep.strategy == "a" and len(rep.attempts) == 1

    def test_escalates_past_failures(self):
        out, rep = run_ladder(
            "demo",
            [("a", _failing_rung()), ("b", lambda: RungOutcome(value="ok", iterations=2))],
        )
        assert out.value == "ok"
        assert [a.converged for a in rep.attempts] == [False, True]
        assert rep.attempts[0].iterations == 4
        assert "ConvergenceError" in rep.attempts[0].failure_cause

    def test_raise_mode_carries_report_and_best(self):
        with pytest.raises(SolveFailure) as err:
            run_ladder("demo", [("a", _failing_rung(0.5)), ("b", _failing_rung(2.0))])
        assert len(err.value.report.attempts) == 2
        assert err.value.best.residual_norm == pytest.approx(0.5)
        # SolveFailure must remain catchable as a plain ConvergenceError
        assert isinstance(err.value, ConvergenceError)

    def test_best_effort_uses_fallback(self):
        out, rep = run_ladder(
            "demo",
            [("a", _failing_rung(0.5))],
            on_failure="best_effort",
            fallback=lambda best, rep: RungOutcome(value=("degraded", best.value)),
        )
        assert out.value[0] == "degraded"
        assert not rep.converged

    def test_best_effort_without_fallback_raises(self):
        with pytest.raises(SolveFailure):
            run_ladder("demo", [("a", _failing_rung())], on_failure="best_effort")

    def test_warn_mode_warns(self):
        with pytest.warns(RuntimeWarning, match="best-effort"):
            run_ladder(
                "demo",
                [("a", _failing_rung())],
                on_failure="warn",
                fallback=lambda best, rep: RungOutcome(value=None),
            )

    def test_policy_selects_and_orders_rungs(self):
        out, rep = run_ladder(
            "demo",
            [("a", _failing_rung()), ("b", lambda: RungOutcome(value="b"))],
            policy=EscalationPolicy(rungs=("b",)),
        )
        assert out.value == "b" and len(rep.attempts) == 1

    def test_unknown_rung_rejected(self):
        with pytest.raises(ValueError, match="unknown escalation rung"):
            run_ladder(
                "demo",
                [("a", _failing_rung())],
                policy=EscalationPolicy(rungs=("typo",)),
            )

    def test_bad_on_failure_rejected(self):
        with pytest.raises(ValueError, match="on_failure"):
            EscalationPolicy(on_failure="explode")

    def test_max_attempts_cap(self):
        out, rep = run_ladder(
            "demo",
            [("a", _failing_rung()), ("b", _failing_rung()), ("c", _failing_rung())],
            policy=EscalationPolicy(max_attempts=1, on_failure="best_effort"),
            fallback=lambda best, rep: RungOutcome(value=None),
        )
        assert len(rep.attempts) == 1
        assert any("attempt cap" in note for note in rep.notes)

    def test_time_budget_skips_later_rungs(self):
        out, rep = run_ladder(
            "demo",
            [("a", _failing_rung()), ("b", lambda: RungOutcome(value="late"))],
            policy=EscalationPolicy(time_budget=0.0, on_failure="best_effort"),
            fallback=lambda best, rep: RungOutcome(value="degraded"),
        )
        assert out.value == "degraded"
        assert any("time budget" in note for note in rep.notes)


# ---------------------------------------------------------------------------
# DC ladder under injected singular Jacobians
# ---------------------------------------------------------------------------
class TestDCLadder:
    @pytest.mark.filterwarnings(SINGULAR_WARN)
    def test_gmin_recovers_from_singular_jacobian(self, resistive_divider):
        clock = FaultClock(start=1, count=1)
        bad = FaultyMNASystem(
            resistive_divider, G=inject_singular(resistive_divider.G, clock)
        )
        res = dc_analysis(bad)
        assert res.converged
        assert res.strategy == "gmin-stepping"
        assert clock.fired == 1
        assert res.report.attempts[0].strategy == "newton"
        assert not res.report.attempts[0].converged
        np.testing.assert_allclose(res.x, dc_analysis(resistive_divider).x, atol=1e-6)

    @pytest.mark.filterwarnings(SINGULAR_WARN)
    def test_source_stepping_recovers_when_gmin_also_fails(self, resistive_divider):
        # calls 1 (plain Newton) and 2 (first gmin sub-solve) get a
        # singular Jacobian; source stepping sees a healthy circuit
        clock = FaultClock(start=1, count=2)
        bad = FaultyMNASystem(
            resistive_divider, G=inject_singular(resistive_divider.G, clock)
        )
        res = dc_analysis(bad)
        assert res.converged
        assert res.strategy == "source-stepping"
        assert res.report.attempt_counts() == {
            "newton": 1, "gmin-stepping": 1, "source-stepping": 1,
        }
        np.testing.assert_allclose(res.x, dc_analysis(resistive_divider).x, atol=1e-6)

    def test_best_effort_never_raises(self, resistive_divider):
        clock = FaultClock(start=1, count=None)
        bad = FaultyMNASystem(
            resistive_divider, f=inject_nan(resistive_divider.f, clock)
        )
        res = dc_analysis(bad, on_failure="best_effort")
        assert not res.converged
        assert res.strategy == "best-effort"
        assert set(res.report.attempt_counts()) == set(DC_LADDER)
        assert res.x.shape == (resistive_divider.n,)

    def test_raise_mode_reports_every_rung(self, resistive_divider):
        bad = FaultyMNASystem(
            resistive_divider,
            f=inject_nan(resistive_divider.f, FaultClock(start=1, count=None)),
        )
        with pytest.raises(SolveFailure) as err:
            dc_analysis(bad)
        assert set(err.value.report.attempt_counts()) == set(DC_LADDER)


# ---------------------------------------------------------------------------
# transient step backoff under injected NaN residuals
# ---------------------------------------------------------------------------
class TestTransientLadder:
    def test_backoff_recovers_from_nan_window(self, rc_lowpass):
        dt = 1e-8
        # the window sits on the excitation: one b(t+h) per BE step
        # attempt, so calls 5 and 6 poison step 5 and its first retry
        clock = FaultClock(start=5, count=2)
        bad = FaultyMNASystem(rc_lowpass, b=inject_nan(rc_lowpass.b, clock))
        res = transient_analysis(
            bad, t_stop=8 * dt, dt=dt, x0=np.zeros(rc_lowpass.n), method="be"
        )
        assert res.converged
        assert res.rejected_steps >= 1
        assert clock.fired >= 1
        assert np.isfinite(res.X).all()
        assert res.t[-1] == pytest.approx(8 * dt, rel=1e-9)
        counts = res.report.attempt_counts()
        assert counts.get("step-backoff", 0) == res.rejected_steps
        assert res.report.strategy == "step"

    def test_best_effort_returns_partial_trajectory(self, rc_lowpass):
        dt = 1e-8
        bad = FaultyMNASystem(
            rc_lowpass, f=inject_nan(rc_lowpass.f, FaultClock(start=5, count=None))
        )
        res = transient_analysis(
            bad, t_stop=20 * dt, dt=dt, x0=np.zeros(rc_lowpass.n),
            method="be", on_failure="best_effort", h_floor=0.05 * dt,
        )
        assert not res.converged
        assert 0.0 < res.t[-1] < 20 * dt
        assert res.rejected_steps >= 2
        assert res.report.notes  # the give-up cause is recorded

    def test_raise_and_warn_modes(self, rc_lowpass):
        dt = 1e-8

        def broken():
            return FaultyMNASystem(
                rc_lowpass, f=inject_nan(rc_lowpass.f, FaultClock(start=5, count=None))
            )

        kwargs = dict(t_stop=20 * dt, dt=dt, x0=np.zeros(rc_lowpass.n),
                      method="be", h_floor=0.05 * dt)
        with pytest.raises(SolveFailure, match="hit the floor"):
            transient_analysis(broken(), **kwargs)
        with pytest.warns(RuntimeWarning, match="partial trajectory"):
            res = transient_analysis(broken(), on_failure="warn", **kwargs)
        assert not res.converged


# ---------------------------------------------------------------------------
# GMRES restart escalation and dense fallback
# ---------------------------------------------------------------------------
def _cyclic_shift(n):
    """Orthogonal shift operator: GMRES makes zero progress until the
    Krylov space reaches the full dimension — the canonical stagnator."""

    def matvec(v):
        return np.roll(v, 1)

    return matvec


class TestRobustGMRES:
    def test_converges_on_first_rung(self):
        rng = np.random.default_rng(3)
        A = np.eye(12) + 0.1 * rng.standard_normal((12, 12))
        b = rng.standard_normal(12)
        res = robust_gmres(lambda v: A @ v, b, restart=12, tol=1e-12)
        assert res.converged
        assert res.report.strategy == "restart(12)"
        assert len(res.report.attempts) == 1
        np.testing.assert_allclose(A @ res.x, b, atol=1e-9)

    def test_restart_escalation_recovers_stagnation(self):
        n = 32
        b = np.zeros(n)
        b[0] = 1.0
        res = robust_gmres(
            _cyclic_shift(n), b, restart=8, maxiter=64, tol=1e-10,
            restart_growth=(1, 2, 4), dense_max_n=0,
        )
        assert res.converged
        assert res.report.strategy == "restart(32)"
        assert [a.converged for a in res.report.attempts] == [False, False, True]
        np.testing.assert_allclose(np.roll(res.x, 1), b, atol=1e-8)

    def test_dense_fallback_when_restarts_exhausted(self):
        n = 24
        b = np.zeros(n)
        b[0] = 1.0
        res = robust_gmres(
            _cyclic_shift(n), b, restart=4, maxiter=16, tol=1e-10,
            restart_growth=(1,), dense_max_n=64,
        )
        assert res.converged
        assert res.report.strategy == "dense-fallback"
        assert res.report.attempts[-1].detail.get("dense")
        np.testing.assert_allclose(np.roll(res.x, 1), b, atol=1e-8)

    def test_injected_spurious_failure_escalates(self):
        rng = np.random.default_rng(5)
        A = np.eye(10) + 0.05 * rng.standard_normal((10, 10))
        b = rng.standard_normal(10)
        clock = FaultClock(start=1, count=1)
        mv = inject_error(lambda v: A @ v, clock)
        res = robust_gmres(mv, b, restart=5, tol=1e-10, restart_growth=(1, 2))
        assert res.converged
        assert clock.fired == 1
        assert not res.report.attempts[0].converged
        assert "injected" in res.report.attempts[0].failure_cause

    def test_perturbed_matvec_stalls_then_recovers(self):
        rng = np.random.default_rng(11)
        A = np.eye(16) + 0.1 * rng.standard_normal((16, 16))
        b = rng.standard_normal(16)
        # corrupt the operator for the whole first rung (~20 applications)
        clock = FaultClock(start=1, count=20)
        mv = inject_perturb(lambda v: A @ v, clock, scale=0.3)
        res = robust_gmres(mv, b, restart=16, maxiter=18, tol=1e-10, restart_growth=(1, 1, 1))
        assert res.converged
        assert len(res.report.attempts) >= 2
        np.testing.assert_allclose(A @ res.x, b, atol=1e-7)

    def test_best_effort_returns_unconverged_result(self):
        n = 16
        b = np.zeros(n)
        b[0] = 1.0
        res = robust_gmres(
            _cyclic_shift(n), b, restart=4, maxiter=8, tol=1e-12,
            restart_growth=(1,), dense_max_n=0, on_failure="best_effort",
        )
        assert not res.converged
        assert not res.report.converged
        assert res.x.shape == (n,)

    def test_exhaustion_raises_solvefailure(self):
        n = 16
        b = np.zeros(n)
        b[0] = 1.0
        with pytest.raises(SolveFailure, match="gmres"):
            robust_gmres(
                _cyclic_shift(n), b, restart=4, maxiter=8, tol=1e-12,
                restart_growth=(1,), dense_max_n=0,
            )


# ---------------------------------------------------------------------------
# HB / MPDE ladder
# ---------------------------------------------------------------------------
class TestMPDELadder:
    def test_forced_source_ramp_rung(self, rc_lowpass):
        res = harmonic_balance(
            rc_lowpass, harmonics=4,
            policy=EscalationPolicy(rungs=("source-ramp",)),
        )
        assert res.converged
        assert res.report.strategy == "source-ramp"
        assert res.report.attempts[0].detail.get("ramp_steps", 0) >= 4

    def test_forced_harmonic_continuation_rung(self, rc_lowpass):
        res = harmonic_balance(
            rc_lowpass, harmonics=4,
            policy=EscalationPolicy(rungs=("harmonic-continuation",)),
        )
        assert res.converged
        assert res.report.strategy == "harmonic-continuation"
        assert "coarse_shape" in res.report.attempts[0].detail

    def test_injected_nan_escalates_past_direct(self, rc_lowpass):
        clock = FaultClock(start=1, count=2)
        bad = FaultyMNASystem(
            rc_lowpass, batch_fq=inject_nan(rc_lowpass.batch_fq, clock)
        )
        res = harmonic_balance(bad, freqs=[1e6], harmonics=4)
        assert res.converged
        assert clock.fired >= 1
        assert res.report.attempts[0].strategy == "direct"
        assert not res.report.attempts[0].converged
        assert res.report.strategy in ("source-ramp", "harmonic-continuation")

    def test_best_effort_returns_unconverged_solution(self, rc_lowpass):
        bad = FaultyMNASystem(
            rc_lowpass,
            batch_fq=inject_nan(rc_lowpass.batch_fq, FaultClock(start=1, count=None)),
        )
        res = harmonic_balance(bad, freqs=[1e6], harmonics=4, on_failure="best_effort")
        assert not res.converged
        assert not res.report.converged
        assert len(res.report.attempts) == 3


# ---------------------------------------------------------------------------
# shooting ladder
# ---------------------------------------------------------------------------
class TestShootingLadder:
    def test_forced_transient_settle_rung(self, rc_lowpass):
        res = shooting_analysis(
            rc_lowpass, period=1e-6, steps_per_period=60,
            policy=EscalationPolicy(rungs=("transient-settle",)),
        )
        assert res.converged
        assert res.report.strategy == "transient-settle"
        np.testing.assert_allclose(res.X[:, 0], res.X[:, -1], atol=1e-6)

    def test_best_effort_returns_partial_pss(self, diode_rectifier):
        res = shooting_analysis(
            diode_rectifier, period=1e-6, steps_per_period=40,
            maxiter=1, abstol=1e-14, on_failure="best_effort",
        )
        assert not res.converged
        assert len(res.report.attempts) == 2
        assert res.X.shape == (diode_rectifier.n, 41)
        assert np.isfinite(res.X).all()

    def test_raise_mode(self, diode_rectifier):
        with pytest.raises(SolveFailure):
            shooting_analysis(
                diode_rectifier, period=1e-6, steps_per_period=40,
                maxiter=1, abstol=1e-14,
            )


# ---------------------------------------------------------------------------
# oscillator PSS ladder
# ---------------------------------------------------------------------------
class TestPSSLadder:
    def test_forced_settle_retry_rung(self):
        vdp = VanDerPol(mu=0.2)
        res = find_oscillator_pss(
            vdp, x0=np.array([2.0, 0.0]), period_guess=2 * np.pi, steps=200,
            policy=EscalationPolicy(rungs=("settle-retry",)),
        )
        assert res.converged
        assert res.report.strategy == "settle-retry"
        expect = 2 * np.pi * (1 + 0.2**2 / 16)
        np.testing.assert_allclose(res.period, expect, rtol=1e-3)

    def test_best_effort_never_raises(self):
        vdp = VanDerPol(mu=0.2)
        res = find_oscillator_pss(
            vdp, x0=np.array([3.0, 1.5]), period_guess=2 * np.pi, steps=100,
            maxiter=2, abstol=1e-14, on_failure="best_effort",
        )
        assert not res.converged
        assert len(res.report.attempts) == 2
        assert np.isfinite(res.X).all()
        assert res.period > 0

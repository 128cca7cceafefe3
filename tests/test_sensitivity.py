"""Gradient correctness for the sensitivity engines.

Every analytic gradient in ``repro.sensitivity`` is checked three ways:

* **adjoint vs direct** — two independent derivations of the same
  number (one transpose solve vs per-parameter forward solves) must
  agree to machine precision;
* **vs central finite differences** — each engine's gradient must match
  a two-sided re-solve of the underlying analysis through the public
  ``set_param`` path, to 1e-5 relative (the ISSUE's contract);
* **explore vs full re-solve** — the Woodbury-corrected driver must
  reproduce scratch DC solves (objectives and gradients) at every
  design point, on every sweep backend.

The HB adjoint's matrix-free transpose operator is additionally checked
against the assembled ``J.T`` directly, since a silently-wrong ``Dᵀ``
would still converge GMRES — to the wrong vector.
"""

import importlib

import numpy as np
import pytest

from repro.analysis.dc import dc_analysis
from repro.analysis.transient import transient_analysis
from repro.netlist import Circuit, Sine
from repro.sensitivity import (
    FinalValue,
    HarmonicAmplitude,
    ParamSet,
    SampleMean,
    TimeAverage,
    dc_sensitivity,
    explore,
    hb_sensitivity,
    resolve_param,
    transient_sensitivity,
)

RTOL = 1e-5


def central_fd(build, specs, evaluate, rel_step=1e-6, abs_step=1e-6):
    """Two-sided differences through fresh systems and set_param.

    ``abs_step`` kicks in for parameters whose nominal value is zero
    (e.g. channel-length modulation), where a relative step vanishes.
    """
    grads = []
    for spec in specs:
        vals = []
        probe = resolve_param(build(), spec)
        p0 = probe.get()
        h = rel_step * abs(p0) if p0 else abs_step
        for sgn in (+1.0, -1.0):
            system = build()
            bp = resolve_param(system, spec)
            bp.set(p0 + sgn * h)
            system.refresh_stamps(linear=True)
            vals.append(evaluate(system))
        grads.append((vals[0] - vals[1]) / (2 * h))
    return np.asarray(grads)


def _tight_dc(node):
    """DC objective evaluator solved well below FD noise level."""
    return lambda s: float(dc_analysis(s, abstol=1e-15).x[s.node(node)])


def assert_close(got, want, rtol=RTOL, atol=0.0):
    got, want = np.asarray(got), np.asarray(want)
    assert np.all(np.abs(got - want) <= rtol * np.abs(want) + atol), (
        f"gradient mismatch:\n got {got}\nwant {want}"
    )


# --- DC ----------------------------------------------------------------


class TestDCSensitivity:
    @staticmethod
    def _diode_divider():
        ckt = Circuit("div")
        ckt.vsource("V1", "in", "0", waveform=2.0)
        ckt.resistor("R1", "in", "mid", 1e3)
        ckt.diode("D1", "mid", "0")
        ckt.resistor("R2", "mid", "0", 5e3)
        return ckt.compile()

    DIODE_SPECS = ["R1.resistance", "R2.resistance", "D1.isat",
                   "D1.ideality", "V1.value"]

    def test_adjoint_equals_direct(self):
        system = self._diode_divider()
        adj = dc_sensitivity(system, self.DIODE_SPECS, objective="mid")
        dire = dc_sensitivity(
            system, self.DIODE_SPECS, objective="mid", method="direct"
        )
        assert_close(adj.gradient, dire.gradient, rtol=1e-12)
        assert adj.value == pytest.approx(dire.value)
        # direct mode carries the full state sensitivities
        assert dire.sensitivities.shape == (system.n, len(self.DIODE_SPECS))

    def test_matches_fd(self):
        build = self._diode_divider
        adj = dc_sensitivity(build(), self.DIODE_SPECS, objective="mid")
        fd = central_fd(build, self.DIODE_SPECS, _tight_dc("mid"))
        assert_close(adj.gradient, fd)

    def test_named_lookup(self):
        res = dc_sensitivity(
            self._diode_divider(), self.DIODE_SPECS, objective="mid"
        )
        assert res["V1.value"] == res.gradient[-1]

    @staticmethod
    def _bjt_stage():
        ckt = Circuit("ce")
        ckt.vsource("VCC", "vcc", "0", waveform=5.0)
        ckt.resistor("RC", "vcc", "c", 1e3)
        ckt.resistor("RB", "vcc", "b", 100e3)
        ckt.bjt("Q1", "c", "b", "0")
        return ckt.compile()

    def test_bjt_params_match_fd(self):
        specs = ["Q1.isat", "Q1.beta_f", "RC.resistance", "RB.resistance"]
        adj = dc_sensitivity(self._bjt_stage(), specs, objective="c")
        fd = central_fd(self._bjt_stage, specs, _tight_dc("c"), rel_step=1e-5)
        assert_close(adj.gradient, fd)

    @staticmethod
    def _mos_stage():
        ckt = Circuit("cs")
        ckt.vsource("VDD", "vdd", "0", waveform=3.0)
        ckt.resistor("RD", "vdd", "d", 2e3)
        ckt.vsource("VG", "g", "0", waveform=1.5)
        ckt.mosfet("M1", "d", "g", "0")
        return ckt.compile()

    def test_mosfet_params_match_fd(self):
        specs = ["M1.kp", "M1.vth", "M1.lam", "RD.resistance", "VG.value"]
        adj = dc_sensitivity(self._mos_stage(), specs, objective="d")
        fd = central_fd(self._mos_stage, specs, _tight_dc("d"))
        assert_close(adj.gradient, fd)

    def test_adjoint_requires_objective(self):
        with pytest.raises(ValueError, match="objective"):
            dc_sensitivity(self._diode_divider(), ["R1.resistance"])

    def test_bad_spec_rejected(self):
        with pytest.raises(KeyError, match="no scalar parameter 'nope'"):
            dc_sensitivity(
                self._diode_divider(), ["R1.nope"], objective="mid"
            )
        with pytest.raises(KeyError, match="no device named 'RX'"):
            dc_sensitivity(
                self._diode_divider(), ["RX.resistance"], objective="mid"
            )
        with pytest.raises(ValueError, match=r"[Dd]uplicate"):
            ParamSet(
                self._diode_divider(),
                ["R1.resistance", "R1.resistance"],
            )


# --- transient ---------------------------------------------------------


def _rectifier():
    ckt = Circuit("rect")
    ckt.vsource("V1", "in", "0", Sine(2.0, 1e6))
    ckt.diode("D1", "in", "out")
    ckt.resistor("RL", "out", "0", 1e4)
    ckt.capacitor("CL", "out", "0", 1e-9)
    return ckt.compile()


TRAN_SPECS = ["RL.resistance", "CL.capacitance", "D1.isat", "V1.amplitude"]
TSTOP, DT = 2e-6, 4e-9


class TestTransientSensitivity:
    @pytest.mark.parametrize("integrator", ["trap", "be"])
    @pytest.mark.parametrize("objective", ["out", TimeAverage("out")],
                             ids=["final", "avg"])
    def test_adjoint_direct_fd_agree(self, integrator, objective):
        system = _rectifier()
        traj = transient_analysis(system, TSTOP, DT, method=integrator)
        adj = transient_sensitivity(
            system, traj, TRAN_SPECS, objective, integrator=integrator
        )
        dire = transient_sensitivity(
            system, traj, TRAN_SPECS, objective,
            method="direct", integrator=integrator,
        )
        # same discrete gradient, two derivations
        assert_close(adj.gradient, dire.gradient, rtol=1e-9)

        from repro.sensitivity.objectives import resolve_trajectory_objective

        def evaluate(s):
            r = transient_analysis(s, TSTOP, DT, method=integrator)
            return resolve_trajectory_objective(objective, s).value(r.t, r.X, s)

        fd = central_fd(_rectifier, TRAN_SPECS, evaluate)
        assert_close(adj.gradient, fd, rtol=1e-4)

    def test_bare_objective_means_final_value(self):
        system = _rectifier()
        traj = transient_analysis(system, TSTOP, DT)
        bare = transient_sensitivity(system, traj, TRAN_SPECS, "out")
        final = transient_sensitivity(
            system, traj, TRAN_SPECS, FinalValue("out")
        )
        np.testing.assert_array_equal(bare.gradient, final.gradient)

    def test_x0_mode_selects_the_right_contract(self):
        """dc mode matches a re-solve restarting from the perturbed DC
        point; fixed mode matches a re-solve pinned to the reference x0.

        The RC divider's time constant (5 µs) exceeds the window (2 µs),
        so the initial condition's parameter dependence survives to the
        final sample and the two contracts give visibly different
        gradients."""

        def divider():
            ckt = Circuit("rcdiv")
            ckt.vsource("V1", "in", "0", waveform=2.0)
            ckt.resistor("R1", "in", "out", 1e4)
            ckt.resistor("RL", "out", "0", 1e4)
            ckt.capacitor("CL", "out", "0", 1e-9)
            return ckt.compile()

        system = divider()
        traj = transient_analysis(system, TSTOP, DT)
        dc_mode = transient_sensitivity(system, traj, ["R1.resistance"], "out")
        fixed = transient_sensitivity(
            system, traj, ["R1.resistance"], "out", x0_mode="fixed"
        )
        assert not np.allclose(dc_mode.gradient, fixed.gradient, rtol=0.05)

        x0_ref = dc_analysis(system).x.copy()

        def evaluate_dc(s):
            r = transient_analysis(s, TSTOP, DT)
            return float(r.X[s.node("out"), -1])

        def evaluate_fixed(s):
            r = transient_analysis(s, TSTOP, DT, x0=x0_ref)
            return float(r.X[s.node("out"), -1])

        # rel_step is deliberately coarse: with a tiny step the per-step
        # perturbation residual falls below the transient Newton abstol
        # and every step accepts the unperturbed guess — FD reads 0.
        # The circuit is linear, so the large step costs no truncation.
        assert_close(
            dc_mode.gradient,
            central_fd(divider, ["R1.resistance"], evaluate_dc, rel_step=1e-3),
            rtol=1e-4,
        )
        assert_close(
            fixed.gradient,
            central_fd(divider, ["R1.resistance"], evaluate_fixed, rel_step=1e-3),
            rtol=1e-4,
        )

    def test_unknown_integrator_rejected(self):
        system = _rectifier()
        traj = transient_analysis(system, TSTOP, DT)
        with pytest.raises(ValueError, match="integrator"):
            transient_sensitivity(system, traj, ["RL.resistance"], "out",
                                  integrator="gear2")


# --- HB / MPDE ---------------------------------------------------------


def _hb_stage():
    ckt = Circuit("amp")
    ckt.vsource("V1", "in", "0", Sine(0.8, 1e6))
    ckt.resistor("Rs", "in", "a", 100.0)
    ckt.diode("D1", "a", "0")
    ckt.resistor("RL", "a", "0", 2e3)
    ckt.capacitor("CL", "a", "0", 1e-10)
    return ckt.compile()


HB_SPECS = ["Rs.resistance", "RL.resistance", "D1.isat", "CL.capacitance"]


class TestHBSensitivity:
    @pytest.fixture(scope="class")
    def hb_solution(self):
        from repro.hb.hb_core import harmonic_balance

        system = _hb_stage()
        return system, harmonic_balance(system, freqs=[1e6], harmonics=5)

    @pytest.mark.parametrize("solver", ["direct", "gmres"])
    def test_adjoint_equals_direct(self, hb_solution, solver):
        system, sol = hb_solution
        obj = HarmonicAmplitude("a", (2,))
        adj = hb_sensitivity(system, sol, HB_SPECS, obj, solver=solver)
        dire = hb_sensitivity(
            system, sol, HB_SPECS, obj, method="direct", solver=solver
        )
        assert_close(adj.gradient, dire.gradient, rtol=1e-7)

    def test_matches_fd(self, hb_solution):
        from repro.hb.hb_core import harmonic_balance

        system, sol = hb_solution
        obj = HarmonicAmplitude("a", (2,))
        adj = hb_sensitivity(system, sol, HB_SPECS, obj)

        def evaluate(s):
            r = harmonic_balance(s, freqs=[1e6], harmonics=5)
            return obj.value(np.asarray(r.x), r.grid, s)

        fd = central_fd(_hb_stage, HB_SPECS, evaluate)
        assert_close(adj.gradient, fd, rtol=1e-4)

    def test_sample_mean_matches_fd(self, hb_solution):
        from repro.hb.hb_core import harmonic_balance

        system, sol = hb_solution
        obj = SampleMean("a")
        adj = hb_sensitivity(system, sol, HB_SPECS, obj)

        def evaluate(s):
            r = harmonic_balance(s, freqs=[1e6], harmonics=5)
            return obj.value(np.asarray(r.x), r.grid, s)

        fd = central_fd(_hb_stage, HB_SPECS, evaluate)
        assert_close(adj.gradient, fd, rtol=1e-4)

    def test_matrix_free_transpose_matches_assembled(self, hb_solution):
        """Jᵀw from FFT circulant adjoint == assembled J.T @ w."""
        from repro.mpde.mpde_core import (
            MPDEOptions,
            _BlockDiagPattern,
            _MPDEProblem,
        )

        system, sol = hb_solution
        grid = sol.grid
        n = system.n
        x = np.asarray(sol.x, dtype=float)
        prob = _MPDEProblem(system, grid, None, MPDEOptions())
        cols = grid.columns(x, n)
        g_vals, c_vals = system.batch_jacobians(cols)
        blocks = _BlockDiagPattern(prob.pattern, n, grid.total)
        G_big, C_big = blocks.matrix(g_vals), blocks.matrix(c_vals)
        J = prob.direct_jacobian(G_big, C_big)

        G_bigT, C_bigT = G_big.T.tocsr(), C_big.T.tocsr()
        rng = np.random.default_rng(0)
        for _ in range(3):
            w = rng.standard_normal(n * grid.total)
            W = grid.reshape(w, n)
            ref = J.T @ w
            got = C_bigT @ grid.apply_derivative_adjoint(W).reshape(-1) + G_bigT @ w
            np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-12)

    def test_derivative_adjoint_is_true_transpose(self, hb_solution):
        """<Du, v> == <u, Dᵀv> for random fields on the grid."""
        _, sol = hb_solution
        grid = sol.grid
        rng = np.random.default_rng(1)
        for _ in range(3):
            u = rng.standard_normal(grid.shape + (2,))
            v = rng.standard_normal(grid.shape + (2,))
            lhs = np.sum(grid.apply_derivative(u) * v)
            rhs = np.sum(u * grid.apply_derivative_adjoint(v))
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


# --- hypothesis-randomized ladder -------------------------------------

try:
    from hypothesis import example, given
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
class TestRandomizedLadder:
    @staticmethod
    def _ladder(r_values):
        ckt = Circuit("ladder")
        ckt.vsource("V1", "n0", "0", waveform=3.0)
        for k, r in enumerate(r_values):
            ckt.resistor(f"R{k}", f"n{k}", f"n{k + 1}", r)
            ckt.resistor(f"G{k}", f"n{k + 1}", "0", 10 * r)
        ckt.diode("D1", f"n{len(r_values)}", "0")
        return ckt.compile()

    @given(
        st.lists(
            st.floats(min_value=10.0, max_value=1e5),
            min_size=2,
            max_size=5,
        )
    )
    @example(r_values=[213.0, 78767.0, 9727.0, 9727.0, 70800.0])
    def test_adjoint_direct_fd_on_random_ladders(self, r_values):
        build = lambda: self._ladder(r_values)
        specs = [f"R{k}.resistance" for k in range(len(r_values))]
        out = f"n{len(r_values)}"
        # tight operating point: the diode makes the gradient itself
        # ~1e-5-sensitive to solver slack.  The FD reference re-solves at
        # abstol 1e-15 (_tight_dc), not 1e-13: once its step is small,
        # newton_solve also stops at ||F|| <= 1e3*abstol, so at 1e-13 the
        # +h and -h solves can stop with different residuals and their
        # difference swamps the 1e-5 step (9.9e-4 relative error on the
        # pinned example, 1.1e-9 at 1e-15)
        adj = dc_sensitivity(build(), specs, objective=out, abstol=1e-13)
        dire = dc_sensitivity(build(), specs, objective=out, method="direct",
                              abstol=1e-13)
        assert_close(adj.gradient, dire.gradient, rtol=1e-9)
        fd = central_fd(build, specs, _tight_dc(out), rel_step=1e-5)
        scale = np.max(np.abs(fd)) or 1.0
        assert_close(adj.gradient, fd, rtol=RTOL, atol=1e-9 * scale)


# --- explore -----------------------------------------------------------


def _explore_system():
    ckt = Circuit("mixerish")
    ckt.vsource("V1", "in", "0", waveform=3.0)
    ckt.resistor("R1", "in", "a", 1e3)
    ckt.diode("D1", "a", "b")
    ckt.resistor("R2", "b", "0", 2e3)
    ckt.resistor("R3", "a", "0", 1e4)
    ckt.capacitor("C1", "b", "0", 1e-9)
    return ckt.compile()


EXPLORE_PARAMS = ["R1.resistance", "R2.resistance"]


def _corner_grid(m=5):
    r1 = np.linspace(500.0, 2000.0, m)
    r2 = np.linspace(1000.0, 5000.0, m)
    return [(a, b) for a in r1 for b in r2]


class TestExplore:
    def test_woodbury_matches_full(self):
        system = _explore_system()
        pts = _corner_grid()
        full = explore(system, EXPLORE_PARAMS, "b", pts, mode="full",
                       gradients=True)
        wood = explore(system, EXPLORE_PARAMS, "b", pts, gradients=True)
        np.testing.assert_allclose(
            wood.objectives, full.objectives, rtol=1e-7, atol=1e-10
        )
        np.testing.assert_allclose(
            wood.gradients, full.gradients, rtol=1e-5, atol=1e-12
        )
        assert wood.stats["variant_rows"] > 0
        assert wood.mode == "woodbury" and full.mode == "full"

    def test_gradients_match_fd_at_corners(self):
        system = _explore_system()
        pts = _corner_grid(3)
        res = explore(system, EXPLORE_PARAMS, "b", pts, gradients=True)
        for k in (0, len(pts) // 2, len(pts) - 1):
            def evaluate(s, point=pts[k]):
                ps = ParamSet(s, EXPLORE_PARAMS)
                ps.set_values(np.asarray(point, dtype=float))
                return float(dc_analysis(s).x[s.node("b")])

            fd = []
            for j in range(2):
                vals = []
                h = 1e-6 * pts[k][j]
                for sgn in (+1.0, -1.0):
                    s2 = _explore_system()
                    ps = ParamSet(s2, EXPLORE_PARAMS)
                    v = np.asarray(pts[k], dtype=float)
                    v[j] += sgn * h
                    ps.set_values(v)
                    vals.append(float(dc_analysis(s2).x[s2.node("b")]))
                fd.append((vals[0] - vals[1]) / (2 * h))
            assert_close(res.gradients[k], fd, rtol=1e-4)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_backends_agree_with_serial(self, backend):
        system = _explore_system()
        pts = _corner_grid(9)
        serial = explore(system, EXPLORE_PARAMS, "b", pts)
        par = explore(system, EXPLORE_PARAMS, "b", pts,
                      workers=2, backend=backend)
        np.testing.assert_allclose(
            par.objectives, serial.objectives, rtol=1e-12, atol=0
        )

    def test_corner_answers_do_not_depend_on_their_chunk(self):
        system = _explore_system()
        pts = _corner_grid(9)  # 81 corners: chunks of 32, 32 and 17
        base = explore(system, EXPLORE_PARAMS, "b", pts, gradients=True)
        rng = np.random.default_rng(11)
        for order in (np.arange(len(pts))[::-1], rng.permutation(len(pts))):
            res = explore(system, EXPLORE_PARAMS, "b", [pts[i] for i in order],
                          gradients=True)
            np.testing.assert_allclose(
                res.objectives, base.objectives[order], rtol=1e-12, atol=0
            )
            np.testing.assert_allclose(
                res.gradients, base.gradients[order], rtol=1e-12, atol=0
            )

    @pytest.mark.parametrize("maxiter", [1, 2])
    def test_stalled_iterates_are_counted(self, maxiter):
        system = _explore_system()
        pts = _corner_grid()
        full = explore(system, EXPLORE_PARAMS, "b", pts, mode="full")
        assert full.stats["newton_iterations"] == 190
        res = explore(system, EXPLORE_PARAMS, "b", pts, maxiter=maxiter)
        # no corner converges within maxiter: each spends maxiter
        # Woodbury iterates, then the full solve's own
        assert res.stats["fallbacks"] == 25
        assert res.stats["newton_iterations"] == 190 + 25 * maxiter
        np.testing.assert_allclose(res.objectives, full.objectives, rtol=1e-12)

    def test_stalled_corners_leave_their_chunk(self):
        system = _explore_system()
        pts = _corner_grid()
        full = explore(system, EXPLORE_PARAMS, "b", pts, mode="full",
                       gradients=True)
        res = explore(system, EXPLORE_PARAMS, "b", pts, maxiter=4,
                      gradients=True)
        assert res.stats["fallbacks"] == 15
        np.testing.assert_allclose(
            res.objectives, full.objectives, rtol=1e-7, atol=1e-10
        )
        np.testing.assert_allclose(
            res.gradients, full.gradients, rtol=1e-5, atol=1e-12
        )

    def test_singular_woodbury_solve_sends_its_corner_alone(self, monkeypatch):
        explore_module = importlib.import_module("repro.sensitivity.explore")
        system = _explore_system()
        pts = _corner_grid()
        full = explore(system, EXPLORE_PARAMS, "b", pts, mode="full")
        plain = explore(system, EXPLORE_PARAMS, "b", pts)
        calls = []
        real = explore_module._ChunkTask._S

        def singular_once(task, st, W):
            S = real(task, st, W)
            if not calls:
                S[2] = 0.0  # corner 2's S_k, at the first iterate only
            calls.append(S.shape[0])
            return S

        monkeypatch.setattr(explore_module._ChunkTask, "_S", singular_once)
        res = explore(system, EXPLORE_PARAMS, "b", pts)
        assert calls[0] == len(pts)  # one chunk: the stacked solve met it
        assert res.stats["fallbacks"] == 1 and plain.stats["fallbacks"] == 0
        np.testing.assert_allclose(
            res.objectives, full.objectives, rtol=1e-7, atol=1e-10
        )
        others = np.arange(len(pts)) != 2
        np.testing.assert_array_equal(
            res.objectives[others], plain.objectives[others]
        )

    def test_moved_stamp_coordinates_send_the_corner_alone(self):
        from repro.netlist.components import Resistor

        class Reordered(Resistor):
            # the same matrix, its entries listed in reverse above 1.5 kΩ
            def g_stamps(self):
                stamps = super().g_stamps()
                return stamps[::-1] if self.resistance > 1.5e3 else stamps

        ckt = Circuit("reordered")
        ckt.vsource("V1", "in", "0", waveform=3.0)
        ckt.add(Reordered("R1", "in", "a", 1e3))
        ckt.diode("D1", "a", "b")
        ckt.resistor("R2", "b", "0", 2e3)
        ckt.resistor("R3", "a", "0", 1e4)
        system = ckt.compile()
        pts = _corner_grid()
        full = explore(system, EXPLORE_PARAMS, "b", pts, mode="full",
                       gradients=True)
        wood = explore(system, EXPLORE_PARAMS, "b", pts, gradients=True)
        # R1 = 1625 and 2000 Ω, five corners each
        assert wood.stats["fallbacks"] == 10
        np.testing.assert_allclose(
            wood.objectives, full.objectives, rtol=1e-7, atol=1e-10
        )
        np.testing.assert_allclose(
            wood.gradients, full.gradients, rtol=1e-5, atol=1e-12
        )

    @pytest.mark.parametrize("params, points", [
        # a nonlinear device's parameter: one corner per item
        (["D1.isat", "R2.resistance"],
         [(i, r) for i in (1e-15, 1e-14, 1e-13) for r in (1e3, 3e3)]),
        # a source value: a per-corner excitation b
        (["V1.value", "R1.resistance"],
         [(v, r) for v in (1.0, 3.0, 5.0) for r in (500.0, 2e3)]),
    ])
    def test_nonlinear_and_source_parameters(self, params, points):
        system = _explore_system()
        full = explore(system, params, "b", points, mode="full", gradients=True)
        wood = explore(system, params, "b", points, gradients=True)
        assert wood.stats["fallbacks"] == 0
        np.testing.assert_allclose(
            wood.objectives, full.objectives, rtol=1e-7, atol=1e-10
        )
        np.testing.assert_allclose(
            wood.gradients, full.gradients, rtol=1e-5, atol=1e-12
        )

    def test_dict_points_and_best_index(self):
        system = _explore_system()
        pts = _corner_grid(3)
        as_dicts = [dict(zip(EXPLORE_PARAMS, p)) for p in pts]
        a = explore(system, EXPLORE_PARAMS, "b", pts)
        b = explore(system, EXPLORE_PARAMS, "b", as_dicts)
        np.testing.assert_array_equal(a.objectives, b.objectives)
        assert a.best_index == int(np.argmin(a.objectives))

    def test_caller_system_never_mutated(self):
        system = _explore_system()
        before = {d.name: d.get_param("resistance")
                  for d in system.devices if hasattr(d, "resistance")}
        explore(system, EXPLORE_PARAMS, "b", _corner_grid(3), gradients=True)
        after = {d.name: d.get_param("resistance")
                 for d in system.devices if hasattr(d, "resistance")}
        assert before == after

    def test_skip_slots_become_nan(self, tmp_path):
        from repro.robust import Chaos, ChaosSpec, chaos_scope

        system = _explore_system()
        pts = _corner_grid(3)
        chaos = Chaos(tmp_path, items={2: ChaosSpec(kind="error", times=99)})
        with chaos_scope(chaos):
            res = explore(
                system, EXPLORE_PARAMS, "b", pts,
                sweep_options={"on_item_failure": "skip", "retries": 0},
            )
        assert res.stats["skipped"] == [2]
        assert np.isnan(res.objectives[2])
        assert np.all(np.isfinite(np.delete(res.objectives, 2)))

    def test_input_validation(self):
        system = _explore_system()
        with pytest.raises(ValueError, match="mode"):
            explore(system, EXPLORE_PARAMS, "b", _corner_grid(2),
                    mode="magic")
        with pytest.raises(ValueError, match="at least one"):
            explore(system, EXPLORE_PARAMS, "b", [])
        with pytest.raises(ValueError, match="missing"):
            explore(system, EXPLORE_PARAMS, "b",
                    [{"R1.resistance": 1e3}])
        with pytest.raises(ValueError, match="shape"):
            explore(system, EXPLORE_PARAMS, "b", [(1e3,)])

"""Device tests, including finite-difference Jacobian verification.

The batch-evaluation interface (``nl_eval``) drives every nonlinear
analysis; the core property checked here is that the analytic ``df``
and ``dq`` blocks match finite differences of ``f`` and ``q`` for
arbitrary operating points.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.netlist import components as cmp

volt = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, allow_infinity=False)
# junction devices: keep |v_junction| <= ~0.9 V so the exponential current
# stays small enough for the finite-difference reference to be meaningful
# (beyond that, float64 cancellation in the FD stencil, not the model,
# dominates the comparison)
jvolt = st.floats(min_value=-0.45, max_value=0.45, allow_nan=False, allow_infinity=False)


def fd_check(device, V, rtol=5e-5, atol=1e-9):
    """Compare analytic df/dq against central finite differences."""
    V = np.asarray(V, dtype=float)
    if V.ndim == 1:
        V = V[:, None]
    f0, q0, df, dq = device.nl_eval(V)
    k_in = V.shape[0]
    h = 1e-6
    for j in range(k_in):
        Vp = V.copy()
        Vm = V.copy()
        Vp[j] += h
        Vm[j] -= h
        fp, qp, _, _ = device.nl_eval(Vp)
        fm, qm, _, _ = device.nl_eval(Vm)
        df_num = (fp - fm) / (2 * h)
        dq_num = (qp - qm) / (2 * h)
        scale_f = np.maximum(np.abs(df_num), np.abs(df[:, j, :])) + atol
        scale_q = np.maximum(np.abs(dq_num), np.abs(dq[:, j, :])) + atol
        assert np.all(np.abs(df[:, j, :] - df_num) <= rtol * scale_f + atol), (
            f"df mismatch col {j}: {df[:, j, :]} vs {df_num}"
        )
        assert np.all(np.abs(dq[:, j, :] - dq_num) <= rtol * scale_q + atol), (
            f"dq mismatch col {j}: {dq[:, j, :]} vs {dq_num}"
        )


def make_diode():
    d = cmp.Diode("D", "a", "b", tt=1e-9, cj0=1e-12)
    d.bind([0, 1], [])
    return d


def make_bjt(polarity=1):
    q = cmp.BJT("Q", "c", "b", "e", tf=1e-11, cje=1e-14, cjc=1e-14, polarity=polarity)
    q.bind([0, 1, 2], [])
    return q


def make_mosfet(polarity=1):
    m = cmp.MOSFET("M", "d", "g", "s", lam=0.05, cgs=1e-14, cgd=5e-15, polarity=polarity)
    m.bind([0, 1, 2], [])
    return m


def make_switch():
    s = cmp.SwitchConductance("S", "a", "b", "cp", "cn")
    s.bind([0, 1, 2, 3], [])
    return s


class TestLimexp:
    def test_matches_exp_below_threshold(self):
        v, dv = cmp.limexp(np.array([0.0, 1.0, 50.0]))
        np.testing.assert_allclose(v, np.exp([0.0, 1.0, 50.0]))
        np.testing.assert_allclose(dv, np.exp([0.0, 1.0, 50.0]))

    def test_linear_beyond_threshold(self):
        v, dv = cmp.limexp(np.array([100.0]), umax=80.0)
        expect = np.exp(80.0) * (1.0 + 20.0)
        np.testing.assert_allclose(v, [expect])
        np.testing.assert_allclose(dv, [np.exp(80.0)])

    def test_continuity_at_threshold(self):
        below, _ = cmp.limexp(np.array([79.999999]))
        above, _ = cmp.limexp(np.array([80.000001]))
        assert abs(below - above) / below < 1e-5


class TestDiode:
    @given(va=jvolt, vb=jvolt)
    def test_jacobian_consistency(self, va, vb):
        fd_check(make_diode(), np.array([va, vb]))

    def test_forward_current(self):
        d = make_diode()
        i, g = d.current(0.7)
        assert i > 1e-4  # strongly conducting
        assert g > 0

    def test_kcl_conservation(self):
        d = make_diode()
        f, q, _, _ = d.nl_eval(np.array([[0.7], [0.0]]))
        np.testing.assert_allclose(f.sum(axis=0), 0.0, atol=1e-18)
        np.testing.assert_allclose(q.sum(axis=0), 0.0, atol=1e-25)

    def test_shot_noise_scales_with_current(self):
        d = make_diode()
        src = d.noise_sources()[0]
        X_hi = np.array([[0.7], [0.0]])
        X_lo = np.array([[0.5], [0.0]])
        assert src.psd_at(X_hi)[0] > src.psd_at(X_lo)[0] > 0

    def test_batch_evaluation_matches_scalar(self):
        d = make_diode()
        V = np.array([[0.1, 0.5, 0.7], [0.0, 0.0, 0.0]])
        f_batch, _, _, _ = d.nl_eval(V)
        for k in range(3):
            f_one, _, _, _ = d.nl_eval(V[:, k : k + 1])
            np.testing.assert_allclose(f_batch[:, k], f_one[:, 0])


class TestBJT:
    @given(vc=jvolt, vb=jvolt, ve=jvolt)
    def test_jacobian_consistency_npn(self, vc, vb, ve):
        fd_check(make_bjt(1), np.array([vc, vb, ve]))

    @given(vc=jvolt, vb=jvolt, ve=jvolt)
    def test_jacobian_consistency_pnp(self, vc, vb, ve):
        fd_check(make_bjt(-1), np.array([vc, vb, ve]))

    def test_active_region_gain(self):
        q = make_bjt()
        V = np.array([[2.0], [0.65], [0.0]])
        f, _, _, _ = q.nl_eval(V)
        ic, ib, ie = f[:, 0]
        assert ic > 0 and ib > 0
        assert 50 < ic / ib < 150  # beta_f = 100

    def test_terminal_current_conservation(self):
        q = make_bjt()
        V = np.array([[1.0, 0.3], [0.7, 0.8], [0.0, 0.1]])
        f, qq, _, _ = q.nl_eval(V)
        np.testing.assert_allclose(f.sum(axis=0), 0.0, atol=1e-15)
        np.testing.assert_allclose(qq.sum(axis=0), 0.0, atol=1e-20)

    def test_pnp_mirror(self):
        npn = make_bjt(1)
        pnp = make_bjt(-1)
        Vn = np.array([[2.0], [0.65], [0.0]])
        fn, _, _, _ = npn.nl_eval(Vn)
        fp, _, _, _ = pnp.nl_eval(-Vn)
        np.testing.assert_allclose(fp, -fn, rtol=1e-12)

    def test_noise_sources_exist(self):
        assert len(make_bjt().noise_sources()) == 2

    @pytest.mark.parametrize("polarity", [1, -1])
    def test_shot_noise_closed_form(self, polarity):
        q = make_bjt(polarity)
        # forward active and saturated columns, node voltages (c, b, e)
        X = polarity * np.array([[2.0, 0.2], [0.65, 0.7], [0.0, 0.0]])
        psd_ic, psd_ib = (src.psd_at(X) for src in q.noise_sources())
        two_q = 2.0 * cmp.ELEMENTARY_CHARGE
        for k, (vc, vb, ve) in enumerate(polarity * X.T):
            i_f = q.isat * (math.exp((vb - ve) / q.vt) - 1.0) + q.gmin * (vb - ve)
            i_r = q.isat * (math.exp((vb - vc) / q.vt) - 1.0) + q.gmin * (vb - vc)
            ic = i_f - i_r * (1.0 + 1.0 / q.beta_r)
            ib = i_f / q.beta_f + i_r / q.beta_r
            assert psd_ic[k] == pytest.approx(two_q * abs(ic), rel=1e-12)
            assert psd_ib[k] == pytest.approx(two_q * abs(ib), rel=1e-12)


class TestMOSFET:
    @given(vd=volt, vg=volt, vs=volt)
    def test_jacobian_consistency(self, vd, vg, vs):
        # skip points too close to the region boundaries where the model
        # is only C^1 and the FD stencil straddles the kink
        vov = vg - vs - 0.5
        vds = vd - vs
        if abs(vds - vov) < 1e-3 or abs(vov) < 1e-3 or abs(vds) < 1e-3:
            return
        if abs((vg - vd - 0.5) - (vs - vd)) < 1e-3 or abs(vg - vd - 0.5) < 1e-3:
            return
        fd_check(make_mosfet(), np.array([vd, vg, vs]))

    def test_cutoff(self):
        m = make_mosfet()
        f, _, _, _ = m.nl_eval(np.array([[1.0], [0.2], [0.0]]))
        assert abs(f[0, 0]) < 1e-9  # only gmin leakage

    def test_saturation_square_law(self):
        m = cmp.MOSFET("M", "d", "g", "s", kp=2e-4, vth=0.5, lam=0.0)
        m.bind([0, 1, 2], [])
        f1, _, _, _ = m.nl_eval(np.array([[2.0], [1.0], [0.0]]))
        f2, _, _, _ = m.nl_eval(np.array([[2.0], [1.5], [0.0]]))
        # vov doubles from 0.5 to 1.0 -> current quadruples
        np.testing.assert_allclose(f2[0, 0] / f1[0, 0], 4.0, rtol=1e-4)

    def test_symmetric_swap(self):
        # exchanging drain and source terminals negates the current
        m = make_mosfet()
        fwd, _, _, _ = m.nl_eval(np.array([[1.0], [1.2], [0.0]]))
        rev, _, _, _ = m.nl_eval(np.array([[0.0], [1.2], [1.0]]))
        np.testing.assert_allclose(rev[0, 0], -fwd[0, 0], rtol=1e-9)

    def test_gate_current_zero(self):
        m = make_mosfet()
        f, _, _, _ = m.nl_eval(np.array([[1.0], [1.5], [0.0]]))
        assert f[1, 0] == 0.0

    def test_channel_noise_closed_form(self):
        m = make_mosfet()
        # saturation (vds >= vov) and triode columns, node voltages (d, g, s)
        X = np.array([[1.0, 0.3], [1.2, 1.2], [0.0, 0.0]])
        psd = m.noise_sources()[0].psd_at(X)
        vov = 1.2 - m.vth
        gm = [m.kp * vov * (1.0 + m.lam * 1.0), m.kp * 0.3 * (1.0 + m.lam * 0.3)]
        want = 4.0 * cmp.BOLTZMANN * m.temp * (2.0 / 3.0) * np.array(gm)
        np.testing.assert_allclose(psd, want, rtol=1e-12)

    def test_channel_noise_follows_the_swap(self):
        # drain below source: the channel conducts with the two exchanged,
        # so its noise is that of the device with the labels exchanged
        m = make_mosfet()
        X = np.array([[0.0], [1.2], [1.0]])
        f, _, _, _ = m.nl_eval(X)
        assert f[0, 0] < 0
        src = m.noise_sources()[0]
        psd = src.psd_at(X)
        assert psd[0] > 0
        np.testing.assert_array_equal(psd, src.psd_at(X[[2, 1, 0]]))


class TestSwitchConductance:
    @given(v1=volt, v2=volt, cp=volt, cn=volt)
    def test_jacobian_consistency(self, v1, v2, cp, cn):
        fd_check(make_switch(), np.array([v1, v2, cp, cn]))

    def test_on_off_ratio(self):
        s = make_switch()
        g_on, _ = s.conductance(np.array([1.0]))
        g_off, _ = s.conductance(np.array([-1.0]))
        assert g_on / g_off > 1e5

    def test_current_sign(self):
        s = make_switch()
        f, _, _, _ = s.nl_eval(np.array([[1.0], [0.0], [1.0], [0.0]]))
        assert f[0, 0] > 0  # current leaves node a
        np.testing.assert_allclose(f[0, 0], -f[1, 0])


class TestLinearStamps:
    def test_resistor_stamp(self):
        r = cmp.Resistor("R", "a", "b", 100.0)
        r.bind([0, 1], [])
        stamps = dict(((i, j), v) for i, j, v in r.g_stamps())
        assert stamps[(0, 0)] == pytest.approx(0.01)
        assert stamps[(0, 1)] == pytest.approx(-0.01)

    def test_resistor_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            cmp.Resistor("R", "a", "b", -1.0)

    def test_capacitor_stamp(self):
        c = cmp.Capacitor("C", "a", "b", 1e-9)
        c.bind([0, 1], [])
        stamps = dict(((i, j), v) for i, j, v in c.c_stamps())
        assert stamps[(0, 0)] == pytest.approx(1e-9)

    def test_inductor_branch(self):
        l = cmp.Inductor("L", "a", "b", 1e-6)
        l.bind([0, 1], [2])
        cs = dict(((i, j), v) for i, j, v in l.c_stamps())
        assert cs[(2, 2)] == pytest.approx(1e-6)
        gs = dict(((i, j), v) for i, j, v in l.g_stamps())
        assert gs[(0, 2)] == 1.0 and gs[(2, 0)] == -1.0

    def test_mutual_inductance_value(self):
        l1 = cmp.Inductor("L1", "a", "0", 1e-6)
        l2 = cmp.Inductor("L2", "b", "0", 4e-6)
        l1.bind([0, -1], [2])
        l2.bind([1, -1], [3])
        k = cmp.MutualInductance("K1", l1, l2, 0.5)
        assert k.mutual == pytest.approx(0.5 * 2e-6)
        cs = dict(((i, j), v) for i, j, v in k.c_stamps())
        assert cs[(2, 3)] == cs[(3, 2)] == pytest.approx(1e-6)

    def test_mutual_rejects_k_out_of_range(self):
        l1 = cmp.Inductor("L1", "a", "0", 1e-6)
        l2 = cmp.Inductor("L2", "b", "0", 1e-6)
        with pytest.raises(ValueError):
            cmp.MutualInductance("K1", l1, l2, 1.0)

    def test_resistor_thermal_noise_psd(self):
        r = cmp.Resistor("R", "a", "b", 1000.0, temp=300.0)
        r.bind([0, 1], [])
        src = r.noise_sources()[0]
        expect = 4 * cmp.BOLTZMANN * 300.0 / 1000.0
        np.testing.assert_allclose(src.psd_at(np.zeros((2, 1)))[0], expect)

    def test_vccs_stamp(self):
        g = cmp.VCCS("G", "op", "on", "cp", "cn", 1e-3)
        g.bind([0, 1, 2, 3], [])
        stamps = dict(((i, j), v) for i, j, v in g.g_stamps())
        assert stamps[(0, 2)] == pytest.approx(1e-3)
        assert stamps[(1, 2)] == pytest.approx(-1e-3)

"""One device pass per transient Newton iterate, and the parameter
columns it reads.

* Whole analyses on a production system equal, bit for bit, the same
  analyses on the per-device reference evaluator of
  ``tests/stamp_reference.py``.
* A parameter change made through ``Device.set_param`` (directly or via
  ``resolve_param(...).set``) reaches the cached ``(d, 1)`` columns: every
  evaluator then agrees exactly with a freshly compiled system.
* A trap transient evaluates its devices at most twice per accepted
  step (the step state carries the accepted point's f/q forward).
"""

import sys
import threading

import numpy as np
import pytest

from repro.analysis import transient_analysis
from repro.hb import harmonic_balance
from repro.mpde import MPDEOptions
from repro.netlist import Circuit, Sine
from repro.netlist.components import BJT, MOSFET, Diode, SwitchConductance
from repro.sensitivity import resolve_param

from .stamp_reference import ReferenceMNASystem


def _diode_ladder(stages):
    ckt = Circuit(f"{stages}-stage diode ladder")
    ckt.vsource("V1", "n0", "0", Sine(0.8, 10e6))
    ckt.vsource("Vb", "vb", "0", 0.3)
    for k in range(stages):
        ckt.resistor(f"R{k}", f"n{k}", f"n{k + 1}", 150.0)
        ckt.diode(f"D{k}", f"n{k + 1}", "0", isat=1e-13, tt=1e-10, cj0=1e-13)
        ckt.resistor(f"Rb{k}", "vb", f"n{k + 1}", 5e3)
        ckt.capacitor(f"C{k}", f"n{k + 1}", "0", 3e-12)
    return ckt


def _switch_mixer():
    ckt = Circuit("switch mixer")
    ckt.vsource("VLO", "lo", "0", Sine(1.0, 1e6))
    ckt.vsource("VRF", "rf", "0", Sine(0.1, 1e6, phase=0.3))
    ckt.resistor("RS", "rf", "a", 50.0)
    ckt.add(SwitchConductance("S1", "a", "out", "lo", "0"))
    ckt.add(SwitchConductance("S2", "out", "0", "0", "lo", sharpness=10.0))
    ckt.resistor("RL", "out", "0", 1e3)
    ckt.capacitor("CL", "out", "0", 1e-10)
    return ckt.compile()


class TestReferenceEvaluator:
    """End-to-end coverage of the bit-identity contract."""

    @pytest.mark.parametrize("reuse_lu", [True, False])
    def test_trap_transient_matches_reference(self, reuse_lu):
        system = _diode_ladder(8).compile()
        ref = ReferenceMNASystem.like(system)
        kwargs = dict(t_stop=6e-8, dt=1e-9, method="trap", reuse_lu=reuse_lu)
        got = transient_analysis(system, **kwargs)
        want = transient_analysis(ref, **kwargs)
        assert got.converged and len(got.t) == 61
        np.testing.assert_array_equal(got.t, want.t)
        np.testing.assert_array_equal(got.X, want.X)
        assert got.newton_iterations == want.newton_iterations

    @pytest.mark.parametrize("solver", ["direct", "gmres"])
    def test_hb_matches_reference(self, solver):
        system = _switch_mixer()
        ref = ReferenceMNASystem.like(system)
        opts = MPDEOptions(solver=solver)
        got = harmonic_balance(system, [1e6], 6, options=opts)
        want = harmonic_balance(ref, [1e6], 6, options=opts)
        assert got.converged and got.solver == solver
        np.testing.assert_array_equal(got.x, want.x)
        assert got.newton_iterations == want.newton_iterations


# one circuit per batchable family: two devices share a group, every
# parameter visibly moves f/q/G/C at the state below (gmin is large so
# that its changes are not rounded away)
def _diode_family():
    ckt = Circuit("diodes")
    ckt.resistor("R1", "a", "b", 100.0)
    ckt.diode("D1", "a", "0", tt=1e-9, cj0=1e-12, gmin=1e-3)
    ckt.diode("D2", "b", "a", isat=1e-13, tt=2e-9, cj0=2e-12, gmin=2e-3)
    return ckt, {"a": 0.65, "b": 0.3}


def _bjt_family():
    ckt = Circuit("bjts")
    ckt.resistor("R1", "c", "b", 1e3)
    kw = dict(tf=1e-10, cje=1e-13, cjc=2e-13, gmin=1e-3)
    ckt.bjt("Q1", "c", "b", "0", isat=1e-15, **kw)
    ckt.bjt("Q2", "b", "c", "0", isat=2e-15, beta_f=50.0, beta_r=2.0, **kw)
    return ckt, {"c": 1.0, "b": 0.7}


def _mosfet_family():
    ckt = Circuit("mosfets")
    ckt.resistor("R1", "d", "g", 1e3)
    kw = dict(lam=0.05, cgs=1e-14, cgd=2e-14, gmin=1e-3)
    ckt.mosfet("M1", "d", "g", "0", **kw)
    ckt.mosfet("M2", "g", "d", "0", kp=3e-4, vth=0.4, **kw)
    return ckt, {"d": 1.0, "g": 1.5}


def _switch_family():
    ckt = Circuit("switches")
    ckt.resistor("R1", "a", "b", 1e3)
    ckt.add(SwitchConductance("S1", "a", "b", "c", "0", g_off=1e-4))
    ckt.add(SwitchConductance("S2", "b", "0", "0", "c", g_on=5e-2, g_off=1e-3))
    return ckt, {"a": 0.5, "b": 0.1, "c": 0.03}


FAMILIES = {
    "diode": (_diode_family, Diode),
    "bjt": (_bjt_family, BJT),
    "mosfet": (_mosfet_family, MOSFET),
    "switch": (_switch_family, SwitchConductance),
}


def _terms(system, x):
    return (
        system.f(x),
        system.q(x),
        system.G(x).toarray(),
        system.C(x).toarray(),
        *system.batch_fq(x),
        *system.batch_jacobians(x[:, None]),
    )


def _state(system, volts):
    x = np.zeros(system.n)
    for node, v in volts.items():
        x[system.node(node)] = v
    return x


class TestParameterColumns:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_set_param_reaches_cached_columns(self, family):
        build, cls = FAMILIES[family]
        ckt, volts = build()
        system = ckt.compile()
        x = _state(system, volts)
        devices = [d for d in system.devices if isinstance(d, cls)]
        assert len(devices) == 2 and cls.nl_group_params
        names = cls.sens_params
        if cls in (Diode, BJT):
            assert "temp" in names  # the derived vt must follow
        if cls is Diode:
            assert "ideality" in names
        for dev in devices:
            for name in names:
                for how, factor in (("set_param", 1.25), ("resolve_param", 1.5)):
                    before = _terms(system, x)  # columns cached here
                    value = dev.get_param(name) * factor
                    if how == "set_param":
                        dev.set_param(name, value)
                    else:
                        resolve_param(system, f"{dev.name}.{name}").set(value)
                    after = _terms(system, x)
                    # a freshly compiled system gathers its columns anew
                    fresh = _terms(ckt.compile(), x)
                    for got, want in zip(after, fresh):
                        np.testing.assert_array_equal(got, want)
                    moved = any(
                        not np.array_equal(a, b) for a, b in zip(after, before)
                    )
                    assert moved, f"{dev.name}.{name} via {how} changed nothing"

    def test_columns_are_read_only(self):
        ckt, _ = _diode_family()
        system = ckt.compile()
        cols = system._nl_groups[0].params()
        with pytest.raises(ValueError):
            cols["isat"][0, 0] = 1.0

    def test_concurrent_set_param_leaves_no_stale_columns(self):
        """Threads setting parameters while others evaluate: once all
        are done, the cache must match a fresh compile (a lost version
        bump would leave it stale)."""
        ckt = _diode_ladder(8)
        system = ckt.compile()
        diodes = [d for d in system.devices if isinstance(d, Diode)]
        x = np.linspace(0.0, 0.7, system.n)
        done = threading.Event()
        errors = []

        def setter(dev, seed):
            rng = np.random.default_rng(seed)
            try:
                for _ in range(300):
                    dev.set_param("isat", float(rng.uniform(1e-14, 1e-12)))
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        def evaluator():
            try:
                while not done.is_set():
                    system.batch_fq(x)
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        setters = [
            threading.Thread(target=setter, args=(dev, k))
            for k, dev in enumerate(diodes[:4])
        ]
        readers = [threading.Thread(target=evaluator) for _ in range(2)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in readers + setters:
                t.start()
            for t in setters:
                t.join(timeout=60)
            done.set()
            for t in readers:
                t.join(timeout=60)
        finally:
            done.set()
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in setters + readers)
        assert not errors
        fresh = ckt.compile()
        for got, want in zip(system.batch_fq(x), fresh.batch_fq(x)):
            np.testing.assert_array_equal(got, want)


class TestDevicePasses:
    def test_trap_transient_at_most_two_passes_per_step(self, monkeypatch):
        # the benchmark's ladder setting: 100 trap steps of 10 ps
        system = _diode_ladder(8).compile()
        calls = []
        group_eval = Diode.nl_eval_group

        def counting(cls, *args):
            calls.append(1)
            return group_eval(*args)

        monkeypatch.setattr(Diode, "nl_eval_group", classmethod(counting))
        res = transient_analysis(system, 1e-9, 1e-11, method="trap")
        steps = len(res.t) - 1
        assert res.converged and steps == 100
        # DC operating point, initial C and the first step's f/q
        # included; the per-iterate residual is one fused pass and the
        # accepted point's f/q are carried into the next step
        assert len(calls) <= 2 * steps, f"{len(calls)} passes for {steps} steps"

"""Per-device versions and the three consumers that act on them.

* ``Device.set_param`` moves the device's ``version`` exactly once, after
  the value and its derived fields are in place, for every parameter
  kind (waveform attributes of sources included).
* After random ``set_param`` sequences on random circuits, the cached
  pre-flight report equals a fresh ``lint_circuit`` + ``lint_analysis``
  diagnostic for diagnostic, and ``refresh_stamps`` leaves ``G_lin``,
  ``C_lin``, ``jacobian_pattern()``, ``batch_jacobians`` and the group
  parameter columns equal to a fresh compile's, bit for bit.
* ``explore()`` keys its worker state on what it is built from, so a
  changed system, or a changed deep copy, never reuses a stale state.
"""

import copy
import importlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.dc import dc_analysis
from repro.netlist import Circuit
from repro.netlist import components
from repro.netlist.components import VCCS, Diode, thermal_voltage
from repro.robust.validate import lint_analysis, lint_circuit, preflight
from repro.sensitivity import ParamSet, explore

from . import test_properties

# the package exports the function under the module's name
explore_module = importlib.import_module("repro.sensitivity.explore")


def _device(system, name):
    return next(dev for dev in system.devices if dev.name == name)


# --- versions -----------------------------------------------------------


class TestVersions:
    def test_set_param_moves_version_once_after_derived_fields(self, monkeypatch):
        dev = Diode("D1", "a", "0", ideality=1.2)
        seen = []
        draw = components._next_version

        def spy():
            seen.append(dev.vt)
            return draw()

        monkeypatch.setattr(components, "_next_version", spy)
        before = dev.version
        dev.set_param("temp", 350.0)
        # one draw, made with vt already recomputed
        assert seen == [thermal_voltage(350.0) * 1.2]
        assert dev.version != before

    @pytest.mark.parametrize("kind", ["vsource", "isource"])
    def test_waveform_attributes_move_the_version(self, kind):
        ckt = Circuit("src")
        src = getattr(ckt, kind)("S1", "a", "0", 1.0)
        ckt.resistor("R1", "a", "0", 1e3)
        system = ckt.compile()
        before, system_before = src.version, system.version
        src.set_param("value", 2.0)
        assert src.get_param("value") == 2.0
        assert src.version != before
        assert system.version != system_before

    def test_system_version_is_the_device_maximum(self):
        system = _explore_system()
        version = system.version
        assert version == max(dev.version for dev in system.devices)
        Diode("DX", "a", "0")  # a version drawn outside this system
        assert system.version == version
        dev = _device(system, "R2")
        dev.set_param("resistance", 2.0 * dev.get_param("resistance"))
        assert system.version == dev.version > version

    def test_copies_get_their_own_ids_and_versions(self):
        system = _explore_system()
        for other in (copy.deepcopy(system), pickle.loads(pickle.dumps(system))):
            assert other.uid != system.uid
            versions = {dev.version for dev in system.devices}
            assert not versions & {dev.version for dev in other.devices}


# --- cached lint and delta restamp ----------------------------------------


def _coupled_circuit(rng, n_devices):
    ckt = test_properties.TestVectorizedStamping()._random_circuit(rng, n_devices)
    ckt.inductor("La", "a", "c", 1e-7)
    ckt.inductor("Lb", "b", "d", 2e-7)
    ckt.mutual("K1", "La", "Lb", 0.3)
    return ckt


def _tunable(system):
    """(device, parameter) pairs set_param accepts."""
    return [(dev, name) for dev in system.devices for name in dev.param_names()]


def _new_value(rng, dev, name):
    old = dev.get_param(name)
    if name == "inductance":  # the mutual's sqrt(L1 L2) needs L > 0
        return old * float(rng.choice([0.5, 2.0]))
    if rng.random() < 0.1:
        return float(rng.choice([np.inf, -np.inf]))
    return old * float(rng.choice([0.5, 1.5, 2.0, -1.0]))


def _assert_bits_equal(got, want):
    """Equal bit for bit: signed zeros and NaN payloads included."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _assert_matches_fresh(system, fresh, X):
    for got, want in ((system.G_lin, fresh.G_lin), (system.C_lin, fresh.C_lin)):
        for attr in ("data", "indices", "indptr"):
            _assert_bits_equal(getattr(got, attr), getattr(want, attr))
    for got, want in zip(system.jacobian_pattern(), fresh.jacobian_pattern()):
        _assert_bits_equal(got, want)
    with np.errstate(all="ignore"):  # infinite parameters give NaN entries
        pairs = list(zip(system.batch_jacobians(X), fresh.batch_jacobians(X)))
    for got, want in pairs:
        _assert_bits_equal(got, want)
    for ga, gb in zip(system._nl_groups, fresh._nl_groups):
        pa, pb = ga.params(), gb.params()
        assert pa.keys() == pb.keys()
        for key in pa:
            _assert_bits_equal(pa[key], pb[key])


class TestChangeSignal:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_devices=st.integers(min_value=2, max_value=14),
        steps=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_set_param_sequences(self, seed, n_devices, steps):
        rng = np.random.default_rng(seed)
        ckt = _coupled_circuit(rng, n_devices)
        system = ckt.compile()
        X = rng.normal(size=(system.n, 3))
        tunable = _tunable(system)
        preflight(system, "dc")  # cache filled before anything moves
        for _ in range(steps):
            dev, name = tunable[int(rng.integers(len(tunable)))]
            dev.set_param(name, _new_value(rng, dev, name))

            fresh_lint = lint_circuit(system).merge(lint_analysis(system, "dc"))
            assert preflight(system, "dc").diagnostics == fresh_lint.diagnostics

            system.refresh_stamps(linear=True)
            _assert_matches_fresh(system, ckt.compile(), X)

    def test_mutual_restamps_with_its_inductors(self):
        ckt = _coupled_circuit(np.random.default_rng(11), 4)
        system = ckt.compile()
        c_before = system.C_lin.copy()
        _device(system, "La").set_param("inductance", 4e-7)
        system.refresh_stamps(linear=True)
        _assert_matches_fresh(system, ckt.compile(), np.ones((system.n, 2)))
        # the mutual's entries moved along with La's own
        b1, b2 = _device(system, "La").branch_idx[0], _device(system, "Lb").branch_idx[0]
        assert system.C_lin[b1, b2] != c_before[b1, b2]

    def test_changed_coordinates_restamp_everything(self):
        class SparseVCCS(VCCS):
            """Drops zero entries, as ROM blocks do."""

            def g_stamps(self):
                return [s for s in super().g_stamps() if s[2] != 0.0]

        ckt = Circuit("drop")
        ckt.vsource("V1", "a", "0", 1.0)
        ckt.resistor("R1", "a", "b", 1e3)
        ckt.resistor("R2", "b", "0", 1e3)
        gm = ckt.add(SparseVCCS("G1", "b", "0", "a", "0", 1e-3))
        system = ckt.compile()
        for value in (0.0, 2e-3, 0.0):
            gm.set_param("gm", value)
            system.refresh_stamps(linear=True)
            _assert_matches_fresh(system, ckt.compile(), np.ones((system.n, 1)))

    def test_signed_zero_stamps_are_rewritten(self):
        ckt = Circuit("zeros")
        ckt.vsource("V1", "a", "0", 1.0)
        r1 = ckt.resistor("R1", "a", "b", 1e3)
        ckt.resistor("R2", "b", "0", 1e3)
        system = ckt.compile()
        # 1/inf and 1/-inf stamp 0.0 and -0.0: equal values, other bits
        for value in (np.inf, -np.inf, np.inf):
            r1.set_param("resistance", value)
            system.refresh_stamps(linear=True)
            _assert_matches_fresh(system, ckt.compile(), np.ones((system.n, 1)))

    def test_restamp_leaves_earlier_matrices_alone(self):
        ckt = _coupled_circuit(np.random.default_rng(5), 6)
        system = ckt.compile()
        G_old = system.G_lin
        data = G_old.data.copy()
        r = next(dev for dev in system.devices if dev.param_names() == ["resistance"])
        r.set_param("resistance", 2.0 * r.resistance)
        system.refresh_stamps(linear=True)
        assert system.G_lin is not G_old
        np.testing.assert_array_equal(G_old.data, data)

    def test_compile_and_first_preflight_lint_once(self, monkeypatch):
        import repro.robust.validate as validate

        ckt = Circuit("lint once")
        ckt.vsource("V1", "a", "0", 1.0)
        r1 = ckt.resistor("R1", "a", "b", 1e3)
        ckt.diode("D1", "b", "0", cj0=-1e-12)  # DEV_NEGATIVE_PARAM
        ckt.capacitor("C1", "b", "c", 1e-12)  # c: no DC path, dangling
        r1.set_param("resistance", -5.0)  # DEV_NONPOSITIVE_PARAM
        linted, topologies = [], []
        lint_device, lint_topology = validate._lint_device_params, validate._lint_topology

        def count_device(dev, rep):
            linted.append(dev.name)
            lint_device(dev, rep)

        def count_topology(devices, rep):
            topologies.append(len(devices))
            lint_topology(devices, rep)

        monkeypatch.setattr(validate, "_lint_device_params", count_device)
        monkeypatch.setattr(validate, "_lint_topology", count_topology)
        system = ckt.compile()
        preflight(system, "dc")
        assert sorted(linted) == sorted(dev.name for dev in system.devices)
        assert topologies == [len(system.devices)]
        monkeypatch.undo()
        fresh = lint_circuit(system)
        assert {"DEV_NONPOSITIVE_PARAM", "DEV_NEGATIVE_PARAM", "TOPO_NO_DC_PATH"} <= {
            d.code for d in fresh.diagnostics
        }
        # code, severity, location, message, suggestion, detail, in order
        assert system.validation.diagnostics == fresh.diagnostics
        assert system.validation.subject == fresh.subject

    def test_preflight_returns_independent_copies(self):
        ckt = Circuit("bad")
        ckt.vsource("V1", "a", "0", 1.0)
        ckt.resistor("R1", "a", "0", 1e3)
        system = ckt.compile()
        _device(system, "R1").set_param("resistance", -5.0)
        first = preflight(system, "dc")
        assert first.has("DEV_NONPOSITIVE_PARAM")
        first.diagnostics[0].detail["value"] = 0.0
        first.diagnostics[0].message = "edited"
        second = preflight(system, "dc")
        assert second.diagnostics == lint_circuit(system).diagnostics


# --- explore ------------------------------------------------------------


def _explore_system():
    ckt = Circuit("explore")
    ckt.vsource("V1", "in", "0", waveform=3.0)
    ckt.resistor("R1", "in", "a", 1e3)
    ckt.diode("D1", "a", "b")
    ckt.diode("D2", "b", "0")
    ckt.resistor("R2", "b", "0", 2e3)
    ckt.resistor("R3", "a", "0", 1e4)
    ckt.capacitor("C1", "b", "0", 1e-9)
    return ckt.compile()


PARAMS = ["R1.resistance", "R2.resistance"]
POINTS = [(a, b) for a in (500.0, 1e3, 2e3) for b in (1e3, 3e3)]


def _objectives(system, **kw):
    res = explore(system, PARAMS, "b", POINTS, gradients=True, **kw)
    return res.objectives, res.gradients


class TestExploreKeys:
    def test_source_change_between_calls(self):
        system = _explore_system()
        before = _objectives(system)
        _device(system, "V1").set_param("value", 2.0)
        after = _objectives(system)
        fresh = _explore_system()
        _device(fresh, "V1").set_param("value", 2.0)
        want = _objectives(fresh)
        for got, ref in zip(after, want):
            np.testing.assert_array_equal(got, ref)
        assert not np.array_equal(after[0], before[0])

    def test_changed_deep_copy_after_the_original(self):
        system = _explore_system()
        original = _objectives(system)
        twin = copy.deepcopy(system)
        _device(twin, "R3").set_param("resistance", 3e3)
        changed = _objectives(twin)
        fresh = _explore_system()
        _device(fresh, "R3").set_param("resistance", 3e3)
        for got, ref in zip(changed, _objectives(fresh)):
            np.testing.assert_array_equal(got, ref)
        # and the original still gets its own answers
        for got, ref in zip(_objectives(system), original):
            np.testing.assert_array_equal(got, ref)

    def test_repeated_calls_share_one_state(self):
        system = _explore_system()
        x_ref = dc_analysis(system).x
        explore_module._STATES.cache = {}
        explore(system, PARAMS, "b", POINTS, x_ref=x_ref)
        explore(system, PARAMS, "b", POINTS[:2], x_ref=x_ref, gradients=True)
        explore(system, PARAMS, "a", POINTS[:2], x_ref=x_ref)
        assert len(explore_module._STATES.cache) == 1
        _device(system, "R3").set_param("resistance", 3e3)
        explore(system, PARAMS, "b", POINTS, x_ref=x_ref)
        assert len(explore_module._STATES.cache) == 2

    def test_woodbury_rows_match_the_point_jacobian(self):
        system = _explore_system()
        x_ref = dc_analysis(system).x
        obj = explore_module.resolve_state_objective("b", system)
        variant = explore_module._variant(system, ParamSet(system, PARAMS))
        task = explore_module._ChunkTask(
            system, PARAMS, obj, "woodbury", False, x_ref, 1e-9, 60, 2.0, variant
        )
        st_ = task._build_state()
        R = variant[0]
        A0R = system.G(x_ref).tocsr()[R].toarray()
        rng = np.random.default_rng(7)
        # every corner one column of the chunk's batched residual
        X = x_ref[:, None] + rng.normal(scale=0.05, size=(x_ref.size, len(POINTS)))
        dL, B, ok = task._load(st_, POINTS)
        assert ok.all()
        F, W = task._residual(st_, X, dL, B)
        for k, point in enumerate(POINTS):
            ref = copy.deepcopy(system)
            ParamSet(ref, PARAMS).set_values(np.asarray(point))
            x = X[:, k]
            f_nl = ref.f(x) - ref.G_lin @ x
            # the reference entries plus deltas round differently from
            # the restamped G_lin: hold F to the scale of its row's terms
            scale = abs(ref.G_lin) @ abs(x) + abs(f_nl) + abs(ref.b_dc())
            err = abs(F[:, k] - (ref.f(x) - ref.b_dc()))
            assert np.all(err <= 1e-14 * scale), (err / scale).max()
            # V in entry form, summed onto the rows R
            V = np.zeros_like(A0R)
            np.add.at(V, (st_["rows"], st_["cols"]), W[:, k])
            want = ref.G(x).tocsr()[R].toarray() - A0R
            np.testing.assert_allclose(
                V, want, rtol=1e-14, atol=1e-14 * np.abs(want).max()
            )

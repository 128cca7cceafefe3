"""Property-based tests (hypothesis) for cross-module invariants."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.em import PanelKernel, capacitance_matrix, make_plate
from repro.em.clustertree import build_cluster_tree
from repro.linalg import gmres
from repro.mpde import Axis, MPDEGrid
from repro.netlist import Circuit, Sine
from repro.rom import DescriptorSystem, arnoldi, pvl

from .stamp_reference import (
    REFERENCE_KERNELS,
    ReferenceMNASystem,
    assert_block_pattern_matches_coo,
)

pos_r = st.floats(min_value=1.0, max_value=1e6)
pos_c = st.floats(min_value=1e-15, max_value=1e-6)


class TestCircuitInvariants:
    @given(
        r1=pos_r, r2=pos_r, r3=pos_r,
        v=st.floats(min_value=-10, max_value=10),
    )
    def test_divider_between_rails(self, r1, r2, r3, v):
        """Any resistive divider output lies between the rails."""
        from repro.analysis import dc_analysis

        ckt = Circuit()
        ckt.vsource("V1", "in", "0", v)
        ckt.resistor("R1", "in", "a", r1)
        ckt.resistor("R2", "a", "b", r2)
        ckt.resistor("R3", "b", "0", r3)
        sys = ckt.compile()
        res = dc_analysis(sys)
        lo, hi = min(0.0, v), max(0.0, v)
        assert lo - 1e-9 <= res.voltage(sys, "a") <= hi + 1e-9
        assert lo - 1e-9 <= res.voltage(sys, "b") <= hi + 1e-9

    @given(r=pos_r, c=pos_c)
    def test_kcl_residual_zero_at_dc_solution(self, r, c):
        from repro.analysis import dc_analysis

        ckt = Circuit()
        ckt.vsource("V1", "in", "0", 1.0)
        ckt.resistor("R1", "in", "out", r)
        ckt.capacitor("C1", "out", "0", c)
        ckt.diode("D1", "out", "0")
        sys = ckt.compile()
        res = dc_analysis(sys)
        assert np.linalg.norm(sys.f(res.x) - sys.b_dc()) < 1e-7

    @given(
        r=pos_r,
        c=pos_c,
        freq=st.floats(min_value=1e3, max_value=1e9),
    )
    def test_hb_matches_ac_for_linear_circuits(self, r, c, freq):
        """On a linear circuit HB and AC are the same analysis."""
        from repro.analysis import ac_analysis
        from repro.hb import harmonic_balance

        assume(r * c < 1.0)  # keep the pole in a sane range
        ckt = Circuit()
        ckt.vsource("V1", "in", "0", Sine(1.0, freq))
        ckt.resistor("R1", "in", "out", r)
        ckt.capacitor("C1", "out", "0", c)
        sys = ckt.compile()
        hb = harmonic_balance(sys, harmonics=2)
        ac = ac_analysis(sys, "V1", [freq])
        np.testing.assert_allclose(
            hb.amplitude_at("out", (1,)),
            abs(ac.voltage(sys, "out"))[0],
            rtol=1e-8,
        )


class TestGridProperties:
    @given(
        n=st.sampled_from([4, 8, 16, 32]),
        freq=st.floats(min_value=1e3, max_value=1e9),
        k=st.integers(min_value=1, max_value=3),
    )
    def test_spectral_derivative_exact_for_harmonics(self, n, freq, k):
        assume(k < n // 2)
        ax = Axis("fourier", freq, n)
        t = ax.times()
        y = np.cos(2 * np.pi * k * freq * t)
        dy = np.real(np.fft.ifft(np.fft.fft(y) * ax.deriv_eigenvalues()))
        expect = -2 * np.pi * k * freq * np.sin(2 * np.pi * k * freq * t)
        np.testing.assert_allclose(dy, expect, rtol=1e-7, atol=1e-3 * abs(expect).max())

    @given(
        n1=st.sampled_from([4, 8]),
        n2=st.sampled_from([4, 8, 16]),
    )
    def test_derivative_annihilates_constants_and_integrates_to_zero(self, n1, n2):
        grid = MPDEGrid([Axis("fourier", 1.0, n1), Axis("fd", 10.0, n2)])
        rng = np.random.default_rng(n1 * 100 + n2)
        X = rng.standard_normal((n1, n2, 2))
        dX = grid.apply_derivative(X)
        # mean of a periodic derivative over the grid vanishes
        np.testing.assert_allclose(dX.mean(axis=(0, 1)), 0.0, atol=1e-10)


class TestGMRESProperties:
    @given(
        n=st.integers(min_value=2, max_value=25),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_solves_random_diagonally_dominant(self, n, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n, n))
        A += np.diag(np.sign(np.diag(A)) * (np.abs(A).sum(axis=1) + 1.0))
        x_true = rng.standard_normal(n)
        res = gmres(lambda v: A @ v, A @ x_true, tol=1e-12, maxiter=10 * n)
        assert res.converged
        np.testing.assert_allclose(res.x, x_true, rtol=1e-6, atol=1e-9)


class TestEMProperties:
    @given(
        nx=st.integers(min_value=2, max_value=5),
        w=st.floats(min_value=0.5, max_value=3.0),
    )
    @settings(max_examples=10)
    def test_capacitance_matrix_symmetric_psd(self, nx, w):
        panels = make_plate(w, 1.0, nx, 3) + make_plate(
            w, 1.0, nx, 3, center=(0, 0, 0.4), conductor=1
        )
        C = capacitance_matrix(panels, compute_condition=False).cap_matrix
        np.testing.assert_allclose(C, C.T, rtol=1e-6)
        assert np.all(np.linalg.eigvalsh(0.5 * (C + C.T)) > -1e-18)
        assert C[0, 1] < 0 < C[0, 0]

    @given(seed=st.integers(min_value=0, max_value=500))
    @settings(max_examples=15)
    def test_cluster_tree_partitions_points(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((rng.integers(5, 120), 3))
        tree = build_cluster_tree(pts, leaf_size=8)
        collected = []

        def walk(node):
            if node.is_leaf:
                collected.extend(node.indices.tolist())
            else:
                walk(node.left)
                walk(node.right)

        walk(tree)
        assert sorted(collected) == list(range(pts.shape[0]))


class TestROMProperties:
    @given(
        n=st.integers(min_value=4, max_value=20),
        q=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=300),
    )
    @settings(max_examples=20)
    def test_moment_matching_property(self, n, q, seed):
        """Arnoldi of order q matches >= q moments on random stable systems."""
        assume(q < n)
        rng = np.random.default_rng(seed)
        C = np.diag(rng.uniform(0.5, 2.0, n))
        G = np.diag(rng.uniform(0.5, 2.0, n)) + 0.3 * rng.standard_normal((n, n))
        assume(np.linalg.cond(G) < 1e6)
        B = rng.standard_normal((n, 1))
        L = rng.standard_normal((n, 1))
        desc = DescriptorSystem(C=C, G=G, B=B, L=L)
        rom = arnoldi(desc, q)
        m_full = desc.moments(q)[:, 0, 0]
        m_rom = rom.moments(q)[:, 0, 0]
        scale = np.abs(m_full) + 1e-12
        assert np.all(np.abs(m_rom - m_full) / scale < 1e-5)

    @given(
        n=st.integers(min_value=5, max_value=16),
        seed=st.integers(min_value=0, max_value=300),
    )
    @settings(max_examples=20)
    def test_pvl_exact_at_full_order(self, n, seed):
        """PVL at q = n reproduces the full transfer function."""
        rng = np.random.default_rng(seed)
        C = np.diag(rng.uniform(0.5, 2.0, n))
        G = np.diag(rng.uniform(1.0, 2.0, n)) + 0.2 * rng.standard_normal((n, n))
        assume(np.linalg.cond(G) < 1e5)
        B = rng.standard_normal((n, 1))
        L = rng.standard_normal((n, 1))
        desc = DescriptorSystem(C=C, G=G, B=B, L=L)
        rom = pvl(desc, n)
        s = 1j * np.array([0.1, 1.0, 3.0])
        np.testing.assert_allclose(
            rom.transfer(s)[:, 0, 0], desc.transfer(s)[:, 0, 0], rtol=1e-5, atol=1e-9
        )


class TestVectorFitProperties:
    @given(
        seed=st.integers(min_value=0, max_value=400),
        n_pairs=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=15)
    def test_random_stable_rational_roundtrip(self, seed, n_pairs):
        """Vector fitting recovers random stable rational functions."""
        from repro.rom import vector_fit

        rng = np.random.default_rng(seed)
        poles = []
        residues = []
        for _ in range(n_pairs):
            a = -rng.uniform(0.02, 0.5) * 1e9
            b = rng.uniform(0.5, 8.0) * 1e9
            r = (rng.uniform(0.1, 2.0) + 1j * rng.uniform(-1, 1)) * 1e8
            poles.extend([a + 1j * b, a - 1j * b])
            residues.extend([r, np.conj(r)])
        poles = np.array(poles)
        residues = np.array(residues)
        f = np.geomspace(1e7, 3e10, 240)
        s = 2j * np.pi * f
        H = np.zeros(f.size, dtype=complex)
        for p, r in zip(poles, residues):
            H += r / (s - p)
        fit = vector_fit(f, H, n_poles=poles.size, fit_d=False)
        assert fit.rms_error < 1e-4
        assert np.all(fit.poles.real <= 1e-6 * np.abs(fit.poles))
        # the realization reproduces the samples too
        rom = fit.to_reduced_system()
        np.testing.assert_allclose(
            rom.transfer(s)[:, 0, 0], H, rtol=2e-3, atol=1e-4 * np.max(np.abs(H))
        )


class TestTouchstoneRoundtripProperty:
    @given(
        ports=st.integers(min_value=1, max_value=4),
        m=st.integers(min_value=1, max_value=6),
        fmt=st.sampled_from(["RI", "MA", "DB"]),
        seed=st.integers(min_value=0, max_value=2**16),
        hint=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_write_read_roundtrip(self, tmp_path_factory, ports, m, fmt, seed, hint):
        """write_touchstone -> read_touchstone is identity within tolerance
        over formats x port counts, with and without the .sNp extension
        hint (the latter exercises the wrapped-row port inference)."""
        from repro.em import read_touchstone, write_touchstone

        rng = np.random.default_rng(seed)
        freqs = np.sort(rng.uniform(1e8, 1e10, m))
        assume(np.all(np.diff(freqs) > 0) or m == 1)
        S = 0.5 * rng.standard_normal((m, ports, ports)) + 0.5j * rng.standard_normal(
            (m, ports, ports)
        )
        d = tmp_path_factory.mktemp("ts")
        name = f"dut.s{ports}p" if hint else "dut.dat"
        path = str(d / name)
        write_touchstone(path, freqs, S, fmt=fmt)
        data = read_touchstone(path)
        assert data.num_ports == ports
        np.testing.assert_allclose(data.freqs, freqs, rtol=1e-8)
        np.testing.assert_allclose(data.S, S, rtol=1e-6, atol=1e-9)


class TestVectorizedStamping:
    """The batched device pass is bit-identical to the per-device
    reference in ``tests/stamp_reference.py``.

    Random circuits mixing linear devices (R/L/C, V/I sources) with every
    batchable nonlinear family (diodes, BJTs, MOSFETs, switches) and the
    per-device callables (NonlinearResistor/NonlinearCapacitor) must
    produce *exactly* equal DAE terms, point Jacobians (same sparsity,
    same values) and batch-Jacobian slabs under both evaluators.
    """

    NODES = ("0", "a", "b", "c", "d")

    def _random_circuit(self, rng, n_devices):
        from repro.netlist.components import (
            NonlinearCapacitor,
            NonlinearResistor,
        )

        ckt = Circuit("prop")
        ckt.vsource("Vsrc", "a", "0", float(rng.uniform(-1.0, 1.0)))
        kinds = rng.choice(
            ["R", "L", "C", "I", "D", "Q", "M", "S", "NR", "NC"], size=n_devices
        )
        pick = lambda: str(rng.choice(self.NODES))
        for i, kind in enumerate(kinds):
            name = f"{kind}{i}"
            if kind == "R":
                ckt.resistor(name, pick(), pick(), float(rng.uniform(10, 1e5)))
            elif kind == "L":
                ckt.inductor(name, pick(), pick(), float(rng.uniform(1e-9, 1e-6)))
            elif kind == "C":
                ckt.capacitor(name, pick(), pick(), float(rng.uniform(1e-15, 1e-9)))
            elif kind == "I":
                ckt.isource(name, pick(), pick(), float(rng.uniform(-1e-3, 1e-3)))
            elif kind == "D":
                ckt.diode(
                    name, pick(), pick(),
                    isat=float(rng.uniform(1e-16, 1e-12)),
                    tt=float(rng.choice([0.0, 1e-9])),
                    cj0=float(rng.choice([0.0, 1e-12])),
                )
            elif kind == "Q":
                ckt.bjt(
                    name, pick(), pick(), pick(),
                    beta_f=float(rng.uniform(10, 300)),
                    polarity=int(rng.choice([1, -1])),
                    tf=float(rng.choice([0.0, 1e-11])),
                    cje=float(rng.choice([0.0, 1e-13])),
                    cjc=float(rng.choice([0.0, 1e-13])),
                )
            elif kind == "M":
                ckt.mosfet(
                    name, pick(), pick(), pick(),
                    kp=float(rng.uniform(1e-5, 1e-3)),
                    vth=float(rng.uniform(0.2, 0.8)),
                    lam=float(rng.choice([0.0, 0.05])),
                    cgs=float(rng.choice([0.0, 1e-14])),
                    cgd=float(rng.choice([0.0, 1e-14])),
                    polarity=int(rng.choice([1, -1])),
                )
            elif kind == "S":
                from repro.netlist.components import SwitchConductance

                ckt.add(
                    SwitchConductance(
                        name, pick(), pick(), pick(), pick(),
                        g_on=float(rng.uniform(1e-3, 1e-1)),
                        sharpness=float(rng.uniform(5.0, 40.0)),
                    )
                )
            elif kind == "NR":
                aa = float(rng.uniform(1e-4, 1e-2))
                ckt.add(
                    NonlinearResistor(
                        name, pick(), pick(),
                        lambda v, aa=aa: aa * v**3,
                        lambda v, aa=aa: 3.0 * aa * v**2,
                    )
                )
            else:  # NC
                cc = float(rng.uniform(1e-13, 1e-11))
                ckt.add(
                    NonlinearCapacitor(
                        name, pick(), pick(),
                        lambda v, cc=cc: cc * np.tanh(v),
                        lambda v, cc=cc: cc * (1.0 - np.tanh(v) ** 2),
                    )
                )
        # guarantee at least two batchable families are present
        ckt.diode("Dfix", "b", "0")
        ckt.bjt("Qfix", "c", "b", "0")
        return ckt

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_devices=st.integers(min_value=2, max_value=14),
        m=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=30, deadline=None)
    def test_scalar_and_vectorized_paths_bit_identical(self, seed, n_devices, m):
        rng = np.random.default_rng(seed)
        ckt = self._random_circuit(rng, n_devices)
        sys_vec = ckt.compile()
        sys_ref = ReferenceMNASystem.like(sys_vec)

        x = rng.normal(scale=1.0, size=sys_vec.n)
        X = rng.normal(scale=1.0, size=(sys_vec.n, m))

        np.testing.assert_array_equal(sys_vec.f(x), sys_ref.f(x))
        np.testing.assert_array_equal(sys_vec.q(x), sys_ref.q(x))
        np.testing.assert_array_equal(sys_vec.f(X), sys_ref.f(X))
        np.testing.assert_array_equal(sys_vec.q(X), sys_ref.q(X))
        # the fused pass returns the same terms for (n,) and (n, m)
        for point in (x, X):
            for got, want in zip(sys_vec.batch_fq(point), sys_ref.batch_fq(point)):
                np.testing.assert_array_equal(got, want)

        Gv, Gs = sys_vec.G(x), sys_ref.G(x)
        Cv, Cs = sys_vec.C(x), sys_ref.C(x)
        # same sparsity structure AND same values, exactly
        assert Gv.nnz == Gs.nnz and Cv.nnz == Cs.nnz
        np.testing.assert_array_equal(Gv.toarray(), Gs.toarray())
        np.testing.assert_array_equal(Cv.toarray(), Cs.toarray())

        pv, ps = sys_vec.jacobian_pattern(), sys_ref.jacobian_pattern()
        np.testing.assert_array_equal(pv[0], ps[0])
        np.testing.assert_array_equal(pv[1], ps[1])
        gv, cv = sys_vec.batch_jacobians(X)
        gs, cs = sys_ref.batch_jacobians(X)
        np.testing.assert_array_equal(gv, gs)
        np.testing.assert_array_equal(cv, cs)

        # a device's nl_eval (its group kernel on a group of one) is its
        # slice of the whole group's output: nl_dfdp's finite-difference
        # fallback relies on it
        for grp in sys_vec._nl_groups:
            if not grp.batched:
                continue
            V = np.where(grp.var_mask, X[grp.var_safe], 0.0)
            terms = grp.eval(X)
            for k, dev in enumerate(grp.devices):
                for got, want in zip(dev.nl_eval(V[k]), terms):
                    np.testing.assert_array_equal(got, want[k])

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_devices=st.integers(min_value=2, max_value=14),
        m=st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=30, deadline=None)
    def test_block_pattern_matches_coo_build(self, seed, n_devices, m):
        rng = np.random.default_rng(seed)
        system = self._random_circuit(rng, n_devices).compile()
        assert_block_pattern_matches_coo(system, m, rng)

    def test_every_group_kernel_has_a_reference_kernel(self):
        from repro.netlist import components

        batched = {
            cls
            for cls in vars(components).values()
            if isinstance(cls, type)
            and issubclass(cls, components.Device)
            and cls.nl_eval_group.__func__ is not components.Device.nl_eval_group.__func__
        }
        assert batched == set(REFERENCE_KERNELS)

    def test_stamp_mode_env_and_validation(self, monkeypatch):
        # one evaluator: the stamping-mode switch is gone, so the old
        # environment variable selects nothing and compile() rejects the
        # old keyword
        import repro.netlist.mna as mna

        assert not hasattr(mna, "STAMP_ENV")
        assert not hasattr(mna, "resolve_stamp_mode")
        monkeypatch.setenv("REPRO_STAMP_MODE", "scalar")
        rng = np.random.default_rng(1234)
        ckt = self._random_circuit(rng, 3)
        system = ckt.compile()
        assert not hasattr(system, "vectorize")
        x = rng.normal(size=system.n)
        ref = ReferenceMNASystem.like(system)
        np.testing.assert_array_equal(system.f(x), ref.f(x))
        with pytest.raises(TypeError):
            ckt.compile(vectorize=False)

"""Per-device stamping reference for the batched MNA evaluator.

:class:`ReferenceMNASystem` is an :class:`~repro.netlist.mna.MNASystem`
whose evaluators visit the nonlinear devices one at a time, in the
compiled system's canonical device order, and scatter with plain Python
loops: the straightforward reading of the stamping rules.  Each device
of a batchable family is evaluated by its per-device kernel below
(:data:`REFERENCE_KERNELS`), written apart from the library's batched
group kernels; every other device by its own ``Device.nl_eval``.  The
production evaluator batches devices by type and scatters through
precomputed index arrays, and must agree with this reference bit for
bit.
"""

from typing import List, Tuple

import numpy as np
import scipy.sparse as sp

from repro.netlist.components import BJT, MOSFET, Diode, SwitchConductance, limexp
from repro.netlist.mna import MNASystem

__all__ = [
    "REFERENCE_KERNELS",
    "ReferenceMNASystem",
    "assert_block_pattern_matches_coo",
    "coo_block_diag",
    "reference_nl_eval",
]


# --- per-device kernels ---------------------------------------------------
# One device, scalar parameters read from its attributes; the same
# expressions in the same association order as the group kernels, so the
# two agree bit for bit.


def diode_current(dev, vd):
    """Junction current and small-signal conductance at voltage vd."""
    e, de = limexp(np.asarray(vd) / dev.vt)
    i = dev.isat * (e - 1.0) + dev.gmin * vd
    g = dev.isat * de / dev.vt + dev.gmin
    return i, g


def diode_nl_eval(dev, V):
    vd = V[0] - V[1]
    i, g = diode_current(dev, vd)
    f = np.stack([i, -i])
    df = np.empty((2, 2, V.shape[1]))
    df[0, 0], df[0, 1] = g, -g
    df[1, 0], df[1, 1] = -g, g
    qd = dev.tt * i + dev.cj0 * vd
    cq = dev.tt * g + dev.cj0
    q = np.stack([qd, -qd])
    dq = np.empty((2, 2, V.shape[1]))
    dq[0, 0], dq[0, 1] = cq, -cq
    dq[1, 0], dq[1, 1] = -cq, cq
    return f, q, df, dq


def bjt_junction_currents(dev, vbe, vbc):
    ef, def_ = limexp(vbe / dev.vt)
    er, der = limexp(vbc / dev.vt)
    i_f = dev.isat * (ef - 1.0) + dev.gmin * vbe
    i_r = dev.isat * (er - 1.0) + dev.gmin * vbc
    gf = dev.isat * def_ / dev.vt + dev.gmin
    gr = dev.isat * der / dev.vt + dev.gmin
    return i_f, i_r, gf, gr


def bjt_nl_eval(dev, V):
    p = dev.polarity
    vc, vb, ve = V
    vbe = p * (vb - ve)
    vbc = p * (vb - vc)
    i_f, i_r, gf, gr = bjt_junction_currents(dev, vbe, vbc)

    kr = 1.0 + 1.0 / dev.beta_r
    ic = i_f - i_r * kr
    ib = i_f / dev.beta_f + i_r / dev.beta_r
    ie = -(ic + ib)

    m = V.shape[1]
    f = p * np.stack([ic, ib, ie])
    # partials w.r.t. (vbe, vbc)
    dic = np.stack([gf, -gr * kr])
    dib = np.stack([gf / dev.beta_f, gr / dev.beta_r])
    die = -(dic + dib)
    # chain rule to node voltages (vc, vb, ve); the two polarity
    # factors (current sign and junction-voltage sign) cancel.
    dvbe = np.array([0.0, 1.0, -1.0])
    dvbc = np.array([-1.0, 1.0, 0.0])
    df = np.empty((3, 3, m))
    for row, dterm in enumerate((dic, dib, die)):
        for col in range(3):
            df[row, col] = dterm[0] * dvbe[col] + dterm[1] * dvbc[col]

    # charges: qbe = tf*IF + cje*vbe on the B-E junction, qbc = cjc*vbc
    qbe = dev.tf * i_f + dev.cje * vbe
    qbc = dev.cjc * vbc
    cbe = dev.tf * gf + dev.cje
    cbc = np.full(m, dev.cjc)
    # charge leaves base into emitter/collector terminals
    q = p * np.stack([-qbc, qbe + qbc, -qbe])
    dq = np.empty((3, 3, m))
    # terminal charge partials via the same chain rule
    dq_c = np.stack([np.zeros(m), -cbc])  # d(-qbc)/d(vbe,vbc)
    dq_b = np.stack([cbe, cbc])
    dq_e = np.stack([-cbe, np.zeros(m)])
    for row, dterm in enumerate((dq_c, dq_b, dq_e)):
        for col in range(3):
            dq[row, col] = dterm[0] * dvbe[col] + dterm[1] * dvbc[col]
    return f, q, df, dq


def mosfet_ids(dev, vgs, vds):
    """Drain current and partials for vds >= 0 (vectorized)."""
    vov = vgs - dev.vth
    on = vov > 0.0
    sat = vds >= vov
    kp, lam = dev.kp, dev.lam
    clm = 1.0 + lam * vds

    ids_sat = 0.5 * kp * vov**2 * clm
    g_sat = kp * vov * clm
    go_sat = 0.5 * kp * vov**2 * lam

    ids_tri = kp * (vov - 0.5 * vds) * vds * clm
    g_tri = kp * vds * clm
    go_tri = kp * (vov - vds) * clm + kp * (vov - 0.5 * vds) * vds * lam

    ids = np.where(sat, ids_sat, ids_tri)
    gm = np.where(sat, g_sat, g_tri)
    go = np.where(sat, go_sat, go_tri)
    zero = np.zeros_like(ids)
    ids = np.where(on, ids, zero)
    gm = np.where(on, gm, zero)
    go = np.where(on, go, zero)
    return ids, gm, go


def mosfet_nl_eval(dev, V):
    p = dev.polarity
    vd, vg, vs = V
    vds_raw = p * (vd - vs)
    swap = vds_raw < 0.0
    # operate on the electrically equivalent forward device
    vgs = np.where(swap, p * (vg - vd), p * (vg - vs))
    vds = np.abs(vds_raw)
    ids, gm, go = mosfet_ids(dev, vgs, vds)
    ids = ids + dev.gmin * vds
    go = go + dev.gmin

    m = V.shape[1]
    # current flows drain -> source for the forward device; flip on swap
    sign = np.where(swap, -1.0, 1.0)
    i_d = p * sign * ids
    f = np.stack([i_d, np.zeros(m), -i_d])

    # partials of i_d w.r.t. (vd, vg, vs); polarity cancels as in BJT
    df = np.zeros((3, 3, m))
    # forward: d i/d vd = go ; d i/d vg = gm ; d i/d vs = -(gm+go)
    did_vd = np.where(swap, gm + go, go)
    did_vg = np.where(swap, -gm, gm)
    did_vs = np.where(swap, -go, -(gm + go))
    df[0, 0], df[0, 1], df[0, 2] = did_vd, did_vg, did_vs
    df[2, 0], df[2, 1], df[2, 2] = -did_vd, -did_vg, -did_vs

    # linear gate caps
    qg = dev.cgs * (vg - vs) + dev.cgd * (vg - vd)
    q = np.stack([-dev.cgd * (vg - vd), qg, -dev.cgs * (vg - vs)])
    dq = np.zeros((3, 3, m))
    dq[0, 0], dq[0, 1] = dev.cgd, -dev.cgd
    dq[1, 0], dq[1, 1], dq[1, 2] = -dev.cgd, dev.cgs + dev.cgd, -dev.cgs
    dq[2, 1], dq[2, 2] = -dev.cgs, dev.cgs
    return f, q, df, dq


def switch_conductance(dev, vc):
    th = np.tanh(dev.sharpness * vc)
    g = dev.g_off + (dev.g_on - dev.g_off) * 0.5 * (1.0 + th)
    dg = (dev.g_on - dev.g_off) * 0.5 * dev.sharpness * (1.0 - th**2)
    return g, dg


def switch_nl_eval(dev, V):
    v1, v2, cp, cn = V
    vc = cp - cn
    vs = v1 - v2
    g, dg = switch_conductance(dev, vc)
    i = g * vs
    m = V.shape[1]
    f = np.stack([i, -i])
    df = np.empty((2, 4, m))
    df[0, 0], df[0, 1] = g, -g
    df[0, 2], df[0, 3] = dg * vs, -dg * vs
    df[1] = -df[0]
    q = np.zeros((2, m))
    dq = np.zeros((2, 4, m))
    return f, q, df, dq


#: device class -> its per-device reference kernel; every library class
#: with a group kernel has one (``tests/test_properties.py`` checks)
REFERENCE_KERNELS = {
    Diode: diode_nl_eval,
    BJT: bjt_nl_eval,
    MOSFET: mosfet_nl_eval,
    SwitchConductance: switch_nl_eval,
}


def reference_nl_eval(dev, V):
    """``(f, q, df, dq)`` of one device: its reference kernel, or the
    device's own ``nl_eval`` where its class has none."""
    kernel = REFERENCE_KERNELS.get(type(dev))
    return kernel(dev, V) if kernel is not None else dev.nl_eval(V)


class ReferenceMNASystem(MNASystem):
    """Drop-in system with per-device reference evaluators."""

    @classmethod
    def like(cls, system: MNASystem) -> "ReferenceMNASystem":
        """A reference system over the same devices and unknowns."""
        return cls(system.title, system.devices, system.node_names, system.branch_owner)

    def _entries(self):
        """(device, var_idx, eq_idx) in the canonical order."""
        return [
            (dev, *map(np.asarray, dev.nl_ports()))
            for grp in self._nl_groups
            for dev in grp.devices
        ]

    def _eval_nl(self, x2d):
        for dev, var_idx, eq_idx in self._entries():
            V = np.zeros((len(var_idx), x2d.shape[1]))  # ground reads 0
            for k, idx in enumerate(var_idx):
                if idx >= 0:
                    V[k] = x2d[idx]
            f, q, df, dq = reference_nl_eval(dev, V)
            yield var_idx, eq_idx, f, q, df, dq

    def _term(self, base, x, which):
        x2d, squeeze = self._as2d(x)
        out = base @ x2d
        for _, eq_idx, fv, qv, _, _ in self._eval_nl(x2d):
            vals = fv if which == "f" else qv
            for k, row in enumerate(eq_idx):
                if row >= 0:
                    out[row] += vals[k]
        return out[:, 0] if squeeze else out

    def f(self, x):
        return self._term(self.G_lin, x, "f")

    def q(self, x):
        return self._term(self.C_lin, x, "q")

    def batch_fq(self, X, jacobians=False):
        fq = (self.f(X), self.q(X))
        return fq + self.batch_jacobians(X) if jacobians else fq

    def _point_jacobian(self, x, which):
        x2d, _ = self._as2d(x)
        base = self.G_lin if which == "G" else self.C_lin
        rows: List[int] = []
        cols: List[int] = []
        vals: List[float] = []
        for var_idx, eq_idx, _, _, df, dq in self._eval_nl(x2d):
            block = df if which == "G" else dq
            for a, row in enumerate(eq_idx):
                if row < 0:
                    continue
                for bb, col in enumerate(var_idx):
                    if col < 0:
                        continue
                    rows.append(row), cols.append(col)
                    vals.append(block[a, bb, 0])
        if not rows:
            return base.copy()
        extra = sp.csr_matrix(
            (np.array(vals, dtype=float), (rows, cols)), shape=(self.n, self.n)
        )
        return (base + extra).tocsr()

    def jacobian_pattern(self) -> Tuple[np.ndarray, np.ndarray]:
        rows: List[int] = []
        cols: List[int] = []
        for r, c, _ in zip(*self._g_lin_coo):
            rows.append(int(r)), cols.append(int(c))
        for r, c, _ in zip(*self._c_lin_coo):
            rows.append(int(r)), cols.append(int(c))
        for _, var_idx, eq_idx in self._entries():
            for row in eq_idx:
                if row < 0:
                    continue
                for col in var_idx:
                    if col < 0:
                        continue
                    rows.append(int(row)), cols.append(int(col))
        return np.array(rows, dtype=int), np.array(cols, dtype=int)

    def batch_jacobians(self, X):
        m = X.shape[1]
        nnz_gl = len(self._g_lin_coo[0])
        nnz_cl = len(self._c_lin_coo[0])
        nnz_nl = sum(
            int(np.sum(eq_idx >= 0)) * int(np.sum(var_idx >= 0))
            for _, var_idx, eq_idx in self._entries()
        )
        nnz = nnz_gl + nnz_cl + nnz_nl
        g_vals = np.zeros((nnz, m))
        c_vals = np.zeros((nnz, m))
        g_vals[:nnz_gl] = self._g_lin_coo[2][:, None]
        c_vals[nnz_gl : nnz_gl + nnz_cl] = self._c_lin_coo[2][:, None]
        pos = nnz_gl + nnz_cl
        for var_idx, eq_idx, _, _, df, dq in self._eval_nl(X):
            for a, row in enumerate(eq_idx):
                if row < 0:
                    continue
                for bb, col in enumerate(var_idx):
                    if col < 0:
                        continue
                    g_vals[pos] = df[a, bb]
                    c_vals[pos] = dq[a, bb]
                    pos += 1
        return g_vals, c_vals


def coo_block_diag(pattern, vals, n, m) -> sp.csr_matrix:
    """Block diagonal over ``m`` samples built through scipy's COO -> CSR
    conversion, which sums repeated ``(row, col)`` entries: the reference
    for the compiled block pattern of :mod:`repro.mpde.mpde_core`."""
    rows_p, cols_p = pattern
    offs = (np.arange(m) * n)[:, None]
    rows = (rows_p[None, :] + offs).ravel()
    cols = (cols_p[None, :] + offs).ravel()
    return sp.csr_matrix((vals.T.ravel(), (rows, cols)), shape=(n * m, n * m))


def assert_block_pattern_matches_coo(system, m, rng):
    """The compiled block pattern against :func:`coo_block_diag`, exactly:
    same canonical structure, same sums over repeated entries."""
    from repro.mpde.mpde_core import _BlockDiagPattern

    pattern = system.jacobian_pattern()
    blocks = _BlockDiagPattern(pattern, system.n, m)
    X = rng.normal(scale=0.5, size=(system.n, m))
    for vals in system.batch_jacobians(X):
        got, want = blocks.matrix(vals), coo_block_diag(pattern, vals, system.n, m)
        np.testing.assert_array_equal(got.indptr, want.indptr)
        np.testing.assert_array_equal(got.indices, want.indices)
        np.testing.assert_array_equal(got.data, want.data)
        assert got.shape == want.shape
        ref = coo_block_diag(pattern, vals[:, :1], system.n, 1).toarray()
        np.testing.assert_array_equal(blocks.dense(vals[:, 0]), ref)

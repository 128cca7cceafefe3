"""Per-device stamping reference for the batched MNA evaluator.

:class:`ReferenceMNASystem` is an :class:`~repro.netlist.mna.MNASystem`
whose evaluators visit the nonlinear devices one at a time through
``Device.nl_eval``, in the compiled system's canonical device order, and
scatter with plain Python loops: the straightforward reading of the
stamping rules.  The production evaluator batches devices by type and
scatters through precomputed index arrays, and must agree with this
reference bit for bit.
"""

from typing import List, Tuple

import numpy as np
import scipy.sparse as sp

from repro.netlist.mna import MNASystem

__all__ = ["ReferenceMNASystem", "assert_block_pattern_matches_coo", "coo_block_diag"]


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
            f, q, df, dq = dev.nl_eval(V)
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

    def batch_fq(self, X):
        return self.f(X), self.q(X)

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

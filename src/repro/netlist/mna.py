"""Compiled modified-nodal-analysis system.

:class:`MNASystem` is the numerical object every analysis consumes.  It
evaluates the DAE terms of paper eq. (3),

    d q(x)/dt + f(x) = b(t),

together with their Jacobians ``G = df/dx`` and ``C = dq/dx``, both at a
single operating point (sparse matrices, used by DC/AC/transient) and in
*batch* over many time samples at once (used by the HB/MPDE engines,
where one Newton iteration touches an entire periodic grid).

Device evaluation
-----------------
Nonlinear devices are grouped by type (``Device.nl_group_key``) and each
group is evaluated as one numpy batch through its class's group kernel
(``Device.nl_eval_group``, the one implementation of each batchable
model; ``Device.nl_eval`` runs it on a group of one), with parameter
columns it gathers again only after one of its own devices moved its
version (``Device.set_param``).
One pass over the groups serves ``f``, ``q``, ``G``, ``C``,
``batch_fq`` (both terms: use it when both are needed; with
``jacobians=True`` the batch Jacobian values too) and
``batch_jacobians`` alike, scattering through index arrays built at
compile time.  Groups follow one canonical device order, so every
output is bit-identical to a per-device loop over that order.  The
tests keep such a loop, with independent per-device kernels
(``tests/stamp_reference.py``), as the reference.

Linear stamps
-------------
The linear entries are kept as flat COO arrays with one index range per
device, and ``G_lin``/``C_lin`` are assembled from them.
``refresh_stamps`` rewrites only the ranges of devices whose version (or
whose ``Device.stamp_inputs``' versions) moved, then assembles again with
the same call, so the matrices equal a fresh compile's bit for bit.

Compiled systems pickle (for the process-backend sweep executor) by
re-running compilation from the device list on unpickle — the noise
closures, index structures and parameter columns are rebuilt, not
serialized.
"""

from __future__ import annotations

import itertools
import operator
from typing import List, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.netlist.components import Device, NoiseSource, latest_version

__all__ = ["MNASystem"]

# compile-time system ids: never reused, unlike id()
_system_ids = itertools.count(1)

#: A group with several ranks scatters rank by rank once its entries
#: times the sample count reach this many per rank; below that
#: ``np.add.at``'s per-element cost is less than a rank's fixed cost
#: (~2.5 µs).  Measured crossover: 200-300 on the modulator's and the
#: mixer's switch groups.
_RANK_MIN_WORK = 256


class _NLGroup:
    """Precomputed scatter indices for one batch of nonlinear devices.

    Holds ``d`` same-family devices (``d == 1`` for devices that opt out
    of batching via ``nl_group_key() is None``) together with the index
    arrays the stamping pass needs:

    * ``var_safe``/``var_mask`` — gather ``(d, k_in, m)`` local voltages
      from a state block, grounds reading as 0;
    * ``eq_rows``/``eq_src`` — the global KCL rows of the group's
      ``(d, k_eq)`` f/q entries and their flat positions, grounds
      dropped, in canonical order;
    * ``ranks`` — ``eq_rows``/``eq_src`` split so that no row repeats
      within a rank: rank ``r`` holds each row's ``r``-th entry (see
      :meth:`scatter`);
    * ``jac_rows``/``jac_cols``/``jac_valid`` — the COO coordinates of
      the group's Jacobian block in canonical (device, eq, var) order,
      matching :meth:`MNASystem.jacobian_pattern`.
    """

    __slots__ = (
        "devices",
        "cls",
        "batched",
        "var_safe",
        "var_mask",
        "eq_rows",
        "eq_src",
        "ranks",
        "jac_rows",
        "jac_cols",
        "jac_valid",
        "jac_nnz",
        "_params",
    )

    def __init__(self, entries, batched: bool):
        self.devices = [dev for dev, _, _ in entries]
        self.cls = type(self.devices[0])
        self.batched = batched
        var_idx = np.stack([v for _, v, _ in entries])  # (d, k_in)
        eq_idx = np.stack([e for _, _, e in entries])  # (d, k_eq)
        self.var_safe = np.where(var_idx >= 0, var_idx, 0)
        self.var_mask = (var_idx >= 0)[..., None]
        eq_flat = eq_idx.reshape(-1)
        self.eq_src = np.flatnonzero(eq_flat >= 0)
        self.eq_rows = eq_flat[self.eq_src]
        # rank of an entry = how many earlier entries share its row (a
        # loop: compile time matters to the service, which compiles
        # every job's netlist, and groups are small)
        rank, seen = [], {}
        for row in self.eq_rows.tolist():
            rank.append(seen.get(row, 0))
            seen[row] = rank[-1] + 1
        rank = np.array(rank, dtype=int)
        self.ranks = tuple(
            (self.eq_rows[rank == r], self.eq_src[rank == r])
            for r in range(max(seen.values(), default=0))
        )
        valid = (eq_idx[:, :, None] >= 0) & (var_idx[:, None, :] >= 0)
        rows = np.broadcast_to(eq_idx[:, :, None], valid.shape)
        cols = np.broadcast_to(var_idx[:, None, :], valid.shape)
        self.jac_valid = valid.reshape(-1)
        self.jac_rows = rows.reshape(-1)[self.jac_valid]
        self.jac_cols = cols.reshape(-1)[self.jac_valid]
        self.jac_nnz = int(self.jac_rows.size)
        self._params = (None, None, None)

    def params(self) -> dict:
        """Read-only ``(d, 1)`` parameter columns, gathered again only
        after one of the group's devices moved its version.

        O(1) while no device anywhere has moved; otherwise the group
        compares its own devices' versions.  The cache is replaced as one
        tuple (no thread sees it half built), and the versions are read
        before the gather, so a racing ``set_param`` leaves it marked
        stale."""
        latest = latest_version()
        seen, versions, columns = self._params
        if seen == latest:
            return columns
        now = [dev.version for dev in self.devices]
        if now != versions:
            columns = {}
            for name in self.cls.nl_group_params:
                col = np.array(
                    [getattr(dev, name) for dev in self.devices], dtype=float
                )[:, None]
                col.flags.writeable = False
                columns[name] = col
        self._params = (latest, now, columns)
        return columns

    def eval(self, x2d: np.ndarray):
        """(f, q, df, dq) with a leading device axis of length ``d``."""
        V = np.where(self.var_mask, x2d[self.var_safe], 0.0)
        if self.batched:
            return self.cls.nl_eval_group(self.params(), V)
        f, q, df, dq = self.devices[0].nl_eval(V[0])
        return f[None], q[None], df[None], dq[None]

    def scatter(self, out: np.ndarray, vals: np.ndarray) -> None:
        """``out[row] += v`` for each valid entry of ``vals`` (d, k_eq, m)
        onto ``out`` (n, m), in canonical (device, port) order.

        No row repeats within a rank, so a buffered fancy-index add is
        exact there, and the ranks run in order, so every row sums its
        entries in the order a per-device loop (or the unbuffered
        ``np.add.at``) does: the same bits either way.
        """
        m = out.shape[1]
        if m == 1:
            # 1-D fancy indexing costs about half as much as (k, 1) rows
            out, vals = out[:, 0], vals.reshape(-1)
        else:
            vals = vals.reshape(-1, m)
        ranks = self.ranks
        if len(ranks) > 1 and self.eq_rows.size * m < _RANK_MIN_WORK * len(ranks):
            np.add.at(out, self.eq_rows, vals[self.eq_src])
            return
        for rows, src in ranks:
            out[rows] += vals[src]


class MNASystem:
    """Evaluated form of a compiled circuit.

    Attributes
    ----------
    n:
        Total unknown count (node voltages + branch currents).
    node_names:
        Names of the voltage unknowns; unknown ``i`` for
        ``i < len(node_names)`` is the voltage of ``node_names[i]``.
    branch_owner:
        Device name owning each branch-current unknown.
    uid:
        Id fixed at compile time and never reused in this process (a
        copy or an unpickled system compiles again and gets its own).
    """

    def __init__(
        self,
        title: str,
        devices: Sequence[Device],
        node_names: Sequence[str],
        branch_owner: Sequence[str],
    ):
        self.title = title
        self.devices = list(devices)
        self.node_names = list(node_names)
        self.branch_owner = list(branch_owner)
        self.n = len(node_names) + len(branch_owner)
        self.uid = next(_system_ids)
        # devices whose linear stamps also read other devices' parameters
        self._coupled = [
            (k, inputs)
            for k, dev in enumerate(self.devices)
            if (inputs := dev.stamp_inputs())
        ]
        self._node_index = {name: i for i, name in enumerate(node_names)}
        # first-occurrence wins, matching the historical linear scans:
        # a device may own several branch currents, and a device list
        # not built by Circuit may repeat a name
        self._branch_index = {}
        for i, owner in enumerate(self.branch_owner):
            self._branch_index.setdefault(owner, len(self.node_names) + i)
        self._device_index = {}
        for k, dev in enumerate(self.devices):
            self._device_index.setdefault(dev.name, k)
        self._version = (None, 0)  # (latest_version() seen, max then)
        #: pre-flight ValidationReport attached by Circuit.compile (or None)
        self.validation = None

        self._build_linear()
        self._build_nonlinear()
        self._build_sources()
        self._build_noise()

    # --- pickling (process-backend sweeps) -----------------------------
    def __getstate__(self):
        # noise PSD closures and scatter structures are rebuilt from the
        # device list on unpickle; only constructor inputs travel
        return {
            "title": self.title,
            "devices": self.devices,
            "node_names": self.node_names,
            "branch_owner": self.branch_owner,
            "validation": self.validation,
        }

    def __setstate__(self, state):
        self.__init__(
            state["title"],
            state["devices"],
            state["node_names"],
            state["branch_owner"],
        )
        self.validation = state.get("validation")

    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """The highest version among the devices.

        Versions come from one process-wide count that only grows, so
        while one thread sets this system's parameters every
        ``Device.set_param`` on it moves the maximum.  The maximum is
        taken again only after ``latest_version()`` moved, and that is
        read before the scan, so a racing ``set_param`` leaves the cache
        marked stale.
        """
        latest = latest_version()
        seen, version = self._version
        if seen != latest:
            version = max((dev.version for dev in self.devices), default=0)
            self._version = (latest, version)
        return version

    def refresh_stamps(self, linear: bool = True, sources: bool = False) -> None:
        """Bring cached stamp structures up to date after ``set_param``.

        The sensitivity/exploration layer mutates device parameters in
        place (``Device.set_param``); the nonlinear groups' parameter
        columns notice that by themselves, but the linear
        ``G_lin``/``C_lin`` matrices and the excitation row lists are
        assembled at compile time and are brought up to date here.
        ``linear=True`` rewrites the stamp ranges of the devices whose
        version, or whose ``Device.stamp_inputs``' versions, moved since
        the last stamping, and assembles the matrices that changed again
        (a device whose stamp coordinates changed restamps everything);
        with nothing moved it does nothing.  ``sources=True``
        additionally re-scans ``b_stamps`` (only needed when waveform
        *objects* were replaced — in-place waveform attribute mutation
        is picked up live).
        """
        if linear:
            self._restamp_linear()
        if sources:
            self._build_sources()

    # ------------------------------------------------------------------
    def node(self, name: str) -> int:
        """Global unknown index of a node voltage."""
        return self._node_index[name]

    def branch(self, device_name: str) -> int:
        """Global unknown index of a device's (first) branch current."""
        idx = self._branch_index.get(device_name)
        if idx is None:
            available = sorted(set(self.branch_owner))
            raise KeyError(
                f"device {device_name!r} has no branch current; devices with "
                f"branch currents: {available or 'none'}"
            )
        return idx

    # ------------------------------------------------------------------
    def _stamp_versions(self) -> list:
        """Per device, the version its linear stamps are read at: its own,
        or with its ``stamp_inputs`` a tuple of theirs as well."""
        versions = [dev.version for dev in self.devices]
        for k, inputs in self._coupled:
            versions[k] = (versions[k],) + tuple(dev.version for dev in inputs)
        return versions

    def _build_linear(self) -> None:
        # versions are read before the stamps, so a racing set_param
        # leaves its device marked for the next refresh
        self._stamped = self._stamp_versions()
        g_rows, g_cols, g_vals, g_span = [], [], [], [0]
        c_rows, c_cols, c_vals, c_span = [], [], [], [0]
        for dev in self.devices:
            for i, j, v in dev.g_stamps():
                if i >= 0 and j >= 0:
                    g_rows.append(i), g_cols.append(j), g_vals.append(v)
            for i, j, v in dev.c_stamps():
                if i >= 0 and j >= 0:
                    c_rows.append(i), c_cols.append(j), c_vals.append(v)
            g_span.append(len(g_vals))
            c_span.append(len(c_vals))
        # flat COO entries; device k owns [span[k], span[k + 1])
        self._g_entries = (
            np.array(g_rows, dtype=int), np.array(g_cols, dtype=int),
            np.array(g_vals, dtype=float), g_span,
        )
        self._c_entries = (
            np.array(c_rows, dtype=int), np.array(c_cols, dtype=int),
            np.array(c_vals, dtype=float), c_span,
        )
        self.G_lin, self._g_lin_coo = self._assemble(self._g_entries)
        self.C_lin, self._c_lin_coo = self._assemble(self._c_entries)
        self._pattern = None  # new coordinates: jacobian_pattern() again

    def _assemble(self, entries, coo=None):
        """CSR matrix of flat COO entries, plus the COO copy kept for
        batch-Jacobian assembly.  ``coo`` is the previous copy when only
        values moved: the coordinates, hence the CSR structure and the
        copy's row/column arrays, are then unchanged."""
        rows, cols, vals, _ = entries
        mat = sp.csr_matrix((vals, (rows, cols)), shape=(self.n, self.n))
        if coo is not None:
            return mat, (coo[0], coo[1], mat.data.copy())
        coo = mat.tocoo()
        return mat, (coo.row.copy(), coo.col.copy(), coo.data.copy())

    def _restamp_linear(self) -> None:
        versions = self._stamp_versions()
        seen = self._stamped
        if versions == seen:
            return
        moved = list(
            itertools.compress(range(len(versions)), map(operator.ne, versions, seen))
        )
        g = self._restamp(self._g_entries, moved, "g_stamps")
        c = self._restamp(self._c_entries, moved, "c_stamps")
        if g is None or c is None:
            self._build_linear()
            return
        if g is not self._g_entries:
            self._g_entries = g
            self.G_lin, self._g_lin_coo = self._assemble(g, self._g_lin_coo)
        if c is not self._c_entries:
            self._c_entries = c
            self.C_lin, self._c_lin_coo = self._assemble(c, self._c_lin_coo)
        self._stamped = versions

    def _restamp(self, entries, moved, method):
        """``entries`` with the moved devices' ranges rewritten (the same
        tuple when none of their values changed), or None when a
        device's stamp coordinates changed."""
        rows, cols, vals, span = entries
        new_vals = None
        for k in moved:
            lo, hi = span[k], span[k + 1]
            stamps = [
                (i, j, v)
                for i, j, v in getattr(self.devices[k], method)()
                if i >= 0 and j >= 0
            ]
            if len(stamps) != hi - lo:
                return None
            if not stamps:
                continue
            r, c, v = zip(*stamps)
            if rows[lo:hi].tolist() != list(r) or cols[lo:hi].tolist() != list(c):
                return None
            v = np.array(v, dtype=float)
            if v.tobytes() == vals[lo:hi].tobytes():  # bits: -0.0 != 0.0
                continue
            if new_vals is None:
                new_vals = vals.copy()
            new_vals[lo:hi] = v
        if new_vals is None:
            return entries
        return rows, cols, new_vals, span

    def _build_nonlinear(self) -> None:
        entries: List[Tuple[Device, np.ndarray, np.ndarray]] = []
        for dev in self.devices:
            if dev.nonlinear:
                var_idx, eq_idx = dev.nl_ports()
                entries.append((dev, np.asarray(var_idx), np.asarray(eq_idx)))
        # canonical ordering: batchable families grouped by first
        # occurrence of their group key (netlist order within a family);
        # unbatchable devices are solo groups in place.  A per-device
        # loop in this order reproduces every sum bit for bit.
        grouped: dict = {}
        order: List[object] = []
        solo_keys = set()
        for pos, entry in enumerate(entries):
            key = entry[0].nl_group_key()
            if key is None:
                key = ("__solo__", pos)
                solo_keys.add(key)
            if key not in grouped:
                grouped[key] = []
                order.append(key)
            grouped[key].append(entry)
        self._nl_groups: List[_NLGroup] = [
            _NLGroup(grouped[key], batched=key not in solo_keys) for key in order
        ]
        # COO coordinates of every nonlinear Jacobian entry, group order
        self._nl_rows = np.concatenate(
            [np.zeros(0, dtype=int)] + [g.jac_rows for g in self._nl_groups]
        )
        self._nl_cols = np.concatenate(
            [np.zeros(0, dtype=int)] + [g.jac_cols for g in self._nl_groups]
        )

    def _build_sources(self) -> None:
        rows, waves, signs = [], [], []
        for dev in self.devices:
            for row, wave, sign in dev.b_stamps():
                if row >= 0:
                    rows.append(row), waves.append(wave), signs.append(sign)
        self._b_rows = np.array(rows, dtype=int)
        self._b_waves = waves
        self._b_signs = np.array(signs, dtype=float)

    def _build_noise(self) -> None:
        self.noise_sources: List[NoiseSource] = []
        for dev in self.devices:
            self.noise_sources.extend(dev.noise_sources())

    # ------------------------------------------------------------------
    def _as2d(self, x: np.ndarray) -> Tuple[np.ndarray, bool]:
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return x[:, None], True
        return x, False

    def _device_pass(self, x2d, f=None, q=None, g_vals=None, c_vals=None) -> None:
        """Evaluate every device group once at the samples ``x2d`` (n, m).

        Nonlinear contributions accumulate onto whichever of ``f``/``q``
        (n, m) are given; Jacobian entries are written into
        ``g_vals``/``c_vals`` (one row per nonlinear pattern entry, in
        :meth:`jacobian_pattern` order).  Every public evaluator is a
        view of this one pass.
        """
        m = x2d.shape[1]
        pos = 0
        for grp in self._nl_groups:
            fv, qv, dfv, dqv = grp.eval(x2d)
            # the group's compiled scatter adds rank by rank, so rows
            # shared between devices sum in the canonical (device, port)
            # order, exactly as a per-device loop would
            if f is not None:
                grp.scatter(f, fv)
            if q is not None:
                grp.scatter(q, qv)
            # C-order flatten of (d, k_eq, k_in) is the (device, eq, var)
            # loop nest of the pattern, entry for entry
            end = pos + grp.jac_nnz
            if g_vals is not None:
                g_vals[pos:end] = dfv.reshape(-1, m)[grp.jac_valid]
            if c_vals is not None:
                c_vals[pos:end] = dqv.reshape(-1, m)[grp.jac_valid]
            pos = end

    # --- DAE terms -------------------------------------------------------
    def f(self, x: np.ndarray) -> np.ndarray:
        """Resistive term f(x); accepts (n,) or (n, m)."""
        x2d, squeeze = self._as2d(x)
        out = self.G_lin @ x2d
        self._device_pass(x2d, f=out)
        return out[:, 0] if squeeze else out

    def q(self, x: np.ndarray) -> np.ndarray:
        """Charge/flux term q(x); accepts (n,) or (n, m)."""
        x2d, squeeze = self._as2d(x)
        out = self.C_lin @ x2d
        self._device_pass(x2d, q=out)
        return out[:, 0] if squeeze else out

    def batch_fq(self, X: np.ndarray, jacobians: bool = False) -> tuple:
        """(f(X), q(X)) from one device pass; accepts (n,) or (n, m).

        With ``jacobians=True`` the same pass also fills the batch
        Jacobian values and returns ``(f, q, g_vals, c_vals)``, the last
        two bit for bit what :meth:`batch_jacobians` returns at ``X``.
        """
        x2d, squeeze = self._as2d(X)
        f = self.G_lin @ x2d
        q = self.C_lin @ x2d
        if not jacobians:
            self._device_pass(x2d, f=f, q=q)
            return (f[:, 0], q[:, 0]) if squeeze else (f, q)
        g_vals, c_vals, nl = self._jacobian_arrays(x2d.shape[1])
        self._device_pass(x2d, f=f, q=q, g_vals=g_vals[nl:], c_vals=c_vals[nl:])
        out = (f, q, g_vals, c_vals)
        return tuple(a[:, 0] for a in out) if squeeze else out

    def b(self, t) -> np.ndarray:
        """Excitation vector; scalar t -> (n,), array t (m,) -> (n, m)."""
        t_arr = np.asarray(t, dtype=float)
        scalar = t_arr.ndim == 0
        t2 = np.atleast_1d(t_arr)
        out = np.zeros((self.n, t2.shape[0]))
        for row, wave, sign in zip(self._b_rows, self._b_waves, self._b_signs):
            out[row] += sign * wave(t2)
        return out[:, 0] if scalar else out

    def b_dc(self) -> np.ndarray:
        """DC component of the excitation (used by DC analysis)."""
        out = np.zeros(self.n)
        for row, wave, sign in zip(self._b_rows, self._b_waves, self._b_signs):
            out[row] += sign * wave.dc
        return out

    def source_frequencies(self) -> Tuple[float, ...]:
        """Distinct nonzero fundamentals present in the excitations."""
        freqs: List[float] = []
        for wave in self._b_waves:
            for f0 in wave.frequencies:
                if f0 > 0 and not any(abs(f0 - g) <= 1e-9 * g for g in freqs):
                    freqs.append(f0)
        return tuple(sorted(freqs))

    # --- Jacobians ---------------------------------------------------------
    def _point_jacobian(self, x: np.ndarray, which: str) -> sp.csr_matrix:
        x2d, _ = self._as2d(x)
        base = self.G_lin if which == "G" else self.C_lin
        if not self._nl_rows.size:
            return base.copy()
        vals = np.empty((self._nl_rows.size, x2d.shape[1]))
        if which == "G":
            self._device_pass(x2d, g_vals=vals)
        else:
            self._device_pass(x2d, c_vals=vals)
        extra = sp.csr_matrix(
            (vals[:, 0], (self._nl_rows, self._nl_cols)), shape=(self.n, self.n)
        )
        return (base + extra).tocsr()

    def G(self, x: np.ndarray) -> sp.csr_matrix:
        """df/dx at a single operating point."""
        return self._point_jacobian(x, "G")

    def C(self, x: np.ndarray) -> sp.csr_matrix:
        """dq/dx at a single operating point."""
        return self._point_jacobian(x, "C")

    # --- batch Jacobians (HB / MPDE) ----------------------------------------
    def jacobian_pattern(self) -> Tuple[np.ndarray, np.ndarray]:
        """(rows, cols) of the combined per-sample Jacobian pattern.

        The pattern is the union of the linear G/C stamps and all
        nonlinear device blocks.  :meth:`batch_jacobians` returns values
        aligned with this fixed pattern, so HB/MPDE can pre-build one
        sparsity structure and refill data on every Newton iteration.
        The arrays are read-only, and the same tuple is returned until a
        restamp moves stamp coordinates: what a consumer compiles from
        it may be cached on the tuple's identity.
        """
        pattern = self._pattern
        if pattern is None:
            rows = np.concatenate([self._g_lin_coo[0], self._c_lin_coo[0], self._nl_rows])
            cols = np.concatenate([self._g_lin_coo[1], self._c_lin_coo[1], self._nl_cols])
            pattern = (rows.astype(int), cols.astype(int))
            for a in pattern:
                a.flags.writeable = False
            self._pattern = pattern
        return pattern

    def _jacobian_arrays(self, m: int):
        """``(g_vals, c_vals, nl)``: ``(nnz, m)`` batch Jacobian values
        holding the linear entries, with the nonlinear rows from ``nl``
        on zero, for a device pass to fill."""
        nnz_gl = len(self._g_lin_coo[0])
        nnz_lin = nnz_gl + len(self._c_lin_coo[0])
        nnz = nnz_lin + self._nl_rows.size
        g_vals = np.zeros((nnz, m))
        c_vals = np.zeros((nnz, m))
        g_vals[:nnz_gl] = self._g_lin_coo[2][:, None]
        c_vals[nnz_gl:nnz_lin] = self._c_lin_coo[2][:, None]
        return g_vals, c_vals, nnz_lin

    def batch_jacobians(self, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per-sample G and C entry values aligned with jacobian_pattern().

        ``X`` has shape ``(n, m)``; returns ``(g_vals, c_vals)`` each of
        shape ``(nnz, m)``.  ``batch_fq(X, jacobians=True)`` returns the
        same values from the pass that evaluates ``f`` and ``q``.
        """
        g_vals, c_vals, nl = self._jacobian_arrays(X.shape[1])
        self._device_pass(X, g_vals=g_vals[nl:], c_vals=c_vals[nl:])
        return g_vals, c_vals

    # --- noise ---------------------------------------------------------------
    def noise_injection_vectors(self) -> List[Tuple[NoiseSource, np.ndarray]]:
        """(source, unit-injection column) pairs with ground rows dropped."""
        out = []
        for src in self.noise_sources:
            u = np.zeros(self.n)
            for row, sign in zip(src.rows, src.signs):
                if row >= 0:
                    u[row] += sign
            out.append((src, u))
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"MNASystem({self.title!r}, n={self.n}, nodes={len(self.node_names)}, "
            f"branches={len(self.branch_owner)}, devices={len(self.devices)})"
        )

"""Variant/invariant design-space exploration.

Sweeping a handful of design parameters over many corners re-solves a
circuit whose MNA matrix is *mostly the same* at every point: the
invariant background (everything not owned by a swept device, linearized
at the reference point) against a low-rank variant correction.  The
driver exploits that split:

* The background ``A0 = G(x_ref)`` is factored **once** and the *support
  columns* ``Z = A0⁻¹ E_R`` are solved once, where ``R`` is the union of
  the swept linear devices' stamp rows and every nonlinear device's KCL
  rows — the only rows of ``G(x; p)`` that can differ from ``A0``.
* The corners run in chunks of :data:`_CHUNK`, one chunk per sweep item,
  and a chunk's K corners iterate as the K columns of one Newton solve
  with the Woodbury identity

      (A0 + E_R V_k)⁻¹ r_k = y_k - Z (I_r + V_k Z)⁻¹ V_k y_k,   y_k = A0⁻¹ r_k.

  A corner restamps nothing: its values are set on the worker's copy
  only to read the swept devices' linear stamps (deltas against the
  reference entries) and its excitation ``b``.  Each iterate then makes,
  for the whole chunk, one ``G_lin(x_ref) @ X`` product plus the deltas
  on their rows, one device pass over the ``(n, K)`` block, one cached
  triangular solve with K right-hand sides and one stacked solve of the
  ``r x r`` systems ``S_k = I + V_k Z``, and damps each column on its
  own; converged columns retire.  ``V_k = G_k(x)[R] - A0[R]`` is kept in
  entry form on a pattern fixed when the state is built — the nonlinear
  entries on ``R`` plus the swept linear entries — so ``S_k`` and
  ``V_k y_k`` come from ``Z``'s rows on that pattern, and no ``r x n``
  block is formed.  A corner whose residual or step goes non-finite,
  whose ``S_k`` is singular, whose swept stamps change coordinates, or
  which runs out of ``maxiter`` leaves the chunk and is solved alone by
  the full escalation ladder (``dc_analysis``); its iteration count
  includes the iterates it spent in the chunk.
* Gradients (optional) ride the converged ``V_k`` and the same factors
  transposed: ``J⁻ᵀ g = yᵀ - A0⁻ᵀ Vᵀ S⁻ᵀ yᵀ[R]``, one K-RHS transpose
  solve, stacked ``S_kᵀ`` solves and one more K-RHS transpose solve per
  chunk, then the DC adjoint inner product against ``∂f/∂p - ∂b/∂p`` at
  each corner's values.

Chunks dispatch through :func:`~repro.perf.sweep_map`, so the thread and
process backends (and all the fault-tolerance knobs) apply.  The chunk
size is fixed, so every backend and worker count runs the same items.
Two cases run one corner per item: a sweep armed with a fault-tolerance
knob (:func:`~repro.perf.sweep.resolve_fault_policy`), so retries,
deadlines, checkpoints, chaos indices and skip holes keep their
per-corner meaning; and a swept parameter of a nonlinear device, whose
group parameter columns hold one value per device.  Every worker keeps
its own private system copy plus factor state, so the caller's system
is never mutated.  That state is keyed by what it is built from — the
system's ``uid`` and ``version``, the parameter specs, the mode and
``x_ref`` — so repeated calls on an unchanged system reuse the copy, the
LU of ``A0`` and ``Z``, and any ``Device.set_param`` on the caller's
system builds them afresh.
``mode="full"`` solves every point from scratch instead — the
equivalence baseline the tests and the benchmark compare against.
"""

from __future__ import annotations

import copy
import dataclasses
import threading
import time
from typing import List, Optional, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.analysis.dc import dc_analysis
from repro.netlist.mna import MNASystem
from repro.perf import sweep_map
from repro.perf.sweep import resolve_fault_policy
from repro.sensitivity.assemble import dbdp_dc, param_residual_derivs
from repro.sensitivity.objectives import resolve_state_objective
from repro.sensitivity.params import ParamSet

__all__ = ["ExploreResult", "explore"]

_MODES = ("woodbury", "full")

# corners per sweep item; fixed, so a corner's answer cannot depend on
# the worker count or the backend
_CHUNK = 32

# per-thread (and, under the process backend, per-process) worker state,
# keyed by what it is built from; bounded so long-lived workers don't
# hoard factorizations of systems no longer explored
_STATES = threading.local()
_MAX_STATES = 4


@dataclasses.dataclass
class ExploreResult:
    """Objective (and optional gradient) per design point."""

    params: List[str]
    points: np.ndarray  # (npoints, npar)
    objectives: np.ndarray  # (npoints,)
    gradients: Optional[np.ndarray]  # (npoints, npar) or None
    mode: str
    stats: dict

    @property
    def best_index(self) -> int:
        vals = np.where(np.isfinite(self.objectives), self.objectives, np.inf)
        return int(np.argmin(vals))


def _variant(system: MNASystem, ps: ParamSet):
    """``(R, stamped)``: the rows of G that may differ from the
    reference background, and the indices of the devices whose linear
    stamps the swept parameters move.

    Swept devices, and any device whose stamps read one of them, move
    their own stamp rows; every nonlinear device's KCL rows move with the
    state (Newton re-linearizes them at each iterate even when their
    parameters are fixed).
    """
    swept = [bp.device for bp in ps.bound]
    stamped = {system._device_index[dev.name] for dev in swept}
    stamped.update(
        k for k, inputs in system._coupled
        if any(dev is s for dev in inputs for s in swept)
    )
    stamped = sorted(stamped)
    rows = {
        i for k in stamped for i, _, _ in system.devices[k].g_stamps() if i >= 0
    }
    for grp in system._nl_groups:
        rows.update(grp.eq_rows.tolist())
    return np.array(sorted(rows), dtype=int), stamped


def _g_entries(devices) -> list:
    """The devices' linear ``G`` entries ``(i, j, v)``, grounds dropped."""
    return [
        (i, j, v) for dev in devices for i, j, v in dev.g_stamps()
        if i >= 0 and j >= 0
    ]


def _columns(keep, *arrays):
    """The arrays' last-axis entries where ``keep`` holds (the arrays
    themselves when it holds everywhere)."""
    if keep.all():
        return arrays
    return tuple(a[..., keep] for a in arrays)


def _set(ps: ParamSet, values) -> None:
    """Set one corner's values on the devices, restamping nothing."""
    for bp, v in zip(ps.bound, values):
        bp.set(float(v))


class _ChunkTask:
    """Picklable solve of one chunk of corners for the sweep executor."""

    __slots__ = (
        "system", "specs", "objective", "key", "mode", "gradients",
        "x_ref", "abstol", "maxiter", "dx_limit", "R", "stamped",
    )

    def __init__(self, system, specs, objective, mode, gradients,
                 x_ref, abstol, maxiter, dx_limit, variant):
        self.system = system
        self.specs = list(specs)
        self.objective = objective
        self.mode = mode
        self.gradients = gradients
        self.x_ref = np.asarray(x_ref, dtype=float)
        self.abstol = float(abstol)
        self.maxiter = int(maxiter)
        self.dx_limit = float(dx_limit)
        self.R, self.stamped = variant
        # everything the worker state is built from
        self.key = (
            system.uid, system.version, tuple(self.specs), mode,
            self.x_ref.tobytes(),
        )

    # -- worker-local state -------------------------------------------
    def _state(self) -> dict:
        cache = getattr(_STATES, "cache", None)
        if cache is None:
            cache = _STATES.cache = {}
        st = cache.get(self.key)
        if st is None:
            st = self._build_state()
            cache[self.key] = st
            while len(cache) > _MAX_STATES:
                cache.pop(next(iter(cache)))
        return st

    def _build_state(self) -> dict:
        # private copy: set_param mutation must never leak to the
        # caller's system or to sibling threads (MNASystem deep-copies
        # by re-running compilation from its device list)
        sys_c = copy.deepcopy(self.system)
        st = {"sys": sys_c, "ps": ParamSet(sys_c, self.specs)}
        if self.mode != "woodbury":
            return st
        n, R = sys_c.n, self.R
        r = R.size
        lu = spla.splu(sys_c.G(self.x_ref).tocsc())
        devs = [sys_c.devices[k] for k in self.stamped]
        ref = _g_entries(devs)
        sw_rows = np.array([i for i, _, _ in ref], dtype=int)
        sw_cols = np.array([j for _, j, _ in ref], dtype=int)
        # V's pattern: the nonlinear entries on the rows R (picked from
        # the device pass by nl_keep), then the swept linear entries;
        # entry e sits on row rows[e] of R and column cols[e]
        at = np.full(n, -1)
        at[R] = np.arange(r)
        nl_at = at[sys_c._nl_rows]
        nl_keep = nl_at >= 0
        rows = np.concatenate([nl_at[nl_keep], at[sw_rows]])
        cols = np.concatenate([sys_c._nl_cols[nl_keep], sw_cols])
        g_ref = np.empty((sys_c._nl_rows.size, 1))
        sys_c._device_pass(self.x_ref[:, None], g_vals=g_ref)
        Z = lu.solve(np.eye(n)[:, R]) if r else np.zeros((n, 0))
        e = np.arange(rows.size)
        st.update(
            lu=lu, Z=Z, G0=sys_c.G_lin, stamp_devs=devs,
            sw_coords=[(i, j) for i, j, _ in ref],
            sw_ref=np.array([v for _, _, v in ref], dtype=float)[:, None],
            sw_rows=sw_rows, sw_cols=sw_cols,
            nl_keep=nl_keep, nl_ref=g_ref[nl_keep], rows=rows, cols=cols,
            # row a*r + b of VZ_T @ w is (V Z)[a, b] for V's entries w
            VZ_T=sp.csr_matrix(
                (Z[cols].ravel(),
                 ((rows[:, None] * r + np.arange(r)).ravel(), np.repeat(e, r))),
                shape=(r * r, rows.size),
            ),
        )
        return st

    # -- the chunk's Woodbury Newton ----------------------------------
    def _load(self, st, corners):
        """Per corner, the swept linear entries' deltas against the
        reference ``(E_sw, K)`` and the excitation ``(n, K)``, read with
        its values set on the worker's copy.  ``ok`` is False where a
        corner's swept stamp coordinates differ from the reference's."""
        ps, sys_c = st["ps"], st["sys"]
        K = len(corners)
        dL = np.zeros((len(st["sw_coords"]), K))
        B = np.zeros((sys_c.n, K))
        ok = np.ones(K, dtype=bool)
        for k, values in enumerate(corners):
            _set(ps, values)
            entries = _g_entries(st["stamp_devs"])
            if [(i, j) for i, j, _ in entries] != st["sw_coords"]:
                ok[k] = False
                continue
            dL[:, k] = [v for _, _, v in entries]
            B[:, k] = sys_c.b_dc()
        return dL - st["sw_ref"], B, ok

    def _residual(self, st, X, dL, B):
        """``(F, W)`` for the columns of ``X``: the residuals, and the
        entries of ``V = G(x)[R] - A0[R]`` on the fixed pattern, from one
        device pass."""
        sys_c = st["sys"]
        F = st["G0"] @ X
        np.add.at(F, st["sw_rows"], dL * X[st["sw_cols"]])
        g = np.empty((sys_c._nl_rows.size, X.shape[1]))
        sys_c._device_pass(X, f=F, g_vals=g)
        F -= B
        return F, np.concatenate([g[st["nl_keep"]] - st["nl_ref"], dL])

    def _S(self, st, W):
        """The stacked ``(K, r, r)`` matrices ``S_k = I + V_k Z``."""
        r = st["Z"].shape[1]
        return np.eye(r) + (st["VZ_T"] @ W).T.reshape(-1, r, r)

    def _step(self, st, Y, W):
        """Newton steps ``J_k⁻¹ r_k`` from ``Y = A0⁻¹ r`` and the entries
        ``W`` of each ``V_k``; NaN columns where ``S_k`` is singular."""
        Z, rows = st["Z"], st["rows"]
        r, K = Z.shape[1], Y.shape[1]
        if not r:
            return Y
        S = self._S(st, W)
        VY = np.zeros((r, K))
        np.add.at(VY, rows, W * Y[st["cols"]])
        try:
            s = np.linalg.solve(S, VY.T[..., None])[..., 0]
        except np.linalg.LinAlgError:
            # the stacked solve fails as a whole: find the singular ones
            s = np.full((K, r), np.nan)
            for k in range(K):
                try:
                    s[k] = np.linalg.solve(S[k], VY[:, k])
                except np.linalg.LinAlgError:
                    pass
        return Y - Z @ s.T

    def _woodbury(self, st, corners):
        """Newton on the chunk's corners at once.

        Returns ``(X, W, iterations, converged)``: per corner its solution
        and ``V`` entries (where converged) and the iterates it spent.
        """
        n, K = st["sys"].n, len(corners)
        X_out = np.empty((n, K))
        W_out = np.empty((st["rows"].size, K))
        iters = np.full(K, self.maxiter)
        converged = np.zeros(K, dtype=bool)
        dL, B, ok = self._load(st, corners)
        iters[~ok] = 0
        live = np.flatnonzero(ok)
        X = np.repeat(self.x_ref[:, None], live.size, axis=1)
        dL, B = dL[:, live], B[:, live]
        for it in range(self.maxiter):
            if not live.size:
                break
            F, W = self._residual(st, X, dL, B)
            done = np.linalg.norm(F, axis=0) <= self.abstol
            idx = live[done]
            X_out[:, idx], W_out[:, idx] = X[:, done], W[:, done]
            iters[idx], converged[idx] = it, True
            # a non-finite residual leaves here, a non-finite step (a
            # singular S_k among them) below
            keep = ~done & np.isfinite(F).all(axis=0)
            iters[live[~done & ~keep]] = it
            X, F, W, dL, B, live = _columns(keep, X, F, W, dL, B, live)
            if not live.size:
                break
            dX = self._step(st, st["lu"].solve(-F), W)
            mx = np.max(np.abs(dX), axis=0)
            keep = np.isfinite(mx)
            iters[live[~keep]] = it
            X, dX, mx, dL, B, live = _columns(keep, X, dX, mx, dL, B, live)
            big = mx > self.dx_limit  # damped per column
            dX[:, big] *= self.dx_limit / mx[big]
            X = X + dX
        return X_out, W_out, iters, converged

    # -- gradients ----------------------------------------------------
    def _adjoint(self, st, lam, x) -> list:
        """``dφ/dp = -λᵀ(∂f/∂p - ∂b/∂p)`` at the values set on the copy."""
        sys_c, ps = st["sys"], st["ps"]
        rhs = np.empty((sys_c.n, len(ps)))
        for j, bp in enumerate(ps.bound):
            dfdp, _ = param_residual_derivs(sys_c, x, bp)
            rhs[:, j] = dfdp - dbdp_dc(sys_c, bp)
        return [float(v) for v in -(lam @ rhs)]

    def _gradients(self, st, corners, X, W) -> list:
        """Adjoint gradients of converged corners through ``A0``'s
        factors transposed and their ``V`` entries ``W``."""
        lu, R = st["lu"], self.R
        g = np.array([self.objective.grad(x) for x in X.T], dtype=float).T
        lam = lu.solve(g, trans="T")
        if R.size:
            ST = self._S(st, W).transpose(0, 2, 1)
            u = np.linalg.solve(ST, lam[R].T[..., None])[..., 0]
            VTu = np.zeros_like(lam)
            np.add.at(VTu, st["cols"], W * u.T[st["rows"]])
            lam = lam - lu.solve(VTu, trans="T")
        grads = []
        for k, values in enumerate(corners):
            _set(st["ps"], values)
            grads.append(self._adjoint(st, lam[:, k], X[:, k]))
        return grads

    # -- one corner from scratch --------------------------------------
    def _full(self, st, values):
        """``(x, iterations, gradient)`` of one corner by ``dc_analysis``
        at its values, and its direct adjoint.  A Woodbury fallback
        restores the copy's reference values after; ``mode="full"``
        restamps for the next corner anyway."""
        sys_c, ps = st["sys"], st["ps"]
        ps.set_values(values)
        try:
            res = dc_analysis(sys_c, on_invalid="ignore")
            grad = None
            if self.gradients:
                g = np.asarray(self.objective.grad(res.x), dtype=float)
                lam = spla.splu(sys_c.G(res.x).tocsc()).solve(g, trans="T")
                grad = self._adjoint(st, lam, res.x)
        finally:
            if self.mode == "woodbury":
                ps.restore()
        return res.x, res.iterations, grad

    def __call__(self, corners):
        """``(value, gradient, fell_back, iterations)`` per corner."""
        st = self._state()
        corners = np.asarray(corners, dtype=float)
        K = len(corners)
        if self.mode == "woodbury":
            X, W, iters, converged = self._woodbury(st, corners)
        else:
            X = W = None
            iters, converged = np.zeros(K, dtype=int), np.zeros(K, dtype=bool)
        grads = [None] * K
        done = np.flatnonzero(converged)
        if self.gradients and done.size:
            for k, grad in zip(done, self._gradients(
                    st, corners[done], X[:, done], W[:, done])):
                grads[k] = grad
        out = []
        for k in range(K):
            if converged[k]:
                x = X[:, k]
            else:
                x, fb_iters, grads[k] = self._full(st, corners[k])
                iters[k] += fb_iters
            fell_back = self.mode == "woodbury" and not converged[k]
            out.append(
                (float(self.objective.value(x)), grads[k], fell_back, int(iters[k]))
            )
        return out


def explore(
    system: MNASystem,
    params: Sequence,
    objective,
    points,
    mode: str = "woodbury",
    gradients: bool = False,
    x_ref: Optional[np.ndarray] = None,
    abstol: float = 1e-9,
    maxiter: int = 60,
    dx_limit: float = 2.0,
    workers: Optional[int] = None,
    backend: Optional[str] = None,
    sweep_options: Optional[dict] = None,
) -> ExploreResult:
    """Evaluate a DC design objective over many parameter corners.

    Parameters
    ----------
    params:
        Parameter specs (``"R1.resistance"`` / ``(device, param)``).
    objective:
        Node name / unknown index / weight vector / object with
        ``value(x)`` and ``grad(x)``; evaluated at each corner's DC
        operating point.
    points:
        Sequence of design points: each a value vector aligned with
        ``params``, or a ``{spec: value}`` dict.
    mode:
        ``"woodbury"`` (default) re-solves only the variant contribution
        against the cached invariant background, a chunk of corners at a
        time; ``"full"`` runs :func:`~repro.analysis.dc.dc_analysis` from
        scratch per corner (the reference baseline — identical answers,
        no reuse).
    gradients:
        Also return the adjoint gradient ``dφ/dp`` at every corner
        (through the same cached factors in woodbury mode).
    x_ref:
        Reference operating point (defaults to the DC solve at the
        system's current parameter values).
    workers / backend / sweep_options:
        Forwarded to :func:`~repro.perf.sweep_map`, whose items are
        chunks of corners, or single corners when a fault-tolerance knob
        arms the sweep; corners quarantined by
        ``on_item_failure="skip"`` come back as NaN objectives with
        their indices in ``stats["skipped"]``.

    Returns
    -------
    ExploreResult
        Objectives (and gradients) in point order, plus solver stats
        (``fallbacks`` counts corners where the Woodbury iteration
        stalled and the full escalation ladder took over — answers stay
        exact either way; ``newton_iterations`` counts the Woodbury
        iterates and the fallback's iterations alike).
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    ps = ParamSet(system, params)  # validates specs against the caller's system
    npar = len(ps)
    pts = []
    for p in points:
        if isinstance(p, dict):
            missing = [s for s in ps.names if s not in p]
            if missing:
                raise ValueError(f"design point {p!r} missing values for {missing}")
            pts.append([float(p[s]) for s in ps.names])
        else:
            vec = np.asarray(p, dtype=float)
            if vec.shape != (npar,):
                raise ValueError(
                    f"design point has shape {vec.shape}, expected ({npar},)"
                )
            pts.append([float(v) for v in vec])
    if not pts:
        raise ValueError("explore needs at least one design point")

    if x_ref is None:
        x_ref = dc_analysis(system).x
    # resolved once, here: bad objectives fail fast, and the worker
    # state does not depend on the objective
    obj = resolve_state_objective(objective, system)
    variant = _variant(system, ps)

    t0 = time.perf_counter()
    task = _ChunkTask(
        system, ps.names, obj, mode, gradients, x_ref, abstol, maxiter,
        dx_limit, variant,
    )
    opts = sweep_options or {}
    armed = resolve_fault_policy(
        opts.get("on_item_failure"), opts.get("timeout"), opts.get("retries"),
        opts.get("checkpoint"),
    )[-1]
    size = 1 if armed or any(bp.device.nonlinear for bp in ps.bound) else _CHUNK
    starts = range(0, len(pts), size)
    results = sweep_map(
        task, [pts[i:i + size] for i in starts], workers=workers,
        backend=backend, **opts,
    )

    objectives = np.full(len(pts), np.nan)
    grads = np.full((len(pts), npar), np.nan) if gradients else None
    skipped, fallbacks, newton_iters = [], 0, 0
    for start, res in zip(starts, results):
        if res is None:
            skipped.extend(range(start, min(start + size, len(pts))))
            continue
        for k, (value, grad, fell_back, iters) in enumerate(res, start):
            objectives[k] = value
            fallbacks += int(fell_back)
            newton_iters += iters
            if gradients and grad is not None:
                grads[k] = grad
    stats = {
        "mode": mode,
        "n": system.n,
        "variant_rows": int(variant[0].size),
        "npoints": len(pts),
        "fallbacks": fallbacks,
        "newton_iterations": newton_iters,
        "skipped": skipped,
        "wall_time": time.perf_counter() - t0,
    }
    return ExploreResult(
        params=ps.names,
        points=np.asarray(pts, dtype=float),
        objectives=objectives,
        gradients=grads,
        mode=mode,
        stats=stats,
    )

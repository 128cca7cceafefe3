"""Variant/invariant design-space exploration.

Sweeping a handful of design parameters over many corners re-solves a
circuit whose MNA matrix is *mostly the same* at every point: the
invariant background (everything not owned by a swept device, linearized
at the reference point) against a low-rank variant correction.  The
driver exploits that split:

* The background ``A0 = G(x_ref)`` is factored **once** (into a
  :class:`~repro.perf.FactorCache`, so reuse is observable) and the
  *support columns* ``Z = A0⁻¹ E_R`` are solved once, where ``R`` is the
  union of the swept linear devices' stamp rows and every nonlinear
  device's KCL rows — the only rows of ``G(x; p)`` that can differ from
  ``A0``.
* Each design point then runs Newton with the Woodbury identity

      (A0 + E_R V)⁻¹ r = y - Z (I_r + V Z)⁻¹ V y,    y = A0⁻¹ r,

  i.e. one cached triangular solve plus an ``r x r`` dense solve per
  iteration — no refactorization anywhere in the sweep.  One device
  pass per iterate gives ``f(x)`` and the nonlinear Jacobian entries;
  ``V = G(x)[R] - A0[R]`` is formed from those entries on the rows ``R``
  plus ``G_lin[R]``, taken once per point, so no ``n x n`` matrix is
  built per iterate.
* Gradients (optional) reuse the same factors transposed:
  ``J⁻ᵀ g = yᵀ - A0⁻ᵀ Vᵀ S⁻ᵀ yᵀ[R]`` with ``S = I + V Z``, two
  transpose triangular solves per point, then the DC adjoint inner
  product against ``∂f/∂p - ∂b/∂p``.

Points dispatch through :func:`~repro.perf.sweep_map`, so the thread
and process backends (and all the fault-tolerance knobs) apply; every
worker keeps its own private system copy plus factor state, so the
caller's system is never mutated.  That state is keyed by what it is
built from — the system's ``uid`` and ``version``, the parameter specs,
the mode and ``x_ref`` — so repeated calls on an unchanged system reuse
the copy, the LU of ``A0`` and ``Z``, and any ``Device.set_param`` on
the caller's system builds them afresh.
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
import scipy.sparse.linalg as spla

from repro.analysis.dc import dc_analysis
from repro.netlist.mna import MNASystem
from repro.perf import FactorCache, sweep_map
from repro.sensitivity.assemble import dbdp_dc, param_residual_derivs
from repro.sensitivity.objectives import resolve_state_objective
from repro.sensitivity.params import ParamSet

__all__ = ["ExploreResult", "explore"]

_MODES = ("woodbury", "full")

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


def _variant_rows(system: MNASystem, ps: ParamSet) -> np.ndarray:
    """Rows of G that may differ from the reference background.

    Swept linear devices move their own stamp rows; every nonlinear
    device's KCL rows move with the state (Newton re-linearizes them at
    each iterate even when their parameters are fixed).
    """
    rows = set()
    variant_devs = {id(bp.device) for bp in ps.bound}
    for dev in system.devices:
        if dev.nonlinear:
            _, eq_idx = dev.nl_ports()
            rows.update(int(r) for r in np.asarray(eq_idx) if r >= 0)
        if id(dev) in variant_devs:
            for i, _, _ in dev.g_stamps():
                if i >= 0:
                    rows.add(int(i))
    return np.array(sorted(rows), dtype=int)


def _dense_rows(mat, rows: np.ndarray) -> np.ndarray:
    """``mat[rows].toarray()`` for a canonical CSR matrix, read straight
    from its row slices."""
    out = np.zeros((rows.size, mat.shape[1]))
    for a, i in enumerate(rows):
        lo, hi = mat.indptr[i], mat.indptr[i + 1]
        out[a, mat.indices[lo:hi]] = mat.data[lo:hi]
    return out


class _PointTask:
    """Picklable per-point solve for the sweep executor."""

    __slots__ = (
        "system", "specs", "objective", "key", "mode", "gradients",
        "x_ref", "abstol", "maxiter", "dx_limit",
    )

    def __init__(self, system, specs, objective, mode, gradients,
                 x_ref, abstol, maxiter, dx_limit):
        self.system = system
        self.specs = list(specs)
        self.objective = objective
        self.mode = mode
        self.gradients = gradients
        self.x_ref = np.asarray(x_ref, dtype=float)
        self.abstol = float(abstol)
        self.maxiter = int(maxiter)
        self.dx_limit = float(dx_limit)
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
        sys_copy = copy.deepcopy(self.system)
        ps = ParamSet(sys_copy, self.specs)
        st = {"sys": sys_copy, "ps": ps}
        if self.mode == "woodbury":
            x_ref = self.x_ref
            A0 = sys_copy.G(x_ref).tocsc()
            lu = spla.splu(A0)
            fc = FactorCache(max_entries=4)
            fc.store(("explore", self.key, "solve"), lu.solve)
            fc.store(
                ("explore", self.key, "solveT"),
                lambda rhs: lu.solve(rhs, trans="T"),
            )
            R = _variant_rows(sys_copy, ps)
            st["factors"] = fc
            st["R"] = R
            st["A0R"] = A0.tocsr()[R].toarray() if R.size else None
            st["Z"] = lu.solve(np.eye(sys_copy.n)[:, R]) if R.size else None
            # nonlinear Jacobian entries that land on the rows R: their
            # positions in the device pass, and (row of R, column)
            at = np.full(sys_copy.n, -1)
            at[R] = np.arange(R.size)
            nl_at = at[sys_copy._nl_rows]
            keep = nl_at >= 0
            st["nl_keep"] = keep
            st["nl_rc"] = (nl_at[keep], sys_copy._nl_cols[keep])
        return st

    # -- per-point solves ---------------------------------------------
    def _pass(self, st, x, rows):
        """``(f(x), G(x)[R])`` from one device pass; the second is None
        unless ``rows`` (``G_lin[R]`` as a dense array) is given."""
        sys_c = st["sys"]
        x2d = x[:, None]
        f = sys_c.G_lin @ x2d
        if rows is None:
            sys_c._device_pass(x2d, f=f)
            return f[:, 0], None
        vals = np.empty((sys_c._nl_rows.size, 1))
        sys_c._device_pass(x2d, f=f, g_vals=vals)
        # nonlinear entries summed on their own first, then added to the
        # linear rows, as G(x) sums them
        GR = np.zeros_like(rows)
        np.add.at(GR, st["nl_rc"], vals[st["nl_keep"], 0])
        return f[:, 0], rows + GR

    def _solve_full(self, st):
        res = dc_analysis(st["sys"], on_invalid="ignore")
        return res.x, res.iterations, False, None

    def _solve_woodbury(self, st):
        """``(x, iterations, fell_back, G(x)[R])``; the last is None
        when there are no variant rows or the full solve took over."""
        sys_c = st["sys"]
        solve = st["factors"].get(("explore", self.key, "solve"))
        if solve is None:  # evicted by a concurrent sweep: fail over
            return self._solve_full(st)
        R, A0R, Z = st["R"], st["A0R"], st["Z"]
        r = R.size
        rows = _dense_rows(sys_c.G_lin, R) if r else None
        b = sys_c.b_dc()
        x = self.x_ref.copy()
        for it in range(self.maxiter):
            f, GR = self._pass(st, x, rows)
            F = f - b
            if not np.all(np.isfinite(F)):
                break
            if float(np.linalg.norm(F)) <= self.abstol:
                return x, it, False, GR
            y = solve(-F)
            if r:
                V = GR - A0R
                S = np.eye(r) + V @ Z
                try:
                    dx = y - Z @ np.linalg.solve(S, V @ y)
                except np.linalg.LinAlgError:
                    break
            else:
                dx = y
            mx = float(np.max(np.abs(dx)))
            if not np.isfinite(mx):
                break
            if mx > self.dx_limit:
                dx *= self.dx_limit / mx
            x = x + dx
        # stalled / diverged: full escalation ladder from scratch
        x, iters, _, _ = self._solve_full(st)
        return x, iters, True, None

    def _gradient(self, st, x, GR) -> list:
        sys_c, ps = st["sys"], st["ps"]
        g = np.asarray(self.objective.grad(x), dtype=float)
        rhs = np.empty((sys_c.n, len(ps)))
        for j, bp in enumerate(ps.bound):
            dfdp, _ = param_residual_derivs(sys_c, x, bp)
            rhs[:, j] = dfdp - dbdp_dc(sys_c, bp)
        solveT = None
        if self.mode == "woodbury":
            solveT = st["factors"].get(("explore", self.key, "solveT"))
        if solveT is not None:
            yT = solveT(g)
            R, A0R, Z = st["R"], st["A0R"], st["Z"]
            if R.size:
                if GR is None:
                    _, GR = self._pass(st, x, _dense_rows(sys_c.G_lin, R))
                V = GR - A0R
                S = np.eye(R.size) + V @ Z
                u = np.linalg.solve(S.T, yT[R])
                lam = yT - solveT(V.T @ u)
            else:
                lam = yT
        else:
            lam = spla.splu(sys_c.G(x).tocsc()).solve(g, trans="T")
        return [float(v) for v in -(lam @ rhs)]

    def __call__(self, values):
        st = self._state()
        st["ps"].set_values(np.asarray(values, dtype=float))
        if self.mode == "woodbury":
            x, iters, fell_back, GR = self._solve_woodbury(st)
        else:
            x, iters, fell_back, GR = self._solve_full(st)
        value = float(self.objective.value(x))
        grad = self._gradient(st, x, GR) if self.gradients else None
        return value, grad, bool(fell_back), int(iters)


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
        against the cached invariant background; ``"full"`` runs
        :func:`~repro.analysis.dc.dc_analysis` from scratch per corner
        (the reference baseline — identical answers, no reuse).
    gradients:
        Also return the adjoint gradient ``dφ/dp`` at every corner
        (through the same cached factors in woodbury mode).
    x_ref:
        Reference operating point (defaults to the DC solve at the
        system's current parameter values).
    workers / backend / sweep_options:
        Forwarded to :func:`~repro.perf.sweep_map`; corners quarantined
        by ``on_item_failure="skip"`` come back as NaN objectives with
        their indices in ``stats["skipped"]``.

    Returns
    -------
    ExploreResult
        Objectives (and gradients) in point order, plus solver stats
        (``fallbacks`` counts corners where the Woodbury iteration
        stalled and the full escalation ladder took over — answers stay
        exact either way).
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

    t0 = time.perf_counter()
    task = _PointTask(
        system, ps.names, obj, mode, gradients, x_ref, abstol, maxiter, dx_limit,
    )
    results = sweep_map(
        task, pts, workers=workers, backend=backend, **(sweep_options or {})
    )

    objectives = np.full(len(pts), np.nan)
    grads = np.full((len(pts), npar), np.nan) if gradients else None
    skipped, fallbacks, newton_iters = [], 0, 0
    for k, res in enumerate(results):
        if res is None:
            skipped.append(k)
            continue
        value, grad, fell_back, iters = res
        objectives[k] = value
        fallbacks += int(fell_back)
        newton_iters += iters
        if gradients and grad is not None:
            grads[k] = grad
    stats = {
        "mode": mode,
        "n": system.n,
        "variant_rows": int(_variant_rows(system, ps).size),
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

"""Pre-flight lint passes over solver inputs.

Four families of checks, each returning a
:class:`~repro.robust.diagnostics.ValidationReport`:

* :func:`lint_circuit` — circuit topology and device parameters:
  floating/dangling nodes, voltage-source (and inductor) loops,
  current-source cutsets, disconnected subgraphs, zero/negative or
  non-finite device parameters.  Works on a :class:`Circuit` or a
  compiled :class:`MNASystem` (anything with a ``.devices`` list) and
  never calls the numerical evaluators, so fault-injection proxies pass
  through untouched.  A compiled system keeps its lint
  (:func:`lint_compiled`, shared by ``Circuit.compile`` and
  :func:`preflight`): the topology half once, the parameter half per
  device version.
* :func:`lint_mna` — numerical health of the compiled system: a
  conditioning estimate of the DC Jacobian, scaling/equilibration
  advice, and an automatic gmin recommendation.
* :func:`lint_analysis` — analysis setup: HB/MPDE tone lists consistent
  with the source fundamentals, transient timestep against the fastest
  tone, positive periods.
* :func:`lint_panels` / :func:`lint_segments` / :func:`lint_fd_grid` —
  EM geometry: degenerate/zero-area panels, overlapping plates, extreme
  aspect ratios, invalid filament segments, unresolved FD conductor
  boxes.

Diagnostic codes are stable; DESIGN.md documents the full table.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import operator
import time
import weakref
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.robust.diagnostics import ValidationReport, enforce

__all__ = [
    "lint_circuit",
    "lint_mna",
    "lint_analysis",
    "lint_panels",
    "lint_segments",
    "lint_fd_grid",
    "preflight",
    "enforce",
]

#: Node aliases treated as the global reference.
_GROUND = {"0", "gnd", "GND", "ground"}

#: Device type names whose node terminals conduct DC current between
#: them (edges of the DC-path graph).  Capacitors, current sources, and
#: controlled-current outputs are deliberately absent: they provide no
#: DC path, which is exactly what the cutset checks detect.
_DC_EDGES: Dict[str, object] = {
    "Resistor": [(0, 1)],
    "Inductor": [(0, 1)],
    "VSource": [(0, 1)],
    "VCVS": [(0, 1)],  # output branch is voltage-defined; control only senses
    "Diode": [(0, 1)],
    "NonlinearResistor": [(0, 1)],
    "SwitchConductance": [(0, 1)],
    "BJT": [(0, 1), (1, 2)],
    "MOSFET": [(0, 2)],  # channel d-s; the gate is purely capacitive
}

#: Voltage-defined / flux-defined edges: a cycle of these makes the MNA
#: matrix singular (indeterminate circulating branch current).
_VOLTAGE_EDGES: Dict[str, List[Tuple[int, int]]] = {
    "VSource": [(0, 1)],
    "VCVS": [(0, 1)],
    "Inductor": [(0, 1)],
}


class _UnionFind:
    def __init__(self):
        self.parent: Dict[str, str] = {}

    def find(self, a: str) -> str:
        path = []
        while self.parent.setdefault(a, a) != a:
            path.append(a)
            a = self.parent[a]
        for p in path:
            self.parent[p] = a
        return a

    def union(self, a: str, b: str) -> bool:
        """Merge; returns False when a and b were already connected."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def _canon(node: str) -> str:
    return "0" if node in _GROUND else node


def _lint_device_params(dev, rep: ValidationReport) -> None:
    """Zero / negative / non-finite / out-of-range parameter checks."""
    kind = type(dev).__name__
    checks: List[Tuple[str, float]] = []
    for attr in (
        "resistance", "capacitance", "inductance", "coupling", "isat",
        "ideality", "tt", "cj0", "beta_f", "beta_r", "tf", "cje", "cjc",
        "kp", "vth", "lam", "cgs", "cgd", "g_on", "g_off", "gm", "gain",
        "temp",
    ):
        if hasattr(dev, attr):
            checks.append((attr, getattr(dev, attr)))
    for attr, value in checks:
        if not isinstance(value, (int, float)):
            continue
        if not np.isfinite(value):
            rep.add(
                "DEV_NONFINITE_PARAM", "error",
                f"{kind} parameter {attr} = {value!r} is not finite",
                location=dev.name,
                suggestion="fix the netlist value (suffix typo?)",
                param=attr, value=float(value),
            )
    positive_required = {
        "Resistor": ("resistance",),
        "Capacitor": ("capacitance",),
        "Inductor": ("inductance",),
        "Diode": ("isat", "ideality"),
        "BJT": ("isat", "beta_f", "beta_r"),
        "MOSFET": ("kp",),
        "SwitchConductance": ("g_on",),
    }
    for attr in positive_required.get(kind, ()):
        value = getattr(dev, attr, None)
        if value is not None and np.isfinite(value) and value <= 0:
            rep.add(
                "DEV_NONPOSITIVE_PARAM", "error",
                f"{kind} parameter {attr} = {value:g} must be positive",
                location=dev.name,
                suggestion=f"give {dev.name} a positive {attr}",
                param=attr, value=float(value),
            )
    if kind == "MutualInductance":
        k = getattr(dev, "coupling", 0.0)
        if np.isfinite(k) and not (-1.0 < k < 1.0):
            rep.add(
                "DEV_COUPLING_RANGE", "error",
                f"mutual coupling |k| = {abs(k):g} >= 1 makes the "
                "inductance matrix non-positive-definite",
                location=dev.name,
                suggestion="use |k| < 1 (physical coupling)",
                value=float(k),
            )
    negative_suspicious = {
        "Resistor": ("resistance",),
        "Capacitor": ("capacitance",),
        "Inductor": ("inductance",),
        "Diode": ("tt", "cj0"),
        "BJT": ("tf", "cje", "cjc"),
        "MOSFET": ("cgs", "cgd"),
    }
    for attr in negative_suspicious.get(kind, ()):
        value = getattr(dev, attr, None)
        if value is not None and np.isfinite(value) and value < 0:
            rep.add(
                "DEV_NEGATIVE_PARAM", "warning",
                f"{kind} parameter {attr} = {value:g} is negative",
                location=dev.name,
                suggestion="negative element values usually indicate a sign error",
                param=attr, value=float(value),
            )


def lint_circuit(circuit) -> ValidationReport:
    """Topology + parameter lint over a :class:`Circuit` or MNA system.

    Emits (codes documented in DESIGN.md):

    * ``TOPO_NO_GROUND`` — no device touches the reference node;
    * ``TOPO_FLOATING_SUBGRAPH`` — a connected component with no path of
      any kind to ground (its absolute potential is undefined);
    * ``TOPO_NO_DC_PATH`` — a node reachable only through capacitors
      (DC-singular: the classic cap-coupled floating node);
    * ``TOPO_CURRENT_CUTSET`` — current sources inject into a subgraph
      with no DC return path (KCL cannot balance);
    * ``TOPO_VSOURCE_LOOP`` / ``TOPO_INDUCTOR_LOOP`` — a cycle of
      voltage-defined branches (indeterminate circulating current);
    * ``TOPO_DANGLING_NODE`` — a node touched by exactly one terminal;
    * ``DEV_*`` — per-device parameter problems.
    """
    t0 = time.perf_counter()
    rep = ValidationReport(subject="circuit")
    devices = list(getattr(circuit, "devices", circuit))
    for dev in devices:
        _lint_device_params(dev, rep)
    _lint_topology(devices, rep)
    rep.wall_time = time.perf_counter() - t0
    return rep


def _lint_topology(devices, rep: ValidationReport) -> None:
    """The ``TOPO_*`` half of :func:`lint_circuit`: it reads only device
    kinds and nodes, which compilation fixes."""
    touches: Dict[str, int] = {}
    all_uf = _UnionFind()
    dc_uf = _UnionFind()
    grounded = False
    for dev in devices:
        kind = type(dev).__name__
        nodes = [_canon(n) for n in dev.nodes]
        for n in nodes:
            touches[n] = touches.get(n, 0) + 1
            grounded = grounded or n == "0"
            all_uf.find(n)
            dc_uf.find(n)
        # full connectivity: every device couples all of its terminals
        for a, b in zip(nodes, nodes[1:]):
            all_uf.union(a, b)
        for i, j in _DC_EDGES.get(kind, ()):
            if i < len(nodes) and j < len(nodes):
                dc_uf.union(nodes[i], nodes[j])

    if devices and not grounded:
        rep.add(
            "TOPO_NO_GROUND", "error",
            "no device terminal is connected to ground ('0'/'gnd')",
            suggestion="tie one node to ground to fix the reference potential",
        )

    # --- voltage-defined loops (V sources, VCVS outputs, inductors) ----
    loop_uf = _UnionFind()
    for dev in devices:
        kind = type(dev).__name__
        nodes = [_canon(n) for n in dev.nodes]
        for i, j in _VOLTAGE_EDGES.get(kind, ()):
            if not loop_uf.union(nodes[i], nodes[j]):
                code = (
                    "TOPO_INDUCTOR_LOOP" if kind == "Inductor"
                    else "TOPO_VSOURCE_LOOP"
                )
                rep.add(
                    code, "error",
                    f"{dev.name} closes a loop of voltage-defined branches "
                    "(V sources / VCVS outputs / inductors): the circulating "
                    "branch current is indeterminate and the MNA matrix singular",
                    location=dev.name,
                    suggestion="insert a small series resistance in the loop",
                )

    # --- connectivity to ground ----------------------------------------
    nodes = [n for n in touches if n != "0"]
    ground_all = all_uf.find("0") if "0" in all_uf.parent else None
    ground_dc = dc_uf.find("0") if "0" in dc_uf.parent else None

    floating = [n for n in nodes if ground_all is None or all_uf.find(n) != ground_all]
    if floating and grounded:
        rep.add(
            "TOPO_FLOATING_SUBGRAPH", "error",
            f"node(s) {sorted(floating)} have no connection of any kind to "
            "ground; their absolute potential is undefined",
            location=sorted(floating)[0],
            suggestion="connect the subcircuit to ground (a large leak "
            "resistor is enough)",
            nodes=sorted(floating),
        )

    # DC-path analysis only for nodes that are at least AC-connected
    undc = [
        n for n in nodes
        if n not in floating and (ground_dc is None or dc_uf.find(n) != ground_dc)
    ]
    if undc:
        # classify: does a current source inject into the isolated island?
        isrc_nodes = set()
        for dev in devices:
            if type(dev).__name__ in ("ISource", "VCCS"):
                inject = dev.nodes[:2]
                for n in inject:
                    isrc_nodes.add(_canon(n))
        islands: Dict[str, List[str]] = {}
        for n in undc:
            islands.setdefault(dc_uf.find(n), []).append(n)
        for members in islands.values():
            members = sorted(members)
            if any(n in isrc_nodes for n in members):
                rep.add(
                    "TOPO_CURRENT_CUTSET", "error",
                    f"current source(s) drive node(s) {members} which have no "
                    "DC return path to ground (current-source cutset)",
                    location=members[0],
                    suggestion="shunt the current source with a resistor or "
                    "provide a DC path to ground",
                    nodes=members,
                )
            else:
                rep.add(
                    "TOPO_NO_DC_PATH", "error",
                    f"node(s) {members} reach ground only through "
                    "capacitors: the DC system is singular",
                    location=members[0],
                    suggestion="add a DC leak resistor (or rely on gmin "
                    "stepping with an explicit shunt)",
                    nodes=members,
                )

    for n in sorted(nodes):
        if touches.get(n, 0) == 1:
            rep.add(
                "TOPO_DANGLING_NODE", "warning",
                f"node {n!r} is touched by exactly one device terminal "
                "(open circuit)",
                location=n,
                suggestion="remove the unused terminal or complete the connection",
            )


def lint_mna(
    system,
    x0: Optional[np.ndarray] = None,
    condition_limit: float = 1e12,
    dense_limit: int = 400,
) -> ValidationReport:
    """Numerical health probes on the compiled DC Jacobian.

    * ``MNA_EMPTY_ROW`` — an unknown appears in neither G nor C (the
      matrix is structurally singular for every analysis);
    * ``MNA_SINGULAR_JACOBIAN`` — the DC Jacobian G(x0) is numerically
      singular; the detail carries a recommended gmin;
    * ``MNA_ILL_CONDITIONED`` — cond(G) beyond ``condition_limit``;
    * ``MNA_POOR_SCALING`` — row norms spread over > 8 decades, with a
      suggested equilibration.

    Unlike :func:`lint_circuit` this *does* evaluate ``system.G``; call
    it on genuine systems, not fault-injection proxies.
    """
    t0 = time.perf_counter()
    rep = ValidationReport(subject="mna")
    n = system.n
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float)
    try:
        G = system.G(x)
        C = system.C(x)
    except Exception as exc:  # pragma: no cover - defensive
        rep.add(
            "MNA_EVAL_FAILED", "error",
            f"Jacobian evaluation failed at the probe point: {exc}",
            suggestion="check nonlinear device callbacks",
        )
        rep.wall_time = time.perf_counter() - t0
        return rep

    pattern = (abs(G) + abs(C)).tocsr()
    row_nnz = np.diff(pattern.indptr)
    col_nnz = np.diff(pattern.tocsc().indptr)
    num_nodes = len(system.node_names)
    for idx in np.flatnonzero((row_nnz == 0) | (col_nnz == 0)):
        name = (
            system.node_names[idx]
            if idx < num_nodes
            else f"branch[{system.branch_owner[idx - num_nodes]}]"
        )
        rep.add(
            "MNA_EMPTY_ROW", "error",
            f"unknown {name!r} has an empty row or column in both G and C "
            "(structurally singular)",
            location=str(name),
            suggestion="the node is isolated — connect it or remove it",
        )

    if n and not rep.errors:
        Gd = np.asarray(G.todense(), dtype=float) if n <= dense_limit else None
        cond = np.inf
        if Gd is not None:
            try:
                cond = float(np.linalg.cond(Gd))
            except np.linalg.LinAlgError:  # pragma: no cover
                cond = np.inf
        else:
            import scipy.sparse as sp
            import scipy.sparse.linalg as spla

            try:
                lu = spla.splu(sp.csc_matrix(G))
                inv_norm = spla.onenormest(
                    spla.LinearOperator((n, n), matvec=lu.solve)
                )
                cond = float(spla.onenormest(G.tocsc()) * inv_norm)
            except (RuntimeError, ValueError, np.linalg.LinAlgError):
                cond = np.inf

        diag = np.abs(G.diagonal())
        gmin_rec = float(max(diag.max() if diag.size else 1.0, 1.0) * 1e-12)
        if not np.isfinite(cond) or cond > 1e15:
            rep.add(
                "MNA_SINGULAR_JACOBIAN", "error",
                f"DC Jacobian at the probe point is numerically singular "
                f"(cond ~ {cond:.2e})",
                suggestion=f"add a gmin shunt (recommended gmin = {gmin_rec:.1e} S) "
                "on every node, or fix the topology problems above",
                condition=cond, gmin=gmin_rec,
            )
        elif cond > condition_limit:
            row_norms = np.sqrt(np.asarray(G.multiply(G).sum(axis=1)).ravel())
            nz = row_norms[row_norms > 0]
            spread = float(nz.max() / nz.min()) if nz.size else 1.0
            rep.add(
                "MNA_ILL_CONDITIONED", "warning",
                f"DC Jacobian condition estimate {cond:.2e} exceeds "
                f"{condition_limit:.0e}; Newton and GMRES will struggle",
                suggestion="expect the escalation ladder to engage; consider "
                f"a gmin shunt (~{gmin_rec:.1e} S) or unit rescaling",
                condition=cond, gmin=gmin_rec,
            )
            if spread > 1e8:
                rep.add(
                    "MNA_POOR_SCALING", "warning",
                    f"row norms of G span {spread:.1e}; the conditioning is "
                    "dominated by unit scaling",
                    suggestion="equilibrate: scale rows/columns by the square "
                    "root of their norms (diagonal preconditioner)",
                    spread=spread,
                )
    rep.wall_time = time.perf_counter() - t0
    return rep


def _active_source_freqs(system) -> Tuple[float, ...]:
    """Distinct fundamentals of sources that actually inject signal.

    Zero-amplitude sources (the standard probe idiom for periodic noise
    and small-signal analyses) contribute nothing and must not trigger
    tone-consistency errors.
    """
    freqs: List[float] = []
    for dev in getattr(system, "devices", []):
        wave = getattr(dev, "waveform", None)
        if wave is None:
            continue
        tones = getattr(wave, "tones", None)
        if tones is not None:  # MultiTone: per-tone amplitudes
            pairs = [(amp, freq) for amp, freq, _ in tones]
        else:
            amp = getattr(wave, "amplitude", None)
            pairs = [
                (1.0 if amp is None else amp, f)
                for f in getattr(wave, "frequencies", ())
            ]
        for amp, f in pairs:
            if amp != 0.0 and f > 0 and not any(
                abs(f - g) <= 1e-9 * g for g in freqs
            ):
                freqs.append(f)
    return tuple(sorted(freqs))


@functools.lru_cache(maxsize=8)
def _tone_combinations(d: int, kmax: int) -> np.ndarray:
    """Every nonzero integer vector in ``[-kmax, kmax]^d``, one per row."""
    grid = np.array(list(itertools.product(range(-kmax, kmax + 1), repeat=d)), dtype=float)
    combos = grid[np.any(grid != 0, axis=1)]
    combos.flags.writeable = False  # shared by every caller through the cache
    return combos


def _tone_covers(target: float, freqs: Sequence[float], kmax: int = 8) -> bool:
    """Is ``target`` an integer combination sum(k_i f_i), |k_i| <= kmax?"""
    freqs = [f for f in freqs if f > 0]
    if not freqs:
        return False
    if len(freqs) > 3:  # keep the search bounded; check single-tone multiples
        return any(
            abs(target - k * f) <= 1e-6 * target for f in freqs for k in range(1, kmax + 1)
        )
    combos = _tone_combinations(len(freqs), kmax)
    with np.errstate(invalid="ignore", over="ignore"):
        # summed tone by tone, left to right, as sum(k_i * f_i) would
        mix = combos[:, 0] * freqs[0]
        for i in range(1, len(freqs)):
            mix = mix + combos[:, i] * freqs[i]
        return bool(np.any(np.abs(target - np.abs(mix)) <= 1e-6 * target))


def lint_analysis(
    system,
    analysis: str,
    freqs: Optional[Sequence[float]] = None,
    dt: Optional[float] = None,
    t_stop: Optional[float] = None,
    t_start: float = 0.0,
    period: Optional[float] = None,
) -> ValidationReport:
    """Analysis-setup lint for one runner invocation.

    ``analysis`` is the runner family (``"dc"``, ``"transient"``,
    ``"shooting"``, ``"hb"``, ``"mpde"``); the keyword arguments carry
    the setup under test.  Source fundamentals come from
    ``system.source_frequencies()`` when available.
    """
    t0 = time.perf_counter()
    rep = ValidationReport(subject=f"{analysis}-setup")
    source_freqs = _active_source_freqs(system)

    if analysis in ("transient",):
        if dt is not None and (not np.isfinite(dt) or dt <= 0):
            rep.add(
                "AN_TIMESTEP_NONPOSITIVE", "error",
                f"timestep dt = {dt!r} must be positive and finite",
                suggestion="pick dt ~ 1/(20 * fastest tone)",
            )
        if (
            t_stop is not None
            and dt is not None
            and np.isfinite(dt)
            and dt > 0
            and t_stop <= t_start
        ):
            rep.add(
                "AN_TIME_RANGE_EMPTY", "error",
                f"t_stop = {t_stop:g} does not exceed t_start = {t_start:g}",
                suggestion="swap or extend the integration window",
            )
        fmax = max(source_freqs, default=0.0)
        if dt is not None and np.isfinite(dt) and dt > 0 and fmax > 0 and dt > 0.5 / fmax:
            rep.add(
                "AN_TIMESTEP_COARSE", "warning",
                f"dt = {dt:g} s undersamples the fastest source tone "
                f"({fmax:g} Hz, Nyquist step {0.5 / fmax:g} s)",
                suggestion=f"use dt <= {1.0 / (20.0 * fmax):.3g} s "
                "(20 points per fastest period)",
                dt=float(dt), fmax=float(fmax),
            )

    if analysis in ("hb", "mpde") and freqs is not None:
        tones = list(freqs)
        for f in tones:
            if not np.isfinite(f) or f <= 0:
                rep.add(
                    "AN_TONE_NONPOSITIVE", "error",
                    f"tone {f!r} must be a positive finite frequency",
                    suggestion="drop DC/negative entries from the tone list",
                )
        clean = [f for f in tones if np.isfinite(f) and f > 0]
        for a, b in itertools.combinations(range(len(clean)), 2):
            if abs(clean[a] - clean[b]) <= 1e-9 * max(clean[a], clean[b]):
                rep.add(
                    "AN_TONE_DUPLICATE", "warning",
                    f"tones {clean[a]:g} and {clean[b]:g} coincide; the "
                    "multi-tone grid wastes an axis",
                    suggestion="merge duplicate tones and raise the harmonic count",
                )
        for fs in source_freqs:
            if clean and not _tone_covers(fs, clean):
                rep.add(
                    "AN_TONE_MISMATCH", "error",
                    f"source fundamental {fs:g} Hz is not an integer "
                    f"combination of the analysis tones {clean}",
                    suggestion="add the source fundamental to the tone list "
                    "(or correct a mistyped frequency)",
                    source_freq=float(fs), tones=[float(f) for f in clean],
                )

    if analysis in ("shooting", "pss"):
        if period is not None and (not np.isfinite(period) or period <= 0):
            rep.add(
                "AN_PERIOD_NONPOSITIVE", "error",
                f"period {period!r} must be positive and finite",
                suggestion="pass the forcing period (slow beat period for "
                "multi-tone stimuli)",
            )
        elif period is not None and source_freqs:
            cycles = [period * f for f in source_freqs]
            if all(abs(c - round(c)) > 1e-3 * max(c, 1.0) for c in cycles):
                rep.add(
                    "AN_PERIOD_MISMATCH", "warning",
                    f"period {period:g} s is not a whole number of cycles of "
                    f"any source tone {tuple(source_freqs)}",
                    suggestion="shooting needs the common (beat) period of "
                    "all stimuli",
                    period=float(period),
                )

    rep.wall_time = time.perf_counter() - t0
    return rep


def lint_panels(
    panels,
    aspect_limit: float = 100.0,
) -> ValidationReport:
    """EM surface-mesh lint: degenerate, overlapping, or extreme panels.

    * ``EM_ZERO_AREA_PANEL`` — zero/degenerate area (collinear edge
      vectors included): the collocation row is all-singular;
    * ``EM_NONFINITE_GEOMETRY`` — NaN/inf coordinates;
    * ``EM_OVERLAPPING_PANELS`` — coincident collocation centers (two
      identical rows make the dense operator exactly singular);
    * ``EM_EXTREME_ASPECT`` — aspect ratio beyond ``aspect_limit``
      (quadrature and conditioning degrade).
    """
    t0 = time.perf_counter()
    rep = ValidationReport(subject="panels")
    panels = list(panels)
    centers = []
    for k, p in enumerate(panels):
        geom = np.concatenate([np.ravel(p.center), np.ravel(p.e1), np.ravel(p.e2)])
        if not np.all(np.isfinite(geom)):
            rep.add(
                "EM_NONFINITE_GEOMETRY", "error",
                "panel has non-finite center or edge vectors",
                location=f"panel[{k}]",
                suggestion="check the mesh generator inputs",
                index=k,
            )
            continue
        centers.append((k, np.ravel(p.center)))
        area = float(p.area)
        s1, s2 = (float(s) for s in p.sides)
        if area <= 0.0 or min(s1, s2) <= 0.0:
            rep.add(
                "EM_ZERO_AREA_PANEL", "error",
                f"panel area {area:g} is degenerate (sides {s1:g} x {s2:g})",
                location=f"panel[{k}]",
                suggestion="drop the panel or fix the discretizer "
                "(collinear edge vectors?)",
                index=k, area=area,
            )
        elif max(s1, s2) / min(s1, s2) > aspect_limit:
            rep.add(
                "EM_EXTREME_ASPECT", "warning",
                f"panel aspect ratio {max(s1, s2) / min(s1, s2):.1f} exceeds "
                f"{aspect_limit:g}",
                location=f"panel[{k}]",
                suggestion="re-mesh with closer-to-square panels",
                index=k,
            )

    if centers:
        pts = np.array([c for _, c in centers])
        scale = float(np.ptp(pts, axis=0).max()) or 1.0
        seen: Dict[Tuple[int, int, int], int] = {}
        for k, c in centers:
            key = tuple(int(round(v / (1e-9 * scale))) for v in c)
            if key in seen:
                rep.add(
                    "EM_OVERLAPPING_PANELS", "error",
                    f"panels [{seen[key]}] and [{k}] share a collocation "
                    "center: the interaction matrix is exactly singular",
                    location=f"panel[{k}]",
                    suggestion="remove duplicated geometry (double-counted "
                    "plate?)",
                    indices=[seen[key], k],
                )
            else:
                seen[key] = k
    rep.wall_time = time.perf_counter() - t0
    return rep


def lint_segments(segments) -> ValidationReport:
    """Filament lint for the PEEC inductance path.

    ``EM_ZERO_LENGTH_SEGMENT`` / ``EM_ZERO_CROSS_SECTION`` /
    ``EM_NONFINITE_GEOMETRY`` — each makes the partial-inductance kernel
    singular or undefined.
    """
    t0 = time.perf_counter()
    rep = ValidationReport(subject="segments")
    for k, seg in enumerate(segments):
        geom = np.concatenate([np.ravel(seg.start), np.ravel(seg.end)])
        if not (
            np.all(np.isfinite(geom))
            and np.isfinite(seg.width)
            and np.isfinite(seg.thickness)
        ):
            rep.add(
                "EM_NONFINITE_GEOMETRY", "error",
                "segment has non-finite endpoints or cross-section",
                location=f"segment[{k}]",
                suggestion="check the path generator inputs",
                index=k,
            )
            continue
        if np.linalg.norm(np.asarray(seg.end) - np.asarray(seg.start)) <= 0.0:
            rep.add(
                "EM_ZERO_LENGTH_SEGMENT", "error",
                "segment start and end coincide (zero filament length)",
                location=f"segment[{k}]",
                suggestion="drop the segment or merge the duplicate path point",
                index=k,
            )
        if seg.width <= 0.0 or seg.thickness <= 0.0:
            rep.add(
                "EM_ZERO_CROSS_SECTION", "error",
                f"segment cross-section {seg.width:g} x {seg.thickness:g} "
                "is not positive",
                location=f"segment[{k}]",
                suggestion="give the trace a physical width and thickness",
                index=k,
            )
    rep.wall_time = time.perf_counter() - t0
    return rep


def lint_fd_grid(domain, shape, boxes) -> ValidationReport:
    """Finite-difference setup lint for the Laplace solver.

    ``FD_DOMAIN_NONPOSITIVE`` / ``FD_BOX_INVERTED`` /
    ``FD_BOX_OUTSIDE_DOMAIN`` / ``FD_BOX_UNRESOLVED`` /
    ``FD_GRID_COARSE`` — setup problems that otherwise surface as
    empty conductors or meaningless capacitances.
    """
    t0 = time.perf_counter()
    rep = ValidationReport(subject="fd-grid")
    domain = tuple(float(d) for d in domain)
    shape = tuple(int(s) for s in shape)
    if any(d <= 0 or not np.isfinite(d) for d in domain):
        rep.add(
            "FD_DOMAIN_NONPOSITIVE", "error",
            f"domain extents {domain} must all be positive",
            suggestion="pass the physical box size in meters",
        )
        rep.wall_time = time.perf_counter() - t0
        return rep
    if any(s < 4 for s in shape):
        rep.add(
            "FD_GRID_COARSE", "warning",
            f"grid shape {shape} leaves fewer than 2 interior planes on "
            "some axis",
            suggestion="use at least 4 grid points per axis",
        )
    h = [d / max(s - 1, 1) for d, s in zip(domain, shape)]
    for k, box in enumerate(boxes):
        lo = tuple(float(v) for v in box.lo)
        hi = tuple(float(v) for v in box.hi)
        if any(l > u for l, u in zip(lo, hi)):
            rep.add(
                "FD_BOX_INVERTED", "error",
                f"conductor box {k} has lo > hi: {lo} vs {hi}",
                location=f"box[{k}]",
                suggestion="swap the corner coordinates",
                index=k,
            )
            continue
        if any(u < 0 or l > d for (l, u), d in zip(zip(lo, hi), domain)):
            rep.add(
                "FD_BOX_OUTSIDE_DOMAIN", "warning",
                f"conductor box {k} lies entirely outside the domain",
                location=f"box[{k}]",
                suggestion="move the box inside the simulation domain",
                index=k,
            )
            continue
        if any((u - l) < hk for (l, u), hk in zip(zip(lo, hi), h)):
            rep.add(
                "FD_BOX_UNRESOLVED", "warning",
                f"conductor box {k} is thinner than the grid spacing on "
                "some axis and may contain no grid points",
                location=f"box[{k}]",
                suggestion="refine the grid or thicken the box",
                index=k,
            )
    rep.wall_time = time.perf_counter() - t0
    return rep


class _CircuitLint:
    """What :func:`preflight` keeps of :func:`lint_circuit` for one
    compiled system: the topology diagnostics, and the parameter
    diagnostics of every device with the versions they were made at."""

    __slots__ = ("topology", "params")

    def __init__(self, devices):
        rep = ValidationReport()
        _lint_topology(devices, rep)
        self.topology = rep.diagnostics
        # (versions, per-device diagnostics, all of them in order),
        # replaced as one tuple so no thread sees it half updated
        self.params = ([None] * len(devices), [()] * len(devices), [])

    def report(self, devices) -> ValidationReport:
        """A fresh :func:`lint_circuit` report, in its order, re-linting
        only the devices whose version moved."""
        seen, per_device, flat = self.params
        # read before the lint: a racing set_param stays marked
        now = [dev.version for dev in devices]
        if now != seen:
            per_device = list(per_device)
            fresh = ValidationReport()
            for k in itertools.compress(range(len(now)), map(operator.ne, now, seen)):
                start = len(fresh.diagnostics)
                _lint_device_params(devices[k], fresh)
                per_device[k] = fresh.diagnostics[start:]
            flat = [d for diags in per_device for d in diags]
            self.params = (now, per_device, flat)
        rep = ValidationReport(subject="circuit")
        # copies: a caller editing a report must not edit the next one
        rep.diagnostics = [
            dataclasses.replace(d, detail=dict(d.detail))
            for d in itertools.chain(flat, self.topology)
        ]
        return rep


#: compiled system -> its _CircuitLint, dropped with the system
_CIRCUIT_LINTS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def lint_compiled(system) -> ValidationReport:
    """:func:`lint_circuit`'s report for a compiled ``MNASystem``, from
    the lint the system keeps: made on the first call (by
    :meth:`~repro.netlist.circuit.Circuit.compile`), after which only
    devices whose version moved are linted again."""
    t0 = time.perf_counter()
    kept = _CIRCUIT_LINTS.get(system)
    if kept is None:
        kept = _CIRCUIT_LINTS[system] = _CircuitLint(system.devices)
    rep = kept.report(system.devices)
    rep.wall_time = time.perf_counter() - t0
    return rep


def preflight(
    system,
    analysis: Optional[str] = None,
    numeric: bool = False,
    **setup,
) -> ValidationReport:
    """Composite pre-flight lint used by every analysis runner.

    Runs :func:`lint_circuit` always, :func:`lint_analysis` when
    ``analysis`` names a runner family, and :func:`lint_mna` when
    ``numeric`` is requested *and* the target is a genuine
    :class:`~repro.netlist.mna.MNASystem` (numeric probes call the
    evaluators, which must not consume scheduled faults on injection
    proxies).

    On a genuine ``MNASystem`` the circuit lint is the one the system
    keeps (:func:`lint_compiled`): the topology half once per compiled
    system (compilation fixes device kinds and nodes), the parameter
    half per device version, so a system's first pre-flight lints
    nothing its compile did not, and a call after a
    ``Device.set_param`` re-lints only the devices that changed.  The
    report equals a fresh :func:`lint_circuit`'s, diagnostic for
    diagnostic and in the same order.
    """
    from repro.netlist.mna import MNASystem

    genuine = isinstance(system, MNASystem)
    rep = lint_compiled(system) if genuine else lint_circuit(system)
    rep.subject = f"{analysis or 'solve'}-preflight"
    if analysis:
        rep.merge(lint_analysis(system, analysis, **setup))
    if numeric and genuine and rep.ok:
        rep.merge(lint_mna(system))
    return rep

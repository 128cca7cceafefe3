"""Circuit device library.

Devices contribute stamps to the MNA differential-algebraic equation

    d q(x)/dt + f(x) = b(t)                                   (paper eq. 3)

where ``x`` collects node voltages (ground eliminated) plus branch
currents for inductors and voltage-defined elements.

Linear devices contribute constant stamps to the conductance matrix ``G``
(the linear part of ``f``), the capacitance/flux matrix ``C`` (the linear
part of ``q``), and to the excitation vector ``b(t)``.  Nonlinear devices
expose a *vectorized* evaluation over many time samples at once — the HB
and MPDE engines evaluate the whole periodic grid in one call, which is
what keeps the pure-Python implementation usable on full circuits.

Sign conventions
----------------
* KCL residual at a node: sum of currents *leaving* the node.
* ``VSource(npos, nneg)``: branch current flows npos -> through source ->
  nneg inside the element; positive branch current leaves ``npos``.
* ``ISource(npos, nneg)``: the source pushes its current from ``npos``
  through itself into ``nneg`` (matching SPICE).
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.netlist.waveforms import DC, Waveform

__all__ = [
    "BOLTZMANN",
    "ELEMENTARY_CHARGE",
    "thermal_voltage",
    "Device",
    "NoiseSource",
    "Resistor",
    "Capacitor",
    "Inductor",
    "MutualInductance",
    "VSource",
    "ISource",
    "VCCS",
    "VCVS",
    "Diode",
    "BJT",
    "MOSFET",
    "NonlinearResistor",
    "NonlinearCapacitor",
    "SwitchConductance",
]

BOLTZMANN = 1.380649e-23
ELEMENTARY_CHARGE = 1.602176634e-19


# Device versions come from one process-wide count, so a process never
# gives the same number out twice: not to two devices, not to a device
# and its copy.  ``next`` on a count is atomic under the GIL, so no lock
# is taken.  ``_latest`` is the version drawn last: a cache that saw it
# unchanged knows in O(1) that no device anywhere has moved.
_versions = itertools.count(1)
_latest = 0


def _next_version() -> int:
    global _latest
    version = next(_versions)
    _latest = version
    return version


def latest_version() -> int:
    """The version most recently given to any device in this process."""
    return _latest


def thermal_voltage(temp_kelvin: float = 300.0) -> float:
    """kT/q at the given temperature."""
    return BOLTZMANN * temp_kelvin / ELEMENTARY_CHARGE


def limexp(u, umax: float = 80.0):
    """Exponential with linear extension beyond ``umax``.

    Standard SPICE-style guard: keeps Newton iterates finite for the huge
    junction overdrives that occur before convergence.  Returns the value
    and its derivative.
    """
    u = np.asarray(u, dtype=float)
    clipped = np.minimum(u, umax)
    e = np.exp(clipped)
    over = u > umax
    val = np.where(over, e * (1.0 + (u - umax)), e)
    dval = e  # derivative of the linear extension is exp(umax) = e there
    return val, dval


@dataclasses.dataclass
class NoiseSource:
    """A stationary or bias-modulated white current-noise generator.

    Attributes
    ----------
    name:
        Human-readable identifier (``"R1.thermal"``).
    rows:
        Global equation (KCL) indices the unit current couples into; -1
        entries (ground) are dropped at assembly time.
    signs:
        +-1 per row.
    psd:
        One-sided current PSD in A^2/Hz.  Either a constant or a callable
        ``psd(X)`` over full state columns ``X`` of shape ``(n, m)``
        returning shape ``(m,)`` (shot noise is bias dependent, hence
        cyclostationary in a periodically driven circuit).
    """

    name: str
    rows: np.ndarray
    signs: np.ndarray
    psd: object

    def psd_at(self, X: np.ndarray) -> np.ndarray:
        m = X.shape[1] if X.ndim == 2 else 1
        if callable(self.psd):
            out = np.asarray(self.psd(X), dtype=float)
            return np.broadcast_to(out, (m,)).copy()
        return np.full(m, float(self.psd))


class Device:
    """Base class for every circuit element."""

    #: number of internal branch-current unknowns this device adds
    n_branches = 0
    #: True when the device contributes nonlinear f/q terms
    nonlinear = False

    def __init__(self, name: str, nodes: Sequence[str]):
        self.name = name
        self.nodes = [str(n) for n in nodes]
        self.node_idx: List[int] = []
        self.branch_idx: List[int] = []
        #: moves on every :meth:`set_param`; see there
        self.version = _next_version()

    def __setstate__(self, state):
        # a deep copy, or a device unpickled in another process, takes
        # its version from this process's count: every version a device
        # holds in a process was drawn there, so none repeats
        self.__dict__.update(state)
        self.version = _next_version()

    def bind(self, node_idx: Sequence[int], branch_idx: Sequence[int]) -> None:
        """Receive global indices (ground mapped to -1)."""
        self.node_idx = list(node_idx)
        self.branch_idx = list(branch_idx)

    # --- linear stamps -------------------------------------------------
    def g_stamps(self) -> List[Tuple[int, int, float]]:
        """Constant entries of df/dx (conductance-like)."""
        return []

    def c_stamps(self) -> List[Tuple[int, int, float]]:
        """Constant entries of dq/dx (capacitance/flux-like)."""
        return []

    def b_stamps(self) -> List[Tuple[int, Waveform, float]]:
        """(row, waveform, sign) excitation contributions."""
        return []

    def stamp_inputs(self) -> Tuple["Device", ...]:
        """Other devices whose parameters this device's linear stamps
        read: a change to any of them restamps this one too."""
        return ()

    # --- nonlinear interface -------------------------------------------
    def nl_ports(self) -> Tuple[np.ndarray, np.ndarray]:
        """(variable indices read, equation indices written)."""
        raise NotImplementedError

    def nl_eval(self, V: np.ndarray):
        """Evaluate nonlinear contributions at local voltages ``V``.

        ``V`` has shape ``(k_in, m)``; returns ``(f, q, df, dq)`` with
        ``f, q`` of shape ``(k_eq, m)`` and ``df, dq`` of shape
        ``(k_eq, k_in, m)``.

        Runs the class's :meth:`nl_eval_group` on a group of one, with
        ``(1, 1)`` parameter columns read from the device's attributes
        at the time of the call (the finite-difference fallback of
        :meth:`nl_dfdp` moves them between calls), so the result is the
        device's slice of any group it is evaluated in.  Classes without
        a group kernel override this method.
        """
        params = {
            name: np.array([[getattr(self, name)]], dtype=float)
            for name in self.nl_group_params
        }
        f, q, df, dq = self.nl_eval_group(params, np.asarray(V)[None])
        return f[0], q[0], df[0], dq[0]

    def nl_group_key(self):
        """Batch-evaluation family, or None to evaluate per device.

        Devices returning the same key are stacked into one numpy batch
        and evaluated through the class's :meth:`nl_eval_group` by
        :class:`~repro.netlist.mna.MNASystem` — one call per device
        *type* instead of one Python-level call per device.  Classes
        whose evaluation involves per-device user callables
        (:class:`NonlinearResistor`, :class:`NonlinearCapacitor`) keep
        the default ``None``, override :meth:`nl_eval` and are evaluated
        one by one.
        """
        return None

    #: scalar attributes :meth:`nl_eval_group` reads; the compiled
    #: system gathers them into ``(d, 1)`` columns once and again only
    #: after a :meth:`set_param`
    nl_group_params: Tuple[str, ...] = ()

    @classmethod
    def nl_eval_group(cls, params, V: np.ndarray):
        """The device model, evaluated over ``d`` same-class devices.

        ``params`` maps each name in :attr:`nl_group_params` to its
        read-only ``(d, 1)`` column across the batch.  ``V`` has shape
        ``(d, k_in, m)``; returns ``(f, q, df, dq)`` with ``f, q`` of
        shape ``(d, k_eq, m)`` and ``df, dq`` of shape
        ``(d, k_eq, k_in, m)``.  This is the only implementation of a
        batchable model: :meth:`nl_eval` runs it on a group of one.  The
        tests hold it, bit for bit, to independent per-device kernels
        (``tests/stamp_reference.py``).
        """
        raise NotImplementedError

    # --- noise -----------------------------------------------------------
    def noise_sources(self) -> List[NoiseSource]:
        return []

    # --- parameter-sensitivity protocol --------------------------------
    #: scalar parameters with first-class derivative support; anything
    #: else that happens to be a float attribute still works through the
    #: finite-difference fallbacks below
    sens_params: Tuple[str, ...] = ()

    #: relative step for the central finite-difference fallbacks
    _FD_REL_STEP = 1e-6

    def param_names(self) -> List[str]:
        """Differentiable scalar parameter names for this device."""
        return list(self.sens_params)

    def get_param(self, name: str) -> float:
        val = getattr(self, name)
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise TypeError(f"{self.name}.{name} is not a scalar parameter")
        return float(val)

    def set_param(self, name: str, value: float) -> None:
        """Assign a scalar parameter, recomputing any derived fields.

        Every call moves :attr:`version` exactly once, after the value
        and its derived fields (the diode's ``vt``, ...) are in place.
        Compiled systems key what they cache on device versions: the
        parameter columns of the nonlinear groups, the linear stamp
        ranges :meth:`~repro.netlist.mna.MNASystem.refresh_stamps`
        rewrites, the per-device pre-flight lint and the worker state of
        :func:`~repro.sensitivity.explore`.  So change parameters
        through this method, never by assigning the attribute.
        """
        self._assign(name, value)
        self.version = _next_version()

    def _assign(self, name: str, value: float) -> None:
        """Store one parameter and its derived fields (no version move)."""
        self.get_param(name)  # validates existence and scalarity
        setattr(self, name, float(value))

    def _fd_step(self, name: str) -> float:
        return self._FD_REL_STEP * max(1.0, abs(self.get_param(name)))

    def g_stamp_derivs(self, name: str) -> List[Tuple[int, int, float]]:
        """Entries of d(G stamps)/d(param) for linear contributions."""
        return self._fd_stamp_derivs(name, "g_stamps")

    def c_stamp_derivs(self, name: str) -> List[Tuple[int, int, float]]:
        """Entries of d(C stamps)/d(param) for linear contributions."""
        return self._fd_stamp_derivs(name, "c_stamps")

    def b_stamp_derivs(self, name: str) -> List[Tuple[int, Waveform, float]]:
        """(row, waveform, sign) triples where the waveform *is* the
        derivative signal d b_row(t)/d(param).

        Only independent sources touch ``b``; they override this.
        """
        return []

    def _fd_stamp_derivs(self, name: str, which: str) -> List[Tuple[int, int, float]]:
        p0 = self.get_param(name)
        h = self._fd_step(name)
        acc: dict = {}

        def collect(factor: float) -> None:
            for i, j, v in getattr(self, which)():
                acc[(i, j)] = acc.get((i, j), 0.0) + factor * v

        try:
            self.set_param(name, p0 + h)
            collect(1.0)
            self.set_param(name, p0 - h)
            collect(-1.0)
        finally:
            self.set_param(name, p0)
        return [(i, j, dv / (2.0 * h)) for (i, j), dv in acc.items() if dv != 0.0]

    def nl_dfdp(self, V: np.ndarray, name: str) -> Tuple[np.ndarray, np.ndarray]:
        """Explicit parameter derivatives ``(∂f/∂p, ∂q/∂p)`` at fixed
        port voltages ``V``; each of shape ``(k_eq, m)``.

        Central finite differences through :meth:`nl_eval` by default;
        the library devices override with the exact expressions.
        """
        p0 = self.get_param(name)
        h = self._fd_step(name)
        try:
            self.set_param(name, p0 + h)
            f_hi, q_hi, _, _ = self.nl_eval(V)
            self.set_param(name, p0 - h)
            f_lo, q_lo, _, _ = self.nl_eval(V)
        finally:
            self.set_param(name, p0)
        return (f_hi - f_lo) / (2.0 * h), (q_hi - q_lo) / (2.0 * h)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"{type(self).__name__}({self.name}, nodes={self.nodes})"


def _two_node_stamps(i: int, j: int, val: float) -> List[Tuple[int, int, float]]:
    """Standard 2x2 conductance-style stamp between global indices i, j."""
    return [(i, i, val), (i, j, -val), (j, i, -val), (j, j, val)]


def _waveform_param_names(wave: Waveform) -> List[str]:
    """Differentiable scalar parameters of an excitation waveform."""
    from repro.netlist.waveforms import Sine, SquareWave

    if isinstance(wave, DC):
        return ["value"]
    if isinstance(wave, SquareWave):
        # amplitude multiplies a fixed tanh shape, offset shifts it
        return ["amplitude", "offset"]
    if isinstance(wave, Sine):
        return ["amplitude", "offset", "phase"]
    return []


def _waveform_param_deriv(wave: Waveform, name: str) -> Waveform:
    """The waveform d wave(t)/d(param) — itself a time signal."""
    from repro.netlist.waveforms import Sine, SquareWave

    if isinstance(wave, DC) and name == "value":
        return DC(1.0)
    if name == "offset" and isinstance(wave, (Sine, SquareWave)):
        return DC(1.0)
    if isinstance(wave, Sine):
        if name == "amplitude":
            return Sine(1.0, wave.freq, wave.phase)
        if name == "phase":
            # d/dphase [A sin(wt + phi)] = A cos(wt + phi)
            return Sine(wave.amplitude, wave.freq, wave.phase + np.pi / 2.0)
    if isinstance(wave, SquareWave) and name == "amplitude":
        return SquareWave(1.0, wave.freq, wave.phase, 0.0, wave.sharpness)
    raise KeyError(
        f"no analytic derivative for parameter {name!r} of {type(wave).__name__}"
    )


class Resistor(Device):
    """Linear resistor with thermal noise 4kT/R."""

    def __init__(self, name: str, n1: str, n2: str, resistance: float, temp: float = 300.0):
        super().__init__(name, [n1, n2])
        if resistance <= 0:
            raise ValueError(f"{name}: resistance must be positive, got {resistance}")
        self.resistance = float(resistance)
        self.temp = float(temp)

    sens_params = ("resistance",)

    def g_stamps(self):
        i, j = self.node_idx
        return _two_node_stamps(i, j, 1.0 / self.resistance)

    def g_stamp_derivs(self, name):
        if name == "resistance":
            i, j = self.node_idx
            return _two_node_stamps(i, j, -1.0 / self.resistance**2)
        return super().g_stamp_derivs(name)

    def noise_sources(self):
        i, j = self.node_idx
        psd = 4.0 * BOLTZMANN * self.temp / self.resistance
        return [
            NoiseSource(
                f"{self.name}.thermal",
                rows=np.array([i, j]),
                signs=np.array([1.0, -1.0]),
                psd=psd,
            )
        ]


class Capacitor(Device):
    """Linear capacitor."""

    def __init__(self, name: str, n1: str, n2: str, capacitance: float):
        super().__init__(name, [n1, n2])
        if capacitance <= 0:
            raise ValueError(f"{name}: capacitance must be positive, got {capacitance}")
        self.capacitance = float(capacitance)

    sens_params = ("capacitance",)

    def c_stamps(self):
        i, j = self.node_idx
        return _two_node_stamps(i, j, self.capacitance)

    def c_stamp_derivs(self, name):
        if name == "capacitance":
            i, j = self.node_idx
            return _two_node_stamps(i, j, 1.0)
        return super().c_stamp_derivs(name)


class Inductor(Device):
    """Linear inductor; adds one branch-current unknown.

    Branch equation: ``L di/dt - (v1 - v2) = 0``.
    """

    n_branches = 1

    def __init__(self, name: str, n1: str, n2: str, inductance: float):
        super().__init__(name, [n1, n2])
        if inductance <= 0:
            raise ValueError(f"{name}: inductance must be positive, got {inductance}")
        self.inductance = float(inductance)

    def g_stamps(self):
        i, j = self.node_idx
        (br,) = self.branch_idx
        return [(i, br, 1.0), (j, br, -1.0), (br, i, -1.0), (br, j, 1.0)]

    sens_params = ("inductance",)

    def c_stamps(self):
        (br,) = self.branch_idx
        return [(br, br, self.inductance)]

    def c_stamp_derivs(self, name):
        if name == "inductance":
            (br,) = self.branch_idx
            return [(br, br, 1.0)]
        return super().c_stamp_derivs(name)


class MutualInductance(Device):
    """Mutual coupling ``M = k sqrt(L1 L2)`` between two bound inductors.

    Construct *after* both inductors; the circuit resolves branch indices
    at compile time via the stored references.
    """

    def __init__(self, name: str, ind1: Inductor, ind2: Inductor, coupling: float):
        super().__init__(name, [])
        if not -1.0 < coupling < 1.0:
            raise ValueError(f"{name}: |k| must be < 1, got {coupling}")
        self.ind1 = ind1
        self.ind2 = ind2
        self.coupling = float(coupling)

    @property
    def mutual(self) -> float:
        return self.coupling * math.sqrt(self.ind1.inductance * self.ind2.inductance)

    def stamp_inputs(self):
        return (self.ind1, self.ind2)

    sens_params = ("coupling",)

    def c_stamps(self):
        (b1,) = self.ind1.branch_idx
        (b2,) = self.ind2.branch_idx
        m = self.mutual
        return [(b1, b2, m), (b2, b1, m)]

    def c_stamp_derivs(self, name):
        if name == "coupling":
            (b1,) = self.ind1.branch_idx
            (b2,) = self.ind2.branch_idx
            dm = math.sqrt(self.ind1.inductance * self.ind2.inductance)
            return [(b1, b2, dm), (b2, b1, dm)]
        return super().c_stamp_derivs(name)


class VSource(Device):
    """Independent voltage source; adds one branch current."""

    n_branches = 1

    def __init__(self, name: str, npos: str, nneg: str, waveform=0.0):
        super().__init__(name, [npos, nneg])
        if not isinstance(waveform, Waveform):
            waveform = DC(float(waveform))
        self.waveform = waveform

    def g_stamps(self):
        i, j = self.node_idx
        (br,) = self.branch_idx
        return [(i, br, 1.0), (j, br, -1.0), (br, i, 1.0), (br, j, -1.0)]

    def b_stamps(self):
        (br,) = self.branch_idx
        return [(br, self.waveform, 1.0)]

    def param_names(self):
        return _waveform_param_names(self.waveform)

    def get_param(self, name):
        if hasattr(self.waveform, name):
            return float(getattr(self.waveform, name))
        return super().get_param(name)

    def _assign(self, name, value):
        if hasattr(self.waveform, name):
            setattr(self.waveform, name, float(value))
        else:
            super()._assign(name, value)

    def b_stamp_derivs(self, name):
        (br,) = self.branch_idx
        return [(br, _waveform_param_deriv(self.waveform, name), 1.0)]


class ISource(Device):
    """Independent current source (current npos -> nneg through source)."""

    def __init__(self, name: str, npos: str, nneg: str, waveform=0.0):
        super().__init__(name, [npos, nneg])
        if not isinstance(waveform, Waveform):
            waveform = DC(float(waveform))
        self.waveform = waveform

    def b_stamps(self):
        i, j = self.node_idx
        return [(i, self.waveform, -1.0), (j, self.waveform, 1.0)]

    def param_names(self):
        return _waveform_param_names(self.waveform)

    def get_param(self, name):
        if hasattr(self.waveform, name):
            return float(getattr(self.waveform, name))
        return super().get_param(name)

    def _assign(self, name, value):
        if hasattr(self.waveform, name):
            setattr(self.waveform, name, float(value))
        else:
            super()._assign(name, value)

    def b_stamp_derivs(self, name):
        i, j = self.node_idx
        d = _waveform_param_deriv(self.waveform, name)
        return [(i, d, -1.0), (j, d, 1.0)]


class VCCS(Device):
    """Voltage-controlled current source ``i = gm (vcp - vcn)`` out of op."""

    def __init__(self, name: str, op: str, on: str, cp: str, cn: str, gm: float):
        super().__init__(name, [op, on, cp, cn])
        self.gm = float(gm)

    sens_params = ("gm",)

    def g_stamps(self):
        op, on, cp, cn = self.node_idx
        gm = self.gm
        return [(op, cp, gm), (op, cn, -gm), (on, cp, -gm), (on, cn, gm)]

    def g_stamp_derivs(self, name):
        if name == "gm":
            op, on, cp, cn = self.node_idx
            return [(op, cp, 1.0), (op, cn, -1.0), (on, cp, -1.0), (on, cn, 1.0)]
        return super().g_stamp_derivs(name)


class VCVS(Device):
    """Voltage-controlled voltage source ``v(op,on) = gain (vcp - vcn)``."""

    n_branches = 1

    def __init__(self, name: str, op: str, on: str, cp: str, cn: str, gain: float):
        super().__init__(name, [op, on, cp, cn])
        self.gain = float(gain)

    def g_stamps(self):
        op, on, cp, cn = self.node_idx
        (br,) = self.branch_idx
        a = self.gain
        return [
            (op, br, 1.0),
            (on, br, -1.0),
            (br, op, 1.0),
            (br, on, -1.0),
            (br, cp, -a),
            (br, cn, a),
        ]

    sens_params = ("gain",)

    def g_stamp_derivs(self, name):
        if name == "gain":
            op, on, cp, cn = self.node_idx
            (br,) = self.branch_idx
            return [(br, cp, -1.0), (br, cn, 1.0)]
        return super().g_stamp_derivs(name)


def _junction(v, isat, vt, gmin):
    """Junction current ``isat (exp(v/vt) - 1) + gmin v`` and its
    conductance: the diode, and each Ebers-Moll junction of the BJT."""
    e, de = limexp(v / vt)
    return isat * (e - 1.0) + gmin * v, isat * de / vt + gmin


class Diode(Device):
    """Junction diode: ``i = Is (exp(v/(n Vt)) - 1) + gmin v``.

    Charge model: diffusion charge ``tt * i_junction`` plus a linear
    junction capacitance ``cj0``.  Shot noise ``2 q |i|``.
    """

    nonlinear = True

    def __init__(
        self,
        name: str,
        anode: str,
        cathode: str,
        isat: float = 1e-14,
        ideality: float = 1.0,
        tt: float = 0.0,
        cj0: float = 0.0,
        gmin: float = 1e-12,
        temp: float = 300.0,
    ):
        super().__init__(name, [anode, cathode])
        self.isat = float(isat)
        self.ideality = float(ideality)
        self.tt = float(tt)
        self.cj0 = float(cj0)
        self.gmin = float(gmin)
        self.temp = float(temp)
        self.vt = thermal_voltage(temp) * self.ideality

    sens_params = ("isat", "tt", "cj0", "gmin", "ideality", "temp")

    def _assign(self, name, value):
        super()._assign(name, value)
        if name in ("ideality", "temp"):
            self.vt = thermal_voltage(self.temp) * self.ideality

    def nl_dfdp(self, V, name):
        vd = V[0] - V[1]
        if name == "isat":
            e, _ = limexp(vd / self.vt)
            di = e - 1.0
            dqd = self.tt * di
        elif name == "gmin":
            di = vd
            dqd = self.tt * vd
        elif name == "tt":
            di = np.zeros_like(vd)
            dqd, _ = self.current(vd)
        elif name == "cj0":
            di = np.zeros_like(vd)
            dqd = vd
        else:
            return super().nl_dfdp(V, name)
        return np.stack([di, -di]), np.stack([dqd, -dqd])

    def nl_ports(self):
        idx = np.array(self.node_idx)
        return idx, idx

    def current(self, vd):
        """Junction current and small-signal conductance at voltage vd."""
        return _junction(np.asarray(vd), self.isat, self.vt, self.gmin)

    def nl_group_key(self):
        return "diode"

    nl_group_params = ("isat", "vt", "gmin", "tt", "cj0")

    @classmethod
    def nl_eval_group(cls, params, V):
        # parameter columns broadcast against the (d, m) sample planes
        tt = params["tt"]
        cj0 = params["cj0"]
        vd = V[:, 0] - V[:, 1]
        i, g = _junction(vd, params["isat"], params["vt"], params["gmin"])
        f = np.stack([i, -i], axis=1)
        d, m = vd.shape
        df = np.empty((d, 2, 2, m))
        df[:, 0, 0], df[:, 0, 1] = g, -g
        df[:, 1, 0], df[:, 1, 1] = -g, g
        qd = tt * i + cj0 * vd
        cq = tt * g + cj0
        q = np.stack([qd, -qd], axis=1)
        dq = np.empty((d, 2, 2, m))
        dq[:, 0, 0], dq[:, 0, 1] = cq, -cq
        dq[:, 1, 0], dq[:, 1, 1] = -cq, cq
        return f, q, df, dq

    def noise_sources(self):
        i, j = self.node_idx
        vrow_a, vrow_c = self.node_idx

        def shot_psd(X):
            va = X[vrow_a] if vrow_a >= 0 else 0.0
            vc = X[vrow_c] if vrow_c >= 0 else 0.0
            cur, _ = self.current(np.asarray(va - vc))
            return 2.0 * ELEMENTARY_CHARGE * np.abs(cur)

        return [
            NoiseSource(
                f"{self.name}.shot",
                rows=np.array([i, j]),
                signs=np.array([1.0, -1.0]),
                psd=shot_psd,
            )
        ]


def _ebers_moll(vbe, vbc, isat, vt, gmin, beta_f, beta_r):
    """Ebers-Moll transport currents at junction voltages ``vbe``, ``vbc``.

    Returns ``(ic, ib, kr, (i_f, gf), (i_r, gr))``: the collector current
    ``ic = i_f - kr i_r`` with ``kr = 1 + 1/beta_r``, the base current
    ``ib = i_f/beta_f + i_r/beta_r``, and the forward and reverse
    junction currents they are made of, with their conductances.
    """
    i_f, gf = _junction(vbe, isat, vt, gmin)
    i_r, gr = _junction(vbc, isat, vt, gmin)
    kr = 1.0 + 1.0 / beta_r
    return i_f - i_r * kr, i_f / beta_f + i_r / beta_r, kr, (i_f, gf), (i_r, gr)


class BJT(Device):
    """Ebers-Moll bipolar transistor (NPN by default).

    Transport formulation:

        IF = Is (exp(vbe/Vt) - 1),  IR = Is (exp(vbc/Vt) - 1)
        IC = IF - IR (1 + 1/betaR),  IB = IF/betaF + IR/betaR

    Charges: diffusion ``tf IF`` on B-E plus linear junction caps.  PNP is
    modeled by flipping terminal polarities.
    """

    nonlinear = True

    def __init__(
        self,
        name: str,
        collector: str,
        base: str,
        emitter: str,
        isat: float = 1e-16,
        beta_f: float = 100.0,
        beta_r: float = 1.0,
        tf: float = 0.0,
        cje: float = 0.0,
        cjc: float = 0.0,
        polarity: int = 1,
        gmin: float = 1e-12,
        temp: float = 300.0,
    ):
        super().__init__(name, [collector, base, emitter])
        self.isat = float(isat)
        self.beta_f = float(beta_f)
        self.beta_r = float(beta_r)
        self.tf = float(tf)
        self.cje = float(cje)
        self.cjc = float(cjc)
        if polarity not in (1, -1):
            raise ValueError(f"{name}: polarity must be +1 (NPN) or -1 (PNP)")
        self.polarity = polarity
        self.gmin = float(gmin)
        self.temp = float(temp)
        self.vt = thermal_voltage(temp)

    sens_params = ("isat", "beta_f", "beta_r", "tf", "cje", "cjc", "gmin", "temp")

    def _assign(self, name, value):
        super()._assign(name, value)
        if name == "temp":
            self.vt = thermal_voltage(self.temp)

    def nl_dfdp(self, V, name):
        p = self.polarity
        vc, vb, ve = V
        vbe = p * (vb - ve)
        vbc = p * (vb - vc)
        z = np.zeros_like(vbe)
        dqbe, dqbc = z, z
        if name in ("isat", "gmin"):
            if name == "isat":
                ef, _ = limexp(vbe / self.vt)
                er, _ = limexp(vbc / self.vt)
                dif, dir_ = ef - 1.0, er - 1.0
            else:
                dif, dir_ = vbe, vbc
            dic = dif - dir_ * (1.0 + 1.0 / self.beta_r)
            dib = dif / self.beta_f + dir_ / self.beta_r
            dqbe = self.tf * dif
        elif name in ("beta_f", "beta_r", "tf"):
            i_f, _ = _junction(vbe, self.isat, self.vt, self.gmin)
            i_r, _ = _junction(vbc, self.isat, self.vt, self.gmin)
            if name == "beta_f":
                dic, dib = z, -i_f / self.beta_f**2
            elif name == "beta_r":
                dic, dib = i_r / self.beta_r**2, -i_r / self.beta_r**2
            else:
                dic, dib = z, z
                dqbe = i_f
        elif name == "cje":
            dic, dib = z, z
            dqbe = vbe
        elif name == "cjc":
            dic, dib = z, z
            dqbc = vbc
        else:
            return super().nl_dfdp(V, name)
        die = -(dic + dib)
        f = p * np.stack([dic, dib, die])
        q = p * np.stack([-dqbc, dqbe + dqbc, -dqbe])
        return f, q

    def nl_ports(self):
        idx = np.array(self.node_idx)
        return idx, idx

    def nl_group_key(self):
        return "bjt"

    nl_group_params = (
        "polarity", "isat", "vt", "gmin", "beta_f", "beta_r", "tf", "cje", "cjc",
    )

    @classmethod
    def nl_eval_group(cls, params, V):
        p = params["polarity"]
        beta_f = params["beta_f"]
        beta_r = params["beta_r"]
        tf = params["tf"]
        cje = params["cje"]
        cjc = params["cjc"]

        vc, vb, ve = V[:, 0], V[:, 1], V[:, 2]
        vbe = p * (vb - ve)
        vbc = p * (vb - vc)
        ic, ib, kr, (i_f, gf), (_, gr) = _ebers_moll(
            vbe, vbc, params["isat"], params["vt"], params["gmin"], beta_f, beta_r
        )
        ie = -(ic + ib)

        d, m = vbe.shape
        f = p[:, None] * np.stack([ic, ib, ie], axis=1)
        # partials w.r.t. (vbe, vbc)
        dic = np.stack([gf, -gr * kr], axis=1)
        dib = np.stack([gf / beta_f, gr / beta_r], axis=1)
        die = -(dic + dib)
        # chain rule to node voltages (vc, vb, ve); the two polarity
        # factors (current sign and junction-voltage sign) cancel
        dvbe = np.array([0.0, 1.0, -1.0])
        dvbc = np.array([-1.0, 1.0, 0.0])
        df = np.empty((d, 3, 3, m))
        for row, dterm in enumerate((dic, dib, die)):
            for col in range(3):
                df[:, row, col] = dterm[:, 0] * dvbe[col] + dterm[:, 1] * dvbc[col]

        # charges: qbe = tf*IF + cje*vbe on the B-E junction, qbc = cjc*vbc
        qbe = tf * i_f + cje * vbe
        qbc = cjc * vbc
        cbe = tf * gf + cje
        cbc = np.broadcast_to(cjc, (d, m))
        # charge leaves base into emitter/collector terminals
        q = p[:, None] * np.stack([-qbc, qbe + qbc, -qbe], axis=1)
        dq = np.empty((d, 3, 3, m))
        # terminal charge partials via the same chain rule
        zeros = np.zeros((d, m))
        dq_c = np.stack([zeros, -cbc], axis=1)
        dq_b = np.stack([np.broadcast_to(cbe, (d, m)), cbc], axis=1)
        dq_e = np.stack([np.broadcast_to(-cbe, (d, m)), zeros], axis=1)
        for row, dterm in enumerate((dq_c, dq_b, dq_e)):
            for col in range(3):
                dq[:, row, col] = dterm[:, 0] * dvbe[col] + dterm[:, 1] * dvbc[col]
        return f, q, df, dq

    def noise_sources(self):
        nc, nb, ne = self.node_idx
        p = self.polarity

        def _currents(X):
            vc = X[nc] if nc >= 0 else 0.0
            vb = X[nb] if nb >= 0 else 0.0
            ve = X[ne] if ne >= 0 else 0.0
            vbe = p * (np.asarray(vb) - ve)
            vbc = p * (np.asarray(vb) - vc)
            ic, ib, _, _, _ = _ebers_moll(
                vbe, vbc, self.isat, self.vt, self.gmin, self.beta_f, self.beta_r
            )
            return ic, ib

        def psd_ic(X):
            ic, _ = _currents(X)
            return 2.0 * ELEMENTARY_CHARGE * np.abs(ic)

        def psd_ib(X):
            _, ib = _currents(X)
            return 2.0 * ELEMENTARY_CHARGE * np.abs(ib)

        return [
            NoiseSource(f"{self.name}.ic_shot", np.array([nc, ne]), np.array([1.0, -1.0]), psd_ic),
            NoiseSource(f"{self.name}.ib_shot", np.array([nb, ne]), np.array([1.0, -1.0]), psd_ib),
        ]


def _square_law(vd, vg, vs, p, kp, vth, lam):
    """Level-1 drain current at terminal voltages ``vd``, ``vg``, ``vs``.

    Where ``p (vd - vs) < 0`` the channel conducts with drain and source
    exchanged (``swap``): ``ids`` (without ``gmin``) and its partials
    ``gm`` over ``vgs`` and ``go`` over ``vds`` are then those of the
    electrically equivalent forward device, at ``vds = |p (vd - vs)|``.
    Returns ``(ids, gm, go, vds, swap)``.
    """
    vds_raw = p * (vd - vs)
    swap = vds_raw < 0.0
    vgs = np.where(swap, p * (vg - vd), p * (vg - vs))
    vds = np.abs(vds_raw)
    vov = vgs - vth
    on = vov > 0.0
    sat = vds >= vov
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
    return ids, gm, go, vds, swap


class MOSFET(Device):
    """Level-1 (square-law) MOSFET, NMOS by default.

    Piecewise triode/saturation with channel-length modulation; the model
    is C^1 at the region boundaries, which is all Newton needs.  Symmetric
    operation (vds < 0) handled by drain/source swap.
    """

    nonlinear = True

    def __init__(
        self,
        name: str,
        drain: str,
        gate: str,
        source: str,
        kp: float = 2e-4,
        vth: float = 0.5,
        lam: float = 0.0,
        cgs: float = 0.0,
        cgd: float = 0.0,
        polarity: int = 1,
        gmin: float = 1e-12,
        temp: float = 300.0,
    ):
        super().__init__(name, [drain, gate, source])
        self.kp = float(kp)
        self.vth = float(vth)
        self.lam = float(lam)
        self.cgs = float(cgs)
        self.cgd = float(cgd)
        if polarity not in (1, -1):
            raise ValueError(f"{name}: polarity must be +1 (NMOS) or -1 (PMOS)")
        self.polarity = polarity
        self.gmin = float(gmin)
        self.temp = float(temp)

    sens_params = ("kp", "vth", "lam", "cgs", "cgd", "gmin")

    def nl_dfdp(self, V, name):
        p = self.polarity
        vd, vg, vs = V
        m = V.shape[1]
        z = np.zeros(m)
        if name in ("cgs", "cgd"):
            f = np.zeros((3, m))
            if name == "cgs":
                dqs = vg - vs
                return f, np.stack([z, dqs, -dqs])
            dqd = -(vg - vd)
            return f, np.stack([dqd, -dqd, z])
        ids, gm, _, vds, swap = _square_law(vd, vg, vs, p, self.kp, self.vth, self.lam)
        if name == "gmin":
            dids = vds
        elif name == "kp":
            dids = ids / self.kp
        elif name == "vth":
            dids = -gm
        elif name == "lam":
            dids = ids * vds / (1.0 + self.lam * vds)
        else:
            return super().nl_dfdp(V, name)
        sign = np.where(swap, -1.0, 1.0)
        di_d = p * sign * dids
        return np.stack([di_d, z, -di_d]), np.zeros((3, m))

    def nl_ports(self):
        idx = np.array(self.node_idx)
        return idx, idx

    def nl_group_key(self):
        return "mosfet"

    nl_group_params = ("polarity", "kp", "vth", "lam", "gmin", "cgs", "cgd")

    @classmethod
    def nl_eval_group(cls, params, V):
        p = params["polarity"]
        gmin = params["gmin"]
        cgs = params["cgs"]
        cgd = params["cgd"]

        vd, vg, vs = V[:, 0], V[:, 1], V[:, 2]
        ids, gm, go, vds, swap = _square_law(
            vd, vg, vs, p, params["kp"], params["vth"], params["lam"]
        )
        ids = ids + gmin * vds
        go = go + gmin

        d, m = vds.shape
        # current flows drain -> source for the forward device; flip on swap
        sign = np.where(swap, -1.0, 1.0)
        i_d = p * sign * ids
        f = np.stack([i_d, np.zeros((d, m)), -i_d], axis=1)

        # partials of i_d w.r.t. (vd, vg, vs); polarity cancels as in BJT
        # forward: d i/d vd = go ; d i/d vg = gm ; d i/d vs = -(gm+go)
        df = np.zeros((d, 3, 3, m))
        did_vd = np.where(swap, gm + go, go)
        did_vg = np.where(swap, -gm, gm)
        did_vs = np.where(swap, -go, -(gm + go))
        df[:, 0, 0], df[:, 0, 1], df[:, 0, 2] = did_vd, did_vg, did_vs
        df[:, 2, 0], df[:, 2, 1], df[:, 2, 2] = -did_vd, -did_vg, -did_vs

        # linear gate caps
        qg = cgs * (vg - vs) + cgd * (vg - vd)
        q = np.stack([-cgd * (vg - vd), qg, -cgs * (vg - vs)], axis=1)
        dq = np.zeros((d, 3, 3, m))
        dq[:, 0, 0], dq[:, 0, 1] = cgd, -cgd
        dq[:, 1, 0], dq[:, 1, 1], dq[:, 1, 2] = -cgd, cgs + cgd, -cgs
        dq[:, 2, 1], dq[:, 2, 2] = -cgs, cgs
        return f, q, df, dq

    def noise_sources(self):
        nd, ng, ns = self.node_idx
        p = self.polarity

        def psd(X):
            vd = X[nd] if nd >= 0 else 0.0
            vg = X[ng] if ng >= 0 else 0.0
            vs = X[ns] if ns >= 0 else 0.0
            _, gm, _, _, _ = _square_law(
                np.asarray(vd), vg, vs, p, self.kp, self.vth, self.lam
            )
            # channel thermal noise 4kT (2/3) gm
            return 4.0 * BOLTZMANN * self.temp * (2.0 / 3.0) * gm

        return [
            NoiseSource(f"{self.name}.channel", np.array([nd, ns]), np.array([1.0, -1.0]), psd)
        ]


class NonlinearResistor(Device):
    """Generic two-terminal ``i = i_of_v(v)`` element.

    The caller supplies the current function and its derivative, both
    vectorized.  Used for van der Pol-style negative-resistance cells in
    the oscillator examples.
    """

    nonlinear = True

    def __init__(self, name: str, n1: str, n2: str, i_of_v: Callable, di_dv: Callable):
        super().__init__(name, [n1, n2])
        self.i_of_v = i_of_v
        self.di_dv = di_dv

    def nl_ports(self):
        idx = np.array(self.node_idx)
        return idx, idx

    def nl_eval(self, V):
        v = V[0] - V[1]
        i = np.asarray(self.i_of_v(v), dtype=float)
        g = np.asarray(self.di_dv(v), dtype=float)
        m = V.shape[1]
        f = np.stack([i, -i])
        df = np.empty((2, 2, m))
        df[0, 0], df[0, 1] = g, -g
        df[1, 0], df[1, 1] = -g, g
        q = np.zeros((2, m))
        dq = np.zeros((2, 2, m))
        return f, q, df, dq


class NonlinearCapacitor(Device):
    """Generic two-terminal ``q = q_of_v(v)`` element (e.g. varactor)."""

    nonlinear = True

    def __init__(self, name: str, n1: str, n2: str, q_of_v: Callable, dq_dv: Callable):
        super().__init__(name, [n1, n2])
        self.q_of_v = q_of_v
        self.dq_dv = dq_dv

    def nl_ports(self):
        idx = np.array(self.node_idx)
        return idx, idx

    def nl_eval(self, V):
        v = V[0] - V[1]
        qv = np.asarray(self.q_of_v(v), dtype=float)
        c = np.asarray(self.dq_dv(v), dtype=float)
        m = V.shape[1]
        q = np.stack([qv, -qv])
        dq = np.empty((2, 2, m))
        dq[0, 0], dq[0, 1] = c, -c
        dq[1, 0], dq[1, 1] = -c, c
        f = np.zeros((2, m))
        df = np.zeros((2, 2, m))
        return f, q, df, dq


def _switch_conductance(vc, g_on, g_off, sharpness):
    """Switch conductance at control voltage ``vc`` and its slope."""
    th = np.tanh(sharpness * vc)
    g = g_off + (g_on - g_off) * 0.5 * (1.0 + th)
    dg = (g_on - g_off) * 0.5 * sharpness * (1.0 - th**2)
    return g, dg


class SwitchConductance(Device):
    """Voltage-controlled smooth switch, the idealized mixing element.

    Conductance between (n1, n2) swings from ``g_off`` to ``g_on`` as the
    control voltage (cp - cn) crosses zero, with transition sharpness
    ``k`` (1/V):

        g(vc) = g_off + (g_on - g_off) * (1 + tanh(k vc)) / 2
        i     = g(vc) * (v1 - v2)

    This is the canonical double-balanced-mixer core element: strongly
    nonlinear in the (fast) LO control path, linear in the (slow) RF
    signal path — exactly the structure MMFT exploits (paper sec. 2.2).
    """

    nonlinear = True

    def __init__(
        self,
        name: str,
        n1: str,
        n2: str,
        cp: str,
        cn: str,
        g_on: float = 1e-2,
        g_off: float = 1e-9,
        sharpness: float = 20.0,
    ):
        super().__init__(name, [n1, n2, cp, cn])
        self.g_on = float(g_on)
        self.g_off = float(g_off)
        self.sharpness = float(sharpness)

    sens_params = ("g_on", "g_off", "sharpness")

    def nl_dfdp(self, V, name):
        v1, v2, cp, cn = V
        vc = cp - cn
        vs = v1 - v2
        th = np.tanh(self.sharpness * vc)
        if name == "g_on":
            dg = 0.5 * (1.0 + th)
        elif name == "g_off":
            dg = 0.5 * (1.0 - th)
        elif name == "sharpness":
            dg = (self.g_on - self.g_off) * 0.5 * vc * (1.0 - th**2)
        else:
            return super().nl_dfdp(V, name)
        di = dg * vs
        return np.stack([di, -di]), np.zeros((2, V.shape[1]))

    def nl_ports(self):
        idx = np.array(self.node_idx)
        return idx, idx[:2]

    def conductance(self, vc):
        return _switch_conductance(vc, self.g_on, self.g_off, self.sharpness)

    def nl_group_key(self):
        return "switch"

    nl_group_params = ("g_on", "g_off", "sharpness")

    @classmethod
    def nl_eval_group(cls, params, V):
        v1, v2, cp, cn = V[:, 0], V[:, 1], V[:, 2], V[:, 3]
        vc = cp - cn
        vs = v1 - v2
        g, dg = _switch_conductance(
            vc, params["g_on"], params["g_off"], params["sharpness"]
        )
        i = g * vs
        d, m = vc.shape
        f = np.stack([i, -i], axis=1)
        df = np.empty((d, 2, 4, m))
        df[:, 0, 0], df[:, 0, 1] = g, -g
        df[:, 0, 2], df[:, 0, 3] = dg * vs, -dg * vs
        df[:, 1] = -df[:, 0]
        q = np.zeros((d, 2, m))
        dq = np.zeros((d, 2, 4, m))
        return f, q, df, dq

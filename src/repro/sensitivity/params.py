"""Parameter-spec resolution for the sensitivity/exploration layer.

A *parameter spec* names one scalar device parameter of a compiled
circuit, in the form ``"R1.resistance"`` (or equivalently the tuple
``("R1", "resistance")``).  :class:`ParamSet` resolves a list of specs
against an :class:`~repro.netlist.mna.MNASystem` and exposes vectorized
get/set of the bound values.  Values are set through
``Device.set_param``, so every change moves its device's version, which
is what the linear-stamp refresh
(:meth:`~repro.netlist.mna.MNASystem.refresh_stamps`), the pre-flight
lint and ``explore()``'s worker state key on — nonlinear evaluation and
source waveforms are read live, but the compiled ``G_lin``/``C_lin``
matrices are not.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.netlist.components import Device
from repro.netlist.mna import MNASystem

__all__ = ["BoundParam", "ParamSet", "resolve_param"]

ParamSpec = Union[str, Tuple[str, str]]


class BoundParam:
    """One resolved (device, parameter-name) pair."""

    __slots__ = ("device", "name", "spec")

    def __init__(self, device: Device, name: str, spec: str):
        self.device = device
        self.name = name
        self.spec = spec

    def get(self) -> float:
        return self.device.get_param(self.name)

    def set(self, value: float) -> None:
        self.device.set_param(self.name, value)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"BoundParam({self.spec})"


def _split_spec(spec: ParamSpec) -> Tuple[str, str]:
    if isinstance(spec, str):
        dev_name, sep, param = spec.partition(".")
        if not sep or not param:
            raise ValueError(
                f"parameter spec {spec!r} must look like 'DEVICE.param' "
                f"(e.g. 'R1.resistance')"
            )
        return dev_name, param
    dev_name, param = spec
    return str(dev_name), str(param)


def resolve_param(system: MNASystem, spec: ParamSpec) -> BoundParam:
    """Resolve one spec against the compiled system's device list."""
    dev_name, param = _split_spec(spec)
    k = system._device_index.get(dev_name)
    if k is None:
        raise KeyError(
            f"no device named {dev_name!r} in {system.title!r} "
            f"(spec {spec!r})"
        )
    dev = system.devices[k]
    known = dev.param_names()
    if param not in known:
        # anything that is a plain float attribute still works through
        # the finite-difference fallbacks; validate that much so typos
        # fail loudly here rather than deep inside an adjoint sweep
        try:
            dev.get_param(param)
        except (AttributeError, TypeError) as exc:
            raise KeyError(
                f"device {dev_name!r} has no scalar parameter {param!r}; "
                f"first-class parameters: {known or 'none'}"
            ) from exc
    return BoundParam(dev, param, f"{dev_name}.{param}")


class ParamSet:
    """An ordered set of bound parameters over one compiled system.

    Mutation goes through :meth:`set_values`, which calls
    ``Device.set_param`` per value (moving each bound device's version)
    and then ``refresh_stamps``, which rewrites only those devices' stamp
    ranges, and nothing when none of them stamps ``G_lin``/``C_lin``.
    :meth:`restore` puts the original values back (and refreshes again),
    so a ``try/finally`` around a sweep leaves the system exactly as
    found.
    """

    def __init__(self, system: MNASystem, specs: Sequence[ParamSpec]):
        self.system = system
        self.bound: List[BoundParam] = [resolve_param(system, s) for s in specs]
        if not self.bound:
            raise ValueError("ParamSet needs at least one parameter spec")
        seen = set()
        for bp in self.bound:
            if bp.spec in seen:
                raise ValueError(f"duplicate parameter spec {bp.spec!r}")
            seen.add(bp.spec)
        self._reference = self.values()

    def __len__(self) -> int:
        return len(self.bound)

    @property
    def names(self) -> List[str]:
        return [bp.spec for bp in self.bound]

    def values(self) -> np.ndarray:
        return np.array([bp.get() for bp in self.bound], dtype=float)

    def set_values(self, values: Sequence[float]) -> None:
        vals = np.asarray(values, dtype=float)
        if vals.shape != (len(self.bound),):
            raise ValueError(
                f"expected {len(self.bound)} values for {self.names}, "
                f"got shape {vals.shape}"
            )
        for bp, v in zip(self.bound, vals):
            bp.set(float(v))
        self.system.refresh_stamps(linear=True)

    def restore(self) -> None:
        self.set_values(self._reference)

"""Circuit container: devices + topology, compiled into an MNA system."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.netlist import components as cmp
from repro.netlist.mna import MNASystem
from repro.netlist.waveforms import Waveform

__all__ = ["Circuit", "GROUND_NAMES"]

GROUND_NAMES = {"0", "gnd", "GND", "ground"}


class Circuit:
    """A netlist under construction.

    Devices are added either through :meth:`add` or the convenience
    constructors (``circuit.resistor("R1", "a", "b", 50.0)``).  Node names
    are arbitrary strings; ``"0"``/``"gnd"`` are ground.  Call
    :meth:`compile` to obtain the :class:`~repro.netlist.mna.MNASystem`
    used by every analysis.
    """

    def __init__(self, title: str = "circuit"):
        self.title = title
        self.devices: List[cmp.Device] = []
        self._names: Dict[str, cmp.Device] = {}

    # ------------------------------------------------------------------
    def add(self, device: cmp.Device) -> cmp.Device:
        if device.name in self._names:
            raise ValueError(f"duplicate device name {device.name!r}")
        self._names[device.name] = device
        self.devices.append(device)
        return device

    def __getitem__(self, name: str) -> cmp.Device:
        return self._names[name]

    def __contains__(self, name: str) -> bool:
        return name in self._names

    def __len__(self) -> int:
        return len(self.devices)

    # --- convenience constructors --------------------------------------
    def resistor(self, name, n1, n2, value, **kw) -> cmp.Resistor:
        return self.add(cmp.Resistor(name, n1, n2, value, **kw))

    def capacitor(self, name, n1, n2, value) -> cmp.Capacitor:
        return self.add(cmp.Capacitor(name, n1, n2, value))

    def inductor(self, name, n1, n2, value) -> cmp.Inductor:
        return self.add(cmp.Inductor(name, n1, n2, value))

    def mutual(self, name, ind1, ind2, k) -> cmp.MutualInductance:
        if isinstance(ind1, str):
            ind1 = self._names[ind1]
        if isinstance(ind2, str):
            ind2 = self._names[ind2]
        return self.add(cmp.MutualInductance(name, ind1, ind2, k))

    def vsource(self, name, npos, nneg, waveform=0.0) -> cmp.VSource:
        return self.add(cmp.VSource(name, npos, nneg, waveform))

    def isource(self, name, npos, nneg, waveform=0.0) -> cmp.ISource:
        return self.add(cmp.ISource(name, npos, nneg, waveform))

    def vccs(self, name, op, on, cp, cn, gm) -> cmp.VCCS:
        return self.add(cmp.VCCS(name, op, on, cp, cn, gm))

    def vcvs(self, name, op, on, cp, cn, gain) -> cmp.VCVS:
        return self.add(cmp.VCVS(name, op, on, cp, cn, gain))

    def diode(self, name, anode, cathode, **kw) -> cmp.Diode:
        return self.add(cmp.Diode(name, anode, cathode, **kw))

    def bjt(self, name, c, b, e, **kw) -> cmp.BJT:
        return self.add(cmp.BJT(name, c, b, e, **kw))

    def mosfet(self, name, d, g, s, **kw) -> cmp.MOSFET:
        return self.add(cmp.MOSFET(name, d, g, s, **kw))

    def nonlinear_resistor(self, name, n1, n2, i_of_v, di_dv) -> cmp.NonlinearResistor:
        return self.add(cmp.NonlinearResistor(name, n1, n2, i_of_v, di_dv))

    def nonlinear_capacitor(self, name, n1, n2, q_of_v, dq_dv) -> cmp.NonlinearCapacitor:
        return self.add(cmp.NonlinearCapacitor(name, n1, n2, q_of_v, dq_dv))

    def switch(self, name, n1, n2, cp, cn, **kw) -> cmp.SwitchConductance:
        return self.add(cmp.SwitchConductance(name, n1, n2, cp, cn, **kw))

    # ------------------------------------------------------------------
    def node_names(self) -> List[str]:
        """Non-ground node names in first-appearance order."""
        seen: List[str] = []
        for dev in self.devices:
            for node in dev.nodes:
                if node not in GROUND_NAMES and node not in seen:
                    seen.append(node)
        return seen

    def lint(self) -> "ValidationReport":
        """Run the topology/parameter lint without compiling."""
        from repro.robust.validate import lint_circuit

        return lint_circuit(self)

    def compile(self, on_invalid: Optional[str] = None) -> MNASystem:
        """Assign global indices, bind devices, and build the MNA system.

        ``on_invalid`` controls what happens when the pre-flight lint
        (see :mod:`repro.robust.validate`) finds error-severity
        diagnostics: ``"raise"`` raises
        :class:`~repro.robust.diagnostics.ValidationError`, ``"warn"``
        emits warnings, ``"ignore"`` only records.  The default
        (``None``) records without enforcing — the report is attached to
        the returned system as ``system.validation`` and the analysis
        entry points apply their own policy.
        """
        names = self.node_names()
        index = {name: i for i, name in enumerate(names)}
        num_nodes = len(names)

        branch_owner: List[str] = []
        next_branch = num_nodes
        for dev in self.devices:
            node_idx = [index.get(n, -1) for n in dev.nodes]
            branch_idx = list(range(next_branch, next_branch + dev.n_branches))
            for _ in range(dev.n_branches):
                branch_owner.append(dev.name)
            next_branch += dev.n_branches
            dev.bind(node_idx, branch_idx)

        system = MNASystem(
            title=self.title,
            devices=list(self.devices),
            node_names=names,
            branch_owner=branch_owner,
        )
        from repro.robust.diagnostics import enforce
        from repro.robust.validate import lint_compiled

        # kept with the system, so its first pre-flight lints nothing again
        system.validation = lint_compiled(system)
        if on_invalid is not None:
            enforce(system.validation, on_invalid)
        return system

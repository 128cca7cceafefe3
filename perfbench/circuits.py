"""The benchmark's circuits, defined here so that edits elsewhere in
the repository cannot change the inputs.

The topologies mirror the repository's own benchmark circuits: the
diode RC ladder of ``bench_perf_transient``, the Figure 1
dual-conversion quadrature modulator of ``repro.rf.modulator``, the
switching mixer behind a long invariant ladder of ``bench_sensitivity``,
and small diode ladders written as SPICE text for the service.
"""

import math

from repro.netlist import Circuit, Sine


def diode_ladder(stages=100):
    """All-nonlinear diode RC ladder: n = stages + 4 unknowns.

    The bias source ``Vb`` starts at 0.3 V; workloads set its ``value``.
    """
    ckt = Circuit(f"{stages}-stage diode RC ladder")
    ckt.vsource("V1", "n0", "0", Sine(0.8, 10e6))
    ckt.vsource("Vb", "vb", "0", 0.3)
    for k in range(stages):
        ckt.resistor(f"R{k}", f"n{k}", f"n{k+1}", 150.0)
        ckt.diode(f"D{k}", f"n{k+1}", "0", isat=1e-13)
        ckt.resistor(f"Rb{k}", "vb", f"n{k+1}", 5e3)
        ckt.capacitor(f"C{k}", f"n{k+1}", "0", 3e-12)
    return ckt.compile()


#: Figure 1 modulator frequency plan and default imbalance.
F_BB = 80e3
F_REF = 202.5e6
A_BB = 0.1
GAIN_ERROR = 0.015
PHASE_ERROR = 0.02


def _switch_quad(ckt, tag, in_p, in_n, lo, out_p, out_n):
    sw = dict(g_on=20e-3, g_off=1e-9, sharpness=10.0)
    ckt.switch(f"S{tag}1", in_p, out_p, lo, "0", **sw)
    ckt.switch(f"S{tag}2", in_n, out_n, lo, "0", **sw)
    ckt.switch(f"S{tag}3", in_p, out_n, "0", lo, **sw)
    ckt.switch(f"S{tag}4", in_n, out_p, "0", lo, **sw)


def quadrature_modulator():
    """Figure 1 dual-conversion modulator (n = 22).

    The Q baseband source ``Vbbq`` carries the gain/phase imbalance:
    its ``amplitude`` is ``A_BB * (1 + gain_error)`` and its ``phase``
    is ``pi/2 + phase_error``.
    """
    ckt = Circuit("dual-conversion quadrature modulator")
    ckt.vsource("Vbbi", "bbi", "0", Sine(A_BB, F_BB, phase=0.0, offset=9e-6))
    ckt.vsource(
        "Vbbq", "bbq", "0",
        Sine(A_BB * (1.0 + GAIN_ERROR), F_BB, phase=math.pi / 2 + PHASE_ERROR,
             offset=9e-6),
    )
    ckt.vcvs("Einv_i", "bbi_n", "0", "0", "bbi", 1.0)
    ckt.vcvs("Einv_q", "bbq_n", "0", "0", "bbq", 1.0)
    ckt.vsource("Vlo1i", "lo1i", "0", Sine(1.0, F_REF, phase=0.0))
    ckt.vsource("Vlo1q", "lo1q", "0", Sine(1.0, F_REF, phase=math.pi / 2))
    _switch_quad(ckt, "I", "bbi", "bbi_n", "lo1i", "ifp", "ifn")
    _switch_quad(ckt, "Q", "bbq_n", "bbq", "lo1q", "ifp", "ifn")
    for node in ("ifp", "ifn"):
        ckt.resistor(f"R{node}", node, "0", 600.0)
        ckt.capacitor(f"C{node}", node, "0", 6e-12)
    ckt.vcvs("Ebufp", "bifp", "0", "ifp", "0", 1.0)
    ckt.vcvs("Ebufn", "bifn", "0", "ifn", "0", 1.0)
    ckt.vsource("Vlo2", "lo2", "0", Sine(1.0, 7.0 * F_REF, phase=0.0))
    _switch_quad(ckt, "U", "bifp", "bifn", "lo2", "rfp", "rfn")
    for node in ("rfp", "rfn"):
        ckt.resistor(f"R{node}", node, "0", 600.0)
        ckt.capacitor(f"C{node}", node, "0", 0.1e-12)
    return ckt.compile()


def switching_mixer(stages=340):
    """Switching mixer behind an invariant RC bias ladder (n = stages + 7).

    The ladder loads ``vdd`` only, so it never touches the swept IF
    loads ``RL1``/``RL2``: the variant core has r = 4 rows.
    """
    ckt = Circuit("mixer")
    ckt.vsource("VDD", "vdd", "0", waveform=3.0)
    ckt.vsource("VLO", "lo", "0", waveform=1.5)
    prev = "vdd"
    for k in range(stages):
        node = f"l{k}"
        ckt.resistor(f"RB{k}", prev, node, 200.0)
        ckt.capacitor(f"CB{k}", node, "0", 1e-12)
        ckt.resistor(f"RG{k}", node, "0", 50e3)
        prev = node
    ckt.resistor("RBIAS", "vdd", "bias", 500.0)
    ckt.diode("D1", "bias", "0")
    ckt.diode("D2", "lo", "ifn")
    ckt.switch("S1", "bias", "ifp", "lo", "0")
    ckt.switch("S2", "bias", "ifn", "0", "lo")
    ckt.resistor("RL1", "ifp", "0", 2e3)
    ckt.resistor("RL2", "ifn", "0", 2e3)
    ckt.capacitor("CIF", "ifp", "ifn", 1e-10)
    return ckt.compile()


def ladder_netlist(tag, r_series, bias, isat, stages=8):
    """SPICE text of a small diode ladder, as a service client submits it."""
    lines = [
        f"bench diode ladder {tag}",
        "V1 n0 0 SIN(0 0.8 1e7)",
        f"Vb vb 0 {bias!r}",
    ]
    for k in range(stages):
        lines += [
            f"R{k} n{k} n{k+1} {r_series!r}",
            f"D{k} n{k+1} 0 is={isat!r}",
            f"Rb{k} vb n{k+1} 5k",
            f"C{k} n{k+1} 0 3p",
        ]
    lines.append(".end")
    return "\n".join(lines) + "\n"

"""Cross-method oracles: two methods that reach the same answer by
different routes must agree within the error of the less exact one.

HB on the GMRES path against shooting
-------------------------------------
Harmonic balance and trapezoidal shooting both compute the periodic
steady state of a driven circuit.  The circuit here is small enough
that ``solver="auto"`` would take HB's sparse direct path, so the GMRES
path (matrix-free operator, averaged-circuit preconditioner) is forced.

Tolerance.  HB's own error on the switch's smooth (tanh) waveforms is
far below the shooting's, so the shooting's trapezoidal step error sets
the bound.  (A hard-driven diode rectifier is no such pair: its HB
harmonics still move by ~1e-6 V between 64- and 128-sample grids, as
large as the shooting's error at 800 steps.)

The trapezoidal rule's global error is ``C h^2`` once the step resolves
the waveform, so halving the step quarters it: with ``X_N`` and
``X_2N`` the harmonics from ``N`` and ``2N`` steps per period, the
error of ``X_2N`` is ``e = |X_N - X_2N| / 3`` per harmonic (Richardson).
Each retained harmonic of HB must lie within ``2 e + ATOL`` of
``X_2N``: the factor 2 covers the ``h^2`` law holding only
approximately at ``N``, and ``ATOL`` the two solvers' Newton
tolerances.
"""

import numpy as np

from repro.analysis import shooting_analysis
from repro.hb import harmonic_balance
from repro.mpde import MPDEOptions
from repro.netlist import Circuit, Sine

F0 = 1e6
HARMONICS = 10
STEPS = 400  # N; the reference is the 2N-step shooting
ATOL = 1e-8  # volts: both Newton loops stop at |residual| ~ 1e-9..1e-8


def _chopper():
    """A tanh switch chopping a sine, driven by a phase-shifted LO."""
    ckt = Circuit("chopper")
    ckt.vsource("V1", "in", "0", Sine(0.5, F0))
    ckt.vsource("VLO", "lo", "0", Sine(1.0, F0, phase=0.3))
    ckt.switch("S1", "in", "out", "lo", "0", g_on=1e-2, g_off=1e-8, sharpness=5.0)
    ckt.resistor("RL", "out", "0", 1e3)
    ckt.capacitor("CL", "out", "0", 50e-12)
    return ckt.compile()


def _shooting_harmonics(system, steps):
    sh = shooting_analysis(system, period=1.0 / F0, steps_per_period=steps)
    assert sh.converged
    v = sh.voltage(system, "out")  # steps + 1 samples: both ends of a period
    return np.fft.fft(v[:-1])[: HARMONICS + 1] / steps


def test_hb_gmres_matches_shooting():
    system = _chopper()
    hb = harmonic_balance(
        system, freqs=[F0], harmonics=HARMONICS, options=MPDEOptions(solver="gmres")
    )
    assert hb.converged
    assert hb.solution.solver == "gmres" and hb.gmres_iterations > 0
    x_hb = hb.solution.harmonics("out")[: HARMONICS + 1]

    x_n = _shooting_harmonics(system, STEPS)
    x_2n = _shooting_harmonics(system, 2 * STEPS)
    err = np.abs(x_n - x_2n) / 3.0
    tol = 2.0 * err + ATOL
    np.testing.assert_array_less(np.abs(x_hb - x_2n), tol)
    # not vacuous: the bound is far below the harmonics it checks
    assert np.max(tol) < 1e-3 * np.max(np.abs(x_hb[1:]))

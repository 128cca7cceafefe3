"""Design-space exploration: variant/invariant factoring vs full re-solve.

A switching-mixer core (SwitchConductance pair + diode loads) sits
behind a long invariant RC bias ladder (n ≈ 350).  Sweeping the two IF
load resistors over a 32×32 corner grid re-solves a circuit whose MNA
matrix differs from corner to corner in only a handful of rows — the
workload :func:`repro.sensitivity.explore` is built for:

* ``mode="full"`` runs the escalating DC ladder from scratch at every
  corner (factorization per Newton iteration per corner);
* ``mode="woodbury"`` factors the invariant background once and iterates
  chunks of 32 corners together with a rank-r correction per iteration
  (one cached triangular solve with 32 right-hand sides + a stacked
  solve of the r×r systems), falling back to the full ladder only on
  stall.

Both modes must agree to solver tolerance at every corner; the wall
ratio is the bench's headline.  A second record times adjoint gradients
riding along (same cached factors, two transpose solves per chunk) and
cross-checks one corner against central differences, tying the bench
back to the gradient-correctness suite in ``tests/test_sensitivity.py``.

Results land in ``BENCH_sensitivity.json`` (CI archives it).
"""

import os
import time

import numpy as np

from repro.netlist.circuit import Circuit
from repro.sensitivity import explore, resolve_param

from conftest import report, write_bench_json

LADDER_STAGES = 340  # invariant background size: n ≈ stages + mixer nodes
GRID = 32  # corners per swept parameter → GRID² design points
PARAMS = ("RL1.resistance", "RL2.resistance")


def build_mixer(stages=LADDER_STAGES):
    """Switching mixer fed off a supply with a long decoupling ladder.

    The ladder is pure invariant background (it loads ``vdd`` only, so
    it never touches the swept corner), while the diode-clamped bias,
    the switch pair, and the IF loads form the small variant core.
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


def test_bench_exploration_speedup():
    system = build_mixer()
    grid = np.linspace(1e3, 5e3, GRID)
    points = [(a, b) for a in grid for b in grid]
    assert len(points) >= 1000

    t0 = time.perf_counter()
    wood = explore(system, list(PARAMS), "ifp", points, mode="woodbury")
    wall_wood = time.perf_counter() - t0
    # the first call also builds the worker state (copy, LU of A0, Z);
    # the gradient sweep below reuses it, so it is compared with this
    # second, warm sweep
    t0 = time.perf_counter()
    explore(system, list(PARAMS), "ifp", points, mode="woodbury")
    wall_wood_warm = time.perf_counter() - t0

    t0 = time.perf_counter()
    full = explore(system, list(PARAMS), "ifp", points, mode="full")
    wall_full = time.perf_counter() - t0

    # identical answers at every corner is the contract, not a nicety
    scale = np.maximum(np.abs(full.objectives), 1.0)
    max_rel = float(np.max(np.abs(full.objectives - wood.objectives) / scale))
    assert max_rel < 1e-7

    speedup = wall_full / wall_wood if wall_wood > 0 else float("inf")

    # gradients riding along: adjoint through the same cached factors
    t0 = time.perf_counter()
    woodg = explore(
        system, list(PARAMS), "ifp", points, mode="woodbury", gradients=True
    )
    wall_grad = time.perf_counter() - t0
    grad_overhead = wall_grad / wall_wood_warm if wall_wood_warm > 0 else float("inf")

    # spot-check one corner's gradient against central differences
    # (atol floor: the cross-gradient dV(ifp)/dRL2 is genuinely ~1e-13,
    # below what two-sided differences of full re-solves can resolve)
    k = len(points) // 2
    fd = []
    for j, spec in enumerate(PARAMS):
        vals = []
        for sgn in (+1.0, -1.0):
            s2 = build_mixer()
            for i, sp2 in enumerate(PARAMS):
                bp = resolve_param(s2, sp2)
                step = 1e-5 * points[k][j] if i == j else 0.0
                bp.set(points[k][i] + sgn * step)
            s2.refresh_stamps(linear=True)
            from repro.analysis.dc import dc_analysis

            vals.append(float(dc_analysis(s2).x[s2.node("ifp")]))
        fd.append((vals[0] - vals[1]) / (2 * 1e-5 * points[k][j]))
    fd = np.asarray(fd)
    grad_err = np.abs(woodg.gradients[k] - fd)
    grad_rel = float(np.max(grad_err / np.maximum(np.abs(fd), 1e-30)))
    assert np.all(grad_err <= 1e-5 * np.abs(fd) + 1e-12)

    rows = [
        ("full re-solve", wall_full, "-", f"{full.stats['newton_iterations']} iters"),
        ("woodbury", wall_wood, f"{speedup:.2f}x", f"{wood.stats['newton_iterations']} iters"),
        ("woodbury, warm", wall_wood_warm, "-", "worker state reused"),
        ("woodbury+grad", wall_grad, f"{grad_overhead:.2f}x vs warm", f"fd relerr {grad_rel:.1e}"),
    ]
    report(
        "Variant/invariant exploration vs full re-solve (1024-corner mixer)",
        rows,
        header=("mode", "wall s", "speedup", "detail"),
        notes=(
            f"n={system.n}, variant rows r={wood.stats['variant_rows']}, "
            f"{len(points)} corners, fallbacks={wood.stats['fallbacks']}",
            f"max corner objective relerr full vs woodbury: {max_rel:.2e}",
        ),
    )
    write_bench_json(
        "sensitivity",
        extra={
            "n": system.n,
            "corners": len(points),
            "variant_rows": wood.stats["variant_rows"],
            "wall_full": wall_full,
            "wall_woodbury": wall_wood,
            "wall_woodbury_warm": wall_wood_warm,
            "wall_woodbury_gradients": wall_grad,
            "speedup": speedup,
            "gradient_overhead": grad_overhead,
            "fallbacks": wood.stats["fallbacks"],
            "max_objective_relerr": max_rel,
            "gradient_fd_relerr": grad_rel,
        },
    )

    # the invariant/variant split must pay for itself decisively; loaded
    # CI runners get a relaxed floor, the ratio is algorithmic either way
    cpus = os.cpu_count() or 1
    if cpus >= 2:
        assert speedup >= 3.0
    else:
        assert speedup >= 1.5

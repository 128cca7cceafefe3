"""Ablation: what makes full-chip HB feasible (paper sec. 2.1).

"Recent work ... has demonstrated that Harmonic Balance can handle
integrated designs containing many more nonlinear components than
traditional implementations ... Specifically, iterative linear algebra
techniques have been used to solve the large Jacobian matrix."

We grow a chain of diode-loaded RC stages (every stage nonlinear — the
RF-IC regime the paper contrasts with microwave practice) and solve the
same HB problem with (a) the direct sparse-LU Jacobian and (b) the
matrix-free GMRES with the block-diagonal averaged preconditioner, plus
(c) GMRES *without* the preconditioner to show both ingredients matter.
"""

import time

import numpy as np
import pytest

from repro.hb import harmonic_balance
from repro.linalg.gmres import gmres
from repro.mpde import MPDEOptions
from repro.netlist import Circuit, Sine

from conftest import format_strategy_counts, report


def diode_chain(stages):
    """Every stage carries a junction: 'mainly nonlinear elements'."""
    ckt = Circuit(f"{stages}-stage diode chain")
    ckt.vsource("V1", "n0", "0", Sine(0.8, 50e6))
    ckt.vsource("Vb", "vb", "0", 0.3)
    for k in range(stages):
        ckt.resistor(f"R{k}", f"n{k}", f"n{k+1}", 150.0)
        ckt.diode(f"D{k}", f"n{k+1}", "mid" if False else "0", isat=1e-13)
        ckt.resistor(f"Rb{k}", "vb", f"n{k+1}", 5e3)
        ckt.capacitor(f"C{k}", f"n{k+1}", "0", 3e-12)
    return ckt.compile()


def test_ablate_direct_vs_gmres(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = []
    solves = []
    for stages in (10, 25, 50):
        sys = diode_chain(stages)
        results = {}
        for solver in ("direct", "gmres"):
            t0 = time.perf_counter()
            hb = harmonic_balance(
                sys, harmonics=10, options=MPDEOptions(solver=solver)
            )
            results[solver] = (time.perf_counter() - t0, hb)
            solves.append(hb)
        t_dir, hb_dir = results["direct"]
        t_gm, hb_gm = results["gmres"]
        agree = abs(
            hb_dir.amplitude_at(f"n{stages}", (1,))
            - hb_gm.amplitude_at(f"n{stages}", (1,))
        ) / hb_dir.amplitude_at(f"n{stages}", (1,))
        rows.append(
            (stages, float(sys.n * hb_dir.grid.total), t_dir, t_gm,
             t_dir / t_gm, agree)
        )
    report(
        "Ablation — HB Jacobian: sparse direct vs matrix-free GMRES",
        rows,
        header=("stages", "HB unknowns", "direct (s)", "gmres (s)",
                "speedup", "answer diff"),
        notes=("the iterative path is what scales to circuits where 'the "
               "majority of components' are nonlinear",
               format_strategy_counts(*solves)),
    )
    assert all(r[5] < 1e-6 for r in rows), "both solvers: same answer"
    # the iterative solver must win at the largest size
    assert rows[-1][4] > 1.0


def test_ablate_preconditioner_matters(benchmark):
    """Strip the averaged-circuit preconditioner: GMRES stalls or crawls."""
    from repro.mpde.grid import Axis, MPDEGrid
    from repro.mpde.mpde_core import _MPDEProblem, MPDEOptions as MO
    from repro.analysis import dc_analysis

    sys = diode_chain(20)
    grid = MPDEGrid([Axis("fourier", 50e6, 64)])
    prob = _MPDEProblem(sys, grid, None, MO())
    x = np.tile(dc_analysis(sys).x, grid.total)
    B = grid.excitation(sys)
    r, vals = prob.residual(x, B)
    G_big, C_big, g_vals, c_vals = prob.batch_matrices(x, vals)
    mv = prob.matvec(G_big, C_big)
    pc = prob.averaged_preconditioner(g_vals, c_vals)

    def with_pc():
        return gmres(mv, r, tol=1e-8, restart=60, maxiter=400, precond=pc)

    res_pc = benchmark.pedantic(with_pc, rounds=1, iterations=1)
    res_plain = gmres(mv, r, tol=1e-8, restart=60, maxiter=400)
    report(
        "Ablation — the averaged-circuit HB preconditioner",
        [
            ("with preconditioner", float(res_pc.iterations),
             str(res_pc.converged)),
            ("without", float(res_plain.iterations), str(res_plain.converged)),
        ],
        header=("configuration", "GMRES iterations", "converged"),
    )
    assert res_pc.converged
    assert res_pc.iterations * 3 < res_plain.iterations or not res_plain.converged

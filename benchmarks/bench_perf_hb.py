"""Performance layer: HB factorization reuse and the sweep executor.

Harmonic balance pays for one factorization per Newton iteration:
either the assembled sparse Jacobian LU (direct path) or the averaged
circuit preconditioner — one stacked dense inverse over the real-input
half-spectrum (GMRES path).  With ``MPDEOptions.reuse_factorization``
those are held across Newton iterations once the contraction rate shows
the iteration is in its asymptotic regime, with fail-closed refresh when
a stale factor stalls a step or the linear solve.

The second half exercises :func:`repro.hb.hb_sweep`: a multi-point
harmonic sweep run through the deterministic sweep executor must give
the same answers at ``workers=1`` and ``workers=4``.

The record also carries the Figure 1 modulator's HB solve on the GMRES
path (``modulator``): per-solve wall time over repeated steady-state
solves (median and IQR), the grid-sized device passes and residual
evaluations of one solve (one pass per residual: the Newton step reuses
the accepted residual's Jacobian values), the matvecs and iterations of
each GMRES call (iterations + 1: the zero start costs no matvec, the
final true-residual check one) and the minor page faults per solve.
"""

import gc
import os
import resource
import time
from unittest import mock

import numpy as np

import repro.robust.krylov as krylov
from repro.hb import harmonic_balance, hb_sweep
from repro.mpde import MPDEOptions
from repro.mpde.mpde_core import _MPDEProblem
from repro.netlist import Circuit, Sine
from repro.netlist.mna import MNASystem
from repro.rf import ModulatorSpec, quadrature_modulator

from conftest import backend_sweep_timings, report, write_bench_json

#: steady-state modulator solves timed for the record
MODULATOR_REPEATS = 12


def diode_chain(stages=25, freq=50e6):
    ckt = Circuit(f"{stages}-stage diode chain")
    ckt.vsource("V1", "n0", "0", Sine(0.8, freq))
    ckt.vsource("Vb", "vb", "0", 0.3)
    for k in range(stages):
        ckt.resistor(f"R{k}", f"n{k}", f"n{k+1}", 150.0)
        ckt.diode(f"D{k}", f"n{k+1}", "0", isat=1e-13)
        ckt.resistor(f"Rb{k}", "vb", f"n{k+1}", 5e3)
        ckt.capacitor(f"C{k}", f"n{k+1}", "0", 3e-12)
    return ckt.compile()


def modulator_record(repeats=MODULATOR_REPEATS):
    """Counts of one Figure 1 modulator solve, then ``repeats`` timed
    steady-state solves (``gc.collect()`` before each, as perfbench
    does)."""
    spec = ModulatorSpec()
    system = quadrature_modulator(spec)

    def solve():
        return harmonic_balance(
            system, freqs=[spec.f_bb, spec.f_ref], harmonics=[3, 10]
        )

    hb = solve()  # warm-up: imports, compiled patterns, heap
    m = hb.solution.grid.total
    counts = {"passes": 0, "residuals": 0}
    gmres_calls = []
    device_pass, residual, gmres = (
        MNASystem._device_pass, _MPDEProblem.residual, krylov.gmres
    )

    def counted_pass(self, x2d, *args, **kwargs):
        counts["passes"] += x2d.shape[1] == m
        return device_pass(self, x2d, *args, **kwargs)

    def counted_residual(self, *args, **kwargs):
        counts["residuals"] += 1
        return residual(self, *args, **kwargs)

    def counted_gmres(matvec, *args, **kwargs):
        applied = [0]

        def counted_matvec(v):
            applied[0] += 1
            return matvec(v)

        res = gmres(counted_matvec, *args, **kwargs)
        gmres_calls.append({"matvecs": applied[0], "iterations": res.iterations})
        return res

    with mock.patch.object(MNASystem, "_device_pass", counted_pass), \
            mock.patch.object(_MPDEProblem, "residual", counted_residual), \
            mock.patch.object(krylov, "gmres", counted_gmres):
        hb = solve()
    assert hb.converged and hb.solution.solver == "gmres"

    walls, faults = [], []
    for _ in range(repeats):
        gc.collect()
        flt0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        solve()
        walls.append(time.perf_counter() - t0)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - flt0)
    q1, median, q3 = np.percentile(walls, [25, 50, 75])
    return {
        "grid_samples": m,
        "newton_iterations": hb.newton_iterations,
        "gmres_iterations": hb.gmres_iterations,
        "device_passes_per_solve": counts["passes"],
        "residuals_per_solve": counts["residuals"],
        "gmres_calls": gmres_calls,
        "matvecs_per_solve": sum(c["matvecs"] for c in gmres_calls),
        "repeats": repeats,
        "wall_median": float(median),
        "wall_iqr": float(q3 - q1),
        "wall_min": float(min(walls)),
        "minflt_median": float(np.median(faults)),
        "minflt_max": int(max(faults)),
    }


def test_hb_factor_reuse(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    system = diode_chain()
    out_node = "n25"
    rows = []
    records = {}
    results = []
    for solver in ("direct", "gmres"):
        timings = {}
        for reuse in (False, True):
            opts = MPDEOptions(solver=solver, reuse_factorization=reuse)
            t0 = time.perf_counter()
            hb = harmonic_balance(system, harmonics=10, options=opts)
            timings[reuse] = (hb, time.perf_counter() - t0)
            results.append(hb)
        (hb_off, t_off), (hb_on, t_on) = timings[False], timings[True]
        a_off = hb_off.amplitude_at(out_node, (1,))
        a_on = hb_on.amplitude_at(out_node, (1,))
        assert abs(a_on - a_off) <= 1e-8 * abs(a_off)
        perf = hb_on.report.perf if hb_on.report else {}
        speedup = t_off / t_on
        rows.append(
            (
                solver,
                t_off,
                t_on,
                speedup,
                perf.get("factor_hits", 0),
                perf.get("jacobian_evals_saved", 0),
            )
        )
        records[solver] = {
            "wall_off": t_off,
            "wall_on": t_on,
            "speedup": speedup,
            "factor_hits": perf.get("factor_hits", 0),
            "factor_misses": perf.get("factor_misses", 0),
            "factor_hit_rate": perf.get("factor_hit_rate", 0.0),
            "newton_iterations": hb_on.newton_iterations,
        }

    # the direct path skips whole Jacobian assemblies + sparse LUs; the
    # GMRES path skips averaged-preconditioner builds (one stacked
    # inverse of ~m/2 dense blocks).
    # Either way the answer is bitwise the same physics; the direct
    # path must show a real measured win and both must hit the cache.
    assert records["direct"]["speedup"] >= 1.1
    assert records["direct"]["factor_hits"] > 0
    assert records["gmres"]["factor_hits"] > 0
    # GMRES wall time is dominated by the Krylov iterations themselves,
    # so the preconditioner reuse is a smaller, noisier win — only guard
    # against an outright regression
    assert records["gmres"]["speedup"] >= 0.8

    # deterministic sweep executor: a harmonic truncation-order sweep
    # must be invariant to the executor backend and worker count
    # (results in point order, bit-identical), and the process backend
    # must actually *win* once real cores are available
    points = [{"harmonics": h} for h in (6, 8, 10, 12, 14, 16, 8, 10)]
    workers = 4
    backends, outputs = backend_sweep_timings(
        lambda backend: hb_sweep(system, points, workers=workers, backend=backend)
    )
    amps = {
        backend: np.array([s.amplitude_at(out_node, (1,)) for s in sols])
        for backend, sols in outputs.items()
    }
    assert np.array_equal(amps["serial"], amps["thread"])
    assert np.array_equal(amps["serial"], amps["process"])

    cpus = os.cpu_count() or 1
    if cpus >= 4:
        # the acceptance bar: process backend >= 2x serial at 4 workers
        assert backends["process"]["speedup_vs_serial"] >= 2.0
    elif cpus >= 2:
        assert backends["process"]["speedup_vs_serial"] >= 1.0
    # on a single core only the identity guarantee is testable

    backend_rows = [
        (backend, rec["wall"], rec["speedup_vs_serial"])
        for backend, rec in backends.items()
    ]
    report(
        "HB factorization reuse + deterministic harmonic sweep",
        rows,
        header=("path", "off [s]", "on [s]", "speedup", "hits", "saved"),
        notes=(
            f"hb_sweep bit-identical across backends over {len(points)} tones",
        ),
    )
    report(
        f"HB sweep backend matrix (workers={workers}, cpus={cpus})",
        backend_rows,
        header=("backend", "wall [s]", "vs serial"),
        notes=("speedup asserts gated on cpu_count; see BENCH_perf_hb.json",),
    )

    modulator = modulator_record()
    report(
        "Figure 1 modulator HB solve (GMRES path)",
        [
            (
                modulator["wall_median"] * 1e3,
                modulator["wall_iqr"] * 1e3,
                modulator["device_passes_per_solve"],
                modulator["residuals_per_solve"],
                modulator["matvecs_per_solve"],
                modulator["minflt_max"],
            )
        ],
        header=("median [ms]", "IQR [ms]", "passes", "residuals", "matvecs", "minflt"),
        notes=(
            f"{modulator['repeats']} steady-state solves; counts from one solve "
            f"({modulator['newton_iterations']} Newton, "
            f"{modulator['gmres_iterations']} GMRES iterations)",
        ),
    )

    write_bench_json(
        "perf_hb",
        results=results,
        extra={
            "paths": records,
            "sweep": {
                "points": len(points),
                "workers": workers,
                "backends": backends,
                "identical": True,
            },
            "modulator": modulator,
        },
    )

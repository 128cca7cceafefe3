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
"""

import os
import time

import numpy as np

from repro.hb import harmonic_balance, hb_sweep
from repro.mpde import MPDEOptions
from repro.netlist import Circuit, Sine

from conftest import backend_sweep_timings, report, write_bench_json


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
        },
    )

"""Fault-tolerant sweep execution: what resilience costs and saves.

The executor behind ``sweep_map`` (deadlines, retry with deterministic
backoff, checkpoint/resume, crashed-worker replacement) only earns its
keep if (a) arming its knobs costs little on a *clean* sweep, and (b)
its recovery paths beat the alternative — re-running the whole sweep.
This bench measures both on a synthetic workload sized like an
AC/corner sweep:

* clean-sweep overhead: an unarmed sweep (chunked dispatch) vs an armed
  one (deadline + retry, nothing fires; per-item dispatch) on the
  serial and process backends;
* transient-fault recovery: injected failures on a fraction of items,
  retry policy on — wall time vs the fault-free run;
* worker-crash recovery: one ``os._exit`` mid-sweep on the process
  backend — pool replacement + breadcrumb replay vs a full re-run;
* checkpoint resume: a sweep interrupted at 50% resumed from its JSONL
  checkpoint vs recomputing from scratch.

Results land in ``BENCH_sweep_resilience.json`` (CI archives it).
"""

import os
import shutil
import tempfile
import time

import numpy as np

from repro.perf import sweep_map
from repro.robust import ChaosSpec, SweepChaos, TransientFault, chaos_sweeps

from conftest import report, write_bench_json

N_ITEMS = 48
WORK = 6000  # per-item FLOP knob: big enough to dwarf dispatch overhead


def _solve_point(x):
    """Dense-solve workload standing in for one sweep point."""
    rng = np.random.default_rng(int(x * 1000) % (2**32))
    A = rng.standard_normal((WORK // 100, WORK // 100)) + 3.0 * np.eye(WORK // 100)
    b = rng.standard_normal(WORK // 100)
    return float(np.linalg.solve(A, b).sum())


def _timed(label, fn, repeats=2):
    best = None
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - t0
        best = wall if best is None else min(best, wall)
    return best, out


def test_bench_sweep_resilience():
    items = [0.5 + 0.125 * k for k in range(N_ITEMS)]
    reference = [_solve_point(x) for x in items]
    rows = []
    record = {}

    # -- clean-sweep overhead: unarmed vs armed --------------------------
    for backend, workers in (("serial", 1), ("process", max(2, os.cpu_count() or 2))):
        unarmed, out_unarmed = _timed(
            "unarmed", lambda: sweep_map(_solve_point, items, workers=workers, backend=backend)
        )
        armed, out_armed = _timed(
            "armed",
            lambda: sweep_map(
                _solve_point,
                items,
                workers=workers,
                backend=backend,
                timeout=120.0,
                on_item_failure="retry",
            ),
        )
        assert out_unarmed == reference
        assert out_armed == reference
        overhead = armed / unarmed if unarmed > 0 else float("inf")
        record[f"overhead_{backend}"] = {
            "unarmed_wall": unarmed,
            "armed_wall": armed,
            "armed_vs_unarmed": overhead,
        }
        rows.append((f"clean {backend}", unarmed, armed, f"{overhead:.2f}x"))

    # -- transient faults + retry vs fault-free --------------------------
    state = tempfile.mkdtemp(prefix="bench-chaos-")
    try:
        faults = {i: ChaosSpec(kind="error") for i in range(0, N_ITEMS, 8)}
        chaos = SweepChaos(faults, state)
        stats = {}

        def run_faulty():
            chaos.reset()
            with chaos_sweeps(chaos):
                return sweep_map(
                    _solve_point,
                    items,
                    backend="serial",
                    on_item_failure="retry",
                    retry_backoff=0.001,
                    stats=stats,
                )

        faulty_wall, out_faulty = _timed("faulty", run_faulty)
        assert out_faulty == reference
        assert stats["retried"] == len(faults)
        clean_serial = record["overhead_serial"]["unarmed_wall"]
        record["transient_recovery"] = {
            "faults": len(faults),
            "wall": faulty_wall,
            "vs_fault_free": faulty_wall / clean_serial if clean_serial else float("inf"),
        }
        rows.append(
            (
                f"{len(faults)} transients",
                clean_serial,
                faulty_wall,
                f"{faulty_wall / clean_serial:.2f}x",
            )
        )

        # -- one worker crash mid-sweep vs full re-run -------------------
        crash_chaos = SweepChaos(
            {N_ITEMS // 2: ChaosSpec(kind="crash")}, os.path.join(state, "crash")
        )
        crash_stats = {}

        def run_crashy():
            crash_chaos.reset()
            with chaos_sweeps(crash_chaos):
                return sweep_map(
                    _solve_point,
                    items,
                    workers=max(2, os.cpu_count() or 2),
                    backend="process",
                    on_item_failure="retry",
                    stats=crash_stats,
                )

        crash_wall, out_crash = _timed("crash", run_crashy, repeats=1)
        assert out_crash == reference
        assert crash_stats["pool_replacements"] >= 1
        clean_proc = record["overhead_process"]["unarmed_wall"]
        rerun_cost = 2 * clean_proc  # the alternative: run it all twice
        record["crash_recovery"] = {
            "wall": crash_wall,
            "pool_replacements": crash_stats["pool_replacements"],
            "vs_full_rerun": crash_wall / rerun_cost if rerun_cost else float("inf"),
        }
        rows.append(("1 worker crash", rerun_cost, crash_wall, "vs 2x re-run"))

        # -- checkpoint resume vs recompute ------------------------------
        ck = os.path.join(state, "sweep.jsonl")
        half_chaos = SweepChaos(
            {N_ITEMS // 2: ChaosSpec(kind="error", times=99)},
            os.path.join(state, "interrupt"),
        )
        with chaos_sweeps(half_chaos):
            try:
                sweep_map(
                    _solve_point,
                    items,
                    backend="serial",
                    checkpoint=ck,
                    checkpoint_tag="bench",
                )
            except TransientFault:
                pass

        resume_stats = {}
        resume_wall, out_resume = _timed(
            "resume",
            lambda: sweep_map(
                _solve_point,
                items,
                backend="serial",
                checkpoint=ck,
                checkpoint_tag="bench",
                stats=resume_stats,
            ),
            repeats=1,
        )
        assert out_resume == reference
        assert resume_stats["cached"] == N_ITEMS // 2
        record["checkpoint_resume"] = {
            "restored": resume_stats["cached"],
            "resume_wall": resume_wall,
            "recompute_wall": clean_serial,
            "saved_fraction": 1.0 - resume_wall / clean_serial if clean_serial else 0.0,
        }
        rows.append(
            (
                f"resume {resume_stats['cached']}/{N_ITEMS}",
                clean_serial,
                resume_wall,
                f"{resume_wall / clean_serial:.2f}x",
            )
        )
    finally:
        shutil.rmtree(state, ignore_errors=True)

    report(
        "Fault-tolerant sweep execution: overhead and recovery costs",
        rows,
        header=("scenario", "baseline s", "measured s", "ratio"),
        notes=(
            f"{N_ITEMS} items, dense-solve workload, cpu_count={os.cpu_count()}",
            "clean rows compare unarmed (chunked) against armed (per-item) dispatch",
            "recovery rows compare against fault-free (or full re-run) cost",
        ),
    )
    write_bench_json("sweep_resilience", extra=record)

    # resilience must be cheap when nothing goes wrong
    assert record["overhead_serial"]["armed_vs_unarmed"] < 3.0

"""Benchmark driver: run one workload and print its metrics.

    python3 perfbench/run.py --workload tran-ladder --seed 1 --seconds 10 --trace 0

Workloads: tran-ladder, hb-modulator, explore-corners, serve-batch
(see NOTES.md).  Each is a seeded list of equal-cost units;
``--seconds`` scales how many (``units_per_s`` per second, at least 30).
A fixed-work calibration slice runs between units and
around set-up, and every end-to-end time is rescaled by the host speed
measured next to it.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of
three set-ups, each in a fresh interpreter: two children, then this
one), ``work_per_s``, ``unit_p50_s``, ``unit_tail_s`` and
``peak_rss_mb``.  ``--trace 1``
runs half the units untraced, then again with every layer's public
functions wrapped, and prints the per-layer metrics.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a fuller record goes to ``.perfbench_work/``
in the checkout.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")

#: Workload -> calibration kernel passes per slice, about 4% of a unit.
SLICE_PASSES = {
    "tran-ladder": 2, "hb-modulator": 4, "explore-corners": 8, "serve-batch": 16,
}
MIN_UNITS = 30  # so the tail percentile (p66.7) has ten units beyond it
SETUP_SAMPLES = 3  # two in child interpreters, one in this one
CHILD_TIMEOUT_S = 150


def _clean_environment():
    """No ambient setting may switch a code path or start extra threads.

    Runs before numpy is imported: OpenBLAS reads its thread count once.
    """
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"


def _git_sha():
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _provenance():
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
    }


def _timed_setup(cal, args, traced=False, share=1.0):
    """Build and warm a workload; calibrated seconds, workload, last slice.

    Building and the warm-up unit are timed and calibrated separately,
    each between its own pair of slices.  ``share`` scales the number of
    units (a traced run runs two halves).
    """
    s0 = cal.slice()
    t0 = time.perf_counter()
    import workloads  # the first import loads repro

    cls = workloads.WORKLOADS[args.workload]
    n_units = max(MIN_UNITS, round(args.seconds * cls.units_per_s))
    wl = cls(args.seed, round(share * n_units), WORK_DIR, traced)
    try:
        wl.setup()
        build = time.perf_counter() - t0
        gc.collect()
        s1 = cal.slice()
        t1 = time.perf_counter()
        wl.warm()
        warm = time.perf_counter() - t1
    except BaseException:
        wl.close()
        raise
    gc.collect()
    s2 = cal.slice()
    return cal.scale(build, s0, s1) + cal.scale(warm, s1, s2), wl, s2


def _timed_units(cal, wl, first_slice, ledger=None):
    """Run every unit between calibration slices, then the oracles."""
    run = {"times": [], "windows": [], "factors": [], "slices": [first_slice],
           "work": 0, "attempted": 0, "failed": 0}
    prev = first_slice
    try:
        for k, unit in enumerate(wl.units):
            if ledger is not None:
                ledger.unit = k
            t0 = time.perf_counter()
            work, attempted, failed = wl.run_unit(k, unit)
            t1 = time.perf_counter()
            if ledger is not None:
                ledger.unit = -1
            gc.collect()
            s = cal.slice()
            factor = cal.scale(1.0, prev, s)
            run["times"].append((t1 - t0) * factor)
            run["windows"].append((t0, t1))
            run["factors"].append(factor)
            run["slices"].append(s)
            run["work"] += work
            run["attempted"] += attempted
            run["failed"] += failed
            prev = s
    finally:
        wl.close()
    failed, run["messages"] = wl.check()
    run["failed"] += failed
    return run


def _setup_in_child(args):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"set-up child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def _end_to_end(args, cal):
    setups = [_setup_in_child(args) for _ in range(SETUP_SAMPLES - 1)]
    setup_s, wl, first = _timed_setup(cal, args)
    setups.append(setup_s)
    run = _timed_units(cal, wl, first)
    times = run["times"]
    n = len(times)
    tail = sorted(times)[n - 11]  # highest percentile with ten units beyond it
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "work_per_s": (run["work"] / sum(times), "work/s"),
        "unit_p50_s": (statistics.median(times), "s"),
        "unit_tail_s": (tail, "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    raw_p50 = statistics.median(t / f for t, f in zip(times, run["factors"]))
    notes = [
        f"{n} units; work done {run['work']} {wl.work_unit}",
        f"unit_tail_s is p{100.0 * (n - 10) / n:g} of {n} units",
        f"setup_s samples {['%.4f' % s for s in setups]}",
        f"uncalibrated unit p50 {raw_p50:.5f} s",
    ]
    extra = {"setup_samples": setups, "unit_times": times, "factors": run["factors"]}
    return run, metrics, notes, extra


def _traced(args, cal):
    _, wl, first = _timed_setup(cal, args, share=0.5)
    plain = _timed_units(cal, wl, first)

    import ledger

    ledger.install()
    log = ledger.LEDGER
    main_tid = log.thread_id()
    _, wl, first = _timed_setup(cal, args, traced=True, share=0.5)
    traced = _timed_units(cal, wl, first, ledger=log)

    arrs = log.arrays()
    spans_path = os.path.join(WORK_DIR, f"spans-{args.workload}-{os.getpid()}.npz")
    log.dump(spans_path)
    worker_spans = getattr(wl, "spans_path", None)
    if worker_spans and os.path.exists(worker_spans):
        import numpy as np

        with np.load(worker_spans) as other:
            arrs = ledger.merge(arrs, dict(other))
    metrics, top = ledger.layer_metrics(
        arrs, traced["windows"], traced["factors"], main_tid, jobs=traced["work"]
    )
    metrics["trace.overhead"] = (sum(traced["times"]) / sum(plain["times"]) - 1.0, "ratio")
    slices = plain["slices"] + traced["slices"]
    metrics["host.speed"] = (cal.host_speed(slices), "ratio")
    run = {
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "messages": plain["messages"] + traced["messages"],
        "slices": slices,
    }
    notes = [
        f"top layer by self time: {top} "
        f"({metrics['top_layer.share'][0]:.1%} of all layer self time)",
        f"spans written to {os.path.relpath(spans_path, ROOT)}",
    ]
    return run, metrics, notes, {}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SLICE_PASSES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this interpreter and exit")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(f"no repro sources under {SRC}: run from a full checkout\n")
        return 2
    _clean_environment()
    sys.path.insert(0, SRC)
    os.makedirs(WORK_DIR, exist_ok=True)

    import calib  # numpy and scipy load here, before set-up is timed

    cal = calib.Calibrator(SLICE_PASSES[args.workload])
    if args.setup_only:
        setup_s, wl, _ = _timed_setup(cal, args)
        wl.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    run, metrics, notes, extra = (_traced if args.trace else _end_to_end)(args, cal)
    speed = cal.host_speed(run["slices"])
    provenance = _provenance()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(f"host.speed {speed:.4f} (calibration rate / reference rate)")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:.6g} {unit}")
    for msg in run["messages"]:
        print(f"oracle failure: {msg}")
    result = {
        "correct": run["failed"] == 0,
        "attempted": int(run["attempted"]),
        "failed": int(run["failed"]),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, provenance=provenance, host_speed=speed,
                  slices=run["slices"], notes=notes, messages=run["messages"], **extra)
    path = os.path.join(WORK_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

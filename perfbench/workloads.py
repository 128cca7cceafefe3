"""The four workloads: each a seeded list of equal-cost units.

A workload's units are built from its seed alone, so two commits do
identical work; ``traced`` says whether the run records spans.
``setup`` builds and compiles the circuits (and, for the service,
starts it); ``warm`` runs one warm-up unit; ``run_unit`` runs one timed
unit and returns ``(work, attempted, failed)``; ``check`` runs the
oracles outside the timed units and returns the number of operations
whose outputs failed them, with a message for each.

Why each workload exists is recorded in NOTES.md next to this file.
"""

import math
import multiprocessing as mp
import os
import shutil
import signal
import sys

import numpy as np

import circuits
from repro.analysis import dc_analysis, transient_analysis

#: Workload name -> class, filled in by ``_register``.
WORKLOADS = {}


def _register(cls):
    WORKLOADS[cls.name] = cls
    return cls


def _device(system, name):
    for dev in system.devices:
        if dev.name == name:
            return dev
    raise KeyError(name)


@_register
class TranLadder:
    """Trap transient (1 ns, 100 steps) of a 100-stage diode RC ladder."""

    name = "tran-ladder"
    work_unit = "accepted steps"
    units_per_s = 6.0  # units per second of --seconds
    T_STOP, DT, STEPS = 1e-9, 1e-11, 100
    ORACLE_UNITS = 2

    def __init__(self, seed, n_units, work_dir, traced=False):
        rng = np.random.default_rng(seed)
        self.warmup = float(rng.uniform(0.2, 0.5))
        self.units = [float(b) for b in rng.uniform(0.2, 0.5, n_units)]
        self.oracle_units = sorted(
            int(k) for k in rng.choice(n_units, self.ORACLE_UNITS, replace=False)
        )
        self.kept = {}

    def setup(self):
        self.system = circuits.diode_ladder(stages=100)
        self.vb = _device(self.system, "Vb")

    def warm(self):
        self._solve(self.warmup)

    def _solve(self, bias, reuse_lu=True):
        self.vb.set_param("value", bias)
        return transient_analysis(
            self.system, self.T_STOP, self.DT, method="trap", reuse_lu=reuse_lu
        )

    def run_unit(self, k, bias):
        res = self._solve(bias)
        steps = len(res.t) - 1
        ok = res.converged and steps == self.STEPS and bool(np.isfinite(res.X).all())
        if k in self.oracle_units:
            self.kept[k] = res.X
        return steps, 1, 0 if ok else 1

    def check(self):
        # LU reuse must not change the trajectory beyond the per-step
        # Newton tolerance (bench_perf_transient's rtol/atol)
        failed, msgs = 0, []
        for k, X in self.kept.items():
            ref = self._solve(self.units[k], reuse_lu=False).X
            if X.shape != ref.shape or not np.allclose(X, ref, rtol=1e-3, atol=1e-6):
                failed += 1
                msgs.append(f"unit {k}: reuse_lu trajectory differs from reuse_lu=False")
        return failed, msgs

    def close(self):
        pass


@_register
class HBModulator:
    """Two-tone HB of the Figure 1 modulator at seeded imbalance corners."""

    name = "hb-modulator"
    work_unit = "HB solves"
    units_per_s = 4.5
    #: (gain error, phase error) -> (image dBc, LO spur dBc), recorded
    #: with repro's harmonic_balance when this benchmark was written.
    #: The first corner is Figure 1's default.
    CORNERS = (
        ((0.015, 0.02), (-34.727761257280804, -78.04097628337234)),
        ((0.005, 0.01), (-36.54621804833204, -77.99812773072861)),
        ((0.01, 0.03), (-32.523725135240156, -78.01941062699294)),
        ((0.02, 0.015), (-36.04150226061751, -78.062315895558)),
        ((0.025, 0.025), (-33.56026855348558, -78.08351692912795)),
        ((0.03, 0.005), (-38.346399044415726, -78.10467577838418)),
        ((0.008, 0.04), (-30.82854532648922, -78.01044192351935)),
        ((0.012, 0.0), (-41.02108758840664, -78.0278707462971)),
    )
    TOL_DB = 0.1

    def __init__(self, seed, n_units, work_dir, traced=False):
        rng = np.random.default_rng(seed)
        self.units = [int(c) for c in rng.integers(0, len(self.CORNERS), n_units)]
        self.levels = []

    def setup(self):
        from repro.hb import harmonic_balance

        self.harmonic_balance = harmonic_balance
        self.system = circuits.quadrature_modulator()
        self.vbbq = _device(self.system, "Vbbq")

    def warm(self):
        self.default = self._solve(0)

    def _solve(self, corner):
        gain, phase = self.CORNERS[corner][0]
        self.vbbq.set_param("amplitude", circuits.A_BB * (1.0 + gain))
        self.vbbq.set_param("phase", math.pi / 2 + phase)
        hb = self.harmonic_balance(
            self.system, freqs=[circuits.F_BB, circuits.F_REF], harmonics=[3, 10]
        )
        carrier = (1, 8)
        return (
            bool(hb.converged),
            float(hb.dbc("rfp", (-1, 8), carrier)),
            float(hb.dbc("rfp", (0, 8), carrier)),
        )

    def run_unit(self, k, corner):
        converged, image, lo = self._solve(corner)
        self.levels.append((corner, image, lo))
        return 1, 1, 0 if converged else 1

    def check(self):
        failed, msgs = 0, []
        _, image, lo = self.default
        if not (-40.0 < image < -30.0 and -84.0 < lo < -72.0):
            failed += 1
            msgs.append(f"default corner outside Figure 1 bands: {image:.2f}/{lo:.2f} dBc")
        for k, (corner, image, lo) in enumerate(self.levels):
            ref_image, ref_lo = self.CORNERS[corner][1]
            if abs(image - ref_image) > self.TOL_DB or abs(lo - ref_lo) > self.TOL_DB:
                failed += 1
                msgs.append(
                    f"unit {k}: {image:.3f}/{lo:.3f} dBc, "
                    f"reference {ref_image:.3f}/{ref_lo:.3f}"
                )
        return failed, msgs

    def close(self):
        pass


@_register
class ExploreCorners:
    """Woodbury ``explore()`` over seeded corners of a switching mixer."""

    name = "explore-corners"
    work_unit = "corners"
    units_per_s = 2.0
    PARAMS = ("RL1.resistance", "RL2.resistance")
    PLAIN, GRADIENT = 64, 16
    ORACLE_CORNERS = 8

    def __init__(self, seed, n_units, work_dir, traced=False):
        rng = np.random.default_rng(seed)

        def corners(n):
            return rng.uniform(1e3, 5e3, size=(n, len(self.PARAMS)))

        self.warmup = (corners(self.PLAIN), corners(self.GRADIENT))
        self.units = [(corners(self.PLAIN), corners(self.GRADIENT)) for _ in range(n_units)]
        self.oracle_picks = [
            (int(rng.integers(n_units)), int(rng.integers(self.PLAIN)))
            for _ in range(self.ORACLE_CORNERS)
        ]
        self.gradient_pick = (int(rng.integers(n_units)), int(rng.integers(self.GRADIENT)))
        self.keep_units = {u for u, _ in self.oracle_picks} | {self.gradient_pick[0]}
        self.kept = {}

    def setup(self):
        from repro.sensitivity import explore

        self.explore = explore
        self.system = circuits.switching_mixer(stages=340)
        self.x_ref = dc_analysis(self.system).x

    def warm(self):
        self._solve(self.warmup)

    def _solve(self, unit):
        plain, grad = unit
        r1 = self.explore(self.system, self.PARAMS, "ifp", plain, x_ref=self.x_ref)
        r2 = self.explore(
            self.system, self.PARAMS, "ifp", grad, x_ref=self.x_ref, gradients=True
        )
        return r1, r2

    def run_unit(self, k, unit):
        r1, r2 = self._solve(unit)
        bad = int(np.count_nonzero(~np.isfinite(r1.objectives)))
        bad += int(np.count_nonzero(
            ~(np.isfinite(r2.objectives) & np.isfinite(r2.gradients).all(axis=1))
        ))
        if k in self.keep_units:
            self.kept[k] = (r1.objectives, r2.gradients)
        return r1.objectives.size + r2.objectives.size, self.PLAIN + self.GRADIENT, bad

    def check(self):
        from repro.sensitivity import resolve_param

        failed, msgs = 0, []
        # woodbury corners re-solved from scratch (bench_sensitivity's 1e-7)
        points = np.array([self.units[u][0][i] for u, i in self.oracle_picks])
        wood = np.array([self.kept[u][0][i] for u, i in self.oracle_picks])
        full = self.explore(
            self.system, self.PARAMS, "ifp", points, x_ref=self.x_ref, mode="full"
        ).objectives
        rel = np.abs(full - wood) / np.maximum(np.abs(full), 1.0)
        for (u, i), r in zip(self.oracle_picks, rel):
            if not r < 1e-7:
                failed += 1
                msgs.append(f"unit {u} corner {i}: woodbury vs full relerr {r:.2e}")
        # one adjoint gradient against central differences, with
        # bench_sensitivity's step and atol floor for the ~1e-13 cross
        # term.  The reference DC solves run to abstol 1e-14: at the
        # default 1e-9, Newton's stopping error moves with the parameter
        # and shifts the difference quotient by up to ~1e-10 at some
        # corners, far beyond the floor.
        u, i = self.gradient_pick
        point = self.units[u][1][i]
        grad = self.kept[u][1][i]
        fd = []
        for j in range(len(self.PARAMS)):
            vals = []
            for sign in (1.0, -1.0):
                system = circuits.switching_mixer(stages=340)
                for jj, spec in enumerate(self.PARAMS):
                    step = 1e-5 * point[j] if jj == j else 0.0
                    resolve_param(system, spec).set(point[jj] + sign * step)
                system.refresh_stamps(linear=True)
                x = dc_analysis(system, abstol=1e-14).x
                vals.append(float(x[system.node("ifp")]))
            fd.append((vals[0] - vals[1]) / (2e-5 * point[j]))
        fd = np.asarray(fd)
        if not np.all(np.abs(grad - fd) <= 1e-5 * np.abs(fd) + 1e-12):
            failed += 1
            msgs.append(f"unit {u} corner {i}: adjoint {grad} vs central FD {fd}")
        return failed, msgs

    def close(self):
        pass


def serve_worker(root, spans_path):
    """Process entry of the service's worker.

    SIGTERM ends it through ``SystemExit``, so a traced worker writes
    its spans out on the way down.
    """
    from repro.serve import worker_main

    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(0))
    if spans_path:
        import ledger

        ledger.LEDGER.reset()
        ledger.install()
    try:
        worker_main(root, worker_id="bench", until_drained=False, max_seconds=900)
    finally:
        if spans_path:
            ledger.LEDGER.dump(spans_path)


@_register
class ServeBatch:
    """Rounds of 64 HTTP jobs against a loopback service and one worker."""

    name = "serve-batch"
    work_unit = "jobs fetched"
    units_per_s = 1.3
    JOBS, REPEATS = 64, 16
    FREQS = [1e6, 1e7, 1e8]

    def __init__(self, seed, n_units, work_dir, traced=False):
        rng = np.random.default_rng(seed)
        self.work_dir = work_dir
        # a traced run's worker records its own spans and writes them here
        self.spans_path = (
            os.path.join(work_dir, f"spans-worker-{os.getpid()}.npz") if traced else None
        )
        pool = []

        def new_job():
            analysis = "dc" if rng.random() < 0.5 else "ac"
            job = {
                "netlist": circuits.ladder_netlist(
                    len(pool), float(rng.uniform(100.0, 300.0)),
                    float(rng.uniform(0.2, 0.5)), float(10.0 ** rng.uniform(-14, -12)),
                ),
                "analysis": analysis,
                "params": {} if analysis == "dc" else {"source": "V1", "freqs": self.FREQS},
                "repeat": False,
            }
            pool.append(job)
            return job

        self.warmup = [new_job() for _ in range(self.JOBS)]
        self.units = []
        for _ in range(n_units):
            earlier = len(pool)
            jobs = [new_job() for _ in range(self.JOBS - self.REPEATS)]
            for idx in rng.choice(earlier, self.REPEATS, replace=False):
                jobs.append(dict(pool[int(idx)], repeat=True))
            self.units.append([jobs[int(i)] for i in rng.permutation(self.JOBS)])
        # one fetched payload per round is compared with a direct run_job
        self.oracle_picks = [
            int(rng.choice([i for i, j in enumerate(u) if not j["repeat"]]))
            for u in self.units
        ]
        self.kept = []
        self.uncached_repeats = 0
        self.server = self.worker = self.root = None

    def setup(self):
        from repro.serve import JobSpec, ServeClient, ServeHTTPServer, ServiceConfig, run_job

        self.JobSpec, self.run_job = JobSpec, run_job
        # warm the solve path in this process before forking, so the
        # worker starts with everything imported and set-up never waits
        # on a cold worker
        for job in self.warmup[:4]:
            run_job(self._spec(job))
        self.root = os.path.join(self.work_dir, f"serve-{os.getpid()}-{id(self)}")
        shutil.rmtree(self.root, ignore_errors=True)
        self.server = ServeHTTPServer(self.root, config=ServiceConfig())
        # fork before any thread starts in this process
        self.worker = mp.get_context("fork").Process(
            target=serve_worker, args=(self.root, self.spans_path), daemon=True
        )
        self.worker.start()
        self.server.start_background()
        self.client = ServeClient(self.server.address, retries=4, backoff_base=0.01)

    def warm(self):
        self._round(self.warmup, keep=None)

    def _spec(self, job):
        return self.JobSpec(netlist=job["netlist"], analysis=job["analysis"],
                            params=job["params"])

    def _round(self, jobs, keep):
        verdicts = [
            self.client.submit(j["netlist"], j["analysis"], params=j["params"])
            for j in jobs
        ]
        fetched, failed = 0, 0
        for pos, (job, verdict) in enumerate(zip(jobs, verdicts)):
            if verdict["state"] == "rejected":
                failed += 1
                continue
            if job["repeat"] and not verdict.get("cached"):
                self.uncached_repeats += 1
            rec = self.client.wait(verdict["job_id"], timeout=120.0)
            payload = self.client.result(verdict["job_id"]) if rec["state"] == "done" else None
            arrays = [payload.get(k) for k in ("x", "X")] if payload else []
            if (
                payload is None
                or payload.get("key") != verdict["key"]
                or not any(a is not None and np.isfinite(a).all() for a in arrays)
            ):
                failed += 1
                continue
            fetched += 1
            if pos == keep:
                self.kept.append((job, payload))
        return fetched, len(jobs), failed

    def run_unit(self, k, jobs):
        return self._round(jobs, keep=self.oracle_picks[k])

    def check(self):
        failed, msgs = 0, []
        for job, payload in self.kept:
            direct = self.run_job(self._spec(job))
            for key, value in direct.items():
                if isinstance(value, np.ndarray) and not np.array_equal(value, payload[key]):
                    failed += 1
                    msgs.append(f"fetched {job['analysis']} payload {key!r} differs from run_job")
                    break
        if self.uncached_repeats:
            failed += self.uncached_repeats
            msgs.append(f"{self.uncached_repeats} repeated job(s) not served from cache")
        return failed, msgs

    def close(self):
        if self.server is not None:
            self.server.close()
            self.server = None
        if self.worker is not None:
            self.worker.terminate()
            self.worker.join(timeout=30)
            if self.worker.is_alive():
                self.worker.kill()
                self.worker.join(timeout=30)
            self.worker = None
        if self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)
            self.root = None

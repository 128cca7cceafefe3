"""Crash-safe simulation service: what durability costs and saves.

The serve layer (WAL-backed job queue, lease recovery, content-addressed
result store) earns its keep on three numbers:

* **cold latency** — submit + solve a batch through the full durable
  pipeline (admission lint, WAL events, lease files, store write) vs the
  same solves called directly, so the bookkeeping overhead is explicit;
* **cache-hit latency** — resubmitting the identical batch must cost
  microseconds per job (content-key lookup, zero solves), which is the
  service's whole economic argument;
* **crash recovery time** — a worker killed mid-job (chaos ``os._exit``)
  must cost roughly one lease TTL plus one re-solve, and a service
  restart over a torn WAL must replay + finish from cache rather than
  recompute.

Results land in ``BENCH_serve.json`` (CI archives it).
"""

import shutil
import tempfile
import time

from repro.robust import Chaos, ChaosSpec, chaos_scope, tear_final_line
from repro.serve import open_service, run_job, JobSpec
from repro.trace import Tracer, using

from conftest import report, write_bench_json

N_JOBS = 16
LEASE_TTL = 1.0

RC = """bench lowpass
V1 in 0 SIN(0 1 1e6)
R1 in out 1k
C1 out 0 %dp
.end
"""


def _netlists(n):
    return [RC % (i + 1) for i in range(n)]


def test_bench_serve():
    rows = []
    record = {"jobs": N_JOBS}
    nets = _netlists(N_JOBS)

    # -- direct solves: the no-service baseline --------------------------
    t0 = time.perf_counter()
    for net in nets:
        run_job(JobSpec(netlist=net, analysis="dc"))
    direct_wall = time.perf_counter() - t0

    root = tempfile.mkdtemp(prefix="bench-serve-")
    try:
        svc = open_service(root)

        # -- cold: full durable pipeline ---------------------------------
        t0 = time.perf_counter()
        jobs = [svc.submit(net, "dc") for net in nets]
        svc.drain()
        cold_wall = time.perf_counter() - t0
        assert all(svc.status(j.job_id)["state"] == "done" for j in jobs)
        record["direct_wall"] = direct_wall
        record["cold"] = {
            "wall": cold_wall,
            "per_job": cold_wall / N_JOBS,
            "vs_direct": cold_wall / direct_wall if direct_wall else float("inf"),
        }
        rows.append(("cold batch", cold_wall, cold_wall / N_JOBS,
                     f"{cold_wall / direct_wall:.2f}x direct"))

        # -- cache hit: resubmit the identical batch ---------------------
        with using(Tracer()) as tracer:
            t0 = time.perf_counter()
            again = [svc.submit(net, "dc") for net in nets]
            cache_wall = time.perf_counter() - t0
            summary = tracer.summary_since()
        assert all(a.state == "done" and a.cached for a in again)
        assert "serve.solve" not in summary["spans"]  # zero solves
        assert summary["events"].get("serve.cache_hit") == N_JOBS
        record["cache_hit"] = {
            "wall": cache_wall,
            "per_job": cache_wall / N_JOBS,
            "speedup_vs_cold": cold_wall / cache_wall if cache_wall else float("inf"),
        }
        rows.append(("cache-hit batch", cache_wall, cache_wall / N_JOBS,
                     f"{cold_wall / cache_wall:.0f}x cold"))

        # -- restart over a torn WAL: replay + finish from cache ---------
        svc.queue.wal.close()
        tear_final_line(f"{root}/wal.jsonl")
        t0 = time.perf_counter()
        svc2 = open_service(root)
        refinished = svc2.drain()  # regressed jobs complete via the store
        restart_wall = time.perf_counter() - t0
        states = [r["state"] for r in svc2.status()]
        assert states.count("done") == len(states)
        assert refinished >= 1  # the torn done event cost one cache hit
        record["restart_recovery"] = {
            "wall": restart_wall,
            "jobs_refinished": refinished,
        }
        rows.append(("torn-WAL restart", restart_wall, restart_wall,
                     f"{refinished} job(s) refinished"))
    finally:
        shutil.rmtree(root, ignore_errors=True)

    # -- worker crash mid-job: lease reclaim + re-solve ------------------
    root = tempfile.mkdtemp(prefix="bench-serve-crash-")
    state = tempfile.mkdtemp(prefix="bench-serve-chaos-")
    try:
        svc = open_service(root, lease_ttl=LEASE_TTL, backoff_base=0.01)
        crashy = nets[0].replace("bench lowpass", "bench lowpass crash-me")
        cj = svc.submit(crashy, "dc", label="crashy")
        jobs = [svc.submit(net, "dc") for net in nets[1:]]
        chaos = Chaos(
            state, jobs={"crash-me": ChaosSpec(kind="crash", times=1)}
        )
        t0 = time.perf_counter()
        with chaos_scope(chaos):
            procs = svc.spawn_workers(2, max_seconds=60)
            drained = svc.wait(timeout=60)
            for p in procs:
                p.join(timeout=30)
        crash_wall = time.perf_counter() - t0
        assert drained, f"crash batch not drained: {svc.summary()}"
        rec = svc.status(cj.job_id)
        assert rec["state"] == "done"
        assert rec["lease_reclaimed"] >= 1
        record["worker_crash"] = {
            "wall": crash_wall,
            "lease_ttl": LEASE_TTL,
            "lease_reclaimed": rec["lease_reclaimed"],
            "attempts": rec["attempts"],
        }
        rows.append(("worker crash", crash_wall, LEASE_TTL,
                     f"reclaims={rec['lease_reclaimed']}"))
    finally:
        shutil.rmtree(root, ignore_errors=True)
        shutil.rmtree(state, ignore_errors=True)

    report(
        "Crash-safe service: durability overhead and recovery cost",
        rows,
        header=("case", "wall [s]", "per-job/TTL", "note"),
        notes=(
            "cache-hit batch must show zero serve.solve spans",
            "worker-crash wall ~ lease TTL + one re-solve",
        ),
    )
    write_bench_json("serve", extra=record)

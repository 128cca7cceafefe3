"""Crash-safe simulation service: queue, leases, cache, dead-letter.

Exercises ``repro.serve`` end to end — content-addressed job identity,
WAL torn-line recovery, admission rejection, retry/backoff ladders with
dead-letter quarantine, lease-based reclaim of killed workers — and
locks down the headline acceptance scenario: a 20-job batch surviving a
SIGKILL'd worker plus a torn WAL line, with every valid job completing
exactly once, bit-identical to a fault-free serial run, and a full
resubmission costing zero solves.

The CI ``serve-smoke`` job runs this file.
"""

import json
import os
import signal
import time

import numpy as np
import pytest

from repro.robust import Chaos, ChaosSpec, chaos_scope, tear_final_line
from repro.serve import (
    JobSpec,
    ServiceConfig,
    SimulationService,
    WALError,
    WriteAheadLog,
    canonical_netlist,
    content_key,
    open_service,
)
from repro.serve.queue import JobQueue
from repro.serve.store import ResultStore
from repro.trace import Tracer, using

from .test_durable import TornWriteCases

RC = """rc lowpass
V1 in 0 SIN(0 1 1e6)
R1 in out 1k
C1 out 0 1n
.end
"""

DIVIDER = """resistive divider
V1 in 0 1.0
R1 in out 1k
R2 out 0 1k
.end
"""

BROKEN = "broken netlist\nR1 only\n.end\n"

#: AC analysis naming a nonexistent source: passes the netlist lint
#: (the circuit itself is fine) but raises at solve time — the natural
#: poison job for dead-letter tests.
POISON_PARAMS = {"source": "VXX", "freqs": [1e3]}


def rc_variant(i):
    """Distinct valid netlist per i (distinct content keys)."""
    return RC.replace("C1 out 0 1n", f"C1 out 0 {i + 1}n")


# -- content-addressed identity -----------------------------------------


class TestContentKey:
    def test_formatting_never_changes_key(self):
        messy = (
            "a title line\n"
            "* a comment\n"
            "V1 in 0   SIN(0 1 1e6)\n"
            "; another comment\n"
            "r1 IN out\n+ 1k\n"
            "C1 out 0 1n\n"
            ".end\n"
            "V9 ghost 0 5.0\n"
        )
        assert canonical_netlist(messy) == canonical_netlist(RC)
        assert content_key(messy, "dc") == content_key(RC, "dc")

    def test_card_order_changes_key(self):
        reordered = RC.replace(
            "R1 in out 1k\nC1 out 0 1n", "C1 out 0 1n\nR1 in out 1k"
        )
        assert content_key(reordered, "dc") != content_key(RC, "dc")

    def test_analysis_and_params_change_key(self):
        assert content_key(RC, "dc") != content_key(RC, "ac")
        assert content_key(RC, "ac", {"f": 1.0}) != content_key(
            RC, "ac", {"f": 2.0}
        )

    def test_param_order_is_free(self):
        a = content_key(RC, "ac", {"f_start": 1.0, "f_stop": 2.0})
        b = content_key(RC, "ac", {"f_stop": 2.0, "f_start": 1.0})
        assert a == b

    def test_jobspec_key_roundtrip(self):
        spec = JobSpec(netlist=RC, analysis="DC", label="x")
        again = JobSpec.from_dict(spec.as_dict())
        assert again.key == spec.key
        assert again.analysis == "dc"


# -- write-ahead log ----------------------------------------------------


class TestWAL(TornWriteCases):
    """The shared torn-write suite (tests/test_durable.py) on the job log."""

    make_log = staticmethod(WriteAheadLog)


# -- result store -------------------------------------------------------


class TestResultStore:
    def test_roundtrip_and_write_once(self, tmp_path):
        store = ResultStore(tmp_path / "res")
        payload = {"x": np.arange(4.0)}
        assert store.put("k1", payload) is True
        assert store.put("k1", {"x": "other"}) is False  # first write wins
        got = store.get("k1")
        np.testing.assert_array_equal(got["x"], payload["x"])
        assert "k1" in store and len(store) == 1

    def test_corrupted_payload_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path / "res")
        store.put("k1", {"x": 1})
        pkl = os.path.join(store.root, "k1"[:2], "k1.pkl")
        with open(pkl, "r+b") as fh:
            fh.write(b"\xde\xad\xbe\xef")
        assert store.get("k1") is None  # sha mismatch: re-solve

    def test_hmac_rejects_tampered_and_unauthenticated(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_CHECKPOINT_KEY", raising=False)
        monkeypatch.setenv("REPRO_SERVE_RESULT_KEY", "s3cret")
        store = ResultStore(tmp_path / "res")
        store.put("k1", {"x": 1})
        assert store.get("k1") == {"x": 1}
        # strip the MAC from the sidecar: entry becomes untrusted
        meta_path = os.path.join(store.root, "k1"[:2], "k1.json")
        with open(meta_path) as fh:
            meta = json.load(fh)
        del meta["mac"]
        with open(meta_path, "w") as fh:
            json.dump(meta, fh)
        assert store.get("k1") is None
        # the untrusted entry was quarantined, not left to flap between
        # hit and miss depending on who asks: it stays a miss even after
        # the key is unset, and a resubmission recomputes cleanly
        monkeypatch.delenv("REPRO_SERVE_RESULT_KEY")
        assert store.get("k1") is None
        assert "k1" not in store
        corrupt = os.listdir(os.path.join(store.root, "corrupt"))
        assert any(name.startswith("k1") for name in corrupt)
        assert store.put("k1", {"x": 1}) is True  # key is free again
        assert store.get("k1") == {"x": 1}


# -- admission gate -----------------------------------------------------


class TestAdmission:
    def test_broken_netlist_rejected_before_enqueue(self, tmp_path):
        svc = open_service(tmp_path / "s")
        res = svc.submit(BROKEN, "dc")
        assert res.state == "rejected" and not res.ok
        assert res.report.has("PARSE_ERROR")
        rec = svc.status(res.job_id)
        assert rec["state"] == "rejected"
        assert any(d["code"] == "PARSE_ERROR" for d in rec["diagnostics"])
        assert svc.drain() == 0  # nothing reached the queue

    def test_unknown_analysis_rejected(self, tmp_path):
        svc = open_service(tmp_path / "s")
        res = svc.submit(RC, "smith-chart")
        assert res.state == "rejected"
        assert res.report.has("SERVE_UNKNOWN_ANALYSIS")

    def test_missing_params_rejected(self, tmp_path):
        svc = open_service(tmp_path / "s")
        res = svc.submit(RC, "ac", {})  # no source at all
        assert res.state == "rejected"
        assert res.report.has("SERVE_MISSING_PARAM")
        res = svc.submit(RC, "ac", {"source": "V1"})  # no frequency grid
        assert res.state == "rejected"
        assert any(d.location == "freqs"
                   for d in res.report.by_code("SERVE_MISSING_PARAM"))
        res = svc.submit(RC, "transient", {"t_stop": -1.0, "dt": 1e-9})
        assert res.state == "rejected"
        assert res.report.has("SERVE_BAD_PARAM")

    def test_admission_off_enqueues_anything(self, tmp_path):
        svc = open_service(tmp_path / "s", admission="off")
        res = svc.submit(BROKEN, "dc")
        assert res.state == "queued"  # and will die at runtime instead


# -- happy paths / caching ----------------------------------------------


class TestService:
    def test_dc_job_matches_direct_analysis(self, tmp_path):
        svc = open_service(tmp_path / "s")
        res = svc.submit(DIVIDER, "dc", label="div")
        assert res.state == "queued"
        assert svc.drain() == 1
        payload = svc.result(res.job_id)
        assert payload["analysis"] == "dc"
        from repro.analysis import dc_analysis
        from repro.netlist.parser import parse_netlist

        direct = dc_analysis(parse_netlist(DIVIDER).compile())
        np.testing.assert_array_equal(payload["x"], direct.x)

    def test_ac_and_transient_jobs(self, tmp_path):
        svc = open_service(tmp_path / "s")
        ac = svc.submit(
            RC, "ac",
            {"source": "V1", "f_start": 1e3, "f_stop": 1e8, "n_points": 7},
        )
        tr = svc.submit(RC, "transient", {"t_stop": 2e-6, "dt": 1e-8})
        assert ac.state == "queued" and tr.state == "queued"
        svc.drain()
        ac_payload = svc.result(ac.job_id)
        assert ac_payload["freqs"].shape == (7,)
        assert ac_payload["X"].shape[1] == 7  # X[:, k] per frequency
        assert np.iscomplexobj(ac_payload["X"])
        tr_payload = svc.result(tr.job_id)
        assert tr_payload["t"][-1] == pytest.approx(2e-6, rel=1e-6)

    def test_resubmission_is_a_cache_hit_with_zero_solves(self, tmp_path):
        svc = open_service(tmp_path / "s")
        first = svc.submit(RC, "dc")
        svc.drain()
        with using(Tracer()) as tracer:
            again = svc.submit(RC, "dc")
            summary = tracer.summary_since()
        assert again.state == "done" and again.cached
        assert again.key == first.key
        assert "serve.solve" not in summary["spans"]
        assert summary["events"].get("serve.cache_hit") == 1
        np.testing.assert_array_equal(
            svc.result(again.job_id)["x"], svc.result(first.job_id)["x"]
        )

    def test_identical_inflight_job_is_deduped(self, tmp_path):
        svc = open_service(tmp_path / "s")
        first = svc.submit(RC, "dc")
        second = svc.submit(RC, "dc")
        assert second.state == "deduped"
        assert second.job_id == first.job_id
        assert len(svc.status()) == 1

    def test_reopen_preserves_state(self, tmp_path):
        root = tmp_path / "s"
        svc = open_service(root)
        res = svc.submit(RC, "dc")
        svc.drain()
        svc2 = open_service(root)
        assert svc2.status(res.job_id)["state"] == "done"
        assert svc2.result(res.job_id) is not None


# -- retry ladder / dead letter -----------------------------------------


class TestRetryDeadLetter:
    def test_transient_fault_retries_to_done(self, tmp_path):
        chaos = Chaos(
            tmp_path / "chaos",
            jobs={"rc lowpass": ChaosSpec(kind="error", times=1)},
        )
        svc = open_service(tmp_path / "s", backoff_base=0.01)
        res = svc.submit(RC, "dc")
        with chaos_scope(chaos):
            svc.drain()
        rec = svc.status(res.job_id)
        assert rec["state"] == "done"
        assert rec["attempts"] == 2
        assert chaos.count("jobs", "rc lowpass") == 2

    def test_poison_job_goes_to_dead_letter(self, tmp_path):
        svc = open_service(tmp_path / "s", max_retries=1, backoff_base=0.01)
        res = svc.submit(RC, "ac", POISON_PARAMS, label="poison")
        assert res.state == "queued"  # lints clean: poison is a runtime fact
        svc.drain()
        rec = svc.status(res.job_id)
        assert rec["state"] == "dead"
        assert rec["attempts"] == 2  # initial + max_retries
        assert "VXX" in rec["failure_cause"]
        quarantine = tmp_path / "s" / "dead" / f"{res.job_id}.json"
        assert quarantine.exists()
        assert json.loads(quarantine.read_text())["job_id"] == res.job_id

    def test_requeue_dead_runs_again(self, tmp_path):
        chaos = Chaos(
            tmp_path / "chaos",
            # attempts 1+2 fail (the whole retry budget); attempt 3 —
            # which only a requeue can grant — runs clean
            jobs={"rc lowpass": ChaosSpec(kind="error", times=2)},
        )
        svc = open_service(tmp_path / "s", max_retries=1, backoff_base=0.01)
        res = svc.submit(RC, "dc")
        with chaos_scope(chaos):
            svc.drain()
            assert svc.status(res.job_id)["state"] == "dead"
            requeued = svc.requeue_dead()
            assert requeued == [res.job_id]
            assert not (tmp_path / "s" / "dead" / f"{res.job_id}.json").exists()
            svc.drain()
        rec = svc.status(res.job_id)
        assert rec["state"] == "done"
        assert rec["requeues"] == 1


# -- lease recovery -----------------------------------------------------


class TestLeaseRecovery:
    def _submit_one(self, root, **cfg):
        svc = open_service(root, **cfg)
        res = svc.submit(RC, "dc")
        return svc, res

    def test_dead_owner_pid_reclaims_immediately(self, tmp_path):
        svc, res = self._submit_one(tmp_path / "s", lease_ttl=3600.0)
        q = svc.queue
        assert q.try_lease(res.job_id, "w-dead")
        q.record_running(res.job_id, "w-dead")
        # rewrite the lease as owned by a PID that cannot exist
        lease = tmp_path / "s" / "leases" / f"{res.job_id}.lease"
        lease.write_text(json.dumps(
            {"job": res.job_id, "worker": "w-dead", "pid": 2 ** 22 + 17,
             "attempt": 1}
        ))
        reclaimed = q.reclaim_expired()
        assert reclaimed == [res.job_id]
        rec = svc.status(res.job_id)
        assert rec["state"] == "queued"
        assert rec["lease_reclaimed"] == 1
        assert svc.drain() == 1
        assert svc.status(res.job_id)["state"] == "done"

    def test_stale_heartbeat_reclaims(self, tmp_path):
        svc, res = self._submit_one(tmp_path / "s", lease_ttl=0.2)
        q = svc.queue
        assert q.try_lease(res.job_id, "w-hung")
        # owner pid is alive (it is us) but the heartbeat goes silent
        lease = tmp_path / "s" / "leases" / f"{res.job_id}.lease"
        old = time.time() - 5.0
        os.utime(lease, (old, old))
        assert q.reclaim_expired() == [res.job_id]
        assert svc.status(res.job_id)["lease_reclaimed"] == 1

    def test_running_job_with_no_lease_is_reclaimed(self, tmp_path):
        # models a worker that died between dropping its lease and
        # appending the outcome event
        svc, res = self._submit_one(tmp_path / "s", lease_ttl=3600.0)
        q = svc.queue
        assert q.try_lease(res.job_id, "w-gone")
        q.record_running(res.job_id, "w-gone")
        q.release_lease(res.job_id)
        assert q.reclaim_expired() == [res.job_id]
        assert svc.status(res.job_id)["state"] == "queued"

    def test_second_claim_loses(self, tmp_path):
        svc, res = self._submit_one(tmp_path / "s")
        q = svc.queue
        assert q.try_lease(res.job_id, "w1") is True
        assert q.try_lease(res.job_id, "w2") is False

    def test_repeated_worker_death_dead_letters(self, tmp_path):
        svc, res = self._submit_one(
            tmp_path / "s", lease_ttl=3600.0, max_retries=1
        )
        q = svc.queue
        for _ in range(2):  # attempts 1 and 2 both die ownerless
            assert q.try_lease(res.job_id, "w-doomed")
            q.record_running(res.job_id, "w-doomed")
            q.release_lease(res.job_id)
            q.reclaim_expired()
        rec = svc.status(res.job_id)
        assert rec["state"] == "dead"
        assert "died repeatedly" in rec["failure_cause"]


# -- the acceptance scenario --------------------------------------------


class TestServiceChaos:
    def test_sigkill_and_torn_wal_recover_exactly_once(self, tmp_path):
        """2 workers, 20 jobs, SIGKILL one worker mid-solve, tear the
        WAL's final line; after restart every valid job is done with
        exactly one recorded result, bit-identical to a fault-free
        serial run, and full resubmission costs zero solves."""
        root = tmp_path / "s"
        state = tmp_path / "chaos"
        # high TTL: recovery must come from dead-PID detection, not the
        # clock — the surviving worker may not out-wait a 30 s lease
        svc = open_service(root, lease_ttl=30.0, max_retries=2,
                           backoff_base=0.01)
        netlists = [rc_variant(i) for i in range(19)]
        hang_net = rc_variant(50) + "* marker-hang\n"
        submitted = [svc.submit(hang_net, "dc", label="hangjob")]
        submitted += [
            svc.submit(n, "dc", label=f"j{i}") for i, n in enumerate(netlists)
        ]
        assert all(s.state == "queued" for s in submitted)

        # first execution of the marked job hangs "forever"
        chaos = Chaos(
            state,
            jobs={"marker-hang": ChaosSpec(kind="hang", duration=600.0, times=1)},
        )
        with chaos_scope(chaos):
            procs = svc.spawn_workers(2, max_seconds=120)
            # wait until some worker is visibly stuck on the hang job: the
            # WAL says "running" before the worker reaches the chaos hook,
            # so also wait for the hook to have counted this occurrence —
            # a kill in between would leave the replay to hang instead
            victim = None
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                rec = svc.status(submitted[0].job_id)
                if (rec and rec["state"] == "running" and rec["worker"]
                        and chaos.count("jobs", "marker-hang") >= 1):
                    victim = int(rec["worker"].lstrip("w"))
                    break
                time.sleep(0.05)
            assert victim is not None, "hang job never started running"
            # SIGKILL mid-solve, and reap so the PID is really gone
            os.kill(procs[victim].pid, signal.SIGKILL)
            procs[victim].join(timeout=10)
            assert svc.wait(timeout=90), f"not drained: {svc.summary()}"
            for p in procs:
                p.join(timeout=30)

        rec = svc.status(submitted[0].job_id)
        assert rec["state"] == "done"
        assert rec["lease_reclaimed"] >= 1
        assert chaos.count("jobs", "marker-hang") == 2  # killed once, replayed

        # now tear the WAL's final line and restart the service
        assert tear_final_line(root / "wal.jsonl") > 0
        svc2 = open_service(root)
        svc2.drain()
        states = [r["state"] for r in svc2.status()]
        assert states.count("done") == 20

        # exactly one recorded result per job (write-once store)
        keys = {s.key for s in submitted}
        assert sorted(svc2.queue.store.keys()) == sorted(keys)

        # bit-identical to a fault-free serial run in a fresh root
        ref = open_service(tmp_path / "ref")
        ref_jobs = [ref.submit(hang_net, "dc")]
        ref_jobs += [ref.submit(n, "dc") for n in netlists]
        ref.drain()
        for got, want in zip(submitted, ref_jobs):
            a = svc2.queue.store.get(got.key)
            b = ref.queue.store.get(want.key)
            np.testing.assert_array_equal(a["x"], b["x"])
            assert a["node_names"] == b["node_names"]

        # resubmitting the whole batch: zero solves, 100% cache hits
        with using(Tracer()) as tracer:
            again = [svc2.submit(hang_net, "dc")]
            again += [svc2.submit(n, "dc") for n in netlists]
            summary = tracer.summary_since()
        assert all(a.state == "done" and a.cached for a in again)
        assert "serve.solve" not in summary["spans"]
        assert summary["events"].get("serve.cache_hit") == 20

    def test_worker_crash_chaos_recovers(self, tmp_path):
        """A chaos 'crash' (os._exit in the worker) on one job: the
        batch still completes via lease reclaim on a fresh attempt."""
        root = tmp_path / "s"
        svc = open_service(root, lease_ttl=2.0, max_retries=2,
                           backoff_base=0.01)
        crashy = rc_variant(60) + "* marker-crash\n"
        cj = svc.submit(crashy, "dc", label="crashy")
        rest = [svc.submit(rc_variant(i), "dc") for i in range(5)]
        chaos = Chaos(
            tmp_path / "chaos",
            jobs={"marker-crash": ChaosSpec(kind="crash", times=1)},
        )
        with chaos_scope(chaos):
            procs = svc.spawn_workers(2, max_seconds=60)
            assert svc.wait(timeout=60), f"not drained: {svc.summary()}"
            for p in procs:
                p.join(timeout=30)
        rec = svc.status(cj.job_id)
        assert rec["state"] == "done"
        assert rec["lease_reclaimed"] >= 1
        assert all(svc.status(r.job_id)["state"] == "done" for r in rest)

    def test_disk_full_on_submit_fails_loudly(self, tmp_path):
        chaos = Chaos(
            tmp_path / "chaos",
            log={"append": ChaosSpec(kind="disk_full", times=1)},
        )
        svc = open_service(tmp_path / "s")
        with chaos_scope(chaos):
            with pytest.raises(WALError):
                svc.submit(RC, "dc")
            res = svc.submit(RC, "dc")  # schedule spent: succeeds
        assert res.state == "queued"
        svc.drain()
        assert svc.status(res.job_id)["state"] == "done"

    def test_torn_submit_event_is_not_a_job(self, tmp_path):
        chaos = Chaos(
            tmp_path / "chaos",
            log={"append": ChaosSpec(kind="torn", times=1)},
        )
        svc = open_service(tmp_path / "s")
        with chaos_scope(chaos):
            ghost = svc.submit(RC, "dc")
        # the submitted event was torn: not durably enqueued
        assert svc.status(ghost.job_id) is None
        res = svc.submit(RC, "dc")  # resubmission enqueues cleanly
        assert res.state == "queued"
        svc.drain()
        assert svc.status(res.job_id)["state"] == "done"


# -- CLI ----------------------------------------------------------------


class TestServeCLI:
    def _write_netlist(self, tmp_path, text=RC):
        path = tmp_path / "net.cir"
        path.write_text(text)
        return str(path)

    def test_submit_status_drain_result(self, tmp_path, capsys):
        from repro.serve.__main__ import main

        root = str(tmp_path / "s")
        net = self._write_netlist(tmp_path)
        assert main(["submit", root, net, "--analysis", "dc"]) == 0
        job_id = capsys.readouterr().out.split(":")[0]
        assert main(["drain", root]) == 0
        assert main(["status", root]) == 0
        assert "done" in capsys.readouterr().out
        assert main(["result", root, job_id]) == 0
        assert "array" in capsys.readouterr().out
        assert main(["status", root, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["states"] == {"done": 1}

    def test_submit_rejected_exits_nonzero(self, tmp_path, capsys):
        from repro.serve.__main__ import main

        root = str(tmp_path / "s")
        net = self._write_netlist(tmp_path, BROKEN)
        assert main(["submit", root, net]) == 1
        assert "PARSE_ERROR" in capsys.readouterr().out

    def test_drain_with_dead_job_exits_nonzero_then_requeue(
        self, tmp_path, capsys
    ):
        from repro.serve.__main__ import main

        root = str(tmp_path / "s")
        net = self._write_netlist(tmp_path)
        assert main([
            "submit", root, net, "--analysis", "ac",
            "--param", "source=VXX", "--param", "freqs=[1e3]",
            "--max-retries", "0",
        ]) == 0
        assert main(["drain", root, "--max-retries", "0"]) == 1
        assert main(["requeue-dead", root]) == 0
        assert "requeued 1" in capsys.readouterr().out

    def test_param_parsing(self):
        from repro.serve.__main__ import _parse_param

        assert _parse_param("source=V1") == ("source", "V1")
        assert _parse_param("f_start=1e3") == ("f_start", 1e3)
        assert _parse_param("freqs=[1.0,2.0]") == ("freqs", [1.0, 2.0])


# -- store durability (fsync / write-once / quarantine) -----------------


def _racing_put(root, key, barrier, out_q):
    """Child-process body for the two-process write-once race."""
    store = ResultStore(root)
    payload = {"x": np.arange(64.0)}
    barrier.wait()
    out_q.put(store.put(key, payload, meta={"writer": os.getpid()}))


class TestStoreDurability:
    def test_zero_length_pkl_is_a_miss_and_quarantined(self, tmp_path):
        """Regression: a power loss between create and write leaves a
        zero-length .pkl; pre-fix has() reported it as a cache hit
        forever, so the key could never be recomputed."""
        store = ResultStore(tmp_path / "res")
        store.put("deadbeef", {"x": 1})
        pkl = os.path.join(store.root, "de", "deadbeef.pkl")
        with open(pkl, "wb"):
            pass  # truncate to zero bytes
        assert store.has("deadbeef") is False
        assert store.get("deadbeef") is None
        assert not os.path.exists(pkl)  # quarantined, not left to rot
        # the key is free again: a resubmission records a fresh result
        assert store.put("deadbeef", {"x": 1}) is True
        assert store.get("deadbeef") == {"x": 1}

    def test_power_loss_torn_artifact_recomputes_bit_identical(self, tmp_path):
        """Craft the exact pre-fix artifact — half a payload under the
        final name with a sidecar recording the full checksum — and
        prove the service recomputes through it."""
        svc = open_service(tmp_path / "s", backoff_base=0.01)
        res = svc.submit(RC, "dc")
        svc.drain()
        good = svc.queue.store.get(res.key)
        pkl, meta = svc.queue.store._paths(res.key)
        blob = open(pkl, "rb").read()
        with open(pkl, "wb") as fh:
            fh.write(blob[: len(blob) // 2])  # torn payload, intact sidecar
        # resubmission must not trust the torn entry: it recomputes
        res2 = svc.submit(RC, "dc")
        assert res2.state == "queued", "torn entry was served as a cache hit"
        svc.drain()
        again = svc.queue.store.get(res.key)
        np.testing.assert_array_equal(again["x"], good["x"])
        corrupt = os.listdir(os.path.join(svc.queue.store.root, "corrupt"))
        assert any(name.startswith(res.key) for name in corrupt)

    def test_concurrent_two_process_put_single_winner(self, tmp_path):
        """os.link arbitration: two processes racing one key get exactly
        one winner, and the surviving entry verifies."""
        import multiprocessing as mp

        root = str(tmp_path / "res")
        ResultStore(root)  # create the directory before forking
        key = "ab" + "0" * 62
        ctx = mp.get_context()
        barrier = ctx.Barrier(2)
        out_q = ctx.Queue()
        procs = [
            ctx.Process(target=_racing_put, args=(root, key, barrier, out_q))
            for _ in range(2)
        ]
        for p in procs:
            p.start()
        results = [out_q.get(timeout=30) for _ in procs]
        for p in procs:
            p.join(timeout=30)
        assert sorted(results) == [False, True]  # exactly one winner
        store = ResultStore(root)
        got = store.get(key)  # verifies sha (and quarantines if torn)
        np.testing.assert_array_equal(got["x"], np.arange(64.0))
        meta = store.get_meta(key)
        assert meta["sha256"]  # sidecar consistent with the blob

    def test_chaos_torn_put_retries_to_done(self, tmp_path):
        """A put torn mid-write (power-loss model) raises; the retry
        ladder quarantines the damage and the next attempt records a
        clean result."""
        chaos = Chaos(
            tmp_path / "chaos",
            store={"put": ChaosSpec(kind="torn", times=1)},
        )
        svc = open_service(tmp_path / "s", backoff_base=0.01, max_retries=2)
        res = svc.submit(RC, "dc")
        with chaos_scope(chaos):
            svc.drain()
        rec = svc.status(res.job_id)
        assert rec["state"] == "done"
        assert rec["attempts"] == 2  # torn put burned one attempt
        assert chaos.count("store", "put") >= 2
        assert svc.queue.store.get(res.key) is not None

    def test_crash_mid_put_never_publishes(self, tmp_path):
        """SIGKILL between the fsync'd temp write and publication: the
        final name must not exist, and a resubmission recomputes a
        bit-identical result (the acceptance scenario)."""
        chaos = Chaos(
            tmp_path / "chaos",
            store={"put": ChaosSpec(kind="crash", times=1, exit_code=86)},
        )
        svc = open_service(tmp_path / "s", lease_ttl=30.0, max_retries=2,
                           backoff_base=0.01)
        res = svc.submit(RC, "dc")
        with chaos_scope(chaos):
            procs = svc.spawn_workers(1, max_seconds=60)
            procs[0].join(timeout=60)
            # the worker died inside put(): no published payload, and
            # has() must not be fooled by any leftovers
            pkl, _ = svc.queue.store._paths(res.key)
            assert not os.path.exists(pkl)
            assert svc.queue.store.has(res.key) is False
            # recovery: reclaim the dead worker's lease and drain inline
            svc.recover()
            svc.drain()
        rec = svc.status(res.job_id)
        assert rec["state"] == "done"
        got = svc.queue.store.get(res.key)
        # bit-identical to a fault-free run in a fresh root
        ref = open_service(tmp_path / "ref")
        ref_res = ref.submit(RC, "dc")
        ref.drain()
        want = ref.queue.store.get(ref_res.key)
        np.testing.assert_array_equal(got["x"], want["x"])
        assert got["node_names"] == want["node_names"]

    def test_atomic_write_bytes_never_leaves_partial(self, tmp_path):
        path = tmp_path / "f.bin"
        atomic = __import__("repro.serve.store", fromlist=["atomic_write_bytes"])
        atomic.atomic_write_bytes(str(path), b"x" * 1000)
        assert path.read_bytes() == b"x" * 1000
        atomic.atomic_write_bytes(str(path), b"y" * 10)
        assert path.read_bytes() == b"y" * 10
        # no stray temp files left behind
        assert [p.name for p in tmp_path.iterdir()] == ["f.bin"]


# -- lease staleness vs clock steps -------------------------------------


class TestLeaseClockHardening:
    def _leased_job(self, tmp_path, **cfg):
        svc = open_service(tmp_path / "s", **cfg)
        res = svc.submit(RC, "dc")
        q = svc.queue
        assert q.try_lease(res.job_id, "w-live")
        q.record_running(res.job_id, "w-live")
        lease = tmp_path / "s" / "leases" / f"{res.job_id}.lease"
        return svc, res, q, lease

    def test_future_mtime_lease_is_fresh(self, tmp_path):
        """A lease touched 'in the future' (clock stepped back under a
        live worker) has age 0, not a huge negative number that later
        arithmetic could misread — it is simply not stale."""
        svc, res, q, lease = self._leased_job(tmp_path, lease_ttl=0.2)
        future = time.time() + 3600.0
        os.utime(lease, (future, future))
        assert q.reclaim_expired() == []
        assert svc.status(res.job_id)["state"] == "running"

    def test_clock_step_blocks_ttl_reclaim_of_live_owner(self, tmp_path):
        """With a visible wall-vs-monotonic step, TTL expiry alone must
        not reclaim: the owner (this process) is alive, so the lease
        survives even though its age exceeds the TTL."""
        svc, res, q, lease = self._leased_job(tmp_path, lease_ttl=0.2)
        old = time.time() - 50.0
        os.utime(lease, (old, old))
        # sanity: without a step this lease would be reclaimed
        assert abs(q.clock_step()) < 1.0
        # simulate a 100 s backward NTP step since open
        q._clock_anchor = (q._clock_anchor[0] + 100.0, q._clock_anchor[1])
        assert abs(q.clock_step()) > 99.0
        assert q.reclaim_expired() == []
        assert svc.status(res.job_id)["state"] == "running"

    def test_clock_step_still_reclaims_dead_owner(self, tmp_path):
        """The dead-PID fast path is step-proof: a provably dead owner
        loses its lease no matter what the wall clock did."""
        svc, res, q, lease = self._leased_job(tmp_path, lease_ttl=0.2)
        lease.write_text(json.dumps(
            {"job": res.job_id, "worker": "w-dead", "pid": 2 ** 22 + 19,
             "attempt": 1}
        ))
        old = time.time() - 50.0
        os.utime(lease, (old, old))
        q._clock_anchor = (q._clock_anchor[0] + 100.0, q._clock_anchor[1])
        assert q.reclaim_expired() == [res.job_id]
        assert svc.status(res.job_id)["state"] == "queued"

    def test_no_step_ttl_reclaim_still_works(self, tmp_path):
        """The hardening must not break the plain hung-worker case:
        silent heartbeat + honest clock still reclaims."""
        svc, res, q, lease = self._leased_job(tmp_path, lease_ttl=0.2)
        old = time.time() - 5.0
        os.utime(lease, (old, old))
        assert q.reclaim_expired() == [res.job_id]


# -- result-store GC ----------------------------------------------------


class TestStoreGC:
    def _filled(self, tmp_path, n=4, now=1_000_000.0):
        """A store with n entries, oldest first (mtimes 1s apart)."""
        store = ResultStore(tmp_path / "res")
        keys = []
        for i in range(n):
            key = f"{i:02d}" + "e" * 62
            store.put(key, {"x": np.arange(128.0) + i})
            pkl, meta = store._paths(key)
            t = now - (n - i) * 10.0
            os.utime(pkl, (t, t))
            keys.append(key)
        return store, keys, now

    def test_max_bytes_evicts_lru_first(self, tmp_path):
        store, keys, now = self._filled(tmp_path)
        per = store.total_bytes() // 4
        stats = store.gc(max_bytes=2 * per + 10, now=now)
        assert stats["evicted_keys"] == keys[:2]  # oldest two go
        assert stats["bytes_after"] <= 2 * per + 10
        assert not stats["over_budget"]
        assert sorted(store.keys()) == sorted(keys[2:])
        # survivors still verify
        assert store.get(keys[3]) is not None

    def test_max_age_evicts_idle_entries(self, tmp_path):
        store, keys, now = self._filled(tmp_path)
        stats = store.gc(max_age=25.0, now=now)  # entries older than 25 s
        assert stats["evicted_keys"] == keys[:2]
        assert sorted(store.keys()) == sorted(keys[2:])

    def test_pinned_entries_survive_and_flag_over_budget(self, tmp_path):
        store, keys, now = self._filled(tmp_path)
        for key in keys:
            store.pin(key)
        stats = store.gc(max_bytes=1, now=now)
        assert stats["evicted"] == 0
        assert stats["kept_pinned"] == 4
        assert stats["over_budget"] is True
        store.unpin(keys[0])
        stats = store.gc(max_bytes=1, now=now)
        assert stats["evicted_keys"] == [keys[0]]

    def test_caller_pinned_set_protects(self, tmp_path):
        store, keys, now = self._filled(tmp_path)
        stats = store.gc(max_bytes=1, pinned={keys[0]}, now=now)
        assert keys[0] not in stats["evicted_keys"]
        assert keys[0] in list(store.keys())

    def test_verified_read_touches_lru_clock(self, tmp_path):
        store, keys, now = self._filled(tmp_path)
        assert store.get(keys[0]) is not None  # bumps mtime to real now
        stats = store.gc(max_bytes=store.total_bytes() // 2, now=now)
        assert keys[0] not in stats["evicted_keys"]

    def test_dry_run_plans_without_deleting(self, tmp_path):
        store, keys, now = self._filled(tmp_path)
        stats = store.gc(max_bytes=1, dry_run=True, now=now)
        assert stats["evicted"] == 4 and stats["dry_run"]
        assert sorted(store.keys()) == sorted(keys)  # nothing touched

    def test_orphan_meta_and_tmp_sweep_respects_grace(self, tmp_path):
        store, keys, now = self._filled(tmp_path)
        d = os.path.dirname(store._paths(keys[0])[0])
        old_meta = os.path.join(d, "ff" + "a" * 62 + ".json")
        open(old_meta, "w").write("{}")
        os.utime(old_meta, (now - 3600, now - 3600))
        young_tmp = os.path.join(d, ".tmp-inflight")
        open(young_tmp, "wb").write(b"x")  # fresh: an in-flight put
        stats = store.gc(now=now)
        assert stats["orphan_meta_removed"] == 1
        assert stats["tmp_removed"] == 0
        assert not os.path.exists(old_meta)
        assert os.path.exists(young_tmp)

    def test_gc_store_pins_inflight_job_keys(self, tmp_path):
        """A worker wrote its result but has not recorded done yet:
        that key is in flight and must survive any GC budget."""
        svc = open_service(tmp_path / "s")
        res = svc.submit(RC, "dc")
        q = svc.queue
        assert q.try_lease(res.job_id, "w1")
        q.record_running(res.job_id, "w1")
        q.store.put(res.key, {"x": np.arange(8.0)})
        stats = q.gc_store(max_bytes=1)
        assert stats["evicted"] == 0
        assert stats["over_budget"] is True
        assert q.store.has(res.key)
        # once the job settles, the same budget evicts it
        q.record_done(res.job_id, res.key, "w1", wall=0.0)
        q.release_lease(res.job_id)
        stats = q.gc_store(max_bytes=1)
        assert stats["evicted_keys"] == [res.key]

    def test_worker_runs_gc_opportunistically(self, tmp_path):
        """gc_max_bytes in the service config makes workers bound the
        store between jobs without any operator involvement."""
        svc = open_service(tmp_path / "s", gc_max_bytes=1, gc_every=1,
                           backoff_base=0.01)
        for i in range(3):
            svc.submit(rc_variant(i), "dc")
        svc.drain()
        assert all(r["state"] == "done" for r in svc.status())
        # the worker's between-jobs GC kept the store bounded: under the
        # (absurd) 1-byte budget every settled result is evicted; at most
        # the final job's own result can linger until the next GC pass
        assert len(svc.queue.store) <= 1

    def test_gc_cli(self, tmp_path, capsys):
        from repro.serve.__main__ import main

        root = str(tmp_path / "s")
        svc = open_service(root)
        svc.submit(RC, "dc")
        svc.drain()
        assert main(["gc", root, "--max-bytes", "1", "--dry-run"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["dry_run"] is True and out["evicted"] == 1
        assert len(svc.queue.store) == 1  # dry run deleted nothing
        assert main(["gc", root, "--max-bytes", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["evicted"] == 1
        assert len(svc.queue.store) == 0

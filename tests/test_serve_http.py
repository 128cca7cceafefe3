"""HTTP front-end + client: admission, auth, backpressure, chaos.

Exercises ``repro.serve.http`` / ``repro.serve.client`` end to end over
real loopback sockets — submit→poll→result round trips, bearer auth,
429 backpressure that sheds load without losing accepted jobs, verified
byte-serving of results, HTTP chaos (dropped connections, torn
responses, hangs, slow-loris bodies), kept-alive connections (one per
client thread and process, idle close, early answers that close), and
the GC endpoint — and locks
down the acceptance scenario: N concurrent clients submitting an
overlapping job set get every job solved exactly once, bit-identical
to a serial run.

The CI ``serve-http-smoke`` job runs this file.
"""

import json
import os
import pickle
import socket
import sys
import threading
import time

import numpy as np
import pytest

from repro.robust import Chaos, ChaosSpec, chaos_scope
from repro.serve import (
    ServeClient,
    ServeClientError,
    ServeHTTPServer,
    ServeResultError,
    ServiceConfig,
    open_service,
    serve_http,
)

RC = """rc lowpass
V1 in 0 SIN(0 1 1e6)
R1 in out 1k
C1 out 0 1n
.end
"""

BROKEN = "broken netlist\nR1 only\n.end\n"


def rc_variant(i):
    return RC.replace("C1 out 0 1n", f"C1 out 0 {i + 1}n")


@pytest.fixture
def server(tmp_path):
    srv = ServeHTTPServer(tmp_path / "s").start_background()
    yield srv
    srv.close()


@pytest.fixture
def connect():
    """``ServeClient`` factory: every client it builds is closed at
    teardown (on the test's thread, the only one that used it)."""
    made = []

    def make(address, **kwargs):
        made.append(ServeClient(address, **kwargs))
        return made[-1]

    yield make
    for c in made:
        c.close()


@pytest.fixture
def client(server):
    with ServeClient(server.address, retries=4, backoff_base=0.01) as c:
        yield c


# -- basic round trips --------------------------------------------------


class TestEndpoints:
    def test_healthz_and_stats(self, server, client):
        h = client.healthz()
        assert h["ok"] and h["root"] == server.service.root
        st = client.server_stats()
        assert st["summary"]["jobs"] == 0
        assert st["queue_depth"] == 0
        assert "store_bytes" in st["summary"]
        assert st["http"]["requests"] >= 1

    def test_submit_drain_result_roundtrip(self, server, client):
        v = client.submit(RC, "dc")
        assert v["state"] == "queued"
        server.service.drain()
        rec = client.wait(v["job_id"], timeout=30)
        assert rec["state"] == "done"
        payload = client.result(v["job_id"])
        # bit-identical to a direct (no-HTTP) run in a fresh root
        ref = open_service(server.service.root + "-ref")
        ref_res = ref.submit(RC, "dc")
        ref.drain()
        want = ref.queue.store.get(ref_res.key)
        np.testing.assert_array_equal(payload["x"], want["x"])
        assert payload["node_names"] == want["node_names"]

    def test_resubmit_is_cache_hit(self, server, client):
        v = client.submit(RC, "dc")
        server.service.drain()
        v2 = client.submit(RC, "dc")
        assert v2["state"] == "done" and v2["cached"] is True
        assert server.counters["cache_hits"] == 1

    def test_identical_inflight_submission_dedupes(self, server, client):
        v1 = client.submit(RC, "dc")
        v2 = client.submit(RC, "dc")
        assert v2["state"] == "deduped"
        assert v2["job_id"] == v1["job_id"]
        assert server.counters["deduped"] == 1

    def test_rejection_carries_diagnostics(self, server, client):
        v = client.submit(BROKEN, "dc")
        assert v["state"] == "rejected"
        assert any("PARSE_ERROR" in str(d) for d in v["diagnostics"])
        with pytest.raises(ServeClientError) as err:
            client.submit_and_wait(BROKEN, "dc")
        assert err.value.status == 422

    def test_unknown_job_and_result_404(self, server, client):
        assert client.status("job-nope") is None
        with pytest.raises(ServeClientError) as err:
            client.result_blob("0" * 64)
        assert err.value.status == 404
        with pytest.raises(ServeClientError) as err:
            client.result_blob("not-a-key")
        assert err.value.status == 404

    def test_malformed_submissions_400(self, server, client):
        for body in (
            {"analysis": "dc"},             # no netlist
            {"netlist": RC},                # no analysis
            {"netlist": 42, "analysis": "dc"},
            {"netlist": RC, "analysis": "dc", "params": "nope"},
        ):
            status, doc = client._json("POST", "/jobs", body)
            assert status == 400, doc
        # non-JSON body
        status, doc = client._json("GET", "/jobs")
        assert status == 200

    def test_method_not_allowed_405(self, server, client):
        status, _ = client._json("POST", "/healthz", {})
        assert status == 405

    def test_submit_and_wait_convenience(self, server, client):
        procs = server.service.spawn_workers(1, until_drained=False,
                                             max_seconds=30)
        try:
            payload = client.submit_and_wait(RC, "dc", timeout=30)
            assert "x" in payload
        finally:
            for p in procs:
                p.terminate()
                p.join(timeout=10)

    def test_oversized_body_413(self, tmp_path, connect):
        srv = ServeHTTPServer(tmp_path / "s", max_body=1024).start_background()
        try:
            c = connect(srv.address, retries=0)
            status, doc = c._json(
                "POST", "/jobs",
                {"netlist": "x" * 4096, "analysis": "dc"},
            )
            assert status == 413
        finally:
            srv.close()


# -- auth ---------------------------------------------------------------


class TestAuth:
    def test_token_required_when_configured(self, tmp_path, monkeypatch, connect):
        monkeypatch.delenv("REPRO_SERVE_TOKEN", raising=False)
        srv = ServeHTTPServer(tmp_path / "s", token="hunter2").start_background()
        try:
            anon = connect(srv.address, token=None, retries=0)
            # healthz stays open for load balancers
            assert anon.healthz()["ok"]
            with pytest.raises(ServeClientError) as err:
                anon.submit(RC, "dc")
            assert err.value.status == 401
            with pytest.raises(ServeClientError) as err:
                anon.server_stats()
            assert err.value.status == 401
            assert srv.counters["unauthorized"] >= 2

            wrong = connect(srv.address, token="guess", retries=0)
            with pytest.raises(ServeClientError):
                wrong.submit(RC, "dc")

            good = connect(srv.address, token="hunter2", retries=0)
            assert good.submit(RC, "dc")["state"] == "queued"
        finally:
            srv.close()

    def test_token_from_environment(self, tmp_path, monkeypatch, connect):
        monkeypatch.setenv("REPRO_SERVE_TOKEN", "envsecret")
        srv = ServeHTTPServer(tmp_path / "s").start_background()
        try:
            assert srv.token == "envsecret"
            c = connect(srv.address, retries=0)  # picks up the env too
            assert c.submit(RC, "dc")["state"] == "queued"
        finally:
            srv.close()


# -- backpressure -------------------------------------------------------


class TestBackpressure:
    def test_429_past_high_water_then_recovers(self, tmp_path, connect):
        srv = ServeHTTPServer(tmp_path / "s", high_water=2).start_background()
        try:
            c = connect(srv.address, retries=0, backoff_base=0.01)
            accepted = [c.submit(rc_variant(i), "dc") for i in range(2)]
            assert all(v["state"] == "queued" for v in accepted)
            # backlog is at the mark: the next submission is shed
            with pytest.raises(ServeClientError) as err:
                c.submit(rc_variant(7), "dc")
            assert err.value.status == 429
            assert srv.counters["throttled"] == 1
            # accepted jobs were not lost to the 429
            srv.service.drain()
            for v in accepted:
                assert c.status(v["job_id"])["state"] == "done"
            # backlog drained: the shed job is admitted on retry
            assert c.submit(rc_variant(7), "dc")["state"] == "queued"
        finally:
            srv.close()

    def test_retry_after_header_present(self, tmp_path, connect):
        srv = ServeHTTPServer(
            tmp_path / "s", high_water=1, retry_after=3.5
        ).start_background()
        try:
            c = connect(srv.address, retries=0)
            c.submit(rc_variant(0), "dc")
            import urllib.error
            import urllib.request

            req = urllib.request.Request(
                srv.address + "/jobs",
                data=json.dumps(
                    {"netlist": rc_variant(1), "analysis": "dc"}
                ).encode(),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(req, timeout=10)
            err.value.close()  # the error holds the response's socket
            assert err.value.code == 429
            assert float(err.value.headers["Retry-After"]) == 3.5
        finally:
            srv.close()

    def test_client_waits_out_backpressure(self, tmp_path, connect):
        """With retries in hand, the client sleeps the Retry-After hint
        and lands the job once workers free the backlog."""
        srv = ServeHTTPServer(
            tmp_path / "s", high_water=1, retry_after=0.05
        ).start_background()
        procs = []
        try:
            c = connect(srv.address, retries=8, backoff_base=0.02)
            first = c.submit(rc_variant(0), "dc")
            procs = srv.service.spawn_workers(1, until_drained=False,
                                              max_seconds=60)
            second = c.submit(rc_variant(1), "dc")  # retries through 429s
            assert second["state"] in ("queued", "done")
            assert c.wait(first["job_id"], timeout=30)["state"] == "done"
            assert c.wait(second["job_id"], timeout=30)["state"] == "done"
            assert c.stats["throttled"] >= 0  # may or may not have hit 429
        finally:
            for p in procs:
                p.terminate()
                p.join(timeout=10)
            srv.close()


# -- results over the wire ----------------------------------------------


class TestResultTransport:
    def test_blob_headers_verify(self, server, client):
        v = client.submit(RC, "dc")
        server.service.drain()
        key = client.wait(v["job_id"], timeout=30)["key"]
        blob, headers = client.result_blob(key)
        import hashlib

        assert headers["X-Repro-Sha256"] == hashlib.sha256(blob).hexdigest()
        payload = pickle.loads(blob)
        assert "x" in payload

    def test_mac_headers_when_keyed(self, tmp_path, monkeypatch, connect):
        monkeypatch.delenv("REPRO_SWEEP_CHECKPOINT_KEY", raising=False)
        monkeypatch.setenv("REPRO_SERVE_RESULT_KEY", "s3cret")
        srv = ServeHTTPServer(tmp_path / "s").start_background()
        try:
            c = connect(srv.address, retries=0)
            v = c.submit(RC, "dc")
            srv.service.drain()
            key = c.wait(v["job_id"], timeout=30)["key"]
            blob, headers = c.result_blob(key)  # client re-verifies MAC
            assert headers.get("X-Repro-Mac")
        finally:
            srv.close()


# -- HTTP chaos ---------------------------------------------------------


class TestHTTPChaos:
    def test_dropped_connection_is_retried(self, tmp_path, server, connect):
        chaos = Chaos(
            tmp_path / "chaos",
            http={"/jobs": ChaosSpec(kind="drop", times=2)},
        )
        c = connect(server.address, retries=4, backoff_base=0.01)
        with chaos_scope(chaos):
            v = c.submit(RC, "dc")
        assert v["state"] == "queued"
        assert c.stats["retries"] >= 2
        assert chaos.count("http", "/jobs") >= 2
        assert server.counters["chaos"] >= 2

    def test_torn_response_fails_verification_then_recovers(
        self, tmp_path, server, connect
    ):
        v = connect(server.address, retries=0).submit(RC, "dc")
        server.service.drain()
        key = server.service.status(v["job_id"])["key"]
        chaos = Chaos(
            tmp_path / "chaos",
            http={"/results/": ChaosSpec(kind="torn", times=1)},
        )
        c = connect(server.address, retries=4, backoff_base=0.01)
        with chaos_scope(chaos):
            blob, _ = c.result_blob(key)
        assert pickle.loads(blob)["x"] is not None
        # the torn attempt either died as a short read or failed the
        # checksum — both count as one consumed retry
        assert c.stats["requests"] >= 2

    def test_injected_500_is_surfaced(self, tmp_path, server, connect):
        chaos = Chaos(
            tmp_path / "chaos",
            http={"/stats": ChaosSpec(kind="error", times=1)},
        )
        c = connect(server.address, retries=0)
        with chaos_scope(chaos):
            with pytest.raises(ServeClientError) as err:
                c.server_stats()
            assert err.value.status == 500
            assert c.server_stats()["http"]["chaos"] == 1  # schedule spent

    def test_torn_result_exhausting_retries_raises_verify_error(
        self, tmp_path, server, connect
    ):
        v = connect(server.address, retries=0).submit(RC, "dc")
        server.service.drain()
        key = server.service.status(v["job_id"])["key"]
        chaos = Chaos(
            tmp_path / "chaos",
            http={"/results/": ChaosSpec(kind="torn", times=99)},
        )
        c = connect(server.address, retries=2, backoff_base=0.01)
        with chaos_scope(chaos):
            with pytest.raises(ServeResultError):
                c.result_blob(key)
        assert c.stats["verify_failures"] + c.stats["retries"] >= 2


# -- slow-loris guard ---------------------------------------------------


class TestSlowLoris:
    def test_dribbled_body_times_out_408(self, tmp_path):
        srv = ServeHTTPServer(
            tmp_path / "s", request_timeout=0.5
        ).start_background()
        try:
            host, port = srv.server_address[:2]
            with socket.create_connection((host, port), timeout=10) as sk:
                body = b'{"netlist": "x", "analysis": "dc"}'
                sk.sendall(
                    b"POST /jobs HTTP/1.1\r\n"
                    b"Host: t\r\nContent-Type: application/json\r\n"
                    + f"Content-Length: {len(body)}\r\n\r\n".encode()
                )
                sk.sendall(body[:4])  # dribble 4 bytes, then stall
                t0 = time.monotonic()
                sk.settimeout(10)
                data = b""
                while b"\r\n\r\n" not in data:
                    chunk = sk.recv(4096)
                    if not chunk:
                        break
                    data += chunk
            elapsed = time.monotonic() - t0
            assert b"408" in data.split(b"\r\n", 1)[0]
            assert elapsed < 8.0  # the guard fired near its 0.5 s budget
            assert srv.counters["timeouts"] == 1
        finally:
            srv.close()

    def test_fast_body_unaffected_by_guard(self, tmp_path, connect):
        srv = ServeHTTPServer(
            tmp_path / "s", request_timeout=0.5
        ).start_background()
        try:
            c = connect(srv.address, retries=0)
            assert c.submit(RC, "dc")["state"] == "queued"
        finally:
            srv.close()


# -- connection model ---------------------------------------------------


def _fork_healthz(client, out):
    out.put(client.healthz()["pid"])


class TestConnections:
    """One kept-alive connection per client thread and process; the
    server closes idle connections and early answers, and ``close()``
    leaves no handler thread behind."""

    def test_one_thread_makes_one_connection(self, server, client):
        for _ in range(20):
            client.healthz()
        http = client.server_stats()["http"]
        assert http["connections"] == 1
        assert http["requests"] == 21

    def test_idle_close_is_resent_without_a_retry(self, tmp_path):
        srv = ServeHTTPServer(
            tmp_path / "s", request_timeout=0.2
        ).start_background()
        try:
            with ServeClient(srv.address, retries=0) as c:
                assert c.healthz()["ok"]
                time.sleep(1.0)  # the server closes the idle connection
                assert c.healthz()["ok"]
            assert c.stats["retries"] == 0
            assert srv.counters["connections"] == 2
        finally:
            srv.close()

    def test_threads_sharing_a_client_get_one_connection_each(
        self, server, client
    ):
        n_threads, n_calls = 4, 10
        barrier = threading.Barrier(n_threads)
        errors = []

        def calls():
            try:
                barrier.wait(timeout=30)
                for _ in range(n_calls):
                    client.healthz()
                barrier.wait(timeout=30)  # all connections open at once
                client.close()
            except Exception as exc:  # noqa: BLE001 - collected below
                errors.append(repr(exc))

        threads = [threading.Thread(target=calls) for _ in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        assert server.counters["connections"] == n_threads
        assert server.counters["requests"] == n_threads * n_calls

    def test_forked_child_opens_its_own_connection(self, server, client):
        import multiprocessing as mp

        assert client.healthz()["pid"] == os.getpid()
        ctx = mp.get_context("fork")
        out = ctx.Queue()
        child = ctx.Process(target=_fork_healthz, args=(client, out))
        child.start()
        got = out.get(timeout=30)
        child.join(timeout=30)
        assert not child.is_alive() and child.exitcode == 0
        assert got == os.getpid()  # answered by this process's server
        assert server.counters["connections"] == 2
        # the parent's connection was left alone and is still in use
        assert client.healthz()["ok"]
        assert server.counters["connections"] == 2

    def test_close_leaves_no_handler_thread(self, tmp_path):
        baseline = set(threading.enumerate())
        srv = ServeHTTPServer(tmp_path / "s").start_background()
        clients = [ServeClient(srv.address, retries=0) for _ in range(3)]
        for c in clients:
            c.healthz()  # three kept-alive connections, one handler each
        # the serving thread plus one handler per connection
        assert len(set(threading.enumerate()) - baseline) == 4
        t0 = time.monotonic()
        srv.close()
        for c in clients:
            c.close()
        assert time.monotonic() - t0 < srv.request_timeout / 2
        deadline = time.monotonic() + 1.0
        while set(threading.enumerate()) - baseline and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not set(threading.enumerate()) - baseline

    def test_idle_close_returns_promptly(self, tmp_path):
        # shutdown() waits for the serving loop's next poll, which
        # socketserver makes every 0.5 s by default
        srv = ServeHTTPServer(tmp_path / "s").start_background()
        time.sleep(0.1)  # the serving loop is inside its poll
        t0 = time.monotonic()
        srv.close()
        assert time.monotonic() - t0 < 0.2

    def test_client_close_and_context_manager(self, server):
        with ServeClient(server.address, retries=0) as c:
            c.healthz()
            c.close()
            c.healthz()
        assert server.counters["connections"] == 2

    @pytest.mark.parametrize(
        "token, path, headers, body, status",
        [
            # auth answers before the body is read (and never reads it)
            ("hunter2", "/jobs", {"Content-Type": "application/json"},
             json.dumps({"netlist": RC, "analysis": "dc"}).encode(), 401),
            # route miss: what curl -X POST -d '{}' .../healthz sends
            (None, "/healthz",
             {"Content-Type": "application/x-www-form-urlencoded"},
             b"{}", 405),
            # no Content-Length: the chunked body stays on the wire (sent
            # pre-encoded in one write, so it is all out before the 400)
            (None, "/jobs", {"Transfer-Encoding": "chunked"},
             b'11\r\n{"netlist": "x", \r\n11\r\n"analysis": "dc"}\r\n0\r\n\r\n',
             400),
        ],
        ids=["401", "405", "400-chunked"],
    )
    def test_early_answer_closes_the_connection(
        self, tmp_path, monkeypatch, token, path, headers, body, status
    ):
        """An answer sent before the request body was read closes the
        connection; otherwise the next request on it would be parsed
        out of the unread body bytes."""
        import http.client

        monkeypatch.delenv("REPRO_SERVE_TOKEN", raising=False)
        srv = ServeHTTPServer(tmp_path / "s", token=token).start_background()
        try:
            host, port = srv.server_address[:2]
            conn = http.client.HTTPConnection(host, port, timeout=10)
            try:
                conn.request("POST", path, body=body, headers=headers)
                resp = conn.getresponse()
                resp.read()
                assert resp.status == status
                assert resp.getheader("Connection") == "close"
                conn.request("GET", "/healthz")
                resp = conn.getresponse()
                assert json.loads(resp.read())["ok"]
                assert resp.status == 200
            finally:
                conn.close()
            assert srv.counters["connections"] == 2
        finally:
            srv.close()


# -- GC over HTTP -------------------------------------------------------


class TestGCEndpoint:
    def test_gc_endpoint_bounds_store(self, server, client):
        for i in range(3):
            client.submit(rc_variant(i), "dc")
        server.service.drain()
        before = client.server_stats()["summary"]["store_bytes"]
        assert before > 0
        plan = client.gc(max_bytes=1, dry_run=True)
        assert plan["dry_run"] and plan["evicted"] == 3
        assert client.server_stats()["summary"]["store_bytes"] == before
        stats = client.gc(max_bytes=1)
        assert stats["evicted"] == 3
        assert client.server_stats()["summary"]["store_bytes"] == 0
        assert server.counters["gc_runs"] == 2

    def test_gc_spares_inflight_jobs(self, server, client):
        client.submit(rc_variant(0), "dc")
        server.service.drain()
        v = client.submit(rc_variant(1), "dc")  # stays queued: no worker
        q = server.service.queue
        q.refresh()
        rec = q.jobs[v["job_id"]]
        q.store.put(rec.key, {"x": np.arange(4.0)})  # worker mid-crash state
        stats = client.gc(max_bytes=1)
        assert rec.key not in stats["evicted_keys"]
        assert q.store.has(rec.key)


# -- the acceptance scenario --------------------------------------------


class TestConcurrentClients:
    def test_n_clients_overlapping_jobs_exactly_once(self, tmp_path):
        """6 threads × 8 submissions over 8 distinct netlists (every
        job submitted by several clients at once), 2 worker processes:
        every job ends done, each distinct circuit is solved exactly
        once, and every client reads back bit-identical results."""
        srv = ServeHTTPServer(
            tmp_path / "s",
            config=ServiceConfig(backoff_base=0.01),
        ).start_background()
        procs = []
        try:
            distinct = [rc_variant(i) for i in range(8)]
            results = {}
            errors = []
            lock = threading.Lock()

            def one_client(seed):
                try:
                    with ServeClient(srv.address, retries=6, backoff_base=0.02) as c:
                        got = {}
                        for i, net in enumerate(distinct):
                            v = c.submit(net, "dc", label=f"c{seed}-j{i}")
                            assert v["state"] in ("queued", "deduped", "done"), v
                            got[i] = v
                        for i, v in got.items():
                            rec = c.wait(v["job_id"], timeout=90)
                            assert rec["state"] == "done", rec
                            blob, _ = c.result_blob(rec["key"])
                            with lock:
                                results.setdefault(i, []).append(blob)
                except Exception as exc:  # noqa: BLE001 - collected below
                    with lock:
                        errors.append(f"client {seed}: {exc!r}")

            threads = [
                threading.Thread(target=one_client, args=(s,)) for s in range(6)
            ]
            procs = srv.service.spawn_workers(2, until_drained=False,
                                              max_seconds=120)
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not errors, errors

            # every client saw bit-identical bytes per circuit
            assert sorted(results) == list(range(8))
            for i, blobs in results.items():
                assert len(blobs) == 6
                assert len({b for b in blobs}) == 1

            # exactly-once: one stored result per distinct circuit, and
            # exactly 8 non-cached done records across the whole table
            svc = srv.service
            solved = [
                r for r in svc.status()
                if r["state"] == "done" and not r["cached"]
            ]
            assert len(solved) == 8
            assert len(list(svc.queue.store.keys())) == 8
            st = srv.counters
            assert st["submitted"] == 8
            assert st["deduped"] + st["cache_hits"] == 6 * 8 - 8
        finally:
            for p in procs:
                p.terminate()
                p.join(timeout=10)
            srv.close()


# -- serve CLI ----------------------------------------------------------


class TestServeCLI:
    def test_serve_http_helper(self, tmp_path, connect):
        srv = serve_http(tmp_path / "s")
        try:
            assert connect(srv.address, retries=0).healthz()["ok"]
        finally:
            srv.close()

    def test_serve_subcommand_boots_and_answers(self, tmp_path, connect):
        import subprocess
        import sys

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src"),
             env.get("PYTHONPATH", "")]
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "serve",
             str(tmp_path / "s"), "--port", "0"],
            env=env, stdout=subprocess.PIPE, text=True,
        )
        try:
            banner = proc.stdout.readline()
            assert " at http://" in banner
            address = banner.split(" at ")[1].split(" ")[0]
            c = connect(address, retries=2, backoff_base=0.05)
            assert c.healthz()["ok"]
            assert c.submit(RC, "dc")["state"] == "queued"
        finally:
            proc.terminate()
            proc.wait(timeout=15)
            proc.stdout.close()

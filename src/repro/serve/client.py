"""Scripting client for the HTTP front-end (stdlib ``http.client`` only).

:class:`ServeClient` is the programmatic face of
:mod:`repro.serve.http`: submit, poll, fetch — with the retry/backoff a
real network deserves baked in, so exploration drivers
(:func:`repro.sensitivity.explore`-style corner sweeps firing thousands
of near-duplicate jobs) can treat the service as reliable even when
individual connections are not:

* each thread holds one persistent HTTP/1.1 connection, so a job's
  submit, polls and fetch pay for one TCP set-up, not one per request.
  A connection is dropped after any transport error, a short body or a
  response that says it will close, and the next request opens a new
  one.  A request that finds its *reused* connection closed before a
  status line arrives (the server closes connections idle for its
  ``request_timeout``) is sent again at once on a new connection,
  without spending the retry budget;
* transport failures (refused/reset/dropped connections, torn
  responses) retry on the deterministic-jitter exponential backoff
  ladder the rest of the stack uses
  (:func:`repro.perf.sweep.backoff_seconds` — no RNG, reproducible
  traffic shapes);
* **429 backpressure** is honoured, not fought: the client sleeps the
  server's ``Retry-After`` hint (capped by its own ladder) and
  resubmits — so a fleet of clients self-paces instead of stampeding;
* results arrive as pickle bytes and are **verified before unpickling**
  (SHA-256 from the ``X-Repro-Sha256`` header, HMAC when a key is
  configured via :data:`repro.serve.store.RESULT_KEY_ENV`) — a torn or
  tampered body is a retryable transport failure, never code
  execution.

The client is deliberately dependency-free and thread-safe: connections
are per thread (and per process, so a forked child never writes into
its parent's socket) and the only shared mutable state is the counters,
guarded by a lock, so N threads sharing one client model N design-flow
users sharing one service.
"""

from __future__ import annotations

import hashlib
import hmac
import http.client
import json
import os
import pickle
import threading
import time
import urllib.parse
from typing import Dict, Optional, Tuple

from ..perf.sweep import backoff_seconds
from .store import _mac_key

__all__ = ["ServeClient", "ServeClientError", "ServeResultError"]


class ServeClientError(RuntimeError):
    """The request could not be completed (after retries)."""

    def __init__(self, message: str, status: Optional[int] = None, body=None):
        super().__init__(message)
        self.status = status
        self.body = body


class ServeResultError(ServeClientError):
    """A result payload failed verification after all retries."""


def _salt(path: str) -> int:
    """Stable small int per path for decorrelated backoff jitter."""
    return sum(path.encode("utf-8")) % 997


class ServeClient:
    """One service endpoint, many reliable calls.

    Parameters
    ----------
    base_url:
        The server's ``http://host:port`` (``ServeHTTPServer.address``).
    token:
        Bearer token; defaults to ``$REPRO_SERVE_TOKEN``.
    retries:
        Transport-failure retry budget per request beyond the first
        attempt (429s share the same budget).
    backoff_base:
        Base seconds of the deterministic backoff ladder.
    timeout:
        Per-attempt socket timeout, seconds.

    Each calling thread keeps its own connection open between calls;
    :meth:`close` (or leaving a ``with`` block) closes the calling
    thread's connection.
    """

    def __init__(
        self,
        base_url: str,
        token: Optional[str] = None,
        retries: int = 5,
        backoff_base: float = 0.05,
        timeout: float = 30.0,
    ):
        self.base_url = base_url.rstrip("/")
        url = urllib.parse.urlsplit(self.base_url)
        if url.scheme != "http" or not url.hostname:
            raise ValueError(
                f"base_url must look like 'http://host:port', got {base_url!r}"
            )
        self._host, self._port, self._prefix = url.hostname, url.port, url.path
        if token is None:
            token = os.environ.get("REPRO_SERVE_TOKEN") or None
        self.token = token
        self.retries = int(retries)
        self.backoff_base = float(backoff_base)
        self.timeout = float(timeout)
        self._lock = threading.Lock()
        self._local = threading.local()
        self.stats: Dict[str, int] = {
            "requests": 0,
            "retries": 0,
            "throttled": 0,
            "verify_failures": 0,
        }

    def _bump(self, name: str, by: int = 1) -> None:
        with self._lock:
            self.stats[name] = self.stats.get(name, 0) + by

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Close the calling thread's connection; the next request on
        this thread opens a new one."""
        local = self._local
        if getattr(local, "pid", None) == os.getpid():
            local.conn.close()

    # -- transport -----------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        """The calling thread's connection object.  Its socket opens on
        the first request and again after each ``close()``."""
        local = self._local
        if getattr(local, "pid", None) != os.getpid():
            # none on this thread yet, or inherited across a fork: a
            # child never writes into its parent's socket
            local.conn = http.client.HTTPConnection(
                self._host, self._port, timeout=self.timeout
            )
            local.pid = os.getpid()
        return local.conn

    def _exchange(self, method: str, target: str, data, headers):
        """Send one request on the calling thread's connection and read
        the whole response; returns ``(status, headers, body bytes)``.

        Any failure closes the connection before it propagates.  A
        *reused* connection found closed before any answer is the
        server's idle close (after its ``request_timeout``), so the
        request goes out once more, at once, on a new connection.
        """
        conn = self._connection()
        try:
            reused = conn.sock is not None
            try:
                self._bump("requests")
                conn.request(method, target, body=data, headers=headers)
                resp = conn.getresponse()
            except ConnectionError:
                if not reused:
                    raise
                conn.close()
                self._bump("requests")
                conn.request(method, target, body=data, headers=headers)
                resp = conn.getresponse()
            # a response that says it will close has already dropped
            # the socket (http.client does so in getresponse)
            payload = resp.read()
            promised = resp.getheader("Content-Length")
            if promised is not None and len(payload) != int(promised):
                raise http.client.IncompleteRead(payload)
        except (http.client.HTTPException, OSError):
            conn.close()
            raise
        return resp.status, resp.headers, payload

    def _request(
        self, method: str, path: str, body: Optional[Dict] = None
    ) -> Tuple[int, Dict[str, str], bytes]:
        """One HTTP exchange with retry/backoff; returns
        ``(status, headers, body bytes)``.

        Retryable: connection-level failures (refused, reset, dropped
        mid-response, short reads) and 429.  Application statuses
        (2xx/4xx/5xx with a complete response) are returned to the
        caller — a 422 rejection is an answer, not a fault.
        """
        target = self._prefix + path
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        last_exc: Optional[Exception] = None
        for attempt in range(self.retries + 1):
            if attempt:
                self._bump("retries")
                time.sleep(
                    backoff_seconds(_salt(path), attempt, self.backoff_base)
                )
            try:
                status, resp_headers, payload = self._exchange(
                    method, target, data, headers
                )
            except (http.client.HTTPException, OSError) as exc:
                last_exc = exc
                continue
            if status == 429:
                self._bump("throttled")
                if attempt < self.retries:
                    self._sleep_retry_after(resp_headers, attempt, path)
                    continue
                raise ServeClientError(
                    "server backlogged (429) after retries",
                    status=429,
                    body=payload,
                )
            return status, dict(resp_headers), payload
        raise ServeClientError(
            f"{method} {path} failed after {self.retries + 1} attempt(s): "
            f"{last_exc!r}"
        )

    def _sleep_retry_after(self, headers, attempt: int, path: str) -> None:
        try:
            hint = float(headers.get("Retry-After", ""))
        except (TypeError, ValueError):
            hint = 0.0
        ladder = backoff_seconds(_salt(path), attempt + 1, self.backoff_base)
        # honour the server's pacing hint but never sleep past the
        # client's own ladder cap by more than the hint itself
        time.sleep(min(max(hint, ladder), max(hint, 1.0) + ladder))

    def _json(self, method: str, path: str, body: Optional[Dict] = None):
        status, _, payload = self._request(method, path, body)
        try:
            doc = json.loads(payload.decode("utf-8")) if payload else {}
        except ValueError:
            raise ServeClientError(
                f"{method} {path}: non-JSON response (status {status})",
                status=status,
                body=payload,
            )
        return status, doc

    # -- API -----------------------------------------------------------

    def healthz(self) -> Dict:
        status, doc = self._json("GET", "/healthz")
        if status != 200:
            raise ServeClientError("service unhealthy", status=status, body=doc)
        return doc

    def server_stats(self) -> Dict:
        status, doc = self._json("GET", "/stats")
        if status != 200:
            raise ServeClientError("stats failed", status=status, body=doc)
        return doc

    def submit(
        self,
        netlist: str,
        analysis: str,
        params: Optional[Dict] = None,
        label: str = "",
    ) -> Dict:
        """Submit one job; returns the admission verdict dict
        (``job_id``/``key``/``state``/``cached`` — state ``rejected``
        carries ``diagnostics``).  Backpressure and transport faults
        are retried internally."""
        status, doc = self._json(
            "POST",
            "/jobs",
            {
                "netlist": netlist,
                "analysis": analysis,
                "params": params or {},
                "label": label,
            },
        )
        if status not in (200, 202, 422):
            raise ServeClientError(
                f"submit failed (status {status}): {doc}", status=status, body=doc
            )
        return doc

    def status(self, job_id: Optional[str] = None):
        """One job's record dict (``None`` if unknown), or every job."""
        if job_id is None:
            status, doc = self._json("GET", "/jobs")
            if status != 200:
                raise ServeClientError("job table failed", status=status, body=doc)
            return doc["jobs"]
        status, doc = self._json("GET", f"/jobs/{job_id}")
        if status == 404:
            return None
        if status != 200:
            raise ServeClientError("status failed", status=status, body=doc)
        return doc

    def wait(self, job_id: str, timeout: float = 60.0, poll: float = 0.05) -> Dict:
        """Poll until ``job_id`` reaches a settled state (done, dead or
        rejected); returns the final record.  Raises on timeout."""
        deadline = time.monotonic() + timeout
        rec = None
        while time.monotonic() < deadline:
            rec = self.status(job_id)
            if rec is not None and rec["state"] in ("done", "dead", "rejected"):
                return rec
            time.sleep(poll)
        raise ServeClientError(
            f"job {job_id} not settled within {timeout}s "
            f"(last state: {rec['state'] if rec else 'unknown'})"
        )

    def result_blob(self, key: str) -> Tuple[bytes, Dict[str, str]]:
        """Verified raw payload bytes for a content key.

        Verification failures (short body, checksum mismatch, bad MAC)
        are treated as transport corruption and retried on the same
        ladder as dropped connections.
        """
        path = f"/results/{key}"
        last = "no attempt"
        for attempt in range(self.retries + 1):
            if attempt:
                self._bump("retries")
                time.sleep(
                    backoff_seconds(_salt(path), attempt, self.backoff_base)
                )
            try:
                status, headers, blob = self._request("GET", path)
            except ServeClientError as exc:
                last = repr(exc)
                continue
            if status == 404:
                raise ServeClientError(
                    f"no result recorded for key {key[:12]}...", status=404
                )
            if status != 200:
                raise ServeClientError(
                    f"result fetch failed (status {status})", status=status
                )
            want = headers.get("X-Repro-Sha256", "")
            if not want or hashlib.sha256(blob).hexdigest() != want:
                self._bump("verify_failures")
                last = "sha256 mismatch (torn response?)"
                continue
            mac_key = _mac_key()
            if mac_key is not None:
                mac = headers.get("X-Repro-Mac", "")
                good = mac and hmac.compare_digest(
                    mac, hmac.new(mac_key, blob, hashlib.sha256).hexdigest()
                )
                if not good:
                    self._bump("verify_failures")
                    last = "HMAC verification failed"
                    continue
            return blob, headers
        raise ServeResultError(
            f"result {key[:12]}... failed verification after "
            f"{self.retries + 1} attempt(s): {last}"
        )

    def result(self, job_id: str):
        """The unpickled payload of a done job (``None`` otherwise)."""
        rec = self.status(job_id)
        if rec is None or rec["state"] != "done" or not rec.get("key"):
            return None
        blob, _ = self.result_blob(rec["key"])
        return pickle.loads(blob)

    def submit_and_wait(
        self,
        netlist: str,
        analysis: str,
        params: Optional[Dict] = None,
        label: str = "",
        timeout: float = 60.0,
        poll: float = 0.05,
    ):
        """Submit, wait and fetch in one call; returns the payload.

        Raises :class:`ServeClientError` when the job is rejected or
        dies — the diagnostics/cause ride in the exception body.
        """
        verdict = self.submit(netlist, analysis, params=params, label=label)
        if verdict["state"] == "rejected":
            raise ServeClientError(
                f"job rejected at admission: {verdict.get('diagnostics')}",
                status=422,
                body=verdict,
            )
        rec = self.wait(verdict["job_id"], timeout=timeout, poll=poll)
        if rec["state"] != "done":
            raise ServeClientError(
                f"job {verdict['job_id']} ended {rec['state']}: "
                f"{rec.get('failure_cause')}",
                body=rec,
            )
        blob, _ = self.result_blob(rec["key"])
        return pickle.loads(blob)

    def gc(
        self,
        max_bytes: Optional[int] = None,
        max_age: Optional[float] = None,
        dry_run: bool = False,
    ) -> Dict:
        """Trigger a result-store GC on the server; returns its stats."""
        body: Dict = {"dry_run": dry_run}
        if max_bytes is not None:
            body["max_bytes"] = int(max_bytes)
        if max_age is not None:
            body["max_age"] = float(max_age)
        status, doc = self._json("POST", "/gc", body)
        if status != 200:
            raise ServeClientError("gc failed", status=status, body=doc)
        return doc

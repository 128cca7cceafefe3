"""HTTP front-end over the durable simulation service (stdlib-only).

The paper's thesis is that simulators live inside the design flow as
*services*; PR 8's queue made jobs durable on one filesystem, this
module puts a network admission path in front of it so multiple clients
on one host — and, via shared storage, multiple hosts running their own
front-end — can actually hit it.  Built entirely on
``http.server.ThreadingHTTPServer``: no new dependencies.

Endpoints (JSON unless noted)::

    POST /jobs            {netlist, analysis, params?, label?}
                          -> 202 queued/deduped, 200 done (cache hit),
                             422 rejected (admission diagnostics),
                             429 + Retry-After past the high-water mark
    GET  /jobs            the job table, submission order
    GET  /jobs/<id>       one job's record (404 unknown)
    GET  /results/<key>   verified payload *bytes* (pickle) with
                          X-Repro-Sha256 / X-Repro-Mac headers; the
                          server never unpickles — clients re-verify
                          and unpickle on their own trust boundary
    POST /gc              {max_bytes?, max_age?, dry_run?} -> GC stats
    GET  /stats           service summary + HTTP counters + store usage
    GET  /healthz         liveness (never requires auth)

Three service-protection gates, in request order:

* **auth** — when a bearer token is configured (:data:`TOKEN_ENV` or
  the ``token=`` argument), every endpoint except ``/healthz`` requires
  ``Authorization: Bearer <token>`` (constant-time compare) → 401;
* **backpressure** — when the durable backlog (queued + leased +
  running + awaiting-retry) is at the high-water mark, ``POST /jobs``
  answers 429 with a ``Retry-After`` hint instead of growing the queue
  without bound.  Jobs already accepted are durable and unaffected —
  admission control sheds *new* load, it never drops accepted work;
* **slow-loris guard** — request bodies must arrive within
  ``request_timeout`` seconds total (not per-``recv``), else 408 and
  the connection is closed, so a dribbling client cannot park a
  handler thread forever.

Connections are persistent HTTP/1.1 with ``TCP_NODELAY``
(:class:`~repro.serve.client.ServeClient` keeps one per thread).  The
server closes a connection after ``request_timeout`` idle seconds, and
after any answer sent before the request's body was read (401,
404/405, a missing ``Content-Length``, 413, 408): the unread body would
otherwise be parsed as the next request.

Every request runs under a ``serve.http.request`` trace span (route
template + method + status, so id/key cardinality never explodes the
trace), with ``serve.http.throttled`` / ``serve.http.unauthorized`` /
``serve.http.chaos`` events on the gates.  An installed
:class:`~repro.robust.faultinject.Chaos` ``http`` schedule
injects dropped connections, mid-response kills, hangs and 500s —
which is how :class:`~repro.serve.client.ServeClient`'s retry/backoff
stays tested instead of merely written.
"""

from __future__ import annotations

import hmac
import json
import os
import re
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from ..robust.faultinject import active_chaos
from ..trace import get_tracer
from .queue import ServiceConfig
from .service import SimulationService

__all__ = ["TOKEN_ENV", "HIGH_WATER_ENV", "ServeHTTPServer", "serve_http"]

#: Bearer token shared by server and clients; unset means open access.
TOKEN_ENV = "REPRO_SERVE_TOKEN"
#: Default backlog high-water mark for the 429 gate (0 = unlimited).
HIGH_WATER_ENV = "REPRO_SERVE_HIGH_WATER"

#: Submissions larger than this are refused with 413 — a netlist that
#: big is not a netlist.
_MAX_BODY_DEFAULT = 8 * 1024 * 1024

#: How often the background serving loop checks for ``shutdown()``:
#: ``close()`` waits up to this long (socketserver's default is 0.5 s).
_POLL_INTERVAL_S = 0.05

_KEY_RE = re.compile(r"^[0-9a-f]{64}$")


class _RequestTimeout(Exception):
    """Body did not arrive within the slow-loris deadline."""


def _carries_body(headers) -> bool:
    """Whether a request has body bytes on the wire (any
    ``Transfer-Encoding``, or a ``Content-Length`` other than 0)."""
    if "Transfer-Encoding" in headers:
        return True
    return (headers.get("Content-Length") or "0").strip() != "0"


class ServeHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server owning one :class:`SimulationService`.

    ``port=0`` binds an ephemeral loopback port (see :attr:`address`).
    The underlying queue/table is filesystem-durable but its in-memory
    view is not thread-safe, so handler threads serialise service
    access through one lock — the solves happen in *worker* processes,
    the front-end only does admission, bookkeeping and byte-serving,
    so serialising it costs microseconds per request.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        root,
        host: str = "127.0.0.1",
        port: int = 0,
        config: Optional[ServiceConfig] = None,
        token: Optional[str] = None,
        high_water: Optional[int] = None,
        retry_after: float = 1.0,
        request_timeout: float = 10.0,
        max_body: int = _MAX_BODY_DEFAULT,
    ):
        self.service = SimulationService(root, config=config)
        self.lock = threading.RLock()
        if token is None:
            token = os.environ.get(TOKEN_ENV) or None
        self.token = token
        if high_water is None:
            raw = os.environ.get(HIGH_WATER_ENV, "").strip()
            high_water = int(raw) if raw else 0
        self.high_water = int(high_water)
        self.retry_after = float(retry_after)
        self.request_timeout = float(request_timeout)
        self.max_body = int(max_body)
        self.started_at = time.time()
        self.counters: Dict[str, int] = {
            "requests": 0,
            "submitted": 0,
            "cache_hits": 0,
            "deduped": 0,
            "rejected": 0,
            "throttled": 0,
            "unauthorized": 0,
            "results_served": 0,
            "gc_runs": 0,
            "timeouts": 0,
            "errors": 0,
            "chaos": 0,
            "connections": 0,
        }
        self._thread: Optional[threading.Thread] = None
        self._open: set = set()  # accepted sockets not yet shut down
        super().__init__((host, int(port)), ServeHandler)

    # -- convenience ---------------------------------------------------

    @property
    def address(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def bump(self, name: str, by: int = 1) -> None:
        with self.lock:
            self.counters[name] = self.counters.get(name, 0) + by

    def start_background(self) -> "ServeHTTPServer":
        """Serve from a daemon thread; returns self for chaining."""
        self._thread = threading.Thread(
            target=self.serve_forever, args=(_POLL_INTERVAL_S,), daemon=True
        )
        self._thread.start()
        return self

    def process_request(self, request, client_address):
        with self.lock:
            self._open.add(request)
            self.counters["connections"] += 1
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self.lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def close(self) -> None:
        """Stop accepting, end every open connection (a kept-alive
        one would otherwise hold its handler thread for up to
        ``request_timeout``), wait for the handler threads, and stop
        the serving thread."""
        self.shutdown()
        with self.lock:
            open_now = list(self._open)
        for sock in open_now:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        self.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None


class ServeHandler(BaseHTTPRequestHandler):
    """Route dispatch for :class:`ServeHTTPServer`."""

    server_version = "repro-serve"
    protocol_version = "HTTP/1.1"
    # headers and body go out in two writes; with Nagle the body would
    # wait for the client's delayed ACK on a kept-alive connection
    disable_nagle_algorithm = True
    #: the request carries a body that has not been read (see end_headers)
    _body_unread = False

    def setup(self):
        # idle keep-alive connections time out instead of pinning a
        # thread (handle_one_request turns socket.timeout into close)
        self.timeout = self.server.request_timeout
        super().setup()

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # request logging goes through repro.trace, not stderr

    # -- plumbing ------------------------------------------------------

    def end_headers(self):
        # an answer sent before the body was read ends the connection:
        # the unread bytes would be parsed as the next request line
        if self._body_unread:
            self.send_header("Connection", "close")
        super().end_headers()

    def _send_json(self, code: int, obj, headers: Optional[Dict] = None) -> None:
        body = json.dumps(obj, default=repr).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for k, v in (headers or {}).items():
            self.send_header(k, str(v))
        self.end_headers()
        self._write_body(body)

    def _write_body(self, body: bytes) -> None:
        """Write a response body, honouring a scheduled mid-response
        kill (chaos ``torn``): half the promised bytes, then the
        connection dies — what a crashing server looks like to a
        client."""
        if getattr(self, "_tear_response", False):
            self.wfile.write(body[: max(1, len(body) // 2)])
            self.wfile.flush()
            self.close_connection = True
            try:
                self.connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            return
        self.wfile.write(body)

    def _authorized(self) -> bool:
        token = self.server.token
        if not token:
            return True
        header = self.headers.get("Authorization", "")
        return hmac.compare_digest(header, f"Bearer {token}")

    def _read_body(self) -> bytes:
        """Read the request body under a *total* deadline.

        A per-``recv`` socket timeout alone never fires against a
        slow-loris that dribbles one byte per interval, so the loop
        enforces ``request_timeout`` end to end using ``read1`` (at
        most one underlying ``recv`` per call).
        """
        raw = self.headers.get("Content-Length")
        if raw is None:
            raise ValueError("Content-Length required")
        n = int(raw)
        if n < 0:
            raise ValueError("bad Content-Length")
        if n > self.server.max_body:
            raise OverflowError(f"body exceeds {self.server.max_body} bytes")
        deadline = time.monotonic() + self.server.request_timeout
        chunks, got = [], 0
        while got < n:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise _RequestTimeout
            self.connection.settimeout(min(remaining, 1.0))
            try:
                chunk = self.rfile.read1(min(n - got, 65536))
            except (socket.timeout, TimeoutError):
                continue  # per-recv timeout: loop re-checks the deadline
            if not chunk:
                raise ValueError("client closed mid-body")
            chunks.append(chunk)
            got += len(chunk)
        self.connection.settimeout(self.server.request_timeout)
        self._body_unread = False
        return b"".join(chunks)

    def _apply_chaos(self, path: str) -> bool:
        """Consume a scheduled HTTP fault; True when the request is
        already fully handled (dropped)."""
        chaos = active_chaos()
        spec = chaos.http_op(path) if chaos is not None else None
        if spec is None:
            return False
        self.server.bump("chaos")
        tr = get_tracer()
        if tr.enabled:
            tr.event("serve.http.chaos", kind=spec.kind, path=path)
        if spec.kind == "drop":
            # no response at all: the client sees a dead connection
            self.close_connection = True
            try:
                self.connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            return True
        if spec.kind == "hang":
            time.sleep(spec.duration)
            return False
        if spec.kind == "torn":
            self._tear_response = True
            return False
        self._send_json(500, {"error": "injected server fault"})
        return True

    # -- dispatch ------------------------------------------------------

    def _route(self, method: str) -> Tuple[str, str]:
        """(route template, variable part) for tracing + dispatch."""
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/jobs":
            return "/jobs", ""
        if path.startswith("/jobs/"):
            return "/jobs/<id>", path[len("/jobs/"):]
        if path.startswith("/results/"):
            return "/results/<key>", path[len("/results/"):]
        return path, ""

    def _handle(self, method: str) -> None:
        self.server.bump("requests")
        self._body_unread = _carries_body(self.headers)
        route, arg = self._route(method)
        tr = get_tracer()
        status = [0]
        real_send = self.send_response

        def counted_send(code, message=None):
            status[0] = code
            real_send(code, message)

        self.send_response = counted_send  # capture status for the span
        try:
            with tr.span("serve.http.request", method=method, route=route) as sp:
                try:
                    if self._apply_chaos(self.path):
                        return
                    if route != "/healthz" and not self._authorized():
                        self.server.bump("unauthorized")
                        if tr.enabled:
                            tr.event("serve.http.unauthorized", route=route)
                        self._send_json(401, {"error": "unauthorized"})
                        return
                    handler = _ROUTES.get((method, route))
                    if handler is None:
                        if any(r == route for m, r in _ROUTES):
                            self._send_json(
                                405, {"error": f"{method} not allowed on {route}"}
                            )
                        else:
                            self._send_json(404, {"error": f"no such path {self.path}"})
                        return
                    handler(self, arg)
                except _RequestTimeout:
                    self.server.bump("timeouts")
                    self._send_json(408, {"error": "request body timed out"})
                    self.close_connection = True
                except OverflowError as exc:
                    self._send_json(413, {"error": str(exc)})
                    self.close_connection = True
                except (ValueError, KeyError, TypeError) as exc:
                    self._send_json(400, {"error": f"bad request: {exc}"})
                except Exception as exc:  # noqa: BLE001 - last-resort 500
                    self.server.bump("errors")
                    try:
                        self._send_json(500, {"error": f"internal: {exc}"})
                    except OSError:
                        pass
                finally:
                    sp.annotate(status=status[0])
        finally:
            self.send_response = real_send

    def do_GET(self):  # noqa: N802 - stdlib naming
        self._handle("GET")

    def do_POST(self):  # noqa: N802 - stdlib naming
        self._handle("POST")

    # -- endpoints -----------------------------------------------------

    def _ep_healthz(self, arg: str) -> None:
        self._send_json(
            200,
            {
                "ok": True,
                "root": self.server.service.root,
                "pid": os.getpid(),
                "uptime": round(time.time() - self.server.started_at, 3),
            },
        )

    def _ep_stats(self, arg: str) -> None:
        with self.server.lock:
            summary = self.server.service.summary()
            depth = len(self.server.service.queue.pending())
            counters = dict(self.server.counters)
        self._send_json(
            200,
            {
                "summary": summary,
                "queue_depth": depth,
                "high_water": self.server.high_water,
                "http": counters,
            },
        )

    def _ep_submit(self, arg: str) -> None:
        body = self._read_body()
        doc = json.loads(body.decode("utf-8"))
        if not isinstance(doc, dict):
            raise ValueError("body must be a JSON object")
        netlist = doc.get("netlist")
        analysis = doc.get("analysis")
        if not isinstance(netlist, str) or not netlist:
            raise ValueError("'netlist' (string) is required")
        if not isinstance(analysis, str) or not analysis:
            raise ValueError("'analysis' (string) is required")
        params = doc.get("params") or {}
        if not isinstance(params, dict):
            raise ValueError("'params' must be an object")
        tr = get_tracer()
        with self.server.lock:
            hw = self.server.high_water
            # queue_depth() replays the WAL first: jobs that worker
            # processes finished must open admission back up
            depth = self.server.service.queue_depth() if hw else 0
            if hw and depth >= hw:
                self.server.bump("throttled")
                if tr.enabled:
                    tr.event(
                        "serve.http.throttled",
                        queue_depth=depth,
                        high_water=hw,
                    )
                self._send_json(
                    429,
                    {
                        "error": "queue at high-water mark; retry later",
                        "queue_depth": depth,
                        "high_water": hw,
                    },
                    headers={"Retry-After": f"{self.server.retry_after:g}"},
                )
                return
            res = self.server.service.submit(
                netlist, analysis, params=params, label=str(doc.get("label", ""))
            )
        out = {
            "job_id": res.job_id,
            "key": res.key,
            "state": res.state,
            "cached": res.cached,
        }
        if res.state == "rejected":
            self.server.bump("rejected")
            out["diagnostics"] = [
                d.as_dict() for d in res.report.diagnostics
            ] if res.report is not None else []
            self._send_json(422, out)
            return
        if res.report is not None and res.report.diagnostics:
            out["diagnostics"] = [d.as_dict() for d in res.report.diagnostics]
        if res.state == "done":
            self.server.bump("cache_hits")
            self._send_json(200, out)
            return
        self.server.bump("deduped" if res.state == "deduped" else "submitted")
        self._send_json(202, out)

    def _ep_jobs(self, arg: str) -> None:
        with self.server.lock:
            jobs = self.server.service.status()
        self._send_json(200, {"jobs": jobs})

    def _ep_job(self, job_id: str) -> None:
        with self.server.lock:
            rec = self.server.service.status(job_id)
        if rec is None:
            self._send_json(404, {"error": f"unknown job {job_id!r}"})
            return
        self._send_json(200, rec)

    def _ep_result(self, key: str) -> None:
        if not _KEY_RE.match(key):
            self._send_json(404, {"error": "malformed result key"})
            return
        with self.server.lock:
            out = self.server.service.queue.store.get_blob(key)
        if out is None:
            self._send_json(404, {"error": f"no result for key {key[:12]}..."})
            return
        blob, meta = out
        self.server.bump("results_served")
        self.send_response(200)
        self.send_header("Content-Type", "application/octet-stream")
        self.send_header("Content-Length", str(len(blob)))
        self.send_header("X-Repro-Sha256", meta.get("sha256", ""))
        if meta.get("mac"):
            self.send_header("X-Repro-Mac", meta["mac"])
        self.end_headers()
        self._write_body(blob)

    def _ep_gc(self, arg: str) -> None:
        doc = {}
        if int(self.headers.get("Content-Length") or 0):
            doc = json.loads(self._read_body().decode("utf-8"))
            if not isinstance(doc, dict):
                raise ValueError("body must be a JSON object")
        kwargs = {}
        if doc.get("max_bytes") is not None:
            kwargs["max_bytes"] = int(doc["max_bytes"])
        if doc.get("max_age") is not None:
            kwargs["max_age"] = float(doc["max_age"])
        with self.server.lock:
            stats = self.server.service.gc(
                dry_run=bool(doc.get("dry_run", False)), **kwargs
            )
        self.server.bump("gc_runs")
        self._send_json(200, stats)


_ROUTES = {
    ("GET", "/healthz"): ServeHandler._ep_healthz,
    ("GET", "/stats"): ServeHandler._ep_stats,
    ("GET", "/jobs"): ServeHandler._ep_jobs,
    ("GET", "/jobs/<id>"): ServeHandler._ep_job,
    ("GET", "/results/<key>"): ServeHandler._ep_result,
    ("POST", "/jobs"): ServeHandler._ep_submit,
    ("POST", "/gc"): ServeHandler._ep_gc,
}


def serve_http(root, **kwargs) -> ServeHTTPServer:
    """Boot a background HTTP front-end over ``root``; returns the
    running server (``.address`` for clients, ``.close()`` to stop)."""
    return ServeHTTPServer(root, **kwargs).start_background()

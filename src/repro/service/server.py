"""``repro serve``: a stdlib JSON-over-HTTP frontend for one warm session.

The daemon is deliberately boring — :class:`http.server.ThreadingHTTPServer`
plus :mod:`json`, no framework — because the interesting state lives in the
:class:`~repro.service.session.EngineSession` it wraps.  What the server
adds on top of the session is **admission control**:

* at most ``max_inflight`` requests execute concurrently, with at most
  ``queue_depth`` more waiting; a request beyond that is rejected
  *immediately* with ``429 Too Many Requests`` (and counted in
  ``repro_rejected_total{reason="saturated"}``) instead of piling onto
  an unbounded queue — the client learns to back off while its retry
  is still cheap;
* every admitted request runs under the server's ``request_timeout``
  (tightening any client-supplied ``timeout``), so a pathological
  mapping degrades to an ``Unknown`` verdict, frees its thread, and
  the daemon keeps serving.

Routes::

    POST /check /member /compose /lint /selftest   JSON request -> JSON response
    POST /delta                                    incremental re-check of a
                                                   mapping revision (reuses
                                                   clean artifacts + verdicts)
    GET  /stats                                    session + cache + admission
                                                   accounting
    GET  /healthz                                  liveness ("ok")
    GET  /metrics                                  Prometheus text exposition
                                                   (with OpenMetrics exemplars)
    GET  /metrics.json                             the same registry as JSON
    GET  /debug/requests[?op=&status=&min_ms=&limit=]
                                                   flight-recorder summaries
    GET  /debug/requests/<trace_id>                one full span tree (404
                                                   once evicted from the ring)
    GET  /debug/slow                               recent slow requests

The ``/debug`` routes are read-only by construction (they reach only the
session's flight recorder, never a handler) and bypass admission control
so they stay responsive exactly when the daemon is saturated — the
moment you need them.

Error mapping: malformed JSON or an unknown route is 400/404; a request
the session rejects (``RequestError``) is 400; any other ``XsmError``
comes back 200 with ``ok=false`` in the body (the request was served,
the *mapping* was bad) — exactly the dict the CLI adapter renders.
"""

from __future__ import annotations

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs

from repro.obs import REGISTRY
from repro.service.session import EngineSession, RequestError

_REJECTED = REGISTRY.counter(
    "repro_rejected_total",
    "Requests refused by the daemon before reaching the session",
    ("reason",),
)
_INFLIGHT = REGISTRY.gauge(
    "repro_inflight_requests",
    "Requests currently executing in the daemon",
)
_QUEUED = REGISTRY.gauge(
    "repro_queued_requests",
    "Admitted requests waiting for a run slot",
)

#: Largest accepted request body — admission control for memory, not CPU.
MAX_BODY_BYTES = 16 * 1024 * 1024


class _BadQuery(ValueError):
    """A GET query parameter the route cannot use (answered with a 400)."""


class _Admission:
    """Bounded-concurrency gate: run ``max_inflight``, queue ``queue_depth``.

    ``try_enter`` is non-blocking: it claims one of the
    ``max_inflight + queue_depth`` admission slots or reports saturation.
    An admitted request then blocks (briefly, by construction) on one of
    the ``max_inflight`` run slots.
    """

    def __init__(self, max_inflight: int, queue_depth: int):
        self.max_inflight = max(1, int(max_inflight))
        self.queue_depth = max(0, int(queue_depth))
        self._admit = threading.Semaphore(self.max_inflight + self.queue_depth)
        self._run = threading.Semaphore(self.max_inflight)
        self._lock = threading.Lock()
        self.inflight = 0
        self.queued = 0

    def try_enter(self) -> bool:
        admitted = self._admit.acquire(blocking=False)
        if admitted:
            with self._lock:
                self.queued += 1
                _QUEUED.set(self.queued)
        return admitted

    def start(self) -> None:
        self._run.acquire()
        with self._lock:
            self.queued -= 1
            self.inflight += 1
            _QUEUED.set(self.queued)
            _INFLIGHT.set(self.inflight)

    def cancel(self) -> None:
        """Give back an admission slot whose request never ran."""
        with self._lock:
            self.queued -= 1
            _QUEUED.set(self.queued)
        self._admit.release()

    def leave(self) -> None:
        with self._lock:
            self.inflight -= 1
            _INFLIGHT.set(self.inflight)
        self._run.release()
        self._admit.release()

    def snapshot(self) -> dict:
        """Live saturation for ``/stats`` (and thus ``repro top``)."""
        with self._lock:
            return {
                "inflight": self.inflight,
                "queued": self.queued,
                "max_inflight": self.max_inflight,
                "queue_depth": self.queue_depth,
            }


class _Handler(BaseHTTPRequestHandler):
    # ThreadingHTTPServer defaults to HTTP/1.0 per request; 1.1 keeps
    # connections alive so a warm client pays the TCP setup once.
    protocol_version = "HTTP/1.1"
    # headers and body leave as two writes; with Nagle on, the body
    # waits for the client's delayed ACK of the headers (~40 ms) on every
    # request of a kept-alive connection
    disable_nagle_algorithm = True
    server: "ServiceServer"

    # -- plumbing -----------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.server.verbose:
            super().log_message(format, *args)

    def _send(self, status: int, payload: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _send_json(self, status: int, body: dict) -> None:
        self._send(
            status,
            json.dumps(body).encode(),
            "application/json; charset=utf-8",
        )

    def _send_text(self, status: int, text: str) -> None:
        self._send(status, text.encode(), "text/plain; charset=utf-8")

    def _read_request(self) -> dict | None:
        """The parsed JSON body, or None after sending an error response."""
        length = self.headers.get("Content-Length")
        try:
            size = int(length) if length else 0
        except ValueError:
            self._send_json(400, {"error": {"type": "BadRequest",
                                            "message": "bad Content-Length"}})
            return None
        if size > MAX_BODY_BYTES:
            _REJECTED.labels(reason="oversized").inc()
            self._send_json(413, {"error": {
                "type": "BadRequest",
                "message": f"request body over {MAX_BODY_BYTES} bytes",
            }})
            return None
        raw = self.rfile.read(size) if size else b"{}"
        try:
            request = json.loads(raw or b"{}")
        except ValueError as error:
            self._send_json(400, {"error": {"type": "BadRequest",
                                            "message": f"bad JSON: {error}"}})
            return None
        if not isinstance(request, dict):
            self._send_json(400, {"error": {"type": "BadRequest",
                                            "message": "request must be an object"}})
            return None
        return request

    # -- routes -------------------------------------------------------------

    def _query(self) -> dict:
        """Single-valued query parameters (last value wins)."""
        __, __, raw = self.path.partition("?")
        return {key: values[-1] for key, values in parse_qs(raw).items()}

    @staticmethod
    def _float_param(query: dict, key: str) -> float | None:
        """A numeric query parameter; None when absent or not a number.

        Raises :class:`_BadQuery` for ``inf``, ``nan`` and overflowing
        literals such as ``1e400``: no route has a use for them, and
        ``int()`` of one raises mid-response.
        """
        raw = query.get(key)
        if raw is None:
            return None
        try:
            value = float(raw)
        except ValueError:
            return None
        if not math.isfinite(value):
            raise _BadQuery(
                f"query parameter {key!r} must be a finite number, got {raw!r}"
            )
        return value

    def do_GET(self) -> None:  # noqa: N802
        try:
            self._get()
        except _BadQuery as error:
            self._send_json(400, {"error": {"type": "BadRequest",
                                            "message": str(error)}})

    def _get(self) -> None:
        path = self.path.split("?", 1)[0]
        session = self.server.session
        if path == "/healthz":
            self._send_text(200, "ok\n")
        elif path == "/metrics":
            self._send(200, session.registry.render_prometheus()
                       .encode(), "text/plain; version=0.0.4; charset=utf-8")
        elif path == "/metrics.json":
            self._send(200, session.registry.render_json().encode(),
                       "application/json; charset=utf-8")
        elif path == "/stats":
            body = session.stats({})
            body["server"] = self.server.admission.snapshot()
            self._send_json(200, body)
        elif path == "/debug/requests":
            query = self._query()
            limit = self._float_param(query, "limit")
            self._send_json(200, session.debug_requests(
                op=query.get("op"),
                status=query.get("status"),
                min_ms=self._float_param(query, "min_ms"),
                limit=50 if limit is None else max(1, int(limit)),
            ))
        elif path.startswith("/debug/requests/"):
            trace_id = path[len("/debug/requests/"):]
            record = session.debug_request(trace_id)
            if record is None:
                self._send_json(404, {"error": {
                    "type": "NotFound",
                    "message": f"trace {trace_id!r} not recorded or evicted",
                }})
            else:
                self._send_json(200, record)
        elif path == "/debug/slow":
            query = self._query()
            limit = self._float_param(query, "limit")
            self._send_json(200, session.debug_slow(
                limit=50 if limit is None else max(1, int(limit)),
            ))
        else:
            self._send_json(404, {"error": {"type": "NotFound",
                                            "message": f"no route {path!r}"}})

    def do_POST(self) -> None:  # noqa: N802
        command = self.path.split("?", 1)[0].lstrip("/")
        if command not in EngineSession.HANDLERS:
            self._send_json(404, {"error": {"type": "NotFound",
                                            "message": f"no command {command!r}"}})
            return
        admission = self.server.admission
        if not admission.try_enter():
            _REJECTED.labels(reason="saturated").inc()
            self.send_response(429)
            self.send_header("Retry-After", "1")
            payload = json.dumps({"error": {
                "type": "Saturated",
                "message": "server at capacity; retry with backoff",
            }}).encode()
            self.send_header("Content-Type", "application/json; charset=utf-8")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)
            return
        started = False
        try:
            request = self._read_request()
            if request is None:
                return
            timeout = self.server.request_timeout
            if timeout is not None:
                client = request.get("timeout")
                try:
                    keep_client = client is not None and float(client) <= timeout
                except (TypeError, ValueError):
                    keep_client = False  # session rejects it with a clear error
                if not keep_client:
                    request["timeout"] = timeout
            admission.start()
            started = True
            response = self.server.session.handle(command, request)
            error_type = (response.get("error") or {}).get("type")
            status = 400 if error_type == "RequestError" else 200
            self._send_json(status, response)
        except RequestError as error:
            self._send_json(400, {"error": {"type": "RequestError",
                                            "message": str(error)}})
        finally:
            if started:
                admission.leave()
            else:
                admission.cancel()


class ServiceServer:
    """One :class:`EngineSession` behind a threading HTTP daemon.

    ``port=0`` binds an ephemeral port (read it back from ``.port`` after
    construction) — tests and the serve-smoke harness rely on this.
    ``start()`` serves from a daemon thread; ``serve_forever()`` blocks
    the calling thread (the CLI's ``repro serve`` path).
    """

    def __init__(
        self,
        session: EngineSession,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 4,
        queue_depth: int = 8,
        request_timeout: float | None = 30.0,
        verbose: bool = False,
    ):
        self.session = session
        self.admission = _Admission(max_inflight, queue_depth)
        self.request_timeout = request_timeout
        self.verbose = verbose
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        # the handler reaches its server through self.server; alias the
        # service-level attributes onto the stdlib server object
        self._httpd.session = session  # type: ignore[attr-defined]
        self._httpd.admission = self.admission  # type: ignore[attr-defined]
        self._httpd.request_timeout = request_timeout  # type: ignore[attr-defined]
        self._httpd.verbose = verbose  # type: ignore[attr-defined]
        self.host, self.port = self._httpd.server_address[:2]
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ServiceServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._httpd.serve_forever(poll_interval=0.2)

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "ServiceServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

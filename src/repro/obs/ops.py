"""The live ops plane: scrapeable HTTP endpoints over a running gateway.

:class:`OpsServer` attaches to a live :class:`~repro.serve.gateway.Gateway`
(the ``--ops-port`` flag on ``engine serve`` / ``engine loadtest``) and
answers operational questions without stopping the run:

======================  ==================================================
``GET /metrics``        Prometheus text exposition — a live scrape of the
                        shared :class:`~repro.obs.metrics.MetricsRegistry`.
``GET /healthz``        Liveness: the process answers, with the clock and
                        occupancy it currently stands at.
``GET /readyz``         Admission-readiness: 200 only while the session is
                        open, the request queue has headroom, and the
                        event-log writer is keeping up; 503 otherwise, with
                        per-check detail.
``GET /tenants``        Per-tenant live/quota/deficit/admission state from
                        the :class:`~repro.serve.tenants.TenantLedger`, the
                        fair-scheduler queue, and the drain tallies.
``GET /slo``            Windowed availability and latency objectives with
                        multi-window burn rates (:mod:`repro.obs.slo`).
======================  ==================================================

The server is a minimal hand-rolled HTTP/1.1 responder over
``asyncio.start_server`` — no framework, no dependency, GET-only,
``Connection: close``.  It runs either on a caller-provided event loop
(:meth:`start` / :meth:`stop`) or on its own daemon thread
(:meth:`start_in_thread` / :meth:`close`) so the synchronous replay
paths can be scraped mid-run too.

**Determinism contract.**  The ops plane is wall-clock-tolerant but
*serialization-inert*: every endpoint is read-only arithmetic over
state the run already keeps, scraping draws no randomness and writes to
no deterministic artifact, so a served run with the ops server attached
produces telemetry, event logs, checkpoints, and goldens byte-identical
to the dark run (asserted by ``tests/obs/test_ops_invariance.py`` and
the regen-golden invariance arm).
"""

from __future__ import annotations

import asyncio
import json
import threading

__all__ = ["OpsServer"]

#: Paths the server answers (the index endpoint lists them).
ENDPOINTS = ("/metrics", "/healthz", "/readyz", "/tenants", "/slo")

_MAX_REQUEST_BYTES = 8192


class OpsServer:
    """Scrapeable ops endpoints over one running gateway.

    Parameters
    ----------
    target:
        The :class:`~repro.serve.gateway.Gateway` to introspect
        (``None`` serves metrics/health only).
    metrics:
        The :class:`~repro.obs.metrics.MetricsRegistry` ``/metrics``
        scrapes; usually the same registry the target records into.
    event_log:
        The run's :class:`~repro.obs.eventlog.EventLog`, for the
        writer-backlog readiness check.
    policy:
        The :class:`~repro.obs.slo.SloPolicy` ``/slo`` evaluates
        (defaults applied when ``None``).
    host / port:
        Bind address; port 0 picks a free port (read :attr:`port` after
        start).
    """

    def __init__(
        self,
        target=None,
        *,
        metrics=None,
        event_log=None,
        policy=None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.target = target
        self.metrics = metrics
        self.event_log = event_log
        self.policy = policy
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._thread: threading.Thread | None = None
        self._thread_loop: asyncio.AbstractEventLoop | None = None

    # ------------------------------------------------------------------
    # Endpoint logic (pure dispatch — unit-testable without sockets)
    # ------------------------------------------------------------------
    def handle(self, path: str) -> tuple[int, str, str]:
        """Answer one request path: ``(status, content type, body)``."""
        path = path.split("?", 1)[0]
        if path in ("/", ""):
            return 200, "application/json", json.dumps(
                {"endpoints": list(ENDPOINTS)}, indent=1
            )
        if path == "/metrics":
            return self._metrics_endpoint()
        if path == "/healthz":
            return self._healthz()
        if path == "/readyz":
            return self._readyz()
        if path == "/tenants":
            return self._tenants()
        if path == "/slo":
            return self._slo()
        return 404, "application/json", json.dumps(
            {"error": f"unknown path {path!r}",
             "endpoints": list(ENDPOINTS)}
        )

    def _core(self):
        if self.target is None:
            return None
        engine = getattr(self.target, "engine", None)
        return engine.core if engine is not None else None

    def _metrics_endpoint(self) -> tuple[int, str, str]:
        if self.metrics is None:
            return 404, "application/json", json.dumps(
                {"error": "no metrics registry wired to the ops server"}
            )
        self._refresh_gauges()
        return (
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            self.metrics.to_prometheus(),
        )

    def _refresh_gauges(self) -> None:
        """Re-sample the point-in-time gauges so an idle-period scrape
        still reads current state (tick boundaries also update them)."""
        if self.target is not None:
            self.metrics.gauge(
                "serve_queue_depth", "Mutating requests queued"
            ).set(self.target.queue.depth)
        core = self._core()
        if core is not None:
            self.metrics.gauge(
                "engine_live_campaigns", "Campaigns currently live"
            ).set(core.num_live)
            self.metrics.gauge(
                "engine_pending_campaigns",
                "Submitted campaigns awaiting admission",
            ).set(core.num_pending)
            self.metrics.gauge(
                "engine_clock_interval", "Engine-clock interval"
            ).set(core.clock)
        if self.event_log is not None:
            self.metrics.gauge(
                "eventlog_buffered_events",
                "Events appended but not yet committed",
            ).set(self.event_log.buffered)

    def _healthz(self) -> tuple[int, str, str]:
        core = self._core()
        body = {
            "status": "alive",
            "started": bool(getattr(self.target, "started", False)),
            "clock": core.clock if core is not None else None,
            "live": core.num_live if core is not None else None,
            "pending": core.num_pending if core is not None else None,
        }
        return 200, "application/json", json.dumps(body, indent=1)

    def _readyz(self) -> tuple[int, str, str]:
        checks: dict[str, dict] = {}
        core = self._core()
        checks["session"] = {
            "ok": bool(getattr(self.target, "started", False))
            and core is not None,
            "detail": "engine session open" if core is not None
            else "no open engine session",
        }
        queue = self.target.queue if self.target is not None else None
        depth = queue.depth if queue is not None else 0
        bound = queue.max_depth if queue is not None else None
        full = bound is not None and depth >= bound
        checks["queue"] = {
            "ok": not full,
            "depth": depth,
            "bound": bound,
            "detail": (
                f"request queue at its depth bound ({bound})" if full
                else "request queue has headroom"
            ),
        }
        if self.event_log is None:
            checks["event_log"] = {
                "ok": True, "backlog": None, "detail": "no event log wired",
            }
        else:
            backlog = self.event_log.buffered
            healthy = self.event_log.healthy
            saturated = self.event_log.saturated
            checks["event_log"] = {
                "ok": healthy and not saturated,
                "backlog": backlog,
                "capacity": self.event_log.capacity,
                "detail": (
                    "writer failed" if not healthy
                    else f"writer backlog at capacity ({backlog})" if saturated
                    else "writer keeping up"
                ),
            }
        ready = all(check["ok"] for check in checks.values())
        return (
            200 if ready else 503,
            "application/json",
            json.dumps({"ready": ready, "checks": checks}, indent=1),
        )

    def _tenants(self) -> tuple[int, str, str]:
        if self.target is None:
            return 404, "application/json", json.dumps(
                {"error": "no gateway attached to the ops server"}
            )
        queue = self.target.queue
        ledger = self.target.ledger
        telemetry = self.target.telemetry
        held = ledger.snapshot()
        names = sorted(
            set(telemetry.tenants) | set(held["live"]) | set(queue.tenants)
        )
        core = self._core()
        deficits = queue.scheduler_state()["deficits"]
        tenants = {}
        for name in names:
            series = telemetry.tenants.get(name)
            totals = {
                key: sum(values) for key, values in series.items()
            } if series else None
            quota = held["quotas"].get(name)
            tenants[name] = {
                "live": held["live"].get(name, 0),
                "admitted_this_tick": held["tick_admitted"].get(name, 0),
                "queued": queue.depth_of(name),
                "weight": queue.weight_of(name),
                "deficit": deficits.get(name, 0.0),
                "quota": quota,
                "totals": totals,
            }
        body = {
            "clock": core.clock if core is not None else None,
            "tenants": tenants,
        }
        return 200, "application/json", json.dumps(body, indent=1)

    def _slo(self) -> tuple[int, str, str]:
        if self.target is None:
            return 404, "application/json", json.dumps(
                {"error": "no gateway attached to the ops server"}
            )
        from repro.obs.slo import live_slo_report

        report = live_slo_report(self.target.telemetry, self.policy)
        return 200, "application/json", json.dumps(report, indent=1)

    # ------------------------------------------------------------------
    # The asyncio server
    # ------------------------------------------------------------------
    async def _serve_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            # One read for the request line plus the whole (bounded)
            # header block: every wakeup of this loop steals a GIL slice
            # from the replaying thread, so fewer awaits per scrape is a
            # direct tax cut on the run being observed.
            block = await reader.readuntil(b"\r\n\r\n")
            request = block.split(b"\r\n", 1)[0]
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            writer.close()
            return
        try:
            parts = request.decode("latin-1").split()
            method, path = parts[0], parts[1]
        except (IndexError, UnicodeDecodeError):
            method, path = "GET", "/"
        if method not in ("GET", "HEAD"):
            status, content_type, body = 405, "application/json", json.dumps(
                {"error": f"method {method} not allowed (GET only)"}
            )
        else:
            try:
                status, content_type, body = self.handle(path)
            except Exception as exc:  # noqa: BLE001 — a scrape must never kill the run
                status, content_type, body = 500, "application/json", (
                    json.dumps({"error": f"{type(exc).__name__}: {exc}"})
                )
        payload = body.encode("utf-8")
        reason = {200: "OK", 404: "Not Found", 405: "Method Not Allowed",
                  500: "Internal Server Error",
                  503: "Service Unavailable"}.get(status, "OK")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: close\r\n\r\n"
        ).encode("latin-1")
        writer.write(head + (b"" if method == "HEAD" else payload))
        try:
            await writer.drain()
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - client gone
            pass

    async def start(self) -> tuple[str, int]:
        """Bind and start serving on the running event loop."""
        if self._server is not None:
            raise RuntimeError("the ops server is already running")
        self._server = await asyncio.start_server(
            self._serve_client, self.host, self.port,
            limit=_MAX_REQUEST_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.host, self.port

    async def stop(self) -> None:
        """Stop accepting and close the listening socket."""
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()

    @property
    def address(self) -> str:
        """``http://host:port`` once started."""
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # Threaded mode (scraping a synchronous replay mid-run)
    # ------------------------------------------------------------------
    def start_in_thread(self) -> tuple[str, int]:
        """Run the server on its own daemon thread with its own loop.

        The synchronous driving modes (``Gateway.replay``, open-mode
        loadtests) never yield to an event loop, so the ops server gets
        its own.  Scrapes read live gateway state from another thread —
        safe because every endpoint is read-only over GIL-atomic
        containers and the metrics registry carries its own lock.
        """
        if self._thread is not None or self._server is not None:
            raise RuntimeError("the ops server is already running")
        started = threading.Event()
        failure: list[BaseException] = []

        def run() -> None:
            loop = asyncio.new_event_loop()
            self._thread_loop = loop
            asyncio.set_event_loop(loop)
            try:
                loop.run_until_complete(self.start())
            except BaseException as exc:  # noqa: BLE001 — surface bind errors
                failure.append(exc)
                started.set()
                loop.close()
                return
            started.set()
            try:
                loop.run_forever()
                loop.run_until_complete(self.stop())
            finally:
                loop.close()

        self._thread = threading.Thread(
            target=run, name="repro-ops-server", daemon=True
        )
        self._thread.start()
        started.wait()
        if failure:
            self._thread = None
            self._thread_loop = None
            raise failure[0]
        return self.host, self.port

    def close(self) -> None:
        """Stop a threaded server (no-op when not running)."""
        thread, self._thread = self._thread, None
        loop, self._thread_loop = self._thread_loop, None
        if thread is None or loop is None:
            return
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=5.0)

    def __repr__(self) -> str:
        state = "listening" if (
            self._server is not None or self._thread is not None
        ) else "stopped"
        return f"OpsServer({self.address}, {state})"

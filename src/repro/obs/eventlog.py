"""Durable append-only event log on sqlite WAL, written off the tick path.

The log's job is twofold:

1. **Analytics substrate** — every admission, cancellation, tick
   summary, and serve request/response lands in one sqlite file that
   :mod:`repro.obs.analytics` can query directly.
2. **Crash durability between checkpoints** — checkpoint bundles are
   periodic; the log is continuous.  After ``kill -9``, the events with
   ``seq`` greater than the last checkpoint's recorded ``last_seq`` are
   exactly the request tail :mod:`repro.obs.recovery` must replay.

Writes never run on the tick path.  :meth:`EventLog.log` (and
:meth:`EventLog.append`, for a prebuilt event) assigns a sequence
number, drops the event into a bounded in-memory buffer, and returns; a
background writer thread drains the buffer in batches, one sqlite
transaction per batch.  Backpressure is blocking: if producers outrun
the writer the buffer fills and ``log`` waits — events are never
silently dropped.  The engine's tick-boundary hooks call
:meth:`flush` (wake the writer now, don't wait) and checkpoint saves
call :meth:`sync` (wait until every appended event is committed, so the
recorded ``last_seq`` is durable before the manifest renames into
place).

Durability model: sqlite WAL journal.  Each writer transaction appends
to the WAL; a killed process loses nothing already committed, and an
uncommitted trailing batch disappears atomically — the log on disk is
always a gap-free prefix of what was appended.  Sequence numbers are
assigned at append time (not commit time) from ``MAX(seq)+1`` at open,
so producers can record "everything up to seq N" markers synchronously.
"""

from __future__ import annotations

import logging
import pathlib
import sqlite3
import threading
from collections import deque

from repro.obs.events import EVENT_KINDS, Event

__all__ = ["EventLog", "EventLogError"]

_LOG = logging.getLogger(__name__)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS events (
    seq         INTEGER PRIMARY KEY,
    tick        INTEGER NOT NULL,
    kind        TEXT    NOT NULL,
    campaign_id TEXT,
    client      TEXT,
    trace_id    TEXT,
    payload     TEXT    NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_events_kind ON events (kind, seq);
CREATE INDEX IF NOT EXISTS idx_events_tick ON events (tick);
"""

_COLUMNS = "seq, tick, kind, campaign_id, client, trace_id, payload"


class EventLogError(RuntimeError):
    """The background writer failed; the log is unusable."""


class EventLog:
    """Append-only event log with a batched background writer.

    Parameters
    ----------
    path:
        The sqlite database file (created if missing, appended to if
        present — reopening a log continues its sequence).
    buffer_size:
        Maximum buffered (appended but uncommitted) events before
        ``append`` blocks.
    batch_size:
        Largest number of events the writer commits per transaction.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; when given
        the log records appended/committed totals, flush batches, and
        buffer occupancy.
    """

    def __init__(
        self,
        path,
        buffer_size: int = 4096,
        batch_size: int = 512,
        metrics=None,
    ) -> None:
        if buffer_size < 1 or batch_size < 1:
            raise ValueError(
                f"buffer_size and batch_size must be >= 1, got "
                f"{buffer_size} and {batch_size}"
            )
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.buffer_size = buffer_size
        self.batch_size = batch_size

        self._conn = sqlite3.connect(self.path, check_same_thread=False)
        self._conn.executescript(_SCHEMA)
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        row = self._conn.execute("SELECT MAX(seq) FROM events").fetchone()
        start_seq = (row[0] or 0) + 1 if row[0] is not None else 1

        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._progress = threading.Condition(self._lock)
        self._buffer: deque[Event] = deque()
        self._next_seq = start_seq
        self._durable_seq = start_seq - 1
        self._closed = False
        self._wake = threading.Event()
        self._error: BaseException | None = None

        if metrics is not None:
            self._m_appended = metrics.counter(
                "obs_events_appended_total", "Events appended to the log"
            )
            self._m_committed = metrics.counter(
                "obs_events_committed_total", "Events committed to sqlite"
            )
            self._m_batches = metrics.counter(
                "obs_flush_batches_total", "Writer transactions committed"
            )
            self._m_buffered = metrics.gauge(
                "obs_buffer_events", "Events buffered awaiting commit"
            )
        else:
            self._m_appended = self._m_committed = None
            self._m_batches = self._m_buffered = None

        self._writer = threading.Thread(
            target=self._writer_loop, name=f"eventlog-writer:{self.path.name}",
            daemon=True,
        )
        self._writer.start()

    # ------------------------------------------------------------------
    # Producer API
    # ------------------------------------------------------------------
    def log(self, kind: str, tick: int, payload: dict | None = None, **cols) -> int:
        """Build one :class:`Event`, buffer it, and return its sequence number.

        The event is built once, with its sequence number, under the
        lock.  Blocks only when the buffer is full (backpressure, never
        loss).  The event is durable once :meth:`sync` returns — or,
        without an explicit sync, shortly after the writer's next batch
        commits.  ``cols`` are the optional filter columns
        (``campaign_id``, ``client``, ``trace_id``).
        """
        with self._lock:
            self._raise_if_unusable()
            while len(self._buffer) >= self.buffer_size:
                self._not_full.wait(timeout=1.0)
                self._raise_if_unusable()
            seq = self._next_seq
            self._buffer.append(
                Event(kind=kind, tick=tick, payload=payload or {}, seq=seq, **cols)
            )
            self._next_seq = seq + 1
            buffered = len(self._buffer)
        if self._m_appended is not None:
            self._m_appended.inc()
            self._m_buffered.set(buffered)
        if buffered >= self.batch_size:
            self._wake.set()
        return seq

    def append(self, event: Event) -> int:
        """Buffer a prebuilt ``event`` under the next sequence number.

        Its own ``seq``, if any, is replaced; see :meth:`log`.
        """
        return self.log(
            event.kind,
            event.tick,
            event.payload,
            campaign_id=event.campaign_id,
            client=event.client,
            trace_id=event.trace_id,
        )

    def flush(self) -> None:
        """Wake the writer to commit what is buffered; does not wait.

        The engine's tick-boundary hook calls this so batches track tick
        boundaries instead of arbitrary buffer fill levels.
        """
        self._wake.set()

    def sync(self) -> int:
        """Block until every appended event is committed; return the
        last durable sequence number.

        Checkpoint saves call this *before* recording ``last_seq`` in
        the bundle extras, making "events up to last_seq are on disk" an
        invariant recovery can rely on.
        """
        self._wake.set()
        with self._lock:
            self._raise_if_unusable()
            target = self._next_seq - 1
            while self._durable_seq < target:
                self._progress.wait(timeout=1.0)
                self._raise_if_unusable()
                self._wake.set()
            return self._durable_seq

    def close(self) -> None:
        """Sync, stop the writer, and close the database."""
        with self._lock:
            if self._closed:
                return
        if self._error is None:
            try:
                self.sync()
            except EventLogError:
                pass
        with self._lock:
            self._closed = True
            self._wake.set()
            self._not_full.notify_all()
        self._writer.join(timeout=10.0)
        self._conn.close()

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def last_seq(self) -> int:
        """Highest sequence number assigned so far (0 if none)."""
        with self._lock:
            return self._next_seq - 1

    @property
    def durable_seq(self) -> int:
        """Highest sequence number committed to sqlite (0 if none)."""
        with self._lock:
            return self._durable_seq

    @property
    def buffered(self) -> int:
        """Events appended but not yet committed."""
        with self._lock:
            return len(self._buffer)

    @property
    def healthy(self) -> bool:
        """True while the log accepts appends (open, writer not failed).

        The readiness probe (:mod:`repro.obs.ops`) reads this together
        with :attr:`buffered`: a failed or wedged writer means appends
        would block or raise, so the run is not admission-ready.
        """
        with self._lock:
            return self._error is None and not self._closed

    # ------------------------------------------------------------------
    # Read API (separate read-only connections; WAL permits concurrent
    # readers while the writer commits)
    # ------------------------------------------------------------------
    def events(
        self,
        since: int = 0,
        kind: str | None = None,
        limit: int | None = None,
    ) -> list[Event]:
        """Committed events with ``seq > since``, ascending.

        ``kind`` filters to one event kind; ``limit`` caps the result.
        Only committed events are visible — call :meth:`sync` first to
        read everything appended.
        """
        if kind is not None and kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        sql = f"SELECT {_COLUMNS} FROM events WHERE seq > ?"
        params: list = [since]
        if kind is not None:
            sql += " AND kind = ?"
            params.append(kind)
        sql += " ORDER BY seq"
        if limit is not None:
            sql += " LIMIT ?"
            params.append(limit)
        with self._read_conn() as conn:
            return [Event.from_row(row) for row in conn.execute(sql, params)]

    def count(self, kind: str | None = None) -> int:
        """Number of committed events (optionally of one kind)."""
        with self._read_conn() as conn:
            if kind is None:
                return conn.execute("SELECT COUNT(*) FROM events").fetchone()[0]
            return conn.execute(
                "SELECT COUNT(*) FROM events WHERE kind = ?", (kind,)
            ).fetchone()[0]

    def _read_conn(self):
        return _closing_conn(self.path)

    @staticmethod
    def read(path) -> "_EventLogReader":
        """Open an existing log read-only (no writer thread) — what
        recovery and analytics use on a dead run's log file."""
        return _EventLogReader(path)

    def __repr__(self) -> str:
        return (
            f"EventLog({str(self.path)!r}, last_seq={self.last_seq}, "
            f"durable_seq={self.durable_seq})"
        )

    # ------------------------------------------------------------------
    # Writer thread
    # ------------------------------------------------------------------
    def _raise_if_unusable(self) -> None:
        if self._error is not None:
            raise EventLogError(
                f"event log writer failed: {self._error!r}"
            ) from self._error
        if self._closed:
            raise EventLogError("event log is closed")

    def _writer_loop(self) -> None:
        while True:
            self._wake.wait(timeout=0.5)
            self._wake.clear()
            with self._lock:
                batch = [
                    self._buffer.popleft()
                    for _ in range(min(len(self._buffer), self.batch_size))
                ]
                closed = self._closed and not self._buffer and not batch
            if closed:
                return
            if not batch:
                continue
            try:
                self._conn.executemany(
                    "INSERT INTO events (seq, tick, kind, campaign_id, client, "
                    "trace_id, payload) VALUES (?, ?, ?, ?, ?, ?, ?)",
                    [(e.seq,) + e.to_row() for e in batch],
                )
                self._conn.commit()
            except BaseException as exc:  # noqa: BLE001 — writer must not die silently
                _LOG.error(
                    "event log writer failed", extra={"path": str(self.path)},
                    exc_info=True,
                )
                with self._lock:
                    self._error = exc
                    self._not_full.notify_all()
                    self._progress.notify_all()
                return
            with self._lock:
                self._durable_seq = batch[-1].seq
                remaining = len(self._buffer)
                self._not_full.notify_all()
                self._progress.notify_all()
            if self._m_committed is not None:
                self._m_committed.inc(len(batch))
                self._m_batches.inc()
                self._m_buffered.set(remaining)
            if remaining:
                self._wake.set()


class _EventLogReader:
    """Read-only view over a log file; safe on logs of dead processes."""

    def __init__(self, path) -> None:
        self.path = pathlib.Path(path)
        if not self.path.exists():
            raise FileNotFoundError(f"no event log at {self.path}")

    @property
    def last_seq(self) -> int:
        with _closing_conn(self.path) as conn:
            row = conn.execute("SELECT MAX(seq) FROM events").fetchone()
        return row[0] or 0

    def events(self, since: int = 0, kind: str | None = None) -> list[Event]:
        if kind is not None and kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        sql = f"SELECT {_COLUMNS} FROM events WHERE seq > ?"
        params: list = [since]
        if kind is not None:
            sql += " AND kind = ?"
            params.append(kind)
        with _closing_conn(self.path) as conn:
            return [
                Event.from_row(row)
                for row in conn.execute(sql + " ORDER BY seq", params)
            ]

    def count(self, kind: str | None = None) -> int:
        with _closing_conn(self.path) as conn:
            if kind is None:
                return conn.execute("SELECT COUNT(*) FROM events").fetchone()[0]
            return conn.execute(
                "SELECT COUNT(*) FROM events WHERE kind = ?", (kind,)
            ).fetchone()[0]


class _closing_conn:
    """Context manager: a short-lived read connection to ``path``."""

    def __init__(self, path) -> None:
        self._path = path

    def __enter__(self) -> sqlite3.Connection:
        self._conn = sqlite3.connect(self._path)
        return self._conn

    def __exit__(self, *exc_info) -> None:
        self._conn.close()

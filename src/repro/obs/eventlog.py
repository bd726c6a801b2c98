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
number, adds the event to the open batch, and returns.  A full batch of
:data:`BATCH_EVENTS`, or whatever is open when :meth:`EventLog.flush`
runs, is handed to one writer thread through a bounded queue; the writer
encodes each batch and commits it in one sqlite transaction, in seq
order.  Backpressure is blocking: while :data:`QUEUED_BATCHES` batches
wait for the writer, the next hand-off waits too — events are never
silently dropped.  The engine's tick-boundary hooks call
:meth:`~EventLog.flush` (hand off the tick's events, don't wait for the
commit) and checkpoint saves call :meth:`~EventLog.sync` (wait until
every appended event is committed, so the recorded ``last_seq`` is
durable before the manifest renames into place).

Durability model: sqlite WAL journal.  Each writer transaction appends
to the WAL; a killed process loses nothing already committed, and an
uncommitted trailing batch disappears atomically — the log on disk is
always a gap-free prefix of what was appended.  Sequence numbers are
assigned at append time (not commit time) from ``MAX(seq)+1`` at open,
so producers can record "everything up to seq N" markers synchronously.
"""

from __future__ import annotations

import contextlib
import logging
import pathlib
import queue
import sqlite3
import threading

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
_INSERT = f"INSERT INTO events ({_COLUMNS}) VALUES (?, ?, ?, ?, ?, ?, ?)"

#: Events per batch: ``log`` hands the open batch off once it is this full.
BATCH_EVENTS = 512
#: Batches that may wait for the writer before a hand-off blocks.
QUEUED_BATCHES = 8


class EventLogError(RuntimeError):
    """The background writer failed, or the log is closed."""


class EventLog:
    """Append-only event log with one background writer.

    ``path`` is the sqlite database file (created if missing, appended
    to if present — reopening a log continues its sequence).
    """

    #: Events the hand-off queue holds when full (the readiness bound).
    capacity = BATCH_EVENTS * QUEUED_BATCHES

    def __init__(self, path) -> None:
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(self.path, check_same_thread=False)
        self._conn.executescript(_SCHEMA)
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        (last,) = self._conn.execute("SELECT MAX(seq) FROM events").fetchone()
        self._next_seq = (last or 0) + 1
        self._durable_seq = self._next_seq - 1
        # The lock orders producers: a seq, its place in the open batch
        # and the batch's place in the queue are taken together, so the
        # writer commits in seq order.
        self._lock = threading.Lock()
        self._batch: list[Event] = []
        self._queue: queue.Queue[list[Event] | None] = queue.Queue(QUEUED_BATCHES)
        self._closed = False
        self._error: Exception | None = None
        self._writer = threading.Thread(
            target=self._write_batches,
            name=f"eventlog-writer:{self.path.name}",
            daemon=True,
        )
        self._writer.start()

    # ------------------------------------------------------------------
    # Producer API
    # ------------------------------------------------------------------
    def log(self, kind: str, tick: int, payload: dict | None = None, **cols) -> int:
        """Build one :class:`Event`, batch it, and return its sequence number.

        The event is built once, with its sequence number, under the
        lock.  Blocks only when a full batch must wait for room in the
        hand-off queue (backpressure, never loss).  The event is durable
        once :meth:`sync` returns.  ``cols`` are the optional filter
        columns (``campaign_id``, ``client``, ``trace_id``).
        """
        with self._lock:
            self._raise_if_unusable()
            seq = self._next_seq
            self._batch.append(
                Event(kind=kind, tick=tick, payload=payload or {}, seq=seq, **cols)
            )
            self._next_seq = seq + 1
            if len(self._batch) >= BATCH_EVENTS:
                self._hand_off()
        return seq

    def append(self, event: Event) -> int:
        """Batch a prebuilt ``event`` under the next sequence number.

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

    def log_tick(self, core, report, admissions_seen: int, **counters) -> int:
        """Append one finished tick's rows; returns the new ``admissions_seen``.

        The rows are an ``admission`` row for each entry of ``core``'s
        admission log from index ``admissions_seen`` on, then the
        ``tick`` row: the seven engine counters of ``report`` (a
        :class:`~repro.engine.clock.TickReport`) plus ``counters``.  The
        scenario driver and the serving gateway both write their tick
        rows here; the gateway adds its drain's ``queue_depth`` and
        ``drained``.
        """
        new = core.admissions_since(admissions_seen)
        for interval, campaign_ids in new:
            self.log("admission", interval, {"campaign_ids": list(campaign_ids)})
        self.log(
            "tick",
            report.interval,
            {
                "admitted": report.admitted,
                "arrived": report.arrived,
                "considered": report.considered,
                "accepted": report.accepted,
                "retired": len(report.retired),
                "num_live": report.num_live,
                "idle": report.idle,
                **counters,
            },
        )
        return admissions_seen + len(new)

    def flush(self) -> None:
        """Hand the open batch to the writer; does not wait for the commit.

        The engine's tick-boundary hook calls this so batches track tick
        boundaries instead of arbitrary fill levels.
        """
        with self._lock:
            self._raise_if_unusable()
            self._hand_off()

    def sync(self) -> int:
        """Block until every appended event is committed; return the
        last durable sequence number.

        Checkpoint saves call this *before* recording ``last_seq`` in
        the bundle extras, making "events up to last_seq are on disk" an
        invariant recovery can rely on.
        """
        self.flush()
        self._queue.join()
        self._raise_if_unusable()
        return self._durable_seq

    def close(self) -> None:
        """Commit what is appended, stop the writer, and close the database.

        Returns even after a writer failure; events the failed writer
        acknowledged were never written.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._hand_off()
            self._queue.put(None)
        self._writer.join()
        self._conn.close()

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Introspection (lock-free: a producer blocked on a full queue holds
    # the lock, and the readiness probe must still answer)
    # ------------------------------------------------------------------
    @property
    def last_seq(self) -> int:
        """Highest sequence number assigned so far (0 if none)."""
        return self._next_seq - 1

    @property
    def durable_seq(self) -> int:
        """Highest sequence number committed to sqlite (0 if none)."""
        return self._durable_seq

    @property
    def buffered(self) -> int:
        """Events appended but not yet committed."""
        return self._next_seq - 1 - self._durable_seq

    @property
    def healthy(self) -> bool:
        """True while the log accepts appends (open, writer not failed)."""
        return self._error is None and not self._closed

    @property
    def saturated(self) -> bool:
        """True while the hand-off queue is full: the next hand-off blocks.

        The readiness probe (:mod:`repro.obs.ops`) reads this together
        with :attr:`healthy`: a failed or lagging writer means appends
        would raise or block, so the run is not admission-ready.
        """
        return self._queue.full()

    @staticmethod
    def read(path) -> "_EventLogReader":
        """Open an existing log read-only (no writer thread) — what
        recovery and analytics use on a dead run's log file.  On a live
        log it sees what :meth:`sync` has committed."""
        return _EventLogReader(path)

    def __repr__(self) -> str:
        return (
            f"EventLog({str(self.path)!r}, last_seq={self.last_seq}, "
            f"durable_seq={self.durable_seq})"
        )

    # ------------------------------------------------------------------
    # Hand-off and writer thread
    # ------------------------------------------------------------------
    def _raise_if_unusable(self) -> None:
        if self._error is not None:
            raise EventLogError(
                f"event log writer failed: {self._error!r}"
            ) from self._error
        if self._closed:
            raise EventLogError("event log is closed")

    def _hand_off(self) -> None:
        """Queue the open batch for the writer (the caller holds the lock)."""
        if self._batch:
            self._queue.put(self._batch)
            self._batch = []

    def _write_batches(self) -> None:
        """Commit each handed-off batch until the ``None`` from :meth:`close`.

        After a failed commit the error is stored for the producers and
        later batches are acknowledged unwritten, so :meth:`sync` and
        :meth:`close` never wait on a dead writer.
        """
        while (batch := self._queue.get()) is not None:
            if self._error is None:
                try:
                    self._conn.executemany(
                        _INSERT, [(e.seq,) + e.to_row() for e in batch]
                    )
                    self._conn.commit()
                    self._durable_seq = batch[-1].seq
                except Exception as exc:  # stored; the producers raise it
                    _LOG.error(
                        "event log writer failed",
                        extra={"path": str(self.path)},
                        exc_info=True,
                    )
                    self._error = exc
            self._queue.task_done()


class _EventLogReader:
    """Read-only view over a log file; safe on logs of dead processes."""

    def __init__(self, path) -> None:
        self.path = pathlib.Path(path)
        if not self.path.exists():
            raise FileNotFoundError(f"no event log at {self.path}")

    def _connect(self):
        return contextlib.closing(sqlite3.connect(self.path))

    @property
    def last_seq(self) -> int:
        with self._connect() as conn:
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
        with self._connect() as conn:
            return [
                Event.from_row(row)
                for row in conn.execute(sql + " ORDER BY seq", params)
            ]

    def count(self, kind: str | None = None) -> int:
        with self._connect() as conn:
            if kind is None:
                return conn.execute("SELECT COUNT(*) FROM events").fetchone()[0]
            return conn.execute(
                "SELECT COUNT(*) FROM events WHERE kind = ?", (kind,)
            ).fetchone()[0]

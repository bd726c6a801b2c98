"""Durable event log: append/flush/sync semantics, the writer's failure
and backlog paths, and the rows of the golden serve trace."""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import sqlite3
import sys
import threading
import time

import pytest

from repro.obs import EVENT_KINDS, Event, EventLog
from repro.obs.eventlog import BATCH_EVENTS, QUEUED_BATCHES, EventLogError
from repro.obs.ops import OpsServer
from repro.obs.events import trace_id_for_seq
from tests.golden.cases import build_driver, run_serve_case
from tests.obs.test_ops import body_of, started_gateway


def committed(log: EventLog) -> list[Event]:
    """Every committed event of ``log``, read back through a reader."""
    return EventLog.read(log.path).events()


def within(seconds: float, call):
    """``call()``'s result, failing instead of hanging if it blocks for
    longer than ``seconds`` (as it would on a writer that stopped)."""
    outcome: dict = {}

    def run():
        try:
            outcome["value"] = call()
        except BaseException as exc:  # re-raised on the test's thread
            outcome["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=seconds)
    assert not thread.is_alive(), f"{call} still blocked after {seconds} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


class TestEvent:
    def test_kinds_are_pinned(self):
        assert EVENT_KINDS == (
            "admission", "cancel", "tick", "request", "response",
            "checkpoint", "run",
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            Event(kind="mystery", tick=0)

    def test_row_round_trip(self):
        event = Event(
            kind="cancel", tick=7, payload={"result": "dropped"},
            campaign_id="c-1", client="alice", trace_id="req-000003",
        )
        row = (5,) + event.to_row()
        back = Event.from_row(row)
        assert back == Event(
            kind="cancel", tick=7, payload={"result": "dropped"},
            campaign_id="c-1", client="alice", trace_id="req-000003", seq=5,
        )

    def test_payload_serializes_sorted(self):
        event = Event(kind="tick", tick=0, payload={"b": 1, "a": 2})
        assert event.to_row()[-1] == json.dumps(
            {"a": 2, "b": 1}, sort_keys=True
        )


class TestEventLog:
    def test_append_assigns_contiguous_seqs(self, tmp_path):
        log = EventLog(tmp_path / "e.sqlite")
        seqs = [log.log("tick", t, {"n": t}) for t in range(10)]
        # Seqs are 1-based: 0 is the "empty log" sentinel, so last_seq
        # doubles as the event count and ``since=0`` means "everything".
        assert seqs == list(range(1, 11))
        assert log.last_seq == 10
        log.close()

    def test_append_of_a_prebuilt_event_takes_the_next_seq(self, tmp_path):
        log = EventLog(tmp_path / "e.sqlite")
        event = Event(
            kind="cancel", tick=1, payload={"result": "dropped"},
            campaign_id="c-1", client="alice", trace_id="req-000001", seq=99,
        )
        assert log.log("tick", 0) == 1
        assert log.append(event) == 2  # its own seq is replaced
        assert log.log("tick", 2) == 3
        log.sync()
        events = committed(log)
        log.close()
        assert [e.seq for e in events] == [1, 2, 3]
        assert events[1] == dataclasses.replace(event, seq=2)

    def test_sync_makes_everything_readable(self, tmp_path):
        path = tmp_path / "e.sqlite"
        log = EventLog(path)
        for t in range(25):
            log.log("tick", t)
        durable = log.sync()
        assert durable == 25
        assert log.durable_seq == 25
        assert [e.seq for e in committed(log)] == list(range(1, 26))
        log.close()

    def test_reader_after_close(self, tmp_path):
        path = tmp_path / "e.sqlite"
        log = EventLog(path)
        log.log("run", 0, {"action": "start"})
        log.log("admission", 1, {"campaign_ids": ["a", "b"]})
        log.close()
        reader = EventLog.read(path)
        assert reader.last_seq == 2
        assert reader.count() == 2
        assert reader.count("admission") == 1
        (event,) = reader.events(kind="admission")
        assert event.payload == {"campaign_ids": ["a", "b"]}
        assert event.tick == 1

    def test_read_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            EventLog.read(tmp_path / "nope.sqlite")

    def test_events_since_filters_on_log_seq(self, tmp_path):
        log = EventLog(tmp_path / "e.sqlite")
        for t in range(6):
            log.log("tick", t)
        log.sync()
        reader = EventLog.read(log.path)
        assert [e.seq for e in reader.events(since=3)] == [4, 5, 6]
        assert [e.tick for e in reader.events(since=3)] == [3, 4, 5]
        log.close()

    def test_append_after_close_raises(self, tmp_path):
        log = EventLog(tmp_path / "e.sqlite")
        log.close()
        with pytest.raises(EventLogError):
            log.log("tick", 0)

    def test_reopen_continues_sequence(self, tmp_path):
        """A recovered process appends after the durable prefix."""
        path = tmp_path / "e.sqlite"
        log = EventLog(path)
        for t in range(4):
            log.log("tick", t)
        log.close()
        log2 = EventLog(path)
        assert log2.log("run", 4, {"action": "resume"}) == 5
        log2.sync()
        assert [e.kind for e in committed(log2)] == ["tick"] * 4 + ["run"]
        log2.close()

    def test_batched_writer_commits_in_order(self, tmp_path):
        """Durable region is always a contiguous seq prefix, across full
        batches and the partial ones ``flush`` hands off."""
        total = 3 * BATCH_EVENTS + 100
        log = EventLog(tmp_path / "e.sqlite")
        for t in range(total):
            log.log("tick", t, {"t": t})
            if t % 700 == 0:  # rarer than BATCH_EVENTS: full batches too
                log.flush()
        log.sync()
        events = committed(log)
        assert [e.seq for e in events] == list(range(1, total + 1))
        assert [e.payload["t"] for e in events] == list(range(total))
        log.close()

    def test_concurrent_appenders_never_lose_events(self, tmp_path):
        log = EventLog(tmp_path / "e.sqlite")

        def pump(client):
            for t in range(1000):
                log.log("request", t, {"n": t}, client=client)

        threads = [
            threading.Thread(target=pump, args=(f"c{i}",)) for i in range(8)
        ]
        # Switch threads as often as possible, so producers interleave
        # inside log() and at full-batch hand-offs.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        log.sync()
        events = committed(log)
        # 8,000 events: the threads race to hand off full batches, and a
        # batch handed off twice or reordered breaks the seq range.
        assert [e.seq for e in events] == list(range(1, 8001))
        # Per-client payload order follows append order.
        for i in range(8):
            mine = [e.payload["n"] for e in events if e.client == f"c{i}"]
            assert mine == list(range(1000))
        log.close()

    def test_flush_does_not_block(self, tmp_path):
        log = EventLog(tmp_path / "e.sqlite")
        log.log("tick", 0)
        # flush is a hand-off, not a wait: callable any number of times.
        for _ in range(5):
            log.flush()
        assert log.sync() == 1
        log.close()


class _HeldConnection:
    """A sqlite connection whose commits wait until the test releases them."""

    def __init__(self, conn: sqlite3.Connection) -> None:
        self._conn = conn
        self.entered = threading.Event()
        self.release = threading.Event()

    def executemany(self, sql, rows):
        return self._conn.executemany(sql, rows)

    def commit(self) -> None:
        self.entered.set()
        self.release.wait(timeout=30)
        self._conn.commit()

    def close(self) -> None:
        self._conn.close()


class TestWriterFailureAndBacklog:
    def test_a_failed_commit_fails_sync_readiness_and_later_logs(self, tmp_path):
        log = EventLog(tmp_path / "e.sqlite")
        log.log("tick", 0, {"ok": 1})
        assert log.sync() == 1
        log.log("tick", 1, {"tags": {"a", "b"}})  # JSON cannot encode a set
        with pytest.raises(EventLogError, match="writer failed") as failure:
            within(10, log.sync)
        assert isinstance(failure.value.__cause__, TypeError)
        assert not log.healthy
        assert log.durable_seq == 1
        reply = OpsServer(started_gateway(), event_log=log).handle("/readyz")
        assert reply[0] == 503
        check = body_of(reply)["checks"]["event_log"]
        assert check["ok"] is False
        assert check["detail"] == "writer failed"
        with pytest.raises(EventLogError, match="writer failed"):
            log.log("tick", 2)
        within(10, log.close)  # returns despite the failed writer
        assert [e.seq for e in committed(log)] == [1]

    def test_a_held_writer_fills_the_queue_and_then_commits_in_order(
        self, tmp_path
    ):
        log = EventLog(tmp_path / "e.sqlite")
        held = log._conn = _HeldConnection(log._conn)
        log.log("tick", 0)
        log.flush()
        assert held.entered.wait(timeout=10)  # batch 1 is mid-commit
        for t in range(1, QUEUED_BATCHES + 1):
            log.log("tick", t)
            log.flush()  # one one-event batch per hand-off
        assert log.saturated
        backlog = QUEUED_BATCHES + 2

        # The next hand-off waits for room; the event is not dropped.
        producer = threading.Thread(
            target=lambda: (log.log("tick", 99), log.flush())
        )
        producer.start()
        for _ in range(1000):
            if log.last_seq == backlog:
                break
            time.sleep(0.01)
        producer.join(timeout=0.2)
        assert producer.is_alive()

        reply = OpsServer(started_gateway(), event_log=log).handle("/readyz")
        assert reply[0] == 503
        check = body_of(reply)["checks"]["event_log"]
        assert check["ok"] is False
        assert check["backlog"] == backlog
        assert check["capacity"] == BATCH_EVENTS * QUEUED_BATCHES
        assert check["detail"] == f"writer backlog at capacity ({backlog})"

        held.release.set()
        producer.join(timeout=10)
        assert not producer.is_alive()
        assert within(10, log.sync) == backlog
        assert not log.saturated
        log.close()
        events = committed(log)
        assert [e.seq for e in events] == list(range(1, backlog + 1))
        assert [e.tick for e in events] == list(range(QUEUED_BATCHES + 1)) + [99]


def _committed_rows(path) -> list[tuple]:
    """All seven columns of every committed row, in seq order."""
    with contextlib.closing(sqlite3.connect(path)) as conn:
        return conn.execute(
            "SELECT seq, tick, kind, campaign_id, client, trace_id, payload "
            "FROM events ORDER BY seq"
        ).fetchall()


def _digest(rows: list[tuple]) -> str:
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


#: sha256 of the golden serve trace's ``events`` rows, all seven columns
#: in seq order, as the log committed them before its writer took batches
#: from a hand-off queue.  Any change to a row's bytes or order fails here.
GOLDEN_ROW_DIGESTS = {
    None: "0c219aa1c540efb39128e2b1ea0330c7ddfa682b066082f47ff4c95fd4c0bfe2",
    ("acme", "beta", "gamma"): (
        "0ca1086dd099aa81158b3c940aa95bf79c7fd37db063486ddf33b056eca27943"
    ),
}


@pytest.mark.parametrize(
    "tenants", list(GOLDEN_ROW_DIGESTS), ids=["untagged", "three-tenants"]
)
def test_golden_serve_trace_rows_are_pinned(tmp_path, tenants):
    log = EventLog(tmp_path / "events.sqlite")
    run_serve_case("serve_flash_crowd", tenants=tenants, event_log=log)
    log.close()
    rows = _committed_rows(log.path)
    assert [row[0] for row in rows] == list(range(1, 153))
    assert _digest(rows) == GOLDEN_ROW_DIGESTS[tenants]


#: sha256 of the rows a :class:`~repro.scenario.driver.ScenarioDriver`
#: writes for two golden cases (run, admission, cancel and tick rows),
#: in the same form as :data:`GOLDEN_ROW_DIGESTS`.
DRIVER_ROW_DIGESTS = {
    "pooled_small": (
        "1ffa78f386aee9cd2337e9b4f65ffe41f3b859c3c198fdd587215f970df54ad1"
    ),
    "factored_small": (
        "744e15dcaadcdc0e0174efef4c5b741bcd1ac2c18a47d948cf15cb564fa391c2"
    ),
}


@pytest.mark.parametrize("case", list(DRIVER_ROW_DIGESTS))
def test_golden_driver_rows_are_pinned(tmp_path, case):
    log = EventLog(tmp_path / "events.sqlite")
    build_driver(case, event_log=log).run()
    log.close()
    rows = _committed_rows(log.path)
    assert [row[0] for row in rows] == list(range(1, 38))
    assert _digest(rows) == DRIVER_ROW_DIGESTS[case]


@pytest.mark.parametrize(
    "tenants", [None, ("acme", "beta", "gamma")],
    ids=["untagged", "three-tenants"],
)
def test_every_request_row_pairs_with_one_response_row(tmp_path, tenants):
    """A served request's trace id joins its rows: one request row, one
    response row for the same client and seq at the same tick or later,
    and any cancel row it applied."""
    log = EventLog(tmp_path / "events.sqlite")
    run_serve_case("serve_flash_crowd", tenants=tenants, event_log=log)
    log.close()
    events = committed(log)
    requests = [e for e in events if e.kind == "request"]
    by_trace = {e.trace_id: e for e in requests}
    assert len(by_trace) == len(requests)
    responses: dict[str, list[Event]] = {}
    for event in events:
        if event.kind == "response":
            responses.setdefault(event.trace_id, []).append(event)
    assert set(responses) == set(by_trace)
    for trace_id, request in by_trace.items():
        assert trace_id == trace_id_for_seq(request.payload["seq"])
        (response,) = responses[trace_id]
        assert response.client == request.client
        assert response.tick >= request.tick
        assert response.payload["seq"] == request.payload["seq"]
    cancels = [e for e in events if e.kind == "cancel"]
    assert all(e.trace_id in by_trace for e in cancels)
    assert (len(requests), len(cancels)) == (54, 3)

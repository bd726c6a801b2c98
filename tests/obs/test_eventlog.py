"""Durable event log: append/flush/sync semantics and the read path."""

from __future__ import annotations

import dataclasses
import json
import threading

import pytest

from repro.obs import EVENT_KINDS, Event, EventLog, MetricsRegistry
from repro.obs.eventlog import EventLogError


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
        events = log.events()
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
        assert [e.seq for e in log.events()] == list(range(1, 26))
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
        assert [e.seq for e in log.events(since=3)] == [4, 5, 6]
        assert [e.tick for e in log.events(since=3)] == [3, 4, 5]
        log.close()

    def test_events_limit(self, tmp_path):
        log = EventLog(tmp_path / "e.sqlite")
        for t in range(9):
            log.log("tick", t)
        log.sync()
        assert len(log.events(limit=4)) == 4
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
        assert [e.kind for e in log2.events()] == ["tick"] * 4 + ["run"]
        log2.close()

    def test_batched_writer_commits_in_order(self, tmp_path):
        """Durable region is always a contiguous seq prefix."""
        log = EventLog(tmp_path / "e.sqlite", batch_size=16)
        for t in range(300):
            log.log("tick", t, {"t": t})
            if t % 50 == 0:
                log.flush()
        log.sync()
        events = log.events()
        assert [e.seq for e in events] == list(range(1, 301))
        assert [e.payload["t"] for e in events] == list(range(300))
        log.close()

    def test_concurrent_appenders_never_lose_events(self, tmp_path):
        log = EventLog(tmp_path / "e.sqlite", batch_size=32)

        def pump(client):
            for t in range(100):
                log.log("request", t, {"n": t}, client=client)

        threads = [
            threading.Thread(target=pump, args=(f"c{i}",)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        log.sync()
        events = log.events()
        assert len(events) == 400
        # Per-client payload order follows append order.
        for i in range(4):
            mine = [e.payload["n"] for e in events if e.client == f"c{i}"]
            assert mine == list(range(100))
        log.close()

    def test_metrics_wiring(self, tmp_path):
        registry = MetricsRegistry()
        log = EventLog(tmp_path / "e.sqlite", metrics=registry)
        for t in range(12):
            log.log("tick", t)
        log.sync()
        snapshot = registry.to_dict()
        appended = snapshot["obs_events_appended_total"]["series"][0]["value"]
        committed = snapshot["obs_events_committed_total"]["series"][0]["value"]
        assert appended == 12
        assert committed == 12
        log.close()

    def test_flush_does_not_block(self, tmp_path):
        log = EventLog(tmp_path / "e.sqlite")
        log.log("tick", 0)
        # flush is a wake-up, not a wait: callable any number of times.
        for _ in range(5):
            log.flush()
        assert log.sync() == 1
        log.close()

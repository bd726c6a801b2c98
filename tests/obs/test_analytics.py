"""SQL analytics: canned queries vs brute force, goldens, and loading."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import AnalyticsDB, EventLog
from repro.obs.analytics import (
    AnalyticsError,
    canned_queries,
    render_table,
)
from tests.golden.cases import (
    ANALYTICS_WINDOW,
    SCENARIO_SEED,
    analytics_path,
    build_serve_gateway,
    run_analytics_case,
    tenant_tagged_trace,
)

_TELEMETRY_COLUMNS = (
    "interval", "num_live", "admitted", "arrived", "considered", "accepted",
    "retired", "cancelled", "rate_factor", "cache_hits", "cache_misses",
    "repricer_solves", "tasks_remaining", "idle",
)
_SERVE_COLUMNS = (
    "interval", "queue_depth", "drained", "admitted", "rejected", "cancels",
    "snapshots", "reads",
)


def engine_telemetry(num_ticks, **overrides):
    """Minimal engine-form telemetry dict: zeros except the overrides."""
    series = {col: [0] * num_ticks for col in _TELEMETRY_COLUMNS}
    series["interval"] = list(range(num_ticks))
    series["rate_factor"] = [1.0] * num_ticks
    series.update(overrides)
    return {"series": series, "campaigns": []}


def gateway_telemetry(num_ticks, **serve_overrides):
    """Minimal gateway-form telemetry: serve series wrapping engine series."""
    serve = {col: [0] * num_ticks for col in _SERVE_COLUMNS}
    serve["interval"] = list(range(num_ticks))
    serve.update(serve_overrides)
    return {"serve": serve, "engine": engine_telemetry(num_ticks)}


class TestGolden:
    def test_flash_crowd_analytics_matches_committed(self):
        committed = json.loads(analytics_path().read_text())
        assert run_analytics_case() == committed

    def test_golden_covers_enough_queries(self):
        committed = json.loads(analytics_path().read_text())
        assert committed["window"] == ANALYTICS_WINDOW
        assert len(committed["queries"]) >= 5
        for name, result in committed["queries"].items():
            assert result["rows"], f"{name} golden has no rows"


class TestCatalog:
    def test_names_are_unique_and_pinned(self):
        names = [q.name for q in canned_queries()]
        assert len(names) == len(set(names))
        assert set(names) == {
            "queue-depth", "admission-rates", "cache-hit-trend",
            "campaign-fill", "arrival-modulation", "event-mix",
            "request-outcomes",
        }

    def test_unknown_query_rejected(self):
        with AnalyticsDB() as db:
            with pytest.raises(AnalyticsError, match="unknown canned query"):
                db.run("nope")

    def test_unmet_requires_names_the_fix(self):
        with AnalyticsDB() as db:
            with pytest.raises(AnalyticsError, match="event log"):
                db.run("event-mix")
            with pytest.raises(AnalyticsError, match="gateway telemetry"):
                db.run("queue-depth")

    def test_bad_window_rejected(self):
        with AnalyticsDB() as db:
            db.load_telemetry(engine_telemetry(4))
            with pytest.raises(AnalyticsError, match="window must be >= 1"):
                db.run("cache-hit-trend", window=0)


class TestLoading:
    def test_dict_and_path_load_identically(self, tmp_path):
        data = engine_telemetry(6, arrived=[3, 1, 4, 1, 5, 9])
        path = tmp_path / "telemetry.json"
        path.write_text(json.dumps(data))
        with AnalyticsDB() as from_dict, AnalyticsDB() as from_path:
            from_dict.load_telemetry(data)
            from_path.load_telemetry(path)
            assert from_dict.query("SELECT * FROM telemetry") == \
                from_path.query("SELECT * FROM telemetry")

    def test_gateway_form_fills_serve_and_engine(self):
        data = gateway_telemetry(5, queue_depth=[0, 2, 3, 1, 0])
        with AnalyticsDB() as db:
            db.load_telemetry(data)
            assert {"serve", "telemetry", "campaigns"} <= db.loaded
            _, rows = db.query("SELECT queue_depth FROM serve ORDER BY interval")
            assert [r[0] for r in rows] == [0, 2, 3, 1, 0]

    def test_gateway_form_without_engine_rejected(self):
        data = gateway_telemetry(3)
        del data["engine"]
        with AnalyticsDB() as db:
            with pytest.raises(AnalyticsError, match="no 'engine' section"):
                db.load_telemetry(data)

    def test_non_telemetry_dict_rejected(self):
        with AnalyticsDB() as db:
            with pytest.raises(AnalyticsError, match="not a telemetry file"):
                db.load_telemetry({"what": "ever"})

    def test_missing_series_field_named(self):
        data = engine_telemetry(3)
        del data["series"]["cache_hits"]
        with AnalyticsDB() as db:
            with pytest.raises(AnalyticsError, match="cache_hits"):
                db.load_telemetry(data)


class TestEventQueries:
    @pytest.fixture()
    def event_db(self, tmp_path):
        with EventLog(tmp_path / "events.sqlite") as log:
            for tick in range(6):
                log.log("tick", tick)
            pairs = [  # (request tick, response tick, status)
                (0, 1, "ok"),
                (1, 3, "rejected"),
                (5, None, None),
            ]
            for i, (req_tick, resp_tick, status) in enumerate(pairs):
                trace_id = f"req-{i:06d}"
                log.log("request", req_tick, {"kind": "quote"}, trace_id=trace_id)
                if resp_tick is not None:
                    log.log(
                        "response", resp_tick, {"status": status},
                        trace_id=trace_id,
                    )
            log.sync()
            db = AnalyticsDB().load_event_log(log.path)
        yield db
        db.close()

    def test_event_mix_counts_and_cumulates(self, event_db):
        columns, rows = event_db.run("event-mix", window=4)
        assert columns == ("window_start", "kind", "events", "cumulative")
        result = {(r[0], r[1]): (r[2], r[3]) for r in rows}
        assert result[(0, "tick")] == (4, 4)
        assert result[(4, "tick")] == (2, 6)
        assert result[(0, "request")] == (2, 2)
        assert result[(4, "request")] == (1, 3)
        assert result[(0, "response")] == (2, 2)

    def test_request_outcomes_join(self, event_db):
        columns, rows = event_db.run("request-outcomes", window=4)
        by_window = {r[0]: dict(zip(columns[1:], r[1:])) for r in rows}
        first = by_window[0]
        assert first["requests"] == 2
        assert first["ok"] == 1
        assert first["rejected"] == 1
        assert first["unresolved"] == 0
        assert first["mean_ticks_to_response"] == pytest.approx(1.5)
        tail = by_window[4]
        assert tail["requests"] == 1
        assert tail["unresolved"] == 1
        assert tail["mean_ticks_to_response"] is None


    def test_served_requests_each_get_one_trace_id(self, tmp_path):
        """The join counts every request of a served trace once.

        Trace ids come from one arrival counter, so the tenant-tagged
        golden trace logs as many distinct ids as requests.
        """
        trace = tenant_tagged_trace(("acme", "beta", "gamma"))
        log = EventLog(tmp_path / "events.sqlite")
        gateway = build_serve_gateway(
            "serve_flash_crowd", tenant_weights={"acme": 2.0},
            sinks={"event_log": log},
        )
        gateway.start(seed=SCENARIO_SEED)
        gateway.replay(trace)
        gateway.close()
        log.close()
        requests = EventLog.read(log.path).events(kind="request")
        assert len(requests) == len(trace.requests) == 54
        assert len({event.trace_id for event in requests}) == 54
        with AnalyticsDB() as db:
            db.load_event_log(log.path)
            rows = db.run_as_dicts("request-outcomes", window=1000)
        assert sum(row["requests"] for row in rows) == 54
        assert sum(row["unresolved"] for row in rows) == 0


class TestRenderTable:
    def test_alignment_and_none(self):
        text = render_table(
            ("name", "value"), [("queue", 12), ("hit_rate", None)]
        )
        lines = text.splitlines()
        assert lines[0] == "name      value"
        assert lines[1] == "--------  -----"
        assert lines[2] == "queue     12"
        assert lines[3] == "hit_rate"

    def test_empty_rows(self):
        text = render_table(("a",), [])
        assert text.splitlines() == ["a", "-"]


series_strategy = st.lists(
    st.tuples(st.integers(0, 40), st.integers(0, 40)),
    min_size=1,
    max_size=40,
)


class TestAgainstBruteForce:
    @settings(max_examples=30, deadline=None)
    @given(pairs=series_strategy, window=st.integers(1, 10))
    def test_cache_hit_trend_rolling_frame(self, pairs, window):
        hits = [h for h, _ in pairs]
        misses = [m for _, m in pairs]
        with AnalyticsDB() as db:
            db.load_telemetry(
                engine_telemetry(len(pairs), cache_hits=hits, cache_misses=misses)
            )
            rows = db.run_as_dicts("cache-hit-trend", window=window)
        assert len(rows) == len(pairs)
        for tick, row in enumerate(rows):
            lo = max(0, tick - window + 1)
            window_hits = sum(hits[lo:tick + 1])
            window_lookups = window_hits + sum(misses[lo:tick + 1])
            assert row["interval"] == tick
            assert row["window_hits"] == window_hits
            assert row["window_lookups"] == window_lookups
            if window_lookups == 0:
                assert row["hit_rate"] is None
            else:
                assert row["hit_rate"] == pytest.approx(
                    window_hits / window_lookups, abs=1e-4
                )

    @settings(max_examples=30, deadline=None)
    @given(pairs=series_strategy, window=st.integers(1, 10))
    def test_admission_rates_tumbling_windows(self, pairs, window):
        admitted = [a for a, _ in pairs]
        rejected = [r for _, r in pairs]
        with AnalyticsDB() as db:
            db.load_telemetry(
                gateway_telemetry(len(pairs), admitted=admitted, rejected=rejected)
            )
            rows = db.run_as_dicts("admission-rates", window=window)
        starts = sorted({(t // window) * window for t in range(len(pairs))})
        assert [row["window_start"] for row in rows] == starts
        cum_admitted = cum_rejected = 0
        for row in rows:
            lo = row["window_start"]
            hi = min(lo + window, len(pairs))
            win_admitted = sum(admitted[lo:hi])
            win_rejected = sum(rejected[lo:hi])
            cum_admitted += win_admitted
            cum_rejected += win_rejected
            assert row["admitted"] == win_admitted
            assert row["rejected"] == win_rejected
            assert row["cumulative_admitted"] == cum_admitted
            assert row["cumulative_rejected"] == cum_rejected
            total = win_admitted + win_rejected
            if total == 0:
                assert row["rejection_rate"] is None
            else:
                assert row["rejection_rate"] == pytest.approx(
                    win_rejected / total, abs=1e-4
                )

    @settings(max_examples=20, deadline=None)
    @given(
        arrived=st.lists(st.integers(0, 2000), min_size=1, max_size=40),
        window=st.integers(1, 10),
    )
    def test_arrival_modulation_means(self, arrived, window):
        with AnalyticsDB() as db:
            db.load_telemetry(engine_telemetry(len(arrived), arrived=arrived))
            rows = db.run_as_dicts("arrival-modulation", window=window)
        for row in rows:
            lo = row["window_start"]
            hi = min(lo + window, len(arrived))
            assert row["ticks"] == hi - lo
            assert row["total_arrived"] == sum(arrived[lo:hi])
            assert row["mean_arrived"] == pytest.approx(
                sum(arrived[lo:hi]) / (hi - lo), abs=1e-3
            )

"""The live ops plane: endpoint dispatch, readiness checks, live scrapes."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.engine.campaign import CampaignSpec
from repro.obs import EventLog, MetricsRegistry
from repro.obs.ops import ENDPOINTS, OpsServer
from repro.serve import Gateway, SubmitCampaign
from tests.serve.conftest import make_engine


def spec(cid: str, submit: int = 0) -> CampaignSpec:
    return CampaignSpec(
        campaign_id=cid, kind="deadline", num_tasks=10,
        submit_interval=submit, horizon_intervals=6, max_price=25,
    )


def started_gateway(**kwargs) -> Gateway:
    gateway = Gateway(make_engine(), **kwargs)
    gateway.start(seed=3)
    return gateway


def body_of(reply: tuple[int, str, str]) -> dict:
    return json.loads(reply[2])


# ----------------------------------------------------------------------
# Pure dispatch (no sockets)
# ----------------------------------------------------------------------
class TestDispatch:
    def test_index_lists_endpoints(self):
        status, content_type, body = OpsServer().handle("/")
        assert status == 200
        assert json.loads(body)["endpoints"] == list(ENDPOINTS)

    def test_unknown_path_is_404(self):
        status, _, body = OpsServer().handle("/nope")
        assert status == 404
        assert "/metrics" in json.loads(body)["endpoints"]

    def test_query_strings_are_ignored(self):
        status, _, _ = OpsServer().handle("/healthz?verbose=1")
        assert status == 200

    def test_metrics_without_registry_is_404(self):
        status, _, body = OpsServer().handle("/metrics")
        assert status == 404
        assert "registry" in json.loads(body)["error"]

    def test_tenants_and_slo_need_a_target(self):
        ops = OpsServer(metrics=MetricsRegistry())
        assert ops.handle("/tenants")[0] == 404
        assert ops.handle("/slo")[0] == 404


class TestMetricsEndpoint:
    def test_scrape_refreshes_gauges_from_live_state(self):
        gateway = started_gateway()
        gateway.offer(SubmitCampaign(spec("a")))
        gateway.step()
        gateway.offer(SubmitCampaign(spec("b", submit=2)))  # still queued
        ops = OpsServer(gateway, metrics=MetricsRegistry())
        status, content_type, body = ops.handle("/metrics")
        assert status == 200
        assert content_type.startswith("text/plain")
        assert 'serve_queue_depth 1' in body.replace("serve_queue_depth 1.0",
                                                     "serve_queue_depth 1")
        assert "engine_live_campaigns 1" in body
        assert "engine_clock_interval 1" in body

    def test_event_log_backlog_gauge(self, tmp_path):
        log = EventLog(tmp_path / "events.sqlite")
        log.log("tick", 0, {})
        ops = OpsServer(metrics=MetricsRegistry(), event_log=log)
        _, _, body = ops.handle("/metrics")
        assert "eventlog_buffered_events 1" in body
        log.close()


# ----------------------------------------------------------------------
# Health and readiness
# ----------------------------------------------------------------------
class TestHealth:
    def test_healthz_without_target_is_still_alive(self):
        reply = OpsServer().handle("/healthz")
        assert reply[0] == 200
        body = body_of(reply)
        assert body["status"] == "alive"
        assert body["started"] is False
        assert body["clock"] is None

    def test_healthz_reports_live_clock(self):
        gateway = started_gateway()
        gateway.offer(SubmitCampaign(spec("a")))
        gateway.step()
        body = body_of(OpsServer(gateway).handle("/healthz"))
        assert body["started"] is True
        assert body["clock"] == 1
        assert body["live"] == 1

    def test_readyz_rejects_an_unstarted_gateway(self):
        gateway = Gateway(make_engine())
        reply = OpsServer(gateway).handle("/readyz")
        assert reply[0] == 503
        body = body_of(reply)
        assert body["ready"] is False
        assert body["checks"]["session"]["ok"] is False

    def test_readyz_passes_on_a_healthy_gateway(self):
        reply = OpsServer(started_gateway()).handle("/readyz")
        assert reply[0] == 200
        body = body_of(reply)
        assert body["ready"] is True
        assert all(check["ok"] for check in body["checks"].values())
        assert sorted(body["checks"]) == ["event_log", "queue", "session"]

    def test_readyz_sharded_gateway_needs_no_shard_check(self):
        # Shards run inside the serving process, so a sharded engine is
        # ready on exactly the checks a pooled one is.
        gateway = Gateway(make_engine(num_shards=3))
        gateway.start(seed=3)
        gateway.offer(SubmitCampaign(spec("a")))
        gateway.step()
        reply = OpsServer(gateway).handle("/readyz")
        assert reply[0] == 200
        body = body_of(reply)
        assert body["ready"] is True
        assert sorted(body["checks"]) == ["event_log", "queue", "session"]
        assert all(check["ok"] for check in body["checks"].values())

    def test_readyz_full_queue_is_503(self):
        gateway = started_gateway(max_queue=2)
        gateway.offer(SubmitCampaign(spec("a")))
        gateway.offer(SubmitCampaign(spec("b")))
        reply = OpsServer(gateway).handle("/readyz")
        assert reply[0] == 503
        body = body_of(reply)
        assert body["checks"]["queue"]["ok"] is False
        assert body["checks"]["queue"]["depth"] == 2

    def test_readyz_event_log_writer(self, tmp_path):
        log = EventLog(tmp_path / "events.sqlite")
        reply = OpsServer(started_gateway(), event_log=log).handle("/readyz")
        assert body_of(reply)["checks"]["event_log"]["ok"] is True
        log.close()


# ----------------------------------------------------------------------
# Tenants and SLO views
# ----------------------------------------------------------------------
class TestTenantView:
    def test_tenants_merge_queue_ledger_and_telemetry(self):
        gateway = started_gateway(tenant_weights={"acme": 2.0, "beta": 1.0})
        gateway.offer(SubmitCampaign(spec("a0")), tenant="acme")
        gateway.step()
        gateway.offer(SubmitCampaign(spec("b0", submit=2)), tenant="beta")
        body = body_of(OpsServer(gateway).handle("/tenants"))
        tenants = body["tenants"]
        assert set(tenants) >= {"acme", "beta"}
        assert tenants["acme"]["live"] == 1
        assert tenants["acme"]["weight"] == 2.0
        assert tenants["beta"]["queued"] == 1
        assert tenants["acme"]["totals"]["admitted"] == 1

    def test_slo_reports_burn_rates(self):
        gateway = started_gateway()
        gateway.offer(SubmitCampaign(spec("a")))
        gateway.step()
        reply = OpsServer(gateway).handle("/slo")
        assert reply[0] == 200
        body = body_of(reply)
        assert body["source"] == "live"
        windows = body["availability"]["windows"]
        assert all("burn_rate" in row for row in windows.values())


# ----------------------------------------------------------------------
# The threaded HTTP server (real sockets)
# ----------------------------------------------------------------------
class TestThreadedServer:
    @pytest.fixture()
    def live(self):
        gateway = started_gateway()
        gateway.offer(SubmitCampaign(spec("a")))
        gateway.step()
        ops = OpsServer(gateway, metrics=MetricsRegistry())
        ops.start_in_thread()
        yield ops
        ops.close()

    def _get(self, ops, path):
        with urllib.request.urlopen(f"{ops.address}{path}", timeout=5) as r:
            return r.status, r.read().decode()

    def test_every_endpoint_answers(self, live):
        for path in ENDPOINTS:
            status, body = self._get(live, path)
            assert status == 200, path
            assert body, path

    def test_unknown_path_is_http_404(self, live):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._get(live, "/nope")
        assert excinfo.value.code == 404

    def test_post_is_method_not_allowed(self, live):
        request = urllib.request.Request(
            f"{live.address}/metrics", data=b"x", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 405

    def test_double_start_refused(self, live):
        with pytest.raises(RuntimeError, match="already running"):
            live.start_in_thread()

    def test_close_is_idempotent(self):
        ops = OpsServer(metrics=MetricsRegistry())
        ops.start_in_thread()
        ops.close()
        ops.close()  # second close must be a no-op

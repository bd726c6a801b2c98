"""Tenant-scoped telemetry windows: a read sees only its caller's series.

A ``QueryTelemetry(last > 0)`` answer carries the global serve and engine
series plus, under ``tenants``, the calling tenant's own four series and
no other tenant's.  The default tenant is never tallied, so an untagged
read, and every read of a single-tenant session, carries no ``tenants``
key at all and keeps the bytes it had before windows were scoped.
"""

from __future__ import annotations

import hashlib
import json

from hypothesis import given, settings, strategies as st

from repro.engine.campaign import CampaignSpec
from repro.serve import (
    DEFAULT_TENANT,
    TENANT_SERIES_FIELDS,
    Cancel,
    Gateway,
    QueryTelemetry,
    SubmitCampaign,
)
from tests.serve.conftest import make_engine


def spec(cid: str, submit: int = 0) -> CampaignSpec:
    return CampaignSpec(
        campaign_id=cid, kind="deadline", num_tasks=10,
        submit_interval=submit, horizon_intervals=6, max_price=25,
    )


def two_tenant_gateway() -> Gateway:
    """Two ticks of writes from tenants ``acme`` and ``beta``."""
    gateway = Gateway(make_engine())
    gateway.start(seed=3)
    gateway.offer(SubmitCampaign(spec("a0")), tenant="acme")
    gateway.offer(SubmitCampaign(spec("b0")), tenant="beta")
    gateway.step()
    gateway.offer(Cancel("b0"), tenant="beta")
    gateway.offer(SubmitCampaign(spec("a1", submit=1)), tenant="acme")
    gateway.step()
    return gateway


def window_of(gateway: Gateway, last: int, tenant: str = DEFAULT_TENANT) -> dict:
    response = gateway.offer(QueryTelemetry(last=last), tenant=tenant).response
    assert response.ok
    return response.payload["window"]


def test_a_tenant_window_carries_only_its_own_series():
    gateway = two_tenant_gateway()
    window = window_of(gateway, 1, tenant="acme")
    assert list(window["tenants"]) == ["acme"]
    assert "beta" not in json.dumps(window)
    own = gateway.telemetry.tenants["acme"]
    assert window["tenants"]["acme"] == {
        key: own[key][-1:] for key in TENANT_SERIES_FIELDS
    }
    everything = window_of(gateway, 100, tenant="acme")
    assert everything["tenants"]["acme"] == own
    assert window_of(gateway, 2, tenant="beta")["tenants"].keys() == {"beta"}


def test_a_window_is_a_copy_not_a_view_of_the_series():
    gateway = two_tenant_gateway()
    window = window_of(gateway, 2, tenant="acme")
    window["tenants"]["acme"]["drained"].append(99)
    window["serve"]["reads"].append(99)
    assert 99 not in gateway.telemetry.tenants["acme"]["drained"]
    assert 99 not in gateway.telemetry.serve["reads"]


def test_an_untagged_query_in_a_multi_tenant_session_has_no_tenants_key():
    gateway = two_tenant_gateway()
    window = window_of(gateway, 2)
    assert "tenants" not in window
    assert len(window["serve"]["interval"]) == 2
    assert len(window["engine"]["interval"]) == 2


def test_a_tagged_tenant_without_series_gets_no_tenants_key():
    gateway = two_tenant_gateway()
    assert "tenants" not in window_of(gateway, 2, tenant="quiet")


def single_tenant_answers() -> list[dict]:
    """Every telemetry answer of a small untagged session."""
    gateway = Gateway(make_engine())
    gateway.start(seed=3)
    gateway.offer(SubmitCampaign(spec("a0")))
    gateway.offer(SubmitCampaign(spec("a1", submit=2)))
    answers = []
    for tick in range(8):
        for last in (0, 1, 3, 100):
            answers.append(gateway.offer(QueryTelemetry(last=last)).response)
        if tick == 3:
            gateway.offer(Cancel("a0"))
        gateway.step()
    return [answer.to_dict() for answer in answers]


def test_single_tenant_answers_keep_their_bytes():
    # Digest of these answers before windows were scoped to the caller.
    answers = single_tenant_answers()
    assert all("tenants" not in a["payload"].get("window", {}) for a in answers)
    encoded = json.dumps(answers, sort_keys=True)
    assert hashlib.sha256(encoded.encode()).hexdigest() == (
        "ac72933394abde3e63104c5aa867422709f6970e401e2387726e249c46371c30"
    )


#: A session: per tick, the requests offered before it runs, each a
#: (kind, tenant index, argument) triple.
sessions = st.lists(
    st.lists(
        st.tuples(
            st.sampled_from(["submit", "cancel", "query"]),
            st.integers(0, 3),
            st.integers(0, 6),
        ),
        max_size=6,
    ),
    max_size=8,
)
TENANTS = (DEFAULT_TENANT, "t1", "t2", "t3")


@settings(max_examples=40, deadline=None)
@given(session=sessions)
def test_no_answer_carries_another_tenants_series(session):
    gateway = Gateway(make_engine())
    core = gateway.start(seed=3)
    submitted = []
    for tick in session:
        for kind, who, arg in tick:
            tenant = TENANTS[who]
            if kind == "submit":
                cid = f"{tenant}-{len(submitted)}"
                submitted.append(cid)
                request = SubmitCampaign(spec(cid, submit=core.clock))
                gateway.offer(request, tenant=tenant)
            elif kind == "cancel":
                target = submitted[arg % len(submitted)] if submitted else "none"
                gateway.offer(Cancel(target), tenant=tenant)
            else:
                response = gateway.offer(QueryTelemetry(last=arg), tenant=tenant)
                window = response.response.payload.get("window", {})
                scoped = window.get("tenants", {})
                assert set(scoped) <= {tenant}
                assert tenant != DEFAULT_TENANT or not scoped
                own = gateway.telemetry.tenants.get(tenant, {})
                for name, values in scoped.get(tenant, {}).items():
                    assert values == own[name][-arg:]
        gateway.step()

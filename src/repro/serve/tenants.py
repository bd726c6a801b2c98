"""Tenant identity, quotas, and the shared admission ledger.

The serving layer's multi-tenancy model (docs/serving.md, "Tenants,
fairness, and quotas"):

* Every request carries a **tenant** id (:data:`DEFAULT_TENANT` when the
  caller doesn't care — a single-tenant gateway behaves bit-identically
  to the pre-tenant one).
* The :class:`~repro.serve.admission.AdmissionQueue` schedules drains
  **weighted-fair** across per-tenant FIFO subqueues (deficit
  round-robin), so one tenant's flood cannot starve another's requests
  of drain capacity.
* :class:`TenantQuota` bounds what a single tenant may hold or do:
  a live-campaign budget (``max_live``) and a per-tick admission rate
  (``admissions_per_tick``).  Exhausted quotas answer **typed
  backpressure**: a rejected :class:`~repro.serve.requests.Response`
  whose payload names the tenant and the quota that bounced it.
* :class:`TenantLedger` is the bookkeeping those quotas are enforced
  against — per-tenant live+pending campaign counts and the per-tick
  admission tally.

Everything here is a pure function of the arrival sequence — wall-clock
never enters, so quota decisions replay bit-identically.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Iterable, Mapping

from repro.serve.requests import DEFAULT_TENANT

__all__ = [
    "DEFAULT_TENANT",
    "TenantQuota",
    "TenantLedger",
    "parse_tenant_weights",
    "parse_tenant_quotas",
]


@dataclasses.dataclass(frozen=True)
class TenantQuota:
    """Per-tenant admission bounds (``None`` disables a bound).

    Attributes
    ----------
    max_live:
        Live-campaign budget: submissions are rejected while the tenant
        holds this many live+pending campaigns (the tenant-scoped twin
        of the gateway's global ``max_live``).
    admissions_per_tick:
        Admission rate bound: submissions beyond this many admitted in
        one tick boundary's drain are rejected (retry next tick).
    """

    max_live: int | None = None
    admissions_per_tick: int | None = None

    def __post_init__(self) -> None:
        for name in ("max_live", "admissions_per_tick"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1 or None, got {value}")

    def to_dict(self) -> dict:
        """JSON-ready form (checkpoint extras)."""
        return {
            "max_live": self.max_live,
            "admissions_per_tick": self.admissions_per_tick,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "TenantQuota":
        """Rebuild from :meth:`to_dict`."""
        return cls(
            max_live=data.get("max_live"),
            admissions_per_tick=data.get("admissions_per_tick"),
        )


class TenantLedger:
    """Per-tenant occupancy the quota checks read and drains update.

    Tracks, for every campaign submitted *through a gateway*, which
    tenant owns it — so retirements and cancellations give the tenant
    its budget back — plus how many submissions each tenant had admitted
    at the current tick boundary.  :meth:`settle` and :meth:`end_tick`
    are idempotent per interval: a tick report applied twice releases
    and resets nothing twice.
    """

    def __init__(self, quotas: Mapping[str, TenantQuota] | None = None):
        self.quotas: dict[str, TenantQuota] = dict(quotas) if quotas else {}
        for tenant, quota in self.quotas.items():
            if not isinstance(quota, TenantQuota):
                raise TypeError(
                    f"quota for tenant {tenant!r} must be a TenantQuota, "
                    f"got {type(quota).__name__}"
                )
        # Live+pending campaigns per tenant, and campaign -> owner.
        self._live: dict[str, int] = {}
        self._owner: dict[str, str] = {}
        # Admissions per tenant at the current tick boundary.
        self._tick_admitted: dict[str, int] = {}
        self._settled_interval = -1
        self._reset_interval = -1

    def live_count(self, tenant: str) -> int:
        """The tenant's current live+pending campaigns (gateway-submitted)."""
        return self._live.get(tenant, 0)

    def blocked(self, tenant: str) -> tuple[str, str] | None:
        """Why a submission from ``tenant`` must bounce, or ``None``.

        Returns ``(quota_name, detail)`` naming the exhausted quota —
        the typed half of the backpressure response's payload.
        """
        quota = self.quotas.get(tenant)
        if quota is None:
            return None
        if quota.max_live is not None:
            held = self._live.get(tenant, 0)
            if held >= quota.max_live:
                return (
                    "max_live",
                    f"live-campaign quota exhausted ({held} live+pending "
                    f">= {quota.max_live})",
                )
        if quota.admissions_per_tick is not None:
            admitted = self._tick_admitted.get(tenant, 0)
            if admitted >= quota.admissions_per_tick:
                return (
                    "admissions_per_tick",
                    f"admission-rate quota exhausted ({admitted} admitted "
                    f"this tick >= {quota.admissions_per_tick})",
                )
        return None

    def admitted(self, tenant: str, campaign_id: str) -> None:
        """Record one admitted submission (campaign now owned by tenant)."""
        self._live[tenant] = self._live.get(tenant, 0) + 1
        self._owner[campaign_id] = tenant
        self._tick_admitted[tenant] = self._tick_admitted.get(tenant, 0) + 1

    def release(self, campaign_id: str) -> None:
        """A campaign left (cancelled/dropped): return its budget slot."""
        tenant = self._owner.pop(campaign_id, None)
        if tenant is None:
            return  # not gateway-submitted (base workload) — untracked
        remaining = self._live.get(tenant, 0) - 1
        if remaining > 0:
            self._live[tenant] = remaining
        else:
            self._live.pop(tenant, None)

    def settle(self, interval: int, retired_ids: Iterable[str]) -> None:
        """Return the budget of campaigns that retired at ``interval``.

        Idempotent per interval: settling the same tick report again
        releases no campaign twice.
        """
        if interval <= self._settled_interval:
            return
        self._settled_interval = interval
        for campaign_id in retired_ids:
            self.release(campaign_id)

    def end_tick(self, interval: int) -> None:
        """Reset the per-tick admission tallies (idempotent per interval)."""
        if interval <= self._reset_interval:
            return
        self._reset_interval = interval
        self._tick_admitted.clear()

    def snapshot(self) -> dict:
        """Read-only operational view for the ops plane (``/tenants``).

        Unlike :meth:`to_dict` (the checkpoint form, which carries the
        campaign-owner map for exact restore), this is the live summary
        an operator asks for: held live counts, this tick's admissions,
        and the configured quotas in JSON form.
        """
        return {
            "live": dict(self._live),
            "tick_admitted": dict(self._tick_admitted),
            "quotas": {
                tenant: quota.to_dict()
                for tenant, quota in self.quotas.items()
            },
        }

    # ------------------------------------------------------------------
    # Checkpoint round trip
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready state (checkpoint extras; quotas travel in config)."""
        return {
            "live": dict(self._live),
            "owner": dict(self._owner),
            "tick_admitted": dict(self._tick_admitted),
            "settled_interval": self._settled_interval,
            "reset_interval": self._reset_interval,
        }

    def restore(self, data: Mapping | None) -> None:
        """Reload :meth:`to_dict` state (``None`` = pre-tenant bundle)."""
        if data is None:
            return
        self._live = {str(k): int(v) for k, v in data.get("live", {}).items()}
        self._owner = {str(k): str(v) for k, v in data.get("owner", {}).items()}
        self._tick_admitted = {
            str(k): int(v) for k, v in data.get("tick_admitted", {}).items()
        }
        self._settled_interval = int(data.get("settled_interval", -1))
        self._reset_interval = int(data.get("reset_interval", -1))

    def __repr__(self) -> str:
        return (
            f"TenantLedger({len(self.quotas)} quotas, "
            f"{sum(self._live.values())} held across {len(self._live)} tenants)"
        )


def parse_tenant_weights(
    tenants: str | None, weights: str | None
) -> dict[str, float] | None:
    """Parse the CLI's ``--tenants A,B --weights 3,1`` pair into a dict.

    ``weights`` defaults every tenant to 1.0 when omitted; a lone
    ``--weights`` without ``--tenants`` is an error (no names to bind).
    """
    if tenants is None:
        if weights is not None:
            raise ValueError("--weights requires --tenants to name them")
        return None
    names = [name.strip() for name in tenants.split(",") if name.strip()]
    if not names:
        raise ValueError("--tenants names must be non-empty")
    if len(set(names)) != len(names):
        raise ValueError(f"--tenants has duplicate names: {tenants!r}")
    if weights is None:
        return {name: 1.0 for name in names}
    values = [w.strip() for w in weights.split(",") if w.strip()]
    if len(values) != len(names):
        raise ValueError(
            f"--weights has {len(values)} entries for {len(names)} tenants"
        )
    parsed = {}
    for name, value in zip(names, values):
        try:
            weight = float(value)
        except ValueError as exc:
            raise ValueError(f"--weights entry {value!r} is not a number") from exc
        if not 0 < weight < math.inf:
            raise ValueError(
                f"tenant {name!r} weight must be finite and > 0, got {weight}"
            )
        parsed[name] = weight
    return parsed


def parse_tenant_quotas(specs: list[str] | None) -> dict[str, TenantQuota] | None:
    """Parse repeated ``--tenant-quota NAME=LIVE[/RATE]`` flags.

    ``LIVE`` is the live-campaign budget, ``RATE`` the per-tick admission
    bound; either may be empty to leave that bound off (``NAME=/4``).
    """
    if not specs:
        return None
    quotas: dict[str, TenantQuota] = {}
    for spec in specs:
        name, sep, bounds = spec.partition("=")
        name = name.strip()
        if not sep or not name:
            raise ValueError(
                f"--tenant-quota {spec!r} must look like NAME=LIVE[/RATE]"
            )
        live_part, _, rate_part = bounds.partition("/")

        def parse_bound(text: str, what: str) -> int | None:
            text = text.strip()
            if not text:
                return None
            try:
                return int(text)
            except ValueError as exc:
                raise ValueError(
                    f"--tenant-quota {spec!r}: {what} {text!r} is not an "
                    "integer"
                ) from exc

        try:
            quotas[name] = TenantQuota(
                max_live=parse_bound(live_part, "LIVE"),
                admissions_per_tick=parse_bound(rate_part, "RATE"),
            )
        except ValueError as exc:
            raise ValueError(f"--tenant-quota {spec!r}: {exc}") from exc
    return quotas

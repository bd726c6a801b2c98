"""Lazy campaign workloads: specs materialized at submit time, not up front.

:func:`~repro.engine.workload.generate_workload` builds the whole spec
list in memory before the run starts — fine for hundreds of campaigns,
fatal for millions.  A :class:`WorkloadSource` is the streaming
alternative: an engine attaches one with
:meth:`~repro.engine.engine.MarketplaceEngine.submit_source`, and the clock's
pending frontier pulls specs from it **just in time** — each campaign
exists in memory only from shortly before its submit tick until it
retires into the :class:`~repro.engine.outcomes.OutcomeSink`.

The contract every source must honour:

* :meth:`WorkloadSource.iterate` yields specs in nondecreasing
  ``(submit_interval, campaign_id)`` order — exactly the admission order
  the clock's sorted pending queue would have produced, which is what
  makes a streamed run **bit-identical** to submitting
  ``list(source.iterate())`` up front.  The clock enforces this and
  raises on an out-of-order source rather than silently diverging.
* ``iterate(skip=n)`` reproduces the same stream minus its first ``n``
  specs — how checkpoint restores fast-forward a source to its saved
  cursor (:mod:`repro.engine.checkpoint` persists the source
  *descriptor* + cursor instead of a million spec dicts).
* :meth:`WorkloadSource.to_dict` / :func:`source_from_dict` round-trip
  the descriptor declaratively, like every other checkpointable config.

Two implementations ship:

* :class:`ListSource` — wraps an already-materialized list (sorted once);
  the bridge for workloads small enough not to care.
* :class:`StreamedWorkload` — the streaming counterpart of
  :func:`generate_workload`: template-pool draws, wave-staggered
  submissions, one seed — but yielding in submission order with O(1)
  working memory.  (Its draw order differs from ``generate_workload``'s,
  whose byte-exact output is pinned by golden traces; the two are
  separate generators by design.)
"""

from __future__ import annotations

import abc
import dataclasses
from typing import Iterator, Sequence

import numpy as np

from repro.engine.campaign import BUDGET, DEADLINE, CampaignSpec
from repro.engine.workload import DEFAULT_TEMPLATES, CampaignTemplate

__all__ = [
    "WorkloadSource",
    "ListSource",
    "StreamedWorkload",
    "source_from_dict",
]


def _submission_key(spec: CampaignSpec) -> tuple[int, str]:
    return (spec.submit_interval, spec.campaign_id)


class WorkloadSource(abc.ABC):
    """A lazy, re-iterable, checkpointable stream of campaign specs."""

    @abc.abstractmethod
    def iterate(self, skip: int = 0) -> Iterator[CampaignSpec]:
        """A fresh pass over the specs, in nondecreasing submission-key
        order, with the first ``skip`` specs omitted (checkpoint resume)."""

    @abc.abstractmethod
    def to_dict(self) -> dict:
        """Declarative descriptor for checkpoint bundles (see
        :func:`source_from_dict`)."""

    def __iter__(self) -> Iterator[CampaignSpec]:
        return self.iterate()


class ListSource(WorkloadSource):
    """A materialized spec list behind the source protocol.

    Sorts once at construction (the order the clock needs) and replays
    from memory; ``to_dict`` embeds the specs, so checkpoints of
    list-sourced runs cost what they always did.
    """

    def __init__(self, specs: Sequence[CampaignSpec]):
        self._specs = sorted(specs, key=_submission_key)

    def __len__(self) -> int:
        return len(self._specs)

    def iterate(self, skip: int = 0) -> Iterator[CampaignSpec]:
        """Replay the sorted list from index ``skip``."""
        return iter(self._specs[skip:])

    def to_dict(self) -> dict:
        """Descriptor embedding every spec (small workloads only)."""
        return {
            "kind": "list",
            "specs": [dataclasses.asdict(s) for s in self._specs],
        }


class StreamedWorkload(WorkloadSource):
    """Template-pool campaign traffic generated lazily in submission order.

    Campaigns are drawn exactly like :func:`generate_workload` draws them
    — a budget/deadline pool roll, a template pick, an adaptive roll, all
    from one seeded generator — but waves are assigned *by index* (the
    first ``campaigns_per_wave`` campaigns form wave 0, the next wave 1,
    ...), and every wave's submit tick is clamped so the largest fitting
    template still fits.  That makes the yielded stream nondecreasing in
    ``(submit_interval, campaign_id)`` by construction: submit ticks grow
    with the wave index, and the zero-padded index prefix in each id
    keeps same-tick campaigns in index order.  Working memory is O(1) —
    nothing is retained between yields.

    Parameters mirror :func:`generate_workload`; ``campaigns_per_wave``
    replaces ``submit_waves`` (the wave *size* is what stays fixed as the
    campaign count scales, bounding concurrency — and therefore engine
    memory — at roughly ``campaigns_per_wave x horizon / stride``).
    ``id_prefix`` namespaces the generated ids (``{prefix}{index}-
    {template}``) away from any statically submitted or scenario-churned
    campaigns sharing the run.
    """

    def __init__(
        self,
        num_campaigns: int,
        num_intervals: int,
        seed: int = 0,
        templates: Sequence[CampaignTemplate] = DEFAULT_TEMPLATES,
        budget_fraction: float = 0.3,
        adaptive_fraction: float = 0.25,
        campaigns_per_wave: int = 64,
        id_prefix: str = "s",
    ):
        if num_campaigns <= 0:
            raise ValueError(f"num_campaigns must be positive, got {num_campaigns}")
        if num_intervals <= 0:
            raise ValueError(f"num_intervals must be positive, got {num_intervals}")
        if not templates:
            raise ValueError("need at least one template")
        if not 0.0 <= budget_fraction <= 1.0:
            raise ValueError(
                f"budget_fraction must lie in [0, 1], got {budget_fraction}"
            )
        if not 0.0 <= adaptive_fraction <= 1.0:
            raise ValueError(
                f"adaptive_fraction must lie in [0, 1], got {adaptive_fraction}"
            )
        if campaigns_per_wave < 1:
            raise ValueError(
                f"campaigns_per_wave must be >= 1, got {campaigns_per_wave}"
            )
        fitting = [t for t in templates if t.horizon_intervals <= num_intervals]
        deadline_pool = [t for t in fitting if t.kind == DEADLINE]
        budget_pool = [t for t in fitting if t.kind == BUDGET]
        if budget_fraction < 1.0 and not deadline_pool:
            raise ValueError(
                f"no deadline template fits a {num_intervals}-interval stream"
            )
        if budget_fraction > 0.0 and not budget_pool:
            raise ValueError(
                f"no budget template fits a {num_intervals}-interval stream"
            )
        self.num_campaigns = num_campaigns
        self.num_intervals = num_intervals
        self.seed = seed
        self.templates = tuple(templates)
        self.budget_fraction = budget_fraction
        self.adaptive_fraction = adaptive_fraction
        self.campaigns_per_wave = campaigns_per_wave
        self.id_prefix = id_prefix
        self._deadline_pool = deadline_pool
        self._budget_pool = budget_pool
        # Every wave tick leaves room for the *largest* drawable template,
        # so submit ticks depend only on the wave index — monotonicity.
        drawable = (deadline_pool if budget_fraction < 1.0 else []) + (
            budget_pool if budget_fraction > 0.0 else []
        )
        self._latest = num_intervals - max(
            t.horizon_intervals for t in drawable
        )
        self._num_waves = -(-num_campaigns // campaigns_per_wave)
        self._id_width = max(7, len(str(num_campaigns - 1)))

    def __len__(self) -> int:
        return self.num_campaigns

    def submit_tick(self, index: int) -> int:
        """The submit interval of campaign ``index`` (waves spread over
        the feasible horizon prefix, like ``generate_workload``'s)."""
        wave = index // self.campaigns_per_wave
        return round(self._latest * wave / max(self._num_waves - 1, 1))

    def iterate(self, skip: int = 0) -> Iterator[CampaignSpec]:
        """Generate the stream; ``skip`` replays (and discards) a prefix.

        Skipping redraws the prefix's randomness so the generator state
        at spec ``skip`` is identical to a full pass — O(skip) time,
        O(1) memory, and no spec objects are built for skipped entries.
        """
        rng = np.random.default_rng(self.seed)
        for i in range(self.num_campaigns):
            pool = (
                self._budget_pool
                if rng.random() < self.budget_fraction
                else self._deadline_pool
            )
            template = pool[int(rng.integers(len(pool)))]
            adaptive = bool(rng.random() < self.adaptive_fraction)
            if i < skip:
                continue
            yield template.spec(
                campaign_id=(
                    f"{self.id_prefix}{i:0{self._id_width}d}-{template.name}"
                ),
                submit_interval=self.submit_tick(i),
                adaptive=adaptive,
            )

    def to_dict(self) -> dict:
        """Declarative descriptor: parameters, never materialized specs."""
        return {
            "kind": "streamed",
            "num_campaigns": self.num_campaigns,
            "num_intervals": self.num_intervals,
            "seed": self.seed,
            "templates": [dataclasses.asdict(t) for t in self.templates],
            "budget_fraction": self.budget_fraction,
            "adaptive_fraction": self.adaptive_fraction,
            "campaigns_per_wave": self.campaigns_per_wave,
            "id_prefix": self.id_prefix,
        }

    def __repr__(self) -> str:
        return (
            f"StreamedWorkload({self.num_campaigns} campaigns over "
            f"{self.num_intervals} intervals, seed={self.seed}, "
            f"{self.campaigns_per_wave}/wave)"
        )


def source_from_dict(data: dict) -> WorkloadSource:
    """Rebuild a source from its :meth:`~WorkloadSource.to_dict` descriptor."""
    kind = data.get("kind")
    if kind == "list":
        return ListSource([CampaignSpec(**d) for d in data["specs"]])
    if kind == "streamed":
        return StreamedWorkload(
            num_campaigns=int(data["num_campaigns"]),
            num_intervals=int(data["num_intervals"]),
            seed=int(data["seed"]),
            templates=[CampaignTemplate(**t) for t in data["templates"]],
            budget_fraction=float(data["budget_fraction"]),
            adaptive_fraction=float(data["adaptive_fraction"]),
            campaigns_per_wave=int(data["campaigns_per_wave"]),
            id_prefix=data["id_prefix"],
        )
    raise ValueError(f"unknown workload-source kind {kind!r}")

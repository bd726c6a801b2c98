"""Policy cache: share one solve among identical campaign instances.

A real deployment of the paper's algorithms sees thousands of near-identical
campaigns — same batch size, same horizon shape, same acceptance model —
and re-running the Section 3 DP or Algorithm 3 for each is pure waste.
:class:`PolicyCache` memoizes solved policies behind the canonical problem
signatures exposed by
:meth:`~repro.core.deadline.model.DeadlineProblem.signature` and
:func:`~repro.core.budget.static_lp.budget_signature`: equal signature,
equal optimal policy, one solve.

The cache is a bounded LRU.  ``max_entries=0`` disables caching entirely
(every lookup misses and nothing is stored), which the benchmarks use to
quantify what memoization buys.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import Any, Callable, Hashable, Sequence

__all__ = ["CacheStats", "PolicyCache"]


@dataclasses.dataclass(frozen=True)
class CacheStats:
    """Lookup counters for one :class:`PolicyCache`.

    Attributes
    ----------
    hits:
        Lookups answered from the cache.
    misses:
        Lookups that had to solve.
    evictions:
        Entries dropped to respect ``max_entries``.
    entries:
        Entries currently stored.
    """

    hits: int
    misses: int
    evictions: int
    entries: int

    @property
    def lookups(self) -> int:
        """Total lookups, ``hits + misses``."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """``hits / lookups`` (0.0 before any lookup)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def since(self, baseline: "CacheStats") -> "CacheStats":
        """Counters accumulated after ``baseline`` was snapshotted.

        The engines snapshot the cache's stats when a serving session
        starts and report the delta, so an :class:`EngineResult` describes
        one run instead of leaking cumulative cross-run counters.
        ``entries`` is a point-in-time gauge, not a counter, and is
        reported as-is.
        """
        return CacheStats(
            hits=self.hits - baseline.hits,
            misses=self.misses - baseline.misses,
            evictions=self.evictions - baseline.evictions,
            entries=self.entries,
        )


class PolicyCache:
    """Bounded LRU memo of solved policies keyed by problem signature.

    Parameters
    ----------
    max_entries:
        Capacity; least-recently-used entries are evicted beyond it.
        0 disables the cache (all lookups miss, nothing is stored).
    """

    def __init__(self, max_entries: int = 256):
        if max_entries < 0:
            raise ValueError(f"max_entries must be non-negative, got {max_entries}")
        self.max_entries = max_entries
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get_or_solve_many(
        self,
        items: Sequence[tuple[Hashable, Any]],
        solve_many: Callable[[list[Any]], Sequence[Any]],
    ) -> list[tuple[Any, bool]]:
        """Batch drain: resolve many ``(signature, request)`` pairs at once.

        Cached signatures are answered immediately; every remaining
        *distinct* signature is collected and handed to ``solve_many`` as
        one request list — the batch-solve path — then stored.  A
        signature repeated within ``items`` is solved once and counted as
        one miss plus hits, exactly as resolving the items one call at a
        time would have scored it.  With the cache disabled
        (``max_entries=0``) nothing is deduplicated: every item misses and
        gets its own solve, again matching the one-at-a-time semantics.

        Parameters
        ----------
        items:
            ``(signature, request)`` pairs; ``request`` is whatever
            ``solve_many`` consumes (a problem, a budget request, or a
            campaign spec the solver builds its problem from, so only
            misses pay for building one).
        solve_many:
            Callable mapping a request list to a same-length, same-order
            list of solved policies.

        Returns
        -------
        list[tuple[Any, bool]]
            ``(policy, was_hit)`` per item, in input order.
        """
        results: list[Any] = [None] * len(items)
        hit_flags = [False] * len(items)
        requests: list[Any] = []
        # Which result slots each pending solve fills (singleton lists when
        # the cache is disabled and duplicates are deliberately re-solved).
        fills: list[list[int]] = []
        pending: dict[Hashable, int] = {}
        for i, (signature, request) in enumerate(items):
            if signature in self._entries:
                self._entries.move_to_end(signature)
                self._hits += 1
                results[i] = self._entries[signature]
                hit_flags[i] = True
                continue
            if self.max_entries > 0 and signature in pending:
                self._hits += 1
                hit_flags[i] = True
                fills[pending[signature]].append(i)
                continue
            self._misses += 1
            if self.max_entries > 0:
                pending[signature] = len(requests)
            requests.append(request)
            fills.append([i])
        if requests:
            solved = list(solve_many(requests))
            if len(solved) != len(requests):
                raise ValueError(
                    f"solve_many returned {len(solved)} policies for "
                    f"{len(requests)} requests"
                )
            for slots, policy in zip(fills, solved):
                for i in slots:
                    results[i] = policy
                if self.max_entries > 0:
                    self._entries[items[slots[0]][0]] = policy
                    if len(self._entries) > self.max_entries:
                        self._entries.popitem(last=False)
                        self._evictions += 1
        return list(zip(results, hit_flags))

    def peek(self, signature: Hashable):
        """Return the cached policy for ``signature``, or ``None`` — read-only.

        Unlike :meth:`get_or_solve_many`, a peek counts no hit or miss and
        does not refresh the entry's LRU position, so observing the cache
        this way is side-effect free.  Quotes
        (:meth:`~repro.engine.planning.CampaignPlanner.quote`) go through
        it: quoting a price must never perturb the admission path's
        per-tick hit/miss telemetry, or a served run would stop being
        bit-identical to its offline replay.
        """
        return self._entries.get(signature)

    @property
    def stats(self) -> CacheStats:
        """Current counters as an immutable snapshot."""
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            evictions=self._evictions,
            entries=len(self._entries),
        )

    def counters(self) -> tuple[int, int, int]:
        """The raw ``(hits, misses, evictions)`` counters.

        Exposed so :mod:`repro.engine.checkpoint` can serialize lookup
        accounting alongside the entries a resume will rebuild by replay.
        """
        return (self._hits, self._misses, self._evictions)

    def restore_counters(self, hits: int, misses: int, evictions: int) -> None:
        """Overwrite the lookup counters (checkpoint restore only).

        A resume rebuilds the cache's *entries* by replaying admissions —
        which bumps the counters as a side effect — then calls this to
        reset them to the values the interrupted session had recorded.
        """
        self._hits = int(hits)
        self._misses = int(misses)
        self._evictions = int(evictions)

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        self._entries.clear()
        self._hits = self._misses = self._evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, signature: Hashable) -> bool:
        return signature in self._entries

    def __repr__(self) -> str:
        s = self.stats
        return (
            f"PolicyCache(entries={s.entries}/{self.max_entries}, "
            f"hits={s.hits}, misses={s.misses})"
        )

"""Property-based fair-scheduler invariants (hypothesis).

The deficit-round-robin drain order inside :class:`AdmissionQueue` is
load-bearing for tenant isolation, so its guarantees are asserted for
*arbitrary* weight vectors and arrival interleavings:

* **No starvation under any weight vector**: any tenant with queued
  requests is served at least once per full rotation, and a rotation
  drains at most ``sum(floor(quantum_u) + 1)`` requests — so a bounded
  prefix of the drain order contains every backlogged tenant no matter
  how lopsided the weights are.
* **Per-tenant FIFO**: restricted to one tenant, the drain order is
  exactly that tenant's arrival order, for any interleaving.
* **Equal-weight fairness**: with equal weights the scheduler is exact
  round-robin — draining ``rounds * num_tenants`` requests from tenants
  that each hold at least ``rounds`` takes precisely the first
  ``rounds`` requests of every tenant, invariant to how the arrivals
  interleaved.
* **Weighted shares**: integer weights give integer quanta (no deficit
  carryover), so over full rotations drain counts are *exactly*
  proportional to weights.
* **Single tenant degenerates to FIFO**: bit-identical to the pre-tenant
  queue (the back-compat half of the scheduler contract).
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.serve import AdmissionQueue, Cancel
from repro.serve.admission import MAX_QUANTUM

#: Tenant names the strategies draw from.
TENANTS = ("t0", "t1", "t2", "t3")

weight_vectors = st.lists(
    st.floats(min_value=0.05, max_value=20.0, allow_nan=False),
    min_size=2,
    max_size=len(TENANTS),
)

#: An arrival interleaving: tenant indices, one per offered request.
interleavings = st.lists(
    st.integers(min_value=0, max_value=len(TENANTS) - 1),
    min_size=1,
    max_size=120,
)


def build_queue(weights):
    return AdmissionQueue(
        max_depth=None,
        weights={TENANTS[i]: w for i, w in enumerate(weights)},
    )


def offer_all(queue, arrivals):
    """Offer one request per arrival; returns per-tenant expected order."""
    per_tenant: dict[str, list[int]] = {}
    for seq, index in enumerate(arrivals):
        tenant = TENANTS[index]
        queue.offer(f"c{index}", Cancel(str(seq)), tenant=tenant)
        per_tenant.setdefault(tenant, []).append(seq)
    return per_tenant


@settings(max_examples=200, deadline=None)
@given(weights=weight_vectors, arrivals=interleavings)
def test_per_tenant_fifo_any_weights(weights, arrivals):
    queue = build_queue(weights)
    per_tenant = offer_all(queue, arrivals)
    drained: dict[str, list[int]] = {}
    for ticket in queue.drain():
        drained.setdefault(ticket.tenant, []).append(ticket.seq)
    assert drained == per_tenant


@settings(max_examples=200, deadline=None)
@given(weights=weight_vectors, arrivals=interleavings)
def test_no_request_lost_any_weights(weights, arrivals):
    queue = build_queue(weights)
    offer_all(queue, arrivals)
    drained = queue.drain()
    assert sorted(t.seq for t in drained) == list(range(len(arrivals)))


@settings(max_examples=150, deadline=None)
@given(
    weights=weight_vectors,
    backlog=st.integers(min_value=1, max_value=30),
)
def test_no_tenant_starves_under_any_weight_vector(weights, backlog):
    """Every backlogged tenant appears within one rotation's worth of drains.

    The bound: a tenant's per-rotation serve count is at most
    ``floor(quantum) + 1`` (deficit carryover is < 1), so a full rotation
    drains at most ``sum(floor(quantum_u) + 1)`` requests — and serves
    every non-empty tenant at least once.  ``backlog`` is made deep
    enough that no tenant empties inside the observed window.
    """
    queue = build_queue(weights)
    tenants = [TENANTS[i] for i in range(len(weights))]
    quanta = {t: queue.quantum_of(t) for t in tenants}
    rotation_bound = sum(int(math.floor(q)) + 1 for q in quanta.values())
    depth = rotation_bound * 2 + backlog
    seq = 0
    for tenant in tenants:
        for _ in range(depth):
            queue.offer("c", Cancel(str(seq)), tenant=tenant)
            seq += 1
    window = [queue.pop() for _ in range(rotation_bound)]
    served = {ticket.tenant for ticket in window}
    assert served == set(tenants), (
        f"tenants {set(tenants) - served} starved in a "
        f"{rotation_bound}-drain window under weights {quanta}"
    )


@pytest.mark.parametrize(
    "weights, default_weight",
    [
        ([1.0, math.inf], 1.0),
        ([1e-300, 1e300], 1.0),
        ([2e-300, 1e300], 1e-300),
        ([1.0, 1e16], 1.0),
        ([1.0, 2.0**52], 1.0),
    ],
    ids=[
        "infinite-weight", "infinite-quantum", "infinite-quantum-via-default",
        "quantum-past-exact-deficit-steps", "quantum-at-the-bound",
    ],
)
def test_non_finite_weight_or_quantum_is_rejected(weights, default_weight):
    """A tenant with an infinite or huge quantum would drain forever.

    The other tenants would then starve.  An infinite deficit is one
    ``scheduler_state()`` strict JSON refuses; from 2**53 on a finite one
    no longer shrinks when ``pop()`` spends a unit of it.  The weight must
    be finite and the weight over the smallest weight below 2**52.
    """
    with pytest.raises(ValueError, match="tenant 't1'"):
        AdmissionQueue(
            max_depth=None,
            weights={TENANTS[i]: w for i, w in enumerate(weights)},
            default_weight=default_weight,
        )
    with pytest.raises(ValueError, match="default_weight"):
        AdmissionQueue(default_weight=math.inf)


def test_deficit_steps_stay_exact_just_below_the_bound():
    """The largest accepted quantum still loses exactly 1.0 per serve."""
    queue = build_queue([1.0, MAX_QUANTUM - 1.0])
    for seq in range(3):
        queue.offer("c1", Cancel(str(seq)), tenant=TENANTS[1])
    queue.pop()
    queue.pop()
    assert queue.scheduler_state()["deficits"] == {TENANTS[1]: MAX_QUANTUM - 3.0}


def test_floor_weight_quantum_is_exactly_one():
    """The smallest weight's quantum is 1.0 exactly, not 0.999....

    Quanta used to be computed as ``w * (1.0 / floor)``, and for this
    weight the reciprocal round-trip lands at 0.9999999999999999 —
    below the one-serve cost, starving the tenant for a whole rotation
    and breaking the ``floor(quantum) + 1`` no-starvation bound.  Direct
    division is exact for ``w == floor`` and >= 1.0 for every heavier
    weight.
    """
    queue = build_queue([1.0, 0.6488381242853758])
    assert queue.quantum_of(TENANTS[1]) == 1.0
    assert queue.quantum_of(TENANTS[0]) >= 1.0


@settings(max_examples=150, deadline=None)
@given(
    num_tenants=st.integers(min_value=2, max_value=4),
    rounds=st.integers(min_value=1, max_value=10),
    interleave_seed=st.randoms(use_true_random=False),
)
def test_equal_weight_drained_set_invariant_to_interleaving(
    num_tenants, rounds, interleave_seed
):
    """Equal weights: K full rounds drain each tenant's first K requests,
    whatever order the arrivals interleaved in."""
    tenants = [TENANTS[i] for i in range(num_tenants)]
    depth = rounds + 3  # deeper than the window: nobody empties
    arrivals = [(t, n) for t in tenants for n in range(depth)]
    interleave_seed.shuffle(arrivals)
    # Re-impose per-tenant order (shuffle decides only the interleaving).
    counters = {t: iter(range(depth)) for t in tenants}
    queue = AdmissionQueue(max_depth=None)
    for tenant, _ in arrivals:
        n = next(counters[tenant])
        queue.offer("c", Cancel(f"{tenant}-{n}"), tenant=tenant)
    window = [queue.pop() for _ in range(rounds * num_tenants)]
    drained = {(t.tenant, t.request.campaign_id) for t in window}
    expected = {
        (t, f"{t}-{n}") for t in tenants for n in range(rounds)
    }
    assert drained == expected


@settings(max_examples=100, deadline=None)
@given(
    weights=st.lists(
        st.integers(min_value=1, max_value=6), min_size=2, max_size=4
    ),
    rotations=st.integers(min_value=1, max_value=5),
)
def test_weighted_shares_exact_over_full_rotations(weights, rotations):
    """Integer quanta leave no deficit carryover, so full rotations give
    every tenant *exactly* its weight's share of the drains."""
    queue = build_queue([float(w) for w in weights])
    tenants = [TENANTS[i] for i in range(len(weights))]
    quanta = {t: int(queue.quantum_of(t)) for t in tenants}
    per_rotation = sum(quanta.values())
    depth = max(quanta.values()) * (rotations + 1)
    seq = 0
    for tenant in tenants:
        for _ in range(depth):
            queue.offer("c", Cancel(str(seq)), tenant=tenant)
            seq += 1
    counts = {t: 0 for t in tenants}
    for _ in range(rotations * per_rotation):
        counts[queue.pop().tenant] += 1
    assert counts == {t: rotations * quanta[t] for t in tenants}


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=60),
    max_depth=st.one_of(st.none(), st.integers(min_value=1, max_value=16)),
)
def test_single_tenant_is_exact_fifo(n, max_depth):
    """One tenant (the default): the DRR queue is the old global FIFO."""
    queue = AdmissionQueue(max_depth=max_depth)
    accepted = []
    for i in range(n):
        ticket, ok = queue.offer("c", Cancel(str(i)))
        if ok:
            accepted.append(ticket.seq)
    assert [t.seq for t in queue.drain()] == accepted

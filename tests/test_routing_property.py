"""Property tests: bulk primaries equal per-request primaries.

``ClusterRouter.serve`` plans with one ``policy.primary_many(requests)``
call whenever the policy can answer in bulk, and asks
``policy.primary(request, healthy)`` per request otherwise.  The two are
interchangeable only if, for the stateless policies, the bulk answer is
the per-request answer under *every* healthy set — which is what these
tests pin, over random request streams (including requests whose routing
table holds no ids, which route by ``request_id``), replica counts,
routing tables and healthy subsets.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.routing import (
    ConsistentHashPolicy,
    LeastOutstandingPolicy,
    TableShardPolicy,
    make_policy,
)
from repro.serving.arrivals import Request

NUM_TABLES = 3

_ids = st.lists(
    st.integers(min_value=0, max_value=2**63 - 1), min_size=0, max_size=3
)


@st.composite
def request_streams(draw):
    count = draw(st.integers(min_value=1, max_value=24))
    requests = []
    for i in range(count):
        feature_ids = tuple(
            np.asarray(draw(_ids), dtype=np.uint64)
            for _ in range(NUM_TABLES)
        )
        requests.append(Request(
            request_id=draw(st.integers(min_value=0, max_value=2**40)),
            arrival_time=i * 1e-5,
            feature_ids=feature_ids,
        ))
    return requests


@st.composite
def healthy_sets(draw, num_replicas):
    return sorted(draw(st.sets(
        st.integers(min_value=0, max_value=num_replicas - 1)
    )))


def _assert_bulk_matches_per_request(policy, requests, healthy):
    bulk = policy.primary_many(requests)
    assert bulk is not None
    assert len(bulk) == len(requests)
    expected = [policy.primary(r, healthy) for r in requests]
    assert [int(o) for o in bulk] == expected
    assert all(0 <= o < policy.num_replicas for o in expected)


@settings(max_examples=120, deadline=None)
@given(
    requests=request_streams(),
    num_replicas=st.integers(min_value=1, max_value=9),
    routing_table=st.integers(min_value=0, max_value=NUM_TABLES - 1),
    data=st.data(),
)
def test_hash_primary_many_matches_primary(
    requests, num_replicas, routing_table, data
):
    policy = ConsistentHashPolicy(num_replicas, routing_table)
    healthy = data.draw(healthy_sets(num_replicas))
    _assert_bulk_matches_per_request(policy, requests, healthy)


@settings(max_examples=120, deadline=None)
@given(
    requests=request_streams(),
    num_replicas=st.integers(min_value=1, max_value=9),
    extra_shards=st.integers(min_value=0, max_value=70),
    routing_table=st.integers(min_value=0, max_value=NUM_TABLES - 1),
    data=st.data(),
)
def test_table_shard_primary_many_matches_primary(
    requests, num_replicas, extra_shards, routing_table, data
):
    policy = TableShardPolicy(
        num_replicas, num_shards=num_replicas + extra_shards,
        routing_table=routing_table,
    )
    healthy = data.draw(healthy_sets(num_replicas))
    _assert_bulk_matches_per_request(policy, requests, healthy)


@settings(max_examples=40, deadline=None)
@given(
    requests=request_streams(),
    num_replicas=st.integers(min_value=1, max_value=9),
    routing_table=st.integers(min_value=0, max_value=NUM_TABLES - 1),
)
def test_factory_policies_match_primary(requests, num_replicas, routing_table):
    """The router builds its policies through ``make_policy``."""
    for name in ("hash", "table-shard"):
        policy = make_policy(name, num_replicas, routing_table)
        _assert_bulk_matches_per_request(
            policy, requests, list(range(num_replicas))
        )


@settings(max_examples=20, deadline=None)
@given(
    requests=request_streams(),
    num_replicas=st.integers(min_value=1, max_value=9),
)
def test_least_outstanding_answers_per_request(requests, num_replicas):
    """Load-aware routing depends on history: no bulk answer."""
    assert LeastOutstandingPolicy(num_replicas).primary_many(requests) is None
    assert make_policy(
        "least-outstanding", num_replicas
    ).primary_many(requests) is None

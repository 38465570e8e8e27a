"""Integration tests for the compilation fabric (nodes, sharding, shed).

Fast tests drive real :class:`FabricNode` instances on ephemeral ports
with diagnostic ``sleep`` jobs (distinct ``seed`` values give distinct
fingerprints without compile cost), covering the ISSUE's acceptance
points: sharded submission with qualified job ids, 307 redirects for
plain clients, ring-aware client routing, result gossip, corpus
shipping to a joining node, dead-node rerouting, and 429 load-shedding
with a usable ``Retry-After``.  The one real-compile test (warm-corpus
shipping) runs the smallest workload once.
"""

import time

import pytest

from repro.fabric import FabricClient, FabricNode
from repro.service import (
    JobSpec,
    ServiceClient,
    ServiceOverloadError,
    default_corpus_key,
    job_fingerprint,
)

SIMPLE = r"""
(\procdecl scale ((a long)) long
  (:= (\res (+ (* a 4) 1))))
"""


def sleep_spec(seed, seconds=0.0):
    """A diagnostic job; distinct seeds → distinct fingerprints."""
    return JobSpec(kind="sleep", seconds=seconds, seed=seed)


def compile_spec(source=SIMPLE, **kwargs):
    defaults = dict(
        kind="compile",
        source=source,
        name="test.dn",
        strategy="linear",
        min_cycles=1,
        max_cycles=10,
        max_rounds=8,
        max_enodes=2500,
    )
    defaults.update(kwargs)
    return JobSpec(**defaults)


def boot(peers=None, **kwargs):
    defaults = dict(workers=1, health_interval=0.1)
    defaults.update(kwargs)
    node = FabricNode(peers=peers, **defaults)
    node.start()
    return node


@pytest.fixture
def node():
    n = boot()
    yield n
    n.stop(drain=False)


@pytest.fixture
def pair():
    a = boot()
    b = boot(peers=[a.url])
    yield a, b
    b.stop(drain=False)
    a.stop(drain=False)


def wait_until(predicate, timeout=5.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


# -- one node ------------------------------------------------------------------


class TestSingleNode:
    def test_submit_result_qualified_id(self, node):
        client = FabricClient(node.url)
        try:
            (job_id,) = client.submit([sleep_spec(1)])
            assert job_id.endswith("@%s" % node.node_id)
            payload = client.result(job_id, timeout=10.0)
            assert payload["state"] == "done"
            assert payload["result"]["ok"] is True
        finally:
            client.close()

    def test_healthz_ring_and_fabric_metrics(self, node):
        client = ServiceClient(node.url)
        try:
            health = client._request("/healthz")
            assert health["ok"] and health["node"] == node.node_id
            ring = client._request("/v1/fabric/ring")
            assert [n["id"] for n in ring["nodes"]] == [node.node_id]
            metrics = client.metrics()
            fabric = metrics["fabric"]
            assert fabric["node"] == node.node_id
            assert fabric["admission"]["max_queue"] == node.max_queue
            assert "/healthz" in fabric["endpoints"]
        finally:
            client.close()

    def test_unknown_job_and_route(self, node):
        client = ServiceClient(node.url)
        try:
            with pytest.raises(Exception):
                client.status("nope@%s" % node.node_id)
            with pytest.raises(Exception):
                client._request("/v1/no/such/route")
        finally:
            client.close()


# -- load shedding -------------------------------------------------------------


class TestShedding:
    def test_backlog_shed_429_with_retry_after(self):
        node = boot(max_queue=2)
        client = ServiceClient(node.url)
        try:
            ids = [
                client.submit([sleep_spec(seed, seconds=1.0)])[0]
                for seed in (1, 2)
            ]
            with pytest.raises(ServiceOverloadError) as excinfo:
                client.submit([sleep_spec(3, seconds=1.0)])
            assert excinfo.value.retry_after >= 1
            metrics = client.metrics()
            admission = metrics["fabric"]["admission"]
            assert (
                admission["shed_backlog"] + admission["shed_queue_full"]
                >= 1
            )
            shed = metrics["fabric"]["endpoints"]["/v1/submit"]["shed"]
            assert shed >= 1
            # Health stays answerable while shedding.
            assert client._request("/healthz")["ok"] is True
            # Once the backlog drains, admission reopens.
            for job_id in ids:
                client.result(job_id, timeout=15.0)
            assert wait_until(lambda: node.engine.backlog() == 0)
            (late,) = client.submit([sleep_spec(4)])
            assert client.result(late, timeout=10.0)["state"] == "done"
        finally:
            client.close()
            node.stop(drain=False)

    def test_fabric_client_honors_retry_after(self):
        node = boot(max_queue=1)
        client = FabricClient(node.url, shed_retries=5)
        try:
            (first,) = client.submit([sleep_spec(1, seconds=0.5)])
            (second,) = client.submit([sleep_spec(2)])  # retries through
            for job_id in (first, second):
                assert (
                    client.result(job_id, timeout=15.0)["state"] == "done"
                )
        finally:
            client.close()
            node.stop(drain=False)


# -- two nodes -----------------------------------------------------------------


class TestTwoNodes:
    def test_membership_converges(self, pair):
        a, b = pair
        ids = {a.node_id, b.node_id}
        assert set(a.registry.alive_ids()) == ids
        assert set(b.registry.alive_ids()) == ids

    def test_sharded_submit_matches_ring(self, pair):
        a, b = pair
        client = FabricClient(a.url)
        try:
            specs = [sleep_spec(seed) for seed in range(16)]
            ids = client.submit(specs)
            view = client.ring()
            owners = set()
            for spec, job_id in zip(specs, ids):
                expected = view.ring.node_for(
                    job_fingerprint(spec), alive=view.alive
                )
                assert job_id.endswith("@" + expected)
                owners.add(expected)
            assert owners == {a.node_id, b.node_id}
            for job_id in ids:
                assert (
                    client.result(job_id, timeout=15.0)["state"] == "done"
                )
        finally:
            client.close()

    def test_plain_client_follows_redirects(self, pair):
        a, b = pair
        # Submit directly to B so the job is B-local, then poll via A:
        # A answers with a 307 the plain client follows.
        submit_client = ServiceClient(b.url)
        poll_client = ServiceClient(a.url)
        try:
            (job_id,) = submit_client.submit([sleep_spec(99)])
            # Route the id that lives on one node through the other.
            owner = job_id.rsplit("@", 1)[1]
            other = poll_client if owner == b.node_id else submit_client
            payload = other.result(job_id, timeout=10.0)
            assert payload["state"] == "done"
        finally:
            submit_client.close()
            poll_client.close()

    def test_results_gossip_to_both_stores(self, pair):
        # Only compile results are stored (and therefore gossiped), so
        # this one drives two real (tiny) compiles.
        a, b = pair
        client = FabricClient(a.url)
        try:
            specs = [
                compile_spec(SIMPLE.replace("4", str(multiplier)))
                for multiplier in (4, 8)
            ]
            ids = client.submit(specs)
            for job_id in ids:
                client.result(job_id, timeout=60.0)
            for node in pair:
                node._gossip.flush(timeout=5.0)
            fingerprints = [job_fingerprint(spec) for spec in specs]
            assert wait_until(
                lambda: all(fp in a.store for fp in fingerprints)
                and all(fp in b.store for fp in fingerprints),
                timeout=15.0,
            ), "results did not replicate to both stores"
            received = (
                a.store.stats.to_dict()["received"]
                + b.store.stats.to_dict()["received"]
            )
            assert received >= len(specs)
        finally:
            client.close()

    def test_zero_lost_jobs_in_burst(self, pair):
        a, _ = pair
        client = FabricClient(a.url)
        try:
            specs = [sleep_spec(seed) for seed in range(40)]
            ids = client.submit(specs)
            assert len(ids) == len(specs) and None not in ids
            assert len(set(ids)) == len(ids)
            for job_id in ids:
                payload = client.result(job_id, timeout=30.0)
                assert payload["state"] == "done"
        finally:
            client.close()

    def test_dead_peer_reroutes_to_survivor(self, pair):
        a, b = pair
        b.stop(drain=False)
        assert wait_until(
            lambda: b.node_id not in a.registry.alive_ids(), timeout=10.0
        ), "health loop never declared the dead peer"
        client = ServiceClient(a.url)
        try:
            specs = [sleep_spec(seed) for seed in range(8)]
            ids = client.submit(specs)
            for job_id in ids:
                assert job_id.endswith("@" + a.node_id)
                assert (
                    client.result(job_id, timeout=15.0)["state"] == "done"
                )
        finally:
            client.close()


# -- corpus shipping -----------------------------------------------------------


class TestCorpusShipping:
    def test_joining_node_starts_warm(self):
        a = boot()
        b = None
        client = FabricClient(a.url)
        try:
            spec = JobSpec(
                kind="compile",
                source=SIMPLE,
                name="warm.dn",
                strategy="linear",
                min_cycles=1,
                max_cycles=10,
                max_rounds=8,
                max_enodes=2500,
            )
            (job_id,) = client.submit([spec])
            assert client.result(job_id, timeout=60.0)["state"] == "done"
            key = default_corpus_key()
            assert wait_until(
                lambda: a.store.corpus_blob_get(key) is not None,
                timeout=10.0,
            ), "compile did not persist the corpus blob"
            b = boot(peers=[a.url])
            assert b.corpus_source == "shipped"
            assert b.engine.corpus_warmed is True
            assert b.store.corpus_blob_get(key) is not None
        finally:
            client.close()
            if b is not None:
                b.stop(drain=False)
            a.stop(drain=False)

"""The distributed compilation fabric.

Scales the single-box service of :mod:`repro.service` out to N
cooperating nodes (ISSUE 8):

* :mod:`repro.fabric.frontend` — asyncio front end with a bounded
  admission queue and explicit 429 load-shedding (the only HTTP server
  in the package);
* :mod:`repro.fabric.ring` — consistent-hash ring (virtual nodes,
  process-stable hashes) sharding job fingerprints across members, plus
  the registry/health view that routes around dead nodes;
* :mod:`repro.fabric.replica` — replicated result store: completed
  results gossip to peers, and the compiled axiom corpus ships to newly
  joined nodes so they start warm;
* :mod:`repro.fabric.node` — one fabric member tying those together
  around the PR-2 engine;
* :mod:`repro.fabric.client` — ring-aware client that routes each job
  to its home node and follows redirects/reroutes on membership change.

CLI: ``repro serve [--peers ...] [--max-queue N]`` boots a node (with
no peers, a one-node fabric); ``repro batch --url`` routes on the ring.
Soak numbers live in ``benchmarks/bench_fabric.py`` /
``BENCH_fabric.json``.
"""

from repro.fabric.client import FabricClient
from repro.fabric.frontend import AsyncFrontend, FrontendMetrics
from repro.fabric.node import FabricNode
from repro.fabric.replica import (
    GossipPump,
    ReplicatedStore,
    ReplicationStats,
    corpus_payload,
    fetch_corpus,
    install_corpus,
)
from repro.fabric.ring import (
    HashRing,
    NodeRegistry,
    PeerState,
    RingView,
    node_id_for_url,
    placement,
    ring_from_description,
    stable_hash,
)

__all__ = [
    "AsyncFrontend",
    "FabricClient",
    "FabricNode",
    "FrontendMetrics",
    "GossipPump",
    "HashRing",
    "NodeRegistry",
    "PeerState",
    "ReplicatedStore",
    "ReplicationStats",
    "RingView",
    "corpus_payload",
    "fetch_corpus",
    "install_corpus",
    "node_id_for_url",
    "placement",
    "ring_from_description",
    "stable_hash",
]

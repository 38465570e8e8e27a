"""The compilation service: a long-lived, batch-oriented engine.

The one-shot CLI pays full cold start (interpreter launch, axiom
compilation, E-graph saturation) on every invocation.  This package
turns the staged-session machinery of ``repro.core`` into a serving
subsystem with three layers:

* **job engine** (:mod:`repro.service.jobs`, :mod:`repro.service.pool`)
  — fans a batch of compilation requests out over a ``multiprocessing``
  worker pool, with per-job timeouts wired into the solver's deadline
  hooks, bounded retries with backoff for crashed workers, and graceful
  drain/cancellation;
* **persistent result store** (:mod:`repro.service.store`) — extends the
  in-process fingerprint caches of ``repro.core.cache`` to an on-disk
  sqlite store, so warm results and compiled axiom corpora survive
  process restarts; identical in-flight requests are coalesced so each
  distinct goal compiles once;
* **HTTP client** (:mod:`repro.service.client`) — a stdlib-only
  JSON-over-HTTP client for the submit/status/result/metrics endpoints.
  Fabric nodes use it to talk to their peers, and
  :class:`~repro.fabric.client.FabricClient` extends it for
  ``repro batch --url``.

The HTTP front end itself is a :class:`~repro.fabric.node.FabricNode`
(a one-node fabric when it has no peers).  The CLI verbs ``repro
serve`` and ``repro batch`` are thin wrappers over these layers and the
fabric.
"""

from repro.service.jobs import (
    CompilationEngine,
    JobError,
    JobSpec,
    JobState,
    default_corpus_key,
    job_fingerprint,
    run_job,
)
from repro.service.pool import WorkerPool
from repro.service.store import ResultStore
from repro.service.client import (
    ServiceClient,
    ServiceError,
    ServiceOverloadError,
)

__all__ = [
    "CompilationEngine",
    "JobError",
    "JobSpec",
    "JobState",
    "default_corpus_key",
    "job_fingerprint",
    "run_job",
    "WorkerPool",
    "ResultStore",
    "ServiceClient",
    "ServiceError",
    "ServiceOverloadError",
]

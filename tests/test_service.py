"""Tests for the compilation service (jobs, pool, store, HTTP front end).

Fast tests exercise the machinery with diagnostic jobs (``sleep`` /
``crash``) and small compiles; the slow tier runs the ISSUE's acceptance
workloads end-to-end (batch throughput vs the one-shot CLI, warm-store
reruns).
"""

import os
import subprocess
import sys
import time

import pytest

from repro.service import (
    CompilationEngine,
    JobError,
    JobSpec,
    JobState,
    ResultStore,
    ServiceClient,
    job_fingerprint,
    run_job,
)

SIMPLE = r"""
(\procdecl scale ((a long)) long
  (:= (\res (+ (* a 4) 1))))
"""

WORKLOAD_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks",
    "workloads",
)


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


@pytest.fixture
def engine():
    eng = CompilationEngine(workers=1, max_retries=1, retry_backoff=0.05)
    yield eng
    eng.shutdown(drain=False)


# -- specs and fingerprints ----------------------------------------------------


class TestJobSpec:
    def test_round_trips_through_dict(self):
        spec = compile_spec(proc="scale", timeout_seconds=5.0)
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_fields_rejected(self):
        with pytest.raises(JobError):
            JobSpec.from_dict({"kind": "compile", "bogus": 1})

    def test_non_dict_rejected(self):
        with pytest.raises(JobError):
            JobSpec.from_dict(["not", "a", "dict"])

    def test_every_target_alias_accepted(self):
        from repro.isa.targets import target_names

        for arch in target_names() + ("alpha", "riscv"):
            assert JobSpec.from_dict({"arch": arch}).arch == arch


class TestFingerprint:
    def test_stable_across_calls(self):
        assert job_fingerprint(compile_spec()) == job_fingerprint(compile_spec())

    def test_ignores_display_name_and_timeout(self):
        a = compile_spec(name="a.dn", timeout_seconds=None)
        b = compile_spec(name="b.dn", timeout_seconds=9.0)
        assert job_fingerprint(a) == job_fingerprint(b)

    def test_sensitive_to_semantic_fields(self):
        base = job_fingerprint(compile_spec())
        assert job_fingerprint(compile_spec(source=SIMPLE + " ")) != base
        assert job_fingerprint(compile_spec(max_cycles=9)) != base
        assert job_fingerprint(compile_spec(arch="itanium")) != base

    def test_includes_package_version(self, monkeypatch):
        import repro

        base = job_fingerprint(compile_spec())
        monkeypatch.setattr(repro, "__version__", "0.0.0-test")
        assert job_fingerprint(compile_spec()) != base


# -- the result store ----------------------------------------------------------


class TestResultStore:
    def test_memory_put_get(self):
        store = ResultStore(None)
        assert store.get("fp") is None
        store.put("fp", {"x": 1})
        assert store.get("fp") == {"x": 1}
        assert "fp" in store and len(store) == 1
        assert store.stats.hits == 1 and store.stats.misses == 1
        assert store.stats.hit_rate == 0.5

    def test_sqlite_survives_reopen(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        store = ResultStore(path)
        store.put("fp", {"units": ["a"]})
        store.corpus_put("ck", {"some": "corpus"})
        store.close()
        reopened = ResultStore(path)
        assert reopened.get("fp") == {"units": ["a"]}
        assert reopened.corpus_get("ck") == {"some": "corpus"}
        reopened.close()

    def test_corrupt_corpus_blob_returns_none(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        store = ResultStore(path)
        store._db.execute(
            "INSERT INTO corpora (key, blob, created_at) VALUES (?, ?, 0)",
            ("bad", b"not a pickle"),
        )
        store._db.commit()
        assert store.corpus_get("bad") is None
        store.close()

    def test_to_dict_reports_rates(self, tmp_path):
        store = ResultStore(str(tmp_path / "s.sqlite"))
        store.get("missing")
        info = store.to_dict()
        assert info["misses"] == 1 and info["entries"] == 0
        assert info["path"].endswith("s.sqlite")
        store.close()


# -- worker-side runner --------------------------------------------------------


class TestRunJob:
    def test_compile_payload_shape(self):
        payload = run_job(compile_spec().to_dict())
        assert payload["ok"] is True
        unit = payload["units"][0]
        assert "s4addq" in unit["assembly"]
        assert unit["verified"] is True and unit["cycles"] == 1
        assert payload["stats"]["sessions"] == 1
        assert "saturation" in payload["stats"]["timings"]

    def test_parse_error_raises(self):
        with pytest.raises(Exception):
            run_job(compile_spec(source="(\\procdecl broken").to_dict())

    def test_unknown_kind_raises(self):
        with pytest.raises(JobError):
            run_job(JobSpec(kind="bogus").to_dict())


# -- the engine ----------------------------------------------------------------


class TestEngine:
    def test_compile_submit_and_result(self, engine):
        job_id = engine.submit(compile_spec())
        payload = engine.result(job_id, timeout=60)
        assert payload["ok"] is True
        assert engine.status(job_id)["state"] == JobState.DONE

    def test_inflight_coalescing(self, engine):
        spec = JobSpec(kind="sleep", seconds=0.4)
        first = engine.submit(spec)
        second = engine.submit(spec)
        assert first == second
        assert engine.status(first)["coalesced"] == 1
        engine.result(first, timeout=10)

    def test_done_compile_served_from_store(self, engine):
        spec = compile_spec()
        first = engine.submit(spec)
        cold = engine.result(first, timeout=60)
        second = engine.submit(spec)
        status = engine.status(second)
        assert second != first
        assert status["state"] == JobState.DONE
        assert status["from_store"] is True
        assert engine.result(second, wait=False) == cold

    def test_crash_retried_then_failed(self, engine):
        job_id = engine.submit(JobSpec(kind="crash"))
        engine.result(job_id, timeout=30)
        status = engine.status(job_id)
        assert status["state"] == JobState.FAILED
        assert status["attempts"] == 2  # initial + one retry
        assert "crashed" in status["error"]
        # The pool replaced the dead worker: new jobs still run.
        ok = engine.submit(JobSpec(kind="sleep", seconds=0.01))
        assert engine.result(ok, timeout=30)["ok"] is True

    def test_timeout_kills_and_fails(self, engine):
        job_id = engine.submit(
            JobSpec(kind="sleep", seconds=30.0, timeout_seconds=0.2)
        )
        engine.result(job_id, timeout=30)
        status = engine.status(job_id)
        assert status["state"] == JobState.FAILED
        assert "timeout" in status["error"]

    def test_in_job_error_not_retried(self, engine):
        job_id = engine.submit(compile_spec(source="(\\procdecl broken"))
        engine.result(job_id, timeout=30)
        status = engine.status(job_id)
        assert status["state"] == JobState.FAILED
        assert status["attempts"] == 1

    def test_cancel_pending_job(self, engine):
        blocker = engine.submit(JobSpec(kind="sleep", seconds=0.6))
        victim = engine.submit(JobSpec(kind="sleep", seconds=0.01))
        assert engine.cancel(victim) is True
        assert engine.status(victim)["state"] == JobState.CANCELLED
        engine.result(blocker, timeout=10)

    def test_metrics_shape(self, engine):
        engine.result(engine.submit(compile_spec()), timeout=60)
        metrics = engine.metrics()
        assert metrics["jobs"]["by_state"][JobState.DONE] == 1
        assert metrics["throughput"]["jobs_per_second"] > 0
        assert metrics["latency_seconds"]["p95"] >= metrics["latency_seconds"]["p50"]
        worker = metrics["workers"][0]
        assert worker["jobs_done"] == 1
        assert "saturation" in worker["stages"]
        assert 0.0 <= metrics["store"]["hit_rate"] <= 1.0
        sat = metrics["saturation"]
        assert sat["sessions"] >= 1
        assert sat["incremental_sessions"] >= 1
        assert sat["matches_attempted"] > 0
        assert isinstance(sat["budget_hits"], dict)

    def test_naive_matching_spec_changes_fingerprint_and_runs(self, engine):
        naive = compile_spec(incremental_match=False)
        assert job_fingerprint(naive) != job_fingerprint(compile_spec())
        payload = engine.result(engine.submit(naive), timeout=60)
        assert payload["ok"]
        assert payload["stats"]["saturation"]["incremental_sessions"] == 0

    def test_warm_corpus_round_trip(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        first = CompilationEngine(workers=1, store=ResultStore(path))
        try:
            assert first.corpus_warmed is False  # cold store: compiled fresh
        finally:
            first.shutdown(drain=False)
        second = CompilationEngine(workers=1, store=ResultStore(path))
        try:
            assert second.corpus_warmed is True  # preloaded from the store
        finally:
            second.shutdown(drain=False)


# -- HTTP front end ------------------------------------------------------------

# One bad value per validated field: each must be refused when the spec
# arrives as data (JobError, so HTTP 400 at /v1/submit), not fail later
# in a worker.  "portfolio" is the strategy older clients may still send.
INVALID_OPTIONS = [
    ("strategy", "portfolio"),
    ("backend", "quantum"),
    ("extraction", "best"),
    ("arch", "z80"),
    ("max_cycles", 0),
]


@pytest.fixture
def service():
    """A plain client against a one-node fabric (the only HTTP front end)."""
    from repro.fabric import FabricNode

    node = FabricNode(workers=1, max_retries=0)
    node.start()
    client = ServiceClient(node.url, timeout=10.0)
    yield client
    client.close()
    node.stop(drain=False)


class TestHttpService:
    def test_health_and_metrics(self, service):
        assert service.health() is True
        metrics = service.metrics()
        assert "jobs" in metrics and "store" in metrics

    def test_submit_result_round_trip(self, service):
        ids = service.submit([compile_spec()])
        wrapper = service.result(ids[0], timeout=60)
        assert wrapper["state"] == "done"
        assert "s4addq" in wrapper["result"]["units"][0]["assembly"]

    def test_result_not_ready_is_202(self, service):
        ids = service.submit([JobSpec(kind="sleep", seconds=0.5)])
        payload = service.result(ids[0], wait=False)
        assert payload["_http_status"] == 202
        service.result(ids[0], timeout=10)

    def test_status_unknown_job_404(self, service):
        from repro.service import ServiceError

        with pytest.raises(ServiceError, match="HTTP 404"):
            service.status("job-9999")

    def test_malformed_submit_400(self, service):
        from repro.service import ServiceError

        with pytest.raises(ServiceError, match="HTTP 400"):
            service._request("/v1/submit", {"jobs": "nope"})

    @pytest.mark.parametrize("field, value", INVALID_OPTIONS)
    def test_invalid_option_submit_400(self, service, field, value):
        from repro.service import ServiceError

        data = compile_spec().to_dict()
        data[field] = value
        with pytest.raises(ServiceError, match="HTTP 400.*%s" % field):
            service._request("/v1/submit", {"jobs": [data]})

    def test_failed_job_result_is_error(self, service):
        from repro.service import ServiceError

        ids = service.submit([JobSpec(kind="crash")])
        with pytest.raises(ServiceError, match="HTTP 500"):
            service.result(ids[0], timeout=30)


# -- acceptance (slow tier) ----------------------------------------------------


def _workload_specs():
    specs = []
    for name in ("fig2.dn", "byteswap4.dn", "checksum.dn"):
        with open(os.path.join(WORKLOAD_DIR, name)) as handle:
            specs.append(compile_spec(source=handle.read(), name=name,
                                      timeout_seconds=120.0))
    return specs


def _unique_assemblies(engine, ids):
    out = {}
    for job_id in ids:
        payload = engine.result(job_id, wait=False)
        assert payload and payload["ok"], payload
        for unit in payload["units"]:
            out[unit["label"]] = unit["assembly"]
    return out


@pytest.mark.slow
class TestAcceptance:
    def test_batch_beats_sequential_cli_2x(self, tmp_path):
        """4-worker batch >= 2x the one-shot CLI's requests/second."""
        env = dict(os.environ)
        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
        )
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        flags = ["--strategy", "linear", "--min-cycles", "1",
                 "--max-cycles", "10", "--max-rounds", "8",
                 "--max-enodes", "2500", "--quiet"]
        start = time.perf_counter()
        for name in ("fig2.dn", "byteswap4.dn", "checksum.dn"):
            proc = subprocess.run(
                [sys.executable, "-m", "repro",
                 os.path.join(WORKLOAD_DIR, name)] + flags,
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )
            assert proc.returncode == 0, proc.stderr.decode()
        sequential_rate = 3 / (time.perf_counter() - start)

        specs = _workload_specs() * 3
        engine = CompilationEngine(
            workers=4, store=ResultStore(str(tmp_path / "store.sqlite"))
        )
        try:
            start = time.perf_counter()
            engine.submit_batch(specs)
            assert engine.drain(timeout=600)
            batch_rate = len(specs) / (time.perf_counter() - start)
        finally:
            engine.shutdown(drain=False)
        assert batch_rate >= 2.0 * sequential_rate, (
            "batch %.2f req/s vs sequential %.2f req/s"
            % (batch_rate, sequential_rate)
        )

    def test_warm_store_hit_rate_and_identical_assembly(self, tmp_path):
        """A restarted engine answers >= 90% from the store, byte-identical."""
        path = str(tmp_path / "store.sqlite")
        specs = _workload_specs()

        cold = CompilationEngine(workers=2, store=ResultStore(path))
        try:
            ids = cold.submit_batch(specs)
            assert cold.drain(timeout=600)
            cold_assemblies = _unique_assemblies(cold, ids)
        finally:
            cold.shutdown(drain=False)

        warm = CompilationEngine(workers=2, store=ResultStore(path))
        try:
            ids = warm.submit_batch(specs)
            assert warm.drain(timeout=60)
            warm_assemblies = _unique_assemblies(warm, ids)
            store_stats = warm.metrics()["store"]
            for job_id in ids:
                assert warm.status(job_id)["from_store"] is True
        finally:
            warm.shutdown(drain=False)

        assert store_stats["hit_rate"] >= 0.9
        assert warm_assemblies == cold_assemblies

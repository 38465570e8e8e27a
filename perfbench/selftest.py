"""The benchmark's own fast checks: ``python3 perfbench/run.py --smoke``.

They run the real measurement code on a two-GMA workload (fig2 on ev6
and rv64), so a broken metric name, known-answer gate, steadiness check
or span arithmetic fails here in seconds instead of in a long run.
"""

from __future__ import annotations

import contextlib
import io
import json
import types

import run
import tracing
from workloads import build_workload

BENCHMARK = run.HERE.parent / "BENCHMARK.json"


def smoke_run(trace: int):
    """The real command on the smoke workload: (result, table lines)."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = run.main(
            ["--workload", "smoke", "--seconds", "0", "--trace", str(trace)]
        )
    lines = buffer.getvalue().splitlines()
    assert status == 0, "smoke run exited %d" % status
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    table = {line.split()[0]: line.split() for line in lines if line.split()}
    return result, table


def check_metric_names() -> None:
    """Every metric prints with its unit, as BENCHMARK.json declares it."""
    declared = json.loads(BENCHMARK.read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result, table = smoke_run(trace)
        want = {m["name"]: m["unit"] for m in declared[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want, "%s: JSON %s != BENCHMARK.json %s" % (key, got, want)
        extra = [("compile_p90_ms", "ms"), ("failed_share", "share")]
        for name, unit in list(want.items()) + (extra if trace == 0 else []):
            assert name in table and unit in table[name], "%s not in table" % name
        if trace == 0:  # regressions are judged as ratios: never 0
            for name, metric in result["metrics"].items():
                assert metric["value"] > 0, "%s read 0" % name


def check_known_answers() -> None:
    """A deliberately wrong known answer fails the pass; the right one holds."""
    prepared = run.prepare(build_workload("smoke"))
    right = {"cycles": {"ev6/fig2:fig2.tail": 1}, "exact_term_cost": {}}
    wrong = {"cycles": {"ev6/fig2:fig2.tail": 2}, "exact_term_cost": {}}
    ok = run.run_pass(prepared, right, recheck_seed=3)
    assert not any(o.failed for o in ok.outcomes)
    bad = run.run_pass(prepared, wrong, recheck_seed=3)
    failed = [o.gma for o in bad.outcomes if o.failed]
    assert failed == ["ev6/fig2:fig2.tail"], failed
    assert "known answer 2" in bad.outcomes[0].problems[0]
    outcome = bad.outcomes[0]
    assert run.known_answer_problems(
        outcome, {"cycles": {}, "exact_term_cost": {outcome.gma: 99}}, "exact"
    ), "a wrong term cost was accepted"


def check_steadiness_gate() -> None:
    """Counts that move between passes, or a cache hit, stop the run."""

    def one(counts, hits=0):
        stats = types.SimpleNamespace(cache={"saturation_hits": hits})
        outcome = run.Outcome("g", 1.0, 1.0, counts=counts, stats=stats)
        return run.Pass(1.0, 1.0, [outcome])

    run.steadiness_check([one((1, 2, 3, 4)), one((1, 2, 3, 4))])
    for passes in (
        [one((1, 2, 3, 4)), one((1, 2, 3, 5))],
        [one((1, 2, 3, 4), hits=1)],
    ):
        try:
            run.steadiness_check(passes)
        except run.BenchError:
            continue
        raise AssertionError("steadiness check accepted %r" % passes)


def check_span_arithmetic() -> None:
    """Self time = span minus children; selves add up to the root's wall."""
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    # root [0,10] > a [1,4] > leaf [2,3];  root > b [5,9]
    root = tracer.open(tracing.ROOT)
    a = tracer.open("saturation")
    tracer.span("emit", lambda: None)
    tracer.close(a)
    tracer.span("verify", lambda: None)
    tracer.close(root)
    assert [(s.start, s.end) for s in tracer.spans] == [
        (0.0, 10.0), (1.0, 4.0), (2.0, 3.0), (5.0, 9.0),
    ]
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 0]
    assert tracing.self_times(tracer.spans) == [3.0, 2.0, 1.0, 4.0]
    totals = tracing.layer_self_seconds(tracer.spans)
    assert sum(totals.values()) == 10.0
    assert totals[tracing.ROOT] == 3.0 and totals["emit"] == 1.0
    # Overlapping children are counted once.
    spans = [
        tracing.Span("x", 0.0, 10.0, None, None),
        tracing.Span("y", 1.0, 6.0, 0, None),
        tracing.Span("z", 4.0, 8.0, 0, None),
    ]
    assert tracing.self_times(spans)[0] == 3.0


def check_p90_rule() -> None:
    """The p90 is reported only with at least 10 samples above it."""
    assert run.p90_with_tail([float(i) for i in range(90)]) is None
    assert run.p90_with_tail([float(i) for i in range(101)]) is not None


CHECKS = (
    check_span_arithmetic,
    check_p90_rule,
    check_steadiness_gate,
    check_known_answers,
    check_metric_names,
)


def main() -> int:
    failures = 0
    for check in CHECKS:
        try:
            check()
        except AssertionError as exc:
            failures += 1
            print("FAIL %s: %s" % (check.__name__, exc))
        else:
            print("ok   %s" % check.__name__)
    return 1 if failures else 0

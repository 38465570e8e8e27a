#!/usr/bin/env python3
"""The repository benchmark: cold compiles of fixed workloads.

Run from the repository root::

    python3 perfbench/run.py --workload kernels --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload kernels --seed 1 --seconds 10 --trace 1
    python3 perfbench/run.py --smoke

Every timed compile is cold: a fresh ``Denali``, an empty saturation
cache and a ``gc.collect()`` come first, outside the timed window.  The
run prints a metric table and, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a separate traced
run with ``--trace 1``.  Every emitted schedule is re-checked outside the
timed window; a wrong answer prints ``"correct": false`` and exits 1, a
failed steadiness check exits 1 without a result.  README.md explains the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# Fresh interpreters sampled for setup_s; the median is reported.
SETUP_PROBES = 5
# Every run measures at least this many passes, so the exact counts and
# the assembly digest can be compared across passes.
MIN_PASSES = 2
# check_schedule's default seed, which the pipeline's own verify uses; the
# re-check must draw different trials.
PIPELINE_VERIFY_SEED = 20020617


class BenchError(Exception):
    """A set-up or steadiness failure: the run reports no numbers."""


def import_repro() -> None:
    """Import the package from this checkout's ``src`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError("no repro sources under %s" % SRC)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise BenchError("imported repro from %s, not %s" % (repro.__file__, SRC))


# -- one GMA's outcome --------------------------------------------------------


@dataclass
class Outcome:
    """What one compile produced, reduced to what the metrics need."""

    gma: str
    seconds: float  # compile_gma wall time
    scaled: float  # the same at reference speed
    cycles: Optional[int] = None
    instructions: int = 0
    term_cost: int = 0
    optimal: bool = False
    assembly: str = ""
    # Exact counts that must repeat across passes: enodes, CNF clauses
    # summed over probes, conflicts, propagations.
    counts: Tuple[int, ...] = ()
    stats: object = None  # the session's StageStats
    problems: List[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def known_answer_problems(outcome: Outcome, answers: dict, extraction: str) -> List[str]:
    """Mismatches between one outcome and the hand-written known answers."""
    problems = []
    want = answers["cycles"].get(outcome.gma)
    if want is not None and outcome.cycles != want:
        problems.append("cycles %s, known answer %d" % (outcome.cycles, want))
    if extraction == "exact":
        want = answers["exact_term_cost"].get(outcome.gma)
        if want is not None and outcome.term_cost != want:
            problems.append(
                "term cost %s, known answer %d" % (outcome.term_cost, want)
            )
    return problems


# -- the prepared workload ----------------------------------------------------


@dataclass
class Prepared:
    """A workload with its corpora built: everything set-up pays for."""

    workload: object
    # Per job: (job, spec, corpus, parsed CLI defaults)
    jobs: List[tuple]
    corpus_seconds: float


def prepare(workload) -> Prepared:
    """Build the target corpora the way the CLI does, once per job."""
    from repro.axioms import AxiomSet, default_axiom_corpus
    from repro.core.cache import registry_fingerprint
    from repro.isa import get_target
    from repro.lang import parse_program
    from workloads import cli_defaults

    jobs = []
    corpus_seconds = 0.0
    corpora: Dict[tuple, object] = {}
    for job in workload.jobs:
        program = parse_program(job.source)
        args = cli_defaults(job.target, workload.extraction)
        target = get_target(args.target)
        spec = target.spec(load_latency=args.load_latency)
        # Programs with the same operator signatures share one built-in
        # corpus, as the pipeline's own corpus cache shares it.
        key = (target.name, registry_fingerprint(program.registry))
        t0 = time.perf_counter()
        base = corpora.get(key)
        if base is None:
            base = corpora[key] = default_axiom_corpus(
                program.registry, target.name
            )
        corpus = base + AxiomSet(program.axioms, "program") if program.axioms else base
        corpus_seconds += time.perf_counter() - t0
        jobs.append((job, spec, corpus, args))
    return Prepared(workload, jobs, corpus_seconds)


# -- machine speed ------------------------------------------------------------

# The host's speed drifts by up to ~1.6x over tens of seconds (shared
# cores), which no amount of in-run repetition removes.  Every timing is
# therefore also reported at a reference speed: a fixed pure-Python
# probe is timed on a settled heap before each compile, and the compile's
# seconds are scaled by SPEED_REF_SECONDS / probe seconds.  A code change
# moves the compile but not the probe, so it shows in full; a host
# slowdown moves both and mostly cancels.  Raw seconds print beside
# every scaled figure.
SPEED_REF_SECONDS = 0.001


class _Node:
    __slots__ = ("op", "args")

    def __init__(self, op: str, args: tuple) -> None:
        self.op = op
        self.args = args


def _speed_probe_work() -> int:
    """Hash-consing small objects by tuple keys, as the e-graph does."""
    index: Dict[tuple, _Node] = {}
    nodes = []
    for i in range(850):
        key = ("op%d" % (i % 13), (i % 97, i % 31))
        if key not in index:
            node = index[key] = _Node(*key)
            nodes.append(node)
    return sum(len(node.args) for node in nodes)


def speed_probe() -> float:
    """Seconds the probe takes now: the best of three runs."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        _speed_probe_work()
        best = min(best, time.perf_counter() - t0)
    return best


def at_reference(seconds: float, *probes: float) -> float:
    return seconds * SPEED_REF_SECONDS / statistics.fmean(probes)


# -- passes -------------------------------------------------------------------


@dataclass
class Pass:
    lang: float  # parse + translate seconds
    lang_scaled: float  # the same at reference speed
    outcomes: List[Outcome]


def settle() -> float:
    """Collect garbage, then time the speed probe on the settled heap."""
    gc.collect()
    return speed_probe()


def compile_one(den, gma, label, tracer=None) -> Tuple[object, float, float]:
    """The timed window of one GMA, cold: (result, seconds, speed probe)."""
    from repro.core.cache import global_saturation_cache

    global_saturation_cache().clear()
    probe = settle()
    if tracer is not None:
        tracer.active = True
    try:
        t0 = time.perf_counter()
        result = den.compile_gma(gma, label=label)
        return result, time.perf_counter() - t0, probe
    finally:
        if tracer is not None:
            tracer.active = False


def describe(out: Outcome, result, stats, spec, corpus, registry, gma,
             min_cycles, recheck_seed) -> Outcome:
    """Fill in an Outcome and re-check its schedule two ways (untimed)."""
    from repro.sim.timing import simulate_timing
    from repro.verify.checker import check_schedule

    out.stats = stats
    schedule = result.schedule
    if schedule is None:
        out.problems.append("no schedule within the cycle budget")
        return out
    out.cycles = result.cycles
    out.instructions = schedule.instruction_count()
    out.optimal = bool(result.optimal)
    out.assembly = schedule.render(label=out.gma)
    extraction = stats.extraction or {}
    out.term_cost = extraction.get("cost") or 0
    sat = stats.saturation
    out.counts = (
        sat.enodes if sat is not None else 0,
        sum(p.clauses for p in stats.probes),
        sum(p.conflicts for p in stats.probes),
        sum(p.propagations for p in stats.probes),
    )
    if result.verified is not True:
        out.problems.append("pipeline verification: %s" % result.verified)
    report = check_schedule(
        gma,
        schedule,
        registry,
        trials=16,
        seed=recheck_seed,
        definitions=corpus.definitions(),
    )
    if not report.passed:
        out.problems.append("re-check failed: %s" % "; ".join(report.failures[:2]))
    timing = simulate_timing(schedule, spec)
    # An empty schedule has makespan 0 and claims the ladder's floor.
    if not timing.ok or max(timing.makespan, min_cycles) != result.cycles:
        out.problems.append(
            "timing re-check: makespan %d for a claimed %s cycles (%s)"
            % (timing.makespan, result.cycles, "; ".join(timing.violations[:2]))
        )
    return out


def run_pass(prepared: Prepared, answers: dict, recheck_seed: int,
             tracer=None) -> Pass:
    """One pass over the workload.

    The timed window is parse + translate + each compile_gma; building
    the fresh Denali, clearing the cache, collecting garbage, the speed
    probes and the re-checks stay outside it.
    """
    from repro.core.pipeline import Denali
    from repro.core.session import add_observer, remove_observer
    from repro.lang import parse_program, translate_procedure
    from workloads import make_config

    def call(name, fn, *args):
        if tracer is None:
            return fn(*args)
        return tracer.span(name, fn, *args)

    extraction = prepared.workload.extraction
    collected: list = []  # StageStats records, one per finished compile
    add_observer(collected.append)
    this = Pass(0.0, 0.0, [])
    # Each compile is scaled by the mean of the probe before it and the
    # probe before the next compile, both taken on a settled heap.
    probes: List[float] = []
    try:
        for job, spec, corpus, args in prepared.jobs:
            if tracer is not None:
                tracer.gma = job.name
            probe = settle()
            t0 = time.perf_counter()
            program = call("lang.parse", parse_program, job.source)
            gmas = [
                pair
                for proc in program.procedures
                for pair in call(
                    "lang.translate", translate_procedure, proc, program.registry
                )
            ]
            seconds = time.perf_counter() - t0
            this.lang += seconds
            this.lang_scaled += at_reference(seconds, probe)
            for label, gma in gmas:
                gid = "%s:%s" % (job.name, label)
                if tracer is not None:
                    tracer.gma = gid
                den = Denali(
                    spec, axioms=corpus, registry=program.registry,
                    config=make_config(args),
                )
                try:
                    result, seconds, probe = compile_one(den, gma, label, tracer)
                except Exception:  # a crashing compile is a counted failure
                    this.outcomes.append(
                        Outcome(gid, 0.0, 0.0, problems=[traceback.format_exc()])
                    )
                    probes.append(settle())
                    continue
                probes.append(probe)
                out = Outcome(gid, seconds, 0.0)
                stats = collected[-1]  # this compile's record
                describe(
                    out, result, stats, spec, corpus, program.registry, gma,
                    args.min_cycles, recheck_seed,
                )
                out.problems += known_answer_problems(out, answers, extraction)
                this.outcomes.append(out)
    finally:
        remove_observer(collected.append)
    probes.append(settle())
    for i, out in enumerate(this.outcomes):
        out.scaled = at_reference(out.seconds, probes[i], probes[i + 1])
    return this


def measure(prepared: Prepared, answers: dict, recheck_seed: int,
            seconds: float, tracer=None, min_passes: int = MIN_PASSES) -> List[Pass]:
    """Whole passes until ``seconds`` of wall time have gone (and min_passes)."""
    passes: List[Pass] = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(prepared, answers, recheck_seed, tracer))
    return passes


# -- checks and metrics ------------------------------------------------------


def digest(outcomes: List[Outcome]) -> str:
    text = "\n".join("%s\n%s" % (o.gma, o.assembly) for o in outcomes)
    return hashlib.sha256(text.encode()).hexdigest()


def steadiness_check(passes: List[Pass]) -> str:
    """Exact counts and assembly must repeat; no cold compile may hit.

    Returns the digest shared by every pass.  Raises BenchError otherwise:
    a run whose counts moved between passes reports no numbers.
    """
    first = passes[0].outcomes
    for p in passes:
        if [o.gma for o in p.outcomes] != [o.gma for o in first]:
            raise BenchError("passes compiled different GMAs")
        for a, b in zip(first, p.outcomes):
            if a.counts != b.counts:
                raise BenchError(
                    "exact counts of %s moved between passes: %s vs %s "
                    "(enodes, clauses, conflicts, propagations)"
                    % (a.gma, a.counts, b.counts)
                )
        for o in p.outcomes:
            if o.stats is not None and o.stats.cache["saturation_hits"]:
                raise BenchError(
                    "%s hit the saturation cache: the cold protocol failed" % o.gma
                )
    digests = {digest(p.outcomes) for p in passes}
    if len(digests) != 1:
        raise BenchError("assembly digest moved between passes")
    return digests.pop()


def p90_with_tail(samples: List[float], beyond: int = 10) -> Optional[float]:
    """The p90, or None when fewer than ``beyond`` samples lie above it."""
    if len(samples) < 2:
        return None
    value = statistics.quantiles(samples, n=10, method="inclusive")[8]
    return value if sum(1 for s in samples if s > value) >= beyond else None


def per_gma_ms(passes: List[Pass], scaled: bool) -> Dict[str, List[float]]:
    """Each GMA's compile times in ms, one per pass (crashes have none)."""
    per_gma: Dict[str, List[float]] = {}
    for p in passes:
        for o in p.outcomes:
            if o.seconds > 0:
                ms = 1000.0 * (o.scaled if scaled else o.seconds)
                per_gma.setdefault(o.gma, []).append(ms)
    return per_gma


def gmas_per_second(passes: List[Pass], scaled: bool) -> float:
    """GMAs per second of the median pass, assembled GMA by GMA.

    The pass time is the median parse + translate time plus each GMA's
    median compile time, so a slow moment in one pass moves it no more
    than it moves the per-GMA medians.
    """
    lang = statistics.median(p.lang_scaled if scaled else p.lang for p in passes)
    per_gma = per_gma_ms(passes, scaled)
    seconds = lang + sum(statistics.median(v) for v in per_gma.values()) / 1000.0
    return len(passes[0].outcomes) / seconds


def timing_metrics(passes: List[Pass], scaled: bool) -> Dict[str, tuple]:
    """gmas_per_s, geomean, p50 and p90, each as (value, sample count).

    The p50 is taken over each GMA's median time: every GMA has one
    sample per pass, so it is the sample median with each GMA's slowest
    moments discarded first.
    """
    per_gma = per_gma_ms(passes, scaled)
    medians = [statistics.median(v) for v in per_gma.values()]
    samples = [ms for values in per_gma.values() for ms in values]
    geomean = math.exp(statistics.fmean(math.log(m) for m in medians))
    return {
        "gmas_per_s": (gmas_per_second(passes, scaled), len(passes)),
        "compile_geomean_ms": (geomean, len(per_gma)),
        "compile_p50_ms": (statistics.median(medians), len(samples)),
        "compile_p90_ms": (p90_with_tail(samples), len(samples)),
    }


def end_to_end(passes: List[Pass], setup: List[Tuple[float, float]]) -> List[tuple]:
    """(name, value, unit, sample count, raw value) per end-to-end metric.

    Timings are at reference speed, with the raw wall-clock figure last;
    ``setup`` holds (raw, scaled) seconds per fresh interpreter.
    """
    first = passes[0].outcomes
    n = len(first)
    scaled = timing_metrics(passes, scaled=True)
    raw = timing_metrics(passes, scaled=False)
    failed = sum(o.failed for p in passes for o in p.outcomes)
    attempted = sum(len(p.outcomes) for p in passes)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rows = [
        (
            "setup_s",
            statistics.median(s for _r, s in setup),
            "s",
            len(setup),
            statistics.median(r for r, _s in setup),
        )
    ]
    for name, unit in (
        ("gmas_per_s", "GMA/s"),
        ("compile_geomean_ms", "ms"),
        ("compile_p50_ms", "ms"),
        ("compile_p90_ms", "ms"),
    ):
        value, count = scaled[name]
        rows.append((name, value, unit, count, raw[name][0]))
    return rows + [
        ("cycles_total", sum(o.cycles or 0 for o in first), "cycles", n, None),
        ("instructions_total", sum(o.instructions for o in first), "count", n, None),
        ("term_cost_total", sum(o.term_cost for o in first), "cycles", n, None),
        ("optimal_share", sum(o.optimal for o in first) / n, "share", n, None),
        ("failed_share", failed / attempted, "share", attempted, None),
        ("peak_rss_mb", rss_mb, "MB", 1, None),
    ]


def per_layer(traced: List[Pass], tracer, corpus_seconds: float,
              untraced_rate: float) -> List[tuple]:
    """(name, value, unit) for every per-layer metric of the traced run.

    Times are raw seconds per pass; counts are one pass's (they repeat).
    """
    import tracing

    totals = tracing.layer_self_seconds(tracer.spans)
    wall = tracing.traced_wall(tracer.spans)
    layer_sum = sum(totals[name] for name in tracing.LAYERS)
    untraced = totals[tracing.ROOT]
    if abs(layer_sum + untraced - wall) > 1e-6 * max(wall, 1.0):
        raise BenchError(
            "layer self times (%.6f) + untraced (%.6f) != traced wall (%.6f)"
            % (layer_sum, untraced, wall)
        )
    k = len(traced)
    outcomes = traced[0].outcomes
    stats = [o.stats for o in outcomes if o.stats is not None]
    probes = [p for s in stats for p in s.probes]
    sats = [s.saturation for s in stats if s.saturation is not None]
    extraction = [s.extraction or {} for s in stats]
    reused = sum(s.cache["cnf_prefix_cycles_reused"] for s in stats)
    built = sum(s.cache["cnf_prefix_cycles_built"] for s in stats)
    attempted = sum(sat.matches_attempted for sat in sats)
    asserted = sum(sat.instances_asserted for sat in sats)
    sat_answers = sum(1 for p in probes if p.satisfiable)
    # SAT answers above the final K*: each paid a canonical sweep and an
    # emit for a schedule that was then thrown away.
    discarded = sum(
        1
        for s in stats
        for p in s.probes
        if p.satisfiable and s.best_cycles is not None and p.cycles > s.best_cycles
    )
    calls = {
        name: sum(1 for sp in tracer.spans if sp.name == name) / k
        for name in ("emit", "verify")
    }
    traced_rate = gmas_per_second(traced, scaled=True)
    self_s = {name: totals[name] / k for name in totals}

    def share(part, whole):
        return part / whole if whole else 0.0

    return [
        ("lang.parse_s", self_s["lang.parse"], "s"),
        ("lang.translate_s", self_s["lang.translate"], "s"),
        ("axioms.corpus_s", corpus_seconds, "s"),
        ("saturation.self_s", self_s["saturation"], "s"),
        ("saturation.rounds", sum(s.rounds for s in sats), "count"),
        ("saturation.enodes", sum(s.enodes for s in sats), "count"),
        ("saturation.matches_attempted", attempted, "count"),
        ("saturation.useful_share", share(asserted, attempted), "share"),
        (
            "saturation.enode_cap_hits",
            sum(1 for s in sats if "max_enodes_round" in s.budget_hits),
            "count",
        ),
        ("cache.saturation_hits", sum(s.cache["saturation_hits"] for s in stats), "count"),
        ("cache.saturation_misses", sum(s.cache["saturation_misses"] for s in stats), "count"),
        ("encode.self_s", self_s["encode"], "s"),
        ("encode.cnf_vars_max", max((p.vars for p in probes), default=0), "count"),
        ("encode.cnf_clauses_total", sum(p.clauses for p in probes), "count"),
        ("encode.prefix_reuse_share", share(reused, reused + built), "share"),
        ("sat.feed_s", self_s["sat.feed"], "s"),
        ("sat.clauses_fed", sum(s.cache["solver_clauses_fed"] for s in stats), "count"),
        ("sat.solve_s", self_s["sat.solve"], "s"),
        ("sat.probes", len(probes), "count"),
        ("sat.sat_answers", sat_answers, "count"),
        ("sat.unsat_answers", sum(1 for p in probes if p.satisfiable is False), "count"),
        ("sat.conflicts", sum(p.conflicts for p in probes), "count"),
        ("sat.propagations", sum(p.propagations for p in probes), "count"),
        ("sat.discarded_sat_share", share(discarded, sat_answers), "share"),
        ("ladder.self_s", self_s["ladder"], "s"),
        ("ladder.probes_per_gma", len(probes) / len(outcomes), "count"),
        ("emit.self_s", self_s["emit"], "s"),
        ("emit.calls", calls["emit"], "count"),
        ("extraction.self_s", self_s["extraction"], "s"),
        ("extraction.solves", sum(e.get("solves", 0) for e in extraction), "count"),
        ("extraction.improved_gmas", sum(1 for e in extraction if e.get("improved")), "count"),
        ("verify.self_s", self_s["verify"], "s"),
        ("verify.calls", calls["verify"], "count"),
        ("trace.untraced_share", share(untraced, wall), "share"),
        ("trace.overhead_share", untraced_rate / traced_rate - 1.0, "share"),
    ]


# -- set-up -------------------------------------------------------------------


def setup(workload_name: str) -> Prepared:
    """Import, build the corpora, run the discarded warm-up pass."""
    import_repro()
    from workloads import build_workload, warmup_workload

    try:
        workload = build_workload(workload_name)
    except ValueError as exc:
        raise BenchError(str(exc))
    prepared = prepare(workload)
    warm = prepare(warmup_workload(workload))
    run_pass(warm, {"cycles": {}, "exact_term_cost": {}}, recheck_seed=1)
    return prepared


def setup_samples(workload_name: str, count: int = SETUP_PROBES) -> List[Tuple[float, float]]:
    """(raw, scaled) seconds from a fresh interpreter's launch to warm."""
    samples = []
    for _ in range(count):
        before = speed_probe()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload_name],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            _out, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or line.strip() != "ready":
            raise BenchError("set-up probe failed:\n%s" % err.strip())
        samples.append((elapsed, at_reference(elapsed, before, speed_probe())))
    return samples


# -- reporting ----------------------------------------------------------------


def show(value) -> str:
    if value is None:
        return "-"
    return "%.6g" % value if isinstance(value, float) else str(value)


def print_table(rows, raw_column: bool) -> None:
    header = "%-30s %14s  %-6s %6s" % ("metric", "value", "unit", "n")
    print(header + ("  %14s" % "raw" if raw_column else ""))
    for row in rows:
        name, value, unit = row[:3]
        line = "%-30s %14s  %-6s %6s" % (
            name,
            "not reported" if value is None else show(value),
            unit,
            row[3] if len(row) > 3 else "",
        )
        if raw_column:
            line += "  %14s" % show(row[4])
        print(line)
    if raw_column and any(r[0] == "compile_p90_ms" and r[1] is None for r in rows):
        print("(compile_p90_ms needs 10 samples above it: 100 per run)")


def recheck_seed_for(seed: int) -> int:
    value = 1 + seed
    return value + 1 if value == PIPELINE_VERIFY_SEED else value


# Names the JSON result carries with --trace 0.  compile_p90_ms and
# failed_share print in the table only: the p90 needs 100 samples per run
# (kernels has ~30), and failures are the result's "failed" count.
REPORTED_END_TO_END = (
    "setup_s",
    "gmas_per_s",
    "compile_geomean_ms",
    "compile_p50_ms",
    "cycles_total",
    "instructions_total",
    "term_cost_total",
    "optimal_share",
    "peak_rss_mb",
)


def run(args) -> dict:
    import_repro()
    answers = json.loads((HERE / "known_answers.json").read_text())
    setup_runs = [] if args.trace else setup_samples(args.workload)
    prepared = setup(args.workload)
    recheck = recheck_seed_for(args.seed)
    passes = measure(prepared, answers, recheck, args.seconds)
    passes_digest = steadiness_check(passes)

    from workloads import settings_summary

    print(
        "workload %s  seed %d  passes %d  PYTHONHASHSEED=%s  re-check seed %d"
        % (args.workload, args.seed, len(passes),
           os.environ.get("PYTHONHASHSEED", "unset"), recheck)
    )
    print("settings %s" % json.dumps(settings_summary(prepared.jobs[0][3])))
    print("assembly sha256 %s" % passes_digest)

    traced: List[Pass] = []
    if args.trace:
        import tracing

        untraced_rate = gmas_per_second(passes, scaled=True)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = measure(prepared, answers, recheck, args.seconds, tracer,
                             min_passes=1)
        finally:
            tracer.uninstall()
        if steadiness_check(passes + traced) != passes_digest:
            raise BenchError("traced passes emitted different assembly")
        rows = per_layer(traced, tracer, prepared.corpus_seconds, untraced_rate)
        OUT.mkdir(exist_ok=True)
        stem = "%s-seed%d" % (args.workload, args.seed)
        tracing.write_chrome_trace(tracer.spans, str(OUT / (stem + ".trace.json")))
        table = tracing.format_table(tracer.spans, len(traced))
        (OUT / (stem + ".layers.txt")).write_text(table)
        print(table, end="")
        print("trace written to %s" % (OUT / (stem + ".trace.json")))
        print_table(rows, raw_column=False)
        metrics = {name: {"value": v, "unit": u} for name, v, u in rows}
    else:
        rows = end_to_end(passes, setup_runs)
        print_table(rows, raw_column=True)
        metrics = {
            row[0]: {"value": row[1], "unit": row[2]}
            for row in rows
            if row[0] in REPORTED_END_TO_END
        }
    everything = [o for p in passes + traced for o in p.outcomes]
    failures = [o for o in everything if o.failed]
    for o in failures[:10]:
        print("FAILED %s: %s" % (o.gma, " | ".join(o.problems)))
    return {
        "correct": not failures,
        "attempted": len(everything),
        "failed": len(failures),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="kernels")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the benchmark's own fast self-checks")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            setup(args.workload)
            print("ready", flush=True)
            return 0
        if args.smoke:
            import_repro()
            import selftest

            return selftest.main()
        result = run(args)
    except BenchError as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line driver: compile Denali source files to assembly.

Usage::

    python -m repro program.dn                  # compile every procedure
    python -m repro program.dn --proc checksum  # one procedure
    python -m repro program.dn --target rv64    # retarget
    python -m repro targets                     # list known targets
    python -m repro program.dn --max-cycles 12 --strategy linear
    python -m repro program.dn --dimacs out/    # also dump the CNF probes

    python -m repro serve --port 8642 --workers 4 --store denali.sqlite
    python -m repro batch a.dn b.dn --workers 4 --store denali.sqlite
    python -m repro batch a.dn --url http://127.0.0.1:8642

    python -m repro fuzz --seed 0 --iterations 500      # differential fuzzing
    python -m repro fuzz --time-budget 60 --json
    python -m repro fuzz --replay                       # re-run tests/corpus

The input is the paper's Figure 6 syntax (``\\opdecl`` / ``\\axiom`` /
``\\procdecl``).  Each procedure is translated to its GMAs; each GMA is
superoptimized and printed with its statistics.  The ``serve`` and
``batch`` verbs run the same pipeline through the long-lived compilation
service (:mod:`repro.service`): a worker pool with a persistent result
store, amortizing axiom compilation and saturation across requests.

Exit codes: 0 success, 1 compilation/verification failure, 2 usage or
input error, 130 interrupted.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import __version__
from repro.axioms import (
    AxiomSet,
    alpha_axioms,
    constant_synthesis_axioms,
    default_axiom_corpus,
    math_axioms,
    riscv_axioms,
)
from repro.core.pipeline import Denali, DenaliConfig
from repro.core.probes import SearchStrategy
from repro.isa import available_targets, get_target, target_names
from repro.lang import parse_program, translate_procedure
from repro.matching import SaturationConfig

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_INTERRUPTED = 130


def _add_pipeline_arguments(parser: argparse.ArgumentParser) -> None:
    """Options shared by the one-shot compiler and the batch verb."""
    parser.add_argument(
        "--proc", help="compile only this procedure", default=None
    )
    parser.add_argument(
        "--target",
        "--arch",
        dest="target",
        choices=sorted(target_names()),
        default="ev6",
        help="target ISA, resolved through the repro.isa.targets registry "
        "(default: ev6; `repro targets` lists them; --arch is the "
        "backwards-compatible spelling)",
    )
    parser.add_argument(
        "--max-cycles", type=int, default=12, help="largest budget to try"
    )
    parser.add_argument(
        "--min-cycles", type=int, default=1, help="smallest budget to try"
    )
    parser.add_argument(
        "--strategy",
        choices=["binary", "linear"],
        default="binary",
        help="cycle-budget search strategy: the paper's binary search, "
        "or linear escalation K = lo, lo+1, ... until SAT",
    )
    parser.add_argument(
        "--backend",
        choices=["sat", "stochastic", "race"],
        default="sat",
        help="compilation engine: the exact SAT ladder, the stochastic "
        "MCMC sampler, or a race of both (first verified winner cancels "
        "the loser)",
    )
    parser.add_argument(
        "--extraction",
        choices=["greedy", "exact"],
        default="greedy",
        help="schedule selection at the proved cycle count: the ladder's "
        "canonical greedy decode, or an exact selected-term cost "
        "minimisation on the incremental solver",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="session seed: fixes the stochastic chains and the "
        "verifier's trials, so a run is byte-reproducible (default: 0)",
    )
    parser.add_argument(
        "--mcmc-seed",
        type=int,
        default=0,
        help="stochastic search seed, mixed with --seed per chain",
    )
    parser.add_argument(
        "--mcmc-chains",
        type=int,
        default=4,
        help="independent MCMC chains per stochastic campaign",
    )
    parser.add_argument(
        "--mcmc-moves",
        type=int,
        default=20000,
        help="proposals per MCMC chain",
    )
    parser.add_argument(
        "--load-latency",
        type=int,
        default=3,
        help="assumed cache-hit load latency (targets that model a "
        "D-cache: ev6, rv64)",
    )
    parser.add_argument(
        "--miss-latency",
        type=int,
        default=12,
        help="latency for \\miss-annotated loads",
    )
    parser.add_argument(
        "--max-enodes", type=int, default=4000, help="saturation enode budget"
    )
    parser.add_argument(
        "--max-rounds", type=int, default=12, help="saturation round budget"
    )
    parser.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the differential correctness check",
    )
    parser.add_argument(
        "--no-incremental",
        action="store_true",
        help="rebuild the SAT solver from scratch for every probe instead "
        "of reusing one incremental solver per session",
    )
    parser.add_argument(
        "--no-incremental-match",
        action="store_true",
        help="re-scan the whole E-graph for every saturation round instead "
        "of matching only against the dirty cone (the naive differential-"
        "oracle path)",
    )
    parser.add_argument(
        "--axiom-tiers",
        action="store_true",
        help="tiered axiom scheduling: defer expansive (growing) axioms "
        "for the first saturation rounds, activating them before "
        "quiescence so the fixpoint is unchanged (off by default)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="print assembly only"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Denali-style superoptimizing code generator",
    )
    parser.add_argument(
        "--version", action="version", version="repro %s" % __version__
    )
    parser.add_argument(
        "source",
        nargs="?",
        default=None,
        help="Denali source file (Figure 6 syntax)",
    )
    parser.add_argument(
        "--list-axioms",
        action="store_true",
        help="print the built-in axiom corpus and exit",
    )
    _add_pipeline_arguments(parser)
    parser.add_argument(
        "--dimacs",
        metavar="DIR",
        default=None,
        help="dump each probe's CNF in DIMACS format into DIR",
    )
    parser.add_argument(
        "--stats-json",
        metavar="FILE",
        default=None,
        help="write a per-stage JSON report (timings, CNF sizes, cache "
        "hit/miss counters for every probe) to FILE",
    )
    parser.add_argument(
        "--profile-json",
        metavar="FILE",
        default=None,
        help="write a probe-ladder profile (per-probe propagations, "
        "conflicts, learned-clause reuse, and wall time per stage) to FILE",
    )
    parser.add_argument(
        "--whole",
        action="store_true",
        help="emit complete procedures (loop labels, branches, late moves) "
        "instead of per-GMA blocks",
    )
    return parser


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="run the compilation service: a fabric node serving "
        "JSON over HTTP (one node unless --peers names others)",
    )
    parser.add_argument(
        "--version", action="version", version="repro %s" % __version__
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port",
        type=int,
        default=8642,
        help="listen port (0 picks an ephemeral port)",
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="worker process count"
    )
    parser.add_argument(
        "--store",
        metavar="FILE",
        default=None,
        help="sqlite result store (default: in-memory, lost on exit)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="retries for crashed/timed-out jobs",
    )
    parser.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        help="default per-job wall-clock bound in seconds",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )
    parser.add_argument(
        "--peers",
        default=None,
        metavar="URLS",
        help="comma-separated URLs of other fabric nodes to join "
        "(default: none, a one-node fabric)",
    )
    parser.add_argument(
        "--max-queue",
        type=int,
        default=512,
        help="fabric admission bound: jobs admitted but unfinished "
        "beyond this are shed with HTTP 429 (default: 512)",
    )
    parser.add_argument(
        "--vnodes",
        type=int,
        default=64,
        help="virtual nodes per fabric member on the hash ring",
    )
    return parser


def build_batch_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro batch",
        description="compile a batch of source files through the service",
    )
    parser.add_argument(
        "--version", action="version", version="repro %s" % __version__
    )
    parser.add_argument(
        "sources", nargs="+", help="Denali source files (Figure 6 syntax)"
    )
    _add_pipeline_arguments(parser)
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="worker process count (local engine mode)",
    )
    parser.add_argument(
        "--store",
        metavar="FILE",
        default=None,
        help="sqlite result store (local engine mode; default in-memory)",
    )
    parser.add_argument(
        "--url",
        default=None,
        help="send the batch to a running `repro serve` instead of "
        "spawning a local engine",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="submit the file list N times (duplicates coalesce onto one "
        "compilation)",
    )
    parser.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        help="per-job wall-clock bound in seconds",
    )
    parser.add_argument(
        "--metrics-json",
        metavar="FILE",
        default=None,
        help="write the service metrics (throughput, latency, store hit "
        "rate, per-worker stages) to FILE",
    )
    return parser


def build_fuzz_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro fuzz",
        description="differential fuzzing: random programs down every "
        "path through the system, demanding all answers agree",
    )
    parser.add_argument(
        "--version", action="version", version="repro %s" % __version__
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="campaign seed (default: 0)"
    )
    parser.add_argument(
        "--iterations",
        type=int,
        default=100,
        help="number of random programs to generate (default: 100)",
    )
    parser.add_argument(
        "--time-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stop after this much wall-clock time even if iterations remain",
    )
    parser.add_argument(
        "--oracles",
        default=None,
        metavar="LIST",
        help="comma-separated oracle subset (default: all): "
        "asm-vs-eval,solver-paths,extraction,strategies,matching,"
        "bruteforce,stochastic,cross-target",
    )
    parser.add_argument(
        "--target",
        default="ev6",
        metavar="NAME",
        help="target the single-target oracles compile for (default: "
        "ev6); the cross-target oracle always sweeps ev6 and rv64",
    )
    parser.add_argument(
        "--max-cycles",
        type=int,
        default=12,
        help="largest cycle budget the oracle compilations try",
    )
    parser.add_argument(
        "--max-failures",
        type=int,
        default=10,
        help="stop the campaign after this many failing cases",
    )
    parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="report failing cases unminimised",
    )
    parser.add_argument(
        "--save",
        metavar="DIR",
        default=None,
        help="write minimised failures into this corpus directory",
    )
    parser.add_argument(
        "--replay",
        nargs="?",
        const="",
        default=None,
        metavar="DIR",
        help="replay the regression corpus (default: tests/corpus) "
        "instead of generating new programs",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="no per-iteration heartbeat, summary only",
    )
    return parser


# -- entry point ---------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    """Dispatch to the one-shot compiler or a service verb.

    Always returns an exit status (argparse's own ``SystemExit`` — help,
    version, usage errors — is converted), so in-process callers never
    have to catch.
    """
    if argv is None:
        argv = sys.argv[1:]
    try:
        if argv and argv[0] == "serve":
            return _serve_main(argv[1:])
        if argv and argv[0] == "batch":
            return _batch_main(argv[1:])
        if argv and argv[0] == "fuzz":
            return _fuzz_main(argv[1:])
        if argv and argv[0] == "targets":
            return _targets_main(argv[1:])
        return _compile_main(argv)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except BrokenPipeError:
        # Downstream pipe (e.g. `| head`) closed early: not our error.
        # Point stdout at devnull so the interpreter's exit flush doesn't
        # raise a second time.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except SystemExit as exc:  # argparse --help/--version/usage errors
        code = exc.code
        if code is None:
            return EXIT_OK
        return code if isinstance(code, int) else EXIT_USAGE


def _targets_main(argv: List[str]) -> int:
    """The ``repro targets`` verb: list the registered target ISAs."""
    parser = argparse.ArgumentParser(
        prog="repro targets",
        description="list the target ISAs the pipeline can compile for",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the listing as JSON"
    )
    args = parser.parse_args(argv)
    targets = available_targets()
    if args.json:
        import json

        print(
            json.dumps(
                [
                    {
                        "name": t.name,
                        "aliases": list(t.aliases),
                        "description": t.description,
                    }
                    for t in targets
                ],
                indent=2,
            )
        )
        return EXIT_OK
    width = max(len(t.name) for t in targets)
    for t in targets:
        aliases = " (aliases: %s)" % ", ".join(t.aliases) if t.aliases else ""
        print("%-*s  %s%s" % (width, t.name, t.description, aliases))
    return EXIT_OK


def _compile_main(argv: List[str]) -> int:
    args = build_parser().parse_args(argv)

    if args.list_axioms:
        from repro.terms.ops import default_registry

        registry = default_registry()
        for title, axset in (
            ("mathematical axioms", math_axioms(registry)),
            ("constant-synthesis companions", constant_synthesis_axioms(registry)),
            ("Alpha architectural axioms", alpha_axioms(registry)),
            ("RISC-V rv64 sublayer", riscv_axioms(registry)),
        ):
            print("; ===== %s (%d) =====" % (title, len(axset)))
            for axiom in axset:
                print(axiom.pretty())
            print()
        return EXIT_OK

    if args.source is None:
        print("error: a source file is required (or --list-axioms)",
              file=sys.stderr)
        return EXIT_USAGE

    try:
        with open(args.source) as handle:
            source = handle.read()
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE

    try:
        program = parse_program(source)
    except Exception as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE

    if not program.procedures:
        print("error: no procedures in %s" % args.source, file=sys.stderr)
        return EXIT_USAGE

    target = get_target(args.target)
    spec = target.spec(load_latency=args.load_latency)

    # The built-in corpus for the chosen target (shared mathematical core
    # + the target's instruction sublayer), plus the program's own axioms.
    axioms = default_axiom_corpus(program.registry, target.name) + AxiomSet(
        program.axioms, "program"
    )
    from repro.stochastic.search import StochasticConfig

    config = DenaliConfig(
        target=target.name,
        min_cycles=args.min_cycles,
        max_cycles=args.max_cycles,
        strategy=SearchStrategy(args.strategy),
        verify=not args.no_verify,
        miss_latency=args.miss_latency,
        enable_incremental_solver=not args.no_incremental,
        backend=args.backend,
        extraction=args.extraction,
        seed=args.seed,
        stochastic=StochasticConfig(
            seed=args.mcmc_seed,
            chains=args.mcmc_chains,
            moves=args.mcmc_moves,
        ),
        saturation=SaturationConfig(
            max_rounds=args.max_rounds,
            max_enodes=args.max_enodes,
            incremental_match=not args.no_incremental_match,
            axiom_tiers=args.axiom_tiers,
        ),
    )
    den = Denali(spec, axioms=axioms, registry=program.registry, config=config)

    collected_stats = []
    if args.stats_json or args.profile_json:
        from repro.core.session import add_observer

        add_observer(collected_stats.append)

    procedures = program.procedures
    if args.proc is not None:
        try:
            procedures = [program.procedure(args.proc)]
        except KeyError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return EXIT_USAGE

    status = EXIT_OK
    for proc in procedures:
        if args.whole:
            try:
                result = den.compile_procedure(proc)
            except Exception as exc:
                print("error compiling %s: %s" % (proc.name, exc),
                      file=sys.stderr)
                status = EXIT_FAILURE
                continue
            print(result.assembly)
            if not args.quiet:
                print("; all GMAs verified: %s" % result.all_verified())
            if not result.all_verified():
                status = EXIT_FAILURE
            print()
            continue
        try:
            gmas = translate_procedure(proc, program.registry)
        except Exception as exc:
            print("translation error in %s: %s" % (proc.name, exc),
                  file=sys.stderr)
            status = EXIT_FAILURE
            continue
        for label, gma in gmas:
            if not args.quiet:
                print("; === %s: %s" % (label, gma.pretty()))
            result = den.compile_gma(gma, label=label)
            if result.schedule is None:
                print(
                    "; %s: no schedule within %d cycles (floor proved: %d)"
                    % (label, args.max_cycles, result.search.proved_floor),
                    file=sys.stderr,
                )
                status = EXIT_FAILURE
                continue
            if args.dimacs:
                _dump_dimacs(args.dimacs, label, den, gma, result)
            print(result.schedule.render(label=label.replace(".", "_")))
            if not args.quiet:
                print(
                    "; %s%s"
                    % (
                        result.summary(),
                        ""
                        if result.verified is None
                        else ", verified=%s" % result.verified,
                    )
                )
            if result.verified is False:
                status = EXIT_FAILURE
            print()

    if args.stats_json or args.profile_json:
        from repro.core.session import remove_observer

        remove_observer(collected_stats.append)
        if args.stats_json:
            try:
                _write_stats_json(args, collected_stats)
            except OSError as exc:
                print("error writing %s: %s" % (args.stats_json, exc),
                      file=sys.stderr)
                status = EXIT_FAILURE
        if args.profile_json:
            try:
                _write_profile_json(args, collected_stats)
            except OSError as exc:
                print("error writing %s: %s" % (args.profile_json, exc),
                      file=sys.stderr)
                status = EXIT_FAILURE
    return status


# -- service verbs -------------------------------------------------------------


def _serve_main(argv: List[str]) -> int:
    args = build_serve_parser().parse_args(argv)
    from repro.fabric import FabricNode

    peers = [
        url.strip()
        for url in (args.peers or "").split(",")
        if url.strip()
    ]
    node = FabricNode(
        host=args.host,
        port=args.port,
        peers=peers,
        workers=args.workers,
        store_path=args.store,
        max_queue=args.max_queue,
        vnodes=args.vnodes,
        max_retries=args.max_retries,
        default_timeout=args.job_timeout,
        verbose=args.verbose,
    )
    url = node.start()
    print(
        "repro fabric node %s listening on %s (%d workers, store=%s, "
        "max-queue=%d, %d peer(s), corpus=%s)"
        % (
            node.node_id,
            url,
            args.workers,
            args.store or "memory",
            args.max_queue,
            len(peers),
            node.corpus_source,
        ),
        file=sys.stderr,
    )
    try:
        node.wait_for_shutdown()
    except KeyboardInterrupt:
        print("draining...", file=sys.stderr)
        node.stop(drain=True)
        return EXIT_INTERRUPTED
    node.stop(drain=True)
    return EXIT_OK


def _batch_specs(args) -> List:
    """One JobSpec per source file (times ``--repeat``)."""
    from repro.service import JobSpec

    specs = []
    for path in args.sources:
        with open(path) as handle:
            source = handle.read()
        specs.append(
            JobSpec(
                kind="compile",
                source=source,
                name=path,
                proc=args.proc,
                arch=args.target,
                axiom_tiers=args.axiom_tiers,
                min_cycles=args.min_cycles,
                max_cycles=args.max_cycles,
                strategy=args.strategy,
                max_rounds=args.max_rounds,
                max_enodes=args.max_enodes,
                verify=not args.no_verify,
                load_latency=args.load_latency,
                miss_latency=args.miss_latency,
                incremental=not args.no_incremental,
                incremental_match=not args.no_incremental_match,
                backend=args.backend,
                extraction=args.extraction,
                seed=args.seed,
                mcmc_seed=args.mcmc_seed,
                mcmc_chains=args.mcmc_chains,
                mcmc_moves=args.mcmc_moves,
                timeout_seconds=args.job_timeout,
            )
        )
    return specs * max(1, args.repeat)


def _print_batch_result(name: str, payload: Optional[dict], quiet: bool) -> int:
    """Render one job's units; returns the job's exit contribution."""
    status = EXIT_OK
    if payload is None or not payload.get("ok"):
        status = EXIT_FAILURE
    if not quiet:
        print("; === %s" % name)
    for unit in (payload or {}).get("units", []):
        if unit.get("assembly") is None:
            print(
                "; %s: no schedule (%s)"
                % (unit.get("label"), unit.get("summary")),
                file=sys.stderr,
            )
            continue
        print(unit["assembly"])
        if not quiet:
            print("; %s" % unit.get("summary"))
        print()
    return status


def _batch_main(argv: List[str]) -> int:
    args = build_batch_parser().parse_args(argv)
    try:
        specs = _batch_specs(args)
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE

    if args.url is not None:
        return _batch_remote(args, specs)
    return _batch_local(args, specs)


def _batch_remote(args, specs) -> int:
    from repro.fabric import FabricClient
    from repro.service import ServiceError

    client = FabricClient(args.url, shed_retries=3)
    status = EXIT_OK
    try:
        ids = client.submit(specs)
        for spec, job_id in zip(specs, ids):
            try:
                wrapper = client.result(job_id, timeout=args.job_timeout or 300.0)
            except ServiceError as exc:
                print("error: %s" % exc, file=sys.stderr)
                status = EXIT_FAILURE
                continue
            status = max(
                status,
                _print_batch_result(
                    spec.name, wrapper.get("result"), args.quiet
                ),
            )
        metrics = client.metrics()
    except ServiceError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_FAILURE
    _report_metrics(args, metrics)
    return status


def _batch_local(args, specs) -> int:
    from repro.service import CompilationEngine, ResultStore

    engine = CompilationEngine(
        workers=args.workers,
        store=ResultStore(args.store),
        default_timeout=args.job_timeout,
    )
    status = EXIT_OK
    try:
        ids = engine.submit_batch(specs)
        engine.drain()
        for spec, job_id in zip(specs, ids):
            status = max(
                status,
                _print_batch_result(
                    spec.name, engine.result(job_id, wait=False), args.quiet
                ),
            )
        metrics = engine.metrics()
    finally:
        engine.shutdown(drain=False)
    _report_metrics(args, metrics)
    return status


def _report_metrics(args, metrics: dict) -> None:
    if not args.quiet:
        store = metrics.get("store", {})
        throughput = metrics.get("throughput", {})
        print(
            "; batch: %d done, %.2f jobs/s, %d coalesced, "
            "store hit rate %.0f%%"
            % (
                throughput.get("done", 0),
                throughput.get("jobs_per_second", 0.0),
                metrics.get("jobs", {}).get("coalesced", 0),
                100.0 * store.get("hit_rate", 0.0),
            ),
            file=sys.stderr,
        )
    if args.metrics_json:
        import json

        with open(args.metrics_json, "w") as handle:
            json.dump(metrics, handle, indent=2, sort_keys=True)
            handle.write("\n")


# -- the fuzz verb -------------------------------------------------------------


def _fuzz_oracle_options(args):
    from repro.fuzz import ALL_ORACLES, OracleOptions
    from repro.isa import get_target

    try:
        target = get_target(getattr(args, "target", "ev6")).name
    except KeyError as exc:
        raise ValueError(str(exc).strip('"'))
    options = OracleOptions(max_cycles=args.max_cycles, target=target)
    if args.oracles:
        chosen = tuple(
            name.strip() for name in args.oracles.split(",") if name.strip()
        )
        unknown = [name for name in chosen if name not in ALL_ORACLES]
        if unknown:
            raise ValueError(
                "unknown oracle(s) %s; choose from %s"
                % (", ".join(unknown), ", ".join(ALL_ORACLES))
            )
        options.oracles = chosen
    return options


def _fuzz_replay(args) -> int:
    import json as _json

    from repro.fuzz import corpus_dir, replay_corpus

    directory = args.replay if args.replay else corpus_dir()
    report = replay_corpus(directory, _fuzz_oracle_options(args))
    if args.json:
        print(
            _json.dumps(
                {
                    "directory": directory,
                    "entries": report.entries,
                    "passed": report.passed,
                    "ok": report.ok,
                    "failures": report.failures,
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        for failure in report.failures:
            print("FAIL %s" % failure, file=sys.stderr)
        print(
            "corpus replay: %d/%d passed (%s)"
            % (report.passed, report.entries, directory),
            file=sys.stderr,
        )
    return EXIT_OK if report.ok else EXIT_FAILURE


def _fuzz_main(argv: List[str]) -> int:
    args = build_fuzz_parser().parse_args(argv)
    import json as _json

    from repro.fuzz import FuzzConfig, run_fuzz

    try:
        oracle = _fuzz_oracle_options(args)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    if args.replay is not None:
        return _fuzz_replay(args)
    if args.iterations <= 0:
        print("error: --iterations must be positive", file=sys.stderr)
        return EXIT_USAGE

    from repro.fuzz import GeneratorConfig

    config = FuzzConfig(
        seed=args.seed,
        iterations=args.iterations,
        time_budget_seconds=args.time_budget,
        generator=GeneratorConfig(target=oracle.target),
        oracle=oracle,
        shrink=not args.no_shrink,
        save_failures_to=args.save,
        max_failures=args.max_failures,
    )

    def heartbeat(iteration: int, partial) -> None:
        if args.quiet or args.json:
            return
        if (iteration + 1) % 50 == 0 or partial.failures:
            print(
                "; %d/%d cases, %d gmas, %d failures"
                % (
                    iteration + 1,
                    args.iterations,
                    partial.gmas,
                    len(partial.failures),
                ),
                file=sys.stderr,
            )

    report = run_fuzz(config, progress=heartbeat)
    if args.json:
        print(_json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        for failure in report.failures:
            print(
                "FAIL seed=%d oracles=%s\n%s"
                % (
                    failure.case_seed,
                    ",".join(failure.oracles),
                    failure.minimized_source,
                ),
                file=sys.stderr,
            )
            for divergence in failure.divergences[:3]:
                print(
                    "  %s[%s]: %s"
                    % (
                        divergence.oracle,
                        divergence.label,
                        divergence.detail,
                    ),
                    file=sys.stderr,
                )
        checks = ", ".join(
            "%s=%d" % (k, v) for k, v in sorted(report.checks.items())
        )
        print(
            "fuzz: %d cases, %d gmas (%d compiled), %d failures, "
            "%.1fs [%s]%s"
            % (
                report.iterations,
                report.gmas,
                report.compiled,
                len(report.failures),
                report.elapsed_seconds,
                checks,
                " (stopped: %s)" % report.stopped_early
                if report.stopped_early
                else "",
            ),
            file=sys.stderr,
        )
    return EXIT_OK if report.ok else EXIT_FAILURE


# -- reports -------------------------------------------------------------------


def _write_stats_json(args, collected) -> None:
    """Aggregate the collected session stats into one JSON report."""
    import json

    from repro.core.cache import global_axiom_cache, global_saturation_cache
    from repro.core.session import aggregate_stats

    report = {
        "source": args.source,
        "arch": args.target,
        "target": args.target,
        "strategy": args.strategy,
        "backend": getattr(args, "backend", "sat"),
        "seed": getattr(args, "seed", 0),
        "gmas": [stats.to_dict() for stats in collected],
        "totals": aggregate_stats(collected),
        "global_caches": {
            "saturation": global_saturation_cache().stats.to_dict(),
            "axiom_corpus": global_axiom_cache().stats.to_dict(),
        },
    }
    with open(args.stats_json, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")


def _write_profile_json(args, collected) -> None:
    """Write the probe-ladder profile: where each compilation's time went.

    Narrower than ``--stats-json``: per probe it keeps only the solver's
    hot-path counters (propagations, conflicts, learned clauses and how
    many carried over from earlier probes) plus the encode/solve/extract
    wall-time split, and per GMA the stage totals — the numbers
    ``benchmarks/bench_incremental.py`` tracks across PRs.
    """
    import json

    gmas = []
    totals = {"propagations": 0, "conflicts": 0, "learned": 0,
              "learned_reused": 0}
    sat_totals = {"matches_attempted": 0, "matches_found": 0,
                  "matches_pruned": 0, "instances_asserted": 0,
                  "rounds": 0}
    # Flat-core telemetry: arena footprint is a peak (the largest solver
    # arena any compilation grew), compactions and snapshot copies are
    # cumulative work counts.
    flat_totals = {"solver_arena_bytes_peak": 0, "solver_watch_compactions": 0,
                   "solver_arena_compactions": 0, "snapshot_copy_bytes": 0}
    for stats in collected:
        probes = []
        for p in stats.probes:
            probes.append(
                {
                    "cycles": p.cycles,
                    "satisfiable": p.satisfiable,
                    "solver": p.solver,
                    "propagations": p.propagations,
                    "conflicts": p.conflicts,
                    "learned": p.learned,
                    "learned_reused": p.learned_reused,
                    "encode_seconds": round(p.encode_seconds, 6),
                    "solve_seconds": round(p.solve_seconds, 6),
                    "extract_seconds": round(p.extract_seconds, 6),
                }
            )
            totals["propagations"] += p.propagations
            totals["conflicts"] += p.conflicts
            totals["learned"] += p.learned
            totals["learned_reused"] += p.learned_reused
        saturation = None
        if stats.saturation is not None:
            s = stats.saturation
            saturation = {
                "incremental": s.incremental,
                "rounds": s.rounds,
                "matches_attempted": s.matches_attempted,
                "matches_found": s.matches_found,
                "matches_pruned": s.matches_pruned,
                "instances_asserted": s.instances_asserted,
                "budget_hits": {
                    key: dict(val) if isinstance(val, dict) else val
                    for key, val in s.budget_hits.items()
                },
                "per_axiom_seconds": {
                    name: round(entry.get("seconds", 0.0), 6)
                    for name, entry in s.per_axiom.items()
                },
                "phase_seconds": {
                    k: round(v, 6) for k, v in s.phase_seconds.items()
                },
            }
            sat_totals["matches_attempted"] += s.matches_attempted
            sat_totals["matches_found"] += s.matches_found
            sat_totals["matches_pruned"] += s.matches_pruned
            sat_totals["instances_asserted"] += s.instances_asserted
            sat_totals["rounds"] += s.rounds
        cache = stats.cache
        flat_cores = {
            "solver_arena_bytes": cache.get("solver_arena_bytes", 0),
            "solver_watch_compactions": cache.get(
                "solver_watch_compactions", 0
            ),
            "solver_arena_compactions": cache.get(
                "solver_arena_compactions", 0
            ),
            "snapshot_copy_bytes": cache.get("snapshot_copy_bytes", 0),
        }
        if flat_cores["solver_arena_bytes"] > flat_totals[
            "solver_arena_bytes_peak"
        ]:
            flat_totals["solver_arena_bytes_peak"] = flat_cores[
                "solver_arena_bytes"
            ]
        for key in ("solver_watch_compactions", "solver_arena_compactions",
                    "snapshot_copy_bytes"):
            flat_totals[key] += flat_cores[key]
        gmas.append(
            {
                "label": stats.label,
                "backend": stats.backend,
                "winner": stats.winner,
                "stage_seconds": {
                    k: round(v, 6) for k, v in stats.timings.items()
                },
                "saturation": saturation,
                "extraction": stats.extraction,
                "stochastic": stats.stochastic,
                "flat_cores": flat_cores,
                "probes": probes,
            }
        )
    report = {
        "source": args.source,
        "strategy": args.strategy,
        "backend": getattr(args, "backend", "sat"),
        "extraction": getattr(args, "extraction", "greedy"),
        "incremental": not args.no_incremental,
        "incremental_match": not args.no_incremental_match,
        "gmas": gmas,
        "totals": totals,
        "saturation_totals": sat_totals,
        "flat_core_totals": flat_totals,
    }
    with open(args.profile_json, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")


def _dump_dimacs(directory: str, label: str, den, gma, result) -> None:
    """Re-encode each probed budget and write DIMACS files."""
    import os

    from repro.egraph import EGraph
    from repro.encode import encode_schedule
    from repro.matching import saturate
    from repro.sat import to_dimacs

    os.makedirs(directory, exist_ok=True)
    eg = EGraph()
    goal_ids = [eg.add_term(t) for t in gma.goal_terms()]
    saturate(eg, den.axioms, den.registry, den.config.saturation)
    goal_ids = [eg.find(g) for g in goal_ids]
    for probe in result.search.probes:
        if probe.solver == "stochastic":  # no CNF behind a sampler probe
            continue
        enc = encode_schedule(eg, den.spec, goal_ids, probe.cycles)
        path = os.path.join(
            directory, "%s.K%d.cnf" % (label.replace("/", "_"), probe.cycles)
        )
        with open(path, "w") as handle:
            handle.write(
                to_dimacs(
                    enc.cnf,
                    comments=[
                        "Denali probe %s K=%d (sat=%s)"
                        % (label, probe.cycles, probe.satisfiable)
                    ],
                )
            )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

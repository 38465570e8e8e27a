"""The benchmark's workloads and the pipeline settings they compile with.

Every workload is a list of jobs, one program compiled for one target.
The inputs are fixed.  The paper's goals are pinned copies under
``inputs/``, so an edit to the repository's example files does not move
the benchmark; the fuzz programs come from fixed generator seeds, so a
change to the generator shows in the assembly digest.  README.md says
why each workload exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

INPUTS = Path(__file__).resolve().parent / "inputs"


@dataclass(frozen=True)
class Job:
    """One program compiled for one target."""

    name: str  # "<target>/<program>", the prefix of every GMA id
    source: str
    target: str


@dataclass(frozen=True)
class Workload:
    name: str
    extraction: str  # "greedy" | "exact"
    jobs: Tuple[Job, ...]

    @property
    def targets(self) -> List[str]:
        return sorted({job.target for job in self.jobs})


def _paper_job(target: str, program: str) -> Job:
    source = (INPUTS / ("%s.dn" % program)).read_text()
    return Job("%s/%s" % (target, program), source, target)


def _fuzz_job(seed: int) -> Job:
    from repro.fuzz.generator import generate_case

    return Job("ev6/fz%d" % seed, generate_case(seed).source, "ev6")


# Generator seeds whose goals hold zero-valued subterms such as
# (sub64 a a): they saturate straight to the 4000-enode cap, then encode
# a CNF of ~243k variables to emit 0-3 instructions.  Fixed even after a
# later change removes the blowup, so that change shows as a speed-up.
ENODE_CAP_SEEDS = (1008, 1018, 1034, 1087, 1107, 1132)

# Generator seeds 0-59: small GMAs whose cost is the per-compile fixed
# cost (saturation rounds, session set-up, verify).  None of them reaches
# the enode cap at the commit that introduced the benchmark (the first
# seed that does is 71); that regime is enode-cap's.
FUZZ_SMALL_SEEDS = tuple(range(60))

_KERNELS_EV6 = ("fig2", "byteswap4", "checksum")
# rv64 byteswap4 is left out: canonical decode on the 2-wide machine
# takes ~170 s for it at the default budgets.
_KERNELS_RV64 = ("fig2", "checksum")

WORKLOAD_NAMES = ("kernels", "fuzz-small", "enode-cap", "exact-extract")


def build_workload(name: str) -> Workload:
    """The named workload's jobs, in compile order."""
    if name == "kernels":
        jobs = [_paper_job("ev6", p) for p in _KERNELS_EV6]
        jobs += [_paper_job("rv64", p) for p in _KERNELS_RV64]
        return Workload(name, "greedy", tuple(jobs))
    if name == "exact-extract":
        jobs = [_paper_job("ev6", p) for p in _KERNELS_EV6]
        return Workload(name, "exact", tuple(jobs))
    if name == "enode-cap":
        return Workload(
            name, "greedy", tuple(_fuzz_job(s) for s in ENODE_CAP_SEEDS)
        )
    if name == "smoke":  # the self-checks' two-GMA workload
        jobs = (_paper_job("ev6", "fig2"), _paper_job("rv64", "fig2"))
        return Workload(name, "greedy", jobs)
    if name == "fuzz-small":
        return Workload(
            name, "greedy", tuple(_fuzz_job(s) for s in FUZZ_SMALL_SEEDS)
        )
    raise ValueError(
        "unknown workload %r (expected one of %s)"
        % (name, ", ".join(WORKLOAD_NAMES))
    )


def warmup_workload(workload: Workload) -> Workload:
    """The discarded warm-up pass: fig2 on each of the workload's targets.

    It runs every layer the workload runs (same targets, same extraction
    mode) at a fraction of a full pass's cost, so ``setup_s`` stays cheap
    enough to sample several times per run.
    """
    jobs = tuple(_paper_job(t, "fig2") for t in workload.targets)
    return Workload(workload.name + ":warmup", workload.extraction, jobs)


def cli_defaults(target: str, extraction: str):
    """The CLI's parsed defaults for one target and extraction mode."""
    from repro.cli import build_parser

    return build_parser().parse_args(
        ["bench.dn", "--target", target, "--extraction", extraction]
    )


def make_config(args):
    """A fresh ``DenaliConfig`` built the way ``repro`` builds it from ``args``.

    Fresh per compile: ``Denali`` mutates its config (rv64 turns on the
    mask-alternative synthesis), so configs are never shared.
    """
    from repro.core.pipeline import DenaliConfig
    from repro.core.probes import SearchStrategy
    from repro.matching import SaturationConfig
    from repro.stochastic.search import StochasticConfig

    return DenaliConfig(
        target=args.target,
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


def settings_summary(args) -> Dict[str, object]:
    """The pipeline settings worth printing beside the numbers."""
    return {
        "strategy": args.strategy,
        "max_cycles": args.max_cycles,
        "max_rounds": args.max_rounds,
        "max_enodes": args.max_enodes,
        "extraction": args.extraction,
        "verify": not args.no_verify,
    }

"""repro: a reproduction of "Denali: a Goal-directed Superoptimizer".

Joshi, Nelson and Randall, PLDI 2002.

The package implements the complete Denali pipeline — the input language,
translation to guarded multi-assignments, E-graph matching against
declarative axiom files, propositional constraint generation, CDCL SAT
solving, cycle-budget search and code extraction for an Alpha EV6 machine
model — plus the baselines (a Massalin-style brute-force superoptimizer
and a conventional code generator) and the simulators used to verify and
measure generated code.

Quick start::

    from repro import Denali, ev6, mk, inp, const

    den = Denali(ev6())
    result = den.compile_term(mk("add64", mk("mul64", inp("reg6"), const(4)),
                                const(1)))
    print(result.assembly)   # a single s4addq
"""

from repro.terms import (
    Memory,
    Sort,
    Term,
    const,
    default_registry,
    evaluate,
    inp,
    mk,
)
from repro.egraph import EGraph
from repro.axioms import (
    AxiomSet,
    alpha_axioms,
    checksum_axioms,
    constant_synthesis_axioms,
    math_axioms,
    parse_axiom_file,
)
from repro.matching import SaturationConfig, saturate
from repro.isa import ArchSpec, ev6, itanium_like, simple_risc
from repro.lang import GMA, parse_program, software_pipeline, translate_procedure
from repro.core import (
    CompilationResult,
    CompilationSession,
    Denali,
    DenaliConfig,
    ProcedureResult,
    Schedule,
    SearchStrategy,
    StageStats,
    add_observer,
    execute_program,
    global_saturation_cache,
    remove_observer,
)
from repro.sim import execute_schedule, simulate_timing
from repro.verify import check_schedule

__version__ = "1.9.0"

__all__ = [
    "Memory",
    "Sort",
    "Term",
    "const",
    "default_registry",
    "evaluate",
    "inp",
    "mk",
    "EGraph",
    "AxiomSet",
    "alpha_axioms",
    "checksum_axioms",
    "constant_synthesis_axioms",
    "math_axioms",
    "parse_axiom_file",
    "SaturationConfig",
    "saturate",
    "ArchSpec",
    "ev6",
    "itanium_like",
    "simple_risc",
    "GMA",
    "parse_program",
    "software_pipeline",
    "translate_procedure",
    "CompilationResult",
    "CompilationSession",
    "Denali",
    "DenaliConfig",
    "ProcedureResult",
    "Schedule",
    "SearchStrategy",
    "StageStats",
    "add_observer",
    "remove_observer",
    "global_saturation_cache",
    "execute_program",
    "execute_schedule",
    "simulate_timing",
    "check_schedule",
    "__version__",
]

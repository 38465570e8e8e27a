"""The Denali pipeline: GMA → E-graph → CNF → SAT → assembly.

:class:`~repro.core.pipeline.Denali` is the public entry point; it wires
the matcher, the constraint generator, the SAT solver, the cycle-budget
search and the extractor together (the paper's Figure 1).
"""

from repro.core.emit import (
    ExtractionError,
    Schedule,
    ScheduledInstruction,
    extract_schedule,
)
from repro.core.moves import (
    MoveError,
    bind_outputs,
    sequentialize_parallel_moves,
)
from repro.core.probes import (
    BinaryScheduler,
    LinearScheduler,
    Probe,
    ProbeScheduler,
    SearchOutcome,
    SearchStrategy,
    get_scheduler,
    search_min_cycles,
)
from repro.core.cache import (
    AxiomCorpusCache,
    SaturationCache,
    global_axiom_cache,
    global_saturation_cache,
)
from repro.core.session import (
    CompilationSession,
    StageStats,
    add_observer,
    remove_observer,
)
from repro.core.pipeline import (
    CompilationResult,
    Denali,
    DenaliConfig,
    ProcedureResult,
)
from repro.core.program import (
    AsmProgram,
    ProgramError,
    assemble_procedure,
    execute_program,
)

__all__ = [
    "ExtractionError",
    "Schedule",
    "ScheduledInstruction",
    "extract_schedule",
    "MoveError",
    "bind_outputs",
    "sequentialize_parallel_moves",
    "BinaryScheduler",
    "LinearScheduler",
    "Probe",
    "ProbeScheduler",
    "SearchOutcome",
    "SearchStrategy",
    "get_scheduler",
    "search_min_cycles",
    "AxiomCorpusCache",
    "SaturationCache",
    "global_axiom_cache",
    "global_saturation_cache",
    "CompilationSession",
    "StageStats",
    "add_observer",
    "remove_observer",
    "CompilationResult",
    "Denali",
    "DenaliConfig",
    "ProcedureResult",
    "AsmProgram",
    "ProgramError",
    "assemble_procedure",
    "execute_program",
]

"""Persistent incremental SAT across the cycle-budget probe ladder.

Denali's outer loop asks "is there a program in <= K cycles?" for a
ladder of budgets K.  The CNF for neighbouring budgets shares almost
every clause (see :class:`repro.encode.constraints.IncrementalEncoder`),
so rebuilding the solver per probe throws away watched-literal lists,
VSIDS activities, saved phases and — most importantly — learned clauses
that remain valid for every later probe.

:class:`IncrementalSolver` keeps one :class:`~repro.sat.solver._SolverCore`
alive for a whole ladder, MiniSat-style:

* **clauses are permanent** — budget-independent cycle-block clauses are
  added once and shared by every probe;
* **budget-local clauses are gated** behind a fresh *selector* literal
  ``s_K`` (the clause set ``C`` becomes ``{ s_K -> c : c in C }``), and a
  probe at budget K solves under the assumptions ``[s_K] + [-s_J ...]``
  for every other live budget J;
* **learned clauses carry over**: clauses learned while probing budget K
  are implied by the gated formula alone (assumptions enter analysis as
  decisions), so they soundly prune the K+1 — or, under binary search,
  the K-1 — probe;
* **retiring a budget** (:meth:`retire_budget`) permanently asserts
  ``-s_K``, and the selector-aware clause-DB reduction drops every
  learned clause mentioning ``s_K`` — those are satisfied under every
  other budget's assumptions and would only clog the watch lists.

Because selector variables occur only negatively in the gated formula,
an UNSAT answer under ``s_K`` is exactly "no K-cycle program", never an
artifact of the gating (a positive ``s_K`` can only be forced when the
formula plus the probe's own assumptions is already unsatisfiable).

The instance is thread-safe: a reentrant lock serialises mutation and
solving, so a solve abandoned through ``stop_check`` (the backend race
cancelling the SAT side) releases the solver without corrupting it.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.sat.solver import SatResult, _SolverCore, merge_stats


class IncrementalSolver:
    """A CDCL solver that persists across ``solve`` calls.

    The public surface mirrors MiniSat's incremental interface:
    :meth:`add_clause` / :meth:`solve` (under assumptions), plus the
    budget-ladder conveniences :meth:`push_budget`,
    :meth:`solve_budget` and :meth:`retire_budget`.
    """

    def __init__(
        self,
        restart_base: int = 100,
        var_decay: float = 0.95,
        clause_decay: float = 0.999,
        max_learnts_factor: float = 3.0,
    ) -> None:
        self._core = _SolverCore(
            restart_base=restart_base,
            var_decay=var_decay,
            clause_decay=clause_decay,
            max_learnts_factor=max_learnts_factor,
        )
        self._lock = threading.RLock()
        self._budgets: Dict[int, int] = {}  # budget K -> selector var
        self._retired: Dict[int, int] = {}
        # Cumulative telemetry for the profiling harness.
        self.solves = 0
        self.clauses_added = 0
        self.learnts_dropped_on_retire = 0

    # -- formula growth ------------------------------------------------------

    @property
    def num_vars(self) -> int:
        return self._core.num_vars

    @property
    def root_unsat(self) -> bool:
        """True once the permanent formula itself has been refuted."""
        return self._core.root_unsat

    @property
    def learnts(self) -> int:
        """Learned clauses currently retained in the database."""
        return len(self._core._learnts)

    def flat_counters(self) -> Dict[str, int]:
        """The core's flat-arena telemetry (see ``_SolverCore.flat_counters``)."""
        with self._lock:
            return self._core.flat_counters()

    def ensure_vars(self, num_vars: int) -> None:
        """Grow the variable space to at least ``num_vars``."""
        with self._lock:
            self._core.grow(num_vars)

    def add_clause(self, lits: Sequence[int], trusted: bool = False) -> bool:
        """Add a permanent clause; returns False on root contradiction.

        Variables must have been allocated via :meth:`ensure_vars`.  A
        False return latches :attr:`root_unsat`: every later solve is
        UNSAT regardless of assumptions.  ``trusted`` clauses skip the
        dedup/tautology normalisation (the encoder already guarantees
        both for its emitted clauses).
        """
        with self._lock:
            self.clauses_added += 1
            return self._core.add_clause(list(lits), trusted=trusted)

    def add_clauses(
        self, clauses: Iterable[Sequence[int]], trusted: bool = False
    ) -> bool:
        """Add many permanent clauses; False if any contradicts the root."""
        with self._lock:
            if trusted:
                clauses = clauses if isinstance(clauses, list) else list(clauses)
                self.clauses_added += len(clauses)
                return self._core.add_clauses_trusted(clauses)
            ok = True
            for lits in clauses:
                self.clauses_added += 1
                if not self._core.add_clause(list(lits), trusted=False):
                    ok = False
            return ok

    # -- the budget ladder ---------------------------------------------------

    def push_budget(self, cycles: int, selector: int) -> None:
        """Register ``selector`` as the gate literal for budget ``cycles``.

        The caller is expected to have added that budget's clauses gated
        as ``(-selector | ...)``; :meth:`solve_budget` then assumes the
        selector true (and every other live budget's selector false).
        """
        if selector <= 0:
            raise ValueError("selector must be a positive literal")
        with self._lock:
            if cycles in self._retired:
                raise ValueError("budget %d was already retired" % cycles)
            self._core.grow(selector)
            self._budgets[cycles] = selector

    def budget_selector(self, cycles: int) -> Optional[int]:
        with self._lock:
            return self._budgets.get(cycles)

    def retire_budget(self, cycles: int) -> int:
        """Permanently disable a budget; drop its local learnt clauses.

        Asserts the selector false (satisfying every clause gated on it)
        and purges learned clauses that mention the selector in either
        polarity — they are satisfied under every other budget's
        assumptions, so keeping them would only slow propagation.
        Returns the number of learnt clauses dropped.
        """
        with self._lock:
            selector = self._budgets.pop(cycles, None)
            if selector is None:
                return 0
            self._retired[cycles] = selector
            dropped = self._core.purge_learnts(
                lambda lits, s=selector: any(abs(l) == s for l in lits)
            )
            self.learnts_dropped_on_retire += dropped
            self._core.add_clause([-selector])
            return dropped

    # -- solving -------------------------------------------------------------

    def solve(
        self,
        assumptions: Sequence[int] = (),
        conflict_budget: Optional[int] = None,
        deadline_seconds: Optional[float] = None,
        stop_check: Optional[Callable[[], bool]] = None,
        canonical_model: bool = False,
    ) -> SatResult:
        """One run under ``assumptions``, retaining everything learned.

        ``result.stats.learned_kept`` reports how many learned clauses
        from earlier runs were live when this run began — the ladder's
        clause-reuse signal.

        ``canonical_model=True`` answers with the unique lex-least model
        of the formula under the assumptions, unaffected by the heuristic
        state this solver carried in from earlier probes.  That is what
        makes the decoded assembly byte-identical to the from-scratch
        path's.  The canonical (lexicographic) decision mode runs
        *first*: a satisfiable canonical run already is the answer, and
        an unsatisfiable one is a proof like any other — either way the
        heuristic search that used to precede the canonical rerun is
        skipped entirely.  Only an inconclusive canonical run (conflict
        budget, deadline or cancellation) falls back to the historical
        heuristic-then-canonical sequence.
        """
        with self._lock:
            self.solves += 1
            if canonical_model:
                canon = self._core.run(
                    assumptions,
                    conflict_budget=conflict_budget,
                    deadline_seconds=deadline_seconds,
                    stop_check=stop_check,
                    canonical=True,
                )
                if canon.satisfiable is not None:
                    return canon
            res = self._core.run(
                assumptions,
                conflict_budget=conflict_budget,
                deadline_seconds=deadline_seconds,
                stop_check=stop_check,
            )
            if canonical_model and res.satisfiable:
                canon = self._core.run(
                    assumptions,
                    conflict_budget=conflict_budget,
                    deadline_seconds=deadline_seconds,
                    stop_check=stop_check,
                    canonical=True,
                )
                if canon.satisfiable:
                    res = SatResult(
                        True, canon.model, merge_stats(res.stats, canon.stats)
                    )
            return res

    def solve_budget(
        self,
        cycles: int,
        extra_assumptions: Sequence[int] = (),
        conflict_budget: Optional[int] = None,
        deadline_seconds: Optional[float] = None,
        stop_check: Optional[Callable[[], bool]] = None,
        canonical_model: bool = False,
    ) -> SatResult:
        """Probe one registered budget.

        Assumes the budget's selector true and every other live budget's
        selector false (their gated clauses must not constrain this
        probe, and deciding them would waste solver effort).
        """
        with self._lock:
            try:
                selector = self._budgets[cycles]
            except KeyError:
                raise KeyError("budget %d was never pushed" % cycles)
            assumptions: List[int] = [selector]
            for other, sel in sorted(self._budgets.items()):
                if other != cycles:
                    assumptions.append(-sel)
            assumptions.extend(extra_assumptions)
            return self.solve(
                assumptions,
                conflict_budget=conflict_budget,
                deadline_seconds=deadline_seconds,
                stop_check=stop_check,
                canonical_model=canonical_model,
            )

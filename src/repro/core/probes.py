"""Cycle-budget probe scheduling.

The paper searches cycle budgets with binary search ("Since the costs of
the probes are far from constant, binary search might not be the best
strategy, but we have not explored alternatives", section 1.3).  This
module generalises the search into pluggable :class:`ProbeScheduler`
strategies:

* :class:`BinaryScheduler` — the paper's binary search;
* :class:`LinearScheduler` — escalate K = lo, lo+1, ... until SAT.

Both probe one budget at a time, and both rely on satisfiability
monotonicity: adding a cycle to the budget never makes a feasible goal
infeasible.  Probes that return ``None`` (solver budget exhausted) are
treated conservatively: the budget is neither raised as a floor nor
accepted, so ``optimal`` is never claimed across an unknown gap.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple


class SearchStrategy(enum.Enum):
    BINARY = "binary"
    LINEAR = "linear"  # try K = lo, lo+1, ... until SAT


@dataclass
class Probe:
    """One satisfiability probe at a specific cycle budget."""

    cycles: int
    satisfiable: Optional[bool]
    vars: int = 0
    clauses: int = 0
    conflicts: int = 0
    propagations: int = 0
    time_seconds: float = 0.0
    # Per-stage breakdown (filled by the session's instrumented probe).
    encode_seconds: float = 0.0
    solve_seconds: float = 0.0
    extract_seconds: float = 0.0
    # Cycles of CNF prefix served from the cross-probe cache.
    prefix_cycles_reused: int = 0
    # Clause learning: produced this probe / carried in from earlier probes
    # of the same session ("scratch" probes always report 0 reused).
    learned: int = 0
    learned_reused: int = 0
    solver: str = "scratch"
    cancelled: bool = False

    def to_dict(self) -> dict:
        return {
            "cycles": self.cycles,
            "satisfiable": self.satisfiable,
            "vars": self.vars,
            "clauses": self.clauses,
            "conflicts": self.conflicts,
            "propagations": self.propagations,
            "time_seconds": self.time_seconds,
            "encode_seconds": self.encode_seconds,
            "solve_seconds": self.solve_seconds,
            "extract_seconds": self.extract_seconds,
            "prefix_cycles_reused": self.prefix_cycles_reused,
            "learned": self.learned,
            "learned_reused": self.learned_reused,
            "solver": self.solver,
            "cancelled": self.cancelled,
        }


@dataclass
class SearchOutcome:
    """Result of the budget search.

    ``best_cycles`` is the least K whose probe was SAT; ``proved_floor``
    is the largest K proved UNSAT (so ``best_cycles == proved_floor + 1``
    certifies optimality relative to the E-graph).
    """

    best_cycles: Optional[int]
    best_payload: object = None
    proved_floor: int = 0
    probes: List[Probe] = field(default_factory=list)

    @property
    def optimal(self) -> bool:
        return (
            self.best_cycles is not None
            and self.proved_floor == self.best_cycles - 1
        )


class CancelToken:
    """Cooperative cancellation handle shared by :class:`BackendRace`.

    A contestant polls :meth:`is_set` (the SAT side through the solver's
    ``stop_check`` hook) and abandons its run once another contestant
    has reported a verified schedule.
    """

    __slots__ = ("_event",)

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        self._event.set()

    def is_set(self) -> bool:
        return self._event.is_set()

    __call__ = is_set


# probe(k) -> (satisfiable, payload, stats).
ProbeFn = Callable[[int], Tuple[Optional[bool], object, Probe]]


class ProbeScheduler:
    """Strategy interface: decide which budgets to probe, in what order.

    Subclasses probe one budget at a time and share the bookkeeping in
    :meth:`_run`.
    """

    name = "abstract"

    def search(self, probe: ProbeFn, lo: int, hi: int) -> SearchOutcome:
        raise NotImplementedError

    @staticmethod
    def _validate(lo: int, hi: int) -> None:
        if lo < 1 or hi < lo:
            raise ValueError("need 1 <= lo <= hi")

    def _run(self, outcome: SearchOutcome, probe: ProbeFn, k: int):
        sat, payload, stats = probe(k)
        outcome.probes.append(stats)
        if sat:
            if outcome.best_cycles is None or k < outcome.best_cycles:
                outcome.best_cycles = k
                outcome.best_payload = payload
        elif sat is False:
            outcome.proved_floor = max(outcome.proved_floor, k)
        return sat


class LinearScheduler(ProbeScheduler):
    name = "linear"

    def search(self, probe: ProbeFn, lo: int, hi: int) -> SearchOutcome:
        self._validate(lo, hi)
        outcome = SearchOutcome(best_cycles=None, proved_floor=lo - 1)
        for k in range(lo, hi + 1):
            if self._run(outcome, probe, k):
                break
        return outcome


class BinaryScheduler(ProbeScheduler):
    name = "binary"

    def search(self, probe: ProbeFn, lo: int, hi: int) -> SearchOutcome:
        self._validate(lo, hi)
        outcome = SearchOutcome(best_cycles=None, proved_floor=lo - 1)
        # Invariant: all K <= proved_floor are UNSAT, best is SAT.
        low, high = lo, hi
        while low <= high:
            mid = (low + high) // 2
            sat = self._run(outcome, probe, mid)
            if sat:
                high = mid - 1
            else:
                # UNSAT or unknown: move up past mid.  Only an UNSAT answer
                # raised proved_floor, so an unknown mid leaves a gap that
                # keeps ``optimal`` false.
                low = mid + 1
        return outcome


@dataclass
class RaceEntry:
    """One contestant's report to :class:`BackendRace`."""

    name: str
    verified: bool
    cycles: Optional[int]
    payload: object = None
    time_seconds: float = 0.0
    cancelled: bool = False


class BackendRace:
    """Race heterogeneous backends; the first verified winner cancels the rest.

    Each contestant is a callable ``fn(token) -> RaceEntry`` that polls the
    shared :class:`CancelToken` and returns what it found.  The moment a
    contestant reports a *verified* schedule the token is set, so the
    losers abandon their runs cooperatively; contestants that merely
    finish (exhausted, UNSAT, cancelled) never cancel anyone.

    The winner is the first contestant to report a verified result (wall
    clock); if several verify before noticing the token, the earlier
    reporter keeps the win — by construction any later verified result
    was produced under a cancelled race and may be partial.
    """

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self.max_workers = max_workers

    def run(
        self,
        contestants: List[Tuple[str, Callable[[CancelToken], RaceEntry]]],
    ) -> Tuple[Optional[str], Dict[str, RaceEntry]]:
        from concurrent.futures import ThreadPoolExecutor

        if not contestants:
            return None, {}
        token = CancelToken()
        lock = threading.Lock()
        state: Dict[str, Optional[str]] = {"winner": None}

        def worker(name: str, fn) -> Tuple[str, RaceEntry]:
            entry = fn(token)
            if entry.verified:
                with lock:
                    if state["winner"] is None:
                        state["winner"] = name
                        token.cancel()
            return name, entry

        entries: Dict[str, RaceEntry] = {}
        workers = self.max_workers or len(contestants)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(worker, name, fn) for name, fn in contestants
            ]
            for future in futures:
                name, entry = future.result()
                entries[name] = entry
        return state["winner"], entries


_SCHEDULERS = {
    SearchStrategy.BINARY: BinaryScheduler,
    SearchStrategy.LINEAR: LinearScheduler,
}


def get_scheduler(strategy: SearchStrategy) -> ProbeScheduler:
    """Instantiate the scheduler for ``strategy``."""
    return _SCHEDULERS[strategy]()


def search_min_cycles(
    probe: ProbeFn,
    lo: int,
    hi: int,
    strategy: SearchStrategy = SearchStrategy.BINARY,
) -> SearchOutcome:
    """Find the least K in [lo, hi] for which ``probe(K)`` is satisfiable.

    ``probe`` returns ``(satisfiable, payload, stats)``; payload of the best
    SAT probe (e.g. the decoded model) is kept.  Probes returning ``None``
    (solver budget exhausted) are treated conservatively: the budget is
    neither raised as a floor nor accepted.  Binary search then moves its
    lower bound past the unknown budget (``low = mid + 1``), the same
    step an UNSAT answer takes, so ``optimal`` stays false across the gap.
    """
    return get_scheduler(strategy).search(probe, lo, hi)

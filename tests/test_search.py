"""Tests for the cycle-budget search."""

import time

import pytest

from repro.core.probes import (
    CancelToken,
    Probe,
    SearchStrategy,
    search_min_cycles,
)


def _oracle(threshold, record=None, unknown_at=()):
    """A probe that is SAT iff k >= threshold."""

    def probe(k):
        if record is not None:
            record.append(k)
        if k in unknown_at:
            return None, None, Probe(cycles=k, satisfiable=None)
        sat = k >= threshold
        return sat, ("model", k) if sat else None, Probe(cycles=k, satisfiable=sat)

    return probe


class TestBinarySearch:
    @pytest.mark.parametrize("threshold", [1, 3, 5, 8, 12])
    def test_finds_minimum(self, threshold):
        out = search_min_cycles(_oracle(threshold), 1, 12)
        assert out.best_cycles == threshold
        assert out.best_payload == ("model", threshold)

    @pytest.mark.parametrize("threshold", [2, 5, 9])
    def test_proves_optimality(self, threshold):
        out = search_min_cycles(_oracle(threshold), 1, 12)
        assert out.optimal
        assert out.proved_floor == threshold - 1

    def test_all_unsat(self):
        out = search_min_cycles(_oracle(100), 1, 12)
        assert out.best_cycles is None
        assert out.proved_floor == 12

    def test_all_sat(self):
        out = search_min_cycles(_oracle(1), 1, 12)
        assert out.best_cycles == 1
        assert out.optimal  # floor is lo-1 = 0

    def test_probe_count_logarithmic(self):
        calls = []
        search_min_cycles(_oracle(7, record=calls), 1, 64)
        assert len(calls) <= 8

    def test_unknown_probes_degrade_gracefully(self):
        out = search_min_cycles(_oracle(5, unknown_at={4}), 1, 12)
        assert out.best_cycles == 5
        # Optimality cannot be claimed: K=4 was never refuted.
        assert not out.optimal

    def test_probes_recorded(self):
        out = search_min_cycles(_oracle(3), 1, 8)
        assert all(isinstance(p, Probe) for p in out.probes)
        assert len(out.probes) >= 3


class TestUnknownProbes:
    """Regression tests for the ``sat is None`` paths.

    An unknown probe (solver budget or deadline exhausted) must never be
    counted as an UNSAT floor, and optimality must never be claimed when
    the budget just below the best SAT was skipped or unknown.
    """

    def test_unknown_gap_never_claims_optimal(self):
        # Binary search skips across the unknown budgets 4 and 5 and
        # still finds the optimum at 6 — but with K=5 unrefuted it must
        # not claim the proof.
        calls = []
        out = search_min_cycles(
            _oracle(6, record=calls, unknown_at={4, 5}), 1, 12
        )
        assert out.best_cycles == 6
        assert not out.optimal
        assert out.proved_floor == 3
        # The unknown probes were actually attempted, not silently skipped.
        assert {4, 5} <= set(calls)

    def test_unknown_below_refuted_floor_is_still_optimal(self):
        # K=4 is unknown but K=5 is explicitly refuted, so best=6 is
        # proved optimal by monotonicity regardless of the gap below.
        out = search_min_cycles(_oracle(6, unknown_at={4}), 1, 12)
        assert out.best_cycles == 6
        assert out.proved_floor == 5
        assert out.optimal

    def test_all_unknown(self):
        out = search_min_cycles(_oracle(100, unknown_at=set(range(1, 13))), 1, 12)
        assert out.best_cycles is None
        assert out.best_payload is None
        assert out.proved_floor == 0
        assert not out.optimal

    def test_linear_unknown_is_not_a_floor(self):
        out = search_min_cycles(
            _oracle(5, unknown_at={4}), 1, 12, SearchStrategy.LINEAR
        )
        assert out.best_cycles == 5
        assert out.proved_floor == 3
        assert not out.optimal

    def test_linear_unknown_bridged_by_later_unsat(self):
        out = search_min_cycles(
            _oracle(5, unknown_at={3}), 1, 12, SearchStrategy.LINEAR
        )
        assert out.best_cycles == 5
        assert out.proved_floor == 4  # K=4's explicit refutation
        assert out.optimal


class TestCancelToken:
    def test_starts_clear_and_latches(self):
        token = CancelToken()
        assert not token.is_set()
        assert not token()
        token.cancel()
        assert token.is_set()
        assert token()  # callable form, as the solver's stop_check


class TestLinearSearch:
    def test_finds_minimum(self):
        calls = []
        out = search_min_cycles(
            _oracle(4, record=calls), 1, 12, SearchStrategy.LINEAR
        )
        assert out.best_cycles == 4
        assert calls == [1, 2, 3, 4]
        assert out.optimal

    def test_stops_at_hi(self):
        out = search_min_cycles(_oracle(100), 1, 5, SearchStrategy.LINEAR)
        assert out.best_cycles is None
        assert out.proved_floor == 5


class TestValidation:
    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            search_min_cycles(_oracle(1), 0, 5)
        with pytest.raises(ValueError):
            search_min_cycles(_oracle(1), 5, 4)


class TestPublicSurface:
    """The probe module's public names are load-bearing API.

    The session, the backend race, the service and the extraction stage
    all import from ``repro.core.probes``; these assertions pin the
    names and the record schemas so a refactor that renames or drops
    one fails here first, not in a consumer.
    """

    def test_module_exports(self):
        import repro.core.probes as probes

        for name in (
            "Probe",
            "SearchOutcome",
            "SearchStrategy",
            "CancelToken",
            "ProbeScheduler",
            "LinearScheduler",
            "BinaryScheduler",
            "BackendRace",
            "RaceEntry",
            "get_scheduler",
            "search_min_cycles",
        ):
            assert hasattr(probes, name), name

    def test_strategy_values_are_the_cli_choices(self):
        assert {s.value for s in SearchStrategy} == {"binary", "linear"}

    def test_probe_to_dict_schema(self):
        probe = Probe(cycles=3, satisfiable=True)
        record = probe.to_dict()
        assert {
            "cycles", "satisfiable", "vars", "clauses", "conflicts",
            "propagations", "time_seconds", "encode_seconds",
            "solve_seconds", "extract_seconds", "prefix_cycles_reused",
            "learned", "learned_reused", "solver", "cancelled",
        } <= set(record)
        assert record["cycles"] == 3 and record["satisfiable"] is True

    def test_get_scheduler_dispatch(self):
        from repro.core.probes import (
            BinaryScheduler,
            LinearScheduler,
            get_scheduler,
        )

        assert isinstance(
            get_scheduler(SearchStrategy.BINARY), BinaryScheduler
        )
        assert isinstance(
            get_scheduler(SearchStrategy.LINEAR), LinearScheduler
        )

    def test_backend_race_first_verified_wins_and_cancels(self):
        from repro.core.probes import BackendRace, RaceEntry

        def fast(token):
            return RaceEntry(name="fast", verified=True, cycles=3)

        def slow(token):
            deadline = time.time() + 5.0
            while not token() and time.time() < deadline:
                time.sleep(0.001)
            return RaceEntry(
                name="slow", verified=False, cycles=None, cancelled=token()
            )

        winner, entries = BackendRace().run(
            [("fast", fast), ("slow", slow)]
        )
        assert winner == "fast"
        assert entries["slow"].cancelled

    def test_backend_race_no_contestants(self):
        from repro.core.probes import BackendRace

        assert BackendRace().run([]) == (None, {})

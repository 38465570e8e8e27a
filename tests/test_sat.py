"""Tests for the CNF builder and the CDCL solver."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sat import CNF, CdclSolver, from_dimacs, to_dimacs
from repro.sat.solver import _luby


def brute_force_sat(cnf: CNF):
    """Reference decision procedure by exhaustive enumeration."""
    n = cnf.num_vars
    for bits in itertools.product([False, True], repeat=n):
        assign = {v: bits[v - 1] for v in range(1, n + 1)}
        ok = all(
            any(assign[abs(l)] == (l > 0) for l in clause)
            for clause in cnf.clauses
        )
        if ok:
            return assign
    return None


def check_model(cnf: CNF, model):
    for clause in cnf.clauses:
        assert any(model.get(abs(l), False) == (l > 0) for l in clause), clause


class TestCnfBuilder:
    def test_new_var_sequential(self):
        cnf = CNF()
        assert cnf.new_var() == 1
        assert cnf.new_var() == 2

    def test_named_var_reused(self):
        cnf = CNF()
        assert cnf.var(("L", 0)) == cnf.var(("L", 0))

    def test_duplicate_name_rejected(self):
        cnf = CNF()
        cnf.new_var("x")
        with pytest.raises(ValueError):
            cnf.new_var("x")

    def test_name_of(self):
        cnf = CNF()
        v = cnf.var("hello")
        assert cnf.name_of(v) == "hello"

    def test_tautology_dropped(self):
        cnf = CNF()
        v = cnf.new_var()
        cnf.add(v, -v)
        assert len(cnf) == 0

    def test_duplicate_literals_merged(self):
        cnf = CNF()
        v = cnf.new_var()
        cnf.add(v, v)
        assert cnf.clauses == [[v]]

    def test_zero_literal_rejected(self):
        cnf = CNF()
        cnf.new_var()
        with pytest.raises(ValueError):
            cnf.add(0)

    def test_unallocated_variable_rejected(self):
        cnf = CNF()
        with pytest.raises(ValueError):
            cnf.add(3)

    def test_implies(self):
        cnf = CNF()
        a, b = cnf.new_var(), cnf.new_var()
        cnf.implies(a, b)
        assert cnf.clauses == [[-a, b]]

    def test_stats(self):
        cnf = CNF()
        a, b = cnf.new_var(), cnf.new_var()
        cnf.add(a, b)
        s = cnf.stats()
        assert s == {"vars": 2, "clauses": 1, "literals": 2}


class TestAtMostOne:
    @pytest.mark.parametrize("n", [2, 3, 5, 6, 7, 10, 20])
    def test_at_most_one_blocks_pairs(self, n):
        cnf = CNF()
        xs = [cnf.new_var() for _ in range(n)]
        cnf.at_most_one(xs)
        solver = CdclSolver()
        # Any two xs true must be unsat.
        res = solver.solve(cnf, assumptions=[xs[0], xs[n // 2]])
        assert res.satisfiable is False

    @pytest.mark.parametrize("n", [2, 5, 7, 12])
    def test_at_most_one_allows_single(self, n):
        cnf = CNF()
        xs = [cnf.new_var() for _ in range(n)]
        cnf.at_most_one(xs)
        for x in xs:
            res = CdclSolver().solve(cnf, assumptions=[x])
            assert res.satisfiable is True

    @pytest.mark.parametrize("n", [3, 8])
    def test_at_most_one_allows_none(self, n):
        cnf = CNF()
        xs = [cnf.new_var() for _ in range(n)]
        cnf.at_most_one(xs)
        res = CdclSolver().solve(cnf, assumptions=[-x for x in xs])
        assert res.satisfiable is True

    def test_exactly_one_requires_one(self):
        cnf = CNF()
        xs = [cnf.new_var() for _ in range(4)]
        cnf.exactly_one(xs)
        res = CdclSolver().solve(cnf, assumptions=[-x for x in xs])
        assert res.satisfiable is False


class TestLuby:
    def test_prefix(self):
        assert [_luby(i) for i in range(1, 16)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
        ]


class TestSolverBasics:
    def test_empty_formula_sat(self):
        res = CdclSolver().solve(CNF())
        assert res.satisfiable is True

    def test_single_unit(self):
        cnf = CNF()
        v = cnf.new_var()
        cnf.add(v)
        res = CdclSolver().solve(cnf)
        assert res.satisfiable and res.model[v] is True

    def test_contradictory_units(self):
        cnf = CNF()
        v = cnf.new_var()
        cnf.add(v)
        cnf.add(-v)
        assert CdclSolver().solve(cnf).satisfiable is False

    def test_simple_implication_chain(self):
        cnf = CNF()
        vs = [cnf.new_var() for _ in range(10)]
        cnf.add(vs[0])
        for a, b in zip(vs, vs[1:]):
            cnf.implies(a, b)
        res = CdclSolver().solve(cnf)
        assert res.satisfiable
        assert all(res.model[v] for v in vs)

    def test_pigeonhole_3_into_2_unsat(self):
        # 3 pigeons, 2 holes: classic small UNSAT instance.
        cnf = CNF()
        x = {(p, h): cnf.new_var() for p in range(3) for h in range(2)}
        for p in range(3):
            cnf.add(x[(p, 0)], x[(p, 1)])
        for h in range(2):
            for p1 in range(3):
                for p2 in range(p1 + 1, 3):
                    cnf.add(-x[(p1, h)], -x[(p2, h)])
        assert CdclSolver().solve(cnf).satisfiable is False

    def test_pigeonhole_4_into_4_sat(self):
        cnf = CNF()
        x = {(p, h): cnf.new_var() for p in range(4) for h in range(4)}
        for p in range(4):
            cnf.add_clause([x[(p, h)] for h in range(4)])
        for h in range(4):
            for p1 in range(4):
                for p2 in range(p1 + 1, 4):
                    cnf.add(-x[(p1, h)], -x[(p2, h)])
        res = CdclSolver().solve(cnf)
        assert res.satisfiable
        check_model(cnf, res.model)

    def test_assumptions_sat_then_flipped(self):
        cnf = CNF()
        a, b = cnf.new_var(), cnf.new_var()
        cnf.add(a, b)
        assert CdclSolver().solve(cnf, assumptions=[-a]).satisfiable
        assert CdclSolver().solve(cnf, assumptions=[-a, -b]).satisfiable is False

    def test_conflict_budget_returns_unknown(self):
        # A formula hard enough to exceed a 1-conflict budget.
        cnf = CNF()
        x = {(p, h): cnf.new_var() for p in range(6) for h in range(5)}
        for p in range(6):
            cnf.add_clause([x[(p, h)] for h in range(5)])
        for h in range(5):
            for p1 in range(6):
                for p2 in range(p1 + 1, 6):
                    cnf.add(-x[(p1, h)], -x[(p2, h)])
        res = CdclSolver(conflict_budget=1).solve(cnf)
        assert res.satisfiable is None

    def test_stats_populated(self):
        cnf = CNF()
        a, b = cnf.new_var(), cnf.new_var()
        cnf.add(a, b)
        cnf.add(-a, b)
        res = CdclSolver().solve(cnf)
        assert res.stats.time_seconds >= 0.0
        assert res.satisfiable


class TestSolverInterruption:
    """The deadline / stop_check hooks the backend race cancels through."""

    @staticmethod
    def _needs_decisions() -> CNF:
        # Nothing propagates at level 0, so the solver must decide.
        cnf = CNF()
        a, b = cnf.new_var(), cnf.new_var()
        cnf.add(a, b)
        return cnf

    def test_stop_check_aborts_with_unknown(self):
        res = CdclSolver(stop_check=lambda: True).solve(self._needs_decisions())
        assert res.satisfiable is None
        assert res.model is None

    def test_stop_check_false_does_not_interfere(self):
        calls = []

        def stop():
            calls.append(1)
            return False

        res = CdclSolver(stop_check=stop).solve(self._needs_decisions())
        assert res.satisfiable is True
        assert calls  # the hook was actually polled

    def test_expired_deadline_aborts_with_unknown(self):
        res = CdclSolver(deadline_seconds=0.0).solve(self._needs_decisions())
        assert res.satisfiable is None

    def test_generous_deadline_solves_normally(self):
        res = CdclSolver(deadline_seconds=60.0).solve(self._needs_decisions())
        assert res.satisfiable is True

    def test_level_zero_conflicts_still_reported_unsat(self):
        # An input-level contradiction is decided during clause loading /
        # initial propagation, before any stop poll: still a hard UNSAT.
        cnf = CNF()
        a = cnf.new_var()
        cnf.add(a)
        cnf.add(-a)
        res = CdclSolver(stop_check=lambda: True).solve(cnf)
        assert res.satisfiable is False


class TestSolverDifferential:
    """CDCL vs. brute force on random small formulas."""

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_random_3sat_agrees_with_bruteforce(self, data):
        n = data.draw(st.integers(3, 8))
        m = data.draw(st.integers(1, 30))
        cnf = CNF()
        vs = [cnf.new_var() for _ in range(n)]
        for _ in range(m):
            k = data.draw(st.integers(1, 3))
            clause = [
                data.draw(st.sampled_from(vs)) * data.draw(st.sampled_from([1, -1]))
                for _ in range(k)
            ]
            cnf.add_clause(clause)
        expected = brute_force_sat(cnf)
        res = CdclSolver().solve(cnf)
        assert res.satisfiable == (expected is not None)
        if res.satisfiable:
            check_model(cnf, res.model)

    def test_random_larger_instances_models_valid(self):
        rng = random.Random(12345)
        for trial in range(20):
            n, m = 40, 150
            cnf = CNF()
            vs = [cnf.new_var() for _ in range(n)]
            for _ in range(m):
                clause = rng.sample(vs, 3)
                cnf.add_clause([v * rng.choice([1, -1]) for v in clause])
            res = CdclSolver().solve(cnf)
            assert res.satisfiable is not None
            if res.satisfiable:
                check_model(cnf, res.model)

    def test_unsat_chain_with_parity(self):
        # x1, x1->x2->...->xn, and finally -xn: unsat regardless of length.
        cnf = CNF()
        vs = [cnf.new_var() for _ in range(50)]
        cnf.add(vs[0])
        for a, b in zip(vs, vs[1:]):
            cnf.implies(a, b)
        cnf.add(-vs[-1])
        assert CdclSolver().solve(cnf).satisfiable is False


class TestDimacs:
    def test_roundtrip(self):
        cnf = CNF()
        a, b, c = (cnf.new_var() for _ in range(3))
        cnf.add(a, -b)
        cnf.add(b, c)
        text = to_dimacs(cnf, comments=["test"])
        back = from_dimacs(text)
        assert back.num_vars == 3
        assert back.clauses == [[a, -b], [b, c]]

    def test_comments_ignored(self):
        cnf = from_dimacs("c hello\np cnf 2 1\n1 -2 0\n")
        assert cnf.clauses == [[1, -2]]

    def test_malformed_header_rejected(self):
        with pytest.raises(ValueError):
            from_dimacs("p wrong 1 1\n1 0\n")

    def test_clause_before_header_rejected(self):
        with pytest.raises(ValueError):
            from_dimacs("1 0\np cnf 1 1\n")

    def test_unterminated_clause_rejected(self):
        with pytest.raises(ValueError):
            from_dimacs("p cnf 2 1\n1 -2\n")

    def test_solver_agrees_after_roundtrip(self):
        cnf = CNF()
        vs = [cnf.new_var() for _ in range(5)]
        cnf.add(vs[0], vs[1])
        cnf.add(-vs[0], vs[2])
        cnf.add(-vs[2], -vs[1])
        r1 = CdclSolver().solve(cnf)
        r2 = CdclSolver().solve(from_dimacs(to_dimacs(cnf)))
        assert r1.satisfiable == r2.satisfiable

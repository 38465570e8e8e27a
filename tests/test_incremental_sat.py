"""Tests for the persistent incremental SAT layer.

Unit tests exercise :class:`repro.sat.incremental.IncrementalSolver`
directly (budget selectors, learned-clause retention and retirement,
assumption handling, canonical models); the differential tests compile
the committed workloads both ways — one persistent solver per session
versus a fresh ``CdclSolver`` per probe — and require the same verdict
on every probe and byte-identical assembly.
"""

import itertools
import os
import random

import pytest

from repro.sat import CNF, CdclSolver, IncrementalSolver

WORKLOAD_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks",
    "workloads",
)


def _pigeonhole(solver, holes, sel, base):
    """Gate PHP(holes+1, holes) behind ``sel``: UNSAT, learns clauses.

    Variables ``base + p * holes + h`` mean "pigeon p sits in hole h".
    """
    pigeons = holes + 1
    def var(p, h):
        return base + p * holes + h

    solver.ensure_vars(var(pigeons - 1, holes - 1))
    for p in range(pigeons):
        solver.add_clause([-sel] + [var(p, h) for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                solver.add_clause([-sel, -var(p1, h), -var(p2, h)])


class TestIncrementalSolver:
    def test_clauses_persist_across_solves(self):
        s = IncrementalSolver()
        s.ensure_vars(3)
        s.add_clause([1, 2])
        assert s.solve([-1]).satisfiable is True
        s.add_clause([-2])
        res = s.solve([-1])
        assert res.satisfiable is False  # both clauses still attached

    def test_learned_clauses_carry_over(self):
        s = IncrementalSolver()
        s.ensure_vars(1)
        sel = 1
        _pigeonhole(s, holes=4, sel=sel, base=1)
        first = s.solve([sel])
        assert first.satisfiable is False
        assert first.stats.learned > 0
        second = s.solve([sel])
        assert second.satisfiable is False
        assert second.stats.learned_kept > 0
        assert second.stats.conflicts <= first.stats.conflicts

    def test_assumption_conflict_early_exit(self):
        s = IncrementalSolver()
        s.ensure_vars(2)
        s.add_clause([1])
        # -1 contradicts the root-level unit: no search should happen.
        res = s.solve([-1])
        assert res.satisfiable is False
        assert res.stats.decisions == 0
        assert res.stats.conflicts == 0
        # Directly contradictory assumptions exit before any search:
        # enqueueing 2 counts as a decision, but no conflict analysis
        # or real branching ever runs.
        res = s.solve([2, -2])
        assert res.satisfiable is False
        assert res.stats.decisions <= 1
        assert res.stats.conflicts == 0

    def test_budget_selector_gating(self):
        s = IncrementalSolver()
        s.ensure_vars(4)
        s.add_clause([-3, 1])  # budget 1: x1 must hold
        s.add_clause([-4, -1])  # budget 2: x1 must not hold
        s.push_budget(1, 3)
        s.push_budget(2, 4)
        r1 = s.solve_budget(1)
        r2 = s.solve_budget(2)
        assert r1.satisfiable is True and r1.value(1) is True
        assert r2.satisfiable is True and r2.value(1) is False

    def test_unpushed_budget_rejected(self):
        s = IncrementalSolver()
        with pytest.raises(KeyError):
            s.solve_budget(3)
        with pytest.raises(ValueError):
            s.push_budget(1, -2)

    def test_retire_budget_drops_local_learnts(self):
        s = IncrementalSolver()
        s.ensure_vars(1)
        _pigeonhole(s, holes=4, sel=1, base=1)
        s.push_budget(1, 1)
        assert s.solve_budget(1).satisfiable is False
        kept = s.learnts
        dropped = s.retire_budget(1)
        # Learnt clauses from the gated probe mention the selector and
        # must go with it; retiring twice is a no-op.
        assert dropped > 0
        assert s.learnts == kept - dropped
        assert s.retire_budget(1) == 0
        # The selector is now false: assuming it is contradictory.
        assert s.solve([1]).satisfiable is False
        with pytest.raises(KeyError):
            s.solve_budget(1)
        with pytest.raises(ValueError):
            s.push_budget(1, 2)

    def test_root_unsat_latches(self):
        s = IncrementalSolver()
        s.ensure_vars(1)
        assert s.add_clause([1]) is True
        assert s.add_clause([-1]) is False
        assert s.root_unsat
        assert s.solve().satisfiable is False
        assert s.solve([1]).satisfiable is False

    def test_trusted_bulk_feed_matches_per_clause(self):
        clauses = [[1, 2, 3], [-1, 2], [-2, -3], [-1, -2, 3], [1, -3]]
        a, b = IncrementalSolver(), IncrementalSolver()
        a.ensure_vars(3)
        b.ensure_vars(3)
        a.add_clauses(clauses, trusted=True)
        for c in clauses:
            b.add_clause(c)
        ra = a.solve(canonical_model=True)
        rb = b.solve(canonical_model=True)
        assert ra.satisfiable is rb.satisfiable is True
        assert ra.model == rb.model


class TestCanonicalModel:
    def _lex_min_model(self, clauses, num_vars):
        for bits in itertools.product([False, True], repeat=num_vars):
            model = {v: bits[v - 1] for v in range(1, num_vars + 1)}
            if all(
                any(model[abs(l)] == (l > 0) for l in c) for c in clauses
            ):
                return model
        return None

    def test_matches_brute_force_lex_min(self):
        clauses = [[1, 2], [-1, 3, 4], [2, -4, 5], [-3, -5], [4, 5, 6]]
        n = 6
        s = IncrementalSolver()
        s.ensure_vars(n)
        s.add_clauses(clauses)
        res = s.solve(canonical_model=True)
        assert res.satisfiable is True
        assert res.model == self._lex_min_model(clauses, n)

    def test_unaffected_by_solver_history(self):
        # The canonical model must not depend on activities, phases or
        # learnt clauses accumulated by unrelated earlier solves.
        clauses = [[1, 2], [-1, 3, 4], [2, -4, 5], [-3, -5], [4, 5, 6]]
        fresh = IncrementalSolver()
        fresh.ensure_vars(6)
        fresh.add_clauses(clauses)
        warm = IncrementalSolver()
        warm.ensure_vars(6)
        warm.add_clauses(clauses)
        for assumption in ([6], [-6], [5, 6], [-2]):
            warm.solve(assumption)
        assert (
            warm.solve(canonical_model=True).model
            == fresh.solve(canonical_model=True).model
        )

    def test_cdcl_facade_canonical_model(self):
        cnf = CNF()
        for _ in range(4):
            cnf.new_var()
        cnf.add(1, 2)
        cnf.add(-2, 3)
        cnf.add(-1, 4)
        res = CdclSolver().solve(cnf, canonical_model=True)
        assert res.satisfiable is True
        # x1=False forces nothing false-ward beyond x2=True, x3=True.
        assert res.model == {1: False, 2: True, 3: True, 4: False}


# -- differential: one solver per session vs one per probe --------------------


def _compile_workload(name, incremental, strategy="linear"):
    """Compile every GMA of a workload; returns (probe map, assemblies)."""
    from repro.axioms import (
        AxiomSet,
        alpha_axioms,
        constant_synthesis_axioms,
        math_axioms,
    )
    from repro.core.pipeline import Denali, DenaliConfig
    from repro.core.probes import SearchStrategy
    from repro.isa import ev6
    from repro.lang import parse_program, translate_procedure
    from repro.matching import SaturationConfig

    with open(os.path.join(WORKLOAD_DIR, name)) as handle:
        prog = parse_program(handle.read())
    axioms = (
        math_axioms(prog.registry)
        + constant_synthesis_axioms(prog.registry)
        + alpha_axioms(prog.registry)
        + AxiomSet(prog.axioms, "program")
    )
    config = DenaliConfig(
        min_cycles=1,
        max_cycles=10,
        strategy=SearchStrategy(strategy),
        verify=False,
        enable_incremental_solver=incremental,
        saturation=SaturationConfig(max_rounds=8, max_enodes=2500),
    )
    den = Denali(ev6(), axioms=axioms, registry=prog.registry, config=config)
    verdicts, assemblies = {}, {}
    for proc in prog.procedures:
        for label, gma in translate_procedure(proc, prog.registry):
            result = den.compile_gma(gma, label=label)
            verdicts[label] = {
                p.cycles: p.satisfiable for p in result.stats.probes
            }
            assemblies[label] = (
                result.assembly if result.schedule is not None else None
            )
            # Every probe must name the solver path that answered it.
            expected = "incremental" if incremental else "scratch"
            assert all(p.solver == expected for p in result.stats.probes)
    return verdicts, assemblies


def _assert_agree(name, strategy="linear"):
    v_inc, a_inc = _compile_workload(name, True, strategy)
    v_scr, a_scr = _compile_workload(name, False, strategy)
    assert v_inc == v_scr, "probe verdicts diverged on %s" % name
    assert a_inc == a_scr, "assembly diverged on %s" % name
    assert all(asm is not None for asm in a_inc.values())


class TestDifferential:
    def test_fig2(self):
        _assert_agree("fig2.dn")

    def test_byteswap4(self):
        _assert_agree("byteswap4.dn")

    @pytest.mark.slow
    def test_checksum(self):
        _assert_agree("checksum.dn")

    @pytest.mark.slow
    def test_byteswap4_binary(self):
        _assert_agree("byteswap4.dn", strategy="binary")


class TestRetireDifferential:
    """Retiring earlier budgets must not perturb later-budget answers.

    A seeded random ladder: shared base clauses plus one gated clause
    group per budget.  The incremental solver probes budget ``k`` after
    retiring budgets ``1..k-1`` (which asserts their selectors false and
    drops their learnt clauses); a from-scratch solver sees only the
    base plus budget ``k``'s clauses, un-gated.  Verdicts must match,
    and on SAT the canonical models restricted to the problem variables
    must be byte-for-byte identical — selectors live above the problem
    variables, so the lex-least prefix is decided by the problem clauses
    alone.
    """

    N_VARS = 8

    def _random_group(self, rng, n_clauses=6):
        group = []
        for _ in range(n_clauses):
            size = rng.randint(1, 3)
            chosen = rng.sample(range(1, self.N_VARS + 1), size)
            group.append(
                [v if rng.random() < 0.5 else -v for v in chosen]
            )
        return group

    def _fresh_answer(self, clauses):
        cnf = CNF()
        for _ in range(self.N_VARS):
            cnf.new_var()
        for cl in clauses:
            cnf.add_clause(cl)
        return CdclSolver().solve(cnf, canonical_model=True)

    @pytest.mark.parametrize("seed", range(6))
    def test_later_budgets_unaffected_by_retirement(self, seed):
        rng = random.Random(seed)
        base = self._random_group(rng, n_clauses=4)
        budgets = {k: self._random_group(rng) for k in range(1, 5)}

        inc = IncrementalSolver()
        inc.ensure_vars(self.N_VARS)
        for cl in base:
            inc.add_clause(cl)
        for k, group in budgets.items():
            sel = self.N_VARS + k
            inc.ensure_vars(sel)
            inc.push_budget(k, sel)
            for cl in group:
                inc.add_clause([-sel] + cl)

        for k in sorted(budgets):
            if k > 1:
                inc.retire_budget(k - 1)
            got = inc.solve_budget(k, canonical_model=True)
            want = self._fresh_answer(base + budgets[k])
            assert got.satisfiable == want.satisfiable, "budget %d" % k
            if want.satisfiable:
                def restrict(model):
                    return {
                        v: model[v] for v in range(1, self.N_VARS + 1)
                    }
                assert restrict(got.model) == restrict(want.model)

    def test_retire_after_unsat_probe_matches_fresh(self):
        """An UNSAT probe's learnt clauses die with its budget."""
        rng = random.Random(99)
        base = self._random_group(rng, n_clauses=3)
        group = self._random_group(rng)

        inc = IncrementalSolver()
        inc.ensure_vars(self.N_VARS)
        for cl in base:
            inc.add_clause(cl)
        sel1 = self.N_VARS + 1
        inc.ensure_vars(sel1)
        inc.push_budget(1, sel1)
        _pigeonhole(inc, holes=4, sel=sel1, base=sel1 + 1)
        assert inc.solve_budget(1).satisfiable is False

        sel2 = sel1 + 1 + 5 * 4  # above the pigeonhole variables
        inc.ensure_vars(sel2)
        inc.push_budget(2, sel2)
        for cl in group:
            inc.add_clause([-sel2] + cl)
        inc.retire_budget(1)
        with pytest.raises(KeyError):
            inc.solve_budget(1)

        got = inc.solve_budget(2, canonical_model=True)
        want = self._fresh_answer(base + group)
        assert got.satisfiable == want.satisfiable
        if want.satisfiable:
            for v in range(1, self.N_VARS + 1):
                assert got.model[v] == want.model[v]

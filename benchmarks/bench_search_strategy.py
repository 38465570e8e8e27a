"""E9 — cycle-budget search strategies (paper sections 1.3 and 3).

Paper: "Continuing with binary search, we eventually find, for some K, a
K-cycle program ... together with a proof that K-1 cycles are insufficient.
(Since the costs of the probes are far from constant, binary search might
not be the best strategy, but we have not explored alternatives.)"

We explore the alternative the authors didn't: linear escalation from
below.  Reproduced/established claims: both strategies find the same
optimum with the same optimality proof; probe costs indeed vary widely
with K (UNSAT probes near the threshold are the expensive ones); and for
byteswap4's budget range the strategies differ in total SAT work, which
the table quantifies.
"""

from repro import Denali, SearchStrategy, ev6, global_saturation_cache
from repro.util import format_table

from benchmarks.conftest import byteswap_goal, default_config


def _run(strategy, **kwargs):
    cfg = default_config(min_cycles=2, max_cycles=9, strategy=strategy, **kwargs)
    den = Denali(ev6(), config=cfg)
    return den.compile_term(byteswap_goal(4))


def test_search_strategies(report, benchmark):
    binary = _run(SearchStrategy.BINARY)
    linear = _run(SearchStrategy.LINEAR)

    assert binary.cycles == linear.cycles == 5
    assert binary.optimal and linear.optimal

    def total_time(result):
        return sum(p.time_seconds for p in result.search.probes)

    def describe(result):
        return ", ".join(
            "K=%d:%s(%.2fs)"
            % (p.cycles, "S" if p.satisfiable else "U", p.time_seconds)
            for p in result.search.probes
        )

    # Probe costs are "far from constant": max/min solver time over probes.
    times = [p.time_seconds for p in linear.search.probes if p.time_seconds > 0]
    assert max(times) > 2 * min(times)

    benchmark(lambda: _run(SearchStrategy.BINARY).cycles)

    rows = [
        [
            "binary (paper's strategy)",
            str(len(binary.search.probes)),
            "%.2f s" % total_time(binary),
            describe(binary),
        ],
        [
            "linear escalation",
            str(len(linear.search.probes)),
            "%.2f s" % total_time(linear),
            describe(linear),
        ],
    ]
    report(
        "E9 budget-search strategies on byteswap4 (both find 5 cycles, proved)",
        format_table(["strategy", "probes", "total SAT time", "probe detail"], rows),
    )


def test_sessions_and_caches(report):
    """E9b — the staged-session machinery vs the paper's plain binary search.

    Compares sequential binary search with every cache disabled (the
    pre-session behaviour) against binary and linear search with the
    CNF-prefix and saturation caches on.  All configurations must agree
    on the optimum and its proof; the caches only change where the time
    goes.
    """
    global_saturation_cache().clear()

    baseline = _run(
        SearchStrategy.BINARY,
        enable_saturation_cache=False,
        enable_cnf_prefix_cache=False,
    )
    cached_binary = _run(SearchStrategy.BINARY)
    binary_warm = _run(SearchStrategy.BINARY)
    linear_warm = _run(SearchStrategy.LINEAR)

    runs = [
        ("binary, caches off (baseline)", baseline),
        ("binary, caches on", cached_binary),
        ("binary, warm saturation cache", binary_warm),
        ("linear, warm saturation cache", linear_warm),
    ]
    for _name, result in runs:
        assert result.cycles == baseline.cycles
        assert result.optimal
        assert result.verified
    # The cache-enabled runs share one deterministic encoding, so they
    # agree to the byte.  (The baseline's plain encoder numbers variables
    # differently and may extract a different equally-optimal model.)
    assert binary_warm.assembly == cached_binary.assembly
    assert linear_warm.assembly == cached_binary.assembly

    # The warm runs served saturation from the cross-compilation cache.
    assert binary_warm.stats.cache["saturation_hits"] == 1
    assert linear_warm.stats.cache["saturation_hits"] == 1
    # The cached binary search rebuilt strictly fewer CNF cycle blocks
    # than it encoded (the shared prefix was reused between probes).
    assert cached_binary.stats.cache["cnf_prefix_cycles_reused"] > 0

    rows = [
        [
            name,
            "%.2f s" % r.elapsed_seconds,
            "%.2f s" % r.stats.timings.get("saturation", 0.0),
            "%.2f s" % r.stats.timings.get("encode", 0.0),
            "%.2f s" % r.stats.timings.get("sat", 0.0),
            "%d/%d" % (
                r.stats.cache["cnf_prefix_cycles_reused"],
                r.stats.cache["cnf_prefix_cycles_built"],
            ),
        ]
        for name, r in runs
    ]
    report(
        "E9b staged sessions on byteswap4 (identical code, %d cycles, proved)"
        % baseline.cycles,
        format_table(
            [
                "configuration",
                "wall clock",
                "saturation",
                "encode",
                "sat",
                "prefix reused/built",
            ],
            rows,
        ),
    )

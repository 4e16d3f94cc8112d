"""E23 — the hash-indexed execution layer vs the reference strategy.

Sweeps the workloads where the planner changes the complexity class
(equality joins, correlated laterals, grouped aggregates, transitive
closure) with the planner on and off, asserting bag-equal results either
way.  The planner-off configurations use small instances or single
rounds — the reference strategy is the quadratic baseline being measured,
not a regression target.

Representative numbers (CPython 3.11.7, shared 2-vCPU x86-64 Linux VM,
min over rounds; planner off is a single round):

========================================  ==========  ===========  ========
case                                      planner on  planner off   speedup
========================================  ==========  ===========  ========
join width=3 (E21 sweep, 60 rows/rel)      ~0.54 ms       ~800 ms   ~1500x
join width=4 (E21 sweep, 60 rows/rel)      ~0.96 ms       not run        —
grouped aggregate n=900 (E21 sweep)        ~0.06 ms       ~7.5 ms    ~120x
transitive closure, 250 nodes               ~14 ms        ~2.1 s     ~150x
correlated lateral, 120 rows               ~0.75 ms        ~68 ms     ~90x
========================================  ==========  ===========  ========
"""

import gc
import os
import time

import pytest

from repro.api import EvalOptions
from repro.core.conventions import SET_CONVENTIONS
from repro.core.parser import parse
from repro.data import generators
from repro.engine import evaluate
from repro.workloads import sweeps

import _common

REFERENCE = EvalOptions(planner=False)  # the nested-loop oracle

ANCESTOR = (
    "{A(s, t) | ∃p ∈ P[A.s = p.s ∧ A.t = p.t] ∨ "
    "∃p ∈ P, a2 ∈ A[A.s = p.s ∧ p.t = a2.s ∧ A.t = a2.t]}"
)


def _run_off_once(benchmark, fn):
    """Time a planner-off baseline without autocalibration blowing up."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


# -- equality joins ------------------------------------------------------------


@pytest.mark.parametrize("width", [2, 3, 4])
def test_join_chain_planner_on(benchmark, width):
    db = generators.chain_database(width, 60, domain=30, seed=3)
    query = sweeps.join_chain_query(width)
    result = benchmark(evaluate, query, db, SET_CONVENTIONS)
    assert result == evaluate(query, db, SET_CONVENTIONS, options=REFERENCE)


@pytest.mark.parametrize("width", [2, 3])
def test_join_chain_planner_off(benchmark, width):
    db = generators.chain_database(width, 60, domain=30, seed=3)
    query = sweeps.join_chain_query(width)
    _run_off_once(
        benchmark, lambda: evaluate(query, db, SET_CONVENTIONS, options=REFERENCE)
    )


# -- grouped aggregates --------------------------------------------------------


@pytest.mark.parametrize("n_rows", [100, 300, 900])
def test_grouped_aggregate_planner_on(benchmark, n_rows):
    db = sweeps.size_sweep_database(n_rows, seed=1)
    query = sweeps.grouped_aggregate_query()
    result = benchmark(evaluate, query, db, SET_CONVENTIONS)
    assert result == evaluate(query, db, SET_CONVENTIONS, options=REFERENCE)


@pytest.mark.parametrize("n_rows", [100, 300, 900])
def test_grouped_aggregate_planner_off(benchmark, n_rows):
    db = sweeps.size_sweep_database(n_rows, seed=1)
    query = sweeps.grouped_aggregate_query()
    _run_off_once(
        benchmark, lambda: evaluate(query, db, SET_CONVENTIONS, options=REFERENCE)
    )


# -- correlated laterals -------------------------------------------------------


@pytest.mark.parametrize("n_rows", [30, 120])
def test_correlated_lateral_planner_on(benchmark, n_rows):
    db = sweeps.size_sweep_database(n_rows, seed=2)
    query = sweeps.lateral_query()
    result = benchmark(evaluate, query, db, SET_CONVENTIONS)
    assert result == evaluate(query, db, SET_CONVENTIONS, options=REFERENCE)


@pytest.mark.parametrize("n_rows", [30, 120])
def test_correlated_lateral_planner_off(benchmark, n_rows):
    db = sweeps.size_sweep_database(n_rows, seed=2)
    query = sweeps.lateral_query()
    _run_off_once(
        benchmark, lambda: evaluate(query, db, SET_CONVENTIONS, options=REFERENCE)
    )


# -- transitive closure (incremental semi-naive + indexes) ---------------------


@pytest.mark.parametrize("n_nodes", [50, 250])
def test_transitive_closure_planner_on(benchmark, n_nodes):
    db = generators.parent_edges(n_nodes, seed=5, extra_edges=n_nodes // 4)
    query = parse(ANCESTOR)
    result = benchmark(evaluate, query, db, SET_CONVENTIONS)
    assert len(result) >= n_nodes - 1


@pytest.mark.parametrize("n_nodes", [50, 250])
def test_transitive_closure_planner_off(benchmark, n_nodes):
    db = generators.parent_edges(n_nodes, seed=5, extra_edges=n_nodes // 4)
    query = parse(ANCESTOR)
    result = _run_off_once(
        benchmark, lambda: evaluate(query, db, SET_CONVENTIONS, options=REFERENCE)
    )
    assert len(result) >= n_nodes - 1


# -- deadline instrumentation overhead -----------------------------------------


def test_deadline_checks_cost_under_5_percent_on_join_width_4():
    """Acceptance claim (CI perf gate): arming a deadline + row budget costs
    < 5% on the E23 width-4 join chain.

    The run's stride counter, advanced once per planner loop (a loop of
    over 1024 rows per 1024 of them), is the only cost an armed run adds
    (the clock is read once per 1024 rows, the row budget flushes once per
    1024 emissions), so this ratio bounds the price
    of running every query under a timeout, as ``repro serve`` does.

    Measurement: interleaved blocks of warm prepared runs, best-of per
    block, and the **minimum** block ratio is asserted.  Scheduler and
    allocator jitter only ever inflates a block's ratio, so the minimum is
    the least-biased estimator of the true overhead — a real regression
    past 5% inflates every block and still fails the gate.  Skipped on
    shared CI runners unless ``RUN_TIMING_ASSERTIONS=1`` (the dedicated
    perf-gate job sets it).
    """
    if os.environ.get("CI") and not os.environ.get("RUN_TIMING_ASSERTIONS"):
        pytest.skip("timing assertion; set RUN_TIMING_ASSERTIONS=1 to run in CI")

    from repro.api import Session

    db = generators.chain_database(4, 60, domain=30, seed=3)
    query = sweeps.join_chain_query(4)
    unarmed = Session(db, SET_CONVENTIONS, options=EvalOptions()).prepare(query)
    armed = Session(
        db,
        SET_CONVENTIONS,
        options=EvalOptions(timeout_ms=3_600_000, max_rows=1_000_000_000),
    ).prepare(query)
    assert unarmed.run() == armed.run()  # warm both; deadline changes nothing

    def block_min(prepared, rounds=9):
        best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            prepared.run()
            best = min(best, time.perf_counter() - start)
        return best

    gc.disable()
    try:
        ratios = [block_min(armed) / block_min(unarmed) for _ in range(9)]
    finally:
        gc.enable()

    best_ratio = min(ratios)
    _common.record_metric(
        "e23_deadline_overhead",
        best_ratio=round(best_ratio, 4),
        block_ratios=[round(r, 3) for r in ratios],
    )
    assert best_ratio < 1.05, (
        f"armed deadline costs {(best_ratio - 1) * 100:.1f}% on the width-4 "
        f"join chain (block ratios: {[f'{r:.3f}' for r in ratios]})"
    )


def test_tracer_costs_under_5_percent_on_join_width_4():
    """Acceptance claim (CI perf gate): a metrics-mode tracer — the exact
    configuration ``repro serve`` arms behind ``GET /metrics`` — costs < 5%
    on E23 warm prepared runs.

    The tracer sits at coarse phase boundaries only (a handful of spans per
    query, never per row; ``tests/obs/test_overhead.py`` pins that shape
    with counters), so the armed cost is a few clock reads and histogram
    updates per query.  Same protocol as the deadline gate above:
    interleaved best-of blocks, minimum ratio asserted, skipped on shared
    CI runners unless ``RUN_TIMING_ASSERTIONS=1``.
    """
    if os.environ.get("CI") and not os.environ.get("RUN_TIMING_ASSERTIONS"):
        pytest.skip("timing assertion; set RUN_TIMING_ASSERTIONS=1 to run in CI")

    from repro.api import Session
    from repro.obs import MetricsRegistry, Tracer

    db = generators.chain_database(4, 60, domain=30, seed=3)
    query = sweeps.join_chain_query(4)
    untraced = Session(db, SET_CONVENTIONS, options=EvalOptions()).prepare(query)
    traced_session = Session(db, SET_CONVENTIONS, options=EvalOptions())
    traced_session.tracer = Tracer(metrics=MetricsRegistry(), keep_spans=False)
    traced = traced_session.prepare(query)
    assert untraced.run() == traced.run()  # warm both; tracing changes nothing

    def block_min(prepared, rounds=9):
        best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            prepared.run()
            best = min(best, time.perf_counter() - start)
        return best

    gc.disable()
    try:
        ratios = [block_min(traced) / block_min(untraced) for _ in range(9)]
    finally:
        gc.enable()

    best_ratio = min(ratios)
    _common.record_metric(
        "e23_tracer_overhead",
        best_ratio=round(best_ratio, 4),
        block_ratios=[round(r, 3) for r in ratios],
    )
    assert best_ratio < 1.05, (
        f"armed tracer costs {(best_ratio - 1) * 100:.1f}% on the width-4 "
        f"join chain (block ratios: {[f'{r:.3f}' for r in ratios]})"
    )


#: The E21/E29 width-4 join chain under γ∅ ``count(*)``: every combination
#: is folded into one aggregate, so the time is the planner's loops.
CHAIN_COUNT = (
    "{Q(ct) | ∃r0 ∈ R0, r1 ∈ R1, r2 ∈ R2, r3 ∈ R3, γ ∅"
    "[r0.B = r1.B ∧ r1.C = r2.C ∧ r2.D = r3.D ∧ Q.ct = count(*)]}"
)


def test_planner_within_3x_of_warm_sqlite_on_width4_gamma_count():
    """Acceptance floor (CI perf gate): on the width-4 γ∅ ``count(*)``
    chain over 1,000 rows per relation (35,470 combinations), a warm
    planner run takes at most 3× a warm SQLite run.

    Both sides are prepared on held Sessions and warmed, then timed in
    interleaved blocks; the ratio of the two best times is asserted (a
    best time is the least jitter-inflated estimate of each side).
    Skipped on shared CI runners unless ``RUN_TIMING_ASSERTIONS=1``.
    """
    if os.environ.get("CI") and not os.environ.get("RUN_TIMING_ASSERTIONS"):
        pytest.skip("timing assertion; set RUN_TIMING_ASSERTIONS=1 to run in CI")

    from repro.api import Session
    from repro.core.conventions import SQL_CONVENTIONS

    db = generators.chain_database(4, 1000, domain=300)
    planner = Session(db, SQL_CONVENTIONS, options=EvalOptions()).prepare(CHAIN_COUNT)
    sqlite = Session(
        db, SQL_CONVENTIONS, options=EvalOptions(backend="sqlite")
    ).prepare(CHAIN_COUNT)
    assert planner.run() == sqlite.run()  # warm both; same answer

    def block_min(prepared, rounds=5):
        best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            prepared.run()
            best = min(best, time.perf_counter() - start)
        return best

    planner_best = sqlite_best = float("inf")
    gc.disable()
    try:
        for _ in range(5):
            planner_best = min(planner_best, block_min(planner))
            sqlite_best = min(sqlite_best, block_min(sqlite))
    finally:
        gc.enable()

    ratio = planner_best / sqlite_best
    _common.record_metric(
        "e23_planner_vs_sqlite",
        planner_ms=round(planner_best * 1000, 3),
        sqlite_ms=round(sqlite_best * 1000, 3),
        ratio=round(ratio, 3),
    )
    assert ratio <= 3.0, (
        f"planner {planner_best * 1000:.1f} ms is {ratio:.1f}× warm SQLite "
        f"{sqlite_best * 1000:.1f} ms on the width-4 γ∅ count(*) chain"
    )

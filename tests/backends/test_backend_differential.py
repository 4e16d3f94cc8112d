"""Differential harness: reference ≡ planner ≡ decorrelated ≡ sqlite.

The backend registry's contract is that every backend answers every query
identically (falling back to the planner, with a warning, when it cannot).
This harness enforces the contract over all paper workloads, the randomized
chain-join/grouping families, and the correlated-lateral (FOI → FIO)
family under SQL conventions — where the SQLite offload engine runs most
workloads *natively* — and exercises the capability-fallback paths under
the set and Soufflé conventions, which the SQL engine deliberately refuses.
Every case also runs the planner with ``decorrelate=False``, so the
decorrelation pass is differentially pinned against its per-row oracle.

``expect_native`` pins down which paper workloads must execute on SQLite
itself (no fallback warning): if a rendering or capability regression
silently diverted them to the planner, the equality assertions would pass
vacuously.  Since the decorrelation pass, eq2/eq7/eq10/eq15 are pinned
native (group-by rewrites, unnesting, and correlated scalar subqueries
replace LATERAL).
"""

import random
import warnings

import pytest

from repro.api import EvalOptions
from repro.backends.exec import (
    BackendFallbackWarning,
    available_backends,
)
from repro.core import builder as b
from repro.core import nodes as n
from repro.core.conventions import (
    SET_CONVENTIONS,
    SOUFFLE_CONVENTIONS,
    SQL_CONVENTIONS,
)
from repro.core.parser import parse
from repro.data import Database, NULL, generators
from repro.engine import evaluate
from repro.errors import ArcError
from repro.workloads import instances, paper_examples, sweeps

REFERENCE = EvalOptions(planner=False)  # the nested-loop oracle
PLANNER = EvalOptions()
SQLITE = EvalOptions(backend="sqlite")
PER_ROW = EvalOptions(decorrelate=False)


def run_sqlite(node, db, conventions):
    """Evaluate on the sqlite backend; returns (result, fell_back)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = evaluate(node, db, conventions, options=SQLITE)
    fell_back = any(
        issubclass(w.category, BackendFallbackWarning) for w in caught
    )
    return result, fell_back


def assert_three_way(node, db, conventions, *, expect_native=None):
    """reference ≡ planner ≡ decorrelated ≡ sqlite (or equal errors)."""
    try:
        reference = evaluate(node, db, conventions, options=REFERENCE)
    except ArcError as exc:
        with pytest.raises(type(exc)):
            evaluate(node, db, conventions, options=PLANNER)
        return
    planner = evaluate(node, db, conventions, options=PLANNER)
    per_row = evaluate(node, db, conventions, options=PER_ROW)
    sqlite_result, fell_back = run_sqlite(node, db, conventions)
    assert planner == reference
    assert per_row == reference
    assert sqlite_result == reference
    if expect_native is not None:
        assert fell_back == (not expect_native)


def _rs_db():
    db = Database()
    db.create("R", ("A", "B"), [(1, 10), (2, 20), (3, 30), (3, 30)])
    db.create("S", ("B", "C"), [(10, 0), (20, 5), (30, 0), (40, 1)])
    return db


def _matrix_db():
    db = Database()
    db.add(generators.sparse_matrix("A", 4, 5, density=0.5, seed=3))
    db.add(generators.sparse_matrix("B", 5, 4, density=0.5, seed=4))
    return db


# (workload key, database factory, must-run-natively-on-sqlite)
PAPER_CASES = [
    ("eq1", _rs_db, True),
    ("eq2", instances.lateral_instance, True),  # correlated lateral, unnested
    ("eq3", lambda: sweeps.size_sweep_database(40, seed=9), True),
    ("eq7", lambda: sweeps.size_sweep_database(40, seed=9), True),  # scalar subquery
    ("eq8", instances.payroll_instance, True),  # uncorrelated derived table
    ("eq10", instances.payroll_instance, True),  # FIO group-by rewrite
    ("eq12", instances.payroll_instance, True),
    ("eq13", lambda: instances.boolean_instance(satisfied=True), True),
    ("eq13", lambda: instances.boolean_instance(satisfied=False), True),
    ("eq14", lambda: instances.boolean_instance(satisfied=True), True),
    ("eq14", lambda: instances.boolean_instance(satisfied=False), True),
    ("eq15", instances.conventions_instance, True),  # scalar subquery
    ("eq16", instances.ancestor_instance, True),  # WITH RECURSIVE
    ("eq17", lambda: instances.not_in_instance(with_null=True), False),  # 3VL hazard
    ("eq17", lambda: instances.not_in_instance(with_null=False), True),
    ("not_in_3vl", lambda: instances.not_in_instance(with_null=True), False),
    ("not_in_3vl", lambda: instances.not_in_instance(with_null=False), True),
    ("eq18", instances.outer_join_instance, True),  # LEFT JOIN
    ("eq19", instances.arithmetic_instance, True),
    ("eq20", instances.arithmetic_instance, False),  # external Minus
    ("eq21", instances.arithmetic_instance, False),  # externals
    ("eq22", instances.likes_instance, True),  # nested NOT EXISTS
    ("eq23_24", instances.likes_instance, False),  # abstract Sub definition
    ("eq25_arc", _matrix_db, True),
    ("eq26", _matrix_db, False),  # external '*'
    ("eq27", instances.count_bug_instance, True),  # correlated scalar subquery
    ("eq27", instances.count_bug_populated, True),
    ("eq28", instances.count_bug_instance, True),
    ("eq28", instances.count_bug_populated, True),
    ("eq29", instances.count_bug_instance, True),
    ("eq29", instances.count_bug_populated, True),
]


@pytest.mark.parametrize(
    "key,db_factory,native",
    PAPER_CASES,
    ids=[f"{key}-{i}" for i, (key, _, _) in enumerate(PAPER_CASES)],
)
def test_paper_workloads_three_way_sql_conventions(key, db_factory, native):
    node = parse(paper_examples.ARC[key])
    assert_three_way(node, db_factory(), SQL_CONVENTIONS, expect_native=native)


def test_sqlite_covers_most_paper_workloads_natively():
    """The native set is the backend's raison d'être; keep it honest.

    Decorrelation lifted the correlated-lateral gap (eq2/eq7/eq10/eq15), so
    the only remaining fallbacks are externals/abstract relations and the
    3VL NOT-EXISTS hazard.
    """
    native = sum(1 for _, _, flag in PAPER_CASES if flag)
    assert native >= (2 * len(PAPER_CASES)) // 3
    pinned_native = {
        key for key, _, flag in PAPER_CASES if flag
    }
    assert {"eq2", "eq7", "eq10", "eq15"} <= pinned_native


# -- correlated-lateral decorrelation (FOI → FIO) ------------------------------


def test_correlated_lateral_family_three_way():
    """Seeded FOI family (correlation arity, aggregate, γ∅ vs γ-keys, empty
    outer groups): reference ≡ planner ≡ decorrelated ≡ sqlite, natively."""
    rng = random.Random(4321)
    for trial in range(6):
        arity = rng.choice([1, 1, 2])
        agg = rng.choice(["sum", "count", "avg", "min", "max"])
        grouped = rng.random() < 0.5
        query = sweeps.correlated_aggregate_query(
            arity=arity, agg=agg, grouped=grouped
        )
        db = sweeps.correlated_sweep_database(
            rng.randint(0, 25), rng.randint(0, 40), arity=arity, seed=trial
        )
        assert_three_way(query, db, SQL_CONVENTIONS, expect_native=True)


def test_correlated_lateral_empty_groups_three_way():
    """All outer keys miss the inner relation: the γ∅ scope must still emit
    one row per outer row (count → 0, sum → NULL) on every engine —
    SQLite's correlated scalar subquery and the planner's probe-miss
    compensation both reproduce the count bug's correct answer."""
    db = sweeps.correlated_sweep_database(8, 12, seed=5, miss_rate=1.0)
    for agg in ("count", "sum"):
        query = sweeps.correlated_aggregate_query(agg=agg)
        assert_three_way(query, db, SQL_CONVENTIONS, expect_native=True)


def test_correlated_lateral_null_keys_three_way():
    """NULL correlation keys: the planner probes an UNKNOWN-aware
    tri-bucket index under 3VL, while SQLite evaluates the hoisted
    equality itself — both must agree with the reference."""
    for grouped in (False, True):
        query = sweeps.correlated_aggregate_query(agg="sum", grouped=grouped)
        db = sweeps.correlated_sweep_database(20, 30, seed=11, null_rate=0.3)
        assert_three_way(query, db, SQL_CONVENTIONS, expect_native=True)


def _with_duplicate_inner_rows(db):
    """*db* with every third S row stored twice (bag duplicates)."""
    rows = [tuple(row[attr] for attr in db["S"].schema) for row in db["S"]]
    db.create("S", db["S"].schema, rows + rows[::3])
    return db


def test_theta_correlated_family_three_way():
    """The θ-band grid (E27): every op × {sum, count, count(*), avg, min,
    max} × equality arity {0, 1}, reference ≡ planner ≡ per-row ≡ sqlite,
    natively — SQLite runs the γ∅ shapes as one window sweep and the
    non-grouped slice shape unnested, so it needs no LATERAL.  A 3-value
    band domain forces ties at every boundary; duplicate inner rows and
    NULL keys and bands ride along; empty inner and outer relations and
    the join-inner shape close the grid."""
    for eq_arity in (0, 1):
        db = _with_duplicate_inner_rows(
            sweeps.theta_sweep_database(
                14, 18, eq_arity=eq_arity, domain=3, band_domain=3,
                seed=eq_arity, null_rate=0.2, null_band_rate=0.15,
            )
        )
        for op in ("<", "<=", ">", ">="):
            for agg in ("sum", "count", "count(*)", "avg", "min", "max"):
                query = sweeps.theta_aggregate_query(
                    op=op, agg=agg, eq_arity=eq_arity
                )
                assert_three_way(query, db, SQL_CONVENTIONS, expect_native=True)
    for op in ("<", "<=", ">", ">="):
        db = sweeps.theta_sweep_database(12, 16, band_domain=4, seed=5)
        assert_three_way(
            sweeps.theta_rows_query(op=op), db, SQL_CONVENTIONS,
            expect_native=True,
        )
        for empty in ("R", "S"):
            db = sweeps.theta_sweep_database(6, 6, eq_arity=1, seed=7)
            db.create(empty, db[empty].schema, [])
            for agg in ("sum", "count(*)"):
                query = sweeps.theta_aggregate_query(
                    op=op, agg=agg, eq_arity=1
                )
                assert_three_way(query, db, SQL_CONVENTIONS, expect_native=True)
        db = sweeps.theta_sweep_database(
            12, 16, band_domain=4, seed=6, with_join=True
        )
        assert_three_way(
            sweeps.theta_join_aggregate_query(op=op), db, SQL_CONVENTIONS,
            expect_native=True,
        )


def test_theta_join_inner_three_way():
    query = sweeps.theta_join_aggregate_query()
    db = sweeps.theta_sweep_database(25, 25, seed=6, with_join=True)
    assert_three_way(query, db, SQL_CONVENTIONS, expect_native=True)


def test_theta_all_probes_empty_three_way():
    """Every outer band value sits below the whole inner band: γ∅ must
    still emit one row per outer row (count → 0, sum → NULL) on every
    engine — the band path synthesizes it from the empty prefix."""
    db = Database()
    db.create("R", ("A", "misc"), [(0, 0), (0, 1), (0, 2)])
    db.create("S", ("A", "B"), [(5, 1), (6, 2), (7, 3)])
    for agg in ("count", "sum"):
        query = sweeps.theta_aggregate_query(op="<", agg=agg)
        assert_three_way(query, db, SQL_CONVENTIONS, expect_native=True)


# -- capability fallback under non-SQL conventions ----------------------------


@pytest.mark.parametrize(
    "conv_name,conventions",
    [("set", SET_CONVENTIONS), ("souffle", SOUFFLE_CONVENTIONS)],
)
def test_non_sql_conventions_fall_back_with_warning(conv_name, conventions):
    node = parse(paper_examples.ARC["eq3"])
    db = sweeps.size_sweep_database(30, seed=2)
    reference = evaluate(node, db, conventions, options=REFERENCE)
    with pytest.warns(BackendFallbackWarning, match="conventions|semantics|NULL"):
        result = evaluate(node, db, conventions, options=SQLITE)
    assert result == reference


@pytest.mark.parametrize(
    "conventions", [SET_CONVENTIONS, SOUFFLE_CONVENTIONS], ids=["set", "souffle"]
)
def test_fallback_paths_agree_across_paper_workloads(conventions):
    for key, db_factory in [
        ("eq1", _rs_db),
        ("eq15", instances.conventions_instance),
        ("eq16", instances.ancestor_instance),
        ("eq27", instances.count_bug_instance),
    ]:
        node = parse(paper_examples.ARC[key])
        db = db_factory()
        reference = evaluate(node, db, conventions, options=REFERENCE)
        result, fell_back = run_sqlite(node, db, conventions)
        assert fell_back  # non-SQL conventions are never offloaded
        assert result == reference


# -- randomized chain joins ----------------------------------------------------


def test_random_chain_joins_three_way():
    rng = random.Random(71)
    for trial in range(10):
        width = rng.randint(2, 4)
        rows = rng.randint(4, 30 // width)
        domain = rng.randint(2, 10)
        db = generators.chain_database(width, rows, domain=domain, seed=trial)
        query = sweeps.join_chain_query(width)
        assert_three_way(query, db, SQL_CONVENTIONS, expect_native=True)


def test_chain_join_with_nulls_three_way():
    db = Database()
    db.add(
        generators.binary_relation(
            "R0", 15, domain=4, seed=1, attrs=("A", "B"), null_rate=0.3
        )
    )
    db.add(
        generators.binary_relation(
            "R1", 15, domain=4, seed=2, attrs=("B", "C"), null_rate=0.3
        )
    )
    # No negation: UNKNOWN joins filter identically in ARC and SQL.
    assert_three_way(
        sweeps.join_chain_query(2), db, SQL_CONVENTIONS, expect_native=True
    )


def test_constant_equality_probe_three_way():
    db = generators.chain_database(2, 20, domain=5, seed=8)
    query = parse(
        "{Q(out) | ∃r0 ∈ R0, r1 ∈ R1[Q.out = r1.C ∧ r0.B = r1.B ∧ r0.A = 3]}"
    )
    assert_three_way(query, db, SQL_CONVENTIONS, expect_native=True)


# -- randomized grouping queries ----------------------------------------------

AGG_FUNCS = ["sum", "count", "avg", "min", "max", "sumdistinct", "countdistinct"]


def _grouped_query(func, *, grouped_key=True, having=False):
    agg = n.AggCall(func, b.attr2("r", "B"))
    conjuncts = [n.Comparison(n.Attr("Q", "v"), "=", agg)]
    attrs = ["v"]
    if grouped_key:
        conjuncts.insert(0, b.eq(b.attr2("Q", "A"), b.attr2("r", "A")))
        attrs.insert(0, "A")
        grouping = b.grouping(b.attr2("r", "A"))
    else:
        grouping = b.grouping()
    if having:
        conjuncts.append(n.Comparison(n.AggCall("count", None), ">", n.Const(1)))
    return b.collection(
        "Q", attrs, b.exists([b.bind("r", "R")], b.conj(*conjuncts), grouping=grouping)
    )


@pytest.mark.parametrize("func", AGG_FUNCS)
@pytest.mark.parametrize("null_rate", [0.0, 0.4])
def test_random_grouped_aggregates_three_way(func, null_rate):
    rng = random.Random(hash(func) % 1000)
    for trial in range(3):
        db = Database()
        db.add(
            generators.binary_relation(
                "R", rng.randint(0, 40), domain=6, seed=trial, null_rate=null_rate
            )
        )
        for grouped_key in (True, False):
            query = _grouped_query(func, grouped_key=grouped_key)
            assert_three_way(query, db, SQL_CONVENTIONS, expect_native=True)


def test_grouped_with_having_three_way():
    db = Database()
    db.add(generators.binary_relation("R", 30, domain=4, seed=5, null_rate=0.2))
    for grouped_key in (True, False):
        query = _grouped_query("sum", grouped_key=grouped_key, having=True)
        assert_three_way(query, db, SQL_CONVENTIONS, expect_native=True)


def test_grouped_over_empty_relation_three_way():
    db = Database()
    db.create("R", ("A", "B"), [])
    for grouped_key in (True, False):
        for func in ("sum", "count"):
            query = _grouped_query(func, grouped_key=grouped_key)
            assert_three_way(query, db, SQL_CONVENTIONS, expect_native=True)


def test_grouped_all_null_group_three_way():
    db = Database()
    db.create("R", ("A", "B"), [(1, NULL), (1, NULL), (2, 5)])
    for func in AGG_FUNCS:
        query = _grouped_query(func)
        assert_three_way(query, db, SQL_CONVENTIONS, expect_native=True)


# -- recursion and mutation ----------------------------------------------------


def test_transitive_closure_three_way():
    db = generators.parent_edges(30, seed=21, extra_edges=10)
    query = parse(paper_examples.ARC["eq16"])
    assert_three_way(query, db, SQL_CONVENTIONS, expect_native=True)


def test_sqlite_tracks_relation_mutation():
    """Mutating a relation changes its fingerprint, forcing a fresh load."""
    db = sweeps.size_sweep_database(50, seed=3)
    query = sweeps.grouped_aggregate_query()
    first, fell_back = run_sqlite(query, db, SQL_CONVENTIONS)
    assert not fell_back
    assert first == evaluate(query, db, SQL_CONVENTIONS, options=REFERENCE)
    db["R"].add((99, 7))
    second, _ = run_sqlite(query, db, SQL_CONVENTIONS)
    assert second == evaluate(query, db, SQL_CONVENTIONS, options=REFERENCE)
    assert first != second


def test_registry_exposes_all_three_backends():
    assert {"reference", "planner", "sqlite"} <= set(available_backends())

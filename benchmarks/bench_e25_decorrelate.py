"""E25 — FOI → FIO decorrelation: correlated-lateral sweep.

Three engines over the equality-correlated lateral family
(:func:`repro.workloads.sweeps.correlated_aggregate_query` and the
eq10-shaped join variant :func:`correlated_join_aggregate_query`):

* **decorrelated** — the planner with the FOI → FIO pass (the default):
  the inner scope is materialized once as a grouped hash index and probed
  per outer row;
* **per-row** — the planner with ``decorrelate=False``: the inner scope is
  re-evaluated under every outer environment (the paper's literal FOI
  strategy, kept as the oracle);
* **sqlite warm** — ``Prepared.run`` on a held Session with its catalog
  loaded: the SQLite backend runs these natively (group-by derived tables
  / correlated scalar subqueries instead of LATERAL).

Representative numbers from a shared 2-CPU container (CPython 3.11.7, SQL
conventions, min over rounds; per-row join n=800 is best of 3 runs):

=============================================  ============  =========  ===========
case                                           decorrelated  per-row    sqlite warm
=============================================  ============  =========  ===========
γ∅ sum,  n=200 (single-relation inner)           ~1.0 ms      ~4.4 ms     ~1.9 ms
γ∅ sum,  n=800 (single-relation inner)           ~4.7 ms     ~12.8 ms    ~29.7 ms
γ-keys sum, n=800 (single-relation inner)        ~7.3 ms     ~20.3 ms     ~2.5 ms
join inner (eq10 shape), n=200                   ~1.1 ms     ~46.3 ms     ~4.4 ms
join inner (eq10 shape), n=800                   ~4.2 ms    ~321 ms      ~45.0 ms
=============================================  ============  =========  ===========

The single-relation inner is the per-row strategy's best case (its
re-evaluation is itself an O(bucket) index probe after PR 1), and
decorrelation still wins ~3×.  The join-shaped inner is the honest FOI
cost model — the inner join re-runs per outer row — and decorrelation wins
~40-75×, which is what closes the acceptance claim (≥ 5×).  SQLite executes
the γ∅ shapes as correlated scalar subqueries (no indexes on the loaded
catalog, hence the n=800 cost) and the γ-keys shapes as group-by joins.
"""

import os
import time

import pytest

from repro.api import EvalOptions, Session
from repro.core.conventions import SQL_CONVENTIONS
from repro.engine import evaluate
from repro.workloads import sweeps

SQLITE = EvalOptions(backend="sqlite")
PER_ROW = EvalOptions(decorrelate=False)


def _decorrelated(query, db):
    return evaluate(query, db, SQL_CONVENTIONS)


def _per_row(query, db):
    return evaluate(query, db, SQL_CONVENTIONS, options=PER_ROW)


def _warm_sqlite(query, db):
    """``Prepared.run`` on a held Session, its catalog already loaded."""
    prepared = Session(db, SQL_CONVENTIONS, options=SQLITE).prepare(query)
    prepared.run()
    return prepared.run


def _single_db(n):
    return sweeps.correlated_sweep_database(
        n, n, domain=max(4, n // 4), seed=2, miss_rate=0.1
    )


# -- γ∅ single-relation inner (the per-row strategy's best case) ---------------


@pytest.mark.parametrize("n_rows", [200, 800])
def test_gamma_empty_decorrelated(benchmark, n_rows):
    db = _single_db(n_rows)
    query = sweeps.correlated_aggregate_query(agg="sum")
    result = benchmark(_decorrelated, query, db)
    assert result == _per_row(query, db)


@pytest.mark.parametrize("n_rows", [200, 800])
def test_gamma_empty_per_row(benchmark, n_rows):
    db = _single_db(n_rows)
    query = sweeps.correlated_aggregate_query(agg="sum")
    benchmark(_per_row, query, db)


@pytest.mark.parametrize("n_rows", [200, 800])
def test_gamma_empty_sqlite_warm(benchmark, n_rows):
    db = _single_db(n_rows)
    query = sweeps.correlated_aggregate_query(agg="sum")
    result = benchmark(_warm_sqlite(query, db))
    assert result == _per_row(query, db)


# -- γ-keys inner ---------------------------------------------------------------


@pytest.mark.parametrize("n_rows", [800])
def test_grouped_keys_decorrelated(benchmark, n_rows):
    db = _single_db(n_rows)
    query = sweeps.correlated_aggregate_query(agg="sum", grouped=True)
    result = benchmark(_decorrelated, query, db)
    assert result == _per_row(query, db)


@pytest.mark.parametrize("n_rows", [800])
def test_grouped_keys_per_row(benchmark, n_rows):
    db = _single_db(n_rows)
    query = sweeps.correlated_aggregate_query(agg="sum", grouped=True)
    benchmark(_per_row, query, db)


@pytest.mark.parametrize("n_rows", [800])
def test_grouped_keys_sqlite_warm(benchmark, n_rows):
    db = _single_db(n_rows)
    query = sweeps.correlated_aggregate_query(agg="sum", grouped=True)
    result = benchmark(_warm_sqlite(query, db))
    assert result == _per_row(query, db)


# -- eq10-shaped join inner (the headline sweep) --------------------------------


@pytest.mark.parametrize("n_rows", [200, 800])
def test_join_inner_decorrelated(benchmark, n_rows):
    db = sweeps.correlated_join_database(n_rows, seed=1)
    query = sweeps.correlated_join_aggregate_query()
    result = benchmark(_decorrelated, query, db)
    assert result == _per_row(query, db)


@pytest.mark.parametrize("n_rows", [200])
def test_join_inner_per_row(benchmark, n_rows):
    db = sweeps.correlated_join_database(n_rows, seed=1)
    query = sweeps.correlated_join_aggregate_query()
    benchmark(_per_row, query, db)


@pytest.mark.parametrize("n_rows", [200, 800])
def test_join_inner_sqlite_warm(benchmark, n_rows):
    db = sweeps.correlated_join_database(n_rows, seed=1)
    query = sweeps.correlated_join_aggregate_query()
    result = benchmark(_warm_sqlite(query, db))
    assert result == _per_row(query, db)


def test_decorrelation_beats_per_row_by_5x_on_the_join_sweep():
    """Acceptance claim: on the E25 eq10-shaped sweep the decorrelated
    planner path is ≥ 5× faster than per-row lateral evaluation.

    A wall-clock ordering with a wide margin (measured ~25-30×); skipped on
    shared CI runners, where scheduling noise makes timing assertions flake
    (the repo's perf-regression tests are counter-based for the same
    reason — see ``tests/engine/test_perf_smoke.py`` for the ==0 reeval
    assertions that guard the same property structurally).
    """
    if os.environ.get("CI") and not os.environ.get("RUN_TIMING_ASSERTIONS"):
        pytest.skip("timing assertion; set RUN_TIMING_ASSERTIONS=1 to run in CI")
    db = sweeps.correlated_join_database(800, seed=1)
    query = sweeps.correlated_join_aggregate_query()
    assert _decorrelated(query, db) == _per_row(query, db)

    def best_of(fn, rounds=5):
        times = []
        for _ in range(rounds):
            start = time.perf_counter()
            fn(query, db)
            times.append(time.perf_counter() - start)
        return min(times)

    decorrelated_time = best_of(_decorrelated)
    per_row_time = best_of(_per_row, rounds=3)
    assert per_row_time > 5 * decorrelated_time, (
        f"decorrelated {decorrelated_time * 1e3:.2f} ms vs "
        f"per-row {per_row_time * 1e3:.2f} ms"
    )

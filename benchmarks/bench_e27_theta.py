"""E27 — θ-band indexes: the eq2/eq15-shaped θ-correlated sweep.

Three engines over the θ-correlated lateral family
(:func:`repro.workloads.sweeps.theta_aggregate_query`, the eq2-shaped
non-grouped :func:`theta_rows_query`, and the join-inner
:func:`theta_join_aggregate_query`):

* **band** — the planner with the θ-band index (the default): the inner
  rows are materialized once, sorted on the correlated attribute with
  per-key prefix-aggregate arrays, so each outer row costs a bisect plus
  an O(1) array read;
* **per-row** — the planner with ``decorrelate=False``: the inner scope is
  re-evaluated under every outer environment (the paper's literal FOI
  strategy, kept as the oracle);
* **sqlite warm** — ``Prepared.run`` on a held Session with its catalog
  loaded: the SQLite backend runs each γ∅ shape as one sorted window
  sweep (a materialized CTE probed by equality per outer row) and the
  non-grouped shape unnested.

Representative numbers from a shared 2-CPU container (CPython 3.11.7, SQL
conventions, min over rounds; per-row n=800 slice and n=400 join are
best of 2–3 runs):

=============================================  =========  ==========  ===========
case                                           band       per-row     sqlite warm
=============================================  =========  ==========  ===========
γ∅ sum, s.A < r.A, n=200                         ~1.5 ms    ~81 ms       ~0.8 ms
γ∅ sum, s.A < r.A, n=800                         ~6.2 ms  ~1592 ms       ~3.3 ms
γ∅ count + eq key bucket, n=800                  ~5.5 ms   ~219 ms       ~4.8 ms
non-grouped slice (eq2 shape), n=800             ~269 ms  ~3226 ms      ~354 ms
join inner (θ eq10 shape), n=400                 ~2.8 ms  ~1815 ms       ~4.1 ms
=============================================  =========  ==========  ===========

The γ∅ shape is the paper's eq15; per-row cost is Θ(outer × inner) even
with the execution layer (the order predicate defeats hash probes), while
the band path is Θ((outer + inner) log inner) — ~260× at n=800.  SQLite's
window sweep is the same FIO plan in SQL, so its γ∅ cost also grows near
linearly (n=400 → n=1600 costs ~4×, gated at ≤ 8× below; the correlated
scalar subquery it replaced rescanned S per outer row).  The join-shaped
inner re-runs S ⋈ T per outer row under FOI — the honest θ cost model —
and the band path wins ~650×.  The non-grouped slice probe is
output-bound (it yields ~5% of the inner rows per outer row), so its ~12×
is the slice-enumeration floor, not a log-time probe.  The acceptance
claim (≥ 5×) is asserted below and gated in CI.
"""

import os
import time

import pytest

import _common
from repro.api import EvalOptions, Session
from repro.core.conventions import SQL_CONVENTIONS
from repro.engine import evaluate
from repro.workloads import sweeps

SQLITE = EvalOptions(backend="sqlite")
PER_ROW = EvalOptions(decorrelate=False)


def _band(query, db):
    return evaluate(query, db, SQL_CONVENTIONS)


def _per_row(query, db):
    return evaluate(query, db, SQL_CONVENTIONS, options=PER_ROW)


def _warm_sqlite(query, db):
    """``Prepared.run`` on a held Session, its catalog already loaded."""
    prepared = Session(db, SQL_CONVENTIONS, options=SQLITE).prepare(query)
    prepared.run()
    return prepared.run


def _agg_db(n):
    return sweeps.theta_sweep_database(n, n, band_domain=max(8, n), seed=2)


def _rows_db(n):
    # Outer band values near the top of the domain keep the matching
    # slices (≈5% of the inner rows) from dominating the output size.
    db = sweeps.theta_sweep_database(n, n, band_domain=20 * n, seed=3)
    return db


# -- γ∅ θ aggregate (the eq15 shape) -------------------------------------------


@pytest.mark.parametrize("n_rows", [200, 800])
def test_gamma_theta_band(benchmark, n_rows):
    db = _agg_db(n_rows)
    query = sweeps.theta_aggregate_query(op="<", agg="sum")
    result = benchmark(_band, query, db)
    assert result == _per_row(query, db)


@pytest.mark.parametrize("n_rows", [200, 800])
def test_gamma_theta_per_row(benchmark, n_rows):
    db = _agg_db(n_rows)
    query = sweeps.theta_aggregate_query(op="<", agg="sum")
    benchmark(_per_row, query, db)


@pytest.mark.parametrize("n_rows", [200, 800])
def test_gamma_theta_sqlite_warm(benchmark, n_rows):
    db = _agg_db(n_rows)
    query = sweeps.theta_aggregate_query(op="<", agg="sum")
    result = benchmark(_warm_sqlite(query, db))
    assert result == _per_row(query, db)


# -- γ∅ θ aggregate bucketed by an equality key --------------------------------


@pytest.mark.parametrize("n_rows", [800])
def test_bucketed_theta_band(benchmark, n_rows):
    db = sweeps.theta_sweep_database(
        n_rows, n_rows, eq_arity=1, band_domain=max(8, n_rows), seed=4
    )
    query = sweeps.theta_aggregate_query(op="<=", agg="count", eq_arity=1)
    result = benchmark(_band, query, db)
    assert result == _per_row(query, db)


@pytest.mark.parametrize("n_rows", [800])
def test_bucketed_theta_per_row(benchmark, n_rows):
    db = sweeps.theta_sweep_database(
        n_rows, n_rows, eq_arity=1, band_domain=max(8, n_rows), seed=4
    )
    query = sweeps.theta_aggregate_query(op="<=", agg="count", eq_arity=1)
    benchmark(_per_row, query, db)


@pytest.mark.parametrize("n_rows", [800])
def test_bucketed_theta_sqlite_warm(benchmark, n_rows):
    db = sweeps.theta_sweep_database(
        n_rows, n_rows, eq_arity=1, band_domain=max(8, n_rows), seed=4
    )
    query = sweeps.theta_aggregate_query(op="<=", agg="count", eq_arity=1)
    result = benchmark(_warm_sqlite(query, db))
    assert result == _per_row(query, db)


# -- non-grouped θ slice (the eq2 shape) ---------------------------------------


@pytest.mark.parametrize("n_rows", [200, 800])
def test_rows_theta_band(benchmark, n_rows):
    db = _rows_db(n_rows)
    query = sweeps.theta_rows_query(op=">")
    result = benchmark(_band, query, db)
    assert result == _per_row(query, db)


@pytest.mark.parametrize("n_rows", [200])
def test_rows_theta_per_row(benchmark, n_rows):
    db = _rows_db(n_rows)
    query = sweeps.theta_rows_query(op=">")
    benchmark(_per_row, query, db)


@pytest.mark.parametrize("n_rows", [800])
def test_rows_theta_sqlite_warm(benchmark, n_rows):
    db = _rows_db(n_rows)
    query = sweeps.theta_rows_query(op=">")
    result = benchmark(_warm_sqlite(query, db))
    assert result == _band(query, db)


# -- θ join inner (the headline sweep) -----------------------------------------


@pytest.mark.parametrize("n_rows", [100, 400])
def test_join_theta_band(benchmark, n_rows):
    db = sweeps.theta_sweep_database(
        n_rows, n_rows, band_domain=max(8, n_rows), seed=5, with_join=True
    )
    query = sweeps.theta_join_aggregate_query()
    result = benchmark(_band, query, db)
    assert result == _per_row(query, db)


@pytest.mark.parametrize("n_rows", [100])
def test_join_theta_per_row(benchmark, n_rows):
    db = sweeps.theta_sweep_database(
        n_rows, n_rows, band_domain=max(8, n_rows), seed=5, with_join=True
    )
    query = sweeps.theta_join_aggregate_query()
    benchmark(_per_row, query, db)


@pytest.mark.parametrize("n_rows", [400])
def test_join_theta_sqlite_warm(benchmark, n_rows):
    db = sweeps.theta_sweep_database(
        n_rows, n_rows, band_domain=max(8, n_rows), seed=5, with_join=True
    )
    query = sweeps.theta_join_aggregate_query()
    result = benchmark(_warm_sqlite(query, db))
    assert result == _per_row(query, db)


def _best_of(fn, query, db, rounds):
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn(query, db)
        times.append(time.perf_counter() - start)
    return min(times)


def test_band_beats_per_row_by_5x_on_the_theta_sweeps():
    """Acceptance claim (CI perf gate): on the E27 eq15-shaped γ∅ sweep and
    the θ join-inner sweep, the band-indexed planner is ≥ 5× faster than
    per-row lateral evaluation.

    A wall-clock ordering with a wide margin (measured ~50×/~100×); skipped
    on shared CI runners unless ``RUN_TIMING_ASSERTIONS=1`` — the dedicated
    perf-gate job sets it, so a regression below the 5× floor fails the
    build.  Counter-based guards (``lateral_reevals == 0``, one
    ``band_index_builds``) pin the same property structurally in
    ``tests/engine/test_perf_smoke.py``.
    """
    if os.environ.get("CI") and not os.environ.get("RUN_TIMING_ASSERTIONS"):
        pytest.skip("timing assertion; set RUN_TIMING_ASSERTIONS=1 to run in CI")

    gamma_db = _agg_db(800)
    gamma_query = sweeps.theta_aggregate_query(op="<", agg="sum")
    assert _band(gamma_query, gamma_db) == _per_row(gamma_query, gamma_db)
    gamma_band = _best_of(_band, gamma_query, gamma_db, rounds=5)
    gamma_per_row = _best_of(_per_row, gamma_query, gamma_db, rounds=3)

    join_db = sweeps.theta_sweep_database(
        400, 400, band_domain=400, seed=5, with_join=True
    )
    join_query = sweeps.theta_join_aggregate_query()
    assert _band(join_query, join_db) == _per_row(join_query, join_db)
    join_band = _best_of(_band, join_query, join_db, rounds=5)
    join_per_row = _best_of(_per_row, join_query, join_db, rounds=3)

    _common.record_metric(
        "e27_acceptance",
        gamma_band_ms=round(gamma_band * 1e3, 3),
        gamma_per_row_ms=round(gamma_per_row * 1e3, 3),
        gamma_speedup=round(gamma_per_row / gamma_band, 1),
        join_band_ms=round(join_band * 1e3, 3),
        join_per_row_ms=round(join_per_row * 1e3, 3),
        join_speedup=round(join_per_row / join_band, 1),
    )
    assert gamma_per_row > 5 * gamma_band, (
        f"γ∅ sweep: band {gamma_band * 1e3:.2f} ms vs "
        f"per-row {gamma_per_row * 1e3:.2f} ms"
    )
    assert join_per_row > 5 * join_band, (
        f"join sweep: band {join_band * 1e3:.2f} ms vs "
        f"per-row {join_per_row * 1e3:.2f} ms"
    )


def test_sqlite_theta_sweep_scales_near_linearly():
    """CI perf gate: warm SQLite runs the γ∅ θ sum as one sorted window
    sweep, so quadrupling n costs at most 8× (the correlated scalar
    subquery it replaced rescans S per outer row: 16×).

    Skipped on shared CI runners unless ``RUN_TIMING_ASSERTIONS=1``, like
    the band gate above.  ``tests/backends/test_sqlite_exec.py`` pins the
    same property on deterministic SQLite VM step counts.
    """
    if os.environ.get("CI") and not os.environ.get("RUN_TIMING_ASSERTIONS"):
        pytest.skip("timing assertion; set RUN_TIMING_ASSERTIONS=1 to run in CI")
    query = sweeps.theta_aggregate_query(op="<", agg="sum")
    times = {}
    for n_rows in (400, 1600):
        db = _agg_db(n_rows)
        run = _warm_sqlite(query, db)
        assert run() == _band(query, db)
        times[n_rows] = _best_of(lambda _q, _db: run(), query, db, rounds=5)
    _common.record_metric(
        "e27_sqlite_sweep_scaling",
        n400_ms=round(times[400] * 1e3, 3),
        n1600_ms=round(times[1600] * 1e3, 3),
        ratio=round(times[1600] / times[400], 2),
    )
    assert times[1600] <= 8 * times[400], (
        f"sqlite θ sweep: n=400 {times[400] * 1e3:.2f} ms vs "
        f"n=1600 {times[1600] * 1e3:.2f} ms"
    )


def test_trace_artifact_for_the_theta_sweep(tmp_path):
    """Export the E27 γ∅ sweep as a Chrome-trace artifact.

    Runs the eq15-shaped workload cold and warm under a recording tracer
    and writes trace-viewer JSON to ``$TRACE_OUT`` (the benchmark-smoke CI
    job sets ``TRACE_OUT=TRACE_E27.json`` and uploads it per run, so every
    build leaves an inspectable timeline) or to a tmp file otherwise.
    """
    import json

    from repro.api import Session
    from repro.obs import Tracer, write_chrome_trace

    db = _agg_db(200)
    session = Session(db, SQL_CONVENTIONS, options=EvalOptions())
    session.tracer = Tracer(stats=session.stats)
    prepared = session.prepare(sweeps.theta_aggregate_query(op="<", agg="sum"))
    prepared.run()  # cold: decorr.index.build shows up in the timeline
    prepared.run()  # warm: the cached-index round for comparison
    spans, events = session.tracer.take()

    path = os.environ.get("TRACE_OUT") or str(tmp_path / "TRACE_E27.json")
    document = write_chrome_trace(path, spans, events)

    with open(path, encoding="utf-8") as handle:
        assert json.load(handle) == document
    names = {e["name"] for e in document["traceEvents"] if e["ph"] == "X"}
    assert {"query", "execute", "scope.execute", "decorr.index.build"} <= names
    assert len({e["tid"] for e in document["traceEvents"]}) == 2  # two runs
    _common.record_metric(
        "e27_trace_artifact",
        path=path,
        spans=len(spans),
        events=len(events),
    )

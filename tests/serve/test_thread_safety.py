"""Concurrent hammer tests for state the worker pool shares.

The thread-safety audit for concurrent serving: every shared structure —
metrics counters/histograms, registry get-or-create, circuit breakers —
is hit from many threads at once and must come out exact (no lost
increments) and uncorrupted.  SQLite connections are not shared at all:
each Session owns its own, which the Session-per-thread test pins.
Relation warm caches (``index_on``, ``derived_put``) need no lock: they
publish fully built values through single atomic dict stores, and
concurrent readers see either nothing (rebuild) or the complete value —
that CAS-safe path is documented in ``data/relation.py`` and exercised
end-to-end by the HTTP concurrency tests.
"""

import sys
import threading
import time

import pytest

import repro
from repro.api import EvalOptions, Session
from repro.backends.exec import breaker_for, reset_breakers
from repro.backends.exec.registry import CircuitBreaker
from repro.obs import MetricsRegistry
from repro.serve import WorkerPool
from repro.serve.pool import SessionFactory
from repro.core.conventions import SQL_CONVENTIONS
from repro.util.deadline import CancelToken

THREADS = 8
ROUNDS = 5000


def _hammer(worker, threads=THREADS):
    barrier = threading.Barrier(threads)

    def wrapped(index):
        barrier.wait()
        worker(index)

    pool = [
        threading.Thread(target=wrapped, args=(index,))
        for index in range(threads)
    ]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join(timeout=30)
        assert not thread.is_alive()


class TestMetricsUnderContention:
    def test_counter_loses_no_increments(self):
        counter = MetricsRegistry().counter("hits")
        _hammer(lambda index: [counter.inc() for _ in range(ROUNDS)])
        assert counter.value() == THREADS * ROUNDS

    def test_labelled_counter_is_exact_per_label(self):
        counter = MetricsRegistry().counter("hits", labels=("who",))
        _hammer(
            lambda index: [
                counter.inc(who=str(index % 2)) for _ in range(ROUNDS)
            ]
        )
        total = counter.value(who="0") + counter.value(who="1")
        assert total == THREADS * ROUNDS

    def test_histogram_count_and_sum_are_exact(self):
        histogram = MetricsRegistry().histogram("lat")
        _hammer(lambda index: [histogram.observe(0.001) for _ in range(ROUNDS)])
        assert histogram.count() == THREADS * ROUNDS
        assert histogram.sum() == pytest.approx(THREADS * ROUNDS * 0.001)
        # Every observation landed in exactly one bucket.
        ((_, cumulative, _, total),) = list(histogram.samples())
        assert cumulative[-1] == total == THREADS * ROUNDS

    def test_registry_get_or_create_race_yields_one_metric(self):
        registry = MetricsRegistry()
        metrics = []
        lock = threading.Lock()

        def register_and_count(index):
            counter = registry.counter("shared")
            with lock:
                metrics.append(counter)
            for _ in range(1000):
                counter.inc()

        _hammer(register_and_count)
        assert len({id(metric) for metric in metrics}) == 1
        assert registry.get("shared").value() == THREADS * 1000

    def test_scrape_during_writes_never_sees_torn_state(self):
        histogram = MetricsRegistry().histogram("lat")
        stop = threading.Event()
        torn = []

        def scrape():
            while not stop.is_set():
                for _, cumulative, _, total in histogram.samples():
                    # Cumulative bucket counts must always sum to count.
                    if cumulative[-1] != total:
                        torn.append((cumulative[-1], total))

        reader = threading.Thread(target=scrape)
        reader.start()
        _hammer(lambda index: [histogram.observe(0.01) for _ in range(ROUNDS)])
        stop.set()
        reader.join(timeout=10)
        assert torn == []


class TestBreakerUnderContention:
    def test_failure_counts_are_exact_below_threshold(self):
        breaker = CircuitBreaker("b", threshold=10**9)
        _hammer(lambda index: [breaker.record_failure() for _ in range(ROUNDS)])
        assert breaker.failures == THREADS * ROUNDS
        assert breaker.trips == 0
        assert breaker.state == "closed"

    def test_exactly_one_trip_at_the_threshold(self):
        breaker = CircuitBreaker("b", threshold=THREADS * ROUNDS)
        tripped = []
        lock = threading.Lock()

        def fail(index):
            for _ in range(ROUNDS):
                if breaker.record_failure():
                    with lock:
                        tripped.append(index)

        _hammer(fail)
        assert len(tripped) == 1
        assert breaker.trips == 1
        assert breaker.state == "open"

    def test_mixed_transitions_stay_in_valid_states(self):
        breaker = CircuitBreaker("b", threshold=3, cooldown_s=0.0)

        def churn(index):
            for round_no in range(500):
                if (index + round_no) % 3 == 0:
                    breaker.record_success()
                else:
                    breaker.record_failure()
                assert breaker.state in {"closed", "open", "half-open"}
                breaker.allow()

        _hammer(churn)
        assert breaker.state in {"closed", "open", "half-open"}

    def test_breaker_for_race_yields_one_instance(self):
        reset_breakers()
        try:
            seen = []
            lock = threading.Lock()

            def fetch(index):
                breaker = breaker_for("sqlite")
                with lock:
                    seen.append(breaker)

            _hammer(fetch)
            assert len({id(breaker) for breaker in seen}) == 1
        finally:
            reset_breakers()


class TestSessionsOnThreads:
    def test_default_sessions_over_one_catalog_never_interfere(
        self, monkeypatch
    ):
        """One default Session per thread over one catalog, alternating
        armed runs (deadline + cancel token: progress handler and
        interrupt hook installed) with unarmed ones.  A connection shared
        between Sessions would let one run's handler teardown or cursor
        reach another's query; owned connections answer every run
        natively and oracle-equal."""
        db = repro.Database()
        db.create("P", ("x", "y"), [(i, i % 7) for i in range(120)])
        query = "{Q(x) | ∃p ∈ P, q ∈ P[Q.x = p.x ∧ p.y = q.y ∧ q.x < 40]}"
        expected = Session(
            db, SQL_CONVENTIONS, options=EvalOptions(planner=False)
        ).prepare(query).run()
        reset_breakers()
        failures = []
        record_failure = CircuitBreaker.record_failure

        def counting_failure(breaker):
            failures.append(breaker.name)
            return record_failure(breaker)

        monkeypatch.setattr(CircuitBreaker, "record_failure", counting_failure)
        problems = []
        lock = threading.Lock()

        def run(index):
            options = EvalOptions(backend="sqlite")
            with Session(db, SQL_CONVENTIONS, options=options) as session:
                prepared = session.prepare(query)
                for round_no in range(20):
                    try:
                        if (index + round_no) % 2:
                            info = prepared.run_info(
                                timeout_ms=60_000, cancel=CancelToken()
                            )
                        else:
                            info = prepared.run_info()
                        ok = (
                            info["result"] == expected
                            and not info["fallback_reasons"]
                        )
                        problem = None if ok else info["fallback_reasons"]
                    except Exception as exc:  # noqa: BLE001 - reported below
                        problem = repr(exc)
                    if problem is not None:
                        with lock:
                            problems.append((index, round_no, problem))
                if session.catalog_loads != 1:
                    with lock:
                        problems.append((index, "loads", session.catalog_loads))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # force thread switches mid-run
        try:
            _hammer(run)
        finally:
            sys.setswitchinterval(interval)
            reset_breakers()
        assert problems == []
        assert failures == []


class TestFailpointsUnderContention:
    def test_counted_spec_fires_exactly_n_times_across_threads(self):
        """``kind*N`` decrements under the module lock: THREADS workers
        hammering one armed site consume exactly N firings between them —
        a lost decrement would fire more, a double decrement fewer."""
        from repro.util import failpoints

        failpoints.reset()
        try:
            budget = 100
            failpoints.activate("pool.leader", f"boom*{budget}")
            fired = []
            lock = threading.Lock()

            def slam(index):
                count = 0
                for _ in range(ROUNDS // 10):
                    try:
                        failpoints.hit("pool.leader")
                    except RuntimeError:
                        count += 1
                with lock:
                    fired.append(count)

            _hammer(slam)
            assert sum(fired) == budget
            assert failpoints.active()["pool.leader"] == "boom*0"
            assert failpoints.hits["pool.leader"] == THREADS * (ROUNDS // 10)
        finally:
            failpoints.reset()
            failpoints.load_env()


class TestPoolAdmissionUnderContention:
    def test_no_future_is_lost_under_submit_storms(self):
        db = repro.Database()
        db.create("P", ("x",), [(1,)])
        factory = SessionFactory(
            {"default": db}, SQL_CONVENTIONS, options=EvalOptions()
        )
        pool = WorkerPool(factory, workers=4, queue_depth=16)
        accepted = []
        refused = []
        lock = threading.Lock()

        def storm(index):
            for _ in range(50):
                try:
                    future = pool.submit(lambda worker: time.sleep(0.0005))
                except Exception as exc:
                    with lock:
                        refused.append(exc)
                else:
                    with lock:
                        accepted.append(future)

        _hammer(storm)
        for future in accepted:
            future.wait(30)
        assert len(accepted) + len(refused) == THREADS * 50
        assert pool.jobs_completed == len(accepted)
        assert all(exc.status == 429 for exc in refused)
        pool.drain()

"""Deadline-aware execution: timeouts and row budgets on every tier.

The acceptance property: a runaway query returns
:class:`~repro.errors.QueryTimeout` within 2× its configured ``timeout_ms``
on all three backends, instead of hanging.  The runaway here is an
unbounded recursion (``T.x = t.x + 1`` grows forever) — the paper's
fixpoint semantics guarantee it never converges, so only the deadline can
stop it.
"""

import threading
import time

import pytest

import repro
from repro.api import EvalOptions, Session
from repro.core.conventions import SET_CONVENTIONS, SQL_CONVENTIONS
from repro.errors import BudgetExceeded, OptionsError, QueryTimeout
from repro.util.deadline import STRIDE, Deadline

#: Diverging fixpoint: the base disjunct seeds from P, the recursive one
#: adds x+1 forever.
RUNAWAY = "{T(x) | ∃p ∈ P[T.x = p.x] ∨ ∃t ∈ T[T.x = t.x + 1]}"


def _db():
    db = repro.Database()
    db.create("P", ("x",), [(1,)])
    return db


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now
        self.reads = 0

    def __call__(self):
        self.reads += 1
        return self.now


class TestDeadlineUnit:
    def test_check_raises_only_past_the_deadline(self):
        clock = FakeClock()
        deadline = Deadline(timeout_ms=100, clock=clock)
        clock.now = 0.099
        deadline.check()  # inside the budget
        clock.now = 0.101
        with pytest.raises(QueryTimeout, match="100 ms deadline"):
            deadline.check()

    def test_no_timeout_means_check_never_raises(self):
        deadline = Deadline(max_rows=10, clock=FakeClock())
        deadline.check()
        assert not deadline.expired()

    def test_tick_reads_the_clock_once_per_stride(self):
        clock = FakeClock()
        deadline = Deadline(timeout_ms=100, clock=clock)
        reads_after_init = clock.reads
        for _ in range(STRIDE - 1):
            deadline.tick()
        assert clock.reads == reads_after_init  # counter bumps only
        deadline.tick()  # the STRIDE-th tick reads the clock
        assert clock.reads == reads_after_init + 1

    def test_tick_raises_on_the_stride_boundary_after_expiry(self):
        clock = FakeClock()
        deadline = Deadline(timeout_ms=100, clock=clock)
        clock.now = 1.0  # long past the deadline
        with pytest.raises(QueryTimeout):
            for _ in range(STRIDE + 1):
                deadline.tick()

    def test_a_batched_tick_advances_the_same_stride(self):
        clock = FakeClock()
        deadline = Deadline(timeout_ms=100, clock=clock)
        reads_after_init = clock.reads
        deadline.tick(STRIDE - 1)
        assert clock.reads == reads_after_init
        deadline.tick()  # crosses the stride the batch began
        assert clock.reads == reads_after_init + 1

    def test_count_rows_enforces_the_budget(self):
        deadline = Deadline(max_rows=5)
        deadline.count_rows(5)
        with pytest.raises(BudgetExceeded, match="max_rows=5"):
            deadline.count_rows()
        assert deadline.rows == 6

    def test_count_rows_without_budget_only_accumulates(self):
        deadline = Deadline(timeout_ms=10_000)
        deadline.count_rows(1_000_000)
        assert deadline.rows == 1_000_000


class TestOptionsValidation:
    @pytest.mark.parametrize("bad", [0, -1, -0.5, "fast", True])
    def test_nonpositive_or_nonnumeric_timeout_raises(self, bad):
        with pytest.raises(OptionsError, match="timeout_ms"):
            EvalOptions(timeout_ms=bad)

    @pytest.mark.parametrize("bad", [0, -3, 1.5, True, "many"])
    def test_bad_max_rows_raises(self, bad):
        with pytest.raises(OptionsError, match="max_rows"):
            EvalOptions(max_rows=bad)

    def test_deadline_override_is_validated_too(self):
        options = EvalOptions()
        with pytest.raises(OptionsError, match="override timeout_ms"):
            options.deadline(timeout_ms=-1)

    def test_unbounded_options_arm_no_deadline(self):
        assert EvalOptions().deadline() is None

    def test_override_takes_precedence_over_the_option_set(self):
        options = EvalOptions(timeout_ms=5_000, max_rows=10)
        deadline = options.deadline(timeout_ms=50)
        assert deadline.timeout_ms == 50
        assert deadline.max_rows == 10  # inherited where not overridden


class TestRunawayTimeouts:
    """The acceptance criterion, per backend."""

    @pytest.mark.parametrize(
        "backend,conventions",
        [
            (None, SET_CONVENTIONS),        # in-process planner
            ("reference", SET_CONVENTIONS),  # nested-loop oracle
            ("sqlite", SQL_CONVENTIONS),     # WITH RECURSIVE offload
        ],
        ids=["planner", "reference", "sqlite"],
    )
    def test_runaway_times_out_within_twice_the_budget(
        self, backend, conventions
    ):
        timeout_ms = 300
        options = (
            EvalOptions(timeout_ms=timeout_ms)
            if backend is None
            else EvalOptions(timeout_ms=timeout_ms, backend=backend)
        )
        session = Session(_db(), conventions, options=options)
        start = time.monotonic()
        with pytest.raises(QueryTimeout):
            session.prepare(RUNAWAY).run()
        elapsed_ms = (time.monotonic() - start) * 1000
        # 2× the budget plus scheduling slack: generous enough not to
        # flake under CI load, tight enough to prove the abort is prompt.
        assert elapsed_ms < 2 * timeout_ms + 500
        assert session.stats.timeouts == 1

    def test_per_run_override_beats_the_session_default(self):
        session = Session(
            _db(), SET_CONVENTIONS, options=EvalOptions(timeout_ms=60_000)
        )
        start = time.monotonic()
        with pytest.raises(QueryTimeout):
            session.prepare(RUNAWAY).run(timeout_ms=200)
        assert (time.monotonic() - start) < 2.0


def _cross_db(n=400):
    db = repro.Database()
    for name in ("A", "B", "C"):
        db.create(name, ("v",), [(i,) for i in range(n)])
    return db


#: 64M combinations, all folded into one count: no row is emitted until
#: the enumeration ends, so only the scope's own loops can notice.
CROSS_COUNT = "{Q(ct) | ∃a ∈ A, b ∈ B, c ∈ C, γ ∅[Q.ct = count(*)]}"


class TestFoldPath:
    """A grouped scope's work is all in the fold, past any emission."""

    def test_gamma_count_over_a_cross_product_times_out(self):
        timeout_ms = 300
        session = Session(
            _cross_db(), SET_CONVENTIONS, options=EvalOptions(timeout_ms=timeout_ms)
        )
        start = time.monotonic()
        with pytest.raises(QueryTimeout):
            session.prepare(CROSS_COUNT).run()
        elapsed_ms = (time.monotonic() - start) * 1000
        assert elapsed_ms < 2 * timeout_ms + 500
        assert session.stats.timeouts == 1

    def test_cancel_token_stops_the_fold(self):
        from repro.util.deadline import CancelToken

        token = CancelToken()
        session = Session(_cross_db(), SET_CONVENTIONS)
        prepared = session.prepare(CROSS_COUNT)
        timer = threading.Timer(0.2, token.cancel, args=("stop",))
        start = time.monotonic()
        timer.start()
        try:
            with pytest.raises(QueryTimeout, match="stop"):
                prepared.run(cancel=token)
        finally:
            timer.cancel()
            timer.join(timeout=5)
        assert time.monotonic() - start < 2 * 0.2 + 0.5

    def test_nested_negation_filter_times_out(self):
        # One 800-row scan whose filter runs a non-strict ¬∃ over 800 rows
        # that never satisfy it: neither loop alone reaches a stride per
        # call, so only a stride counted across the whole run notices.
        db = repro.Database()
        db.create("A", ("v",), [(i,) for i in range(800)])
        db.create("B", ("v",), [(-i - 1,) for i in range(800)])
        timeout_ms = 300
        session = Session(db, SET_CONVENTIONS, options=EvalOptions(timeout_ms=timeout_ms))
        start = time.monotonic()
        with pytest.raises(QueryTimeout):
            session.prepare(
                "{Q(a) | ∃x ∈ A[Q.a = x.v ∧ ¬∃y ∈ B[y.v > x.v]]}"
            ).run()
        assert (time.monotonic() - start) * 1000 < 2 * timeout_ms + 500

    def test_a_long_scan_reads_the_clock_once_per_stride(self):
        from repro.core.parser import parse
        from repro.engine import Evaluator

        class SteppingClock(FakeClock):
            def __call__(self):
                self.now += 0.04  # each read is 40 ms later
                return super().__call__()

        db = repro.Database()
        db.create("A", ("v",), [(i,) for i in range(10 * STRIDE)])
        clock = SteppingClock()
        evaluator = Evaluator(
            db, SET_CONVENTIONS, deadline=Deadline(timeout_ms=100, clock=clock)
        )
        # One step over 10 strides of rows: the third stride's clock read
        # is past the deadline, long before the scan ends.
        with pytest.raises(QueryTimeout):
            evaluator.evaluate(parse("{Q(a) | ∃x ∈ A[Q.a = x.v ∧ x.v < 0]}"))
        assert clock.reads <= 5

    def test_emitting_join_still_trips_the_row_budget_promptly(self):
        max_rows = 50
        session = Session(
            _cross_db(), SET_CONVENTIONS, options=EvalOptions(max_rows=max_rows)
        )
        with pytest.raises(BudgetExceeded):
            session.prepare(
                "{Q(a, b) | ∃x ∈ A, y ∈ B[Q.a = x.v ∧ Q.b = y.v]}"
            ).run()
        assert session.stats.budget_exceeded == 1
        # Emission is pushed row by row: the trip lands within one budget
        # stride, long before the 160,000-row product is enumerated.
        assert session.stats.rows_enumerated < max_rows + 4 * STRIDE


class TestRowBudget:
    def test_runaway_trips_the_row_budget(self):
        session = Session(
            _db(), SET_CONVENTIONS, options=EvalOptions(max_rows=50)
        )
        with pytest.raises(BudgetExceeded):
            session.prepare(RUNAWAY).run()
        assert session.stats.budget_exceeded == 1

    def test_budget_on_sqlite_fetch(self):
        db = repro.Database()
        db.create("R", ("A",), [(i,) for i in range(100)])
        session = Session(
            db, SQL_CONVENTIONS,
            options=EvalOptions(backend="sqlite", max_rows=10),
        )
        with pytest.raises(BudgetExceeded):
            session.prepare("{Q(A) | ∃r ∈ R[Q.A = r.A]}").run()
        assert session.stats.budget_exceeded == 1

    def test_within_budget_answers_normally(self):
        session = Session(
            _db(), SET_CONVENTIONS, options=EvalOptions(max_rows=1_000)
        )
        result = session.prepare("{Q(x) | ∃p ∈ P[Q.x = p.x]}").run()
        assert [row["x"] for row in result.sorted_rows()] == [1]
        assert session.stats.budget_exceeded == 0

    def test_unbounded_runs_pay_no_accounting(self):
        session = Session(_db(), SET_CONVENTIONS)
        result = session.prepare("{Q(x) | ∃p ∈ P[Q.x = p.x]}").run()
        assert len(result) == 1
        assert session.stats.timeouts == 0
        assert session.stats.budget_exceeded == 0


class TestErrorTaxonomy:
    def test_resource_errors_are_arc_errors(self):
        assert issubclass(QueryTimeout, repro.ResourceError)
        assert issubclass(BudgetExceeded, repro.ResourceError)
        assert issubclass(repro.ResourceError, repro.ArcError)

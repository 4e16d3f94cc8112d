"""Deadlines and row budgets: bounded execution for every tier.

A :class:`Deadline` is armed once per run (by
:meth:`repro.api.EvalOptions.deadline` via the Session) and threaded through
the evaluator, the planner's compiled-scope loops, the semi-naive fixpoint,
and the SQLite backend.  Latency bounds are treated as a correctness
property of the serving path: a query that cannot finish inside its budget
must *answer* with a typed error (:class:`~repro.errors.QueryTimeout` /
:class:`~repro.errors.BudgetExceeded`), never hang.

Two kinds of checks, tuned for hot loops:

* :meth:`tick` — called once per enumerated row in the execution loops
  (or once per batch of at most :data:`STRIDE` rows), across every
  nesting level of the run.  It only bumps a counter; every
  :data:`STRIDE` rows it reads the monotonic clock and raises
  :class:`~repro.errors.QueryTimeout` past the deadline.  The common case is one integer add and one compare, so the
  guard stays well under the 5 % overhead ceiling the CI perf gate asserts
  on the E23 width-4 sweep.
* :meth:`count_rows` — called where result rows are *produced* (collection
  emission loops, fused grouped outputs, SQLite fetch chunks, fixpoint
  deltas).  Exceeding ``max_rows`` raises
  :class:`~repro.errors.BudgetExceeded` before the oversized result is
  fully materialized.  The budget bounds rows produced across all
  execution tiers — materialized intermediates included — so it is a
  resource budget, not an exact result-size predicate.

The clock is injectable for deterministic tests; :meth:`expired` is the
boolean form the SQLite progress handler polls.

A :class:`CancelToken` adds *external* interruption on the same rails: the
serving watchdog flips the token from its supervisor thread, and the very
next stride check (or SQLite progress callback) surfaces it as
:class:`~repro.errors.QueryTimeout` — no new check sites, no polling cost
beyond what deadlines already pay.  For queries offloaded to SQLite the
token also holds the executing connection and calls
``sqlite3.Connection.interrupt()``, so a runaway ``WITH RECURSIVE`` stops
mid-VM instead of at the next Python-level checkpoint.
"""

from __future__ import annotations

import threading
import time

from ..errors import BudgetExceeded, QueryTimeout

#: Ticks between monotonic-clock reads in the hot loops.  Small enough that
#: even ~1 ms/row pathological loops notice the deadline within a second;
#: large enough that the per-row cost is a counter bump.
STRIDE = 1024


class CancelToken:
    """A thread-safe one-shot cancellation flag with SQLite teeth.

    The canceller (the pool watchdog) calls :meth:`cancel` from its own
    thread; the running query observes it through the :class:`Deadline`
    it is attached to (``expired()`` turns True, ``check()`` raises
    :class:`~repro.errors.QueryTimeout` carrying *reason*).  While a query
    executes on SQLite, the backend arms the executing connection on the
    token so cancellation interrupts the VM immediately; arming after
    cancellation interrupts on the spot, closing the race where the
    watchdog fires between dispatch and execution.
    """

    __slots__ = ("reason", "_cancelled", "_conn", "_lock")

    def __init__(self):
        self.reason = None
        self._cancelled = False
        self._conn = None
        self._lock = threading.Lock()

    @property
    def cancelled(self):
        return self._cancelled

    def cancel(self, reason="cancelled"):
        """Flip the flag (idempotent); True only for the first caller.

        Interrupts the armed SQLite connection, if any.
        """
        with self._lock:
            if self._cancelled:
                return False
            self._cancelled = True
            self.reason = reason
            conn = self._conn
        if conn is not None:
            try:
                conn.interrupt()
            except Exception:  # pragma: no cover - conn may be closing
                pass
        return True

    def arm_connection(self, conn):
        """Point the token at the connection executing this query."""
        with self._lock:
            self._conn = conn
            fire = self._cancelled
        if fire:
            try:
                conn.interrupt()
            except Exception:  # pragma: no cover - conn may be closing
                pass

    def disarm_connection(self):
        with self._lock:
            self._conn = None

    def __repr__(self):
        return f"CancelToken(cancelled={self._cancelled}, reason={self.reason!r})"


class Deadline:
    """One run's deadline and row budget (either part optional).

    Parameters
    ----------
    timeout_ms:
        Wall-clock budget in milliseconds from construction, or None for
        no deadline.
    max_rows:
        Maximum rows the run may produce, or None for no budget.
    clock:
        Monotonic clock (seconds); injectable for deterministic tests.
    cancel:
        Optional :class:`CancelToken` observed by the same checks as the
        wall-clock deadline, so external interruption needs no new sites.
    """

    __slots__ = (
        "timeout_ms",
        "max_rows",
        "rows",
        "cancel",
        "_clock",
        "_started",
        "_expires",
        "_ops",
        "_next_check",
    )

    def __init__(self, timeout_ms=None, max_rows=None, *, clock=time.monotonic,
                 cancel=None):
        self.timeout_ms = timeout_ms
        self.max_rows = max_rows
        self.rows = 0
        self.cancel = cancel
        self._clock = clock
        self._started = clock()
        self._expires = (
            None if timeout_ms is None else self._started + timeout_ms / 1000.0
        )
        self._ops = 0
        self._next_check = STRIDE

    # -- deadline ----------------------------------------------------------

    def expired(self):
        """Whether the deadline passed or the run was cancelled."""
        if self.cancel is not None and self.cancel.cancelled:
            return True
        return self._expires is not None and self._clock() > self._expires

    def check(self):
        """Raise :class:`QueryTimeout` when past the deadline (direct read).

        Used at naturally coarse checkpoints (one fixpoint round, one
        grouped scan) where a clock read per call is cheap relative to the
        work between calls.  A cancelled :class:`CancelToken` raises here
        too, carrying the canceller's reason.
        """
        if self.cancel is not None and self.cancel.cancelled:
            raise QueryTimeout(
                self.cancel.reason or "query was cancelled by the server"
            )
        if self._expires is not None and self._clock() > self._expires:
            raise QueryTimeout(
                f"query exceeded its {self.timeout_ms} ms deadline "
                f"(ran {(self._clock() - self._started) * 1000:.0f} ms)"
            )

    def tick(self, n=1):
        """Stride-counted per-row check for hot loops.

        Call once per enumerated row, or once with *n* before a loop over
        *n* rows (at most :data:`STRIDE` of them); reads the clock only
        every :data:`STRIDE` rows.  One count spans the whole run, so a
        nested scope's rows advance the same stride as its outer loop's.
        """
        self._ops += n
        if self._ops >= self._next_check:
            self._next_check = self._ops + STRIDE
            self.check()

    # -- budget ------------------------------------------------------------

    def count_rows(self, n=1):
        """Record *n* produced rows; raise when over ``max_rows``."""
        self.rows += n
        if self.max_rows is not None and self.rows > self.max_rows:
            raise BudgetExceeded(
                f"query produced more than max_rows={self.max_rows} rows "
                f"(aborted at {self.rows})"
            )

    def __repr__(self):
        return (
            f"Deadline(timeout_ms={self.timeout_ms}, max_rows={self.max_rows}, "
            f"rows={self.rows}, expired={self.expired()})"
        )

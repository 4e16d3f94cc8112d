"""Env-agnostic chaos invariant: correct answer or typed error, never both wrong.

CI runs this module under a matrix of ``REPRO_FAILPOINTS`` values (see
``.github/workflows/ci.yml``); in a plain tier-1 run the variable is unset
and the module doubles as the matrix's empty entry.  The assertions are
deliberately agnostic to *which* faults are armed: whatever the
environment injects, a sqlite-backend session must either

* answer **identically to the reference oracle** (clean planner fallback,
  or the sqlite engine surviving via retries), or
* raise a **typed** :class:`~repro.errors.ArcError` —

never a raw ``sqlite3`` exception, never a hang, never a wrong answer.
"""

import os

import pytest

import repro
from repro.api import EvalOptions, Session
from repro.backends.exec import reset_breakers
from repro.core.conventions import SQL_CONVENTIONS
from repro.errors import ArcError

#: A workload wide enough to cross every failpoint site: plain selection,
#: aggregation, and recursion (the ``WITH RECURSIVE`` path).
QUERIES = [
    "{Q(A) | ∃r ∈ R[Q.A = r.A ∧ r.B > 15]}",
    "{Q(sm) | ∃r ∈ R, γ ∅[Q.sm = sum(r.B)]}",
    "{Q(A, B) | ∃r ∈ R, s ∈ R[Q.A = r.A ∧ Q.B = s.B ∧ r.A < s.A]}",
]


@pytest.fixture(autouse=True)
def cold_breakers():
    # Breakers persist process-wide; this module may legitimately trip
    # them (that *is* chaos), but it must not leak open breakers into
    # whatever runs next.
    reset_breakers()
    yield
    reset_breakers()


def _db():
    db = repro.Database()
    db.create("R", ("A", "B"), [(1, 10), (2, 20), (3, 30), (4, 40)])
    return db


def _oracle(db, query):
    session = Session(
        db, SQL_CONVENTIONS, options=EvalOptions(backend="reference")
    )
    return session.prepare(query).run().sorted_rows()


@pytest.mark.parametrize("query", QUERIES)
def test_sqlite_answers_match_the_oracle_or_raise_typed(query):
    db = _db()
    expected = _oracle(db, query)
    session = Session(db, SQL_CONVENTIONS, options=EvalOptions(backend="sqlite"))
    prepared = session.prepare(query)
    # Several runs: count-limited specs (kind*N) change behavior across
    # attempts, and repeated faults may trip the breaker mid-sequence —
    # the invariant must hold in every one of those states.
    for _ in range(3):
        try:
            result = prepared.run()
        except ArcError:
            continue  # typed refusal: acceptable, never a wrong answer
        assert result.sorted_rows() == expected


def test_active_failpoints_match_the_environment():
    from repro.util import failpoints

    spec = os.environ.get("REPRO_FAILPOINTS", "")
    failpoints.load_env()
    expected_sites = {
        entry.split("=", 1)[0].strip()
        for entry in spec.split(",")
        if entry.strip()
    }
    assert set(failpoints.active()) == expected_sites

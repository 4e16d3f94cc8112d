"""E26 — the Session API: cold one-shot vs warm prepared execution.

Runs the E21 join-chain sweep under the SQLite backend on the two request
lifecycles a caller can have:

* **one-shot cold** — ``evaluate()``: a transient Session per call, cold by
  design — every call pays parse + capability probe + SQL render + catalog
  load + execute, and closes its connection;
* **session warm** — ``Prepared.run()`` on a long-lived
  :class:`repro.api.Session`: parse, scope plans, probe verdict, rendered
  SQL, and the Session's own loaded connection are all reused; a request
  is fingerprint check + execute + row coercion.

Every configuration asserts bag-equality against the planner, and the
width-4 sweep asserts the acceptance claim directly: warm ``Prepared.run()``
must be ≥ 3× faster than the cold one-shot.

Representative numbers (CPython 3.11, SQL conventions, min over rounds,
a shared 2-vCPU x86-64 Linux VM):

==========================================  ===========  ===========
case                                        one-shot     session
                                            cold         warm
==========================================  ===========  ===========
join width=2 (E21 sweep, 60 rows/rel)         ~0.90 ms     ~0.12 ms
join width=3 (E21 sweep, 60 rows/rel)         ~1.13 ms     ~0.19 ms
join width=4 (E21 sweep, 60 rows/rel)         ~1.49 ms     ~0.31 ms
==========================================  ===========  ===========

(The remaining warm cost is SQLite execution plus result coercion, which
deduplicating raw rows before building Tuples cut ~2×.)  The serve
endpoint adds HTTP framing on top of the session-warm column — its
second-request latency is asserted (not timed) by
``tests/api/test_serve.py``.
"""

import os
import time

import pytest

from repro.api import EvalOptions, Session
from repro.backends.comprehension import render
from repro.core.conventions import SQL_CONVENTIONS
from repro.core.parser import parse
from repro.data import generators
from repro.engine import evaluate
from repro.workloads import sweeps

OPTIONS = EvalOptions(backend="sqlite")


def _database(width):
    return generators.chain_database(width, 60, domain=30, seed=3)


def _query_text(width):
    return render(sweeps.join_chain_query(width))


def _planner_result(text, db):
    return evaluate(parse(text), db, SQL_CONVENTIONS, options=EvalOptions())


def _one_shot(text, db):
    return evaluate(parse(text), db, SQL_CONVENTIONS, options=OPTIONS)


# -- the two lifecycles --------------------------------------------------------


@pytest.mark.parametrize("width", [2, 3, 4])
def test_one_shot_cold_process(benchmark, width):
    db = _database(width)
    text = _query_text(width)
    result = benchmark(_one_shot, text, db)
    assert result == _planner_result(text, db)


@pytest.mark.parametrize("width", [2, 3, 4])
def test_session_warm(benchmark, width):
    db = _database(width)
    text = _query_text(width)
    session = Session(db, SQL_CONVENTIONS, options=OPTIONS)
    prepared = session.prepare(text)
    prepared.run()  # cold run: parse/probe/render/load
    result = benchmark(prepared.run)
    assert result == _planner_result(text, db)
    assert session.catalog_loads == 1  # every benchmarked run was warm


# -- acceptance ----------------------------------------------------------------


def test_warm_prepared_run_beats_cold_one_shot_by_3x():
    """Acceptance claim: on the E21 width-4 sweep under the SQLite backend,
    a warm ``Prepared.run()`` is ≥ 3× faster than the one-shot
    ``evaluate()`` a stateless caller pays per request.

    A wall-clock ordering with a wide margin (measured ~5×); skipped on
    shared CI runners, where scheduling noise makes timing assertions flake
    (the warm-reuse property itself is counter-pinned in
    ``tests/api/test_session.py``: zero plan compilations, zero
    decorrelation-index builds, zero catalog reloads on the second run).
    """
    if os.environ.get("CI") and not os.environ.get("RUN_TIMING_ASSERTIONS"):
        pytest.skip("timing assertion; set RUN_TIMING_ASSERTIONS=1 to run in CI")
    db = _database(4)
    text = _query_text(4)
    session = Session(db, SQL_CONVENTIONS, options=OPTIONS)
    prepared = session.prepare(text)
    assert prepared.run() == _planner_result(text, db)

    def best_of(fn, rounds=7):
        times = []
        for _ in range(rounds):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return min(times)

    warm_time = best_of(prepared.run)
    cold_time = best_of(lambda: _one_shot(text, db), rounds=5)
    assert cold_time > 3 * warm_time, (
        f"session warm {warm_time * 1e3:.3f} ms vs "
        f"one-shot cold {cold_time * 1e3:.3f} ms"
    )

"""Serve-path hardening: timeouts, budgets, breakers, body caps, shutdown.

Every test here exercises the property that made this machinery worth
building: a degraded or abusive request gets an *answer* — typed JSON with
the right status code — and the server keeps serving afterwards.
"""

import http.client
import json
import signal
import threading
import time

import pytest

import repro
from repro.api import EvalOptions, Session
from repro.api.serve import install_sigterm_handler, make_server
from repro.backends.exec import breaker_for, reset_breakers
from repro.backends.exec import registry as registry_mod
from repro.backends.exec.registry import CircuitBreaker
from repro.core.conventions import SET_CONVENTIONS, SQL_CONVENTIONS
from repro.util import failpoints

#: Diverging recursion — only a deadline stops it.
RUNAWAY = "{T(x) | ∃p ∈ P[T.x = p.x] ∨ ∃t ∈ T[T.x = t.x + 1]}"
SIMPLE = "{Q(x) | ∃p ∈ P[Q.x = p.x]}"


@pytest.fixture(autouse=True)
def clean_state():
    failpoints.reset()
    reset_breakers()
    yield
    failpoints.reset()
    reset_breakers()
    failpoints.load_env()


def _session(conventions=SET_CONVENTIONS, **options):
    db = repro.Database()
    db.create("P", ("x",), [(1,)])
    return Session(db, conventions, options=EvalOptions(**options))


@pytest.fixture
def served():
    session = _session()
    server = make_server(session, max_body_bytes=4096)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


@pytest.fixture
def served_sql():
    # Bag (SQL) conventions: the static sqlite probe passes, so requests
    # actually reach the engine — required to exercise runtime faults.
    session = _session(SQL_CONVENTIONS)
    server = make_server(session)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def _request(server, method, path, body=None, headers=None):
    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def _post(server, payload):
    return _request(
        server, "POST", "/query", json.dumps(payload),
        {"Content-Type": "application/json"},
    )


class TestRequestTimeout:
    def test_timeout_returns_408_and_connection_stays_usable(self, served):
        host, port = served.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            # Request 1: a runaway with a request-level deadline → 408.
            body = json.dumps({"query": RUNAWAY, "timeout_ms": 200})
            conn.request(
                "POST", "/query", body,
                {"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            answer = json.loads(response.read())
            assert response.status == 408
            assert answer["error_type"] == "QueryTimeout"
            # Request 2 on the SAME keep-alive connection: the timeout
            # killed the query, not the socket.
            conn.request(
                "POST", "/query", json.dumps({"query": SIMPLE}),
                {"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            answer = json.loads(response.read())
            assert response.status == 200
            assert answer["rows"] == [[1]]
        finally:
            conn.close()

    def test_timeout_is_visible_in_stats(self, served):
        status, _ = _post(served, {"query": RUNAWAY, "timeout_ms": 150})
        assert status == 408
        status, stats = _request(served, "GET", "/stats")
        assert status == 200
        assert stats["timeouts"] == 1

    def test_budget_exceeded_returns_413(self, served):
        status, answer = _post(served, {"query": RUNAWAY, "max_rows": 10})
        assert status == 413
        assert answer["error_type"] == "BudgetExceeded"

    @pytest.mark.parametrize(
        "override", [{"timeout_ms": -1}, {"timeout_ms": "soon"},
                     {"max_rows": 0}, {"max_rows": 2.5}]
    )
    def test_malformed_budget_overrides_are_400(self, served, override):
        status, answer = _post(served, {"query": SIMPLE, **override})
        assert status == 400
        assert answer["error_type"] == "OptionsError"


class TestBodyCap:
    def test_oversized_body_is_refused_with_413(self, served):
        status, answer = _post(served, {"query": "x" * 8192})
        assert status == 413
        assert "byte limit" in answer["error"]

    def test_server_survives_an_oversized_request(self, served):
        _post(served, {"query": "x" * 8192})
        status, answer = _post(served, {"query": SIMPLE})
        assert status == 200
        assert answer["rows"] == [[1]]

    def test_negative_content_length_is_400(self, served):
        host, port = served.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.request("POST", "/query", headers={"Content-Length": "-5"})
            response = conn.getresponse()
            assert response.status == 400
            assert "negative" in json.loads(response.read())["error"]
        finally:
            conn.close()


class TestDegradedHealth:
    def test_open_breaker_degrades_healthz_to_503(self, served):
        breaker = breaker_for("sqlite")
        for _ in range(breaker.threshold):
            breaker.record_failure()
        host, port = served.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            body = json.loads(response.read())
            assert response.status == 503
            # Degraded is retriable: the 503 advises when to poll again.
            assert response.headers["Retry-After"] == "1"
        finally:
            conn.close()
        assert body["status"] == "degraded"
        assert body["degraded_backends"] == ["sqlite"]
        assert body["breakers"]["sqlite"]["state"] == "open"

    def test_healthz_recovers_when_the_breaker_closes(self, served):
        breaker = breaker_for("sqlite")
        for _ in range(breaker.threshold):
            breaker.record_failure()
        breaker.record_success()
        status, body = _request(served, "GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"

    def test_stats_exposes_breaker_counters(self, served_sql):
        clock = [0.0]
        registry_mod._BREAKERS["sqlite"] = CircuitBreaker(
            "sqlite", threshold=1, cooldown_s=30.0, clock=lambda: clock[0]
        )
        failpoints.activate("sqlite.execute", "error")
        status, answer = _post(
            served_sql, {"query": SIMPLE, "backend": "sqlite"}
        )
        # The injected fault took the fallback: the answer is still right.
        assert status == 200
        assert answer["rows"] == [[1]]
        assert answer["fallback"]
        status, stats = _request(served_sql, "GET", "/stats")
        assert stats["breaker_trips"] == 1
        assert stats["breakers"]["sqlite"]["trips"] == 1


class TestFallbackReasons:
    def test_failpoint_forced_fallback_reports_reasons_in_the_body(
        self, served_sql
    ):
        failpoints.activate("sql.render", "unsupported:injected render fault")
        status, answer = _post(
            served_sql, {"query": SIMPLE, "backend": "sqlite"}
        )
        assert status == 200
        assert answer["rows"] == [[1]]
        assert any("injected render fault" in r for r in answer["fallback"])


class TestDrainSurfaces:
    """Observability must outlive admission: while a drain waits on
    in-flight work, an already-open connection can still read ``/stats``,
    ``/healthz`` and ``/metrics``, and a late ``POST /query`` is refused
    with a typed 503 that advises when (not) to retry."""

    @staticmethod
    def _on(conn, method, path, body=None, headers=None):
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        return response.status, dict(response.headers), response.read()

    def test_observability_endpoints_answer_during_an_inflight_drain(
        self, served
    ):
        host, port = served.server_address[:2]
        # Open the keep-alive connection BEFORE drain: shutdown() stops
        # the accept loop, but established connections keep their handler.
        conn = http.client.HTTPConnection(host, port, timeout=30)
        release = threading.Event()
        drainer = threading.Thread(target=served.drain)
        try:
            # Prime the connection so the handler thread exists.
            status, _, _ = self._on(conn, "GET", "/healthz")
            assert status == 200
            # Occupy the single worker, then start draining around it.
            blocker = served.pool.submit(lambda worker: release.wait(30))
            deadline = time.monotonic() + 5
            while served.pool.busy < 1 and time.monotonic() < deadline:
                time.sleep(0.005)
            drainer.start()
            deadline = time.monotonic() + 5
            while not served.pool.draining and time.monotonic() < deadline:
                time.sleep(0.005)
            assert served.pool.draining

            status, _, body = self._on(conn, "GET", "/stats")
            assert status == 200
            stats = json.loads(body)
            assert stats["pool"]["draining"] is True
            assert stats["pool"]["busy"] == 1

            status, _, body = self._on(conn, "GET", "/healthz")
            assert status in (200, 503)  # degraded is fine, silence is not
            assert json.loads(body)["status"] in ("ok", "degraded")

            status, _, body = self._on(conn, "GET", "/metrics")
            assert status == 200
            assert b"arc_pool_queue_depth" in body

            status, headers, body = self._on(
                conn, "POST", "/query",
                json.dumps({"query": SIMPLE}),
                {"Content-Type": "application/json"},
            )
            answer = json.loads(body)
            assert status == 503
            assert answer["error_type"] == "AdmissionError"
            assert "draining" in answer["error"]
            assert headers["Retry-After"] == "1"
        finally:
            release.set()
            conn.close()
            if drainer.is_alive() or drainer.ident is not None:
                drainer.join(timeout=10)
            assert not drainer.is_alive()
        assert blocker.wait(10) is True


class TestGracefulShutdown:
    def test_sigterm_drains_the_inflight_request(self):
        session = _session()
        server = make_server(session)
        previous = {
            signum: signal.getsignal(signum)
            for signum in (signal.SIGTERM, signal.SIGINT)
        }
        handler = install_sigterm_handler(server)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            outcome = {}

            def slow_request():
                outcome["response"] = _post(
                    server, {"query": RUNAWAY, "timeout_ms": 700}
                )

            requester = threading.Thread(target=slow_request)
            requester.start()
            time.sleep(0.2)  # the runaway is now in flight
            handler(signal.SIGTERM, None)  # what the signal would do
            requester.join(timeout=10)
            thread.join(timeout=10)
            assert not thread.is_alive(), "serve_forever should have exited"
            # The in-flight request completed and was answered (408: its
            # own deadline fired) — shutdown never killed it mid-response.
            status, answer = outcome["response"]
            assert status == 408
            assert answer["error_type"] == "QueryTimeout"
        finally:
            server.server_close()
            for signum, old in previous.items():
                signal.signal(signum, old)

    def test_handler_is_idempotent_under_signal_storms(self):
        session = _session()
        server = make_server(session)
        previous = {
            signum: signal.getsignal(signum)
            for signum in (signal.SIGTERM, signal.SIGINT)
        }
        handler = install_sigterm_handler(server)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            for _ in range(5):
                handler(signal.SIGTERM, None)
            thread.join(timeout=10)
            assert not thread.is_alive()
        finally:
            server.server_close()
            for signum, old in previous.items():
                signal.signal(signum, old)

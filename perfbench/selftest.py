"""ARQL-Bench's own self-tests.

    python3 perfbench/selftest.py   # all checks (about three minutes)

1. Every workload, run briefly untraced and traced, prints every
   end-to-end and per-layer metric with its unit.
2. A deliberately corrupted expected answer makes the run fail
   (``failed`` > 0, ``correct`` false).
3. Against a stub server whose first response stalls, the open-loop
   generator times requests from their due time, so the requests queued
   behind the stall show the wait.
4. The query mutations keep every corpus answer and change every text.
5. The θ-band text parses to the AST ``sweeps.theta_aggregate_query``
   builds.
"""

import json
import subprocess
import sys
import threading
import time
import warnings
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402
import layers  # noqa: E402


def check_full_output():
    for workload in ("serve-hot", "adhoc-cold", "analytic"):
        for trace, units in ((0, layers.END_TO_END), (1, layers.PER_LAYER)):
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "7", "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, timeout=180, check=True,
            ).stdout
            result = json.loads(out.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == units, (workload, trace, sorted(set(got) ^ set(units)))
            print(f"ok   {workload} --trace {trace}: {len(got)} metrics with units")


def check_corrupted_answer():
    import adhoc_cold

    warnings.simplefilter("ignore")
    original = adhoc_cold.Oracle.expected
    victim = adhoc_cold.Schedule(3).texts[0][0]

    def corrupted(self, key, written):
        answer = original(self, key, written)
        return ("rows", answer[1] + ((None,),)) if key == victim else answer

    adhoc_cold.Oracle.expected = corrupted
    try:
        correct, attempted, failed, _, details = adhoc_cold.run(3, 0.5, False)
    finally:
        adhoc_cold.Oracle.expected = original
    assert not correct and failed > 0, (correct, failed)
    assert float(details["failed_frac"].split()[0]) > 0
    print(f"ok   corrupted answer: {failed}/{attempted} failed, "
          f"failed_frac {details['failed_frac']}")


class _Stalling(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    stall_s = 0.5
    served = 0

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        type(self).served += 1
        if type(self).served == 1:
            time.sleep(self.stall_s)
        payload = b'{"kind": "relation", "rows": []}'
        self.send_response(200)
        self.send_header("Content-Length", str(len(payload)))
        self.send_header("X-Arc-Elapsed-Us", "10")
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


def check_due_time_latency():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Stalling)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        rate = 20.0
        records = common.open_loop(
            "127.0.0.1", server.server_address[1], [b"{}"] * 8, rate,
            connections=1,
        )
    finally:
        server.shutdown()
        server.server_close()
        thread.join(10)
    assert not thread.is_alive()
    stall = _Stalling.stall_s
    # The second request was due 50 ms after the first but could only be
    # sent once the stalled response arrived: its latency from the due
    # time carries the backlog, although its own round trip is short.
    second = records[1]
    assert second.latency_s >= stall - 1 / rate - 0.02, second.latency_s
    assert second.done - second.sent < 0.1, second.done - second.sent
    assert second.late_s > 0.3, second.late_s
    latencies = [r.latency_s for r in records[1:]]
    assert latencies == sorted(latencies, reverse=True), latencies
    print("ok   stalled stub: latency from due time "
          + ", ".join(f"{r.latency_s * 1e3:.0f}" for r in records) + " ms")


def check_mutations():
    import items
    import mutate

    warnings.simplefilter("ignore")
    catalogs = items.corpus_catalogs("small")
    sessions = {name: common.oracle_session(db) for name, db in catalogs.items()}
    for key, catalog, frontend, text, _ in items.corpus_texts():
        renamed = mutate.rename(text, frontend, "zz9")
        assert renamed != text, key
        session = sessions[catalog]
        before = common.normalize_result(session.prepare(text, frontend).run())
        after = common.normalize_result(session.prepare(renamed, frontend).run())
        assert before == after, key
    print("ok   mutations: 59 renamed texts, answers unchanged")


def check_theta_text():
    import items
    from repro.core.nodes import structurally_equal
    from repro.core.parser import parse
    from repro.workloads import sweeps

    expected = sweeps.theta_aggregate_query(op="<", agg="sum")
    assert structurally_equal(parse(items.THETA), expected)
    print("ok   θ-band text equals sweeps.theta_aggregate_query()")


def main():
    check_due_time_latency()
    check_theta_text()
    check_mutations()
    check_corrupted_answer()
    check_full_output()
    return 0


if __name__ == "__main__":
    sys.exit(main())

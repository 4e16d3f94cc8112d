"""Shared pieces of ARQL-Bench: statistics, answer checks, spans, the
``repro serve`` subprocess, and the open-loop HTTP generator.

Nothing here runs at import time apart from putting the checkout's
``src/`` on ``sys.path``; every entry point lives in ``run.py``.
"""

import http.client
import json
import os
import pickle
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout (CSV catalogs, traces); git-ignored.
WORK = ROOT / ".perfbench"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


now = time.perf_counter


# -- statistics --------------------------------------------------------------


def quantile(values, q):
    """The q-quantile (0..1) of *values* by linear interpolation."""
    from repro.serve.loadgen import percentile

    return percentile(sorted(values), q)


def median(values):
    return quantile(values, 0.5)


def reset_rss_peak():
    """Restart this process's ``VmHWM`` from its current resident size, so
    :func:`pid_rss_peak_mb` covers only what runs after this call."""
    with open("/proc/self/clear_refs", "w") as refs:
        refs.write("5")


def pid_rss_peak_mb(pid):
    """Peak resident memory (``VmHWM``) of process *pid*, in MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def rng_for(seed, purpose):
    """A generator for one purpose, independent of every other purpose."""
    return random.Random(f"arql-bench:{purpose}:{seed}")


def zipf_sampler(n, rng, exponent=1.0):
    """Draws ranks 0..n-1 with P(k) ∝ 1/(k+1)^exponent."""
    weights = [1.0 / (k + 1) ** exponent for k in range(n)]
    population = range(n)
    return lambda: rng.choices(population, weights)[0]


# -- answer checks -----------------------------------------------------------


#: Run by :func:`in_child`: reads ``(module, function, args)`` as a pickle
#: on stdin and writes the pickled result to stdout; anything the function
#: prints goes to stderr.
_CHILD = """
import importlib, pickle, sys, warnings
warnings.simplefilter("ignore")
sys.path.insert(0, sys.argv[1])
module, name, args = pickle.load(sys.stdin.buffer)
out, sys.stdout = sys.stdout.buffer, sys.stderr
out.write(pickle.dumps(getattr(importlib.import_module(module), name)(*args)))
out.flush()
"""


def in_child(fn, *args):
    """``fn(*args)`` in a fresh child process, waited for before returning.

    Expected answers are computed this way, so the oracle's catalogs and
    sessions never add to the peak memory of the process under test.  The
    child is a plain subprocess (no multiprocessing helpers), so nothing
    outlives the call.
    """
    request = pickle.dumps((fn.__module__, fn.__qualname__, args))
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, str(Path(__file__).resolve().parent)],
        input=request, stdout=subprocess.PIPE, env=child_env(),
        cwd=str(ROOT), timeout=120, check=True,
    )
    return pickle.loads(child.stdout)


def _value(value):
    if isinstance(value, float):
        return round(value, 9)
    return value


def _row_key(row):
    return tuple(
        (0, 0) if v is None else (1, v) if isinstance(v, (int, float)) else (2, str(v))
        for v in row
    )


def canonical_rows(rows):
    """Positional rows as a sorted tuple (bag semantics, floats rounded)."""
    return tuple(sorted((tuple(_value(v) for v in row) for row in rows), key=_row_key))


def normalize_result(result):
    """A Relation or Truth from the engine in a comparable form."""
    from repro.data.relation import Relation
    from repro.data.values import NULL

    if isinstance(result, Relation):
        schema = result.schema
        return ("rows", canonical_rows(
            [None if row[a] is NULL else row[a] for a in schema] for row in result
        ))
    return ("truth", getattr(result, "name", str(result)))


def normalize_body(body):
    """A ``POST /query`` JSON response body in the same comparable form."""
    if body.get("kind") == "truth":
        return ("truth", body["truth"])
    return ("rows", canonical_rows(body["rows"]))


def check_response(record, expected):
    """Whether *record* is a 2xx response whose body is the *expected*
    (normalized) answer."""
    if record.error is not None or not 200 <= record.status < 300:
        return False
    return normalize_body(json.loads(record.payload)) == expected


def oracle_session(database):
    """The nested-loop reference evaluator (no planner, no decorrelation)."""
    from repro.api import EvalOptions, Session
    from repro.core.conventions import SQL_CONVENTIONS

    return Session(
        database, SQL_CONVENTIONS,
        options=EvalOptions(planner=False, decorrelate=False),
    )


# -- spans -------------------------------------------------------------------


class Trace:
    """In-memory spans: ``(id, name, start, end, parent, request)``.

    Spans of one request share ``request``; ``parent`` is the enclosing
    span on the same thread.  Nothing is written until :meth:`dump`.
    """

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, request):
        self._local.request = request

    def add(self, name, start, end, parent=None, request=None):
        with self._lock:
            span_id = len(self.spans)
            self.spans.append([span_id, name, start, end, parent, request])
        return span_id

    def wrap(self, name, fn):
        """*fn* wrapped so every call records a span named *name*."""
        trace = self

        def traced(*args, **kwargs):
            stack = trace._stack()
            parent = stack[-1] if stack else None
            span_id = trace.add(
                name, now(), None, parent, getattr(trace._local, "request", None)
            )
            stack.append(span_id)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                trace.spans[span_id][3] = now()

        traced.__wrapped__ = fn
        return traced

    def by_request(self):
        """``{request: [span, ...]}`` for finished spans."""
        groups = {}
        for span in self.spans:
            if span[3] is not None:
                groups.setdefault(span[5], []).append(span)
        return groups

    @staticmethod
    def self_times(spans):
        """``{span id: self seconds}``: duration minus child coverage."""
        children = {}
        for span in spans:
            if span[4] is not None:
                children.setdefault(span[4], []).append(span)
        result = {}
        for span in spans:
            covered = 0.0
            for child in children.get(span[0], ()):
                covered += child[3] - child[2]
            result[span[0]] = (span[3] - span[2]) - covered
        return result

    def dump(self, path):
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            json.dump(
                [
                    {"id": s[0], "name": s[1], "start": s[2], "end": s[3],
                     "parent": s[4], "request": s[5]}
                    for s in self.spans
                ],
                out,
            )


def patch(trace, owner, attribute, name, undo):
    """Replace ``owner.attribute`` with a traced wrapper; remember to undo."""
    original = getattr(owner, attribute)
    undo.append((owner, attribute, original))
    setattr(owner, attribute, trace.wrap(name, original))


def unpatch(undo):
    while undo:
        owner, attribute, original = undo.pop()
        setattr(owner, attribute, original)


# -- work directory ----------------------------------------------------------


class WorkDir:
    """A private directory under ``.perfbench/`` removed on exit."""

    def __enter__(self):
        WORK.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
        return self.path

    def __exit__(self, *exc):
        shutil.rmtree(self.path, ignore_errors=True)
        return False


def write_catalog_csvs(directory, name, database):
    """Write *database* as CSVs; the ``--catalog`` flag value for serve."""
    from repro.data.csvio import write_csv

    directory = Path(directory) / name
    directory.mkdir(parents=True, exist_ok=True)
    specs = []
    for rel_name in sorted(database.names()):
        path = directory / f"{rel_name}.csv"
        write_csv(database[rel_name], str(path))
        specs.append(f"{path}:{rel_name}")
    return f"{name}={','.join(specs)}"


def read_catalog_csvs(spec):
    """The Database a ``--catalog`` flag value loads (as the server does)."""
    from repro.data import Database
    from repro.data.csvio import read_csv

    _, _, rest = spec.partition("=")
    database = Database()
    for item in rest.split(","):
        path, _, rel_name = item.rpartition(":")
        database.add(read_csv(path, rel_name))
    return database


# -- the server subprocess ---------------------------------------------------


def child_env():
    """The environment for child processes: the checkout's source, no
    failpoints (so process-global breakers start closed)."""
    env = dict(os.environ)
    env.pop("REPRO_FAILPOINTS", None)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


class Server:
    """A ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, catalog_flags, *, workers=2):
        argv = [
            sys.executable, "-m", "repro", "serve", "--port", "0",
            "--conventions", "sql", "--backend", "sqlite",
            "--workers", str(workers),
        ]
        for flag in catalog_flags:
            argv += ["--catalog", flag]
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            env=child_env(), text=True, cwd=str(ROOT),
        )
        self.host = self.port = None
        line = self.proc.stdout.readline()
        if not line.startswith("serving on "):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        host_port = line.split()[2].rsplit("/", 1)[-1]
        self.host, port = host_port.rsplit(":", 1)
        self.port = int(port)

    def connection(self):
        return http.client.HTTPConnection(self.host, self.port, timeout=60)

    def get_json(self, path):
        conn = self.connection()
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def rss_peak_mb(self):
        return pid_rss_peak_mb(self.proc.pid)

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=20)
        self.proc.stdout.close()


def post(conn, body):
    """One keep-alive ``POST /query``: ``(status, headers, payload)``."""
    conn.request(
        "POST", "/query", body=body,
        headers={"Content-Type": "application/json"},
    )
    response = conn.getresponse()
    payload = response.read()
    return response.status, response.headers, payload


def get_healthz(conn, _body=None):
    """One keep-alive ``GET /healthz``, shaped like :func:`post`."""
    conn.request("GET", "/healthz")
    response = conn.getresponse()
    payload = response.read()
    return response.status, response.headers, payload


class Record:
    """What the generator saw for one request (times are perf_counter)."""

    __slots__ = ("due", "sent", "done", "status", "exec_us",
                 "warm", "coalesced", "payload", "error")

    def __init__(self, due):
        self.due = due
        self.sent = self.done = None
        self.status = None
        self.exec_us = None
        self.warm = self.coalesced = False
        self.payload = None
        self.error = None

    @property
    def latency_s(self):
        return self.done - self.due

    @property
    def late_s(self):
        return self.sent - self.due


def open_loop(host, port, bodies, rate, *, connections=2, send=post):
    """Send *bodies* with *send* on a fixed schedule of *rate* requests
    per second.

    Request *i* is due ``i / rate`` seconds after the start and belongs to
    connection ``i % connections``; a connection
    sends its next request when it is due, or as soon as the previous
    response is read if that is later.  A request is timed from when it
    was due, so a stall also delays the requests queued behind it on that
    connection, and the wait counts.
    """
    start = now() + 0.02
    records = [Record(start + i / rate) for i in range(len(bodies))]

    def client(first):
        conn = http.client.HTTPConnection(host, port, timeout=60)
        try:
            for i in range(first, len(bodies), connections):
                record = records[i]
                delay = record.due - now()
                if delay > 0:
                    time.sleep(delay)
                record.sent = now()
                try:
                    status, headers, payload = send(conn, bodies[i])
                except (OSError, http.client.HTTPException) as exc:
                    record.done = now()
                    record.error = f"{type(exc).__name__}: {exc}"
                    conn.close()
                    conn = http.client.HTTPConnection(host, port, timeout=60)
                    continue
                record.done = now()
                record.status = status
                elapsed = headers.get("X-Arc-Elapsed-Us")
                record.exec_us = int(elapsed) if elapsed is not None else None
                record.warm = headers.get("X-Arc-Warm") == "1"
                record.coalesced = headers.get("X-Arc-Coalesced") == "1"
                record.payload = payload
        finally:
            conn.close()

    threads = [threading.Thread(target=client, args=(k,)) for k in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


# -- output ------------------------------------------------------------------


def metric(value, unit):
    return {"value": value, "unit": unit}


def emit(correct, attempted, failed, metrics, details=None):
    """Print the human-readable details, then the one-line JSON result."""
    if details:
        for key in sorted(details):
            print(f"# {key}: {details[key]}")
    for name in sorted(metrics):
        print(f"# {name} = {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }), flush=True)

"""End-to-end metric assembly and the traced run's per-layer measurements.

Every per-layer number is taken from outside the program: either a span
recorded around a public call (wrappers are installed only for the traced
pass and removed afterwards), or a direct, timed call into one layer's
public function.  ``PER_LAYER`` lists every metric a traced run prints.
"""

import contextlib
import json
import statistics
import time

import common
import items

END_TO_END = {
    "setup_s": "s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "qps": "1/s",
    "rss_peak_mb": "MiB",
}

#: Seconds of requests the traced run replays through the in-process pool
#: (and, for in-process workloads, through a ``repro serve`` subprocess).
REPLAY_S = 5.0
#: The replay rate for in-process workloads: half their closed-loop
#: rate, at most this many requests per second.
REPLAY_RATE_CAP = 10.0
#: Share of the untraced p50 the named layer spans must account for.
COVERAGE_TARGET = 0.9
#: Paced keep-alive requests of a constant query (no catalog rows) that
#: measure the serving floor: what HTTP, the handler and the pool cost a
#: request with next to no execution.
FLOOR_REQUESTS = 40
FLOOR_BODY = json.dumps(
    {"query": "{Q(v) | Q.v = 1}", "frontend": "arc", "backend": "planner"}
).encode()

FRONTENDS = ("sql", "datalog", "trc", "rel")
LABELS = ("chain", "theta", "recursion", "corpus")

PER_LAYER = {
    **{f"frontends.load_query_us.{fe}": "us" for fe in FRONTENDS},
    "api.session.run_cold_ms": "ms",
    "api.session.run_warm_ms": "ms",
    "backends.exec.probe_us": "us",
    "backends.exec.compile_sql_us": "us",
    "backends.exec.fallback_ratio": "ratio",
    "backends.exec.catalog_fingerprint_ms": "ms",
    "backends.exec.catalog_load_ms": "ms",
    "data.relation.append_batch_us": "us",
    **{f"backends.exec.sqlite_execute_ms.{label}": "ms" for label in LABELS},
    "backends.exec.sqlite_overhead_ms": "ms",
    **{f"engine.planner_run_ms.{label}": "ms" for label in LABELS},
    "engine.combos_per_result": "ratio",
    "engine.rows_enumerated_per_result": "ratio",
    "engine.index_probes_per_result": "ratio",
    "engine.plans_compiled_per_query": "ratio",
    "engine.index_builds_per_write": "ratio",
    "api.serve.exec_p50_ms": "ms",
    "api.serve.overhead_p50_ms": "ms",
    "api.serve.overhead_p99_ms": "ms",
    "api.serve.healthz_p50_ms": "ms",
    "api.session.warm_ratio": "ratio",
    "serve.pool.submit_wait_p50_us": "us",
    "serve.pool.queue_wait_p99_ms": "ms",
    "serve.pool.service_ewma_ms": "ms",
    "serve.coalesce.hit_ratio": "ratio",
    "loadgen.late_p99_ms": "ms",
    "trace_overhead_frac": "ratio",
    "attribution_coverage_frac": "ratio",
}


def _metrics(values, units):
    return {name: common.metric(float(values[name]), units[name]) for name in units}


def end_to_end(setups, latencies_ms, qps, rss_mb):
    return _metrics(
        {
            "setup_s": statistics.median(setups),
            "p50_ms": common.quantile(latencies_ms, 0.50),
            "p99_ms": common.quantile(latencies_ms, 0.99),
            "qps": qps,
            "rss_peak_mb": rss_mb,
        },
        END_TO_END,
    )


def details(workload, failed, attempted, latencies_ms, max_rps=None, **extra):
    """The ``#`` lines every untraced run prints besides its metrics:
    ``failed_frac``, ``p90_ms`` and (``serve-hot`` only) ``max_rps_at_slo``
    are reported but carry no bound."""
    lines = {
        "workload": " ".join([workload] + [f"{k}={v}" for k, v in extra.items()]),
        "failed_frac": f"{failed / attempted:.6f} ({failed} of {attempted})",
        "p90_ms": f"{common.quantile(latencies_ms, 0.9):.4f} ms",
        "samples": str(len(latencies_ms)),
    }
    if max_rps is not None:
        lines["max_rps_at_slo"] = f"{max_rps:.4f} 1/s"
    return lines


def per_layer(values):
    missing = sorted(set(PER_LAYER) - set(values))
    if missing:
        raise RuntimeError(f"traced run did not measure {missing}")
    return _metrics(values, PER_LAYER)


# -- spans -----------------------------------------------------------------------


def install_wrappers(trace):
    """Wrap the public calls of every engine layer; returns an undo list."""
    import repro.api.session as session_mod
    import repro.backends.exec as exec_pkg
    from repro.backends.exec import PlannerBackend, SqliteBackend, sqlite_exec

    undo = []
    for owner, attribute, name in (
        (session_mod, "load_query", "frontends.load_query"),
        (exec_pkg, "run_backend", "backends.exec.run_backend"),
        (SqliteBackend, "capabilities", "backends.exec.probe"),
        (PlannerBackend, "capabilities", "backends.exec.probe"),
        (sqlite_exec, "compile_sql", "backends.exec.compile_sql"),
        (sqlite_exec, "connect_catalog", "backends.exec.connect_catalog"),
        (sqlite_exec, "catalog_fingerprint", "backends.exec.catalog_fingerprint"),
        (sqlite_exec, "load_private_catalog", "backends.exec.catalog_load"),
        (sqlite_exec, "execute_with_retry", "backends.exec.sqlite_execute"),
        (SqliteBackend, "run", "backends.exec.sqlite_run"),
        (PlannerBackend, "run", "engine.planner_run"),
    ):
        common.patch(trace, owner, attribute, name, undo)
    return undo


@contextlib.contextmanager
def traced_if_odd(trace, index):
    """Trace request *index* when *trace* is given and *index* is odd: the
    layer wrappers go in just before the request and come out right after,
    so even requests run untraced, interleaved with the traced ones and
    under the same conditions.  Yields the active trace or None."""
    if trace is None or index % 2 == 0:
        yield None
        return
    undo = install_wrappers(trace)
    trace.begin(index)
    try:
        yield trace
    finally:
        common.unpatch(undo)


def layer_self_mean(trace, requests):
    """Mean self time (ms) per request of every layer seen in *requests*;
    the values add up to the mean traced request."""
    groups = trace.by_request()
    totals = {}
    for request in requests:
        spans = groups.get(request, ())
        selfs = common.Trace.self_times(spans)
        for span in spans:
            totals[span[1]] = totals.get(span[1], 0.0) + selfs[span[0]]
    return {
        name: round(seconds * 1e3 / len(requests), 4)
        for name, seconds in sorted(totals.items())
    }


def coverage(trace, kinds, latencies_ms):
    """The attribution check for a run made with :func:`traced_if_odd`.

    *kinds* names each request's query (text and backend) and
    *latencies_ms* its latency, by request index.  A traced request's
    attributed time is its root span minus the root's own self time,
    i.e. what named layer spans cover; it is compared with the untraced
    median of the same kind, so the mix of kinds cannot shift the ratio.
    ``attribution_coverage_frac`` is the median of those shares and
    ``trace_overhead_frac`` the median traced/untraced ratio minus one.
    Returns ``(values, untraced p50 ms)``.
    """
    untraced = {}
    for i in range(0, len(latencies_ms), 2):
        untraced.setdefault(kinds[i], []).append(latencies_ms[i])
    base = {kind: common.median(values) for kind, values in untraced.items()}
    groups = trace.by_request()
    shares, ratios = [], []
    for i in range(1, len(latencies_ms), 2):
        spans, ref = groups.get(i), base.get(kinds[i])
        if not spans or not ref:
            continue
        roots = [s for s in spans if s[4] is None]
        selfs = common.Trace.self_times(spans)
        total = sum(s[3] - s[2] for s in roots) * 1e3
        shares.append((total - sum(selfs[s[0]] for s in roots) * 1e3) / ref)
        ratios.append(total / ref)
    values = {
        "attribution_coverage_frac": common.median(shares),
        "trace_overhead_frac": common.median(ratios) - 1.0,
    }
    return values, common.median(latencies_ms[0::2])


def attribution_check(values):
    """The coverage target (≥ 90% of untraced p50): ``(passed, detail
    line)``.  A traced run that misses it is not correct."""
    share = values["attribution_coverage_frac"]
    passed = share >= COVERAGE_TARGET
    verdict = "pass" if passed else "FAIL"
    return passed, f"{verdict} (named layers cover {share:.3f} of the untraced latency)"


def dump(trace, workload, seed):
    trace.dump(common.WORK / "traces" / f"{workload}-seed{seed}.json")


# -- HTTP ------------------------------------------------------------------------


def serving_floor_s(server, rate):
    """Median of round trip minus ``X-Arc-Elapsed-Us`` for paced
    keep-alive requests of :data:`FLOOR_BODY`, sent at *rate* over two
    connections on the server's default catalog."""
    records = common.open_loop(server.host, server.port, [FLOOR_BODY] * FLOOR_REQUESTS, rate)
    if not all(r.status == 200 and r.exec_us is not None for r in records):
        raise RuntimeError("the serving-floor query failed")
    return common.median([r.done - r.sent - r.exec_us / 1e6 for r in records])


def http_layer(server, records, rate, pool_s, trace, first_request=0):
    """Client-side spans for *records* served at *rate*, plus the serve
    metrics.

    Each request gets ``loadgen.request`` (due → done) with children
    ``loadgen.late`` (due → sent) and ``api.serve.http`` (sent → done).
    Inside the HTTP span sit ``api.serve.exec`` (the server's own
    ``X-Arc-Elapsed-Us``, placed at the end of the response) and
    ``api.serve.floor`` (see :func:`serving_floor_s`), which holds
    ``serve.pool.handoff`` (*pool_s*, the in-process pool's share of a
    round trip, see :func:`pool_layer`).  The floor and the handoff are
    measured apart from the request, so the HTTP span's self time is the
    overhead no rung explains, such as a keep-alive stall.  The root's
    children cover it exactly: on the client side, attribution holds by
    construction.
    """
    floor = serving_floor_s(server, rate)
    exec_ms, overhead_ms = [], []
    for offset, record in enumerate(records):
        request = first_request + offset
        root = trace.add("loadgen.request", record.due, record.done, None, request)
        trace.add("loadgen.late", record.due, record.sent, root, request)
        http = trace.add("api.serve.http", record.sent, record.done, root, request)
        base = trace.add("api.serve.floor", record.sent, record.sent + floor, http, request)
        trace.add("serve.pool.handoff", record.sent, record.sent + pool_s, base, request)
        if record.exec_us is not None:
            seconds = record.exec_us / 1e6
            trace.add("api.serve.exec", record.done - seconds, record.done, http, request)
            exec_ms.append(seconds * 1e3)
            overhead_ms.append((record.done - record.sent - seconds) * 1e3)
    ok = [r for r in records if r.status == 200]
    stats = server.get_json("/stats")
    return {
        "api.serve.exec_p50_ms": common.median(exec_ms),
        "api.serve.overhead_p50_ms": common.median(overhead_ms),
        "api.serve.overhead_p99_ms": common.quantile(overhead_ms, 0.99),
        "api.session.warm_ratio": sum(r.warm for r in ok) / max(1, len(ok)),
        "serve.coalesce.hit_ratio": sum(r.coalesced for r in records) / len(records),
        "loadgen.late_p99_ms": common.quantile([r.late_s * 1e3 for r in records], 0.99),
        "serve.pool.service_ewma_ms": stats["pool"]["service_ewma_ms"],
    }


def replay_rate(qps):
    return min(REPLAY_RATE_CAP, qps / 2)


def serve_layer(catalogs, stream, rate, pool_s, trace, first_request):
    """Serve *catalogs* from a fresh subprocess and replay *stream* at
    *rate* over two keep-alive connections: ``(values, records)``."""
    with common.WorkDir() as work:
        flags = [common.write_catalog_csvs(work, n, db) for n, db in catalogs.items()]
        server = common.Server(flags)
        try:
            records = common.open_loop(
                server.host, server.port, [item.body() for item in stream], rate
            )
            values = http_layer(server, records, rate, pool_s, trace, first_request)
            values.update(healthz(server))
        finally:
            server.stop()
    return values, records


def healthz(server, n=20):
    """Keep-alive ``GET /healthz`` round trips: the HTTP floor."""
    conn = server.connection()
    times = []
    try:
        for _ in range(n):
            began = common.now()
            conn.request("GET", "/healthz")
            conn.getresponse().read()
            times.append((common.now() - began) * 1e3)
    finally:
        conn.close()
    return {"api.serve.healthz_p50_ms": common.median(times)}


# -- below HTTP: pool, Session, raw sqlite -----------------------------------------


def pool_layer(catalogs, stream, rate):
    """In-process ``WorkerPool.submit(fn).wait()`` at *rate*, one request
    at a time as the server's handler calls it: the wait from submit to
    the start of ``fn``, and the pool's share of the round trip (submit
    to ``wait`` returning, minus ``fn`` itself).  ``(values, median pool
    share in seconds)``."""
    from repro.api import EvalOptions
    from repro.core.conventions import SQL_CONVENTIONS
    from repro.serve import SessionFactory, WorkerPool

    factory = SessionFactory(
        catalogs, SQL_CONVENTIONS, options=EvalOptions(backend="sqlite"),
        default=next(iter(catalogs)),
    )
    pool = WorkerPool(factory, workers=2)

    def job(item):
        def fn(worker):
            started = common.now()
            session = worker.session_for(item.catalog)
            session.prepare(item.text, item.frontend).run_info(backend=item.backend)
            return started, common.now()
        return fn

    waits, shares = [], []
    try:
        start = common.now()
        for i, item in enumerate(stream):
            delay = start + i / rate - common.now()
            if delay > 0:
                time.sleep(delay)
            submitted = common.now()
            started, finished = pool.submit(job(item)).wait(120)
            returned = common.now()
            waits.append(started - submitted)
            shares.append((returned - submitted) - (finished - started))
    finally:
        pool.drain()
    return {
        "serve.pool.submit_wait_p50_us": common.median(waits) * 1e6,
        "serve.pool.queue_wait_p99_ms": common.quantile(waits, 0.99) * 1e3,
    }, common.median(shares)


def _timed(fn, *args):
    began = common.now()
    result = fn(*args)
    return result, common.now() - began


def sweep(catalogs, sweep_items):
    """Time each layer's public call once per item, on fresh ASTs."""
    from repro.api import EvalOptions, Session
    from repro.backends.exec import BackendUnsupported, probe_capabilities, sqlite_exec
    from repro.core.conventions import SQL_CONVENTIONS as SQL
    from repro.frontends import load_query

    parse_us = {fe: [] for fe in FRONTENDS}
    probe_us, compile_us, cold_ms, warm_ms, overhead_ms = [], [], [], [], []
    raw_ms = {label: [] for label in LABELS}
    planner_ms = {label: [] for label in LABELS}
    counts = dict(combos=0, rows=0, probes=0, results=0, plans=0, queries=0)
    fallbacks = sqlite_runs = 0
    conns = {name: sqlite_exec.load_private_catalog(db) for name, db in catalogs.items()}
    try:
        for item in sweep_items:
            db = catalogs[item.catalog]
            if item.frontend in parse_us:
                _, took = _timed(load_query, item.text, item.frontend, db)
                parse_us[item.frontend].append(took * 1e6)
            node = load_query(item.text, item.frontend, db)
            _, took = _timed(probe_capabilities, node, db, SQL)
            probe_us.append(took * 1e6)
            node = load_query(item.text, item.frontend, db)
            try:
                (_, sql), took = _timed(sqlite_exec.compile_sql, node, db)
                compile_us.append(took * 1e6)
            except BackendUnsupported:
                sql = None
            session = Session(db, SQL, options=EvalOptions(backend=item.backend))
            prepared = session.prepare(item.text, item.frontend)
            plans = session.stats.plans_compiled
            _, took = _timed(prepared.run_info)
            cold_ms.append(took * 1e3)
            counts["plans"] += session.stats.plans_compiled - plans
            counts["queries"] += 1
            info, took = _timed(prepared.run_info)
            warm_ms.append(took * 1e3)
            if item.backend == "sqlite":
                sqlite_runs += 1
                fallbacks += bool(info["fallback_reasons"])
                if sql is not None and not info["fallback_reasons"]:
                    raw = min(
                        _timed(lambda: conns[item.catalog].execute(sql).fetchall())[1]
                        for _ in range(2)
                    )
                    raw_ms[item.label].append(raw * 1e3)
                    overhead_ms.append((took - raw) * 1e3)
            else:
                planner_ms[item.label].append(took * 1e3)
                before = session.stats.as_dict()
                result = prepared.run()
                after = session.stats.as_dict()
                counts["combos"] += after["combos_emitted"] - before["combos_emitted"]
                counts["rows"] += after["rows_enumerated"] - before["rows_enumerated"]
                counts["probes"] += after["index_probes"] - before["index_probes"]
                counts["results"] += max(1, len(result)) if hasattr(result, "schema") else 1
    finally:
        for conn in conns.values():
            conn.close()
    values = {f"frontends.load_query_us.{fe}": common.median(v) for fe, v in parse_us.items()}
    values.update({
        "backends.exec.probe_us": common.median(probe_us),
        "backends.exec.compile_sql_us": common.median(compile_us),
        "api.session.run_cold_ms": common.median(cold_ms),
        "api.session.run_warm_ms": common.median(warm_ms),
        "backends.exec.fallback_ratio": fallbacks / max(1, sqlite_runs),
        "backends.exec.sqlite_overhead_ms": common.median(overhead_ms),
        "engine.combos_per_result": counts["combos"] / counts["results"],
        "engine.rows_enumerated_per_result": counts["rows"] / counts["results"],
        "engine.index_probes_per_result": counts["probes"] / counts["results"],
        "engine.plans_compiled_per_query": counts["plans"] / counts["queries"],
    })
    for label in LABELS:
        values[f"backends.exec.sqlite_execute_ms.{label}"] = common.median(raw_ms[label])
        values[f"engine.planner_run_ms.{label}"] = common.median(planner_ms[label])
    return values


def writes(catalogs, seed, batches=4):
    """Per catalog: append a write batch, then time the fingerprint and a
    private catalog load, and count the index rebuilds the next planner
    run of the catalog's queries pays."""
    from repro.api import EvalOptions, Session
    from repro.backends.exec import sqlite_exec
    from repro.core.conventions import SQL_CONVENTIONS as SQL

    rng = common.rng_for(seed, "layer-writes")
    texts = {}
    for _, catalog, frontend, text, _ in items.corpus_texts():
        texts.setdefault(catalog, []).append((text, frontend))
    append_us, fingerprint_ms, load_ms, builds = [], [], [], []
    for name, texts_here in texts.items():
        db = catalogs.get(name)
        if db is None:
            continue
        session = Session(db, SQL, options=EvalOptions(backend="planner"))
        prepared = [session.prepare(text, frontend) for text, frontend in texts_here]
        for query in prepared:
            query.run()
        for _ in range(batches):
            relation, rows = items.write_batch(
                db, rng.choice(items.writable_relations(name)), rng
            )
            began = common.now()
            for row in rows:
                relation.add(row)
            append_us.append((common.now() - began) * 1e6)
            _, took = _timed(sqlite_exec.catalog_fingerprint, db)
            fingerprint_ms.append(took * 1e3)
            conn, took = _timed(sqlite_exec.load_private_catalog, db)
            conn.close()
            load_ms.append(took * 1e3)
            before = _index_builds(db, session)
            for query in prepared:
                query.run()
            builds.append(_index_builds(db, session) - before)
    return {
        "data.relation.append_batch_us": common.median(append_us),
        "backends.exec.catalog_fingerprint_ms": common.median(fingerprint_ms),
        "backends.exec.catalog_load_ms": common.median(load_ms),
        "engine.index_builds_per_write": statistics.mean(builds),
    }


def _index_builds(db, session):
    stats = session.stats
    return (
        sum(db[name].index_builds for name in db.names())
        + stats.decorr_index_builds
        + stats.band_index_builds
    )


def engine_layers(catalogs, sweep_items, seed):
    """Everything under the pool: the per-call sweep and the writes."""
    values = sweep(catalogs, sweep_items)
    values.update(writes(catalogs, seed))
    return values


def kernel_catalogs(catalogs):
    """*catalogs* plus the heavy-query catalogs, for the per-label kernels."""
    merged = dict(catalogs)
    merged.update(items.heavy_catalogs())
    return merged


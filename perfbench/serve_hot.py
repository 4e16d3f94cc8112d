"""``serve-hot``: warm, repeated corpus requests over HTTP at a fixed rate.

A ``repro serve`` subprocess (sqlite default backend, 2 workers) holds the
retail, social and eventlog catalogs at ``medium`` size.  Two keep-alive
connections send an open loop at a fixed ``RATE`` requests per second,
drawn with a seeded Zipf skew from the 59 corpus texts, about a quarter of
them on the planner.  Latency runs from each request's due time to the end of its
response.  A rate ladder then supplies ``max_rps_at_slo``.
"""

import common
import items
import layers

RATE = 20.0
#: Latency limit for ``max_rps_at_slo``: p99 at or below this.
SLO_MS = 100.0
SIZE = "medium"
CONNECTIONS = 2
WORKERS = 2
#: Server starts per run (each ~2 s); ``setup_s`` is their median.
SETUP_REPEATS = 3
#: The fixed geometric ladder of offered rates, 20 … 640 req/s.
LADDER = tuple(round(RATE * 2 ** (k / 2), 1) for k in range(11))
#: Requests sent at each ladder rung above RATE.
RUNG_REQUESTS = 200
#: Shortest traced pass: the attribution check compares each traced
#: request with untraced ones of the same text, and under the Zipf mix a
#: shorter pass leaves too few such pairs for a stable median.
TRACED_MIN_S = 10.0


class Inputs:
    """Catalogs, oracle answers and the seeded request stream."""

    def __init__(self, seed, work):
        self.seed = seed
        self.texts = items.corpus_texts()
        catalogs = items.corpus_catalogs(SIZE)
        self.flags = [
            common.write_catalog_csvs(work, name, db) for name, db in catalogs.items()
        ]
        # The oracle reads the CSVs back, so it sees exactly what the server does.
        self.catalogs = {
            flag.partition("=")[0]: common.read_catalog_csvs(flag) for flag in self.flags
        }
        self.expected = items.corpus_oracles(self.catalogs, self.texts)
        self.kinds = items.corpus_items()
        # Popularity ranks are part of the workload, the same for every
        # seed; the seed draws the request sequence and the catalog rows.
        self._ranked = list(range(len(self.texts)))
        common.rng_for(0, "serve-hot-ranking").shuffle(self._ranked)
        rng = self._rng = common.rng_for(seed, "serve-hot")
        self._zipf = common.zipf_sampler(len(self.texts), rng)

    def check(self, record, item):
        return common.check_response(record, self.expected[item.key])

    def draw(self, n):
        """The next *n* requests of the seeded stream."""
        stream = []
        for _ in range(n):
            text = self._ranked[self._zipf()]
            backend = "planner" if self._rng.random() < items.PLANNER_SHARE else "sqlite"
            stream.append(self.kinds[2 * text + items.BACKENDS.index(backend)])
        return stream


def start(inputs):
    """Set-up: start the server and warm every request kind on both
    workers (fresh connections, so warm-up is not paced by the
    keep-alive stall).  ``(server, seconds, warm-up records)``."""
    began = common.now()
    server = common.Server(inputs.flags, workers=WORKERS)
    checked = []
    try:
        for item in inputs.kinds:
            for _ in range(WORKERS):
                conn = server.connection()
                record = common.Record(common.now())
                record.sent = record.due
                try:
                    record.status, _, record.payload = common.post(conn, item.body())
                finally:
                    conn.close()
                record.done = common.now()
                checked.append((record, item))
    except BaseException:
        server.stop()
        raise
    return server, common.now() - began, checked


def send(server, inputs, n, rate):
    """The next *n* requests at a fixed *rate* per second over the
    keep-alive connections: ``[(record, item)]``."""
    stream = inputs.draw(n)
    records = common.open_loop(
        server.host, server.port, [item.body() for item in stream], rate,
        connections=CONNECTIONS,
    )
    return list(zip(records, stream))


def ladder(server, inputs, main):
    """Step up the rate ladder until a rung misses the limit: p99 above
    SLO_MS, a growing backlog, or any failure.  The main phase is the
    first rung (RATE); each later rung sends RUNG_REQUESTS requests.
    ``max_rps_at_slo`` is the rate where p99 crosses the limit,
    interpolated in log rate between the last rung that met it and the
    first that did not; a failure ends the ladder at the last good rung.
    ``(max_rps_at_slo, [(record, item)] of the later rungs)``."""
    sent, good, pairs = [], None, main
    for rate in LADDER:
        if rate != RATE:
            pairs = send(server, inputs, RUNG_REQUESTS, rate)
            sent += pairs
        records = [record for record, _ in pairs]
        p99_ms = common.quantile([r.latency_s * 1e3 for r in records], 0.99)
        over = max(p99_ms, records[-1].late_s * 1e3)
        if not all(inputs.check(r, item) for r, item in pairs):
            return (good[0] if good else 0.0), sent
        if over <= SLO_MS:
            good = (rate, over)
            continue
        if good is None:
            return rate * SLO_MS / over, sent
        low, low_ms = good
        share = (SLO_MS - low_ms) / (over - low_ms)
        return low * (rate / low) ** share, sent
    return good[0], sent


def run(seed, seconds, trace):
    with common.WorkDir() as work:
        inputs = Inputs(seed, work)
        if trace:
            return _traced(inputs, seconds)
        setups, server, warm = [], None, []
        try:
            for _ in range(SETUP_REPEATS):
                if server is not None:
                    server.stop()
                server, took, warm = start(inputs)
                setups.append(took)
            main = send(server, inputs, int(RATE * seconds), RATE)
            max_rps, rungs = ladder(server, inputs, main)
            rss_mb = server.rss_peak_mb()
        finally:
            if server is not None:
                server.stop()
    records = [record for record, _ in main]
    verdicts = [inputs.check(r, item) for r, item in warm + main + rungs]
    latencies = [r.latency_s * 1e3 for r in records]
    ok = sum(inputs.check(r, item) for r, item in main)
    span = max(r.done for r in records) - records[0].due
    metrics = layers.end_to_end(setups, latencies, ok / span, rss_mb)
    details = layers.details(
        "serve-hot", verdicts.count(False), len(verdicts), latencies, max_rps,
        seed=seed, rate=RATE, ladder_requests=len(rungs), warmup_requests=len(warm),
    )
    return all(verdicts), len(verdicts), verdicts.count(False), metrics, details


def _traced(inputs, seconds):
    """The in-process pool on the same mix, then one set-up and one pass
    at RATE (at least TRACED_MIN_S long) whose odd requests get spans,
    then the layers below the pool (Session, raw sqlite)."""
    pooled, pool_s = layers.pool_layer(
        inputs.catalogs, inputs.draw(int(RATE * layers.REPLAY_S)), RATE
    )
    server, _, warm = start(inputs)
    trace = common.Trace()
    try:
        sent = send(server, inputs, int(RATE * max(seconds, TRACED_MIN_S)), RATE)
        records = [record for record, _ in sent]
        values = layers.http_layer(server, records, RATE, pool_s, trace)
        values.update(pooled)
        values.update(layers.healthz(server))
    finally:
        server.stop()
    checked = [inputs.check(r, item) for r, item in warm + sent]
    # Client-side spans are built after the fact, so the even requests
    # stand in as the untraced ones, interleaved with the traced odd ones.
    covered, untraced_p50 = layers.coverage(
        trace, [(item.key, item.backend) for _, item in sent],
        [r.latency_s * 1e3 for r in records],
    )
    values.update(covered)
    selfs = layers.layer_self_mean(trace, range(1, len(records), 2))
    values.update(layers.engine_layers(
        layers.kernel_catalogs(inputs.catalogs), inputs.kinds + items.heavy_items(),
        inputs.seed,
    ))
    layers.dump(trace, "serve-hot", inputs.seed)
    attributed, check = layers.attribution_check(values)
    correct = all(checked) and attributed
    return correct, len(checked), checked.count(False), layers.per_layer(values), {
        "untraced_p50_ms": f"{untraced_p50:.3f}",
        "self_ms_mean": selfs,
        "attribution_check": check,
        "workload": f"serve-hot seed={inputs.seed} traced",
    }

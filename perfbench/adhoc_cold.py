"""``adhoc-cold``: one-shot queries, each a new AST, with interleaved writes.

An in-process closed loop (one thread) over the retail, social and
eventlog catalogs at ``small`` size.  Every request is a corpus text whose
range variables are renamed with a fresh seeded suffix, so the prepared
LRU and the per-node plan, probe and SQL-render caches all miss.  About a
quarter run on the planner, the rest on sqlite.  After every
``WRITE_EVERY``-th query a batch of rows is appended with ``Relation.add``
to a fact relation of the catalog just queried, which invalidates indexes,
fingerprints and the SQLite catalog.  Catalogs are rebuilt (outside the
timed window) every ``EPOCH`` queries so they stay near their stated size.

The k-th write to a catalog within an epoch always appends the same seeded
batch, so a catalog's state is named by ``(catalog, k)``.  Expected answers
are the nested-loop evaluator's answers for the original (unrenamed) text
on every state an epoch can reach, computed before the system is set up,
in a child process.
"""

import os

import common
import items
import layers
import mutate

SIZE = "small"
EPOCH = 200
WRITE_EVERY = 10
#: Set-ups per run (each ~0.1 s), spread evenly over the timed window so
#: they sample the same machine conditions as the queries; ``setup_s`` is
#: their median.
SETUP_REPEATS = 30


class Schedule:
    """The seeded, endless stream of renamed queries, and the write plan."""

    def __init__(self, seed):
        self.seed = seed
        self.texts = items.corpus_texts()
        self.base = {key: (catalog, frontend, text) for key, catalog, frontend, text, _ in self.texts}
        self._rng = common.rng_for(seed, "adhoc-queries")
        self._tag = "".join(self._rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(3))
        self.issued = 0
        pristine = items.corpus_catalogs(SIZE)
        writes = common.rng_for(seed, "adhoc-writes")
        #: catalog -> [(relation name, rows)], the k-th write of an epoch.
        self.plan = {}
        for catalog, db in pristine.items():
            batches = []
            for _ in range(EPOCH // WRITE_EVERY):
                relation, rows = items.write_batch(
                    db, writes.choice(items.writable_relations(catalog)), writes
                )
                batches.append((relation.name, rows))
            self.plan[catalog] = batches

    def next(self):
        key, catalog, frontend, text, _ = self._rng.choice(self.texts)
        backend = "planner" if self._rng.random() < items.PLANNER_SHARE else "sqlite"
        self.issued += 1
        renamed = mutate.rename(text, frontend, f"{self._tag}{self.issued}")
        return items.Item(key, catalog, renamed, frontend, backend, "corpus")


def fresh(seed):
    """Cold catalogs and one Session per catalog (sqlite default)."""
    from repro.api import EvalOptions, Session
    from repro.backends.exec import clear_catalog_cache
    from repro.core.conventions import SQL_CONVENTIONS

    clear_catalog_cache()
    catalogs = items.corpus_catalogs(SIZE)
    sessions = {
        name: Session(db, SQL_CONVENTIONS, options=EvalOptions(backend="sqlite"))
        for name, db in catalogs.items()
    }
    return catalogs, sessions


def setup(seed, oracle):
    """Set-up: build catalogs and sessions and run every base corpus text
    once per backend; ``(seconds, warm-up verdicts)``."""
    began = common.now()
    _, sessions = fresh(seed)
    answers = [
        (item, sessions[item.catalog].prepare(item.text, item.frontend).run(item.backend))
        for item in items.corpus_items()
    ]
    took = common.now() - began
    return took, [
        common.normalize_result(result) == oracle.expected(item.key, 0)
        for item, result in answers
    ]


def measure(schedule, oracle, seconds, trace=None, setups=None):
    """Closed loop until *seconds* of query and write time have passed:
    ``(per-query seconds, verdicts, timed seconds, query kinds)``.

    Each answer is checked right away, outside the timed window, so no
    result outlives its check.  With a *setups* list, a timed
    :func:`setup` runs at the start of an epoch whenever the timed window
    has passed its next ``1 / SETUP_REPEATS`` share; its time goes to
    *setups* and its warm-up verdicts to the returned verdicts.
    """
    from repro.errors import ArcError

    services, verdicts, kinds, timed = [], [], [], 0.0
    while timed < seconds:
        catalogs = sessions = None  # one system at a time
        if setups is not None and timed >= len(setups) * seconds / SETUP_REPEATS:
            took, warm = setup(schedule.seed, oracle)
            setups.append(took)
            verdicts += warm
        catalogs, sessions = fresh(schedule.seed)
        written = dict.fromkeys(catalogs, 0)
        for position in range(EPOCH):
            item = schedule.next()
            state = written[item.catalog]
            with layers.traced_if_odd(trace, len(services)) as active:
                call = _run if active is None else active.wrap("request", _run)
                start = common.now()
                try:
                    outcome = call(sessions[item.catalog], item)
                except ArcError as exc:
                    outcome = exc
                took = common.now() - start
            if position % WRITE_EVERY == WRITE_EVERY - 1:
                began = common.now()
                name, rows = schedule.plan[item.catalog][state]
                relation = catalogs[item.catalog][name]
                for row in rows:
                    relation.add(row)
                written[item.catalog] += 1
                timed += common.now() - began
            services.append(took)
            kinds.append((item.key, item.backend))
            timed += took
            verdicts.append(
                not isinstance(outcome, Exception)
                and common.normalize_result(outcome) == oracle.expected(item.key, state)
            )
            if timed >= seconds:
                break
    return services, verdicts, timed, kinds


def _run(session, item):
    return session.prepare(item.text, item.frontend).run(item.backend)


def oracle_answers(seed):
    """Nested-loop answers for every base text on every catalog state an
    epoch can reach: ``{(key, k): answer}`` before the k-th write."""
    schedule = Schedule(seed)
    answers = {}
    for catalog, db in items.corpus_catalogs(SIZE).items():
        texts = [
            (key, frontend, text)
            for key, (home, frontend, text) in schedule.base.items() if home == catalog
        ]
        for state, (name, rows) in enumerate(schedule.plan[catalog]):
            session = common.oracle_session(db)
            for key, frontend, text in texts:
                result = session.prepare(text, frontend).run()
                answers[key, state] = common.normalize_result(result)
            for row in rows:
                db[name].add(row)
    return answers


class Oracle:
    """Expected answers per ``(base text, catalog state)``."""

    def __init__(self, seed):
        self._answers = common.in_child(oracle_answers, seed)

    def expected(self, key, written):
        return self._answers[key, written]


def run(seed, seconds, trace):
    schedule = Schedule(seed)
    oracle = Oracle(seed)
    if trace:
        return _traced(seed, seconds, schedule, oracle)
    common.reset_rss_peak()
    setups = []
    services, verdicts, loop_s, _ = measure(schedule, oracle, seconds, setups=setups)
    rss_mb = common.pid_rss_peak_mb(os.getpid())
    latencies = [s * 1e3 for s in services]
    metrics = layers.end_to_end(setups, latencies, len(services) / loop_s, rss_mb)
    details = layers.details(
        "adhoc-cold", verdicts.count(False), len(verdicts), latencies,
        seed=seed, timed_s=f"{loop_s:.3f}",
    )
    return all(verdicts), len(verdicts), verdicts.count(False), metrics, details


def _traced(seed, seconds, schedule, oracle):
    _, warm = setup(seed, oracle)
    trace = common.Trace()
    services, checked, timed, kinds = measure(schedule, oracle, seconds, trace)
    values, untraced_p50 = layers.coverage(trace, kinds, [s * 1e3 for s in services])
    selfs = layers.layer_self_mean(trace, range(1, len(services), 2))
    verdicts = warm + checked

    # The served catalogs take no writes: every answer is the state-0 one.
    rate = layers.replay_rate(len(services) / timed)
    replayed = int(rate * layers.REPLAY_S)
    pooled, pool_s = layers.pool_layer(
        items.corpus_catalogs(SIZE), [schedule.next() for _ in range(replayed)], rate
    )
    values.update(pooled)
    stream = [schedule.next() for _ in range(replayed)]
    served, records = layers.serve_layer(
        items.corpus_catalogs(SIZE), stream, rate, pool_s, trace, len(services)
    )
    values.update(served)
    verdicts += [
        common.check_response(record, oracle.expected(item.key, 0))
        for record, item in zip(records, stream)
    ]
    values.update(layers.engine_layers(
        layers.kernel_catalogs(items.corpus_catalogs(SIZE)),
        items.corpus_items() + items.heavy_items(), seed,
    ))
    layers.dump(trace, "adhoc-cold", seed)
    attributed, check = layers.attribution_check(values)
    correct = all(verdicts) and attributed
    return correct, len(verdicts), verdicts.count(False), layers.per_layer(values), {
        "untraced_p50_ms": f"{untraced_p50:.4f}",
        "self_ms_mean": selfs,
        "attribution_check": check,
        "workload": f"adhoc-cold seed={seed} traced",
    }

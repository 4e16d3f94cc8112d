"""``analytic``: warm, prepared heavy queries where engine kernels dominate.

An in-process closed loop (one thread).  Each round runs the three heavy
queries — the E29 width-4 γ∅ join-chain count, the eq15-shaped θ-band
sum and the Fig. 10 ancestor recursion — on both the planner and sqlite,
plus ``CORPUS_PER_ROUND`` corpus items at ``medium`` size (a seeded
rotation through all 118 text × backend pairs), in a seeded order.  Every
query is prepared and warmed during set-up, so every cache is warm and the
time is execution.  Only whole rounds are timed, so every run has the same
mix.
"""

import os

import common
import items
import layers

CORPUS_SIZE = "medium"
CORPUS_PER_ROUND = 5
#: Set-ups per run (each ~1 s), spread evenly over the timed window so
#: they sample the same machine conditions as the queries; ``setup_s`` is
#: their median.
SETUP_REPEATS = 7


def catalogs_for():
    catalogs = items.heavy_catalogs()
    catalogs.update(items.corpus_catalogs(CORPUS_SIZE))
    return catalogs


def expected_answers():
    """Every item's oracle answer (run in a child process, see
    :func:`common.in_child`)."""
    catalogs = catalogs_for()
    expected = items.heavy_oracles(catalogs)
    expected.update(items.corpus_oracles(catalogs, items.corpus_texts()))
    return expected


def setup(expected):
    """Build the catalogs, one Session per catalog, prepare every item and
    run it once; ``(prepared by item, seconds, warm-up verdicts)``."""
    from repro.api import EvalOptions, Session
    from repro.backends.exec import clear_catalog_cache
    from repro.core.conventions import SQL_CONVENTIONS

    clear_catalog_cache()
    began = common.now()
    catalogs = catalogs_for()
    sessions = {
        name: Session(db, SQL_CONVENTIONS, options=EvalOptions(backend="sqlite"))
        for name, db in catalogs.items()
    }
    prepared, answers = {}, []
    for item in items.heavy_items() + items.corpus_items():
        query = sessions[item.catalog].prepare(item.text, item.frontend)
        prepared[item.key, item.backend] = query
        answers.append((item, _run(query.run, item.backend)))
    took = common.now() - began
    return prepared, took, [
        _correct(result, expected[item.key]) for item, result in answers
    ]


def _run(call, backend):
    """*call(backend)*, or the ``ArcError`` it raised: a refusal is a
    failed query, not the end of the run."""
    from repro.errors import ArcError

    try:
        return call(backend)
    except ArcError as exc:
        return exc


def _correct(outcome, expected):
    return not isinstance(outcome, Exception) and common.normalize_result(outcome) == expected


class Rounds:
    """The seeded sequence of rounds."""

    def __init__(self, seed):
        self._rng = common.rng_for(seed, "analytic")
        self._corpus = items.corpus_items()
        self._rng.shuffle(self._corpus)
        self._heavy = items.heavy_items()
        self._next = 0

    def next(self):
        corpus = [
            self._corpus[(self._next + i) % len(self._corpus)]
            for i in range(CORPUS_PER_ROUND)
        ]
        self._next += CORPUS_PER_ROUND
        chosen = self._heavy + corpus
        self._rng.shuffle(chosen)
        return chosen


def measure(prepared, rounds, expected, seconds, trace=None, setups=None):
    """Whole rounds until *seconds* of query time have passed:
    ``(per-query seconds, verdicts, timed seconds, query kinds)``.

    With a *setups* list (and *prepared* None), a timed :func:`setup`
    replaces the system before a round whenever the timed window has
    passed its next ``1 / SETUP_REPEATS`` share; its time goes to
    *setups* and its warm-up verdicts to the returned verdicts.
    """
    services, verdicts, kinds, timed = [], [], [], 0.0
    while timed < seconds:
        if setups is not None and timed >= len(setups) * seconds / SETUP_REPEATS:
            prepared = None  # one system at a time
            prepared, took, warm = setup(expected)
            setups.append(took)
            verdicts += warm
        for item in rounds.next():
            query = prepared[item.key, item.backend]
            with layers.traced_if_odd(trace, len(services)) as active:
                call = query.run if active is None else active.wrap("request", query.run)
                start = common.now()
                outcome = _run(call, item.backend)
                took = common.now() - start
            services.append(took)
            kinds.append((item.key, item.backend))
            timed += took
            verdicts.append(_correct(outcome, expected[item.key]))
    return services, verdicts, timed, kinds


def run(seed, seconds, trace):
    expected = common.in_child(expected_answers)
    rounds = Rounds(seed)
    if trace:
        return _traced(seed, seconds, expected, rounds)
    common.reset_rss_peak()
    setups = []
    services, verdicts, timed, _ = measure(None, rounds, expected, seconds, setups=setups)
    rss_mb = common.pid_rss_peak_mb(os.getpid())
    latencies = [s * 1e3 for s in services]
    metrics = layers.end_to_end(setups, latencies, len(services) / timed, rss_mb)
    details = layers.details(
        "analytic", verdicts.count(False), len(verdicts), latencies,
        seed=seed, timed_s=f"{timed:.3f}",
    )
    return all(verdicts), len(verdicts), verdicts.count(False), metrics, details


def _traced(seed, seconds, expected, rounds):
    prepared, _, warm = setup(expected)
    trace = common.Trace()
    services, checked, timed, kinds = measure(prepared, rounds, expected, seconds, trace)
    values, untraced_p50 = layers.coverage(trace, kinds, [s * 1e3 for s in services])
    selfs = layers.layer_self_mean(trace, range(1, len(services), 2))
    verdicts = warm + checked

    # Serve the heavy catalogs and retail (four catalogs fit the server's
    # per-worker session LRU) and replay their share of the mix.
    catalogs = catalogs_for()
    served_names = ("chain", "theta", "recursion", "retail")
    mix = [item for item in items.heavy_items() + items.corpus_items()
           if item.catalog in served_names]
    rate = layers.replay_rate(len(services) / timed)
    rng = common.rng_for(seed, "analytic-http")
    replayed = int(rate * layers.REPLAY_S)
    pooled, pool_s = layers.pool_layer(
        catalogs, [rng.choice(mix) for _ in range(replayed)], rate
    )
    values.update(pooled)
    stream = [rng.choice(mix) for _ in range(replayed)]
    served, records = layers.serve_layer(
        {name: catalogs[name] for name in served_names}, stream, rate, pool_s, trace,
        len(services),
    )
    values.update(served)
    verdicts += [
        common.check_response(record, expected[item.key])
        for record, item in zip(records, stream)
    ]
    values.update(layers.engine_layers(
        catalogs, items.heavy_items() + items.corpus_items(), seed,
    ))
    layers.dump(trace, "analytic", seed)
    attributed, check = layers.attribution_check(values)
    correct = all(verdicts) and attributed
    return correct, len(verdicts), verdicts.count(False), layers.per_layer(values), {
        "untraced_p50_ms": f"{untraced_p50:.4f}",
        "self_ms_mean": selfs,
        "attribution_check": check,
        "workload": f"analytic seed={seed} traced",
    }

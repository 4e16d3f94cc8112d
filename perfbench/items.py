"""What ARQL-Bench queries: corpus texts, the heavy analytic queries, and
independent oracles for the heavy ones.

An :class:`Item` is one request: a catalog name, a query text in one
frontend, the backend to run it on, and a ``label`` that groups items for
per-layer metrics (``corpus``, ``chain``, ``theta``, ``recursion``).
"""

import json

import common
from repro.data import generators
from repro.workloads.scenarios import SCENARIOS

BACKENDS = ("sqlite", "planner")
#: Share of requests sent to the planner; the rest use sqlite.
PLANNER_SHARE = 0.25

#: E21/E29 width-4 γ∅ join-chain count.
CHAIN = (
    "{Q(ct) | ∃r0 ∈ R0, r1 ∈ R1, r2 ∈ R2, r3 ∈ R3, γ ∅"
    "[r0.B = r1.B ∧ r1.C = r2.C ∧ r2.D = r3.D ∧ Q.ct = count(*)]}"
)
#: The eq15-shaped θ-band sum: ``sweeps.theta_aggregate_query(op="<",
#: agg="sum")`` written as ARC text so it can also be sent over HTTP.
THETA = (
    "{Q(k, v) | ∃r ∈ R, x ∈ {X(v) | ∃s ∈ S, γ ∅"
    "[s.A < r.A ∧ X.v = sum(s.B)]}[Q.k = r.misc ∧ Q.v = x.v]}"
)
#: Fig. 10 / eq. (16): ancestors as one recursive collection.
RECURSION = (
    "{A(s, t) | ∃p ∈ P[A.s = p.s ∧ A.t = p.t] ∨ "
    "∃p ∈ P, a2 ∈ A[A.s = p.s ∧ p.t = a2.s ∧ A.t = a2.t]}"
)
CHAIN_ROWS, CHAIN_DOMAIN = 1000, 300
THETA_ROWS = 2000
TREE_NODES, TREE_EXTRA = 300, 100


class Item:
    __slots__ = ("key", "catalog", "text", "frontend", "backend", "label")

    def __init__(self, key, catalog, text, frontend, backend, label):
        self.key = key  # oracle key: the same answer for every backend
        self.catalog = catalog
        self.text = text
        self.frontend = frontend
        self.backend = backend
        self.label = label

    def body(self):
        """The ``POST /query`` JSON body (sqlite is the server default)."""
        request = {
            "query": self.text,
            "frontend": self.frontend,
            "catalog": self.catalog,
        }
        if self.backend != "sqlite":
            request["backend"] = self.backend
        return json.dumps(request).encode()


#: Catalog contents are part of a workload's definition and the same for
#: every run; the run seed varies the request stream, not the data.
CATALOG_SEED = 0


def corpus_catalogs(size):
    return {
        name: scenario.catalog(size=size, seed=CATALOG_SEED)
        for name, scenario in SCENARIOS.items()
    }


def corpus_texts():
    """``[(key, catalog, frontend, text, query)]`` — all 59 corpus texts."""
    texts = []
    for name, scenario in SCENARIOS.items():
        for query in scenario.queries():
            for frontend in query.frontends:
                key = f"{name}/{query.name}/{frontend}"
                texts.append((key, name, frontend, query.texts[frontend], query))
    return texts


def corpus_items():
    """Every corpus text on every backend."""
    return [
        Item(key, catalog, text, frontend, backend, "corpus")
        for key, catalog, frontend, text, _ in corpus_texts()
        for backend in BACKENDS
    ]


# -- the heavy analytic queries -------------------------------------------------


def heavy_catalogs():
    from repro.workloads import sweeps

    return {
        "chain": generators.chain_database(
            4, CHAIN_ROWS, domain=CHAIN_DOMAIN, seed=CATALOG_SEED
        ),
        "theta": sweeps.theta_sweep_database(
            THETA_ROWS, THETA_ROWS, band_domain=THETA_ROWS, seed=CATALOG_SEED
        ),
        "recursion": generators.parent_edges(
            TREE_NODES, seed=CATALOG_SEED, extra_edges=TREE_EXTRA
        ),
    }


def heavy_items():
    return [
        Item(label, label, text, "arc", backend, label)
        for label, text in (("chain", CHAIN), ("theta", THETA), ("recursion", RECURSION))
        for backend in BACKENDS
    ]


def heavy_oracles(catalogs):
    """Expected answers for the heavy queries, computed by plain Python
    (the nested-loop evaluator would need ~10^12 steps on the chain)."""
    return {
        "chain": _chain_count(catalogs["chain"]),
        "theta": _theta_sums(catalogs["theta"]),
        "recursion": _closure(catalogs["recursion"]),
    }


def _counts(relation, attr):
    counts = {}
    for row in relation:
        counts[row[attr]] = counts.get(row[attr], 0) + 1
    return counts


def _chain_count(db):
    # |R0 ⋈ R1 ⋈ R2 ⋈ R3| summed one join step at a time (bag semantics).
    by_b = _counts(db["R0"], "B")
    by_c = {}
    for row in db["R1"]:
        by_c[row["C"]] = by_c.get(row["C"], 0) + by_b.get(row["B"], 0)
    by_d = {}
    for row in db["R2"]:
        by_d[row["D"]] = by_d.get(row["D"], 0) + by_c.get(row["C"], 0)
    total = sum(by_d.get(row["D"], 0) for row in db["R3"])
    return ("rows", common.canonical_rows([(total,)]))


def _theta_sums(db):
    import bisect

    inner = sorted((row["A"], row["B"]) for row in db["S"])
    keys = [a for a, _ in inner]
    prefix = [0]
    for _, b in inner:
        prefix.append(prefix[-1] + b)
    rows = []
    for row in db["R"]:
        cut = bisect.bisect_left(keys, row["A"])
        rows.append((row["misc"], prefix[cut] if cut else None))
    return ("rows", common.canonical_rows(rows))


def _closure(db):
    children = {}
    for row in db["P"].iter_distinct():
        children.setdefault(row["s"], set()).add(row["t"])
    pairs = []
    for source in sorted(children):
        seen, stack = set(), list(children[source])
        while stack:
            node = stack.pop()
            if node not in seen:
                seen.add(node)
                stack.extend(children.get(node, ()))
        pairs.extend((source, target) for target in seen)
    return ("rows", common.canonical_rows(pairs))


def corpus_oracles(catalogs, texts):
    """Nested-loop reference answers for ``(key, catalog, frontend, text)``."""
    sessions = {name: common.oracle_session(db) for name, db in catalogs.items()}
    expected = {}
    for key, catalog, frontend, text, *_ in texts:
        expected[key] = common.normalize_result(
            sessions[catalog].prepare(text, frontend).run()
        )
    return expected


def writable_relations(catalog):
    """Fact relations the ad-hoc write batches append to."""
    return {
        "retail": ("Orders", "Item"),
        "social": ("Follows",),
        "eventlog": ("Event",),
    }[catalog]


def write_batch(database, relation_name, rng, rows=3):
    """*rows* new rows for *relation_name*, each value drawn from the
    relation's own column (types and NULL rates stay realistic)."""
    relation = database[relation_name]
    existing = list(relation.iter_distinct())
    schema = relation.schema
    return relation, [
        tuple(rng.choice(existing)[attr] for attr in schema) for _ in range(rows)
    ]


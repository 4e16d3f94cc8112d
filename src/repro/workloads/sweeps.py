"""Parameter sweeps for the scalability benchmarks (experiment E21).

A vision paper has no performance tables, but a reference implementation
needs a documented performance envelope: how evaluation cost grows with
relation size, join width, nesting depth, and query size, and how the
naive fixpoint scales with graph size.  These generators produce the
swept workloads; ``benchmarks/bench_e21_scalability.py`` runs them.
"""

from __future__ import annotations

import random

from ..core import builder as b
from ..core import nodes as n
from ..data import generators
from ..data.database import Database
from ..data.values import NULL


def join_chain_query(width, head_name="Q"):
    """An equi-join of *width* relations R0 ⋈ R1 ⋈ ... projected to one column."""
    bindings = [b.bind(f"r{i}", f"R{i}") for i in range(width)]
    conjuncts = [b.eq(b.attr2(head_name, "A"), b.attr2("r0", "A" if width else "A"))]
    db_attrs = []
    for i in range(width):
        left_attr = chr(ord("A") + (i % 26))
        db_attrs.append(left_attr)
    conjuncts = [b.eq(b.attr2(head_name, "out"), n.Attr("r0", db_attrs[0]))]
    for i in range(width - 1):
        shared = chr(ord("A") + ((i + 1) % 26))
        conjuncts.append(b.eq(n.Attr(f"r{i}", shared), n.Attr(f"r{i + 1}", shared)))
    return b.collection(head_name, ["out"], b.exists(bindings, b.conj(*conjuncts)))


def nested_negation_query(depth, head_name="Q"):
    """Alternating ¬∃ nesting of *depth* scopes over a single binary relation.

    Depth 4 with the Likes schema is exactly the unique-set query family
    (Fig. 17); higher depths stress scope handling.
    """
    innermost = b.eq(b.attr2(f"l{depth}", "b"), b.attr2(f"l{depth - 1}", "b"))
    formula = innermost
    for level in range(depth, 1, -1):
        formula = b.neg(
            b.exists(
                [b.bind(f"l{level}", "L")],
                b.conj(
                    b.eq(b.attr2(f"l{level}", "d"), b.attr2(f"l{level - 1}", "d")),
                    formula,
                ),
            )
        )
        innermost = formula
    return b.collection(
        head_name,
        ["d"],
        b.exists(
            [b.bind("l1", "L")],
            b.conj(b.eq(b.attr2(head_name, "d"), b.attr2("l1", "d")), formula),
        ),
    )


def grouped_aggregate_query(head_name="Q"):
    """The FIO grouped sum over R(A, B) used for size sweeps."""
    return b.collection(
        head_name,
        ["A", "sm"],
        b.exists(
            [b.bind("r", "R")],
            b.conj(
                b.eq(b.attr2(head_name, "A"), b.attr2("r", "A")),
                n.Comparison(n.Attr(head_name, "sm"), "=", b.sum_(b.attr2("r", "B"))),
            ),
            grouping=b.grouping(b.attr2("r", "A")),
        ),
    )


def lateral_query(head_name="Q"):
    """The correlated FOI sum (Fig. 13b shape) used for size sweeps."""
    inner = b.collection(
        "X",
        ["sm"],
        b.exists(
            [b.bind("s", "S")],
            b.conj(
                b.lt(b.attr2("s", "A"), b.attr2("r", "A")),
                n.Comparison(n.Attr("X", "sm"), "=", b.sum_(b.attr2("s", "B"))),
            ),
            grouping=b.grouping(),
        ),
    )
    return b.collection(
        head_name,
        ["A", "sm"],
        b.exists(
            [b.bind("r", "R"), n.Binding("x", inner)],
            b.conj(
                b.eq(b.attr2(head_name, "A"), b.attr2("r", "A")),
                b.eq(b.attr2(head_name, "sm"), b.attr2("x", "sm")),
            ),
        ),
    )


def correlated_aggregate_query(*, arity=1, agg="sum", grouped=False, head_name="Q"):
    """The equality-correlated FOI family the decorrelation pass targets.

    ``{Q(k, v[, g]) | ∃r ∈ R, x ∈ {X(v[, g]) | ∃s ∈ S, γ ∅|s.G
    [s.K0 = r.K0 ∧ … ∧ X.v = agg(s.B)]}[Q.k = r.K0 ∧ Q.v = x.v]}``

    *arity* picks how many key columns the correlation equates; *grouped*
    switches the inner scope from γ∅ (one row per outer row, empty groups
    included — the count-bug-sensitive shape) to γ s.G (zero-or-more rows
    per outer row).
    """
    key_attrs = [f"K{i}" for i in range(arity)]
    inner_conjuncts = [
        b.eq(b.attr2("s", key), b.attr2("r", key)) for key in key_attrs
    ]
    inner_conjuncts.append(
        n.Comparison(n.Attr("X", "v"), "=", b.agg(agg, b.attr2("s", "B")))
    )
    inner_attrs = ["v"]
    if grouped:
        inner_conjuncts.append(b.eq(b.attr2("X", "g"), b.attr2("s", "G")))
        inner_attrs.append("g")
        inner_grouping = b.grouping(b.attr2("s", "G"))
    else:
        inner_grouping = b.grouping()
    inner = b.collection(
        "X",
        inner_attrs,
        b.exists([b.bind("s", "S")], b.conj(*inner_conjuncts), grouping=inner_grouping),
    )
    outer_conjuncts = [
        b.eq(b.attr2(head_name, "k"), b.attr2("r", key_attrs[0])),
        b.eq(b.attr2(head_name, "v"), b.attr2("x", "v")),
    ]
    head_attrs = ["k", "v"]
    if grouped:
        outer_conjuncts.append(b.eq(b.attr2(head_name, "g"), b.attr2("x", "g")))
        head_attrs.append("g")
    return b.collection(
        head_name,
        head_attrs,
        b.exists(
            [b.bind("r", "R"), n.Binding("x", inner)], b.conj(*outer_conjuncts)
        ),
    )


def correlated_join_aggregate_query(head_name="Q"):
    """The eq10-shaped FOI: the correlated inner scope *joins* S ⋈ T before
    aggregating.  Per-row re-evaluation repeats the join for every outer
    row (quadratic in practice); decorrelation runs it once — this is the
    E25 sweep's headline case.
    """
    inner = b.collection(
        "X",
        ["v"],
        b.exists(
            [b.bind("s", "S"), b.bind("t", "T")],
            b.conj(
                b.eq(b.attr2("s", "K0"), b.attr2("r", "K0")),
                b.eq(b.attr2("s", "G"), b.attr2("t", "G")),
                n.Comparison(n.Attr("X", "v"), "=", b.sum_(b.attr2("t", "B"))),
            ),
            grouping=b.grouping(),
        ),
    )
    return b.collection(
        head_name,
        ["k", "v"],
        b.exists(
            [b.bind("r", "R"), n.Binding("x", inner)],
            b.conj(
                b.eq(b.attr2(head_name, "k"), b.attr2("r", "K0")),
                b.eq(b.attr2(head_name, "v"), b.attr2("x", "v")),
            ),
        ),
    )


def theta_aggregate_query(*, op="<", agg="sum", eq_arity=0, head_name="Q"):
    """The eq15-shaped θ-correlated FOI family the band indexes target.

    ``{Q(k, v) | ∃r ∈ R, x ∈ {X(v) | ∃s ∈ S, γ ∅
    [(s.K0 = r.K0 ∧ …)? ∧ s.A op r.A ∧ X.v = agg(s.B)]}
    [Q.k = r.misc ∧ Q.v = x.v]}``

    *op* is the correlation's order predicate; *eq_arity* adds equality
    keys alongside it (bucketed band indexes); ``agg="count(*)"`` counts
    rows instead of ``s.B`` values.  ``Q.k = r.misc`` keys the output per
    outer row, so every probe result is observable.
    """
    key_attrs = [f"K{i}" for i in range(eq_arity)]
    inner_conjuncts = [
        b.eq(b.attr2("s", key), b.attr2("r", key)) for key in key_attrs
    ]
    inner_conjuncts.append(
        n.Comparison(n.Attr("s", "A"), op, n.Attr("r", "A"))
    )
    call = b.count() if agg == "count(*)" else b.agg(agg, b.attr2("s", "B"))
    inner_conjuncts.append(n.Comparison(n.Attr("X", "v"), "=", call))
    inner = b.collection(
        "X",
        ["v"],
        b.exists([b.bind("s", "S")], b.conj(*inner_conjuncts), grouping=b.grouping()),
    )
    return b.collection(
        head_name,
        ["k", "v"],
        b.exists(
            [b.bind("r", "R"), n.Binding("x", inner)],
            b.conj(
                b.eq(b.attr2(head_name, "k"), b.attr2("r", "misc")),
                b.eq(b.attr2(head_name, "v"), b.attr2("x", "v")),
            ),
        ),
    )


def theta_rows_query(*, op="<", head_name="Q"):
    """The eq2-shaped non-grouped θ-correlated lateral (sorted-slice probes).

    ``{Q(k, B) | ∃r ∈ R, z ∈ {Z(B) | ∃s ∈ S[Z.B = s.B ∧ s.A op r.A]}
    [Q.k = r.misc ∧ Q.B = z.B]}``
    """
    inner = b.collection(
        "Z",
        ["B"],
        b.exists(
            [b.bind("s", "S")],
            b.conj(
                b.eq(b.attr2("Z", "B"), b.attr2("s", "B")),
                n.Comparison(n.Attr("s", "A"), op, n.Attr("r", "A")),
            ),
        ),
    )
    return b.collection(
        head_name,
        ["k", "B"],
        b.exists(
            [b.bind("r", "R"), n.Binding("z", inner)],
            b.conj(
                b.eq(b.attr2(head_name, "k"), b.attr2("r", "misc")),
                b.eq(b.attr2(head_name, "B"), b.attr2("z", "B")),
            ),
        ),
    )


def theta_join_aggregate_query(*, op="<", head_name="Q"):
    """The θ analogue of the eq10 join inner: S ⋈ T re-joined per outer
    row under FOI, joined **once** under the band index — the honest θ
    cost model and the E27 sweep's headline case.
    """
    inner = b.collection(
        "X",
        ["v"],
        b.exists(
            [b.bind("s", "S"), b.bind("t", "T")],
            b.conj(
                b.eq(b.attr2("s", "G"), b.attr2("t", "G")),
                n.Comparison(n.Attr("s", "A"), op, n.Attr("r", "A")),
                n.Comparison(n.Attr("X", "v"), "=", b.sum_(b.attr2("t", "B"))),
            ),
            grouping=b.grouping(),
        ),
    )
    return b.collection(
        head_name,
        ["k", "v"],
        b.exists(
            [b.bind("r", "R"), n.Binding("x", inner)],
            b.conj(
                b.eq(b.attr2(head_name, "k"), b.attr2("r", "misc")),
                b.eq(b.attr2(head_name, "v"), b.attr2("x", "v")),
            ),
        ),
    )


def theta_sweep_database(
    n_outer,
    n_inner,
    *,
    eq_arity=0,
    domain=6,
    band_domain=None,
    seed=0,
    null_rate=0.0,
    null_band_rate=0.0,
    with_join=False,
):
    """R(K.., A, misc) and S(K.., A, B) (+ T(G, B)) for the θ family.

    *band_domain* spreads the order-correlated column; *null_rate* plants
    NULLs in the equality-key columns (the tri-bucket case) and
    *null_band_rate* in the order-correlated column.  ``with_join`` adds
    the T relation for :func:`theta_join_aggregate_query` (S gains a G
    column).
    """
    rng = random.Random(seed)
    band_domain = band_domain or max(8, n_inner // 2)
    key_attrs = [f"K{i}" for i in range(eq_arity)]

    def key_value():
        if null_rate and rng.random() < null_rate:
            return NULL
        return rng.randrange(domain)

    def band_value():
        if null_band_rate and rng.random() < null_band_rate:
            return NULL
        return rng.randrange(band_domain)

    db = Database()
    db.create(
        "R",
        (*key_attrs, "A", "misc"),
        [
            tuple(key_value() for _ in key_attrs) + (band_value(), i)
            for i in range(n_outer)
        ],
    )
    s_schema = (*key_attrs, "A") + (("G",) if with_join else ()) + ("B",)
    db.create(
        "S",
        s_schema,
        [
            tuple(key_value() for _ in key_attrs)
            + (band_value(),)
            + ((rng.randrange(8),) if with_join else ())
            + (rng.randrange(50),)
            for _ in range(n_inner)
        ],
    )
    if with_join:
        db.create(
            "T",
            ("G", "B"),
            [(i % 8, rng.randrange(50)) for i in range(64)],
        )
    return db


def correlated_join_database(n_rows, *, domain=None, seed=0):
    """R(K0, misc), S(K0, G, B), T(G, B) for the E25 join sweep."""
    domain = domain or max(4, n_rows // 20)
    rng = random.Random(seed)
    db = Database()
    db.create(
        "R", ("K0", "misc"), [(i % domain, i) for i in range(n_rows)]
    )
    db.create(
        "S",
        ("K0", "G", "B"),
        [
            (rng.randrange(domain), rng.randrange(8), rng.randrange(50))
            for _ in range(n_rows)
        ],
    )
    db.create(
        "T",
        ("G", "B"),
        [(i % 8, rng.randrange(50)) for i in range(64)],
    )
    return db


def correlated_sweep_database(
    n_outer,
    n_inner,
    *,
    arity=1,
    domain=6,
    seed=0,
    miss_rate=0.25,
    null_rate=0.0,
):
    """R(K0.., misc) and S(K0.., G, B) for the correlated-lateral family.

    *miss_rate* sends some outer keys outside the inner domain, so γ∅
    scopes exercise the empty-group (probe-miss) path; *null_rate* plants
    NULLs in the key columns, the case the 3VL decorrelation probe refuses.
    """
    rng = random.Random(seed)
    key_attrs = [f"K{i}" for i in range(arity)]

    def key_value(miss_ok):
        if null_rate and rng.random() < null_rate:
            return NULL
        if miss_ok and rng.random() < miss_rate:
            return domain + rng.randrange(domain)  # outside the inner domain
        return rng.randrange(domain)

    db = Database()
    db.create(
        "R",
        (*key_attrs, "misc"),
        [
            tuple(key_value(True) for _ in key_attrs) + (i,)
            for i in range(n_outer)
        ],
    )
    db.create(
        "S",
        (*key_attrs, "G", "B"),
        [
            tuple(key_value(False) for _ in key_attrs)
            + (rng.randrange(3), rng.randrange(50))
            for _ in range(n_inner)
        ],
    )
    return db


def size_sweep_database(n_rows, *, domain=None, seed=0):
    """R(A, B) and S(A, B) with *n_rows* each over a proportional domain."""
    domain = domain or max(4, n_rows // 4)
    db = Database()
    db.add(generators.binary_relation("R", n_rows, domain=domain, seed=seed))
    db.add(generators.binary_relation("S", n_rows, domain=domain, seed=seed + 1))
    return db


def deep_query_text(depth):
    """Comprehension text with *depth* nested lateral collections (parser sweep)."""
    inner = "{X0(v) | ∃s0 ∈ S[X0.v = s0.B]}"
    for level in range(1, depth):
        inner = (
            f"{{X{level}(v) | ∃s{level} ∈ S, w{level} ∈ {inner}"
            f"[X{level}.v = s{level}.B ∧ w{level}.v <= s{level}.B]}}"
        )
    return f"{{Q(v) | ∃r ∈ R, w ∈ {inner}[Q.v = w.v]}}"


def wide_query_text(n_predicates):
    """Comprehension text with *n_predicates* conjuncts (parser sweep)."""
    predicates = " ∧ ".join(
        [f"Q.A = r.A"] + [f"r.B <> {i}" for i in range(n_predicates)]
    )
    return f"{{Q(A) | ∃r ∈ R[{predicates}]}}"

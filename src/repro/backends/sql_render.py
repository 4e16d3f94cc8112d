"""Rendering ARC back into executable SQL text.

The inverse direction of the paper's planned ``SQL ↔ ARC`` translator
(Section 5): every ARC construct maps onto its SQL encoding —

* bindings become FROM items; nested collections become ``JOIN LATERAL``
  derived tables (the paper's canonical encoding of body nesting, Fig. 3a);
* join annotations become INNER/LEFT/FULL JOIN syntax, re-materializing the
  literal-leaf device as ON conjuncts (Fig. 12);
* plain assignments become select items; aggregation assignments become
  aggregate select items with GROUP BY; aggregation comparisons become
  HAVING;
* boolean quantifiers become EXISTS subqueries; a boolean ``γ∅`` scope with
  a single aggregation comparison becomes a correlated scalar subquery
  (Fig. 21a); negation becomes NOT EXISTS;
* top-level disjunction becomes UNION ALL; deduplicating grouping becomes
  SELECT DISTINCT; recursion becomes WITH RECURSIVE, with the recursive
  disjuncts joined by set-based UNION — the engine's fixpoint materializes
  recursive relations under set semantics (Section 2.9), and UNION is what
  makes the SQL iteration terminate on cyclic data.

Derived tables carry the ``lateral`` keyword only when the nested collection
actually references outer bindings; uncorrelated subqueries render as plain
parenthesized FROM items, which keeps them inside the fragment engines
without LATERAL support (e.g. SQLite) can execute.  A correlated γ∅ scope
whose head is aggregate-only is not rendered as a FROM item at all: it is
inlined as per-attribute *correlated scalar subqueries* (the paper's
Fig. 5a/13a device, :func:`scalar_subquery_shape`) — a γ∅ scope emits
exactly one row per outer row, which is precisely a scalar subquery's
contract (including ``count`` over an empty group, where the group-by
rewrite would hit the count bug).  The device is operator-agnostic: for
readers, an eq15-shaped θ correlation (``s.a < r.a``) renders as the same
FOI scalar subquery with the inequality in its WHERE clause.  On the
execution path the FOI → FIO pass (:mod:`repro.engine.decorrelate`) marks
such γ∅ θ bands as :class:`~repro.engine.decorrelate.BandSweep` bindings,
which render in FIO form: one ``materialized`` CTE per band runs a sorted
window sweep (``agg(arg) OVER (PARTITION BY keys ORDER BY band, kind ROWS
UNBOUNDED PRECEDING)``) over the distinct outer (keys, band) values and
the inner rows, and each outer row reads its aggregate through an
equality probe that SQLite serves from an automatic index — one pass
instead of one inner scan per outer row.  The same pass turns non-grouped
θ laterals that resist unnesting into uncorrelated derived tables joined
back through the projected band key with the original inequality.
Together these keep every equality-, θ-, or aggregate-correlated paper
workload executable on engines without LATERAL.

The produced text parses back through :mod:`repro.frontends.sql` for the
non-recursive fragment, enabling round-trip testing, and executes on the
SQLite offload backend (:mod:`repro.backends.exec.sqlite_exec`).
"""

from __future__ import annotations

from ..core import nodes as n
from ..core.scopes import (  # noqa: F401  (re-exported for compatibility)
    assignment_of,
    free_variables,
    scalar_subquery_shape,
    shadows_binding,
    split_scope,
)
from ..data.values import is_null
from ..engine.decorrelate import BandSweep, analyze, sweep_domain
from ..errors import RewriteError


def _indent(text, width):
    """Indent every line of *text* but the first by *width* spaces."""
    return ("\n" + " " * width).join(text.splitlines())


def to_sql(node, *, pretty=True):
    """Render an ARC Collection, Sentence, or Program as SQL text."""
    renderer = _SqlRenderer(node)
    ctes, recursive = [], False
    if isinstance(node, n.Program):
        ctes, recursive, sql = renderer.render_program(node)
    elif isinstance(node, n.Collection):
        sql = renderer.render_collection(node)
    elif isinstance(node, n.Sentence):
        sql = renderer.render_sentence(node)
    else:
        raise RewriteError(f"cannot render {type(node).__name__} as SQL")
    # Sweeps read stored relations only, so they may precede definitions.
    ctes = renderer.sweeps + ctes
    if not ctes:
        return sql
    keyword = "with recursive" if recursive else "with"
    return f"{keyword} " + ",\n".join(ctes) + f"\n{sql}"


def scalar_inlinable(quant, binding):
    """Why the renderer will NOT inline *binding* as scalar subqueries.

    Returns None when it will.  This is the renderer's own decision
    procedure, shared with the SQLite capability probe
    (:mod:`repro.engine.decorrelate`) so the probe never promises native
    execution for a shape the renderer still emits as LATERAL.
    """
    reason = scalar_subquery_shape(binding.source)
    if reason is not None:
        return reason
    if shadows_binding(quant, binding):
        return f"the variable {binding.var!r} is rebound in the scope"
    if quant.join is not None:
        from ..engine.joins import annotation_vars

        if binding.var in annotation_vars(quant.join):
            return "the binding is an operand of a join annotation"
    return None


class _SqlRenderer:
    def __init__(self, root):
        self._root = root
        #: Active scalar-subquery substitutions: (var, attr) -> SQL text.
        self._scalar = {}
        #: ``name as materialized (...)`` CTEs of the rendered band sweeps.
        self.sweeps = []
        self._taken = None  # lowercased names the CTE names must avoid

    # -- programs ------------------------------------------------------------

    def render_program(self, program):
        """``(definition CTEs, recursive?, main select)`` of *program*."""
        if not program.definitions:
            return [], False, self.render_collection(program.resolve_main())
        ctes = []
        recursive = False
        for name, definition in program.definitions.items():
            is_recursive = self._is_recursive(name, definition)
            recursive = recursive or is_recursive
            attrs = ", ".join(definition.head.attrs)
            # Recursive definitions iterate to a *set-based* least fixpoint
            # (Section 2.9), so their disjuncts are joined by UNION — which
            # also makes the SQL recursion terminate on cyclic inputs.
            body = self.render_collection(definition, set_union=is_recursive)
            ctes.append(f"{name}({attrs}) as (\n{body}\n)")
        main = program.resolve_main()
        if isinstance(program.main, str):
            main_sql = f"select * from {program.main}"
        elif isinstance(main, n.Sentence):
            main_sql = self.render_sentence(main)
        else:
            main_sql = self.render_collection(main)
        return ctes, recursive, main_sql

    @staticmethod
    def _is_recursive(name, definition):
        return any(
            isinstance(node, n.RelationRef) and node.name == name
            for node in definition.walk()
        )

    # -- collections ------------------------------------------------------------

    def render_collection(self, coll, *, set_union=False):
        head = coll.head
        disjuncts = (
            coll.body.children_list if isinstance(coll.body, n.Or) else [coll.body]
        )
        selects = []
        for disjunct in disjuncts:
            if not isinstance(disjunct, n.Quantifier):
                raise RewriteError(
                    "only quantifier bodies can be rendered as SQL selects "
                    f"(got {type(disjunct).__name__})"
                )
            selects.append(self._render_quantifier_select(head, disjunct))
        separator = "\nunion\n" if set_union else "\nunion all\n"
        return separator.join(selects)

    def _render_quantifier_select(self, head, quant):
        parts = self._split_scope(head, quant)
        (assignments, agg_assignments, agg_comparisons, row_formulas) = parts

        eliminated, substitutions = self._scalar_eliminated(quant)
        saved = self._scalar
        if substitutions:
            self._scalar = {**saved, **substitutions}
        try:
            return self._render_select_body(
                head, quant, parts, eliminated
            )
        finally:
            self._scalar = saved

    def _render_select_body(self, head, quant, parts, eliminated):
        (assignments, agg_assignments, agg_comparisons, row_formulas) = parts

        from_sql, on_consumed = self._render_from(quant, skip=eliminated)
        where = [
            self._render_formula(f)
            for f in row_formulas
            if id(f) not in on_consumed
        ]

        select_items = []
        for attr in head.attrs:
            expr = dict(assignments + agg_assignments).get(attr)
            if expr is None:
                raise RewriteError(
                    f"head attribute {attr!r} has no assignment predicate"
                )
            select_items.append(f"{self._render_expr(expr)} as {attr}")

        grouping = quant.grouping
        distinct = ""
        group_by = ""
        having = ""
        if grouping is not None:
            has_aggs = bool(agg_assignments or agg_comparisons)
            if not has_aggs:
                # Pure deduplication: grouping on all projected expressions.
                assigned = {self._render_expr(e) for _, e in assignments}
                keys = {self._render_expr(k) for k in grouping.keys}
                if keys == assigned:
                    distinct = "distinct "
                else:
                    group_by = "\ngroup by " + ", ".join(
                        self._render_expr(k) for k in grouping.keys
                    )
            elif grouping.keys:
                group_by = "\ngroup by " + ", ".join(
                    self._render_expr(k) for k in grouping.keys
                )
            if agg_comparisons:
                having = "\nhaving " + " and ".join(
                    self._render_formula(f) for f in agg_comparisons
                )

        sql = f"select {distinct}" + ", ".join(select_items)
        if from_sql:
            sql += f"\nfrom {from_sql}"
        if where:
            sql += "\nwhere " + " and ".join(where)
        sql += group_by + having
        return sql

    # -- correlated scalar subqueries -----------------------------------------

    def _scalar_eliminated(self, quant):
        """Bindings inlined as scalar subqueries: (ids to skip, substitutions).

        A correlated γ∅ aggregate-only collection emits exactly one row per
        outer environment, so each head attribute renders as a correlated
        scalar subquery (Fig. 5a/13a) instead of a LATERAL FROM item.
        Bindings are processed in scope order with the substitutions
        installed progressively, so a later inlined binding referencing an
        earlier one renders the reference as a *nested* scalar subquery
        instead of naming an alias that was eliminated from FROM.
        """
        eliminated = set()
        substitutions = {}
        saved = self._scalar
        try:
            for binding in quant.bindings:
                source = binding.source
                if not isinstance(source, n.Collection) or not free_variables(
                    source
                ):
                    continue
                if scalar_inlinable(quant, binding) is not None:
                    continue
                self._scalar = {**saved, **substitutions}
                if isinstance(source, BandSweep):
                    substitutions.update(self._render_sweep_probes(quant, binding))
                else:
                    for attr in source.head.attrs:
                        substitutions[(binding.var, attr)] = (
                            self._render_scalar_subquery(source, attr)
                        )
                eliminated.add(id(binding))
        finally:
            self._scalar = saved
        return eliminated, substitutions

    def _render_scalar_subquery(self, source, attr):
        body = source.body
        parts = self._split_scope(source.head, body)
        _, agg_assignments, _, row_formulas = parts
        expr = dict(agg_assignments)[attr]
        from_sql, consumed = self._render_from(body)
        where = [
            self._render_formula(f)
            for f in row_formulas
            if id(f) not in consumed
        ]
        sub = f"select {self._render_expr(expr)}"
        if from_sql:
            sub += f"\nfrom {from_sql}"
        if where:
            sub += "\nwhere " + " and ".join(where)
        indented = "\n   ".join(sub.splitlines())
        return f"(\n   {indented})"

    # -- γ∅ θ-band sweeps -------------------------------------------------------

    def _render_sweep_probes(self, quant, binding):
        """Equality probes into the sweep CTE: ``{(var, attr): SQL text}``.

        The sweep (FIO) holds one row per distinct outer (keys, band) value
        with every aggregate already folded, so each outer row reads its
        value with an equality lookup, which SQLite serves from an automatic
        index on the materialized CTE.  A NULL outer key or band matches no
        row: the scalar is NULL, and ``count`` is coalesced to 0.
        """
        spec = analyze(binding.source)
        name, columns = self._sweep_cte(quant, binding, spec)
        where = " and ".join(
            f"{name}.{col} = {self._render_expr(outer)}"
            for col, outer in zip(
                columns, (*spec.outer_exprs, spec.band_outer_expr)
            )
        )
        probes = {}
        for attr, func, _ in spec.band_aggs:
            probe = f"(\n   select {name}.{attr}\n   from {name}\n   where {where})"
            if func == "count":
                probe = f"coalesce({probe}, 0)"
            probes[(binding.var, attr)] = probe
        return probes

    def _sweep_cte(self, quant, binding, spec):
        """Register the sweep CTE for *binding*: ``(name, probe columns)``.

        ``agg(arg) OVER (PARTITION BY keys ORDER BY band, kind ROWS
        UNBOUNDED PRECEDING)`` over the distinct outer (keys, band) values
        ``UNION ALL`` the inner rows whose keys and band are not NULL.  The
        outer rows carry NULL arguments, so each one's running aggregate
        folds exactly the inner rows that sort before it: ``kind`` puts the
        outer rows first among equal bands for the strict ``<``/``>`` and
        last for ``<=``/``>=``, and ``>``/``>=`` sort descending.
        """
        taken = set(spec.head_attrs) | set(spec.key_attrs)

        def fresh(stem):
            counter = 0
            while f"{stem}{counter}" in taken:
                counter += 1
            taken.add(f"{stem}{counter}")
            return f"{stem}{counter}"

        band_col, kind_col = fresh("_cb"), fresh("_ct")
        arg_cols = [fresh("_ca") for _ in spec.band_aggs]
        columns = (*spec.key_attrs, band_col)
        outer_exprs = (*spec.outer_exprs, spec.band_outer_expr)
        inner_exprs = (*spec.key_inner_exprs, spec.band_inner_expr)
        outer_kind = 0 if spec.band_op in ("<", ">") else 2
        bindings, rows = spec.stripped
        saved = self._scalar
        self._scalar = {}  # the CTE is rendered at the top of the statement
        try:
            outer_items = [
                f"{self._render_expr(expr)} as {col}"
                for col, expr in zip(columns, outer_exprs)
            ]
            outer_items.append(f"{outer_kind} as {kind_col}")
            outer_items += [f"null as {col}" for col in arg_cols]
            outer_sql = (
                f"select distinct {', '.join(outer_items)}\n"
                f"from {self._render_binding(sweep_domain(quant, binding))}\n"
                "where " + " and ".join(
                    f"{self._render_expr(expr)} is not null" for expr in outer_exprs
                )
            )
            inner_items = [self._render_expr(expr) for expr in inner_exprs]
            inner_items.append("1")
            inner_items += [
                "1" if arg is None else self._render_expr(arg)
                for _, _, arg in spec.band_aggs
            ]
            from_sql, _ = self._render_from(n.Quantifier(list(bindings)))
            where = [self._render_formula(row) for row in rows]
            where += [f"{self._render_expr(expr)} is not null" for expr in inner_exprs]
            inner_sql = (
                f"select {', '.join(inner_items)}\nfrom {from_sql}\n"
                "where " + " and ".join(where)
            )
        finally:
            self._scalar = saved

        partition = (
            f"partition by {', '.join(spec.key_attrs)} " if spec.key_attrs else ""
        )
        descending = " desc" if spec.band_op in (">", ">=") else ""
        folds = ", ".join(
            f"{func}({col}) over _w as {attr}"
            for (attr, func, _), col in zip(spec.band_aggs, arg_cols)
        )
        union = _indent(f"{outer_sql}\nunion all\n{inner_sql}", 3)
        sweep = (
            f"select {', '.join(columns)}, {kind_col}, {folds}\n"
            f"from (\n   {union})\n"
            f"window _w as ({partition}order by {band_col}{descending}, "
            f"{kind_col} rows unbounded preceding)"
        )
        attrs = ", ".join(attr for attr, _, _ in spec.band_aggs)
        name = self._fresh_cte_name()
        self.sweeps.append(
            f"{name} as materialized (\n"
            f"   select {', '.join(columns)}, {attrs}\n"
            f"   from (\n      {_indent(sweep, 6)})\n"
            f"   where {kind_col} <> 1\n)"
        )
        return name, columns

    def _fresh_cte_name(self):
        """A CTE name no relation, variable or head in the statement uses."""
        if self._taken is None:
            self._taken = set()
            for sub in self._root.walk():
                if isinstance(sub, n.RelationRef):
                    self._taken.add(sub.name.lower())
                elif isinstance(sub, n.Binding):
                    self._taken.add(sub.var.lower())
                elif isinstance(sub, n.Head):
                    self._taken.add(sub.name.lower())
        counter = len(self.sweeps)
        while f"_sweep{counter}" in self._taken:
            counter += 1
        self._taken.add(f"_sweep{counter}")
        return f"_sweep{counter}"

    @staticmethod
    def _split_scope(head, quant):
        return split_scope(head, quant)

    @staticmethod
    def _assignment_of(predicate, head):
        return assignment_of(predicate, head)

    # -- FROM / joins -----------------------------------------------------------------

    def _render_from(self, quant, skip=frozenset()):
        """Render the FROM clause; returns (sql, ids of consumed conjuncts).

        *skip* holds ids of bindings inlined as scalar subqueries (they are
        not FROM items); an empty FROM renders as "" (a one-row select).
        """
        bindings = {b.var: b for b in quant.bindings}
        consumed = set()
        if quant.join is None:
            items = [
                self._render_binding(b) for b in quant.bindings if id(b) not in skip
            ]
            return ",\n     ".join(items), consumed

        from ..engine.joins import ConditionAssignment, annotation_vars

        row_formulas = [
            c
            for c in n.conjuncts(quant.body)
            if not (isinstance(c, n.Comparison) and c.has_aggregate())
            and self._assignment_of_any(c, quant) is None
        ]
        assignment = ConditionAssignment(quant.join, row_formulas)

        def render_ann(node):
            if isinstance(node, n.JoinVar):
                filters = assignment.filters(node.var)
                consumed.update(id(f) for f in filters)
                text = self._render_binding(bindings[node.var])
                return text, [self._render_formula(f) for f in filters]
            if isinstance(node, n.JoinConst):
                return None, []
            children = [render_ann(c) for c in node.children_list]
            conditions = assignment.conditions(node)
            consumed.update(id(f) for f in conditions)
            condition_texts = [self._render_formula(f) for f in conditions]
            if node.kind == "inner":
                texts = [(t, extra) for t, extra in children if t is not None]
                base, extras = texts[0]
                condition_texts.extend(extras)
                for text, child_extras in texts[1:]:
                    on = " and ".join(condition_texts + child_extras) or "true"
                    base = f"{base}\n  join {text} on {on}"
                    condition_texts = []
                return base, condition_texts
            keyword = {"left": "left join", "full": "full join"}[node.kind]
            (left_text, left_extras) = children[0]
            (right_text, right_extras) = children[1]
            on_parts = condition_texts + left_extras + right_extras
            on = " and ".join(on_parts) or "true"
            return f"{left_text}\n  {keyword} {right_text} on {on}", []

        covered = annotation_vars(quant.join)
        text, leftover = render_ann(quant.join)
        if leftover:
            raise RewriteError("dangling join conditions in annotation rendering")
        uncovered = [
            b for b in quant.bindings if b.var not in covered and id(b) not in skip
        ]
        items = [text] + [self._render_binding(b) for b in uncovered]
        return ",\n     ".join(items), consumed

    def _assignment_of_any(self, conjunct, quant):
        """An assignment to *any* enclosing head cannot be a row formula;
        detect by shape (Head.attr = expr with a capitalized-style var that
        is not bound in this scope)."""
        if not isinstance(conjunct, n.Comparison) or conjunct.op != "=":
            return None
        bound = {b.var for b in quant.bindings}
        for side in (conjunct.left, conjunct.right):
            if isinstance(side, n.Attr) and side.var not in bound:
                other = conjunct.right if side is conjunct.left else conjunct.left
                other_vars = n.vars_used(other)
                if other_vars and other_vars <= bound:
                    return side
        return None

    def _render_binding(self, binding):
        if isinstance(binding.source, n.RelationRef):
            name = binding.source.name
            if not (name[0].isalpha() or name[0] == "_"):
                name = f'"{name}"'
            if binding.var.lower() == binding.source.name.lower():
                return name
            return f"{name} {binding.var}"
        sub = self.render_collection(binding.source)
        indented = "\n    ".join(sub.splitlines())
        keyword = "lateral " if free_variables(binding.source) else ""
        return f"{keyword}(\n    {indented}\n  ) {binding.var}"

    # -- formulas -----------------------------------------------------------------------

    def _render_formula(self, formula):
        if isinstance(formula, n.Comparison):
            return (
                f"{self._render_expr(formula.left)} {formula.op} "
                f"{self._render_expr(formula.right)}"
            )
        if isinstance(formula, n.IsNull):
            suffix = "is not null" if formula.negated else "is null"
            return f"{self._render_expr(formula.expr)} {suffix}"
        if isinstance(formula, n.BoolConst):
            return "true" if formula.value else "false"
        if isinstance(formula, n.And):
            return "(" + " and ".join(
                self._render_formula(c) for c in formula.children_list
            ) + ")"
        if isinstance(formula, n.Or):
            return "(" + " or ".join(
                self._render_formula(c) for c in formula.children_list
            ) + ")"
        if isinstance(formula, n.Not):
            if isinstance(formula.child, n.Quantifier):
                return f"not {self._render_boolean_quantifier(formula.child)}"
            return f"not ({self._render_formula(formula.child)})"
        if isinstance(formula, n.Quantifier):
            return self._render_boolean_quantifier(formula)
        raise RewriteError(f"cannot render formula {type(formula).__name__} as SQL")

    def _render_boolean_quantifier(self, quant):
        eliminated, substitutions = self._scalar_eliminated(quant)
        saved = self._scalar
        if substitutions:
            self._scalar = {**saved, **substitutions}
        try:
            return self._render_boolean_quantifier_body(quant, eliminated)
        finally:
            self._scalar = saved

    def _render_boolean_quantifier_body(self, quant, eliminated):
        conjuncts = n.conjuncts(quant.body)
        agg_comparisons = [
            c
            for c in conjuncts
            if isinstance(c, n.Comparison) and c.has_aggregate()
        ]
        row_formulas = [c for c in conjuncts if c not in agg_comparisons]
        from_sql, consumed = self._render_from(quant, skip=eliminated)
        where = [
            self._render_formula(f) for f in row_formulas if id(f) not in consumed
        ]
        if quant.grouping is not None and not quant.grouping.keys and len(agg_comparisons) == 1:
            # γ∅ + single aggregation comparison: correlated scalar subquery
            # (Fig. 21a / Fig. 9 pattern).
            predicate = agg_comparisons[0]
            agg_side, other_side, op = self._orient_aggregate(predicate)
            sub = f"select {self._render_expr(agg_side)}"
            if from_sql:
                sub += f"\nfrom {from_sql}"
            if where:
                sub += "\nwhere " + " and ".join(where)
            indented = "\n   ".join(sub.splitlines())
            return f"{self._render_expr(other_side)} {op} (\n   {indented})"
        sql = "select 1"
        if from_sql:
            sql += f"\nfrom {from_sql}"
        if where:
            sql += "\nwhere " + " and ".join(where)
        if quant.grouping is not None:
            if quant.grouping.keys:
                sql += "\ngroup by " + ", ".join(
                    self._render_expr(k) for k in quant.grouping.keys
                )
            if agg_comparisons:
                sql += "\nhaving " + " and ".join(
                    self._render_formula(f) for f in agg_comparisons
                )
        indented = "\n   ".join(sql.splitlines())
        return f"exists (\n   {indented})"

    def render_sentence(self, sentence):
        """A sentence becomes a one-value boolean SELECT.

        Negations stay *outside* the quantifier rendering: wrapping the
        boolean select in a further EXISTS would always be true (the inner
        select always yields its one row), so ``¬∃`` renders directly as
        ``select not exists (...)``.
        """
        return self._render_truth_select(sentence.body, negated=False)

    def _render_truth_select(self, body, *, negated):
        if isinstance(body, n.Not):
            return self._render_truth_select(body.child, negated=not negated)
        if isinstance(body, n.Quantifier):
            text = self._render_boolean_quantifier(body)
            if text.startswith("exists ("):
                keyword = "not exists" if negated else "exists"
                return f"select {keyword} {text[len('exists '):]}"
            # γ∅ scalar-subquery shape: a bare comparison.
            return f"select not ({text})" if negated else f"select {text}"
        raise RewriteError("sentence body must be a (negated) quantifier")

    @staticmethod
    def _orient_aggregate(predicate):
        """Return (aggregate-side, other-side, op-with-other-on-left)."""
        flip = {"=": "=", "<>": "<>", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}
        left_has = any(isinstance(x, n.AggCall) for x in predicate.left.walk())
        if left_has:
            return predicate.left, predicate.right, flip[predicate.op]
        return predicate.right, predicate.left, predicate.op

    # -- expressions ----------------------------------------------------------------------

    def _render_expr(self, expr):
        if isinstance(expr, n.Attr):
            inlined = self._scalar.get((expr.var, expr.attr))
            if inlined is not None:
                return inlined
            return f"{expr.var}.{expr.attr}"
        if isinstance(expr, n.Const):
            value = expr.value
            if is_null(value):
                return "null"
            if value is True:
                return "true"
            if value is False:
                return "false"
            if isinstance(value, str):
                return f"'{value}'"
            return repr(value)
        if isinstance(expr, n.AggCall):
            if expr.arg is None:
                return "count(*)"
            func = expr.func
            if func.endswith("distinct"):
                return f"{func[:-len('distinct')]}(distinct {self._render_expr(expr.arg)})"
            return f"{func}({self._render_expr(expr.arg)})"
        if isinstance(expr, n.Arith):
            left = self._render_expr(expr.left)
            right = self._render_expr(expr.right)
            if isinstance(expr.left, n.Arith):
                left = f"({left})"
            if isinstance(expr.right, n.Arith):
                right = f"({right})"
            return f"{left} {expr.op} {right}"
        raise RewriteError(f"cannot render expression {type(expr).__name__}")

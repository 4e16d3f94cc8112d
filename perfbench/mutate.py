"""Seeded query-text mutations: a new AST for every ad-hoc request.

``rename(text, frontend, suffix)`` renames the range variables (SQL
aliases, TRC tuple variables, Datalog and Rel logic variables) of a corpus
text by appending ``_<suffix>``.  The answer is unchanged, but the text and
every AST node are new, so the prepared-query LRU and the per-node plan,
probe and SQL-render caches all miss.  String literals are left alone, and
so are relation names, attribute names after a ``.`` and keywords.
"""

import re

_STRING = re.compile(r"('[^']*'|\"[^\"]*\")")
_IDENT = re.compile(r"(?<![.\w])([a-z][a-z0-9_]*)\b(?!\s*[(\[])")

#: Words the Datalog and Rel grammars reserve (never renamed).
_LOGIC_KEYWORDS = frozenset(
    "def and or not exists forall in count sum min max avg true false "
    "null is".split()
)

_SQL_ALIAS = re.compile(r"\b([A-Z]\w*)\s+(?:as\s+)?([a-z]\w*)\b")
_TRC_VAR = re.compile(r"\b([a-z]\w*)\s+in\s+[A-Z]\w*")
_SQL_NOT_ALIAS = frozenset(
    "where group order on join left inner outer natural having limit union "
    "except intersect and or as".split()
)


def _variables(text, frontend):
    code = " ".join(_STRING.split(text)[0::2])
    if frontend == "sql":
        return {
            alias for _, alias in _SQL_ALIAS.findall(code)
            if alias not in _SQL_NOT_ALIAS
        }
    if frontend == "trc":
        return set(_TRC_VAR.findall(code))
    if frontend in ("datalog", "rel"):
        return {
            word for word in _IDENT.findall(code)
            if word not in _LOGIC_KEYWORDS
        }
    raise ValueError(f"no mutation rule for frontend {frontend!r}")


def rename(text, frontend, suffix):
    """*text* with every range variable renamed to ``<name>_<suffix>``."""
    names = _variables(text, frontend)
    if not names:
        return text
    pattern = re.compile(
        r"(?<![.\w])(" + "|".join(sorted(map(re.escape, names))) + r")\b"
    )
    parts = _STRING.split(text)
    for i in range(0, len(parts), 2):  # even parts lie outside quotes
        parts[i] = pattern.sub(lambda m: f"{m.group(1)}_{suffix}", parts[i])
    return "".join(parts)

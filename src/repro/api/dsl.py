"""A compact text DSL for dependencies, with a parse/describe round-trip.

The grammar covers every dependency class of the paper:

=====================  =====================================================
Class                  Syntax
=====================  =====================================================
fd                     ``AB -> C``   (also ``A, B -> C``)
mvd                    ``A ->> BC``  (``{}`` denotes the empty side)
jd                     ``join[AB, BC]``  (also the paper form ``*[AB, BC]``)
pjd                    ``pjoin[AB, BC] => AC``  (also ``*[AB, BC]_AC``)
td (typed tableau)     ``td[ABC]{a b1 c1; a2 b c2} => a b c``
td (untyped tableau)   ``utd[ABC]{x y z; z y x} => x y x``
egd (typed tableau)    ``egd[ABC]{a b1 c1; a b2 c2} : b1 = b2``
egd (untyped tableau)  ``uegd[ABC]{x y z; x z y} : y = z``
=====================  =====================================================

Attribute-set tokens concatenate single-letter names in the paper's style
(``ABC``); multi-character names (``A_0``, ``A'``) parse too, and commas or
spaces may separate attributes explicitly.  Tableau rows are separated by
``;`` and cells by spaces or commas.  In the ``td``/``egd`` (typed) dialects
a bare cell token names a value tagged with its column's attribute; a cell
prefixed with ``~`` is an untagged (untyped-regime) value.  In the
``utd``/``uegd`` dialects every value is untagged.  An optional
``name =`` prefix (as produced by ``MultivaluedDependency.describe`` and
friends) is accepted for the arrow and join forms.

:func:`describe_dependency` renders any dependency back into this grammar,
and ``parse_dependency(describe_dependency(d)) == d`` holds for every
dependency class (dependency equality ignores display names).
"""

from __future__ import annotations

import re
from typing import Iterable, Optional, Sequence

from repro.dependencies.base import Dependency
from repro.dependencies.egd import EqualityGeneratingDependency
from repro.dependencies.fd import FunctionalDependency
from repro.dependencies.mvd import MultivaluedDependency
from repro.dependencies.pjd import JoinDependency, ProjectedJoinDependency
from repro.dependencies.td import TemplateDependency
from repro.model.attributes import Attribute, Universe, as_attribute
from repro.model.relations import Relation
from repro.model.tuples import Row
from repro.model.values import Value
from repro.util.errors import DependencyError


class DSLError(DependencyError):
    """The dependency text does not conform to the DSL grammar."""


#: One attribute name: a letter, an optional numeric index, optional primes.
_ATTR_RE = re.compile(r"[A-Za-z](?:_[0-9]+)?'*")

#: One value token (optionally prefixed by ``~`` in the grammar).
_VALUE_RE = re.compile(r"[A-Za-z0-9_.'^+-]+")

_NAME_PREFIX_RE = re.compile(r"^(?P<name>[\w\[\]/.'^*-]+)\s+=\s+(?P<rest>\S.*)$")

_TABLEAU_RE = re.compile(
    r"^(?P<kind>u?td|u?egd)\s*\[(?P<universe>[^\]]*)\]\s*"
    r"\{(?P<body>[^}]*)\}\s*(?P<tail>.*)$",
    re.DOTALL,
)


def parse_attribute_set(text: str) -> list[Attribute]:
    """Parse an attribute-set token like ``ABC``, ``A, B``, ``A_0B_1`` or ``{}``."""
    stripped = text.strip()
    if stripped in ("{}", ""):
        return []
    attrs: list[Attribute] = []
    for piece in re.split(r"[,\s]+", stripped):
        if not piece:
            continue
        found = _ATTR_RE.findall(piece)
        if "".join(found) != piece:
            raise DSLError(f"cannot parse attribute set {text!r} (near {piece!r})")
        attrs.extend(as_attribute(name) for name in found)
    return attrs


def _check_known(
    attrs: Iterable[Attribute], universe: Optional[Universe], text: str
) -> None:
    if universe is None:
        return
    for attr in attrs:
        if attr not in universe:
            raise DSLError(
                f"unknown attribute {attr.name!r} in {text!r}: not in universe "
                f"{''.join(a.name for a in universe)}"
            )


def _parse_fd(
    text: str, universe: Optional[Universe], name: Optional[str]
) -> FunctionalDependency:
    left_text, _, right_text = text.partition("->")
    if "->" in right_text:
        raise DSLError(f"bad arrow in {text!r}: more than one '->'")
    left = parse_attribute_set(left_text)
    right = parse_attribute_set(right_text)
    if not left or not right:
        raise DSLError(f"bad fd {text!r}: both sides of '->' must be non-empty")
    _check_known([*left, *right], universe, text)
    try:
        return FunctionalDependency(left, right, name=name)
    except DependencyError as exc:
        raise DSLError(f"bad fd {text!r}: {exc}") from exc


def _parse_mvd(
    text: str, universe: Optional[Universe], name: Optional[str]
) -> MultivaluedDependency:
    left_text, _, right_text = text.partition("->>")
    if "->" in right_text:
        raise DSLError(f"bad arrow in {text!r}: more than one arrow")
    left = parse_attribute_set(left_text)
    right = parse_attribute_set(right_text)
    _check_known([*left, *right], universe, text)
    try:
        return MultivaluedDependency(left, right, name=name)
    except DependencyError as exc:
        raise DSLError(f"bad mvd {text!r}: {exc}") from exc


def _parse_join(
    text: str, universe: Optional[Universe], name: Optional[str]
) -> ProjectedJoinDependency:
    """Parse ``join[...]``, ``pjoin[...] => X``, ``*[...]`` and ``*[...]_X``."""
    match = re.match(
        r"^(?P<head>join|pjoin|\*)\s*\[(?P<components>[^\]]*)\]\s*(?P<tail>.*)$",
        text.strip(),
        re.DOTALL,
    )
    if match is None:
        raise DSLError(f"cannot parse join dependency {text!r}")
    components = [
        parse_attribute_set(piece)
        for piece in match.group("components").split(",")
        if piece.strip()
    ]
    if not components:
        raise DSLError(f"bad join dependency {text!r}: no components")
    tail = match.group("tail").strip()
    projection: Optional[list[Attribute]] = None
    if tail.startswith("=>"):
        projection = parse_attribute_set(tail[2:])
    elif tail.startswith("_"):
        projection = parse_attribute_set(tail[1:])
    elif tail:
        raise DSLError(f"unexpected trailing text {tail!r} in {text!r}")
    flat = [a for comp in components for a in comp]
    if projection is not None:
        flat.extend(projection)
    _check_known(flat, universe, text)
    try:
        if projection is None or set(projection) == {a for c in components for a in c}:
            return JoinDependency(components, name=name)
        return ProjectedJoinDependency(components, projection, name=name)
    except DependencyError as exc:
        raise DSLError(f"bad join dependency {text!r}: {exc}") from exc


def _parse_cell(token: str, attr: Attribute, typed_dialect: bool) -> Value:
    untagged = token.startswith("~")
    if untagged:
        token = token[1:]
    if not token or _VALUE_RE.fullmatch(token) is None:
        raise DSLError(f"bad value token {token!r} in column {attr.name}")
    if untagged or not typed_dialect:
        return Value(token, None)
    return Value(token, attr.name)


def _parse_rows(
    body_text: str, universe: Universe, typed_dialect: bool, context: str
) -> list[Row]:
    rows: list[Row] = []
    attrs = universe.attributes
    for row_text in body_text.split(";"):
        tokens = [t for t in re.split(r"[,\s]+", row_text.strip()) if t]
        if not tokens:
            continue
        if len(tokens) != len(attrs):
            raise DSLError(
                f"row {row_text.strip()!r} of {context!r} has {len(tokens)} cells, "
                f"expected {len(attrs)}"
            )
        rows.append(
            Row(
                {
                    attr: _parse_cell(token, attr, typed_dialect)
                    for attr, token in zip(attrs, tokens)
                }
            )
        )
    return rows


def _resolve_equality_side(
    token: str, body: Relation, typed_dialect: bool, context: str
) -> Value:
    """Resolve one side of an egd equality to a value of the body."""
    token = token.strip()
    if "@" in token:
        name, _, tag = token.partition("@")
        candidate = Value(name, tag or None)
    elif token.startswith("~") or not typed_dialect:
        candidate = Value(token.lstrip("~"), None)
    else:
        matches = {v for v in body.values() if v.name == token}
        if not matches:
            raise DSLError(f"equality side {token!r} of {context!r} is not in the body")
        if len(matches) > 1:
            raise DSLError(
                f"equality side {token!r} of {context!r} is ambiguous; "
                "disambiguate with 'name@Attribute'"
            )
        return next(iter(matches))
    if candidate not in body.values():
        raise DSLError(f"equality side {token!r} of {context!r} is not in the body")
    return candidate


def _parse_tableau(text: str, universe: Optional[Universe]) -> Dependency:
    match = _TABLEAU_RE.match(text.strip())
    if match is None:
        raise DSLError(f"cannot parse tableau dependency {text!r}")
    kind = match.group("kind")
    typed_dialect = not kind.startswith("u")
    header = parse_attribute_set(match.group("universe"))
    if not header:
        raise DSLError(f"empty universe in {text!r}")
    try:
        tableau_universe = Universe(header)
    except Exception as exc:
        raise DSLError(f"bad universe in {text!r}: {exc}") from exc
    if universe is not None and tableau_universe != universe:
        raise DSLError(
            f"tableau universe {''.join(a.name for a in tableau_universe)} does "
            f"not match the expected universe {''.join(a.name for a in universe)}"
        )
    body_rows = _parse_rows(match.group("body"), tableau_universe, typed_dialect, text)
    if not body_rows:
        raise DSLError(f"empty tableau in {text!r}: a body needs at least one row")
    body = Relation(tableau_universe, body_rows)
    tail = match.group("tail").strip()

    if kind.endswith("egd"):
        if not tail.startswith(":"):
            raise DSLError(f"an egd needs ': a = b' after its body in {text!r}")
        left_text, eq, right_text = tail[1:].partition("=")
        if not eq or "=" in right_text:
            raise DSLError(f"bad equality in {text!r}")
        left = _resolve_equality_side(left_text, body, typed_dialect, text)
        right = _resolve_equality_side(right_text, body, typed_dialect, text)
        try:
            return EqualityGeneratingDependency(left, right, body)
        except DependencyError as exc:
            raise DSLError(f"bad egd {text!r}: {exc}") from exc

    if not tail.startswith("=>"):
        raise DSLError(f"a td needs '=> <conclusion row>' after its body in {text!r}")
    conclusion_rows = _parse_rows(tail[2:], tableau_universe, typed_dialect, text)
    if len(conclusion_rows) != 1:
        raise DSLError(f"a td needs exactly one conclusion row in {text!r}")
    try:
        return TemplateDependency(conclusion_rows[0], body)
    except DependencyError as exc:
        raise DSLError(f"bad td {text!r}: {exc}") from exc


def parse_dependency(text: str, universe: Optional[Universe] = None) -> Dependency:
    """Parse one dependency from its DSL text.

    Parameters
    ----------
    text:
        The dependency in the grammar described in the module docstring.
    universe:
        Optional universe to validate attributes against; tds/egds must then
        declare exactly this universe, and arrow/join forms may only mention
        its attributes.
    """
    stripped = text.strip()
    if not stripped:
        raise DSLError("cannot parse an empty dependency string")
    if re.match(r"^u?(td|egd)\s*\[", stripped):
        return _parse_tableau(stripped, universe)
    prefix = _NAME_PREFIX_RE.match(stripped)
    name = None
    if prefix is not None and not _looks_like_form(prefix.group("name")):
        name = prefix.group("name")
        stripped = prefix.group("rest")
    if stripped.startswith(("join", "pjoin", "*")):
        return _parse_join(stripped, universe, name)
    if "->>" in stripped:
        return _parse_mvd(stripped, universe, name)
    if "->" in stripped:
        return _parse_fd(stripped, universe, name)
    raise DSLError(
        f"cannot parse dependency {text!r}: expected an arrow form (-> / ->>), "
        "a join form (join[...] / pjoin[...] / *[...]), or a tableau form "
        "(td[...] / utd[...] / egd[...] / uegd[...])"
    )


def _looks_like_form(token: str) -> bool:
    """Whether a candidate name token is actually the start of a form."""
    return token.startswith(("join", "pjoin", "*")) or "->" in token


def parse_dependency_set(
    text: str, universe: Optional[Universe] = None
) -> list[Dependency]:
    """Parse a newline-separated list of dependencies.

    Blank lines and ``#`` comment lines are ignored, so premise sets can be
    written as small readable blocks::

        # keys
        AB -> C
        A ->> B
        join[AB, BC]
    """
    dependencies = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        dependencies.append(parse_dependency(stripped, universe))
    return dependencies


# -- rendering -----------------------------------------------------------------


def _attr_set_text(attrs: Iterable[Attribute]) -> str:
    # Multi-character names are space-separated: a comma would be read as a
    # component separator when the set is rendered inside join[...].
    names = sorted(a.name for a in attrs)
    if not names:
        return "{}"
    if any(len(name) > 1 for name in names):
        return " ".join(names)
    return "".join(names)


def _universe_text(universe: Universe) -> str:
    names = [a.name for a in universe.attributes]
    if any(len(name) > 1 for name in names):
        return " ".join(names)
    return "".join(names)


def _safe_value_token(value: Value, context: str) -> str:
    if _VALUE_RE.fullmatch(value.name) is None:
        raise DSLError(
            f"value name {value.name!r} of {context} cannot be rendered in the DSL"
        )
    return value.name


def _cell_text(value: Value, attr: Attribute, typed_dialect: bool, context: str) -> str:
    token = _safe_value_token(value, context)
    if typed_dialect and value.tag is None:
        return f"~{token}"
    return token


def _tableau_text(
    kind: str, universe: Universe, body: Relation, typed_dialect: bool, context: str
) -> str:
    attrs = universe.attributes
    rows = [
        " ".join(_cell_text(row[a], a, typed_dialect, context) for a in attrs)
        for row in body.sorted_rows()
    ]
    prefix = "" if typed_dialect else "u"
    return f"{prefix}{kind}[{_universe_text(universe)}]{{{'; '.join(rows)}}}"


def describe_dependency(dependency: Dependency) -> str:
    """Render a dependency in the DSL grammar (inverse of :func:`parse_dependency`).

    For every dependency class, ``parse_dependency(describe_dependency(d))``
    reconstructs a dependency equal to ``d`` (display names are not part of
    dependency equality and are not rendered).
    """
    if isinstance(dependency, FunctionalDependency):
        return (
            f"{_attr_set_text(dependency.determinant)} -> "
            f"{_attr_set_text(dependency.dependent)}"
        )
    if isinstance(dependency, MultivaluedDependency):
        return (
            f"{_attr_set_text(dependency.determinant)} ->> "
            f"{_attr_set_text(dependency.dependent)}"
        )
    if isinstance(dependency, ProjectedJoinDependency):
        components = ", ".join(_attr_set_text(c) for c in dependency.components)
        if dependency.is_join_dependency():
            return f"join[{components}]"
        return f"pjoin[{components}] => {_attr_set_text(dependency.projection)}"
    if isinstance(dependency, TemplateDependency):
        typed_dialect = any(
            v.tag is not None
            for v in dependency.body.values() | dependency.conclusion.values()
        )
        context = "the td"
        tableau = _tableau_text(
            "td", dependency.universe, dependency.body, typed_dialect, context
        )
        conclusion = " ".join(
            _cell_text(dependency.conclusion[a], a, typed_dialect, context)
            for a in dependency.universe.attributes
        )
        return f"{tableau} => {conclusion}"
    if isinstance(dependency, EqualityGeneratingDependency):
        typed_dialect = any(v.tag is not None for v in dependency.body.values())
        context = "the egd"
        tableau = _tableau_text(
            "egd", dependency.universe, dependency.body, typed_dialect, context
        )
        return (
            f"{tableau} : "
            f"{_equality_side_text(dependency.left, dependency.body, typed_dialect, context)} = "
            f"{_equality_side_text(dependency.right, dependency.body, typed_dialect, context)}"
        )
    raise DSLError(f"cannot render dependency of type {type(dependency).__name__}")


def _equality_side_text(
    value: Value, body: Relation, typed_dialect: bool, context: str
) -> str:
    token = _safe_value_token(value, context)
    if value.tag is None:
        return f"~{token}" if typed_dialect else token
    shared_name = {v for v in body.values() if v.name == value.name}
    if len(shared_name) > 1:
        return f"{token}@{value.tag}"
    return token


def describe_dependency_set(dependencies: Sequence[Dependency]) -> str:
    """Render a dependency list as newline-separated DSL text."""
    return "\n".join(describe_dependency(d) for d in dependencies)

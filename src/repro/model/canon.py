"""Canonical forms for implication problems (renaming-invariant identity).

Implication of dependencies never looks at names: the paper's semantics is
stated entirely in terms of the *pattern* of equalities between tableau
cells, so ``{A -> B} |= A ->> B`` and ``{C -> D} |= C ->> D`` are the same
question.  This module computes a canonical form of an
:class:`~repro.implication.problem.ImplicationProblem` such that any two
problems related by a bijective renaming of attributes and (per-dependency)
values share one :func:`canonical_key` digest -- the key the caching layers
in :mod:`repro.api` use to make isomorphic queries hit one cache entry.

The algorithm is individualization-refinement, the standard scheme for
canonical graph labeling, specialised to the two-sorted structure of a
dependency set:

* **attributes** are global: one bijection renames them across the whole
  problem (mvd complements, fd closures and pjd components all read the
  same universe), so attributes are refined jointly over every dependency;
* **tableau values** are bound variables local to each td/egd (two
  dependencies never share a variable scope), so values are canonicalized
  per dependency once a global attribute order is fixed.

Refinement partitions elements by iterated signatures (tag, position and
co-occurrence profiles) to a fixpoint; remaining symmetry is broken by
individualizing each member of the smallest non-singleton class in turn and
taking the lexicographically least resulting encoding.  Problems are tiny
(a handful of dependencies over single-letter universes), so the search is
cheap; a hard leaf cap turns pathological symmetric blow-ups into a
:class:`CanonicalizationError`, which callers treat as "fall back to the
syntactic key" rather than an answer-changing failure.

The module also provides the deterministic *syntactic* counterparts
(:func:`syntactic_encoding` / :func:`syntactic_key`): a stable string form
of the problem exactly as written, injective with respect to dependency
equality, so that cache keys are stable strings usable by process-shared
stores.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.dependencies.base import Dependency
from repro.dependencies.egd import EqualityGeneratingDependency
from repro.dependencies.fd import FunctionalDependency
from repro.dependencies.mvd import MultivaluedDependency
from repro.dependencies.pjd import JoinDependency, ProjectedJoinDependency
from repro.dependencies.td import TemplateDependency
from repro.implication.problem import ImplicationProblem
from repro.model.attributes import Attribute, AttributeLike, Universe, as_attribute
from repro.model.relations import Relation
from repro.model.tuples import Row
from repro.model.values import Value
from repro.util.errors import ReproError


class CanonicalizationError(ReproError):
    """The problem has no computable canonical form.

    Raised for dependency classes this module does not know how to encode
    and when symmetry breaking exceeds the search budget.  Callers fall
    back to syntactic identity -- correctness never depends on the
    canonical form existing, only cache sharing does.
    """


#: Cap on discrete colorings explored while breaking attribute symmetry
#: (and, separately, per-dependency value symmetry).  Real problems need a
#: handful; a fully symmetric blow-up hits the cap and falls back.
_MAX_LEAVES = 4096


def _sorted(items) -> tuple:
    """A deterministic total order over heterogeneous encodings.

    ``repr`` ordering is used everywhere instead of native comparison
    because encodings mix ints, strings and ``None`` (value tags).
    """
    return tuple(sorted(items, key=repr))


# ---------------------------------------------------------------------------
# Structural facts: one uniform view of every supported dependency class.
# ---------------------------------------------------------------------------


class _Facts:
    """The renaming-relevant structure of one dependency."""

    __slots__ = (
        "kind",
        "is_conclusion",
        "attrs",
        "attr_sets",
        "rows",
        "conclusion",
        "equality",
    )

    def __init__(
        self,
        kind: str,
        is_conclusion: bool,
        attrs: frozenset,
        attr_sets: Tuple[Tuple[str, frozenset], ...] = (),
        rows: Tuple[Dict[Attribute, Value], ...] = (),
        conclusion: Optional[Dict[Attribute, Value]] = None,
        equality: Optional[Tuple[Value, Value]] = None,
    ) -> None:
        self.kind = kind
        self.is_conclusion = is_conclusion
        self.attrs = attrs
        self.attr_sets = attr_sets
        self.rows = rows
        self.conclusion = conclusion
        self.equality = equality

    @property
    def tableau(self) -> bool:
        return bool(self.rows)

    def values(self):
        """Every value occurring in the dependency's tableau (if any)."""
        seen = {}
        for row in self.rows:
            for value in row.values():
                seen[value] = True
        if self.conclusion is not None:
            for value in self.conclusion.values():
                seen[value] = True
        if self.equality is not None:
            for value in self.equality:
                seen[value] = True
        return list(seen)


def _extract_facts(dependency: Dependency, is_conclusion: bool) -> _Facts:
    if isinstance(dependency, FunctionalDependency):
        det = frozenset(dependency.determinant)
        dep = frozenset(dependency.dependent)
        return _Facts(
            "fd",
            is_conclusion,
            attrs=det | dep,
            attr_sets=(("det", det), ("dep", dep)),
        )
    if isinstance(dependency, MultivaluedDependency):
        det = frozenset(dependency.determinant)
        dep = frozenset(dependency.dependent)
        return _Facts(
            "mvd",
            is_conclusion,
            attrs=det | dep,
            attr_sets=(("det", det), ("dep", dep)),
        )
    if isinstance(dependency, ProjectedJoinDependency):
        # JoinDependency is a pjd with X = R and compares equal to one, so
        # both encode as "pjd" (distinguishing them would split equal
        # problems across cache entries).
        comps = tuple(("comp", frozenset(c)) for c in dependency.components)
        proj = frozenset(dependency.projection)
        return _Facts(
            "pjd",
            is_conclusion,
            attrs=frozenset().union(proj, *(c for _, c in comps)),
            attr_sets=comps + (("proj", proj),),
        )
    if isinstance(dependency, TemplateDependency):
        rows = tuple(dict(row.items()) for row in dependency.body.sorted_rows())
        return _Facts(
            "td",
            is_conclusion,
            attrs=frozenset(dependency.universe.attributes),
            rows=rows,
            conclusion=dict(dependency.conclusion.items()),
        )
    if isinstance(dependency, EqualityGeneratingDependency):
        rows = tuple(dict(row.items()) for row in dependency.body.sorted_rows())
        return _Facts(
            "egd",
            is_conclusion,
            attrs=frozenset(dependency.body.universe.attributes),
            rows=rows,
            equality=(dependency.left, dependency.right),
        )
    raise CanonicalizationError(
        f"no canonical form for dependency class {type(dependency).__name__}"
    )


# ---------------------------------------------------------------------------
# Joint color refinement over attributes, dependencies, rows and values.
# ---------------------------------------------------------------------------


class _Coloring:
    """Current partition of every element family, as integer colors."""

    __slots__ = ("acolor", "dcolor", "rcolor", "vcolor")

    def __init__(self, acolor, dcolor, rcolor, vcolor) -> None:
        self.acolor = acolor  # Attribute -> int
        self.dcolor = dcolor  # fact index -> int
        self.rcolor = rcolor  # (fact index, row index) -> int; -1 = conclusion row
        self.vcolor = vcolor  # (fact index, Value) -> int

    def clone(self) -> "_Coloring":
        return _Coloring(
            dict(self.acolor), list(self.dcolor), dict(self.rcolor), dict(self.vcolor)
        )


def _initial_coloring(facts: Sequence[_Facts], attrs: Sequence[Attribute]) -> _Coloring:
    acolor = {a: 0 for a in attrs}
    dcolor = []
    rcolor: Dict[Tuple[int, int], int] = {}
    vcolor: Dict[Tuple[int, Value], int] = {}
    dseeds = _sorted({(f.kind, f.is_conclusion) for f in facts})
    for fi, fact in enumerate(facts):
        dcolor.append(dseeds.index((fact.kind, fact.is_conclusion)))
        if not fact.tableau:
            continue
        body_values = set()
        for row in fact.rows:
            body_values.update(row.values())
        in_equality = set(fact.equality or ())
        conclusion_values = set((fact.conclusion or {}).values())
        seeds = []
        for value in fact.values():
            seeds.append(
                (
                    value.tag is None,
                    value in in_equality,
                    value in conclusion_values,
                    value in body_values,
                )
            )
        distinct = _sorted(set(seeds))
        for value, seed in zip(fact.values(), seeds):
            vcolor[(fi, value)] = distinct.index(seed)
        for ri in range(len(fact.rows)):
            rcolor[(fi, ri)] = 0
        if fact.conclusion is not None:
            rcolor[(fi, -1)] = 1
    return _Coloring(acolor, dcolor, rcolor, vcolor)


def _tag_attr(value: Value, by_name: Mapping[str, Attribute]) -> Optional[Attribute]:
    if value.tag is None:
        return None
    return by_name.get(value.tag)


def _refine(facts: Sequence[_Facts], coloring: _Coloring, by_name) -> None:
    """Iterate signature-based splitting of all four families to a fixpoint."""
    while True:
        # Row signatures: owning dependency, conclusion-row flag, and the
        # multiset of (attribute color, value color) cells.
        rsigs = {}
        for fi, fact in enumerate(facts):
            if not fact.tableau:
                continue
            indexed = list(enumerate(fact.rows))
            if fact.conclusion is not None:
                indexed.append((-1, fact.conclusion))
            for ri, row in indexed:
                cells = _sorted(
                    (coloring.acolor[a], coloring.vcolor[(fi, v)])
                    for a, v in row.items()
                )
                rsigs[(fi, ri)] = (
                    coloring.rcolor[(fi, ri)],
                    coloring.dcolor[fi],
                    ri == -1,
                    cells,
                )
        # Value signatures: tag column's color and the multiset of
        # (row color, attribute color) occurrences.
        vsigs = {}
        for fi, fact in enumerate(facts):
            if not fact.tableau:
                continue
            occurrences: Dict[Value, list] = {v: [] for v in fact.values()}
            indexed = list(enumerate(fact.rows))
            if fact.conclusion is not None:
                indexed.append((-1, fact.conclusion))
            for ri, row in indexed:
                for a, v in row.items():
                    occurrences[v].append(
                        (coloring.rcolor[(fi, ri)], coloring.acolor[a])
                    )
            for value in fact.values():
                tag = _tag_attr(value, by_name)
                vsigs[(fi, value)] = (
                    coloring.vcolor[(fi, value)],
                    coloring.dcolor[fi],
                    None if tag is None else coloring.acolor[tag],
                    _sorted(occurrences[value]),
                )
        # Attribute signatures: the multiset over dependencies of this
        # attribute's role profile there (set memberships for the arrow and
        # join classes, column profile for the tableau classes).
        asigs = {}
        for attr in coloring.acolor:
            profile = []
            for fi, fact in enumerate(facts):
                if attr not in fact.attrs:
                    continue
                if fact.tableau:
                    column = _sorted(
                        coloring.vcolor[(fi, row[attr])]
                        for row in fact.rows
                        if attr in row
                    )
                    conclusion_cell = (
                        None
                        if fact.conclusion is None or attr not in fact.conclusion
                        else coloring.vcolor[(fi, fact.conclusion[attr])]
                    )
                    profile.append(
                        (coloring.dcolor[fi], column, conclusion_cell)
                    )
                else:
                    roles = _sorted(
                        role for role, members in fact.attr_sets if attr in members
                    )
                    profile.append((coloring.dcolor[fi], roles))
            asigs[attr] = (coloring.acolor[attr], _sorted(profile))
        # Dependency signatures: structure summarised through current colors.
        dsigs = []
        for fi, fact in enumerate(facts):
            if fact.tableau:
                body = _sorted(
                    coloring.rcolor[(fi, ri)] for ri in range(len(fact.rows))
                )
                if fact.equality is not None:
                    head = _sorted(
                        coloring.vcolor[(fi, v)] for v in fact.equality
                    )
                else:
                    head = coloring.rcolor[(fi, -1)]
                summary = (body, head)
            else:
                summary = _sorted(
                    (role, _sorted(coloring.acolor[a] for a in members))
                    for role, members in fact.attr_sets
                )
            dsigs.append(
                (coloring.dcolor[fi], fact.kind, fact.is_conclusion, summary)
            )

        changed = False
        distinct = _sorted(set(rsigs.values()))
        new_rcolor = {key: distinct.index(sig) for key, sig in rsigs.items()}
        if _partition(new_rcolor) != _partition(coloring.rcolor):
            changed = True
        coloring.rcolor = new_rcolor
        distinct = _sorted(set(vsigs.values()))
        new_vcolor = {key: distinct.index(sig) for key, sig in vsigs.items()}
        if _partition(new_vcolor) != _partition(coloring.vcolor):
            changed = True
        coloring.vcolor = new_vcolor
        distinct = _sorted(set(asigs.values()))
        new_acolor = {key: distinct.index(sig) for key, sig in asigs.items()}
        if _partition(new_acolor) != _partition(coloring.acolor):
            changed = True
        coloring.acolor = new_acolor
        distinct = _sorted(set(dsigs))
        new_dcolor = [distinct.index(sig) for sig in dsigs]
        if _partition(dict(enumerate(new_dcolor))) != _partition(
            dict(enumerate(coloring.dcolor))
        ):
            changed = True
        coloring.dcolor = new_dcolor
        if not changed:
            return


def _partition(colors: Mapping) -> frozenset:
    groups: Dict[int, list] = {}
    for element, color in colors.items():
        groups.setdefault(color, []).append(element)
    return frozenset(frozenset(members) for members in groups.values())


# ---------------------------------------------------------------------------
# Per-dependency tableau canonicalization (given a global attribute order).
# ---------------------------------------------------------------------------


def _canonical_tableau(
    fact: _Facts, attr_index: Mapping[Attribute, int], budget: List[int]
) -> tuple:
    """The least encoding of a td/egd under value bijections.

    ``attr_index`` fixes the global attribute order, so only the (bound,
    per-dependency) values remain to canonicalize: refine by column/row
    profile, individualize the smallest class until discrete, and take the
    minimum encoding over all branches.
    """
    values = fact.values()
    rows = fact.rows
    in_equality = set(fact.equality or ())
    conclusion = fact.conclusion
    body_values = set()
    for row in rows:
        body_values.update(row.values())

    def tag_key(value: Value):
        # A tag naming an attribute outside the problem's universe is kept
        # verbatim: renamings only move universe attributes, so the raw
        # string is still invariant.
        if value.tag is None:
            return None
        return attr_index.get(Attribute(value.tag), value.tag)

    seeds = {}
    for value in values:
        tag = tag_key(value)
        seeds[value] = (
            tag,
            value in in_equality,
            conclusion is not None and value in set(conclusion.values()),
            value in body_values,
        )
    distinct = _sorted(set(seeds.values()))
    vcolor = {value: distinct.index(seeds[value]) for value in values}

    indexed_rows = list(enumerate(rows))
    if conclusion is not None:
        indexed_rows.append((-1, conclusion))

    def refine(vcolor: Dict[Value, int]) -> Dict[Value, int]:
        rcolor = {ri: int(ri == -1) for ri, _ in indexed_rows}
        while True:
            rsigs = {}
            for ri, row in indexed_rows:
                cells = tuple(
                    vcolor[row[a]]
                    for a in sorted(row, key=lambda a: attr_index[a])
                )
                rsigs[ri] = (rcolor[ri], ri == -1, cells)
            vsigs = {}
            for value in values:
                occ = []
                for ri, row in indexed_rows:
                    for a, v in row.items():
                        if v == value:
                            occ.append((rcolor[ri], attr_index[a]))
                vsigs[value] = (vcolor[value], _sorted(occ))
            distinct_r = _sorted(set(rsigs.values()))
            new_rcolor = {ri: distinct_r.index(sig) for ri, sig in rsigs.items()}
            distinct_v = _sorted(set(vsigs.values()))
            new_vcolor = {v: distinct_v.index(sig) for v, sig in vsigs.items()}
            if _partition(new_vcolor) == _partition(vcolor) and _partition(
                new_rcolor
            ) == _partition(rcolor):
                return new_vcolor
            vcolor, rcolor = new_vcolor, new_rcolor

    best: List[Optional[tuple]] = [None]

    def encode(vcolor: Dict[Value, int]) -> tuple:
        label = {v: vcolor[v] for v in values}
        tags = _sorted((label[v], tag_key(v)) for v in values)
        body = _sorted(
            tuple(
                (attr_index[a], label[row[a]])
                for a in sorted(row, key=lambda a: attr_index[a])
            )
            for row in rows
        )
        if fact.equality is not None:
            head: object = _sorted(label[v] for v in fact.equality)
        else:
            assert conclusion is not None
            head = tuple(
                (attr_index[a], label[conclusion[a]])
                for a in sorted(conclusion, key=lambda a: attr_index[a])
            )
        return (fact.kind, tags, body, head)

    def explore(vcolor: Dict[Value, int]) -> None:
        groups: Dict[int, list] = {}
        for value in values:
            groups.setdefault(vcolor[value], []).append(value)
        non_singletons = [g for g in groups.values() if len(g) > 1]
        if not non_singletons:
            budget[0] -= 1
            if budget[0] < 0:
                raise CanonicalizationError(
                    "tableau symmetry exceeded the canonicalization budget"
                )
            encoding = encode(vcolor)
            if best[0] is None or repr(encoding) < repr(best[0]):
                best[0] = encoding
            return
        target = min(non_singletons, key=lambda g: (len(g), vcolor[g[0]]))
        fresh = max(vcolor.values()) + 1
        for value in sorted(target, key=repr):
            branched = dict(vcolor)
            branched[value] = fresh
            explore(refine(branched))

    explore(refine(vcolor))
    assert best[0] is not None
    return best[0]


def _encode_problem(
    facts: Sequence[_Facts],
    coloring: _Coloring,
    attrs: Sequence[Attribute],
    budget: List[int],
) -> tuple:
    """Encode the whole problem once the attribute partition is discrete."""
    order = sorted(attrs, key=lambda a: coloring.acolor[a])
    attr_index = {a: i for i, a in enumerate(order)}
    encodings = []
    for fact in facts:
        if fact.tableau:
            encoding = _canonical_tableau(fact, attr_index, budget)
        elif fact.kind == "pjd":
            comps = _sorted(
                _sorted(attr_index[a] for a in members)
                for role, members in fact.attr_sets
                if role == "comp"
            )
            proj = _sorted(
                attr_index[a]
                for role, members in fact.attr_sets
                if role == "proj"
                for a in members
            )
            encoding = ("pjd", comps, proj)
        else:
            det = next(m for role, m in fact.attr_sets if role == "det")
            dep = next(m for role, m in fact.attr_sets if role == "dep")
            encoding = (
                fact.kind,
                _sorted(attr_index[a] for a in det),
                _sorted(attr_index[a] for a in dep),
            )
        encodings.append(encoding)
    premises = _sorted(
        enc for enc, fact in zip(encodings, facts) if not fact.is_conclusion
    )
    conclusion = next(
        enc for enc, fact in zip(encodings, facts) if fact.is_conclusion
    )
    return ("problem", premises, conclusion)


def canonical_encoding(problem: ImplicationProblem) -> tuple:
    """The canonical (renaming-invariant) structure of a problem.

    Equal for any two problems related by a bijection of attributes and a
    per-dependency bijection of tableau values; also invariant under
    premise reordering and duplicate premises collapse *not* applied (the
    premise multiset is preserved).  Raises
    :class:`CanonicalizationError` for unsupported dependency classes and
    pathological symmetry.
    """
    facts = [_extract_facts(d, False) for d in problem.premises]
    facts.append(_extract_facts(problem.conclusion, True))
    attrs = sorted({a for f in facts for a in f.attrs}, key=lambda a: a.name)
    by_name = {a.name: a for a in attrs}
    coloring = _initial_coloring(facts, attrs)
    _refine(facts, coloring, by_name)

    best: List[Optional[tuple]] = [None]
    budget = [_MAX_LEAVES]

    def explore(coloring: _Coloring) -> None:
        groups: Dict[int, list] = {}
        for attr in attrs:
            groups.setdefault(coloring.acolor[attr], []).append(attr)
        non_singletons = [g for g in groups.values() if len(g) > 1]
        if not non_singletons:
            budget[0] -= 1
            if budget[0] < 0:
                raise CanonicalizationError(
                    "attribute symmetry exceeded the canonicalization budget"
                )
            encoding = _encode_problem(facts, coloring, attrs, budget)
            if best[0] is None or repr(encoding) < repr(best[0]):
                best[0] = encoding
            return
        target = min(
            non_singletons, key=lambda g: (len(g), coloring.acolor[g[0]])
        )
        fresh = max(coloring.acolor.values()) + 1
        for attr in sorted(target, key=lambda a: a.name):
            branched = coloring.clone()
            branched.acolor[attr] = fresh
            _refine(facts, branched, by_name)
            explore(branched)

    explore(coloring)
    assert best[0] is not None
    return best[0] + (problem.finite,)


def canonical_key(problem: ImplicationProblem, context: tuple = ()) -> str:
    """A stable digest of the canonical form (prefix ``c:``).

    ``context`` scopes the key to a solving context (universe and budgets):
    two solvers with different configurations must not share cache entries
    even through a process-shared store.
    """
    encoding = canonical_encoding(problem)
    payload = repr((encoding, context)).encode("utf-8")
    return "c:" + hashlib.sha256(payload).hexdigest()


# ---------------------------------------------------------------------------
# Deterministic syntactic encoding (the key of a problem as written).
# ---------------------------------------------------------------------------


def _syntactic_dependency(dependency: Dependency) -> tuple:
    if isinstance(dependency, FunctionalDependency):
        return (
            "fd",
            tuple(sorted(a.name for a in dependency.determinant)),
            tuple(sorted(a.name for a in dependency.dependent)),
        )
    if isinstance(dependency, MultivaluedDependency):
        return (
            "mvd",
            tuple(sorted(a.name for a in dependency.determinant)),
            tuple(sorted(a.name for a in dependency.dependent)),
        )
    if isinstance(dependency, ProjectedJoinDependency):
        # Component order participates in pjd equality, so it is preserved.
        return (
            "pjd",
            tuple(tuple(sorted(a.name for a in c)) for c in dependency.components),
            tuple(sorted(a.name for a in dependency.projection)),
        )
    if isinstance(dependency, TemplateDependency):
        return (
            "td",
            _syntactic_relation(dependency.body),
            _syntactic_row(dependency.conclusion),
        )
    if isinstance(dependency, EqualityGeneratingDependency):
        return (
            "egd",
            _syntactic_relation(dependency.body),
            _sorted(
                ((v.name, v.tag) for v in (dependency.left, dependency.right))
            ),
        )
    raise CanonicalizationError(
        f"no syntactic encoding for dependency class {type(dependency).__name__}"
    )


def _syntactic_row(row: Union[Row, Mapping[Attribute, Value]]) -> tuple:
    items = row.items()
    return tuple(
        (a.name, v.name, v.tag) for a, v in sorted(items, key=lambda av: av[0].name)
    )


def _syntactic_relation(relation: Relation) -> tuple:
    universe = tuple(sorted(a.name for a in relation.universe))
    rows = _sorted(_syntactic_row(row) for row in relation.rows)
    return (universe, rows)


def syntactic_encoding(problem: ImplicationProblem) -> tuple:
    """A deterministic structure equal iff the problems are ``==``.

    Injective with respect to dependency equality (display names and egd
    orientation are excluded, exactly as ``Dependency.__eq__`` excludes
    them) and sensitive to premise order, exactly like ``==`` on the
    ``(premises, conclusion, finite)`` triple.
    """
    return (
        "problem",
        tuple(_syntactic_dependency(d) for d in problem.premises),
        _syntactic_dependency(problem.conclusion),
        problem.finite,
    )


def syntactic_key(problem: ImplicationProblem, context: tuple = ()) -> str:
    """A stable digest of the problem exactly as written (prefix ``s:``)."""
    encoding = syntactic_encoding(problem)
    payload = repr((encoding, context)).encode("utf-8")
    return "s:" + hashlib.sha256(payload).hexdigest()


# ---------------------------------------------------------------------------
# Renaming helpers (used by the property tests and the benchmark workload).
# ---------------------------------------------------------------------------


def rename_dependency(
    dependency: Dependency,
    attr_map: Optional[Mapping[AttributeLike, AttributeLike]] = None,
    value_names: Optional[Mapping[str, str]] = None,
) -> Dependency:
    """Apply an attribute bijection and a value renaming to one dependency.

    ``attr_map`` maps old attributes (objects or names) to new ones;
    missing attributes stay put.  ``value_names`` maps value *names*; tags
    of typed values follow the attribute map automatically, so renamed
    typed tableaux stay typed.
    """
    translation = {
        as_attribute(old): as_attribute(new) for old, new in (attr_map or {}).items()
    }
    names = dict(value_names or {})

    def ren_attr(attr: Attribute) -> Attribute:
        return translation.get(attr, attr)

    def ren_value(value: Value) -> Value:
        name = names.get(value.name, value.name)
        tag = value.tag
        if tag is not None:
            tag = ren_attr(Attribute(tag)).name
        return Value(name, tag)

    def ren_row(row) -> Row:
        return Row({ren_attr(a): ren_value(v) for a, v in row.items()})

    def ren_relation(relation: Relation) -> Relation:
        universe = Universe([ren_attr(a) for a in relation.universe])
        return Relation(universe, (ren_row(row) for row in relation.rows))

    if isinstance(dependency, FunctionalDependency):
        return FunctionalDependency(
            [ren_attr(a) for a in dependency.determinant],
            [ren_attr(a) for a in dependency.dependent],
            name=dependency.name,
        )
    if isinstance(dependency, MultivaluedDependency):
        return MultivaluedDependency(
            [ren_attr(a) for a in dependency.determinant],
            [ren_attr(a) for a in dependency.dependent],
            name=dependency.name,
        )
    if isinstance(dependency, JoinDependency):
        return JoinDependency(
            [[ren_attr(a) for a in c] for c in dependency.components],
            name=dependency.name,
        )
    if isinstance(dependency, ProjectedJoinDependency):
        return ProjectedJoinDependency(
            [[ren_attr(a) for a in c] for c in dependency.components],
            projection=[ren_attr(a) for a in dependency.projection],
            name=dependency.name,
        )
    if isinstance(dependency, TemplateDependency):
        return TemplateDependency(
            ren_row(dependency.conclusion),
            ren_relation(dependency.body),
            name=dependency.name,
        )
    if isinstance(dependency, EqualityGeneratingDependency):
        return EqualityGeneratingDependency(
            ren_value(dependency.left),
            ren_value(dependency.right),
            ren_relation(dependency.body),
            name=dependency.name,
        )
    raise CanonicalizationError(
        f"cannot rename dependency class {type(dependency).__name__}"
    )


def rename_problem(
    problem: ImplicationProblem,
    attr_map: Optional[Mapping[AttributeLike, AttributeLike]] = None,
    value_names: Optional[Mapping[str, str]] = None,
) -> ImplicationProblem:
    """The image of a whole problem under one attribute/value renaming."""
    return ImplicationProblem.of(
        [rename_dependency(d, attr_map, value_names) for d in problem.premises],
        rename_dependency(problem.conclusion, attr_map, value_names),
        finite=problem.finite,
    )


__all__ = [
    "CanonicalizationError",
    "canonical_encoding",
    "canonical_key",
    "rename_dependency",
    "rename_problem",
    "syntactic_encoding",
    "syntactic_key",
]

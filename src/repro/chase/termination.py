"""Chase termination analysis: totality and weak acyclicity.

The chase with arbitrary template dependencies need not terminate -- if it
always did, implication would be decidable, contradicting the theorem the
library reproduces.  Two sufficient termination conditions are implemented:

* **totality**: if every td in the set is total (no existential values), a
  chase step never invents a new value, so the tableau can only grow to the
  finite set of rows over the existing values; the chase terminates.  All
  fds, egds, total jds and total mvds fall in this fragment, which is how the
  library's decidable implication procedures are justified.
* **weak acyclicity** (Fagin et al.): a condition on the flow of values from
  universal to existential positions, strictly more liberal than totality.

Only the weak-acyclicity certificate needs networkx, and it imports it
when called: no solve path asks for it, so ``import repro`` and the
totality test stay dependency-free.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence, Union

from repro.dependencies.egd import EqualityGeneratingDependency
from repro.dependencies.td import TemplateDependency

if TYPE_CHECKING:
    import networkx as nx

ChaseDependency = Union[TemplateDependency, EqualityGeneratingDependency]


def all_total(dependencies: Iterable[ChaseDependency]) -> bool:
    """Whether every template dependency in the set is total.

    Egds never introduce values, so they are ignored by this test.
    """
    return all(
        dependency.is_total()
        for dependency in dependencies
        if isinstance(dependency, TemplateDependency)
    )


def dependency_graph(dependencies: Sequence[ChaseDependency]) -> nx.MultiDiGraph:
    """The position graph used by the weak-acyclicity test.

    Positions are the attributes of the (single-relation) universe.  For each
    td ``(w, I)`` and each value ``x`` occurring in the body at position
    ``A`` *and* propagated to the conclusion:

    * for every conclusion position ``B`` carrying ``x``, add a regular edge
      ``A -> B``;
    * for every conclusion position ``B`` carrying an existential value, add
      a special edge ``A -> B`` (the fresh value created there depends on
      ``x``).
    """
    import networkx as nx

    graph = nx.MultiDiGraph()
    for dependency in dependencies:
        if not isinstance(dependency, TemplateDependency):
            continue
        universe = dependency.universe
        graph.add_nodes_from(attr.name for attr in universe)
        body_positions: dict = {}
        for row in dependency.body:
            for attr, value in row.items():
                body_positions.setdefault(value, set()).add(attr)
        conclusion = dependency.conclusion
        body_values = dependency.body.values()
        existential_positions = [
            attr for attr, value in conclusion.items() if value not in body_values
        ]
        for value, positions in body_positions.items():
            conclusion_positions = [
                attr for attr, cell in conclusion.items() if cell == value
            ]
            if not conclusion_positions:
                continue
            for source in positions:
                for target in conclusion_positions:
                    graph.add_edge(source.name, target.name, special=False)
                for target in existential_positions:
                    graph.add_edge(source.name, target.name, special=True)
    return graph


def is_weakly_acyclic(dependencies: Sequence[ChaseDependency]) -> bool:
    """Whether the dependency set is weakly acyclic.

    Weak acyclicity requires that no cycle of the position graph traverses a
    special edge.  When it holds, every chase sequence terminates in
    polynomially many steps (in the instance size), so the chase decides both
    implication and finite implication for such a set.
    """
    import networkx as nx

    graph = dependency_graph(dependencies)
    for component in nx.strongly_connected_components(graph):
        if len(component) == 1:
            node = next(iter(component))
            if not graph.has_edge(node, node):
                continue
        for source in component:
            for target in component:
                if not graph.has_edge(source, target):
                    continue
                for _, data in graph.get_edge_data(source, target).items():
                    if data.get("special"):
                        return False
    return True


def guaranteed_terminating(dependencies: Sequence[ChaseDependency]) -> bool:
    """Whether the library can certify chase termination for this set.

    Either of the two sufficient conditions (totality, weak acyclicity) is
    accepted.  A ``False`` answer does not mean the chase diverges -- the
    question is undecidable in general -- only that no certificate was found.
    """
    return all_total(dependencies) or is_weakly_acyclic(dependencies)

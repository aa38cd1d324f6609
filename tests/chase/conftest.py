"""The randomized td/egd case generator shared by the chase property suites.

``tests/chase`` has no ``__init__.py`` and the suite runs under
``--import-mode=importlib``, so test modules cannot import each other; the
generator reaches them as the :func:`random_case` fixture instead.

Every generated case is guaranteed to apply at least one chase step: the
instance carries a planted body image of one dependency that the image
violates, and the row cap leaves room for that trigger to fire.  Unplanted,
about a third of random mixes are already models of their dependencies and
apply no step, which leaves any suite built on them partly vacuous.
"""

import random

import pytest

from repro.chase.steps import find_triggers, initial_state
from repro.config import ChaseBudget
from repro.dependencies import (
    EqualityGeneratingDependency,
    FunctionalDependency,
    JoinDependency,
    TemplateDependency,
    fd_to_egds,
    jd_to_td,
)
from repro.model.attributes import Universe
from repro.model.instances import random_typed_relation
from repro.model.tuples import Row
from repro.model.valuations import Valuation
from repro.model.values import Value, typed

ABC = Universe.from_names("ABC")


def _random_td(rng: random.Random, case: int) -> TemplateDependency:
    """A random typed td over ABC, possibly with existential conclusion values."""
    body = random_typed_relation(
        ABC, rows=rng.randint(1, 2), domain_size=2, seed=rng.randint(0, 10**6)
    )
    cells = {}
    for attr in ABC.attributes:
        column = sorted(
            (v for v in body.values() if v.tag == attr.name), key=lambda v: v.name
        )
        if column and rng.random() < 0.7:
            cells[attr] = rng.choice(column)
        else:
            cells[attr] = typed(f"x{case}{attr.name.lower()}", attr)
    return TemplateDependency(Row(cells), body)


def _random_egd(rng: random.Random) -> EqualityGeneratingDependency:
    body = random_typed_relation(
        ABC, rows=2, domain_size=2, seed=rng.randint(0, 10**6)
    )
    attr = rng.choice(ABC.attributes)
    column = sorted(
        (v for v in body.values() if v.tag == attr.name), key=lambda v: v.name
    )
    left = rng.choice(column)
    right = rng.choice(column)
    return EqualityGeneratingDependency(left, right, body)


def _violated_body_image(rng: random.Random, deps: list):
    """A body image of one of ``deps`` that the dependency fails on, or None.

    The image is the body with every value renamed to a fresh ``p``-prefixed
    name (the random relations only use ``a0``-style names).  A dependency
    with an active trigger on its own body then has one on the image, and
    once planted no original row of the instance can witness its conclusion,
    so the trigger stays active in the combined instance.
    """
    for dep in rng.sample(deps, len(deps)):
        if next(find_triggers(initial_state(dep.body), dep), None) is None:
            continue
        rename = Valuation(
            {value: Value(f"p{value.name}", value.tag) for value in dep.body.values()}
        )
        return rename.apply_relation(dep.body)
    return None


def make_random_case(seed: int):
    """``(instance, dependencies, budget)`` for one randomized td/egd mix."""
    rng = random.Random(seed)
    instance = random_typed_relation(
        ABC, rows=rng.randint(2, 5), domain_size=rng.randint(2, 3), seed=seed
    )
    deps = []
    for _ in range(rng.randint(1, 3)):
        roll = rng.random()
        if roll < 0.30:
            deps.append(jd_to_td(JoinDependency([["A", "B"], ["A", "C"]]), ABC))
        elif roll < 0.55:
            deps.extend(
                fd_to_egds(FunctionalDependency(["A"], [rng.choice("BC")]), ABC)
            )
        elif roll < 0.80:
            deps.append(_random_td(rng, seed))
        else:
            deps.append(_random_egd(rng))
    planted = _violated_body_image(rng, deps)
    if planted is None:
        # Every drawn dependency holds on its own body (trivial egds, tds
        # whose conclusion is a body row): add the mvd, which never does.
        deps.append(jd_to_td(JoinDependency([["A", "B"], ["A", "C"]]), ABC))
        planted = _violated_body_image(rng, deps[-1:])
    instance = instance.with_rows(planted.rows)
    budget = ChaseBudget(
        max_steps=rng.choice([3, 10, 60, 500]),
        max_rows=len(instance) + rng.choice([1, 25, 495]),
    )
    return instance, deps, budget


@pytest.fixture(scope="session")
def random_case():
    """The shared generator: ``random_case(seed) -> (instance, deps, budget)``."""
    return make_random_case

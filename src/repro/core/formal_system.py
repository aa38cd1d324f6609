"""Formal systems for dependency implication (Section 6, Theorems 7 and 8).

The paper distinguishes two notions:

* a **formal system** is a recursive set of pairs ``(Sigma, (sigma_1, ...,
  sigma_k))`` -- premise set plus proof sequence -- sound and complete for
  implication;
* a **universe-bounded formal system** fixes the universe per proof; because
  there are only finitely many U-pjds for a fixed ``U``, a sound and
  complete universe-bounded system would make implication decidable --
  contradiction (Theorem 7).  The same argument applies to k-simple tds,
  confirming Sciore's conjecture.
* Theorem 8: a (non-universe-bounded) sound and complete system *does*
  exist, because the td-to-pjd reduction lets a proof escape into a larger
  universe.

The library realises these notions executably:

* :class:`Proof` / :class:`UniverseBoundedProof` -- proof objects;
* :class:`ChaseProofSystem` -- a concrete, checkable proof format (a chase
  certificate) that is sound, and complete for every implication the chase
  can witness within a stated budget;
* :func:`finitely_many_pjds` / :func:`decision_procedure_from_bounded_system`
  -- the executable content of Theorem 7's counting argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.config import ChaseBudget
from repro.dependencies.base import Dependency
from repro.dependencies.pjd import ProjectedJoinDependency, all_pjds_over
from repro.implication.chase_prover import prove
from repro.implication.normalize import normalize_all, normalize_dependency
from repro.implication.problem import Verdict
from repro.model.attributes import Universe
from repro.util.errors import FormalSystemError


@dataclass(frozen=True)
class Proof:
    """A proof object: premises plus a repetition-free proof sequence.

    The intended reading is that the last element of ``sequence`` is the
    proved dependency; intermediate elements are lemmas.
    """

    premises: tuple[Dependency, ...]
    sequence: tuple[Dependency, ...]

    def __post_init__(self) -> None:
        if not self.sequence:
            raise FormalSystemError("a proof must derive at least one dependency")
        if len(set(id(s) for s in self.sequence)) != len(self.sequence):
            # Identity-level duplicates are certainly repetitions; value-level
            # duplicates are caught by the describing system's verifier.
            raise FormalSystemError("a proof sequence must be repetition-free")

    @property
    def conclusion(self) -> Dependency:
        """The dependency the proof claims to establish."""
        return self.sequence[-1]


@dataclass(frozen=True)
class UniverseBoundedProof:
    """A proof carrying its universe, as in the paper's second notion."""

    universe: Universe
    premises: tuple[Dependency, ...]
    sequence: tuple[Dependency, ...]

    @property
    def conclusion(self) -> Dependency:
        """The dependency the proof claims to establish."""
        return self.sequence[-1]


class ChaseProofSystem:
    """A sound formal system whose proofs are chase certificates.

    A proof is accepted when re-running the chase of the conclusion's body
    with the premise set (under the system's fixed budget) establishes the
    conclusion.  Soundness is immediate from the soundness of the chase.
    The system is complete *relative to its budget*: every implication the
    chase can witness within the budget's ``max_steps`` chase steps has an
    accepted proof (``budget=None`` means ``ChaseBudget()``).  An absolutely complete *and* recursive system for finite
    implication cannot exist -- that is the corollary to Theorem 2/6 -- so
    the budget is not an implementation shortcut but the honest boundary.
    """

    def __init__(
        self,
        universe: Universe,
        *,
        budget: Optional[ChaseBudget] = None,
    ) -> None:
        self._universe = universe
        self._budget = budget if budget is not None else ChaseBudget()

    @property
    def universe(self) -> Universe:
        """The universe proofs are interpreted over."""
        return self._universe

    @property
    def budget(self) -> ChaseBudget:
        """The chase budget every proof attempt and verification runs under."""
        return self._budget

    def prove(
        self, premises: Sequence[Dependency], conclusion: Dependency
    ) -> Optional[Proof]:
        """Attempt to produce an accepted proof of ``premises |= conclusion``."""
        primitives = normalize_all(premises, self._universe)
        targets = normalize_dependency(conclusion, self._universe)
        for target in targets:
            outcome = prove(primitives, target, budget=self._budget)
            if outcome.verdict is not Verdict.IMPLIED:
                return None
        return Proof(tuple(premises), (conclusion,))

    def verify(self, proof: Proof) -> bool:
        """Check a proof by replaying the chase for every step.

        Each element of the sequence must follow from the premises plus the
        earlier elements.
        """
        established: list[Dependency] = []
        for step in proof.sequence:
            available = [*proof.premises, *established]
            primitives = normalize_all(available, self._universe)
            targets = normalize_dependency(step, self._universe)
            for target in targets:
                outcome = prove(primitives, target, budget=self._budget)
                if outcome.verdict is not Verdict.IMPLIED:
                    return False
            established.append(step)
        return True


def finitely_many_pjds(universe: Universe, max_components: int = 2) -> int:
    """Count the U-pjds with a bounded number of components.

    The crucial (and only) property of pjds used by Theorem 7 is that for a
    fixed universe there are finitely many of them; this function makes the
    count concrete for small universes.
    """
    return len(all_pjds_over(universe, max_components=max_components))


def decision_procedure_from_bounded_system(
    universe: Universe,
    premises: Sequence[ProjectedJoinDependency],
    conclusion: ProjectedJoinDependency,
    membership_oracle: Callable[[UniverseBoundedProof], bool],
    max_components: int = 2,
    max_length: int = 2,
) -> bool:
    """The Theorem 7 argument, executably.

    Given a *universe-bounded* formal system (represented by its recursive
    membership oracle), enumerate every repetition-free proof sequence of
    U-pjds up to ``max_length`` ending in the conclusion and ask the oracle.
    For a sound and complete bounded system this decides ``premises |=
    conclusion`` -- which is impossible in general, hence Theorem 7.  The
    enumeration is genuinely finite, which is the whole point; the bounds
    keep it small enough to run in tests.
    """
    from itertools import permutations

    candidates = [
        pjd for pjd in all_pjds_over(universe, max_components=max_components)
    ]
    pool = [pjd for pjd in candidates if pjd != conclusion]
    for length in range(1, max_length + 1):
        for prefix in permutations(pool, length - 1):
            sequence = (*prefix, conclusion)
            proof = UniverseBoundedProof(universe, tuple(premises), sequence)
            if membership_oracle(proof):
                return True
    return False


def chase_membership_oracle(
    system: ChaseProofSystem,
) -> Callable[[UniverseBoundedProof], bool]:
    """Wrap a :class:`ChaseProofSystem` as a universe-bounded membership oracle.

    Used by tests and benchmarks to exercise
    :func:`decision_procedure_from_bounded_system` with a sound (though, by
    necessity, budget-incomplete) system.
    """

    def oracle(proof: UniverseBoundedProof) -> bool:
        return system.verify(Proof(proof.premises, proof.sequence))

    return oracle

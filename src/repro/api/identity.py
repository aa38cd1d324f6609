"""Problem identity: the one key object behind every dedup layer.

The batch memoizer, the async in-flight table and the service coalescer
all key on :class:`ProblemIdentity`, so they share one hit accounting and,
through string keys, entries across processes (dependency objects don't
have stable cross-process hashes).  An identity carries

* ``cache_key`` -- a stable string the store indexes by: the syntactic
  digest in ``syntactic`` mode, the renaming-invariant canonical digest of
  :mod:`repro.model.canon` in ``canonical`` mode;
* ``fingerprint`` -- always the syntactic digest, so layers can classify a
  hit: same fingerprint means the exact problem was seen before
  (*syntactic* hit), different fingerprint under one cache key means a
  renamed twin was (*canonical* hit).

Identities compare and hash on ``(mode, cache_key)`` only, which is what
makes two isomorphic problems collide in every dedup table when canonical
mode is on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.implication.problem import ImplicationProblem
from repro.model.canon import CanonicalizationError, canonical_key, syntactic_key

#: The identity modes a solver can run under (``CacheConfig.mode`` resolves
#: to one of these).
IDENTITY_MODES = ("syntactic", "canonical")


@dataclass(frozen=True, eq=False)
class ProblemIdentity:
    """The cache identity of one implication problem.

    Attributes
    ----------
    mode:
        ``"syntactic"`` or ``"canonical"`` -- the regime the key was
        computed under.  Part of equality, so one table never mixes keys
        of different regimes.
    cache_key:
        The stable string the stores index by (``s:...`` / ``c:...``).
    fingerprint:
        The syntactic digest of the problem exactly as written; used to
        classify hits as syntactic (same statement) or canonical (renamed
        twin), never for lookup in canonical mode.
    canonical_fallback:
        True when canonical mode was requested but the problem has no
        computable canonical form (unsupported dependency class or a
        symmetry blow-up); the identity then degrades to the syntactic
        key, which is always sound.
    """

    mode: str
    cache_key: str
    fingerprint: str
    canonical_fallback: bool = False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProblemIdentity):
            return NotImplemented
        return self.mode == other.mode and self.cache_key == other.cache_key

    def __hash__(self) -> int:
        return hash((self.mode, self.cache_key))


def identity_of(
    problem: ImplicationProblem,
    mode: str = "syntactic",
    context: tuple = (),
) -> ProblemIdentity:
    """Compute a problem's identity under the given mode.

    ``context`` scopes keys to a solving context (universe, budgets): two
    differently-configured solvers sharing one process-wide store must not
    serve each other's entries.  Canonical mode falls back to the
    syntactic key when no canonical form is computable.
    """
    if mode not in IDENTITY_MODES:
        raise ValueError(
            f"unknown identity mode {mode!r}; expected one of {IDENTITY_MODES}"
        )
    fingerprint = syntactic_key(problem, context)
    if mode == "canonical":
        try:
            return ProblemIdentity(
                "canonical", canonical_key(problem, context), fingerprint
            )
        except CanonicalizationError:
            return ProblemIdentity(
                "canonical", fingerprint, fingerprint, canonical_fallback=True
            )
    return ProblemIdentity("syntactic", fingerprint, fingerprint)


__all__ = ["IDENTITY_MODES", "ProblemIdentity", "identity_of"]

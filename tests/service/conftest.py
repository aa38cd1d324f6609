"""Shared service-test helpers: a solver that holds every batch in flight."""

import time

import pytest

from repro.api.solver import Solver


class HeldSolver(Solver):
    """A solver whose every ``solve_many`` batch takes ``hold`` seconds more.

    The service dispatches each batch on the next event-loop turn, so a
    cheap solve is answered within a millisecond or two.  Tests that need
    requests to stay in flight (a deadline that must expire first, a flood
    that must exceed its in-flight cap) hold them here instead of relying
    on how long a solve happens to take.
    """

    def __init__(self, *args, hold: float, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._hold = hold

    def solve_many(self, problems, **kwargs):
        time.sleep(self._hold)
        return super().solve_many(problems, **kwargs)


@pytest.fixture
def held_solver():
    """Factory fixture: ``held_solver(hold, **solver_kwargs)``."""

    def make(hold: float, **kwargs) -> HeldSolver:
        return HeldSolver(hold=hold, **kwargs)

    return make

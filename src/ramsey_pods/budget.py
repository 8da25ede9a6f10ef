"""Node-count and wall-clock budgets shared by the exact search kernels."""

from __future__ import annotations

import time
from dataclasses import dataclass


class BudgetExceeded(Exception):
    """A search ran out of nodes or time.

    ``best`` carries the best certificate found before the budget tripped,
    when the caller has one; it is a sound bound, never a claimed optimum.
    """

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class Budget:
    """Limits for a single search run; whichever trips first wins."""

    max_nodes: int | None = None
    max_seconds: float | None = None

    def start(self) -> "BudgetClock":
        return BudgetClock(self)


class BudgetClock:
    """Mutable tracker for one run against a Budget."""

    _CHECK_EVERY = 256

    def __init__(self, budget: Budget):
        self.budget = budget
        self.nodes = 0
        self.t0 = time.monotonic()

    def tick(self) -> None:
        """Charge one node; raises BudgetExceeded when a limit trips."""
        self.nodes += 1
        b = self.budget
        if b.max_nodes is not None and self.nodes > b.max_nodes:
            raise BudgetExceeded(f"node budget {b.max_nodes} exceeded")
        if b.max_seconds is not None and self.nodes % self._CHECK_EVERY == 0:
            if time.monotonic() - self.t0 > b.max_seconds:
                raise BudgetExceeded(f"wall budget {b.max_seconds}s exceeded")

    def elapsed(self) -> float:
        return time.monotonic() - self.t0

    def remaining(self) -> Budget:
        """What is left of the budget, for a sub-search that shares it.

        The sub-search's nodes are charged back by adding them to ``nodes``.
        """
        b = self.budget
        return Budget(
            None if b.max_nodes is None else b.max_nodes - self.nodes,
            None if b.max_seconds is None else b.max_seconds - self.elapsed(),
        )

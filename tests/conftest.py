"""Shared fixtures."""

import numpy as np
import pytest

from photondemux import converter, source


@pytest.fixture
def landings(monkeypatch):
    """Full landing tables of the routing calls made since the last read.

    Calling the fixture's value returns the summed (n, n + 2) table the
    routers drew: photon i detected on port 0..n-1, lost in the optics,
    and arrived undetected.  A routing batch keeps only the first n
    columns, so photon conservation is checked here.
    """
    seen: list[np.ndarray] = []
    count_runs = converter._count_runs

    def spy(groups, laws, rng):
        counts, successes = count_runs(groups, laws, rng)
        seen.append(counts)
        return counts, successes

    monkeypatch.setattr(converter, "_count_runs", spy)

    def read() -> np.ndarray:
        total = sum(seen)
        seen.clear()
        return total

    return read


def _count_up_to(monkeypatch, largest):
    monkeypatch.setattr(source, "_largest_counted", lambda q, window: largest)
    source._counted_law.cache_clear()


@pytest.fixture
def largest_three(monkeypatch):
    """Count clusters of at most three pairs (K = 3), at any window.

    The source's own K (13 at pair_prob 0.3 and deadtime 0, 5 at the
    two-mode point) places almost no cluster in a short range; the laws
    the tests check hold for any K, and at K = 3 counted, placed and cut
    clusters all occur.
    """
    _count_up_to(monkeypatch, 3)
    yield
    source._counted_law.cache_clear()


@pytest.fixture
def largest_two(monkeypatch):
    """Count only clusters of two pairs (K = 2), as the source does at 23 to 512 slots:
    at a wider window than one slot the gap classes are then the close gaps of
    1..w slots, and every cluster of three or more pairs is placed."""
    _count_up_to(monkeypatch, 2)
    yield
    source._counted_law.cache_clear()

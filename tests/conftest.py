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


@pytest.fixture
def largest_three(monkeypatch):
    """Count clusters of at most three pairs at a window of one slot (K = 3).

    The source's own K (13 at pair_prob 0.3) places almost no cluster in a
    short range; the laws the tests check hold for any K, and at K = 3
    counted, placed and cut clusters all occur.
    """
    monkeypatch.setattr(source, "_largest_counted", lambda q: 3)
    source._counted_law.cache_clear()
    yield
    source._counted_law.cache_clear()

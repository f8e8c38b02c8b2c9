"""Shared helpers: deterministic parameter samples inside the blocking regions,
the coexistence state and the change to the cooperative frame, and the
hypothesis profile every test runs under."""

from hypothesis import settings

from wavespeed.model import CompetitionParams
from wavespeed.theory import m_of_k

# Every run draws the same examples: the seed comes from each test itself,
# no example database replays earlier failures, and no deadline applies.
settings.register_profile("wavespeed", derandomize=True, deadline=None, database=None)
settings.load_profile("wavespeed")


def blocking_sample_points():
    """Twenty (d, r, k1, k2) tuples spread across both blocking regions.

    d is placed relative to each region's own ratio bounds so the sample
    tracks the regions as (k1, k2, r) vary; used by the certification
    round-trip tests.
    """
    pts = []
    # Region N1: k1 >= m(k2), ratio above the branch bound.
    for k2, k1, r in [
        (1.2, 2.2, 1.0),
        (1.5, 1.9, 1.0),
        (1.5, 4.0, 2.0),
        (2.0, 2.0, 1.0),
        (2.0, 5.0, 1.0),
        (2.0, 5.0, 0.5),
        (3.0, 3.0, 1.0),
        (3.0, 6.0, 1.0),
        (5.0, 4.5, 1.0),
        (5.0, 9.0, 2.0),
        (1.1, 1.6, 1.0),
        (4.0, 8.0, 1.0),
    ]:
        m = m_of_k(k2)
        assert k1 >= m
        if k1 < 2.0:
            bound = 6 * k1**2 * (k2 - 1) / ((k1 - 1) ** 2 * (k1 + 4))
        elif k2 <= 2.0:
            bound = 4 * (k2 - 1) / (k1 - 1)
        else:
            bound = 2 * k2 * m / (2 * k1 - m)
        pts.append((1.6 * bound * r, r, k1, k2))
    # Region N2: 1 < k1 < m(k2), ratio at the middle of the strip.
    for k2, frac, r in [
        (1.5, 0.85, 1.0),
        (1.8, 0.8, 1.0),
        (2.0, 0.9, 1.0),
        (2.0, 0.9, 2.0),
        (3.0, 0.92, 1.0),
        (5.0, 0.93, 1.0),
        (1.3, 0.9, 1.0),
        (4.0, 0.95, 0.5),
    ]:
        m = m_of_k(k2)
        k1 = 1.0 + frac * (m - 1.0)
        assert 2 * k1 > m
        lower = m * m / (k1 - 1) if k2 <= 2 else 2 * k2 * m / (2 * k1 - m)
        upper = m * (k2 - 1) / (m - k1)
        assert lower < upper
        pts.append((0.5 * (lower + upper) * r, r, k1, k2))
    assert len(pts) == 20
    return pts


def coexistence(params: CompetitionParams) -> tuple[float, float]:
    """Unstable coexistence state (U*, V*) = ((k1-1)/(k1 k2 - 1), (k2-1)/(k1 k2 - 1))."""
    den = params.k1 * params.k2 - 1.0
    return (params.k1 - 1.0) / den, (params.k2 - 1.0) / den


def to_cooperative(U, V):
    """Change of variables (u, v) = (U, 1 - V); maps (0,1) -> (0,0), (1,0) -> (1,1)."""
    return U, 1.0 - V

"""Scalar reference for the criterion table.

Every criterion stated on Python floats, one point at a time, with
``math.sqrt``, ``math.floor`` and Python's ``**``.  The tests compare
``theory.evaluate_criteria`` (on one point and on arrays) and
``theory.classify`` with it hit by hit, so a change to a predicate of the
table that moves a single boundary point shows up here.  It keeps its own
list of rows, with their order, polarity and symmetric-only flag, and reads
nothing of ``theory.CRITERIA``.
"""

from __future__ import annotations

import math

from wavespeed.model import CompetitionParams, validate
from wavespeed.theory import (
    CriterionId,
    PolarityConflictError,
    Sign,
    SignVerdict,
)


def m_of_k(k: float) -> float:
    if k < 1.0:
        raise ValueError(f"m(k) requires k >= 1, got {k!r}")
    return (math.sqrt(24.0 * k + 1.0) - 3.0) / 2.0


def _n1_ratio_bound(k1: float, k2: float) -> float:
    """Lower bound on d/r in criterion N1 (assumes k1 >= m(k2))."""
    if k1 < 2.0:
        return 6.0 * k1 * k1 * (k2 - 1.0) / ((k1 - 1.0) ** 2 * (k1 + 4.0))
    if k2 <= 2.0:
        return 4.0 * (k2 - 1.0) / (k1 - 1.0)
    m = m_of_k(k2)
    return 2.0 * k2 * m / (2.0 * k1 - m)


def _n1_threshold(k1: float, k2: float) -> float:
    """The d/r threshold of N1: its ratio bound, or inf where k1 < m(k2)."""
    if k1 < m_of_k(k2):
        return math.inf
    return _n1_ratio_bound(k1, k2)


def criterion_n1(params: CompetitionParams) -> bool:
    """c < 0 when k1 >= m(k2) and d/r exceeds the branch-dependent bound."""
    return params.ratio > _n1_threshold(params.k1, params.k2)


def criterion_n2(params: CompetitionParams) -> bool:
    """c < 0 on a d/r strip when 1 < k1 < m(k2).

    For k2 > 2 the strip exists only when 2 k1 > m(k2); that requirement is
    what keeps the lower end of the strip positive and the criterion
    consistent with the positive-speed criterion pos1.
    """
    k1, k2 = params.k1, params.k2
    m = m_of_k(k2)
    if not (1.0 < k1 < m):
        return False
    if k2 <= 2.0:
        lower = m * m / (k1 - 1.0)
    else:
        if 2.0 * k1 <= m:
            return False
        lower = 2.0 * k2 * m / (2.0 * k1 - m)
    upper = m * (k2 - 1.0) / (m - k1)
    return lower < params.ratio < upper


def criterion_neg3(params: CompetitionParams) -> bool:
    """c < 0 for k1 above an explicit threshold in (k2, r/d)."""
    return params.k1 > neg3_threshold(params.d, params.r, params.k2)


def neg3_threshold(d: float, r: float, k2: float) -> float:
    """The k1 half-line endpoint of criterion neg3."""
    if k2 <= 2.0:
        return max(2.0, 1.0 + 4.0 * (r / d) * (k2 - 1.0))
    return m_of_k(k2) * max(1.0, 0.5 + (r / d) * k2)


def criterion_pos1(params: CompetitionParams) -> bool:
    """c > 0 for k1 - 1 below an explicit threshold in (k2, r/d)."""
    excess = params.k1 - 1.0
    return 0.0 < excess < pos1_margin(params.d, params.r, params.k2)


def pos1_margin(d: float, r: float, k2: float) -> float:
    """The k1 - 1 half-line endpoint of criterion pos1."""
    if k2 <= 2.0:
        return (k2 - 1.0) * (k2 + 4.0) / 6.0 * min(1.0, (r / d) * (k2 - 1.0) / (k2 * k2))
    return (k2 - 1.0) * min((k2 + 4.0) / 6.0, r / (4.0 * d))


def criterion_s1_s2(d: float, k: float) -> tuple[bool, bool]:
    """Symmetric-case criteria (r = 1, k1 = k2 = k), evaluated standalone.

    S1: k >= 2 and d > 2 k m(k) / (2 k - m(k)).
    S2: 1 < k < 2 and m(k)^2/(k-1) < d < m(k)(k-1)/(m(k)-k).
    """
    if d <= 0.0 or k <= 1.0:
        raise ValueError("criterion_s1_s2 requires d > 0 and k > 1")
    point = validate(d, 1.0, k, k)
    return _s1(point), _s2(point)


def _s1(params: CompetitionParams) -> bool:
    d, k = params.d, params.k1
    if k < 2.0:
        return False
    m = m_of_k(k)
    return d > 2.0 * k * m / (2.0 * k - m)


def _s2(params: CompetitionParams) -> bool:
    d, k = params.d, params.k1
    if not 1.0 < k < 2.0:
        return False
    m = m_of_k(k)
    # m(k) > k on 1 < k < 2, but the rounded values meet at its ends.
    return k < m and m * m / (k - 1.0) < d < m * (k - 1.0) / (m - k)


def degenerate_ratio_bound(k1: float, k2: float) -> float:
    """Upper bound on d/r in the degenerate criterion; 0 unless k1 > k2^2."""
    if k1 <= k2 * k2:
        return 0.0
    kappa = (k1 * k2) ** (1.0 / 3.0)
    head = 1.0 - (k2 * k2 / k1) ** (1.0 / 3.0)
    return (
        head
        * (math.sqrt(kappa * kappa + kappa + 1.0) + 1.0) ** 2
        / (kappa * (kappa - 1.0) * (kappa + 1.0) ** 2)
    )


def criterion_degenerate(params: CompetitionParams) -> bool:
    """c < 0 when k1 > k2^2 and d/r is below the blocking bound for small diffusion."""
    if params.k1 <= params.k2 * params.k2:
        return False
    return params.ratio < degenerate_ratio_bound(params.k1, params.k2)


def reflect(params: CompetitionParams) -> CompetitionParams:
    """Exchange the two species' roles: (d, r, k1, k2) -> (1/d, 1/r, k2, k1)."""
    return type(params)(1.0 / params.d, 1.0 / params.r, params.k2, params.k1)


def prior_regions(d: float, k: float) -> dict[CriterionId, bool]:
    """Previously established negative-speed regions in the symmetric (d, k) plane.

    (i)    the single point (11/2, 11/6), compared at double precision;
    (ii)   d = 4 and 5/4 <= k <= 4/3;
    (iii)  5/3 < k < 2 and 4 < d < 4/(k-1), excluding d = 2k/(k-1);
    (vii)  a floor-function condition, see :func:`_prior_vii`;
    (viii) 5/3 < k < 2 and 4 < d < 2/(2-k).
    """
    if d <= 0.0 or k <= 1.0:
        raise ValueError("prior_regions requires d > 0 and k > 1")
    point = validate(d, 1.0, k, k)
    return {
        cid: predicate(point)
        for cid, _, _, predicate in ROWS
        if cid.name.startswith("PRIOR_")
    }


def _prior_i(params: CompetitionParams) -> bool:
    return params.d == 11.0 / 2.0 and params.k1 == 11.0 / 6.0


def _prior_ii(params: CompetitionParams) -> bool:
    return params.d == 4.0 and 1.25 <= params.k1 <= 4.0 / 3.0


def _prior_iii(params: CompetitionParams) -> bool:
    d, k = params.d, params.k1
    return 5.0 / 3.0 < k < 2.0 and 4.0 < d < 4.0 / (k - 1.0) and d * (k - 1.0) != 2.0 * k


def _prior_vii(params: CompetitionParams) -> bool:
    d, k = params.d, params.k1
    q = 3.0 * k - 1.0
    term1 = k - d * (k - 1.0) / q
    term2 = 4.0 * d * (k - 1.0) / (q * q) + math.floor(
        2.0 * d * (k + 1.0) / (q * q) - k
    ) * math.floor(k * (5.0 - 3.0 * k) / 2.0)
    return max(term1, term2) < 1.0


def _prior_viii(params: CompetitionParams) -> bool:
    d, k = params.d, params.k1
    return 5.0 / 3.0 < k < 2.0 and 4.0 < d < 2.0 / (2.0 - k)


# (row, polarity, symmetric-only, scalar predicate) of each row of
# ``theory.CRITERIA``, in report order.
ROWS = (
    (CriterionId.N1, -1, False, criterion_n1),
    (CriterionId.N2, -1, False, criterion_n2),
    (CriterionId.NEG3, -1, False, criterion_neg3),
    (CriterionId.S1, -1, True, _s1),
    (CriterionId.S2, -1, True, _s2),
    (CriterionId.DEG_NEG, -1, False, criterion_degenerate),
    (CriterionId.POS1, +1, False, criterion_pos1),
    (CriterionId.PRIOR_I, -1, True, _prior_i),
    (CriterionId.PRIOR_II, -1, True, _prior_ii),
    (CriterionId.PRIOR_III, -1, True, _prior_iii),
    (CriterionId.PRIOR_VII, -1, True, _prior_vii),
    (CriterionId.PRIOR_VIII, -1, True, _prior_viii),
)


def _hits(point: CompetitionParams) -> dict[CriterionId, bool]:
    return {cid: (not symmetric_only or point.symmetric) and predicate(point)
            for cid, _, symmetric_only, predicate in ROWS}


def evaluate(params: CompetitionParams):
    """(direct, reflected) hits of every row, at ``params`` and at its
    reflection, in table order."""
    return _hits(params), _hits(reflect(params))


def verdict(params: CompetitionParams, direct, reflected) -> SignVerdict:
    """Fold the hits of :func:`evaluate` into one sign verdict.

    A reflected hit certifies the opposite of its row's polarity; hits of
    both polarities raise :class:`PolarityConflictError`.
    """
    votes = {-1: [], +1: []}
    mirrored = {-1: [], +1: []}
    for cid, polarity, _, _ in ROWS:
        if direct[cid]:
            votes[polarity].append(cid)
        if reflected[cid]:
            mirrored[-polarity].append(cid)
    negative = tuple(votes[-1] + mirrored[-1])
    positive = tuple(votes[+1] + mirrored[+1])
    if negative and positive:
        raise PolarityConflictError(
            f"criteria of both polarities fired at {params}: "
            f"negative={negative}, positive={positive}"
        )
    if negative:
        return SignVerdict(Sign.NEGATIVE, negative, tuple(mirrored[-1]))
    if positive:
        return SignVerdict(Sign.POSITIVE, positive, tuple(mirrored[+1]))
    return SignVerdict(Sign.INCONCLUSIVE, ())

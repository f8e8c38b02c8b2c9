"""Explicit sign-of-speed criteria and their combination into a verdict.

Each criterion is a sufficient condition for the front speed c of the
bistable competition wave to have a definite sign.  The negative-polarity
criteria certify c < 0; the exchange symmetry

    c(d, r, k1, k2) = -sqrt(d r) c(1/d, 1/r, k2, k1)

turns every negative criterion into a positive one, so :func:`classify`
evaluates the reflectable criteria both directly and on the reflected
parameters.  All inequalities are evaluated exactly as stated, preserving
strict vs non-strict comparisons, with no tolerance padding: the criteria
are sharp-edged sufficient conditions and padding would manufacture false
positives.

The inventory is the single table :data:`CRITERIA`; its report labels:

* N1, N2     -- the two general blocking conditions on (k1, k2, d/r)
* neg3, pos1 -- explicit half-line bounds in k1 bracketing the threshold k*
* S1, S2     -- the symmetric-case (r = 1, k1 = k2) specializations
* degenerate -- the small-d/r condition active for k1 > k2^2
* (i)..(viii)-- previously established symmetric-case regions

Each row carries its predicate in two forms: on one point, read by
:func:`classify`, and on broadcast arrays, read by
:func:`evaluate_criteria_arrays` for plane sweeps.  The two give the same
hits bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .model import CompetitionParams, validate


class PolarityConflictError(RuntimeError):
    """Both a negative and a positive criterion fired: an implementation bug."""


class SearchCapExceeded(RuntimeError):
    """A threshold search exhausted its allowed range."""


class CriterionId(Enum):
    N1 = "N1"
    N2 = "N2"
    NEG3 = "NEG3"
    POS1 = "POS1"
    S1 = "S1"
    S2 = "S2"
    DEG_NEG = "DEG_NEG"
    DEG_POS = "DEG_POS"
    PRIOR_I = "PRIOR_I"
    PRIOR_II = "PRIOR_II"
    PRIOR_III = "PRIOR_III"
    PRIOR_VII = "PRIOR_VII"
    PRIOR_VIII = "PRIOR_VIII"

    # Members are singletons compared by identity; hashing them the same way
    # keeps the criterion dicts cheap (Enum hashes the name in Python code).
    __hash__ = object.__hash__


class Sign(Enum):
    NEGATIVE = "Negative"
    POSITIVE = "Positive"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class SignVerdict:
    """Outcome of criterion evaluation.

    ``fired`` lists every criterion of the winning polarity that held;
    ``fired_reflected`` is the subset that was evaluated on the reflected
    parameters (and therefore predicts the opposite of its native polarity).
    """

    sign: Sign
    fired: tuple[CriterionId, ...]
    fired_reflected: tuple[CriterionId, ...] = ()

    @property
    def reflected(self) -> bool:
        return bool(self.fired_reflected)


@dataclass(frozen=True)
class ThresholdBounds:
    """Bracket 1 < k_lower < k* <= k_upper for the sign-change threshold in k1."""

    k_lower: float
    k_upper: float


def m_of_k(k: float) -> float:
    """The root m(k) = (sqrt(24 k + 1) - 3) / 2 of (m + 1)(m + 2) = 6 k.

    Strictly increasing, with m(1) = 1, m(2) = 2, and m(k) > k exactly on
    1 < k < 2.  It is the smallest admissible profile exponent for which the
    slaved-component residual can change sign, so every criterion below is
    phrased through it.
    """
    if k < 1.0:
        raise ValueError(f"m(k) requires k >= 1, got {k!r}")
    return (math.sqrt(24.0 * k + 1.0) - 3.0) / 2.0


@dataclass(frozen=True)
class ParamArrays:
    """(d, r, k1, k2) as arrays that broadcast together: many points at once.

    The array form of :class:`CompetitionParams`, read by the table's array
    predicates.  It is not validated; callers pass d, r > 0 and k1, k2 > 1.
    Fields are stored as float arrays, so that a division by zero in a
    branch a mask discards gives inf or nan, where Python floats raise.
    """

    d: np.ndarray
    r: np.ndarray
    k1: np.ndarray
    k2: np.ndarray

    def __post_init__(self):
        for name in ("d", "r", "k1", "k2"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))

    @property
    def ratio(self) -> np.ndarray:
        return self.d / self.r

    @property
    def symmetric(self) -> np.ndarray:
        return (self.r == 1.0) & (self.k1 == self.k2)

    @property
    def shape(self) -> tuple[int, ...]:
        return np.broadcast_shapes(*(np.shape(v) for v in (self.d, self.r, self.k1, self.k2)))


def _m_of_k_array(k: np.ndarray) -> np.ndarray:
    """:func:`m_of_k` on an array (sqrt is correctly rounded in both)."""
    return (np.sqrt(24.0 * k + 1.0) - 3.0) / 2.0


def _pairwise(bound: Callable[[float, float], float], k1, k2) -> np.ndarray:
    """The scalar ``bound(k1, k2)`` at every (k1, k2) of the broadcast shape.

    The bounds that raise to a power stay scalar: numpy's power differs from
    Python's ``**`` in the last bit on some inputs, which can flip a cell on
    the bound.  On a plane (k1, k2) varies along one axis only, so this is
    one call per column or row.
    """
    k1s, k2s = np.broadcast_arrays(k1, k2)
    values = [bound(a, b) for a, b in zip(k1s.ravel().tolist(), k2s.ravel().tolist())]
    return np.array(values, dtype=float).reshape(k1s.shape)


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


def _n1_array(p: ParamArrays) -> np.ndarray:
    return p.ratio > _pairwise(_n1_threshold, p.k1, p.k2)


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


def _n2_array(p: ParamArrays) -> np.ndarray:
    k1, k2, ratio = p.k1, p.k2, p.ratio
    m = _m_of_k_array(k2)
    small = k2 <= 2.0
    lower = np.where(small, m * m / (k1 - 1.0), 2.0 * k2 * m / (2.0 * k1 - m))
    upper = m * (k2 - 1.0) / (m - k1)
    return ((1.0 < k1) & (k1 < m) & (small | (2.0 * k1 > m))
            & (lower < ratio) & (ratio < upper))


def criterion_neg3(params: CompetitionParams) -> bool:
    """c < 0 for k1 above an explicit threshold in (k2, r/d)."""
    return params.k1 > neg3_threshold(params.d, params.r, params.k2)


def _neg3_array(p: ParamArrays) -> np.ndarray:
    r_d, k2 = p.r / p.d, p.k2
    threshold = np.where(
        k2 <= 2.0,
        np.maximum(2.0, 1.0 + 4.0 * r_d * (k2 - 1.0)),
        _m_of_k_array(k2) * np.maximum(1.0, 0.5 + r_d * k2),
    )
    return p.k1 > threshold


def neg3_threshold(d: float, r: float, k2: float) -> float:
    """The k1 half-line endpoint of criterion neg3."""
    if k2 <= 2.0:
        return max(2.0, 1.0 + 4.0 * (r / d) * (k2 - 1.0))
    return m_of_k(k2) * max(1.0, 0.5 + (r / d) * k2)


def criterion_pos1(params: CompetitionParams) -> bool:
    """c > 0 for k1 - 1 below an explicit threshold in (k2, r/d)."""
    excess = params.k1 - 1.0
    return 0.0 < excess < pos1_margin(params.d, params.r, params.k2)


def _pos1_array(p: ParamArrays) -> np.ndarray:
    d, r, k2 = p.d, p.r, p.k2
    margin = np.where(
        k2 <= 2.0,
        (k2 - 1.0) * (k2 + 4.0) / 6.0 * np.minimum(1.0, (r / d) * (k2 - 1.0) / (k2 * k2)),
        (k2 - 1.0) * np.minimum((k2 + 4.0) / 6.0, r / (4.0 * d)),
    )
    excess = p.k1 - 1.0
    return (0.0 < excess) & (excess < margin)


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


def _s1_array(p: ParamArrays) -> np.ndarray:
    d, k = p.d, p.k1
    m = _m_of_k_array(k)
    return (k >= 2.0) & (d > 2.0 * k * m / (2.0 * k - m))


def _s2(params: CompetitionParams) -> bool:
    d, k = params.d, params.k1
    if not 1.0 < k < 2.0:
        return False
    m = m_of_k(k)
    # m(k) > k on 1 < k < 2, but the rounded values meet at its ends.
    return k < m and m * m / (k - 1.0) < d < m * (k - 1.0) / (m - k)


def _s2_array(p: ParamArrays) -> np.ndarray:
    d, k = p.d, p.k1
    m = _m_of_k_array(k)
    return ((1.0 < k) & (k < 2.0) & (k < m)
            & (m * m / (k - 1.0) < d) & (d < m * (k - 1.0) / (m - k)))


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


def _degenerate_array(p: ParamArrays) -> np.ndarray:
    return (p.k1 > p.k2 * p.k2) & (p.ratio < _pairwise(degenerate_ratio_bound, p.k1, p.k2))


def reflect(params: CompetitionParams) -> CompetitionParams:
    """Exchange the two species' roles: (d, r, k1, k2) -> (1/d, 1/r, k2, k1).

    Involutive.  A negative-speed criterion holding at the reflected
    parameters certifies c > 0 at the original ones.
    """
    return type(params)(1.0 / params.d, 1.0 / params.r, params.k2, params.k1)


def prior_regions(d: float, k: float) -> dict[CriterionId, bool]:
    """Previously established negative-speed regions in the symmetric (d, k) plane.

    Membership follows the published formulas exactly:

    (i)    the single point (11/2, 11/6), compared at double precision;
    (ii)   d = 4 and 5/4 <= k <= 4/3;
    (iii)  5/3 < k < 2 and 4 < d < 4/(k-1), excluding d = 2k/(k-1);
    (vii)  a floor-function condition, see :func:`_prior_vii`;
    (viii) 5/3 < k < 2 and 4 < d < 2/(2-k).

    The limiting regions (iv), (v), (vi) carry no quantitative data and are
    not evaluated.
    """
    if d <= 0.0 or k <= 1.0:
        raise ValueError("prior_regions requires d > 0 and k > 1")
    point = validate(d, 1.0, k, k)
    return {
        row.id: row.predicate(point)
        for row in CRITERIA
        if row.id.name.startswith("PRIOR_")
    }


def _prior_i(params: CompetitionParams) -> bool:
    return params.d == 11.0 / 2.0 and params.k1 == 11.0 / 6.0


def _prior_i_array(p: ParamArrays) -> np.ndarray:
    return (p.d == 11.0 / 2.0) & (p.k1 == 11.0 / 6.0)


def _prior_ii(params: CompetitionParams) -> bool:
    return params.d == 4.0 and 1.25 <= params.k1 <= 4.0 / 3.0


def _prior_ii_array(p: ParamArrays) -> np.ndarray:
    return (p.d == 4.0) & (1.25 <= p.k1) & (p.k1 <= 4.0 / 3.0)


def _prior_iii(params: CompetitionParams) -> bool:
    d, k = params.d, params.k1
    return 5.0 / 3.0 < k < 2.0 and 4.0 < d < 4.0 / (k - 1.0) and d * (k - 1.0) != 2.0 * k


def _prior_iii_array(p: ParamArrays) -> np.ndarray:
    d, k = p.d, p.k1
    return ((5.0 / 3.0 < k) & (k < 2.0) & (4.0 < d) & (d < 4.0 / (k - 1.0))
            & (d * (k - 1.0) != 2.0 * k))


def _prior_vii(params: CompetitionParams) -> bool:
    d, k = params.d, params.k1
    q = 3.0 * k - 1.0
    term1 = k - d * (k - 1.0) / q
    term2 = 4.0 * d * (k - 1.0) / (q * q) + math.floor(
        2.0 * d * (k + 1.0) / (q * q) - k
    ) * math.floor(k * (5.0 - 3.0 * k) / 2.0)
    return max(term1, term2) < 1.0


def _prior_vii_array(p: ParamArrays) -> np.ndarray:
    # The floors are integers, so their product is the exact product that
    # Python's int arithmetic forms, rounded once, as in the scalar form.
    d, k = p.d, p.k1
    q = 3.0 * k - 1.0
    term1 = k - d * (k - 1.0) / q
    term2 = 4.0 * d * (k - 1.0) / (q * q) + np.floor(
        2.0 * d * (k + 1.0) / (q * q) - k
    ) * np.floor(k * (5.0 - 3.0 * k) / 2.0)
    return np.maximum(term1, term2) < 1.0


def _prior_viii(params: CompetitionParams) -> bool:
    d, k = params.d, params.k1
    return 5.0 / 3.0 < k < 2.0 and 4.0 < d < 2.0 / (2.0 - k)


def _prior_viii_array(p: ParamArrays) -> np.ndarray:
    d, k = p.d, p.k1
    return (5.0 / 3.0 < k) & (k < 2.0) & (4.0 < d) & (d < 2.0 / (2.0 - k))


@dataclass(frozen=True)
class Criterion:
    """One row of the criterion table.

    ``polarity`` is the sign of c the row certifies at p when its predicate
    holds: -1 for c < 0, +1 for c > 0.  ``predicate`` reads one point;
    ``array_predicate`` reads a :class:`ParamArrays` and returns the same
    hits as a bool array.  The predicate is read at p, or at
    ``reflect(p)`` when ``at_reflection`` is set.  ``symmetric_only`` rows
    are defined on the symmetric plane (r = 1, k1 = k2) and read False
    elsewhere.  ``reflectable`` rows (the default) are read a second time
    at ``reflect(p)``, where a hit certifies the opposite polarity at p.
    """

    id: CriterionId
    label: str
    polarity: int
    predicate: Callable[[CompetitionParams], bool]
    array_predicate: Callable[[ParamArrays], np.ndarray]
    symmetric_only: bool = False
    reflectable: bool = True
    at_reflection: bool = False


# The criterion inventory, in report and CSV column order.
CRITERIA: tuple[Criterion, ...] = (
    Criterion(CriterionId.N1, "N1", -1, criterion_n1, _n1_array),
    Criterion(CriterionId.N2, "N2", -1, criterion_n2, _n2_array),
    Criterion(CriterionId.NEG3, "neg3", -1, criterion_neg3, _neg3_array),
    Criterion(CriterionId.S1, "S1", -1, _s1, _s1_array, symmetric_only=True),
    Criterion(CriterionId.S2, "S2", -1, _s2, _s2_array, symmetric_only=True),
    Criterion(CriterionId.DEG_NEG, "degenerate", -1, criterion_degenerate, _degenerate_array,
              reflectable=False),
    Criterion(CriterionId.POS1, "pos1", +1, criterion_pos1, _pos1_array, reflectable=False),
    Criterion(CriterionId.DEG_POS, "degenerate (reflected)", +1, criterion_degenerate,
              _degenerate_array, reflectable=False, at_reflection=True),
    Criterion(CriterionId.PRIOR_I, "(i)", -1, _prior_i, _prior_i_array, symmetric_only=True),
    Criterion(CriterionId.PRIOR_II, "(ii)", -1, _prior_ii, _prior_ii_array, symmetric_only=True),
    Criterion(CriterionId.PRIOR_III, "(iii)", -1, _prior_iii, _prior_iii_array,
              symmetric_only=True),
    Criterion(CriterionId.PRIOR_VII, "(vii)", -1, _prior_vii, _prior_vii_array,
              symmetric_only=True),
    Criterion(CriterionId.PRIOR_VIII, "(viii)", -1, _prior_viii, _prior_viii_array,
              symmetric_only=True),
)


@dataclass(frozen=True)
class CriterionHits:
    """Every row of :data:`CRITERIA` evaluated at one point.

    ``direct`` maps each row to its hit where the row is read (p, or
    ``reflect(p)`` for ``at_reflection`` rows); ``reflected`` maps each
    ``reflectable`` row to its hit at ``reflect(p)``.  Both follow table
    order.
    """

    params: CompetitionParams
    direct: dict[CriterionId, bool]
    reflected: dict[CriterionId, bool]

    def verdict(self) -> SignVerdict:
        """Fold the hits into one sign verdict.

        A reflected hit certifies the opposite of its row's polarity.  Hits
        of both polarities at once are impossible for correct criteria, so
        that case raises :class:`PolarityConflictError`.
        """
        direct = {-1: [], +1: []}
        mirrored = {-1: [], +1: []}
        for row in CRITERIA:
            if self.direct[row.id]:
                direct[row.polarity].append(row.id)
            if self.reflected.get(row.id):
                mirrored[-row.polarity].append(row.id)
        negative = tuple(direct[-1] + mirrored[-1])
        positive = tuple(direct[+1] + mirrored[+1])
        if negative and positive:
            raise PolarityConflictError(
                f"criteria of both polarities fired at {self.params}: "
                f"negative={negative}, positive={positive}"
            )
        if negative:
            return SignVerdict(Sign.NEGATIVE, negative, tuple(mirrored[-1]))
        if positive:
            return SignVerdict(Sign.POSITIVE, positive, tuple(mirrored[+1]))
        return SignVerdict(Sign.INCONCLUSIVE, ())


def evaluate_criteria(params: CompetitionParams) -> CriterionHits:
    """Evaluate the criterion table once at ``params`` and once at its reflection."""
    mirror = reflect(params)
    direct = {}
    for row in CRITERIA:
        point = mirror if row.at_reflection else params
        direct[row.id] = (not row.symmetric_only or point.symmetric) and row.predicate(point)
    reflected = {
        row.id: (not row.symmetric_only or mirror.symmetric) and row.predicate(mirror)
        for row in CRITERIA
        if row.reflectable
    }
    return CriterionHits(params, direct, reflected)


# The sign codes of the array path.
SIGN_OF_CODE = {-1: Sign.NEGATIVE, 0: Sign.INCONCLUSIVE, +1: Sign.POSITIVE}


@dataclass(frozen=True)
class CriterionArrays:
    """Every row of :data:`CRITERIA` evaluated on the points of a :class:`ParamArrays`.

    The array form of :class:`CriterionHits`: ``direct`` and ``reflected``
    hold one bool array per row, each of the points' broadcast shape.
    """

    params: ParamArrays
    direct: dict[CriterionId, np.ndarray]
    reflected: dict[CriterionId, np.ndarray]

    def signs(self) -> np.ndarray:
        """The verdict's sign at every point, as codes of :data:`SIGN_OF_CODE`.

        Folds the hits as :meth:`CriterionHits.verdict` does, and raises
        :class:`PolarityConflictError` where it would.
        """
        votes = {-1: np.zeros(self.params.shape, bool), +1: np.zeros(self.params.shape, bool)}
        for row in CRITERIA:
            votes[row.polarity] |= self.direct[row.id]
            if row.id in self.reflected:
                votes[-row.polarity] |= self.reflected[row.id]
        negative, positive = votes[-1], votes[+1]
        conflict = negative & positive
        if conflict.any():
            at = np.unravel_index(np.argmax(conflict), conflict.shape)
            fields = (self.params.d, self.params.r, self.params.k1, self.params.k2)
            point = [float(np.broadcast_to(v, conflict.shape)[at]) for v in fields]
            raise PolarityConflictError(
                f"criteria of both polarities fired at (d, r, k1, k2) = {point}"
            )
        return positive.astype(np.int8) - negative.astype(np.int8)


def evaluate_criteria_arrays(params: ParamArrays) -> CriterionArrays:
    """:func:`evaluate_criteria` on many points at once, one array per row."""
    mirror = reflect(params)
    shape = params.shape

    def read(row: Criterion, point: ParamArrays) -> np.ndarray:
        hit = row.array_predicate(point)
        if row.symmetric_only:
            hit = hit & point.symmetric
        return np.broadcast_to(hit, shape)

    # Branches a mask discards may divide by zero; those values are never read.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        direct = {
            row.id: read(row, mirror if row.at_reflection else params) for row in CRITERIA
        }
        reflected = {row.id: read(row, mirror) for row in CRITERIA if row.reflectable}
    return CriterionArrays(params, direct, reflected)


def classify(params: CompetitionParams) -> SignVerdict:
    """Combine every criterion into a single sign verdict.

    Each row of :data:`CRITERIA` is read at ``params`` and, where
    reflectable, at ``reflect(params)``; see :meth:`CriterionHits.verdict`.
    """
    return evaluate_criteria(params).verdict()


def kstar_bounds(d: float, r: float, k2: float) -> ThresholdBounds:
    """Bracket the sign-change threshold k*(d, r, k2) in k1.

    The neg3 region is the half-line k1 > T and the pos1 region the interval
    1 < k1 < 1 + B, with T and B independent of k1, so the infimum and
    supremum are available in closed form: k_upper = T, k_lower = 1 + B.
    classify() is Negative for any k1 > k_upper and Positive for any
    1 < k1 < k_lower.
    """
    if d <= 0.0 or r <= 0.0 or k2 <= 1.0:
        raise ValueError("kstar_bounds requires d, r > 0 and k2 > 1")
    return ThresholdBounds(
        k_lower=1.0 + pos1_margin(d, r, k2),
        k_upper=neg3_threshold(d, r, k2),
    )


def _covers_all_ratios(k1: float, k2: float) -> bool:
    """True when the negative criteria cover every d/r > 0 at (k1, k2).

    The N1 region is the up-set d/r > L(k1, k2) and the degenerate region
    the down-set d/r < H(k1, k2); together they cover the whole half-line
    exactly when L < H (both bounds are strict).
    """
    if k1 <= k2 * k2 or k1 < m_of_k(k2):
        return False
    return _n1_ratio_bound(k1, k2) < degenerate_ratio_bound(k1, k2)


def _sampled_coverage_check(k1: float, k2: float, n: int = 25) -> bool:
    """Safety net: spot-check classify() over a log-uniform ratio ladder."""
    for i in range(n):
        ratio = 10.0 ** (-6.0 + 12.0 * i / (n - 1))
        verdict = classify(CompetitionParams(ratio, 1.0, k1, k2))
        if verdict.sign is not Sign.NEGATIVE:
            return False
    return True


def determinacy_thresholds(
    k2: float, search_cap: float = 1e4, rtol: float = 1e-6
) -> tuple[float, float]:
    """Competition levels beyond which the speed sign is fixed for every d, r.

    Returns (k1_star, k1_dstar) with 1 < k1_star < k1_dstar such that the
    criteria certify c > 0 for all d, r > 0 whenever 1 < k1 <= k1_star, and
    c < 0 for all d, r > 0 whenever k1 >= k1_dstar.  Both are located by
    bisection on the envelope inequality of :func:`_covers_all_ratios` to
    relative tolerance ``rtol``, then spot-checked against classify() on a
    log-uniform d/r ladder over [1e-6, 1e6].

    These are upper estimates of the true determinacy levels: the criteria
    are sufficient, not necessary.

    Raises :class:`SearchCapExceeded` if coverage is never achieved for
    k1 <= search_cap.
    """
    if k2 <= 1.0:
        raise ValueError("determinacy_thresholds requires k2 > 1")

    # Negative side: smallest k1 with full-ratio coverage at (k1, k2).
    lo = max(k2 * k2, m_of_k(k2))  # coverage fails here (degenerate bound is 0)
    hi = max(2.0 * lo, 2.0)
    while not _covers_all_ratios(hi, k2):
        hi *= 2.0
        if hi > search_cap:
            raise SearchCapExceeded(
                f"no k1 <= {search_cap:g} certifies c < 0 for all d/r at k2={k2:g}"
            )
    while (hi - lo) > rtol * hi:
        mid = 0.5 * (lo + hi)
        if _covers_all_ratios(mid, k2):
            hi = mid
        else:
            lo = mid
    k1_dstar = hi

    # Positive side: largest k1 < sqrt(k2) whose reflection has full coverage.
    hi_p = math.sqrt(k2)  # coverage fails at the boundary k2 = k1^2
    lo_p = None
    step = (hi_p - 1.0) / 2.0
    probe = 1.0 + step
    for _ in range(60):
        if _covers_all_ratios(k2, probe):
            lo_p = probe
            break
        step /= 2.0
        probe = 1.0 + step
    if lo_p is None:
        raise SearchCapExceeded(
            f"no k1 > 1 certifies c > 0 for all d/r at k2={k2:g}"
        )
    while (hi_p - lo_p) > rtol * hi_p:
        mid = 0.5 * (lo_p + hi_p)
        if _covers_all_ratios(k2, mid):
            lo_p = mid
        else:
            hi_p = mid
    k1_star = lo_p

    if not _sampled_coverage_check(k1_dstar * (1.0 + 10.0 * rtol), k2):
        raise PolarityConflictError(
            "coverage bisection and sampled classification disagree at "
            f"k1={k1_dstar!r}, k2={k2!r}"
        )
    return k1_star, k1_dstar

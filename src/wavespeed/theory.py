"""Explicit sign-of-speed criteria and their combination into a verdict.

Each criterion is a sufficient condition for the front speed c of the
bistable competition wave to have a definite sign.  The negative-polarity
criteria certify c < 0; the exchange symmetry

    c(d, r, k1, k2) = -sqrt(d r) c(1/d, 1/r, k2, k1)

turns every criterion into its mirror, so :func:`classify` reads each one
both at the parameters and at the reflected parameters, where a hit
certifies the opposite sign.  All inequalities are evaluated exactly as
stated, preserving strict vs non-strict comparisons, with no tolerance
padding: the criteria are sharp-edged sufficient conditions and padding
would manufacture false positives.

The inventory is the single table :data:`CRITERIA`; its report labels:

* N1, N2     -- the two general blocking conditions on (k1, k2, d/r)
* neg3, pos1 -- explicit half-line bounds in k1 bracketing the threshold k*
* S1, S2     -- N1 (for k >= 2) and N2 read on the symmetric plane r = 1, k1 = k2
* degenerate -- the small-d/r condition active for k1 > k2^2
* (i)..(viii)-- previously established symmetric-case regions; the limiting
                regions (iv)-(vi) carry no quantitative data and have no row

Each row holds its predicate once, on numpy values: :func:`evaluate_criteria`
reads the table at one point or on broadcast arrays, and the one fold,
:meth:`CriterionHits.signs`, turns the hits into signs, so :func:`classify`
and ``scan`` run the same code.  Two bounds stay scalar; see :func:`_pairwise`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Callable

import numpy as np

from .model import CompetitionParams, check_positive


class PolarityConflictError(RuntimeError):
    """Both a negative and a positive criterion fired: an implementation bug."""


class SearchCapExceeded(RuntimeError):
    """A threshold search stepped out of the finite floats above 1 before its criteria held."""


class CriterionId(Enum):
    N1 = "N1"
    N2 = "N2"
    NEG3 = "NEG3"
    POS1 = "POS1"
    S1 = "S1"
    S2 = "S2"
    DEG_NEG = "DEG_NEG"
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
    if not k >= 1.0:
        raise ValueError(f"m(k) requires k >= 1, got {k!r}")
    return float(_m(k))


def _m(k):
    """m(k) on numbers or arrays, unchecked (sqrt is correctly rounded)."""
    return (np.sqrt(24.0 * k + 1.0) - 3.0) / 2.0


@dataclass(frozen=True)
class ParamArrays:
    """(d, r, k1, k2) as numpy values that broadcast together: one point or many.

    The form the table's predicates read.  Each field is stored as
    ``np.asarray(value, float)[()]``: a numpy float for a number, a float
    array otherwise, so a division by zero in a branch a mask discards gives
    inf or nan where Python floats raise.  Not validated: pass d, r > 0 and
    k1, k2 > 1.
    """

    d: np.ndarray
    r: np.ndarray
    k1: np.ndarray
    k2: np.ndarray
    ratio: np.ndarray = field(init=False, repr=False, compare=False)
    symmetric: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        fields = vars(self)  # written directly: the dataclass is frozen
        for name in ("d", "r", "k1", "k2"):
            fields[name] = np.asarray(fields[name], dtype=float)[()]
        fields["ratio"] = self.d / self.r
        fields["symmetric"] = (self.r == 1.0) & (self.k1 == self.k2)

    @property
    def shape(self) -> tuple[int, ...]:
        return np.broadcast(self.d, self.r, self.k1, self.k2).shape

    def at(self, index: tuple[int, ...] = ()) -> CompetitionParams:
        """The point at ``index`` of the broadcast shape."""
        shape = self.shape
        values = (self.d, self.r, self.k1, self.k2)
        return CompetitionParams(*(float(np.broadcast_to(v, shape)[index]) for v in values))


def _masked():
    """Branches a mask discards may divide by zero; those values are never read."""
    return np.errstate(divide="ignore", invalid="ignore", over="ignore")


def _pairwise(bound: Callable[[float, float], float]) -> Callable:
    """The scalar ``bound(k1, k2)`` applied at every (k1, k2) of the broadcast shape.

    frompyfunc hands ``bound`` Python floats, so its ``**`` is Python's,
    which numpy's power does not match in the last bit on some inputs.  On a
    plane (k1, k2) varies along one axis only: one call per column or row.
    """
    ufunc = np.frompyfunc(bound, 2, 1)
    return lambda k1, k2: np.asarray(ufunc(k1, k2), dtype=float)[()]


def _n1_threshold(k1: float, k2: float) -> float:
    """The d/r threshold of N1: inf where k1 < m(k2), else its branch-dependent bound."""
    m = m_of_k(k2)
    if k1 < m:
        return math.inf
    if k1 < 2.0:
        return 6.0 * k1 * k1 * (k2 - 1.0) / ((k1 - 1.0) ** 2 * (k1 + 4.0))
    if k2 <= 2.0:
        return 4.0 * (k2 - 1.0) / (k1 - 1.0)
    return 2.0 * k2 * m / (2.0 * k1 - m)


_n1_thresholds = _pairwise(_n1_threshold)


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


_degenerate_ratio_bounds = _pairwise(degenerate_ratio_bound)


def neg3_threshold(d, r, k2):
    """The k1 half-line endpoint of criterion neg3, on numbers or arrays."""
    r_d = r / d
    return np.where(
        k2 <= 2.0,
        np.maximum(2.0, 1.0 + 4.0 * r_d * (k2 - 1.0)),
        _m(k2) * np.maximum(1.0, 0.5 + r_d * k2),
    )[()]


def pos1_margin(d, r, k2):
    """The k1 - 1 half-line endpoint of criterion pos1, on numbers or arrays."""
    return np.where(
        k2 <= 2.0,
        (k2 - 1.0) * (k2 + 4.0) / 6.0 * np.minimum(1.0, (r / d) * (k2 - 1.0) / (k2 * k2)),
        (k2 - 1.0) * np.minimum((k2 + 4.0) / 6.0, r / (4.0 * d)),
    )[()]


# The predicates of the table: each reads a ParamArrays and returns its hits.

def _in_n1(p: ParamArrays):
    """N1: c < 0 when k1 >= m(k2) and d/r exceeds the branch-dependent bound."""
    return p.ratio > _n1_thresholds(p.k1, p.k2)


def _in_n2(p: ParamArrays):
    """N2: c < 0 on a d/r strip when 1 < k1 < m(k2).

    For k2 > 2 the strip exists only when 2 k1 > m(k2); that requirement is
    what keeps the lower end of the strip positive and the criterion
    consistent with the positive-speed criterion pos1.
    """
    k1, k2, ratio = p.k1, p.k2, p.ratio
    m = _m(k2)
    small = k2 <= 2.0
    above_lower = ((small & (m * m / (k1 - 1.0) < ratio))
                   | (~small & (2.0 * k1 > m) & (2.0 * k2 * m / (2.0 * k1 - m) < ratio)))
    return (1.0 < k1) & (k1 < m) & above_lower & (ratio < m * (k2 - 1.0) / (m - k1))


def _in_neg3(p: ParamArrays):
    """neg3: c < 0 for k1 above an explicit threshold in (k2, r/d)."""
    return p.k1 > neg3_threshold(p.d, p.r, p.k2)


def _in_pos1(p: ParamArrays):
    """pos1: c > 0 for k1 - 1 below an explicit threshold in (k2, r/d)."""
    excess = p.k1 - 1.0
    return (0.0 < excess) & (excess < pos1_margin(p.d, p.r, p.k2))


def _in_s1(p: ParamArrays):
    """S1 (r = 1, k1 = k2 = k) is N1 where k >= 2: d > 2 k m(k)/(2 k - m(k)).

    For k >= 2, m(k) <= k and that is N1's k2 > 2 bound; its k2 <= 2 branch
    gives it too at k = 2 = m.  The guard is the paper's: just below 2 the
    rounded m(k) can fall to k or below, and N1's k1 < 2 branch fires there."""
    return (p.k1 >= 2.0) & _in_n1(p)


def _in_degenerate(p: ParamArrays):
    """c < 0 when k1 > k2^2 and d/r is below the blocking bound for small diffusion."""
    return (p.k1 > p.k2 * p.k2) & (p.ratio < _degenerate_ratio_bounds(p.k1, p.k2))


def _in_prior_i(p: ParamArrays):
    """(i): the single point (11/2, 11/6), compared at double precision."""
    return (p.d == 11.0 / 2.0) & (p.k1 == 11.0 / 6.0)


def _in_prior_ii(p: ParamArrays):
    """(ii): d = 4 and 5/4 <= k <= 4/3."""
    return (p.d == 4.0) & (1.25 <= p.k1) & (p.k1 <= 4.0 / 3.0)


def _in_prior_iii(p: ParamArrays):
    """(iii): 5/3 < k < 2 and 4 < d < 4/(k-1), excluding d = 2k/(k-1)."""
    d, k = p.d, p.k1
    return ((5.0 / 3.0 < k) & (k < 2.0) & (4.0 < d) & (d < 4.0 / (k - 1.0))
            & (d * (k - 1.0) != 2.0 * k))


def _in_prior_vii(p: ParamArrays):
    """(vii): a floor-function condition in (d, k), with q = 3k - 1."""
    # The floors are integers, so their product is exact before it is
    # rounded once, as Python's int product would be.
    d, k = p.d, p.k1
    q = 3.0 * k - 1.0
    term1 = k - d * (k - 1.0) / q
    term2 = 4.0 * d * (k - 1.0) / (q * q) + np.floor(
        2.0 * d * (k + 1.0) / (q * q) - k
    ) * np.floor(k * (5.0 - 3.0 * k) / 2.0)
    return np.maximum(term1, term2) < 1.0


def _in_prior_viii(p: ParamArrays):
    """(viii): 5/3 < k < 2 and 4 < d < 2/(2-k)."""
    d, k = p.d, p.k1
    return (5.0 / 3.0 < k) & (k < 2.0) & (4.0 < d) & (d < 2.0 / (2.0 - k))


def reflect(params):
    """Exchange the two species' roles: (d, r, k1, k2) -> (1/d, 1/r, k2, k1).

    Involutive, on a :class:`CompetitionParams` or a :class:`ParamArrays`.
    A negative-speed criterion holding at the reflected parameters
    certifies c > 0 at the original ones.
    """
    return type(params)(1.0 / params.d, 1.0 / params.r, params.k2, params.k1)


@dataclass(frozen=True)
class Criterion:
    """One row of the criterion table.

    ``polarity`` is the sign of c the row certifies at p when its predicate
    holds: -1 for c < 0, +1 for c > 0.  ``predicate`` reads a
    :class:`ParamArrays` and returns its hits, a numpy bool or bool array.
    Every row is read at p and at ``reflect(p)``, where a hit certifies the
    opposite polarity at p.  ``symmetric_only`` rows are defined on the
    symmetric plane (r = 1, k1 = k2) and read False elsewhere.
    """

    id: CriterionId
    label: str
    polarity: int
    predicate: Callable[[ParamArrays], np.ndarray]
    symmetric_only: bool = False


# The criterion inventory, in report and CSV column order.
CRITERIA: tuple[Criterion, ...] = (
    Criterion(CriterionId.N1, "N1", -1, _in_n1),
    Criterion(CriterionId.N2, "N2", -1, _in_n2),
    Criterion(CriterionId.NEG3, "neg3", -1, _in_neg3),
    Criterion(CriterionId.S1, "S1", -1, _in_s1, symmetric_only=True),
    Criterion(CriterionId.S2, "S2", -1, _in_n2, symmetric_only=True),
    Criterion(CriterionId.DEG_NEG, "degenerate", -1, _in_degenerate),
    Criterion(CriterionId.POS1, "pos1", +1, _in_pos1),
    Criterion(CriterionId.PRIOR_I, "(i)", -1, _in_prior_i, symmetric_only=True),
    Criterion(CriterionId.PRIOR_II, "(ii)", -1, _in_prior_ii, symmetric_only=True),
    Criterion(CriterionId.PRIOR_III, "(iii)", -1, _in_prior_iii, symmetric_only=True),
    Criterion(CriterionId.PRIOR_VII, "(vii)", -1, _in_prior_vii, symmetric_only=True),
    Criterion(CriterionId.PRIOR_VIII, "(viii)", -1, _in_prior_viii, symmetric_only=True),
)


# The sign codes of :meth:`CriterionHits.signs`.
SIGN_OF_CODE = {-1: Sign.NEGATIVE, 0: Sign.INCONCLUSIVE, +1: Sign.POSITIVE}


@dataclass(frozen=True)
class CriterionHits:
    """Every row of :data:`CRITERIA` evaluated on the points of a :class:`ParamArrays`.

    ``direct`` maps each row to its hits at p, ``reflected`` to its hits at
    ``reflect(p)``.  Both follow table order, and each hit has the points'
    broadcast shape: a numpy bool for one point, a bool array for many.
    """

    params: ParamArrays
    direct: dict[CriterionId, np.ndarray]
    reflected: dict[CriterionId, np.ndarray]

    def signs(self) -> np.ndarray:
        """The verdict's sign at every point, as codes of :data:`SIGN_OF_CODE`.

        The one fold of the hits: a direct hit votes for its row's polarity,
        a reflected hit for the opposite one; votes both ways at a point raise
        :class:`PolarityConflictError`.  Folded once and shared: do not write.
        """
        return self._signs

    @cached_property
    def _signs(self) -> np.ndarray:
        votes = {-1: [], +1: []}
        for row in CRITERIA:
            votes[row.polarity].append(self.direct[row.id])
            votes[-row.polarity].append(self.reflected[row.id])
        # One reduce per polarity: at a single point, in-place ors cost more.
        negative, positive = np.logical_or.reduce(votes[-1]), np.logical_or.reduce(votes[+1])
        conflict = negative & positive
        if conflict.any():
            at = self.params.at(np.unravel_index(np.argmax(conflict), conflict.shape))
            raise PolarityConflictError(f"criteria of both polarities fired at {at}")
        return positive.astype(np.int8) - negative.astype(np.int8)

    def verdict(self, index: tuple[int, ...] = ()) -> SignVerdict:
        """The sign verdict at one point, read off :meth:`signs`.

        ``index`` picks the point in the points' shape; the default () is
        the point of a single-point evaluation.  ``fired`` lists the rows
        that voted for the sign: direct hits of that polarity, then
        reflected hits of the opposite one, each in table order.
        """
        code = int(self.signs()[index])
        direct = tuple(row.id for row in CRITERIA
                       if row.polarity == code and self.direct[row.id][index])
        mirrored = tuple(row.id for row in CRITERIA
                         if row.polarity == -code and self.reflected[row.id][index])
        return SignVerdict(SIGN_OF_CODE[code], direct + mirrored, mirrored)


def evaluate_criteria(params: CompetitionParams | ParamArrays) -> CriterionHits:
    """Read every row of the table at ``params`` and at its reflection.

    ``params`` is one point (a :class:`CompetitionParams`) or many (a
    :class:`ParamArrays`); either is read as a ParamArrays.
    """
    params = ParamArrays(params.d, params.r, params.k1, params.k2)
    mirror = reflect(params)
    shape = params.shape

    def read(row: Criterion, point: ParamArrays) -> np.ndarray:
        hit = point.symmetric  # a symmetric-only row reads nothing off the symmetric plane
        if not row.symmetric_only:
            hit = row.predicate(point)
        elif hit.any():
            hit = row.predicate(point) & hit
        return hit if hit.shape == shape else np.broadcast_to(hit, shape)

    with _masked():
        direct = {row.id: read(row, params) for row in CRITERIA}
        reflected = {row.id: read(row, mirror) for row in CRITERIA}
    return CriterionHits(params, direct, reflected)


def classify(params: CompetitionParams) -> SignVerdict:
    """Combine every criterion into a single sign verdict.

    Each row of :data:`CRITERIA` is read at ``params`` and at
    ``reflect(params)``; see :meth:`CriterionHits.verdict`.
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
    check_positive(d=d, r=r)
    if not 1.0 < k2 < math.inf:
        raise ValueError("kstar_bounds requires d, r > 0 and k2 > 1")
    with _masked():
        return ThresholdBounds(k_lower=float(1.0 + pos1_margin(d, r, k2)),
                               k_upper=float(neg3_threshold(d, r, k2)))


def _covers_all_ratios(k1: float, k2: float) -> bool:
    """True when the negative criteria cover every d/r > 0 at (k1, k2).

    The N1 region is the up-set d/r > L(k1, k2) and the degenerate region
    the down-set d/r < H(k1, k2); together they cover the whole half-line
    exactly when L < H (both bounds are strict).
    """
    return _n1_threshold(k1, k2) < degenerate_ratio_bound(k1, k2)


# Relative tolerance of the determinacy threshold searches, and the rungs
# of the d/r ladder that spot-checks their results.
_RTOL = 1e-6
_LADDER_POINTS = 25


def _sampled_coverage_check(k1_star: float, k1_dstar: float, k2: float) -> bool:
    """Safety net: spot-check over a log-uniform ratio ladder that the verdict
    is Positive at ``k1_star`` and Negative at ``k1_dstar``."""
    ratios = [10.0 ** (-6.0 + 12.0 * i / (_LADDER_POINTS - 1)) for i in range(_LADDER_POINTS)]
    levels = np.array([[k1_star], [k1_dstar]])
    signs = evaluate_criteria(ParamArrays(ratios, 1.0, levels, k2)).signs()
    return bool(np.all(signs == [[1], [-1]]))


def _bracket(holds: Callable[[float], bool], bad: float, step: Callable[[float], float],
             goal: str) -> float:
    """The k1 at which ``holds`` starts to hold, coming from ``bad`` where it fails.

    Steps k1 by ``step`` until ``holds``, each failed point becoming the new
    bad end, then halves the bracket until its width is ``_RTOL`` of its
    upper end; returns its good end.
    """
    good = step(bad)
    while 1.0 < good < math.inf and not holds(good):
        bad, good = good, step(good)
    if not 1.0 < good < math.inf:
        raise SearchCapExceeded(f"no finite k1 > 1 certifies {goal}")
    while abs(good - bad) > _RTOL * max(good, bad):
        mid = 0.5 * (good + bad)
        if holds(mid):
            good = mid
        else:
            bad = mid
    return good


def determinacy_thresholds(k2: float) -> tuple[float, float]:
    """Competition levels beyond which the speed sign is fixed for every d, r.

    Returns (k1_star, k1_dstar) with 1 < k1_star < k1_dstar such that the
    criteria certify c > 0 for all d, r > 0 whenever 1 < k1 <= k1_star, and
    c < 0 for all d, r > 0 whenever k1 >= k1_dstar.  Both are located on the
    envelope inequality of :func:`_covers_all_ratios` by :func:`_bracket`:
    k1_dstar by doubling k1 up from max(k2^2, m(k2)), k1_star by halving
    k1 - 1 down from sqrt(k2), where the reflected coverage fails.  Each is
    then spot-checked against classify() on a log-uniform d/r ladder over
    [1e-6, 1e6].

    These are upper estimates of the true determinacy levels: the criteria
    are sufficient, not necessary.

    Raises :class:`SearchCapExceeded` if a search steps out of the finite
    floats above 1 before coverage holds, as it does for k2 = 1e50.
    """
    if not 1.0 < k2 < math.inf:
        raise ValueError("determinacy_thresholds requires k2 > 1")
    # The degenerate bound is 0 at k1 <= k2^2, so coverage fails at both starts.
    k1_dstar = _bracket(lambda k1: _covers_all_ratios(k1, k2), max(k2 * k2, m_of_k(k2)),
                        lambda k1: 2.0 * k1, f"c < 0 for all d/r at k2={k2:g}")
    k1_star = _bracket(lambda k1: _covers_all_ratios(k2, k1), math.sqrt(k2),
                       lambda k1: 1.0 + 0.5 * (k1 - 1.0), f"c > 0 for all d/r at k2={k2:g}")
    if not _sampled_coverage_check(k1_star, k1_dstar, k2):
        raise PolarityConflictError("coverage search and sampled classification disagree "
                                    f"at k1={k1_star!r} or {k1_dstar!r}, k2={k2!r}")
    return k1_star, k1_dstar

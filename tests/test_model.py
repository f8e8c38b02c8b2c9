import numpy as np
import pytest

from wavespeed.model import (
    CompetitionParams,
    ParameterError,
    coexistence,
    reaction_f,
    reaction_g,
    to_cooperative,
    validate,
)


class TestValidate:
    def test_accepts_strict_strong_competition(self):
        p = validate(1, 1, 2, 2)
        assert (p.d, p.r, p.k1, p.k2) == (1.0, 1.0, 2.0, 2.0)

    def test_boundary_k1_rejected(self):
        with pytest.raises(ParameterError, match="strong competition"):
            validate(1, 1, 1, 2)

    @pytest.mark.parametrize("bad", [(0, 1, 2, 2), (1, -1, 2, 2), (1, 0, 2, 2),
                                     (1, -0.0, 2, 2), (1, 1, 0.5, 2)])
    def test_invalid_tuples_rejected(self, bad):
        with pytest.raises(ParameterError):
            validate(*bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(ParameterError):
            validate(bad, 1, 2, 2)

    @pytest.mark.parametrize("bad, name, value", [
        ((1e-320, 1, 3, 3), "d", "1e-320"),
        ((1, 1e-320, 3, 3), "r", "1e-320"),
        ((1e-300, 1e10, 3, 3), "d/r", "1e-310"),
        ((1e300, 1e-10, 3, 3), "d/r", "inf"),
    ], ids=["d", "r", "ratio-small", "ratio-large"])
    def test_reflection_must_be_finite(self, bad, name, value):
        # The exchange of species maps (d, r) to (1/d, 1/r).
        with pytest.raises(ParameterError) as exc:
            validate(*bad)
        message = f"{name} and its reciprocal must be positive and finite, got {value}"
        assert str(exc.value) == message

    def test_symmetric_point_from_literature(self):
        p = validate(11 / 2, 1, 11 / 6, 11 / 6)
        assert p.symmetric


class TestCoexistence:
    def test_symmetric_two_two(self):
        assert coexistence(validate(1, 1, 2, 2)) == pytest.approx((1 / 3, 1 / 3))

    def test_asymmetric_and_reaction_zero(self):
        p = validate(1, 1, 2, 4)
        ustar, vstar = coexistence(p)
        assert (ustar, vstar) == pytest.approx((1 / 7, 3 / 7))
        u, v = to_cooperative(ustar, vstar)
        assert reaction_f(u, v, p) == pytest.approx(0.0, abs=1e-15)
        assert reaction_g(u, v, p) == pytest.approx(0.0, abs=1e-15)

    def test_equal_coefficients_give_equal_components(self):
        for k in (1.5, 2.0, 7.3):
            ustar, vstar = coexistence(validate(1, 1, k, k))
            assert ustar == vstar

    def test_components_in_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            k1, k2 = 1.0 + 10.0 ** rng.uniform(-2, 1, size=2)
            ustar, vstar = coexistence(validate(1, 1, k1, k2))
            assert 0.0 < ustar < 1.0 and 0.0 < vstar < 1.0


class TestReactions:
    def test_f_vanishes_on_u_axis(self):
        p = validate(1, 1, 2, 2)
        assert reaction_f(0.0, 0.7, p) == 0.0

    def test_stable_corner_is_equilibrium(self):
        p = validate(1, 1, 3, 2)
        assert reaction_f(1.0, 1.0, p) == 0.0
        assert reaction_g(1.0, 1.0, p) == 0.0

    def test_g_example_value(self):
        p = validate(1, 1, 2, 2)
        assert reaction_g(0.5, 0.5, p) == pytest.approx(0.25)

    def test_cooperative_partials_nonnegative_on_region(self):
        # df/dv and dg/du must be >= 0 on {u >= 0, v <= 1}; finite differences
        # on a 100 x 100 grid.
        p = validate(1, 1, 4, 3)
        u = np.linspace(0.0, 2.0, 100)[:, None]
        v = np.linspace(-1.0, 1.0, 100)[None, :]
        h = 1e-6
        dfdv = (reaction_f(u, v + h, p) - reaction_f(u, v - h, p)) / (2 * h)
        dgdu = (reaction_g(u + h, v, p) - reaction_g(u - h, v, p)) / (2 * h)
        assert dfdv.min() >= -1e-9
        assert dgdu.min() >= -1e-9


class TestCooperativeTransform:
    def test_stable_state_mapping(self):
        assert to_cooperative(0.0, 1.0) == (0.0, 0.0)
        assert to_cooperative(1.0, 0.0) == (1.0, 1.0)

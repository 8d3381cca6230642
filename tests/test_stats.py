import math

import numpy as np
import pytest

from afferent.errors import ValidationError
from afferent.stats import betainc_reg, t_sf, welch_test

# Frozen references computed independently from the regularized incomplete
# beta series at high precision.
T_SF_CASES = [
    (0.0, 5.0, 0.5),
    (1.0, 1.0, 0.24999999999999978),
    (2.5, 3.7, 0.035911011455913376),
    (1.96, 30.0, 0.029671156448025263),
    (10.0, 2.0, 0.0049262285116628462),
    (0.5, 100.0, 0.30908678291544334),
    (25.0, 4.0, 7.5987628816578722e-06),
]


@pytest.mark.parametrize("t,df,expected", T_SF_CASES)
def test_t_sf_reference_values(t, df, expected):
    assert t_sf(t, df) == pytest.approx(expected, rel=1e-10, abs=1e-16)


def test_t_sf_symmetry_and_validation():
    for t, df, _ in T_SF_CASES:
        assert t_sf(-t, df) == pytest.approx(1.0 - t_sf(t, df), abs=1e-12)
    with pytest.raises(ValidationError):
        t_sf(1.0, 0.0)


def test_betainc_bounds_and_identities():
    assert betainc_reg(2.0, 3.0, 0.0) == 0.0
    assert betainc_reg(2.0, 3.0, 1.0) == 1.0
    # I_x(1, 1) is the identity on [0, 1]
    for x in (0.1, 0.37, 0.5, 0.9):
        assert betainc_reg(1.0, 1.0, x) == pytest.approx(x, abs=1e-12)
        assert betainc_reg(2.0, 3.0, x) + betainc_reg(3.0, 2.0, 1.0 - x) == pytest.approx(
            1.0, abs=1e-12
        )
    with pytest.raises(ValidationError):
        betainc_reg(0.0, 1.0, 0.5)


def test_welch_reference_case():
    a = [2.1, 2.5, 2.3, 2.2]
    b = [1.1, 1.4, 1.2, 1.3]
    res = welch_test(a, b)
    assert res.t == pytest.approx(9.5755370131867359, rel=1e-12)
    assert res.df == pytest.approx(5.5846153846153834, rel=1e-12)
    assert res.p == pytest.approx(0.00011303730990960926, rel=1e-9)
    assert not res.degenerate


def test_welch_antisymmetry():
    rng = np.random.default_rng(3)
    a = rng.normal(0.0, 1.0, 12)
    b = rng.normal(0.4, 1.3, 9)
    fwd = welch_test(a, b)
    rev = welch_test(b, a)
    assert fwd.t == pytest.approx(-rev.t, abs=1e-12)
    assert fwd.df == pytest.approx(rev.df, abs=1e-12)
    assert fwd.p == pytest.approx(rev.p, abs=1e-12)


def test_welch_identical_samples():
    a = [1.0, 2.0, 3.0]
    res = welch_test(a, a)
    assert res.t == 0.0 and res.p == pytest.approx(1.0)


def test_welch_degenerate_cases():
    same = welch_test([2.0, 2.0], [2.0, 2.0])
    assert same.degenerate and same.t == 0.0 and same.p == 1.0
    diff = welch_test([3.0, 3.0], [2.0, 2.0])
    assert diff.degenerate and diff.t == math.inf and diff.p == 0.0
    rev = welch_test([2.0, 2.0], [3.0, 3.0])
    assert rev.t == -math.inf


def test_welch_fields_and_validation():
    res = welch_test([1.0, 2.0, 3.0], [1.5, 2.5, 3.5])
    assert isinstance(res.t, float) and res.df > 0 and 0.0 <= res.p <= 1.0
    with pytest.raises(ValidationError):
        welch_test([1.0], [1.0, 2.0])

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


# Exact bits on a fixed grid, recorded with float.hex: the continued fraction
# may be rewritten only in ways that keep every float it returns.
T_GRID, DF_GRID = (0.1, 0.7, 1.5, 3.0, 12.0), (1.0, 2.5, 7.0, 40.0)
T_SF_BITS = [
    "0x1.df835890bf95bp-2", "0x1.db09759786bfap-2", "0x1.d8a6dccabca5ap-2",
    "0x1.d778d8731aaf6p-2", "0x1.38ef2d4ece0c1p-2", "0x1.16392c36f7bb2p-2",
    "0x1.035644c30f65cp-2", "0x1.f3b0b57facda0p-3", "0x1.7f516f1bbd09dp-3",
    "0x1.fb91ada619258p-4", "0x1.6b1b781a04830p-4", "0x1.21b9556154f10p-4",
    "0x1.a37f5c4c419e9p-4", "0x1.29458d4dabe12p-5", "0x1.46bb56e32ce46p-7",
    "0x1.2f70daf2e86e1p-9", "0x1.b198e58b36073p-6", "0x1.73bf9598e36a5p-10",
    "0x1.aab2f0c6799fbp-19", "0x1.19e53e2966c4ap-48",
]
A_GRID, B_GRID, X_GRID = (0.5, 2.0, 9.5), (0.5, 3.0), (0.05, 0.4, 0.9)
BETAINC_BITS = [
    "0x1.260615ae5dae5p-3", "0x1.be5e15eb156bfp-2", "0x1.972028ecef986p-1",
    "0x1.9f3a97d2ef215p-2", "0x1.d0ad7f9d5cf3dp-1", "0x1.ffd567a8c2d14p-1",
    "0x1.f3f34b87c57d3p-11", "0x1.20b3d3d9eea1dp-4", "0x1.153b858becb0ap-1",
    "0x1.cb5dcc63f140fp-7", "0x1.0cb295e9e1b07p-1", "0x1.fe1b089a02752p-1",
    "0x1.6ba61418bcbb2p-44", "0x1.3adcb43b58653p-15", "0x1.4ce7038e61528p-3",
    "0x1.a6dac891bf9b9p-36", "0x1.0be39474590e8p-8", "0x1.ccce5eaa8c905p-1",
]


def test_t_sf_and_betainc_bits_are_pinned():
    assert [t_sf(t, df).hex() for t in T_GRID for df in DF_GRID] == T_SF_BITS
    assert [betainc_reg(a, b, x).hex()
            for a in A_GRID for b in B_GRID for x in X_GRID] == BETAINC_BITS


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

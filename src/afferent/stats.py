"""Welch's t-test with a self-contained Student-t survival function.

The survival function evaluates the regularized incomplete beta function by
Lentz's continued-fraction method, accurate to better than 1e-8 over the
parameter range exercised here (df >= 1, |t| < 1e8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = ["WelchResult", "welch_test", "t_sf", "betainc_reg"]

_EPS = 3e-16
_FPMIN = 1e-300
_MAX_ITER = 300


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (Lentz's method)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        even = m * (b - m) * x / ((qam + m2) * (a + m2))
        odd = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        for aa in (even, odd):
            d = 1.0 + aa * d
            if abs(d) < _FPMIN:
                d = _FPMIN
            c = 1.0 + aa / c
            if abs(c) < _FPMIN:
                c = _FPMIN
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _EPS:  # the odd half-step's delta
            return h
    raise ValidationError("incomplete beta continued fraction did not converge")


def betainc_reg(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if not (a > 0 and b > 0):
        raise ValidationError("beta parameters must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_sf(t: float, df: float) -> float:
    """P(T > t) for Student's t with df degrees of freedom."""
    if df <= 0:
        raise ValidationError("degrees of freedom must be positive")
    if t == 0.0:
        return 0.5
    x = df / (df + t * t)
    tail = 0.5 * betainc_reg(0.5 * df, 0.5, x)
    return tail if t > 0 else 1.0 - tail


@dataclass
class WelchResult:
    """Unequal-variance t-test outcome."""

    t: float
    df: float
    p: float
    degenerate: bool = False


def welch_test(sample_a, sample_b) -> WelchResult:
    """Two-sided Welch's t-test with Welch-Satterthwaite degrees of freedom.

    Both samples need at least two points.  If both have zero variance, the
    result is flagged degenerate: t = +-inf with p = 0 when the means differ,
    t = 0 with p = 1 when they coincide.
    """
    a = np.asarray(sample_a, dtype=float)
    b = np.asarray(sample_b, dtype=float)
    if a.size < 2 or b.size < 2:
        raise ValidationError("welch_test needs at least 2 points per sample")
    na, nb = a.size, b.size
    ma, mb = float(a.mean()), float(b.mean())
    va = float(a.var(ddof=1))
    vb = float(b.var(ddof=1))
    se2 = va / na + vb / nb
    if se2 == 0.0:
        if ma == mb:
            return WelchResult(0.0, float(na + nb - 2), 1.0, degenerate=True)
        sign = 1.0 if ma > mb else -1.0
        return WelchResult(sign * math.inf, float(na + nb - 2), 0.0, degenerate=True)
    t = (ma - mb) / math.sqrt(se2)
    df = se2**2 / ((va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1))
    p = 2.0 * t_sf(abs(t), df)
    return WelchResult(t, df, min(p, 1.0))

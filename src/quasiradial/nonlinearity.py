"""Model nonlinearities with double-power growth and their primitives.

Two families are provided: the pointwise minimum of two signed powers, and a
rational splice of the two powers.  Both have primitive F with F(0) = 0,
satisfy the superlinearity condition theta * F(t) <= f(t) * t for all t >= 0
(with theta = min(q1, q2), resp. q1), and collapse to the single power
|t|^(q-2) t when q1 = q2 = q.  In solver mode f is extended by zero on t < 0,
which makes nonpositive parts energetically inert and yields nonnegative
minimizers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MIN_POWERS = "min_powers"
RATIONAL = "rational"
PURE_POWER = "pure_power"

_KINDS = (MIN_POWERS, RATIONAL, PURE_POWER)


@dataclass(frozen=True)
class NonlinearitySpec:
    """Parameters of one model nonlinearity.

    theta defaults to the family's superlinearity exponent; M scales the
    whole nonlinearity and doubles as the growth constant.
    """

    kind: str
    q1: float
    q2: float
    theta: float = None
    M: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown nonlinearity kind {self.kind!r}")
        if self.q1 <= 1 or self.q2 <= 1:
            raise ValueError("q1 and q2 must exceed 1")
        if self.kind == RATIONAL and self.q1 > self.q2:
            raise ValueError("rational family requires q1 <= q2")
        if self.kind == PURE_POWER and self.q1 != self.q2:
            raise ValueError("pure_power requires q1 == q2")
        if self.theta is None:
            theta = self.q1 if self.kind == RATIONAL else min(self.q1, self.q2)
            object.__setattr__(self, "theta", theta)

    @staticmethod
    def from_json(obj):
        return NonlinearitySpec(
            kind=obj["kind"], q1=float(obj["q1"]), q2=float(obj["q2"]),
            M=float(obj.get("M", 1.0)))


def pure_power(q, M=1.0):
    return NonlinearitySpec(kind=PURE_POWER, q1=q, q2=q, M=M)


def f_eval(spec: NonlinearitySpec, t, nonneg=False):
    """Evaluate f(t).  With nonneg=True, f is zero on t < 0 (solver mode)."""
    t = np.asarray(t, dtype=float)
    at = np.abs(t)
    if spec.kind == RATIONAL:
        with np.errstate(over="ignore", invalid="ignore"):
            vals = spec.M * at ** (spec.q2 - 1) / (1.0 + at ** (spec.q2 - spec.q1))
        vals = np.where(at == 0, 0.0, vals) * np.sign(t)
    else:
        # min of the signed powers; both equal |t|^(q-1) sign(t)
        v1 = at ** (spec.q1 - 1) * np.sign(t)
        v2 = at ** (spec.q2 - 1) * np.sign(t)
        vals = spec.M * np.minimum(v1, v2)
    if nonneg:
        vals = np.where(t < 0, 0.0, vals)
    if np.ndim(t) == 0:
        return float(vals)
    return vals


def _spliced_power_primitive(q_in, q_out, u):
    """Antiderivative on s >= 0 of s^(q_in-1) on (0, 1) and s^(q_out-1) beyond,
    evaluated at u >= 0.  The min of two powers is (q_hi, q_lo), the max is
    (q_lo, q_hi)."""
    small = u ** q_in / q_in
    large = 1.0 / q_in - 1.0 / q_out + u ** q_out / q_out
    return np.where(u <= 1.0, small, large)


def _rational_primitive(q1, q2, u, M=1.0):
    """M times the antiderivative of s^(q2-1) / (1 + s^(q2-q1)) on s >= 0, at u >= 0.

    With d = q2 - q1 > 0, x = u^d and b = q2/d it is u^q2/q2 2F1(1, b; b+1; -x)
    (DLMF 15.2.1), computed as u^q1 (x 2F1) / q2 because x 2F1 -> q2/q1.
    Entries that overflow before the factor M >= 0 are redone through logs,
    log M included, so M F is finite wherever it is a float.  Where x
    overflows, x 2F1 is its limit q2/q1 - c q2 u^-q1: F = u^q1/q1 - int_0^u
    s^(q1-1)/(1+s^d) ds, and that integral is c = pi / (d sin(pi q1/d))
    there for q1 < d, and negligible beside u^q1 otherwise.
    """
    d = q2 - q1
    if d == 0.0:
        return M * (u ** q1 / (2.0 * q1))
    from scipy.special import hyp2f1  # deferred: no other path needs scipy

    b = q2 / d
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x = u ** d
        xh = x * hyp2f1(1.0, b, b + 1.0, -x)
        vals = u ** q1 * xh / q2
        bad = ~np.isfinite(vals)
        vals = M * vals
        if np.any(bad):
            c = math.pi / (d * math.sin(math.pi * q1 / d)) if q1 < d else 0.0
            xh = np.where(np.isinf(x), q2 / q1 - c * q2 * u ** -q1, xh)
            vals = np.where(bad, np.exp(np.log(M) + q1 * np.log(u) + np.log(xh / q2)), vals)
    return vals


@lru_cache(maxsize=65536)
def _rational_primitive_scalar(q1, q2, u):
    """Quadrature value of _rational_primitive, the tests' reference.

    At epsrel 1e-10 quad misses by up to 3e-8 for u in the hundreds.
    """
    from scipy.integrate import quad

    if u == 0.0:
        return 0.0
    val, _ = quad(lambda s: s ** (q2 - 1) / (1.0 + s ** (q2 - q1)),
                  0.0, u, epsrel=1e-12, epsabs=0.0, limit=200)
    return val


def F_eval(spec: NonlinearitySpec, t, nonneg=False):
    """Primitive F(t) = integral of f from 0 to t; F(0) = 0.

    Both families use closed forms, evaluated on the whole array at once:
    min_powers is piecewise in powers of |t|, and the rational family is a
    Gauss hypergeometric function of -|t|^(q2-q1) (see _rational_primitive).
    F is even for the rational family, since its f is odd.
    """
    t = np.asarray(t, dtype=float)
    at = np.abs(t)
    if spec.kind == RATIONAL:
        vals = _rational_primitive(spec.q1, spec.q2, at, spec.M)
    else:
        q_lo, q_hi = sorted((spec.q1, spec.q2))
        pos = _spliced_power_primitive(q_hi, q_lo, at)
        if nonneg:
            vals = spec.M * pos  # t < 0 is zeroed below
        else:
            # f is min of powers, so for t < 0 the integrand is -max of powers
            neg = _spliced_power_primitive(q_lo, q_hi, at)
            vals = spec.M * np.where(t >= 0, pos, neg)
    if nonneg:
        vals = np.where(t < 0, 0.0, vals)
    if np.ndim(t) == 0:
        return float(vals)
    return vals


def check_ar(spec: NonlinearitySpec, samples, slack=1e-12) -> bool:
    """Superlinearity check: theta * F(t) <= f(t) * t on the given samples."""
    t = np.asarray(samples, dtype=float)
    lhs = spec.theta * F_eval(spec, t)
    rhs = f_eval(spec, t) * t
    return bool(np.all(lhs <= rhs + slack))


def check_growth(spec: NonlinearitySpec, samples, slack=1e-12) -> bool:
    """Double-power growth: 0 <= f(t) <= M * min(t^(q1-1), t^(q2-1)) on t >= 0."""
    t = np.asarray(samples, dtype=float)
    if np.any(t < 0):
        raise ValueError("growth check expects nonnegative samples")
    f = f_eval(spec, t)
    bound = spec.M * np.minimum(t ** (spec.q1 - 1), t ** (spec.q2 - 1))
    return bool(np.all(f >= -slack) and np.all(f <= bound + slack))

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


def _spliced_power_primitive(q_in, q_out, u, M):
    """M times the antiderivative on s >= 0 of s^(q_in-1) on (0, 1) and s^(q_out-1)
    beyond, at u >= 0, through logs where u^q_out overflows before M >= 0.
    The min of two powers is (q_hi, q_lo), the max is (q_lo, q_hi)."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        large = u ** q_out / q_out
        vals = M * np.where(u <= 1.0, u ** q_in / q_in, 1.0 / q_in - 1.0 / q_out + large)
        return np.where(np.isinf(large), np.exp(np.log(M / q_out) + q_out * np.log(u)), vals)


@lru_cache(maxsize=64)
def _series(n, f, w):
    """Coefficients k!/(b+1)_k of S_b(z) = 2F1(1, 1; b+1; z), b = n + f (n an integer),
    highest first, to a rest below 1e-17 on [0, w]: term k / (1 - rho), rho = max(w,
    (k+1) w/(b+k+1)) bounding the later ratios; exact at w = 1 with rho = (k+1)/(b+k)."""
    c, k = [1.0], 1
    while True:
        c.append(c[-1] * k / ((n + k) + f))
        bk = (n + k + 1) + f
        rho = (k + 1) / (bk - 1) if w == 1.0 else max(w, (k + 1) * w / bk) if bk > 0 else 1.0
        if abs(c[-1]) * w ** k < 1e-17 * (1.0 - rho):
            return tuple(c[-2::-1])
        k += 1


def _rational_primitive(q1, q2, u, M=1.0):
    """M times the antiderivative F of s^(q2-1) / (1 + s^d), d = q2 - q1, on s >= 0, at u >= 0.

    F = u^q2/q2 2F1(1, b; b+1; -x), x = u^d, b = q2/d (DLMF 15.2.1), is summed by Horner
    as F / u^q1 (-> 1/q1) in one of three forms (README), a = q1/d = round(a) + e = m + e:
    - x <= 1, or b >= 20: u^q2 / (q2 (1+x)) S_b(x/(1+x)) (DLMF 15.8.1);
    - x > 1: u^q1/q1 - pi/(d sin(pi a)) + u^(q1-d)/((d-q1)(1+1/x)) S_(1-a)(1/(1+x));
    - x > 1, |e| <= 1e-8: (1/d) [sum_(j<m) (-1)^j x^(m-j)/(m-j) + (-1)^m log1p(x)].
    Entries that overflow before M >= 0 are redone through logs, log M included.
    """
    d = q2 - q1
    if d == 0.0:
        return M * (u ** q1 / (2.0 * q1))
    a, b = q1 / d, q2 / d
    m, e = round(a), a - round(a)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x = u ** d
        r = np.empty_like(x)
        pfaff = (x <= 1.0) | (b >= 20.0)
        w = 1.0 / (1.0 + 1.0 / x[pfaff])
        r[pfaff] = w / q2 * np.polyval(_series(0, b, 1.0 if b >= 20.0 else 0.5), w)
        y, uy = 1.0 / x[~pfaff], u[~pfaff]
        if b >= 20.0:  # no entry is left, and the series below would take about a terms
            pass
        elif abs(e) <= 1e-8:  # log1p(x) = d log u + log1p(y) is finite where x overflows
            alt = np.polyval([(-1) ** j / (m - j) for j in range(m - 1, -1, -1)], y)
            r[~pfaff] = (alt + (-1) ** m * y ** m * (d * np.log(uy) + np.log1p(y))) / d
        else:
            c = (-1) ** m * math.pi / (d * math.sin(math.pi * e))
            wy = y / (1.0 + y)
            r[~pfaff] = 1.0 / q1 - c * uy ** -q1 \
                - wy / (d * ((m - 1) + e)) * np.polyval(_series(1 - m, -e, 0.5), wy)
        vals = u ** q1 * r
        bad = ~np.isfinite(vals)
        vals = M * vals
        if np.any(bad):
            vals = np.where(bad, np.exp(np.log(M) + q1 * np.log(u) + np.log(r)), vals)
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

    Both families are evaluated on the whole array at once: min_powers is
    piecewise in powers of |t|, the rational family sums the series of
    _rational_primitive.  M F is finite wherever it is a float.
    F is even for the rational family, since its f is odd.
    """
    t = np.asarray(t, dtype=float)
    at = np.abs(t)
    if spec.kind == RATIONAL:
        vals = _rational_primitive(spec.q1, spec.q2, at, spec.M)
    else:
        q_lo, q_hi = sorted((spec.q1, spec.q2))
        vals = _spliced_power_primitive(q_hi, q_lo, at, spec.M)
        if not nonneg:
            # f is min of powers, so for t < 0 the integrand is -max of powers
            vals = np.where(t >= 0, vals, _spliced_power_primitive(q_lo, q_hi, at, spec.M))
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

"""Model nonlinearities with double-power growth and their primitives.

Two families are provided on t >= 0: the pointwise minimum of two powers,
and a rational splice of the two powers.  Both have primitive F with
F(0) = 0, satisfy the superlinearity condition theta * F(t) <= f(t) * t for
all t >= 0 (with theta = min(q1, q2), resp. q1), and collapse to the single
power t^(q-1) when q1 = q2 = q.  f and F vanish on t < 0, which makes
nonpositive parts energetically inert and yields nonnegative minimizers.
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

    M scales the whole nonlinearity and doubles as the growth constant.  q1
    and q2 must be finite and exceed 1, M finite and nonnegative.
    """

    kind: str
    q1: float
    q2: float
    M: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown nonlinearity kind {self.kind!r}")
        if not (math.isfinite(self.q1) and math.isfinite(self.q2)):
            raise ValueError("q1 and q2 must be finite")
        if self.q1 <= 1 or self.q2 <= 1:
            raise ValueError("q1 and q2 must exceed 1")
        if not (math.isfinite(self.M) and self.M >= 0):
            raise ValueError("M must be finite and nonnegative")
        if self.kind == RATIONAL and self.q1 > self.q2:
            raise ValueError("rational family requires q1 <= q2")
        if self.kind == PURE_POWER and self.q1 != self.q2:
            raise ValueError("pure_power requires q1 == q2")

    @property
    def theta(self):
        """The family's superlinearity exponent: q1 for rational, else min(q1, q2)."""
        return self.q1 if self.kind == RATIONAL else min(self.q1, self.q2)

    @staticmethod
    def from_json(obj):
        return NonlinearitySpec(
            kind=obj["kind"], q1=float(obj["q1"]), q2=float(obj["q2"]),
            M=float(obj.get("M", 1.0)))


def pure_power(q, M=1.0):
    return NonlinearitySpec(kind=PURE_POWER, q1=q, q2=q, M=M)


def f_eval(spec: NonlinearitySpec, t):
    """Evaluate f(t) for t >= 0; f is zero on t < 0, as at t = 0.

    M f is finite wherever it is a float: entries that overflow are redone through logs.
    """
    t = np.maximum(np.asarray(t, dtype=float), 0.0)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if spec.kind == RATIONAL:
            vals = spec.M * t ** (spec.q2 - 1) / (1.0 + t ** (spec.q2 - spec.q1))
        else:
            vals = spec.M * np.minimum(t ** (spec.q1 - 1), t ** (spec.q2 - 1))
        if not np.isfinite(vals).all():  # only beyond t = 1: redo through logs, log M included
            bad = ~np.isfinite(vals)
            if spec.kind == RATIONAL:  # t^(q1-1) / (t^-d + 1)
                log_f = (spec.q1 - 1) * np.log(t) - np.log1p(t ** (spec.q1 - spec.q2))
            else:  # the smaller power
                log_f = (min(spec.q1, spec.q2) - 1) * np.log(t)
            vals = np.where(bad, np.exp(np.log(spec.M) + log_f), vals)
    if np.ndim(t) == 0:
        return float(vals)
    return vals


def _spliced_power_primitive(q_in, q_out, u, M):
    """M times the antiderivative on s >= 0 of s^(q_in-1) on (0, 1) and s^(q_out-1)
    beyond, at u >= 0, through logs where u^q_out overflows before M >= 0.
    The min of two powers is (q_hi, q_lo)."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        large = u ** q_out / q_out
        vals = M * np.where(u <= 1.0, u ** q_in / q_in, 1.0 / q_in - 1.0 / q_out + large)
        return np.where(np.isinf(large), np.exp(np.log(M / q_out) + q_out * np.log(u)), vals)


_X_SPLIT, _BLOCK = 2.0, 8  # x = u^d where the series in 1/x takes over; Horner block size


@lru_cache(maxsize=64)
def _rational_series(q1, q2):
    """Both series' coefficients as (series, step, block, 1), highest first; K; pole, c_j."""
    d, ws, ys = q2 - q1, _X_SPLIT / (1.0 + _X_SPLIT), 1.0 / _X_SPLIT
    pfaff = [0.0, 1.0 / q2]  # (w/q2) k!/(b+1)_k w^k, b = q2/d, to a rest below 1e-17
    while pfaff[-1] * ws ** (len(pfaff) - 2) >= 1e-17 * (1.0 - ws) / q2:
        pfaff.append(pfaff[-1] * (len(pfaff) - 1) / ((len(pfaff) - 1) + q2 / d))
    # (-1)^j / c_j, c_j = q1 - j d, to the same rest: F/u^q1 >= w_s/q2 beyond x_s, and
    # no |c_j| but that of the j nearest q1/d (the pole) is below min(d, 1)/2
    j, c = round(q1 / d), q1 - round(q1 / d) * d
    pole = (-1) ** j * ys ** j if abs(c) < 0.5 else 0.0
    n = math.ceil(math.log(5e-18 * (1.0 - ys) * min(d, 1.0) * ws / q2) / math.log(ys))
    tail = [0.0 if pole and k == j else (-1) ** k / (q1 - k * d) for k in range(n)]
    K = np.polyval(pfaff[::-1], ws) - np.polyval(tail[::-1], ys)
    coef = np.zeros((2, -(-max(len(pfaff), n) // _BLOCK) * _BLOCK))
    coef[0, :len(pfaff)], coef[1, :n] = pfaff, tail
    # per series (step, block, 1): row k holds every block's k-th highest coefficient
    coef = coef.reshape(2, -1, _BLOCK)[:, ::-1, ::-1].transpose(0, 2, 1)[..., None].copy()
    return coef, K, pole, c if pole else 0.0


def _rational_primitive(q1, q2, u, M):
    """M times the antiderivative F of s^(q2-1) / (1 + s^d), d = q2 - q1, on s >= 0, at u >= 0.

    F/u^q1 is a series in w = x/(1+x) for x = u^d <= x_s and one in y = 1/x beyond, plus
    a pole-free term (README); one blocked Horner pass per side sums that side's series on
    its own entries.  Entries that overflow before M >= 0 are redone through logs, log M
    included.
    """
    d = q2 - q1
    if d == 0.0:
        return M * (u ** q1 / (2.0 * q1))
    coef, K, pole, c = _rational_series(q1, q2)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x = u ** d
        tail = x > _X_SPLIT
        z = np.where(tail, 1.0 / x, 1.0 / (1.0 + 1.0 / x))
        r = np.empty_like(z)
        for side, series in ((~tail, coef[0]), (tail, coef[1])):
            zs = z[side]
            acc = np.broadcast_to(series, series.shape[:2] + zs.shape)  # a view, not a copy
            for zk in (zs, zs ** _BLOCK):  # within the blocks, then across them
                acc, rows = acc[0].copy(), acc[1:]
                for row in rows:
                    acc *= zk
                    acc += row
            r[side] = acc
        L = np.log(u) - math.log(_X_SPLIT) / d
        g = np.expm1(c * L) / c if c else L
        r += np.where(tail, np.exp(-q1 * L) * (K + pole * g), 0.0)
        vals = u ** q1 * r
        bad = ~np.isfinite(vals)
        vals = M * vals
        if np.any(bad):
            vals = np.where(bad, np.exp(np.log(M) + q1 * np.log(u) + np.log(r)), vals)
    return vals


@lru_cache(maxsize=65536)
def _rational_primitive_scalar(q1, q2, u):
    """Quadrature value of _rational_primitive, the tests' reference.

    At epsrel 1e-12 quad agrees with 40-digit mpmath to 2e-13 on the near-integer
    specs q2 = 3 + 3/(m + e) and to 8e-13 on the tests' other specs, for u <= 1e3.
    """
    from scipy.integrate import quad

    if u == 0.0:
        return 0.0
    val, _ = quad(lambda s: s ** (q2 - 1) / (1.0 + s ** (q2 - q1)),
                  0.0, u, epsrel=1e-12, epsabs=0.0, limit=200)
    return val


def F_eval(spec: NonlinearitySpec, t):
    """Primitive F(t) = integral of f from 0 to t for t >= 0; F is zero on t <= 0.

    Both families are evaluated on the whole array at once: min_powers is
    piecewise in powers of t, the rational family sums the series of
    _rational_primitive.  M F is finite wherever it is a float.
    """
    t = np.maximum(np.asarray(t, dtype=float), 0.0)
    if spec.kind == RATIONAL:
        vals = _rational_primitive(spec.q1, spec.q2, t, spec.M)
    else:
        q_lo, q_hi = sorted((spec.q1, spec.q2))
        vals = _spliced_power_primitive(q_hi, q_lo, t, spec.M)
    if np.ndim(t) == 0:
        return float(vals)
    return vals


def check_ar(spec: NonlinearitySpec, samples) -> bool:
    """Superlinearity check: theta * F(t) <= f(t) * t on the given samples."""
    t = np.asarray(samples, dtype=float)
    lhs = spec.theta * F_eval(spec, t)
    rhs = f_eval(spec, t) * t
    return bool(np.all(lhs <= rhs + 1e-12))


def check_growth(spec: NonlinearitySpec, samples) -> bool:
    """Double-power growth: 0 <= f(t) <= M * min(t^(q1-1), t^(q2-1)) on t >= 0."""
    t = np.asarray(samples, dtype=float)
    if np.any(t < 0):
        raise ValueError("growth check expects nonnegative samples")
    f = f_eval(spec, t)
    bound = spec.M * np.minimum(t ** (spec.q1 - 1), t ** (spec.q2 - 1))
    return bool(np.all(f >= -1e-12) and np.all(f <= bound + 1e-12))
